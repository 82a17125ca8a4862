from weakbox_kit.study import run_seed, run_seeds


def test_run_seeds_equals_serial_loop(tmp_path):
    # each seed is deterministic and shares no state, so worker processes
    # give a serial loop's rows exactly, in seed order
    serial = [run_seed(seed, str(tmp_path / "serial"), epochs=1, refine_epochs=1) for seed in [2, 1]]
    rows = list(run_seeds([2, 1], str(tmp_path / "workers"), epochs=1, refine_epochs=1))
    assert [row["seed"] for row in rows] == [2, 1]
    assert rows == serial
