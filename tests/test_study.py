from weakbox_kit import study
from weakbox_kit.study import run_seed, run_seeds


def test_run_seeds_equals_serial_loop(tmp_path):
    # each seed is deterministic and shares no state, so worker processes
    # give a serial loop's rows exactly, in seed order
    serial = [run_seed(seed, str(tmp_path / "serial"), epochs=1, refine_epochs=1) for seed in [2, 1]]
    rows = list(run_seeds([2, 1], str(tmp_path / "workers"), epochs=1, refine_epochs=1))
    assert [row["seed"] for row in rows] == [2, 1]
    assert rows == serial


def test_run_seed_scores_each_model_with_its_own_config(tmp_path, monkeypatch):
    # the gate-off model scored with the gate on would blend in its untrained CNN block
    trained, scored = {}, []
    train_weak = study.train_weak

    def recording_train_weak(cfg):
        result = train_weak(cfg)
        trained[id(result.params)] = cfg
        return result

    def recording_evaluate(cfg, params, samples, use_refine=False):
        scored.append((cfg, params))
        return [], {"dsc": 0.0, "hd95": 0.0}, 0.0

    monkeypatch.setattr(study, "train_weak", recording_train_weak)
    monkeypatch.setattr(study, "evaluate", recording_evaluate)
    run_seed(1, str(tmp_path), epochs=0, refine_epochs=0)
    assert len(trained) == 4 and len(scored) == 6
    for cfg, params in scored:
        assert cfg is trained[id(params)]
