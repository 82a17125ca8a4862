import json
import os

import numpy as np
import pytest

from weakbox_kit.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from weakbox_kit.config import RunConfig
from weakbox_kit.nets import init_params
from weakbox_kit.pipeline import net_config
from weakbox_kit.pgm import read_pgm, write_pgm
from weakbox_kit.synth import DatasetSpec, generate_dataset, save_dataset

from helpers import NCFG, save_untrained


def write_file(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset directory plus a matching run config, built through the CLI."""
    root = tmp_path_factory.mktemp("cliws")
    gen_cfg = write_file(root / "gen.cfg", "count = 14\nsize = 64\nn_objects_min = 1\nn_objects_max = 2\nshapes = ellipse,fused\nnoise = 0.25\nseed = 33\n")
    data_dir = str(root / "data")
    assert main(["synth-gen", "--config", gen_cfg, "--out", data_dir]) == EXIT_OK
    run_cfg = write_file(
        root / "run.cfg",
        "dataset_dir = data\nepochs = 1\nbatch_size = 8\nlearning_rate = 0.001\nseed = 5\n",
    )
    return root, data_dir, run_cfg


def test_usage_error_exit_code():
    assert main([]) == EXIT_USAGE
    assert main(["train-weak"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE


def test_synth_gen_layout(workspace):
    _, data_dir, _ = workspace
    assert os.path.exists(os.path.join(data_dir, "spec.cfg"))
    assert os.path.exists(os.path.join(data_dir, "images", "0000.pgm"))
    assert os.path.exists(os.path.join(data_dir, "masks", "0013.pgm"))


def test_mm2b_subcommand(workspace, tmp_path):
    _, data_dir, _ = workspace
    mask_in = os.path.join(data_dir, "masks", "0000.pgm")
    out_mask = str(tmp_path / "box.pgm")
    out_coords = str(tmp_path / "coords.json")
    assert main(["mm2b", "--in", mask_in, "--out", out_mask, "--coords", out_coords]) == EXIT_OK
    box = read_pgm(out_mask)
    assert set(np.unique(box)) <= {0.0, 1.0}
    payload = json.loads(open(out_coords).read())
    assert {"row_min", "col_min", "row_max", "col_max", "status", "centroid"} <= set(payload)
    assert payload["status"] in ("foreground", "background")


def test_mm2b_rejects_missing_file(tmp_path):
    code = main(["mm2b", "--in", str(tmp_path / "nope.pgm"), "--out", str(tmp_path / "o.pgm"), "--coords", str(tmp_path / "c.json")])
    assert code == EXIT_DATA


def test_mm2b_rejects_empty_mask(tmp_path):
    empty = tmp_path / "empty.pgm"
    write_pgm(empty, np.zeros((8, 8), dtype=np.float32))
    code = main(["mm2b", "--in", str(empty), "--out", str(tmp_path / "o.pgm"), "--coords", str(tmp_path / "c.json")])
    assert code == EXIT_DATA


def test_train_weak_then_eval_and_infer(workspace, tmp_path, capsys):
    root, data_dir, run_cfg = workspace
    out_dir = str(tmp_path / "run")
    assert main(["train-weak", "--config", run_cfg, "--out", out_dir]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "epoch   0" in captured
    ckpt = os.path.join(out_dir, "weak.ckpt")
    assert os.path.exists(ckpt)

    eval_dir = str(tmp_path / "eval")
    assert main(["eval", "--config", run_cfg, "--checkpoint", ckpt, "--out", eval_dir, "--split", "holdout"]) == EXIT_OK
    report = os.path.join(eval_dir, "metrics.csv")
    lines = open(report).read().splitlines()
    assert lines[0].startswith("sample_id,dsc,")
    assert len(lines) == 1 + 3  # 20% of 14 rounds to 3 held-out rows

    jsonl_dir = str(tmp_path / "evalj")
    assert main(["eval", "--config", run_cfg, "--checkpoint", ckpt, "--out", jsonl_dir, "--format", "jsonl"]) == EXIT_OK
    assert os.path.exists(os.path.join(jsonl_dir, "metrics.jsonl"))

    infer_dir = str(tmp_path / "infer")
    image = os.path.join(data_dir, "images", "0001.pgm")
    assert main(["infer", "--config", run_cfg, "--checkpoint", ckpt, "--images", image, "--out", infer_dir]) == EXIT_OK
    assert os.path.exists(os.path.join(infer_dir, "0001_coarse.pgm"))
    # no refine parameters anywhere: refined output omitted
    assert not os.path.exists(os.path.join(infer_dir, "0001_refined.pgm"))
    coords = json.loads(open(os.path.join(infer_dir, "0001_coords.json")).read())
    assert "prompt" in coords


def test_infer_deterministic_bytes(workspace, tmp_path):
    root, data_dir, run_cfg = workspace
    out_dir = str(tmp_path / "run")
    assert main(["train-weak", "--config", run_cfg, "--out", out_dir]) == EXIT_OK
    ckpt = os.path.join(out_dir, "weak.ckpt")
    image = os.path.join(data_dir, "images", "0002.pgm")
    d1, d2 = str(tmp_path / "i1"), str(tmp_path / "i2")
    assert main(["infer", "--config", run_cfg, "--checkpoint", ckpt, "--images", image, "--out", d1]) == EXIT_OK
    assert main(["infer", "--config", run_cfg, "--checkpoint", ckpt, "--images", image, "--out", d2]) == EXIT_OK
    for name in ("0002_coarse.pgm", "0002_coords.json"):
        with open(os.path.join(d1, name), "rb") as f1, open(os.path.join(d2, name), "rb") as f2:
            assert f1.read() == f2.read()


def test_train_refine_then_infer_writes_refined(workspace, tmp_path):
    root, data_dir, run_cfg = workspace
    refine_cfg = write_file(
        root / "refine.cfg",
        "dataset_dir = data\nepochs = 2\nbatch_size = 4\nlearning_rate = 0.002\nseed = 5\nrefine_label_fraction = 0.3\n",
    )
    rdir = str(tmp_path / "refine")
    assert main(["train-refine", "--config", refine_cfg, "--out", rdir]) == EXIT_OK
    refine_ckpt = os.path.join(rdir, "refine.ckpt")
    assert os.path.exists(refine_ckpt)

    combo_cfg = write_file(
        root / "combo.cfg",
        f"dataset_dir = data\nepochs = 1\nbatch_size = 8\nseed = 5\nrefine_checkpoint = {refine_ckpt}\n",
    )
    wdir = str(tmp_path / "weak")
    assert main(["train-weak", "--config", combo_cfg, "--out", wdir]) == EXIT_OK
    ckpt = os.path.join(wdir, "weak.ckpt")

    infer_dir = str(tmp_path / "infer")
    image = os.path.join(data_dir, "images", "0003.pgm")
    assert main(["infer", "--config", combo_cfg, "--checkpoint", ckpt, "--images", image, "--out", infer_dir]) == EXIT_OK
    assert os.path.exists(os.path.join(infer_dir, "0003_refined.pgm"))


def test_infer_untrained_refine_is_identity(workspace, tmp_path):
    # a zero-initialized refine head leaves the written mask byte-identical
    root, data_dir, run_cfg = workspace
    from weakbox_kit.nets import init_refiner

    refine_ckpt = str(tmp_path / "fresh_refine.ckpt")
    save_untrained(refine_ckpt, init_refiner(5))

    out_dir = str(tmp_path / "run")
    assert main(["train-weak", "--config", run_cfg, "--out", out_dir]) == EXIT_OK
    combo_cfg = write_file(
        root / "identity.cfg",
        f"dataset_dir = data\nepochs = 1\nseed = 5\nrefine_checkpoint = {refine_ckpt}\n",
    )
    infer_dir = str(tmp_path / "infer")
    image = os.path.join(data_dir, "images", "0004.pgm")
    ckpt = os.path.join(out_dir, "weak.ckpt")
    assert main(["infer", "--config", combo_cfg, "--checkpoint", ckpt, "--images", image, "--out", infer_dir]) == EXIT_OK
    with open(os.path.join(infer_dir, "0004_coarse.pgm"), "rb") as a, open(os.path.join(infer_dir, "0004_refined.pgm"), "rb") as b:
        assert a.read() == b.read()


def test_refine_checkpoint_without_refiner_is_data_error(workspace, tmp_path, capsys):
    root, _, run_cfg = workspace
    weak_dir = str(tmp_path / "weak")
    assert main(["train-weak", "--config", run_cfg, "--out", weak_dir]) == EXIT_OK
    weak_ckpt = os.path.join(weak_dir, "weak.ckpt")
    capsys.readouterr()
    cfg = write_file(root / "weak_as_refiner.cfg", f"dataset_dir = data\nepochs = 1\nseed = 5\nrefine_checkpoint = {weak_ckpt}\n")
    out_dir = tmp_path / "combo"
    assert main(["train-weak", "--config", cfg, "--out", str(out_dir)]) == EXIT_DATA
    assert f"refine_checkpoint {weak_ckpt} holds no refine" in capsys.readouterr().err
    assert not (out_dir / "weak.ckpt").exists()
    assert main(["eval", "--config", cfg, "--checkpoint", weak_ckpt, "--out", str(tmp_path / "e"), "--refined"]) == EXIT_DATA
    assert "refine_checkpoint" in capsys.readouterr().err


def test_eval_missing_checkpoint(workspace, tmp_path):
    _, _, run_cfg = workspace
    code = main(["eval", "--config", run_cfg, "--checkpoint", str(tmp_path / "nope.ckpt"), "--out", str(tmp_path / "e")])
    assert code == EXIT_DATA


@pytest.mark.parametrize("garble", ["truncated", "non-utf8-name"])
def test_eval_garbled_checkpoint_is_data_error(workspace, tmp_path, capsys, garble):
    _, _, run_cfg = workspace
    ckpt = tmp_path / "garbled.ckpt"
    save_untrained(str(ckpt), init_params(0, NCFG, include_refine=False))
    blob = bytearray(ckpt.read_bytes())
    if garble == "truncated":
        blob = blob[: len(blob) // 2]
    else:
        blob[26] = 0xFF  # the first tensor name, after the 24-byte header and its 2-byte length
    ckpt.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["eval", "--config", run_cfg, "--checkpoint", str(ckpt), "--out", str(tmp_path / "e")]) == EXIT_DATA
    assert f"checkpoint {ckpt}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["infer", "eval", "refine_checkpoint"])
def test_directory_as_checkpoint_is_data_error(workspace, tmp_path, capsys, command):
    root, data_dir, run_cfg = workspace
    folder = tmp_path / "a_directory.ckpt"
    folder.mkdir()
    ckpt = str(tmp_path / "init.ckpt")
    save_untrained(ckpt, init_params(0, NCFG, include_refine=False))
    image = os.path.join(data_dir, "images", "0000.pgm")
    infer = ["infer", "--images", image, "--out", str(tmp_path / "infer")]
    if command == "infer":
        argv = [*infer, "--config", run_cfg, "--checkpoint", str(folder)]
    elif command == "eval":
        argv = ["eval", "--config", run_cfg, "--checkpoint", str(folder), "--out", str(tmp_path / "e")]
    else:
        cfg = write_file(tmp_path / "dir_refiner.cfg", f"dataset_dir = {data_dir}\nrefine_checkpoint = {folder}\n")
        argv = [*infer, "--config", cfg, "--checkpoint", ckpt]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    assert f"checkpoint {folder}: " in capsys.readouterr().err


@pytest.mark.parametrize("path_kind", ["dataset_dir_file", "config_dir", "mm2b_in_dir", "infer_images_dir"])
def test_unreadable_path_is_data_error(workspace, tmp_path, capsys, path_kind):
    root, data_dir, run_cfg = workspace
    folder = tmp_path / "a_directory"
    folder.mkdir()
    ckpt = str(tmp_path / "init.ckpt")
    save_untrained(ckpt, init_params(0, NCFG, include_refine=False))
    out = str(tmp_path / "out")
    if path_kind == "dataset_dir_file":
        cfg = write_file(tmp_path / "file_data.cfg", f"dataset_dir = {ckpt}\nepochs = 1\n")
        argv, culprit = ["train-weak", "--config", cfg, "--out", out], ckpt
    elif path_kind == "config_dir":
        argv, culprit = ["train-weak", "--config", str(folder), "--out", out], str(folder)
    elif path_kind == "mm2b_in_dir":
        argv, culprit = ["mm2b", "--in", str(folder), "--out", str(tmp_path / "o.pgm"), "--coords", str(tmp_path / "c.json")], str(folder)
    else:
        argv, culprit = ["infer", "--config", run_cfg, "--checkpoint", ckpt, "--images", str(folder), "--out", out], str(folder)
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    assert culprit in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train-weak", "eval", "infer"])
@pytest.mark.parametrize("key, value", [("beta", "-1"), ("lambda2", "-0.1"), ("smooth_eps", "0")])
def test_bad_loss_weight_fails_at_config_load(workspace, tmp_path, capsys, command, key, value):
    root, data_dir, _ = workspace
    cfg = write_file(tmp_path / "bad.cfg", f"dataset_dir = {data_dir}\nepochs = 1\n{key} = {value}\n")
    ckpt = str(tmp_path / "init.ckpt")
    save_untrained(ckpt, init_params(0, NCFG, include_refine=False))
    out = str(tmp_path / "out")
    argv = {
        "train-weak": ["train-weak", "--config", cfg, "--out", out],
        "eval": ["eval", "--config", cfg, "--checkpoint", ckpt, "--out", out],
        "infer": ["infer", "--config", cfg, "--checkpoint", ckpt, "--images", os.path.join(data_dir, "images", "0000.pgm"), "--out", out],
    }[command]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    assert key in capsys.readouterr().err
    assert not os.path.exists(out)


def test_eval_dataset_size_other_than_scale1_is_data_error(tmp_path):
    spec = DatasetSpec(count=4, size=48, seed=7)
    data_dir = str(tmp_path / "data48")
    save_dataset(generate_dataset(spec), spec, data_dir)
    ckpt = str(tmp_path / "init.ckpt")
    save_untrained(ckpt, init_params(0, NCFG, include_refine=False))
    run_cfg = write_file(tmp_path / "run.cfg", f"dataset_dir = {data_dir}\n")
    assert main(["eval", "--config", run_cfg, "--checkpoint", ckpt, "--out", str(tmp_path / "e")]) == EXIT_DATA


def test_infer_rejects_non_square_image(tmp_path, capsys):
    ckpt = str(tmp_path / "init.ckpt")
    save_untrained(ckpt, init_params(0, NCFG, include_refine=False))
    run_cfg = write_file(tmp_path / "run.cfg", "seed = 5\n")
    image = str(tmp_path / "wide.pgm")
    write_pgm(image, np.random.default_rng(0).uniform(0, 1, (48, 40)))
    out_dir = tmp_path / "infer"
    assert main(["infer", "--config", run_cfg, "--checkpoint", ckpt, "--images", image, "--out", str(out_dir)]) == EXIT_DATA
    assert "48x40" in capsys.readouterr().err
    assert not (out_dir / "wide_coarse.pgm").exists()


def test_checkpoint_config_mismatch_is_data_error(workspace, tmp_path, capsys):
    # a feat_channels = 8 checkpoint under the default config (16)
    _, data_dir, run_cfg = workspace
    ckpt = str(tmp_path / "narrow.ckpt")
    save_untrained(ckpt, init_params(0, net_config(RunConfig(feat_channels=8)), include_refine=False))
    image = os.path.join(data_dir, "images", "0000.pgm")
    out_dir = tmp_path / "infer"
    assert main(["infer", "--config", run_cfg, "--checkpoint", ckpt, "--images", image, "--out", str(out_dir)]) == EXIT_DATA
    assert "'cnn.stage1.bn.running_mean'" in capsys.readouterr().err
    assert not out_dir.exists()
    assert main(["eval", "--config", run_cfg, "--checkpoint", ckpt, "--out", str(tmp_path / "e")]) == EXIT_DATA
    assert "does not match the config" in capsys.readouterr().err


def test_config_unknown_key_is_data_error(workspace, tmp_path):
    root, _, _ = workspace
    bad = write_file(tmp_path / "bad.cfg", "dataset_dir = .\nwibble = 3\n")
    assert main(["train-weak", "--config", bad]) == EXIT_DATA


@pytest.mark.parametrize("line, key", [("optimizer = adamw", "optimizer"), ("optimizer = sgd", "optimizer"), ("weight_decay = -1", "weight_decay")])
def test_train_weak_bad_optimizer_setting_is_data_error(workspace, tmp_path, capsys, line, key):
    _, data_dir, _ = workspace
    cfg = write_file(tmp_path / "bad.cfg", f"dataset_dir = {data_dir}\nepochs = 1\n{line}\n")
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(["train-weak", "--config", cfg, "--out", out]) == EXIT_DATA
    assert key in capsys.readouterr().err
    assert not os.path.exists(out)


def test_train_refine_with_checkpoint_in_is_data_error(workspace, tmp_path, capsys):
    root, _, _ = workspace
    ckpt = str(tmp_path / "init.ckpt")
    save_untrained(ckpt, init_params(0, NCFG, include_refine=True))
    cfg = write_file(root / "refine_resume.cfg", f"dataset_dir = data\nepochs = 1\nseed = 5\ncheckpoint_in = {ckpt}\n")
    out_dir = tmp_path / "refine"
    assert main(["train-refine", "--config", cfg, "--out", str(out_dir)]) == EXIT_DATA
    assert "checkpoint_in" in capsys.readouterr().err
    assert not (out_dir / "refine.ckpt").exists()


def test_gradcheck_cli_smoke(capsys):
    assert main(["gradcheck", "--seed", "3", "--instances", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "conv2d" in out and "loss_total_weak" in out and "all" in out


@pytest.mark.parametrize("count", ["0", "-1"])
def test_gradcheck_cli_rejects_vacuous_run(count, capsys):
    # a run of no instances would pass every check without checking one
    assert main(["gradcheck", "--instances", count]) == EXIT_DATA
    captured = capsys.readouterr()
    assert "instances" in captured.err and "passed" not in captured.out
