import pytest

from weakbox_kit.config import RunConfig, load_run_config
from weakbox_kit.kvcfg import format_kv, parse_kv_text


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_kv_basics():
    kv = parse_kv_text("a = 1\n# comment\nb = two words  # trailing\n\nc=3\n")
    assert kv == {"a": "1", "b": "two words", "c": "3"}


def test_parse_kv_rejects_bad_lines():
    with pytest.raises(ValueError, match="line 1"):
        parse_kv_text("not a pair\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_kv_text("a = 1\na = 2\n")


def test_format_parse_roundtrip():
    kv = {"x": "1", "y": "hello"}
    assert parse_kv_text(format_kv(kv)) == kv


def test_load_defaults(tmp_path):
    path = write_cfg(tmp_path, "epochs = 3\n")
    cfg = load_run_config(path)
    assert cfg.epochs == 3
    assert cfg.learning_rate == pytest.approx(1e-4)
    assert cfg.use_sc is True


def test_unknown_keys_rejected(tmp_path):
    path = write_cfg(tmp_path, "epochs = 3\nwarp_speed = 9\n")
    with pytest.raises(ValueError, match="unknown config keys"):
        load_run_config(path)


def test_paths_resolved_relative_to_config(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    path = write_cfg(tmp_path, "dataset_dir = data\n")
    cfg = load_run_config(path)
    assert cfg.dataset_dir == str(data)


def test_missing_input_path_rejected(tmp_path):
    path = write_cfg(tmp_path, "dataset_dir = nowhere\n")
    with pytest.raises(FileNotFoundError, match="dataset_dir"):
        load_run_config(path)


def test_overrides_applied(tmp_path):
    path = write_cfg(tmp_path, "seed = 1\n")
    cfg = load_run_config(path, {"seed": 9, "phase": "refine"})
    assert cfg.seed == 9 and cfg.phase == "refine"


def test_bool_parsing(tmp_path):
    path = write_cfg(tmp_path, "use_sc = false\nuse_cnn_gate = TRUE\naugment = 0\n")
    cfg = load_run_config(path)
    assert cfg.use_sc is False and cfg.use_cnn_gate is True and cfg.augment is False


def test_bad_bool_rejected(tmp_path):
    path = write_cfg(tmp_path, "use_sc = maybe\n")
    with pytest.raises(ValueError, match="boolean"):
        load_run_config(path)


@pytest.mark.parametrize(
    "line",
    [
        "phase = warmup",
        "epochs = -1",
        "batch_size = 0",
        "learning_rate = -0.1",
        "scale1 = 4",
        "refine_label_fraction = 0",
        "holdout_fraction = 1.0",
        "supervision = scribbles",
        "feat_channels = 7",
    ],
)
def test_validation_rejects(tmp_path, line):
    path = write_cfg(tmp_path, line + "\n")
    with pytest.raises(ValueError):
        load_run_config(path)


@pytest.mark.parametrize("key", ["learning_rate", "beta", "smooth_eps", "weight_decay"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_values_rejected(tmp_path, key, raw):
    path = write_cfg(tmp_path, f"{key} = {raw}\n")
    with pytest.raises(ValueError, match=f"^{key}: expected a finite number"):
        load_run_config(path)


def test_zero_learning_rate_allowed(tmp_path):
    path = write_cfg(tmp_path, "learning_rate = 0\n")
    assert load_run_config(path).learning_rate == 0.0


def test_runconfig_direct_validation():
    with pytest.raises(ValueError):
        RunConfig(supervision="scribbles").validate()


@pytest.mark.parametrize("value", ["adamw", "sgd"])
def test_optimizer_key_rejected(tmp_path, value):
    path = write_cfg(tmp_path, f"optimizer = {value}\n")
    with pytest.raises(ValueError, match=r"unknown config keys: \['optimizer'\]"):
        load_run_config(path)


def test_negative_weight_decay_rejected(tmp_path):
    with pytest.raises(ValueError, match="weight_decay must be >= 0, got -1.0"):
        RunConfig(weight_decay=-1.0).validate()
    with pytest.raises(ValueError, match="weight_decay must be >= 0"):
        load_run_config(write_cfg(tmp_path, "weight_decay = -0.5\n"))
    assert load_run_config(write_cfg(tmp_path, "weight_decay = 0\n")).weight_decay == 0.0
