import os

import numpy as np
import pytest

from weakbox_kit import tensor as T
from weakbox_kit.boxes import BoxCoords
from weakbox_kit.checkpoint import load_checkpoint
from weakbox_kit.config import RunConfig
from weakbox_kit.nets import init_params, scale_coords, single_scale_forward
from weakbox_kit.pipeline import (
    augment_pair,
    degrade_mask,
    evaluate,
    evaluate_predictions,
    mean_metrics,
    net_config,
    predict_batch,
    prompt_from_probability,
    refine_subset_indices,
    split_dataset,
    train_refine,
    train_weak,
)
from weakbox_kit.synth import DatasetSpec, generate_dataset, load_dataset, rng_from_key


def cfg_for(dataset_dir, tmp_path=None, **kw):
    defaults = dict(phase="weak", epochs=2, batch_size=8, learning_rate=1e-3, dataset_dir=dataset_dir, seed=3)
    defaults.update(kw)
    cfg = RunConfig(**defaults)
    if tmp_path is not None:
        cfg.checkpoint_out = os.path.join(str(tmp_path), "out.ckpt")
    return cfg


def test_split_dataset_deterministic_tail():
    samples = list(range(10))
    train, hold = split_dataset(samples, 0.2)
    assert train == list(range(8)) and hold == [8, 9]


def test_augment_pair_consistency():
    rng1 = rng_from_key(0, "aug", 0, 0)
    rng2 = rng_from_key(0, "aug", 0, 0)
    img = np.arange(36, dtype=np.float32).reshape(6, 6)
    mask = (img % 5 == 0).astype(np.float32)
    i1, m1 = augment_pair(img, mask, rng1)
    i2, m2 = augment_pair(img, mask, rng2)
    assert np.array_equal(i1, i2) and np.array_equal(m1, m2)
    # the same spatial transform hit both planes
    assert np.array_equal(i1 % 5 == 0, m1.astype(bool))


def test_refine_subset_deterministic():
    a = refine_subset_indices(40, 0.1, seed=5)
    b = refine_subset_indices(40, 0.1, seed=5)
    assert a == b and len(a) == 4
    assert refine_subset_indices(40, 0.1, seed=6) != a or True  # different seed may differ


def test_train_weak_zero_lr_keeps_params(tiny_dataset_dir):
    cfg = cfg_for(tiny_dataset_dir, learning_rate=0.0, epochs=1)
    from weakbox_kit.nets import init_params
    from weakbox_kit.pipeline import net_config

    reference = init_params(cfg.seed, net_config(cfg), include_refine=False)
    result = train_weak(cfg)
    for name, t in reference.tensors.items():
        assert np.array_equal(result.params[name].data, t.data), name


def test_train_weak_frozen_encoder_untouched(tiny_dataset_dir):
    cfg = cfg_for(tiny_dataset_dir, epochs=2)
    from weakbox_kit.nets import init_params
    from weakbox_kit.pipeline import net_config

    reference = init_params(cfg.seed, net_config(cfg), include_refine=False)
    result = train_weak(cfg)
    for name in reference.names():
        if name.startswith("encoder."):
            assert np.array_equal(result.params[name].data, reference[name].data)
        assert result.params[name].frozen == reference[name].frozen


def test_train_weak_checkpoint_and_loss_log(tiny_dataset_dir, tmp_path):
    cfg = cfg_for(tiny_dataset_dir, tmp_path)
    result = train_weak(cfg)
    assert len(result.epoch_losses) == cfg.epochs
    assert os.path.exists(result.checkpoint_path)
    ck = load_checkpoint(result.checkpoint_path)
    assert ck.epoch == cfg.epochs and ck.optimizer_kind == "adamw"


def test_train_weak_determinism_byte_identical(tiny_dataset_dir, tmp_path):
    cfg1 = cfg_for(tiny_dataset_dir, epochs=2)
    cfg1.checkpoint_out = os.path.join(str(tmp_path), "a.ckpt")
    cfg2 = cfg_for(tiny_dataset_dir, epochs=2)
    cfg2.checkpoint_out = os.path.join(str(tmp_path), "b.ckpt")
    r1 = train_weak(cfg1)
    r2 = train_weak(cfg2)
    assert r1.epoch_losses == r2.epoch_losses
    with open(cfg1.checkpoint_out, "rb") as f1, open(cfg2.checkpoint_out, "rb") as f2:
        assert f1.read() == f2.read()


def test_train_weak_resume_bit_exact(tiny_dataset_dir, tmp_path):
    full = cfg_for(tiny_dataset_dir, epochs=4)
    full.checkpoint_out = os.path.join(str(tmp_path), "full.ckpt")
    train_weak(full)

    part = cfg_for(tiny_dataset_dir, epochs=2)
    part.checkpoint_out = os.path.join(str(tmp_path), "part.ckpt")
    train_weak(part)
    resumed = cfg_for(tiny_dataset_dir, epochs=4)
    resumed.checkpoint_in = part.checkpoint_out
    resumed.checkpoint_out = os.path.join(str(tmp_path), "resumed.ckpt")
    result = train_weak(resumed)
    assert len(result.epoch_losses) == 2  # only the remaining epochs ran
    with open(full.checkpoint_out, "rb") as f1, open(resumed.checkpoint_out, "rb") as f2:
        assert f1.read() == f2.read()


def test_weak_phase_never_reaches_refine(tiny_dataset_dir, tmp_path):
    rcfg = cfg_for(tiny_dataset_dir, phase="refine", epochs=2, batch_size=4, refine_label_fraction=0.3)
    rcfg.checkpoint_out = os.path.join(str(tmp_path), "refine.ckpt")
    train_refine(rcfg)
    before = load_checkpoint(rcfg.checkpoint_out)

    wcfg = cfg_for(tiny_dataset_dir, epochs=2)
    wcfg.refine_checkpoint = rcfg.checkpoint_out
    wcfg.checkpoint_out = os.path.join(str(tmp_path), "weak.ckpt")
    result = train_weak(wcfg)
    for name, arr in before.tensors.items():
        t = result.params[name]
        assert t.frozen and t.grad is None
        assert np.array_equal(t.data, arr), name
    after = load_checkpoint(wcfg.checkpoint_out)
    for name, arr in before.tensors.items():
        assert np.array_equal(after.tensors[name], arr)
        assert after.frozen(name)


def test_train_weak_sgd_path(tiny_dataset_dir):
    cfg = cfg_for(tiny_dataset_dir, epochs=1, optimizer="sgd", learning_rate=1e-2)
    from weakbox_kit.nets import init_params
    from weakbox_kit.pipeline import net_config

    reference = init_params(cfg.seed, net_config(cfg), include_refine=False)
    result = train_weak(cfg)
    changed = any(
        not np.array_equal(result.params[n].data, t.data) for n, t in reference.tensors.items() if not t.frozen
    )
    assert changed
    for name, t in reference.tensors.items():
        if t.frozen:
            assert np.array_equal(result.params[name].data, t.data)


def test_train_refine_loss_decreases(tiny_dataset_dir):
    cfg = cfg_for(tiny_dataset_dir, phase="refine", epochs=12, batch_size=4, learning_rate=2e-3, refine_label_fraction=0.3)
    result = train_refine(cfg)
    assert result.epoch_losses[-1] < result.epoch_losses[0]


def test_train_refine_single_batch_overfit(tiny_dataset_dir):
    # one batch, many steps: loss collapses well below a tenth of the start
    cfg = cfg_for(
        tiny_dataset_dir,
        phase="refine",
        epochs=100,
        batch_size=4,
        learning_rate=2e-3,
        refine_label_fraction=0.2,
        holdout_fraction=0.0,
        augment=False,
    )
    result = train_refine(cfg)
    assert result.epoch_losses[-1] < 0.1 * result.epoch_losses[0]


def test_train_refine_zero_lr_keeps_params(tiny_dataset_dir):
    cfg = cfg_for(tiny_dataset_dir, phase="refine", epochs=1, learning_rate=0.0, refine_label_fraction=0.3)
    from weakbox_kit.nets import init_params
    from weakbox_kit.pipeline import net_config

    reference = init_params(cfg.seed, net_config(cfg), include_refine=True)
    result = train_refine(cfg)
    for name, t in reference.tensors.items():
        if name.startswith("refine."):
            assert np.array_equal(result.params[name].data, t.data)


def test_degrade_mask_stays_soft():
    rng = rng_from_key(1, "degrade", 0, 0)
    mask = np.zeros((32, 32), dtype=np.float32)
    mask[8:20, 10:22] = 1.0
    soft = degrade_mask(mask, rng)
    assert soft.min() >= 0.02 and soft.max() <= 0.98
    assert 0.0 < soft.mean() < 1.0


def test_evaluate_gt_against_itself(tiny_dataset_dir):
    _, samples = load_dataset(tiny_dataset_dir)
    rows = evaluate_predictions([s.gt_mask for s in samples], [s.gt_mask for s in samples])
    assert len(rows) == len(samples)
    for r in rows:
        assert r.dsc == 1.0 and r.miou == 1.0 and r.hd95 == 0.0
    means = mean_metrics(rows)
    assert means["dsc"] == 1.0


def test_evaluate_mean_equals_row_mean(tiny_dataset_dir):
    _, samples = load_dataset(tiny_dataset_dir)
    cfg = cfg_for(tiny_dataset_dir, epochs=1)
    result = train_weak(cfg)
    rows, means, gap = evaluate(cfg, result.params, samples[:6])
    assert len(rows) == 6
    assert abs(means["dsc"] - np.mean([r.dsc for r in rows])) < 1e-9
    assert gap >= 0.0


def test_evaluate_empty_dataset_rejected(tiny_dataset_dir):
    cfg = cfg_for(tiny_dataset_dir, epochs=1)
    result = train_weak(cfg)
    with pytest.raises(ValueError, match="empty dataset"):
        evaluate(cfg, result.params, [])


def test_evaluate_refine_requested_without_params(tiny_dataset_dir):
    cfg = cfg_for(tiny_dataset_dir, epochs=1)
    result = train_weak(cfg)
    with pytest.raises(ValueError, match="no refine parameters"):
        evaluate(cfg, result.params, load_dataset(tiny_dataset_dir)[1][:2], use_refine=True)


def test_evaluate_rejects_dataset_size_other_than_scale1():
    cfg = RunConfig()
    params = init_params(0, net_config(cfg), include_refine=False)
    with pytest.raises(ValueError, match="does not match scale1 64"):
        evaluate(cfg, params, generate_dataset(DatasetSpec(count=4, size=48)))


def test_predict_batch_rescales_prompt_to_native_grid():
    # a 48x48 image with scale1 = 64: the neutral pass runs at 64 and its
    # box prompt is mapped back onto the 48x48 grid
    assert scale_coords(BoxCoords(0, 3, 61, 63), 64, 48) == BoxCoords(0, 2, 46, 47)
    cfg = RunConfig()
    ncfg = net_config(cfg)
    params = init_params(1, ncfg, include_refine=False)
    image = generate_dataset(DatasetSpec(count=1, size=48, seed=5))[0].image[None, None].astype(np.float32)
    _, _, prompts, _ = predict_batch(params, image, cfg, ncfg, use_refine=False)
    with T.no_grad():
        neutral = T.sigmoid(single_scale_forward(params, T.bilinear_resize(T.Tensor(image), 64, 64), None, False))
    box_64 = prompt_from_probability(neutral.data[0, 0])
    assert box_64 is not None and box_64 != BoxCoords(0, 0, 63, 63)
    p = prompts[0]
    assert 0 <= p.row_min <= p.row_max < 48 and 0 <= p.col_min <= p.col_max < 48
    assert p == scale_coords(box_64, 64, 48)


def test_phase_mismatch_rejected(tiny_dataset_dir):
    with pytest.raises(ValueError, match="phase"):
        train_weak(cfg_for(tiny_dataset_dir, phase="refine"))
    with pytest.raises(ValueError, match="phase"):
        train_refine(cfg_for(tiny_dataset_dir, phase="weak"))


def test_gt_pixels_beyond_box_never_influence_weak_loss(tiny_dataset_dir):
    # swap a sample's mask for a different mask with the same tight box:
    # the weak loss must be bit-identical
    from weakbox_kit.boxes import box_coords, rasterize_box
    from weakbox_kit.nets import init_params
    from weakbox_kit.pipeline import _batch_arrays, loss_config, net_config, weak_batch_loss

    _, samples = load_dataset(tiny_dataset_dir)
    cfg = cfg_for(tiny_dataset_dir, epochs=1)
    ncfg, lcfg = net_config(cfg), loss_config(cfg)

    sample = samples[0]
    coords = box_coords(sample.gt_mask)
    boxed = rasterize_box(coords, *sample.gt_mask.shape)
    assert not np.array_equal(boxed, sample.gt_mask)

    class Stub:
        def __init__(self, image, gt_mask):
            self.image = image
            self.gt_mask = gt_mask

    losses = []
    for mask in (sample.gt_mask, boxed):
        params = init_params(cfg.seed, ncfg, include_refine=False)
        images, weaks = _batch_arrays([Stub(sample.image, mask)], [0], cfg, 0, 64)
        losses.append(weak_batch_loss(params, images, weaks, cfg, ncfg, lcfg, training=True).item())
    assert losses[0] == losses[1]


def test_nan_loss_aborts_with_diagnostics(tiny_dataset_dir, monkeypatch):
    import weakbox_kit.pipeline as pl
    from weakbox_kit.pipeline import NumericError

    def poisoned(*args, **kwargs):
        return T.Tensor(float("nan"))

    monkeypatch.setattr(pl, "weak_batch_loss", poisoned)
    with pytest.raises(NumericError, match="epoch 0"):
        train_weak(cfg_for(tiny_dataset_dir, epochs=1))


def test_cli_maps_numeric_failure_to_exit_3(tiny_dataset_dir, tmp_path, monkeypatch):
    import weakbox_kit.cli as cli

    def poisoned(cfg):
        raise __import__("weakbox_kit.pipeline", fromlist=["NumericError"]).NumericError("boom")

    monkeypatch.setattr(cli, "train_weak", poisoned)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"dataset_dir = {tiny_dataset_dir}\nepochs = 1\n")
    assert cli.main(["train-weak", "--config", str(cfg_path)]) == 3
