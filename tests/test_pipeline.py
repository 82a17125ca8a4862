import os
import re

import numpy as np
import pytest

from weakbox_kit import tensor as T
from weakbox_kit.boxes import (
    BoxCoords,
    Center,
    EmptyMaskError,
    backproject_max,
    backproject_min,
    box_coords,
    center_status,
    decide_branch,
    decide_branches,
    mask_to_box,
    project,
)
from weakbox_kit.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from weakbox_kit.config import RunConfig
from weakbox_kit.losses import branch_loss, sc_loss
from weakbox_kit import nets
from weakbox_kit.nets import NetConfig, detail_refine_forward, init_params, init_refiner, scale_coords, single_scale_forward, two_scale_forward
from weakbox_kit.pipeline import (
    augment_pair,
    degrade_mask,
    evaluate,
    evaluate_predictions,
    load_model,
    mean_metrics,
    net_config,
    predict_batch,
    prompt_from_probability,
    refine_subset_indices,
    split_dataset,
    train_refine,
    train_weak,
    weak_loss,
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
    assert refine_subset_indices(40, 0.1, seed=6) != a


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
        assert result.params[name].requires_grad == reference[name].requires_grad


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


def test_train_weak_rejects_resume_past_epochs(tiny_dataset_dir, tmp_path):
    cfg = cfg_for(tiny_dataset_dir, tmp_path, epochs=1)
    cfg.checkpoint_in = os.path.join(str(tmp_path), "two_epochs.ckpt")
    save_checkpoint(cfg.checkpoint_in, init_params(cfg.seed, net_config(cfg), include_refine=False), "adamw", epoch=2)
    with pytest.raises(ValueError, match="epoch 2, past epochs = 1"):
        train_weak(cfg)
    assert not os.path.exists(cfg.checkpoint_out)
    cfg.epochs = 2  # an equal count is a valid no-op resume
    assert train_weak(cfg).epoch_losses == []
    assert load_checkpoint(cfg.checkpoint_out).epoch == 2


def test_train_weak_resume_checks_config(tiny_dataset_dir, tmp_path):
    cfg = cfg_for(tiny_dataset_dir, tmp_path, epochs=1)
    cfg.checkpoint_in = os.path.join(str(tmp_path), "wide.ckpt")
    save_checkpoint(cfg.checkpoint_in, init_params(0, NetConfig(feat_channels=cfg.feat_channels + 2), include_refine=False))
    with pytest.raises(CheckpointError, match="does not match the config"):
        train_weak(cfg)


def test_sgd_checkpoint_loads_as_a_model_but_does_not_resume(tiny_dataset_dir, tmp_path):
    # older builds could train with SGD and tagged the checkpoint "sgd"
    cfg = cfg_for(tiny_dataset_dir, tmp_path, epochs=2)
    cfg.checkpoint_in = os.path.join(str(tmp_path), "sgd.ckpt")
    saved = init_params(cfg.seed, net_config(cfg), include_refine=False)
    momentum = {n: np.full_like(t.data, 0.5) for n, t in saved.trainable()}
    save_checkpoint(cfg.checkpoint_in, saved, "sgd", {"step": 3, "m": momentum, "v": {}}, seed=cfg.seed, epoch=1)
    with pytest.raises(ValueError, match="checkpoint_in holds 'sgd' optimizer state"):
        train_weak(cfg)
    assert not os.path.exists(cfg.checkpoint_out)
    model = load_model(cfg.checkpoint_in, cfg)
    assert model.names() == saved.names()
    for name in saved.names():
        assert np.array_equal(model[name].data, saved[name].data)


def test_train_weak_resume_merges_refine_checkpoint(tiny_dataset_dir, tmp_path):
    def path(name):
        return os.path.join(str(tmp_path), name)

    refine_ckpt = path("refine.ckpt")
    save_checkpoint(refine_ckpt, init_refiner(7))
    part = cfg_for(tiny_dataset_dir, epochs=1)  # trained without the refiner
    part.checkpoint_out = path("part.ckpt")
    train_weak(part)
    runs = {}
    for name, checkpoint_in in (("straight", ""), ("resumed", part.checkpoint_out)):
        cfg = cfg_for(tiny_dataset_dir, epochs=2, refine_checkpoint=refine_ckpt, checkpoint_in=checkpoint_in)
        cfg.checkpoint_out = path(f"{name}.ckpt")
        train_weak(cfg)
        with open(cfg.checkpoint_out, "rb") as f:
            runs[name] = f.read()
    saved = load_checkpoint(path("resumed.ckpt"))
    refine_names = [n for n in saved.tensors if n.startswith("refine.")]
    assert refine_names and all(saved.frozen(n) for n in refine_names)
    assert runs["resumed"] == runs["straight"]


@pytest.mark.parametrize("resume", [False, True])
def test_train_weak_rejects_refine_checkpoint_without_refiner(tiny_dataset_dir, tmp_path, resume):
    # a weak checkpoint given as the refiner is an error, not a model without one
    weak_ckpt = os.path.join(str(tmp_path), "weak.ckpt")
    save_checkpoint(weak_ckpt, init_params(3, net_config(cfg_for(tiny_dataset_dir)), include_refine=False), "adamw")
    cfg = cfg_for(tiny_dataset_dir, tmp_path, epochs=1, refine_checkpoint=weak_ckpt, checkpoint_in=weak_ckpt if resume else "")
    with pytest.raises(CheckpointError, match=re.escape(f"refine_checkpoint {weak_ckpt} holds no refine")):
        train_weak(cfg)
    assert not os.path.exists(cfg.checkpoint_out)


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
        assert not t.requires_grad and t.grad is None
        assert np.array_equal(t.data, arr), name
    after = load_checkpoint(wcfg.checkpoint_out)
    for name, arr in before.tensors.items():
        assert np.array_equal(after.tensors[name], arr)
        assert after.frozen(name)


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


def test_refine_checkpoint_holds_only_the_refiner(tiny_dataset_dir, tmp_path):
    # untrained, the checkpoint is the refiner of init_params, frozen, and its
    # optimizer state has a slot for no other parameter
    cfg = cfg_for(tiny_dataset_dir, tmp_path, phase="refine", epochs=0)
    ck = load_checkpoint(train_refine(cfg).checkpoint_path)
    full = init_params(cfg.seed, net_config(cfg))
    want = {n: t.data for n, t in full.tensors.items() if n.startswith("refine.")}
    assert sorted(ck.tensors) == sorted(want)
    for name, arr in want.items():
        assert np.array_equal(ck.tensors[name], arr) and ck.frozen(name)
    want_stats = {n: a for n, a in full.stats.items() if n.startswith("refine.")}
    assert sorted(ck.stats) == sorted(want_stats)
    for name, arr in want_stats.items():
        assert np.array_equal(ck.stats[name], arr)
    slots = [n for table in (ck.optimizer_state["m"], ck.optimizer_state["v"]) for n in table]
    assert slots and all(n.startswith("refine.") for n in slots)


def test_train_refine_determinism_byte_identical(tiny_dataset_dir, tmp_path):
    paths = []
    for name in ("a", "b"):
        cfg = cfg_for(tiny_dataset_dir, phase="refine", epochs=2, batch_size=4, refine_label_fraction=0.3)
        cfg.checkpoint_out = os.path.join(str(tmp_path), f"{name}.ckpt")
        paths.append(train_refine(cfg).checkpoint_path)
    with open(paths[0], "rb") as f1, open(paths[1], "rb") as f2:
        assert f1.read() == f2.read()


def test_train_refine_rejects_checkpoint_in(tiny_dataset_dir, tmp_path):
    cfg = cfg_for(tiny_dataset_dir, tmp_path, phase="refine", epochs=1)
    cfg.checkpoint_in = os.path.join(str(tmp_path), "earlier.ckpt")
    with pytest.raises(ValueError, match="checkpoint_in"):
        train_refine(cfg)
    assert not os.path.exists(cfg.checkpoint_out)


def test_nan_refine_loss_aborts_with_diagnostics(tiny_dataset_dir, monkeypatch):
    import weakbox_kit.pipeline as pl
    from weakbox_kit.pipeline import NumericError

    def poisoned(*args, **kwargs):
        return T.Tensor(float("nan"))

    monkeypatch.setattr(pl, "detail_refine_loss", poisoned)
    with pytest.raises(NumericError, match="refine loss at epoch 0"):
        train_refine(cfg_for(tiny_dataset_dir, phase="refine", epochs=1, refine_label_fraction=0.3))


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


def reference_prompt(plane):
    """The prompt before the centroid rule: the coords of the plane's
    mask-to-box output, None when the plane has no pixel at the threshold."""
    try:
        return box_coords(mask_to_box(plane)[0])
    except EmptyMaskError:
        return None


def random_prediction(rng):
    """A soft (size, size) plane, size 8-64: up to four soft rectangles, or
    speckle where a pixel reaches 0.5 with probability 1 - 0.5 ** (1 / q)."""
    size = int(rng.integers(8, 65))
    kind = rng.integers(3)
    if kind == 0:
        m = np.zeros((size, size), dtype=bool)
        for _ in range(int(rng.integers(0, 5))):
            r, c = rng.integers(0, size, 2)
            m[r : r + int(rng.integers(1, size // 2 + 1)), c : c + int(rng.integers(1, size // 2 + 1))] = True
        p = np.where(m, rng.uniform(0.5, 1.0, m.shape), rng.uniform(0.0, 0.5, m.shape))
    else:
        p = rng.uniform(0.0, 1.0, (size, size)) ** rng.uniform(1.0, 400.0 if kind == 1 else 8.0)
    return p.astype(np.float32)


def test_prompt_rule_matches_mask_to_box_coords():
    rng = np.random.default_rng(2026)
    n, background, empty = 2000, 0, 0
    for _ in range(n):
        plane = random_prediction(rng)
        try:
            background += center_status(plane).status is Center.BACKGROUND
        except EmptyMaskError:
            empty += 1
        assert prompt_from_probability(plane) == reference_prompt(plane)
    # the match means something only if the full-grid and empty branches are hit often
    assert background >= 0.3 * n and empty > 0


def _annulus():
    rr, cc = np.mgrid[:32, :32]
    d = np.hypot(rr - 15.5, cc - 15.5)
    return np.where((d > 6) & (d < 12), 0.9, 0.1).astype(np.float32)


def _corner_blobs():
    p = np.full((24, 24), 0.2, dtype=np.float32)
    p[1:5, 2:6] = 0.8
    p[17:22, 16:21] = 0.7
    return p


@pytest.mark.parametrize(
    "make, want",
    [
        (_annulus, BoxCoords(0, 0, 31, 31)),
        (_corner_blobs, BoxCoords(0, 0, 23, 23)),
        (lambda: np.full((16, 16), 0.3, dtype=np.float32), None),
    ],
    ids=["annulus", "two-corner-blobs", "all-low"],
)
def test_prompt_rule_named_planes(make, want):
    plane = make()
    assert prompt_from_probability(plane) == reference_prompt(plane) == want


def test_predict_batch_rejects_non_square_image():
    cfg = RunConfig()
    ncfg = net_config(cfg)
    params = init_params(1, ncfg, include_refine=False)
    image = np.zeros((1, 1, 64, 40), dtype=np.float32)
    with pytest.raises(ValueError, match="square, got 64x40"):
        predict_batch(params, image, cfg, ncfg, use_refine=False)


def _model_with_refiner(seed):
    """An init model whose refiner output conv is drawn, so the refined map
    differs from the coarse one."""
    params = init_params(seed, NetConfig(), include_refine=True)
    rng = np.random.default_rng(seed)
    for name in ("refine.out.w", "refine.out.b"):
        params[name].data[...] = rng.normal(0, 0.1, params[name].data.shape)
    return params


def _two_scale_predict(params, images, cfg, use_refine):
    """predict_batch's four items read off the full two-scale forward."""
    with T.no_grad():
        x = T.Tensor(images)
        out = two_scale_forward(params, x, prompt_from_probability, False, net_config(cfg))
        logits = T.bilinear_resize(out.logits_a, images.shape[2], images.shape[3])
        refined = T.sigmoid(detail_refine_forward(params, logits, x, training=False).refined).data if use_refine else None
        return T.sigmoid(logits).data, refined, out.prompts, (out.prob_a.data, out.prob_b_up.data)


@pytest.mark.parametrize("size", [64, 48])
@pytest.mark.parametrize("use_refine", [False, True])
@pytest.mark.parametrize("bsz", [1, 8])
def test_predict_batch_without_gap_matches_two_scale_path(bsz, use_refine, size):
    cfg = RunConfig()
    params = _model_with_refiner(2)
    images = np.stack([s.image[None] for s in generate_dataset(DatasetSpec(count=bsz, size=size, seed=7))]).astype(np.float32)
    want = _two_scale_predict(params, images, cfg, use_refine)
    coarse, refined, prompts, gap = predict_batch(params, images, cfg, net_config(cfg), use_refine)
    assert gap is None
    assert np.array_equal(coarse, want[0])
    assert (refined is None) == (not use_refine)
    if use_refine:
        assert np.array_equal(refined, want[1]) and not np.array_equal(refined, coarse)
    assert prompts == want[2] and any(p is not None for p in prompts)
    # asked for, the gap inputs come with the same predictions
    with_gap = predict_batch(params, images, cfg, net_config(cfg), use_refine, scale_gap=True)
    assert np.array_equal(with_gap[0], want[0]) and with_gap[2] == want[2]
    assert all(np.array_equal(got, w) for got, w in zip(with_gap[3], want[3]))


def test_predict_batch_without_gap_skips_scale_two(monkeypatch):
    cfg = RunConfig()
    params = _model_with_refiner(3)
    images = generate_dataset(DatasetSpec(count=1, size=64, seed=8))[0].image[None, None].astype(np.float32)

    def scale_two(*args, **kwargs):
        raise AssertionError("the second scale ran")

    monkeypatch.setattr(nets, "single_scale_forward", scale_two)
    predict_batch(params, images, cfg, net_config(cfg), use_refine=True)
    with pytest.raises(AssertionError, match="second scale"):
        predict_batch(params, images, cfg, net_config(cfg), use_refine=True, scale_gap=True)


@pytest.mark.parametrize("use_refine", [False, True])
def test_evaluate_matches_two_scale_recomputation(use_refine):
    cfg = RunConfig(batch_size=4)
    params = _model_with_refiner(4)
    samples = generate_dataset(DatasetSpec(count=10, size=64, seed=9))
    preds, gaps = [], []
    for lo in range(0, len(samples), cfg.batch_size):
        chunk = samples[lo : lo + cfg.batch_size]
        coarse, refined, _, (pa, pb) = _two_scale_predict(params, np.stack([s.image[None] for s in chunk]).astype(np.float32), cfg, use_refine)
        for b, s in enumerate(chunk):
            preds.append((refined if use_refine else coarse)[b, 0])
            gaps.append(float(np.abs(pa[b, 0] - pb[b, 0])[s.weak_box >= 0.5].mean()))
    want_rows = evaluate_predictions(preds, [s.gt_mask for s in samples], sample_ids=list(range(10, 20)))
    rows, means, gap = evaluate(cfg, params, samples, use_refine=use_refine, sample_ids=list(range(10, 20)))
    assert rows == want_rows
    assert means == mean_metrics(want_rows)
    assert gap == float(np.mean(gaps))


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
    from weakbox_kit.pipeline import _batch_arrays, weak_batch_loss

    _, samples = load_dataset(tiny_dataset_dir)
    cfg = cfg_for(tiny_dataset_dir, epochs=1)

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
        params = init_params(cfg.seed, net_config(cfg), include_refine=False)
        images, weaks = _batch_arrays([Stub(sample.image, mask)], [0], cfg, 0)
        losses.append(weak_batch_loss(params, images, weaks, cfg).item())
    assert losses[0] == losses[1]


def test_weak_step_updates_backbone_bn_once_per_scale(tiny_dataset_dir, monkeypatch):
    # the neutral-prompt pass reuses the scale-one features, so only the head
    # runs three times (neutral, scale one, scale two)
    from collections import Counter

    from weakbox_kit.pipeline import _batch_arrays, weak_batch_loss

    _, samples = load_dataset(tiny_dataset_dir)
    cfg = cfg_for(tiny_dataset_dir, epochs=1)
    params = init_params(cfg.seed, net_config(cfg), include_refine=False)
    layer_of = {id(arr): name[: -len(".running_mean")] for name, arr in params.stats.items() if name.endswith(".running_mean")}
    updates = Counter()
    batchnorm2d = T.batchnorm2d

    def counting(x, gamma, beta, running_mean, running_var, training, **kw):
        if training:
            updates[layer_of[id(running_mean)]] += 1
        return batchnorm2d(x, gamma, beta, running_mean, running_var, training, **kw)

    monkeypatch.setattr(T, "batchnorm2d", counting)
    images, weaks = _batch_arrays(samples, [0, 1, 2, 3], cfg, 0)
    weak_batch_loss(params, images, weaks, cfg)
    assert set(updates) == set(layer_of.values())
    assert {n: c for n, c in updates.items() if n.startswith("cnn.")} == {"cnn.stage1.bn": 2, "cnn.stage2.bn": 2}
    assert {n: c for n, c in updates.items() if n.startswith("head.")} == {"head.bn1": 3, "head.bn2": 3}


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


def tensor_mask_to_box(plane):
    """The single-plane Tensor mask-to-box transform that `batch_mask_to_box`
    replaced: one branch per (H, W) plane, differentiable through the
    projections. Returns (box, CenterStatus)."""
    status, gap = decide_branch(plane)
    proj = project(plane)
    if gap is None:
        return backproject_min(proj), status
    band = backproject_max(proj)
    return T.clamp(T.sub(band, T.Tensor(gap, dtype=band.data.dtype)), 0.0, 1.0), status


def oracle_weak_loss(prob_a, prob_b_up, weak_boxes, cfg):
    """The per-sample weak loss that the batched `weak_loss` replaced:
    tensor_mask_to_box on each plane, with a foreground-path fallback for a
    plane that has no pixel at the threshold."""

    def mm2b(plane, weak):
        try:
            box, status = tensor_mask_to_box(plane)
            foreground = status.status is Center.FOREGROUND
        except EmptyMaskError:
            box, foreground = backproject_min(project(plane)), True
        return T.affine(branch_loss(box, weak, cfg), cfg.beta if foreground else cfg.gamma, 0.0)

    n = prob_a.data.shape[0]
    total = None
    for b in range(n):
        p_a = T.plane(prob_a, b, 0)
        p_b = T.plane(prob_b_up, b, 0)
        weak = weak_boxes[b]
        if cfg.supervision == "fullbox":
            l_box = T.affine(T.add(branch_loss(p_a, weak, cfg), branch_loss(p_b, weak, cfg)), 0.5, 0.0)
        else:
            l_box = T.affine(T.add(mm2b(p_a, weak), mm2b(p_b, weak)), 0.5, 0.0)
        l_sc = sc_loss(p_a, p_b, weak) if cfg.use_sc else T.Tensor(0.0, dtype=np.float32)
        sample_loss = T.add(l_box, l_sc)
        total = sample_loss if total is None else T.add(total, sample_loss)
    return T.affine(total, 1.0 / n, 0.0)


def mixed_predictions(rng, n=6, size=16):
    """(n, 1, size, size) soft predictions at two scales: one compact blob,
    two separated blobs and one all-low plane, then random blob layouts."""
    masks = np.zeros((n, size, size), dtype=np.float32)
    masks[0, 4:11, 5:12] = 1.0
    masks[1, 0:4, 0:4] = masks[1, 11:16, 10:16] = 1.0
    for b in range(3, n):
        for _ in range(int(rng.integers(1, 4))):
            r, c = rng.integers(0, size - 4, 2)
            masks[b, r : r + int(rng.integers(2, 5)), c : c + int(rng.integers(2, 5))] = 1.0

    def soft(m):
        p = np.where(m > 0, rng.uniform(0.55, 0.98, m.shape), rng.uniform(0.02, 0.45, m.shape))
        return p.astype(np.float32)[:, None]

    weak = [np.zeros((size, size), dtype=np.float32) for _ in range(n)]
    for b, w in enumerate(weak):
        r0, c0 = rng.integers(0, size // 2, 2)
        w[r0 : r0 + size // 2, c0 : c0 + size // 2] = 1.0
    return soft(masks), soft(masks), weak


@pytest.mark.parametrize("supervision", ["mm2b", "fullbox"])
@pytest.mark.parametrize("use_sc", [True, False])
def test_weak_loss_matches_per_sample_oracle(supervision, use_sc):
    rng = np.random.default_rng(17)
    prob_a, prob_b, weak = mixed_predictions(rng)
    planes = np.concatenate([prob_a[:, 0], prob_b[:, 0]])
    foreground, _ = decide_branches(planes)
    empty = ~(planes >= 0.5).any(axis=(1, 2))
    assert foreground.any() and not foreground.all() and empty.any()

    cfg = RunConfig(beta=1.5, gamma=0.7, supervision=supervision, use_sc=use_sc)
    got, grads = [], []
    for loss_fn in (weak_loss, oracle_weak_loss):
        ta = T.Tensor(prob_a, requires_grad=True)
        tb = T.Tensor(prob_b, requires_grad=True)
        loss = loss_fn(ta, tb, weak, cfg)
        T.backward(loss)
        got.append(loss.item())
        grads.append((ta.grad, tb.grad))
    assert abs(got[0] - got[1]) <= 1e-6
    for new, old in zip(*grads):
        assert np.allclose(new, old, rtol=1e-5, atol=1e-5 * np.abs(old).max())
