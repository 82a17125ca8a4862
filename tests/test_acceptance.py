"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s to stream them). The
trend criteria train several model variants over ten seeds and dominate the
suite's runtime.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from weakbox_kit import tensor as T
from weakbox_kit.boxes import backproject_min, project
from weakbox_kit.config import RunConfig
from weakbox_kit.gradcheck import run_gradcheck
from weakbox_kit.losses import bce_loss, detail_refine_loss, dice_loss
from weakbox_kit.metrics import confusion_counts, dsc_miou, hd95
from weakbox_kit.pipeline import evaluate, net_config, predict_batch, split_dataset, train_weak
from weakbox_kit.reports import write_metrics_report
from weakbox_kit.study import format_row, run_seeds, verdicts
from weakbox_kit.synth import DatasetSpec, generate_dataset, load_dataset, make_sample, save_dataset


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_binary_mask(rng, max_side):
    h = int(rng.integers(2, max_side + 1))
    w = int(rng.integers(2, max_side + 1))
    m = (rng.uniform(0, 1, (h, w)) < rng.uniform(0.05, 0.6)).astype(np.float32)
    if not m.any():
        m[rng.integers(h), rng.integers(w)] = 1.0
    return m


# --- 1. oracle equivalence ----------------------------------------------------


def test_criterion_oracle_equivalence():
    rng = np.random.default_rng(11)
    start = time.monotonic()
    for _ in range(1000):
        m = random_binary_mask(rng, 32)
        rows = (m >= 0.5).any(axis=1).astype(np.float32)
        cols = (m >= 0.5).any(axis=0).astype(np.float32)
        oracle = np.outer(rows, cols)
        if not np.array_equal(backproject_min(project(m)), oracle):
            report("oracle-equivalence", False, "mismatch against indicator outer product")
    elapsed = time.monotonic() - start
    report("oracle-equivalence", elapsed < 10.0, f"1000/1000 exact, {elapsed:.2f}s (< 10s)")


# --- 2. algebraic suite ---------------------------------------------------------


def test_criterion_algebraic_suite():
    rng = np.random.default_rng(12)
    t1 = lambda g: backproject_min(project(g))
    violations = {"idempotence": 0, "monotonicity": 0, "threshold": 0, "coverage": 0}
    for _ in range(1000):
        m = random_binary_mask(rng, 32)
        box = t1(m)
        if not np.array_equal(t1(box), box):
            violations["idempotence"] += 1
        grown = np.clip(m + (rng.uniform(0, 1, m.shape) < 0.1), 0, 1).astype(np.float32)
        if not np.all(box <= t1(grown)):
            violations["monotonicity"] += 1
        soft = np.where(m > 0, rng.uniform(0.5, 1.0, m.shape), rng.uniform(0.0, 0.5, m.shape)).astype(np.float32)
        thr = float(rng.uniform(0.05, 0.95))
        left = t1((soft >= thr).astype(np.float32))
        right = (t1(soft) >= thr).astype(np.float32)
        if not np.array_equal(left, right):
            violations["threshold"] += 1
        if not np.all(m <= box):
            violations["coverage"] += 1
    total = sum(violations.values())
    report("mm2b-algebraic-suite", total == 0, f"violations {violations} over 1000 masks each")


# --- 3. gradient suite ----------------------------------------------------------


def test_criterion_gradient_suite():
    start = time.monotonic()
    results = run_gradcheck(seed=2024, instances=20, tol=1e-3, h=1e-3)
    elapsed = time.monotonic() - start
    failed = [r.name for r in results if not r.ok]
    worst = max(r.max_err for r in results)
    report(
        "gradient-suite",
        not failed and elapsed < 60.0,
        f"{len(results)} checks x 20 instances, worst rel err {worst:.2e} (<= 1e-3), {elapsed:.1f}s (< 60s)"
        + (f", failed: {failed}" if failed else ""),
    )


# --- 4. hd95 oracle ---------------------------------------------------------------


def test_criterion_hd95_oracle():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(200):
        side = int(rng.integers(8, 65))
        a = (rng.uniform(0, 1, (side, side)) < rng.uniform(0.05, 0.5)).astype(np.float32)
        b = (rng.uniform(0, 1, (side, side)) < rng.uniform(0.05, 0.5)).astype(np.float32)
        if not a.any():
            a[0, 0] = 1.0
        if not b.any():
            b[side // 2, side // 2] = 1.0
        pa = np.argwhere(a >= 0.5).astype(np.float64)
        pb = np.argwhere(b >= 0.5).astype(np.float64)
        d_ab = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(-1)).min(axis=1)
        d_ba = np.sqrt(((pb[:, None, :] - pa[None, :, :]) ** 2).sum(-1)).min(axis=1)
        brute = max(np.percentile(d_ab, 95, method="linear"), np.percentile(d_ba, 95, method="linear"))
        worst = max(worst, abs(hd95(a, b) - brute))
    report("hd95-oracle", worst <= 1e-9, f"200 pairs <= 64x64, worst |diff| {worst:.2e} (<= 1e-9)")


# --- 5. loss unit values -----------------------------------------------------------


def test_criterion_loss_unit_values():
    pred = T.Tensor(np.full((6, 6), 0.5, dtype=np.float32))
    target = (np.arange(36).reshape(6, 6) % 2).astype(np.float32)
    bce = bce_loss(pred, target).item()
    ok_bce = abs(bce - math.log(2)) <= 1e-6

    p = np.zeros((4, 8), dtype=np.float32)
    p[:2, :4] = 1.0
    t = np.zeros((4, 8), dtype=np.float32)
    t[2:, 4:] = 1.0
    dice = dice_loss(T.as_tensor(p), t, smooth_eps=1.0).item()
    ok_dice = abs(dice - 0.9412) <= 1e-4

    # refine mix at the defaults on components (dice 0.5, ce ln 2)
    mix = 0.8 * 0.5 + 0.2 * math.log(2)
    ok_mix = abs(mix - 0.53862) <= 1e-5
    # and the implementation reproduces the same weighting on live tensors
    rng = np.random.default_rng(3)
    lp = rng.uniform(0.05, 0.95, (5, 5)).astype(np.float32)
    lt = (rng.uniform(0, 1, (5, 5)) > 0.5).astype(np.float32)
    cfg = RunConfig()
    live = detail_refine_loss(T.as_tensor(lp), lt, cfg).item()
    parts = 0.8 * dice_loss(T.as_tensor(lp), lt, cfg.smooth_eps).item() + 0.2 * bce_loss(T.as_tensor(lp), lt, cfg.clamp_eps).item()
    ok_live = abs(live - parts) <= 1e-6

    report(
        "loss-unit-values",
        ok_bce and ok_dice and ok_mix and ok_live,
        f"bce(0.5)={bce:.7f} (ln2 +- 1e-6), dice_disjoint={dice:.5f} (0.9412 +- 1e-4), refine mix={mix:.5f} (0.53862 +- 1e-5)",
    )


# --- 6. end-to-end weak training -----------------------------------------------------


E2E_SPEC = DatasetSpec(count=200, size=64, n_objects_min=1, n_objects_max=1, shapes=("ellipse", "fused", "annulus"), noise=0.3, seed=42)


@pytest.fixture(scope="session")
def e2e_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    data_dir = str(root / "data")
    save_dataset(generate_dataset(E2E_SPEC), E2E_SPEC, data_dir)
    cfg = RunConfig(
        phase="weak",
        epochs=30,
        batch_size=8,
        learning_rate=1e-3,
        dataset_dir=data_dir,
        seed=42,
        holdout_fraction=0.2,
        checkpoint_out=str(root / "weak.ckpt"),
    )
    start = time.monotonic()
    result = train_weak(cfg)
    elapsed = time.monotonic() - start
    _, samples = load_dataset(data_dir)
    _, holdout = split_dataset(samples, cfg.holdout_fraction)
    return cfg, result, holdout, elapsed


def test_criterion_end_to_end_weak_training(e2e_run):
    cfg, result, holdout, elapsed = e2e_run
    _, means, _ = evaluate(cfg, result.params, holdout)
    ratio = result.epoch_losses[-1] / result.epoch_losses[0]
    ok = means["dsc"] >= 0.80 and ratio < 0.5 and elapsed < 900.0
    report(
        "end-to-end-weak-training",
        ok,
        f"held-out dsc {means['dsc']:.4f} (>= 0.80), loss {result.epoch_losses[0]:.3f}->{result.epoch_losses[-1]:.3f} "
        f"ratio {ratio:.3f} (< 0.5), train {elapsed:.0f}s (< 900s)",
    )


def test_invariant_augmentation_consistency(e2e_run):
    # flipping image and mask together leaves the dsc distribution unchanged
    # in expectation (pipeline invariant, smoke level)
    cfg, result, _, _ = e2e_run
    ncfg = net_config(cfg)
    plain, flipped = [], []
    for i in range(100):
        s = make_sample(dataclasses.replace(E2E_SPEC, count=1, seed=9000 + i), 0)
        for flip, sink in ((False, plain), (True, flipped)):
            img = np.ascontiguousarray(np.flip(s.image, axis=1)) if flip else s.image
            gt = np.ascontiguousarray(np.flip(s.gt_mask, axis=1)) if flip else s.gt_mask
            coarse, _, _, _ = predict_batch(result.params, img[None, None], cfg, ncfg, use_refine=False)
            sink.append(dsc_miou(confusion_counts(coarse[0, 0], gt))[0])
    shift = abs(float(np.mean(plain)) - float(np.mean(flipped)))
    report("augmentation-consistency(invariant)", shift < 0.05, f"mean dsc shift {shift:.4f} over 100 samples (< 0.05)")


# --- 7 & 8. trend study -----------------------------------------------------------------


TREND_SEEDS = tuple(range(1, 11))


@pytest.fixture(scope="session")
def trend_results(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("trend"))
    rows = []
    for row in run_seeds(TREND_SEEDS, root, epochs=25, refine_epochs=40):
        rows.append(row)
        print(f"  trend {format_row(row)}")
    return rows


def test_criterion_ablation_trend(trend_results):
    n = len(trend_results)
    v = verdicts(trend_results)
    gate_wins, refine_wins, margin = v["gate_wins"], v["refine_wins"], v["multi_margin"]
    ok = gate_wins >= 7 and refine_wins >= 8 and margin >= 0.03
    report(
        "ablation-trend",
        ok,
        f"(a) cnn+gate no-dsc-loss {gate_wins}/{n} (>= 7), (b) refine lowers hd95 w/o dsc loss {refine_wins}/{n} (>= 8), "
        f"(c) multi-object margin {margin:+.3f} (>= 0.03)",
    )


def test_criterion_scale_consistency_effect(trend_results):
    n = len(trend_results)
    wins = verdicts(trend_results)["sc_wins"]
    report("scale-consistency-effect", wins >= 8, f"in-box |P1-P2| lower with sc in {wins}/{n} seeds (>= 8)")


# --- 9. determinism & persistence ------------------------------------------------------


def test_criterion_determinism_and_persistence(tmp_path, tiny_dataset_dir):
    def run(ckpt_path, epochs, checkpoint_in=""):
        cfg = RunConfig(
            phase="weak",
            epochs=epochs,
            batch_size=8,
            learning_rate=1e-3,
            dataset_dir=tiny_dataset_dir,
            seed=3,
            checkpoint_in=checkpoint_in,
            checkpoint_out=str(ckpt_path),
        )
        result = train_weak(cfg)
        return cfg, result

    cfg1, r1 = run(tmp_path / "a.ckpt", 3)
    cfg2, r2 = run(tmp_path / "b.ckpt", 3)
    ck_identical = (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    _, samples = load_dataset(tiny_dataset_dir)
    reports = []
    for tag, cfg, res in (("a", cfg1, r1), ("b", cfg2, r2)):
        rows, _, _ = evaluate(cfg, res.params, samples)
        path = tmp_path / f"report_{tag}.csv"
        write_metrics_report(rows, path, "csv")
        reports.append(path.read_bytes())
    report_identical = reports[0] == reports[1]

    run(tmp_path / "part.ckpt", 2)
    _, r_resumed = run(tmp_path / "resumed.ckpt", 3, checkpoint_in=str(tmp_path / "part.ckpt"))
    resume_identical = (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "resumed.ckpt").read_bytes()

    ok = ck_identical and report_identical and resume_identical
    report(
        "determinism-and-persistence",
        ok,
        f"checkpoints byte-identical: {ck_identical}, reports byte-identical: {report_identical}, "
        f"resume == straight-through: {resume_identical}",
    )
