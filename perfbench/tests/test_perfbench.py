"""Tests of the benchmark itself: each workload runs a handful of operations
and passes its checks, and each check rejects a deliberately wrong output.

    python3 -m pytest perfbench/tests -q
"""

import inspect
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from weakbox_kit import metrics  # noqa: E402
from weakbox_kit import tensor as T  # noqa: E402
from weakbox_kit.synth import gen_blob_mask  # noqa: E402

TINY = workloads.Sizes(train_count=40, infer_count=20, train_setup_reps=2, infer_setup_reps=2, min_ops=12, loss_window=3, infer_weak_epochs=1, infer_refine_epochs=1)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def runs(request, tmp_path_factory):
    """Two untraced runs and one traced run of one seed."""
    root = str(tmp_path_factory.mktemp(request.param))
    return request.param, [workloads.run(request.param, root, 3, 0.0, trace, TINY) for trace in (False, False, True)]


def test_workload_runs_and_passes_its_checks(runs):
    name, (out, _, _) = runs
    failed = [c for c in out.checks if not c[1]]
    assert out.correct, failed
    assert len(out.op_s) >= TINY.min_ops
    want = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    got = out.end_to_end()
    assert {k: u for k, (_, u) in got.items()} == want
    assert all(v > 0 and math.isfinite(v) for v, _ in got.values())


def test_same_seed_gives_same_digest_traced_or_not(runs):
    _, (a, b, traced) = runs
    assert a.digest == b.digest == traced.digest


def test_traced_run_reports_every_per_layer_metric(runs):
    _, (_, _, traced) = runs
    want = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: u for k, (_, u) in traced.per_layer.items()} == want
    assert all(math.isfinite(v) for v, _ in traced.per_layer.values())


def test_every_tape_op_is_traced():
    # a tape op the tracer misses would show up as untraced time
    ops = {
        name for name, fn in vars(T).items()
        if inspect.isfunction(fn) and fn.__module__ == T.__name__ and "return _wrap(" in inspect.getsource(fn)
    }
    assert ops == set(tracing.NAMED_OPS + tracing.OTHER_OPS)


def test_finite_rejects_nan():
    assert checks.finite("x", [1.0, 0.5])[1]
    assert not checks.finite("x", [1.0, float("nan")])[1]
    assert not checks.finite("x", [])[1]


def test_loss_falls_rejects_a_rising_loss():
    assert checks.loss_falls([3.0, 2.0, 1.0, 0.5], 2)[1]
    assert not checks.loss_falls([0.5, 1.0, 2.0, 3.0], 2)[1]


def test_dice_and_beats():
    gt = np.zeros((8, 8))
    gt[2:6, 2:6] = 1.0
    assert checks.dice(gt, gt) == 1.0
    assert checks.dice(1.0 - gt, gt) == 0.0
    half = gt.copy()
    half[2:4] = 0.0
    assert checks.dice(half, gt) == pytest.approx(2 * 8 / (8 + 16))
    # a trained model (or refiner) whose output is worse than the baseline is rejected
    assert not checks.beats("dice", checks.mean_dice([1.0 - gt], [gt]), checks.mean_dice([half], [gt]))[1]
    assert not checks.beats("dice", 0.5, 0.5)[1]


def _scored(pred, gt, prompt=(10, 12, 40, 44)):
    counts = metrics.confusion_counts(pred, gt)
    try:
        hd = metrics.hd95(pred, gt)
    except ValueError:
        hd = None
    return {
        "shape": pred.shape, "min": float(pred.min()), "max": float(pred.max()), "prompt": prompt,
        "hd95": hd, "counts": (counts.tp, counts.fp, counts.fn, counts.tn),
    }


@pytest.fixture
def scored_pair():
    gt = gen_blob_mask(5, 64, 1)
    pred = np.clip(np.roll(gt, 3, axis=1) * 0.9 + 0.05, 0.0, 1.0).astype(np.float32)
    return pred, gt


def test_brute_force_scores_agree_with_the_program(scored_pair):
    pred, gt = scored_pair
    rec = _scored(pred, gt)
    assert rec["hd95"] is not None and checks.infer_scores(pred, gt, rec["hd95"], rec["counts"]) == []
    empty = np.zeros_like(pred)
    rec = _scored(empty, gt)
    assert rec["hd95"] is None and checks.infer_scores(empty, gt, rec["hd95"], rec["counts"]) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r.update(max=1.5),
        lambda r: r.update(min=-0.01),
        lambda r: r.update(shape=(48, 48)),
        lambda r: r.update(prompt=(10, 12, 64, 44)),
        lambda r: r.update(prompt=(30, 12, 20, 44)),
        lambda r: r.update(hd95=r["hd95"] + 0.5),
        lambda r: r.update(hd95=None),
        lambda r: r.update(counts=(r["counts"][0] + 1,) + r["counts"][1:]),
    ],
    ids=["above_one", "below_zero", "shape", "prompt_outside", "prompt_inverted", "hd95", "hd95_missing", "counts"],
)
def test_infer_check_rejects_a_wrong_output(scored_pair, corrupt):
    pred, gt = scored_pair
    good = _scored(pred, gt)
    assert checks.infer_outputs([good, dict(good)], [(pred, gt)], (64, 64))[1]
    bad = dict(good)
    corrupt(bad)
    assert not checks.infer_outputs([bad], [(pred, gt)], (64, 64))[1]
    # a later round that disagrees with the first is rejected as well
    assert not checks.infer_outputs([good, bad], [(pred, gt)], (64, 64))[1]


def test_digest_changes_with_any_loss():
    a = np.array([0.9, 0.8, 0.7])
    assert checks.digest(a) == checks.digest(a.copy())
    assert checks.digest(a) != checks.digest(np.nextafter(a, 1.0))


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cmd = _spec()["command"] + ["--workload", "weak-train", "--seed", "1", "--seconds", "1", "--trace", "0"]
    p = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
