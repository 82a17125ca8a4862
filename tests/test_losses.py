import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakbox_kit import tensor as T
from weakbox_kit.boxes import EmptyMaskError
from weakbox_kit.config import RunConfig
from weakbox_kit.losses import bce_loss, branch_loss, detail_refine_loss, dice_loss, mm2b_loss, sc_loss


def bce_reference(pred, target, eps=1e-7):
    total = 0.0
    p = np.clip(pred.astype(np.float64), eps, 1 - eps)
    for pi, yi in zip(p.ravel(), target.astype(np.float64).ravel()):
        total += -(yi * math.log(pi) + (1 - yi) * math.log(1 - pi))
    return total / p.size


def test_bce_perfect_prediction_near_zero():
    ones = np.ones((4, 4), dtype=np.float32)
    assert bce_loss(T.as_tensor(ones), ones).item() <= 2e-7


def test_bce_half_prediction_is_ln2():
    pred = T.Tensor(np.full((6, 6), 0.5, dtype=np.float32))
    target = (np.arange(36).reshape(6, 6) % 3 == 0).astype(np.float32)
    assert abs(bce_loss(pred, target).item() - math.log(2)) < 1e-6


def test_bce_matches_reference_loop():
    rng = np.random.default_rng(0)
    pred = rng.uniform(0.02, 0.98, (7, 5)).astype(np.float64)
    target = (rng.uniform(0, 1, (7, 5)) > 0.5).astype(np.float64)
    ours = bce_loss(T.Tensor(pred, dtype=np.float64), target).item()
    ref = bce_reference(pred, target)
    assert abs(ours - ref) / ref < 1e-6


def test_bce_shape_mismatch():
    with pytest.raises(T.ShapeError):
        bce_loss(T.Tensor(np.zeros((2, 2))), np.zeros((3, 3)))


def test_dice_identical_masks():
    m = (np.arange(16).reshape(4, 4) % 2).astype(np.float32)
    # eps keeps the value slightly above zero: 1 - (2s+1)/(2s+1) == 0 exactly
    assert dice_loss(T.as_tensor(m), m, smooth_eps=1.0).item() < 1e-6


def test_dice_disjoint_eight_pixels():
    p = np.zeros((4, 8), dtype=np.float32)
    p[:2, :4] = 1.0
    t = np.zeros((4, 8), dtype=np.float32)
    t[2:, 4:] = 1.0
    value = dice_loss(T.as_tensor(p), t, smooth_eps=1.0).item()
    assert abs(value - (1 - 1 / 17)) < 1e-4


def test_dice_half_coverage_no_eps():
    t = np.zeros((4, 4), dtype=np.float32)
    t[0] = 1.0
    t[1] = 1.0  # 8 target pixels
    p = np.zeros((4, 4), dtype=np.float32)
    p[0] = 1.0  # 4 predicted, all inside target
    # config keeps smooth_eps > 0; a tiny eps approximates the eps=0 formula
    value = dice_loss(T.as_tensor(p), t, smooth_eps=1e-9).item()
    assert abs(value - (1 - 8 / 12)) < 1e-6


def test_branch_loss_is_mean_of_bce_and_dice():
    rng = np.random.default_rng(1)
    pred = rng.uniform(0.05, 0.95, (6, 6)).astype(np.float32)
    target = (rng.uniform(0, 1, (6, 6)) > 0.5).astype(np.float32)
    b = bce_loss(T.as_tensor(pred), target).item()
    d = dice_loss(T.as_tensor(pred), target).item()
    combined = branch_loss(T.as_tensor(pred), target, RunConfig()).item()
    assert abs(combined - (b + d) / 2) < 1e-6


def test_branch_loss_perfect_box():
    box = np.zeros((5, 5), dtype=np.float32)
    box[1:4, 1:4] = 1.0
    assert branch_loss(T.as_tensor(box), box, RunConfig()).item() < 1e-3


def test_mm2b_loss_weights_by_branch():
    box = np.zeros((6, 6), dtype=np.float32)
    box[1:5, 1:5] = 1.0
    pred = np.clip(box * 0.9 + 0.05, 0, 1).astype(np.float32)
    base = branch_loss(T.as_tensor(pred), box, RunConfig()).item()
    cfg = RunConfig(beta=2.0, gamma=0.5)
    assert abs(mm2b_loss(T.as_tensor(pred), box, True, cfg).item() - 2.0 * base) < 1e-6
    assert abs(mm2b_loss(T.as_tensor(pred), box, False, cfg).item() - 0.5 * base) < 1e-6


def test_mm2b_loss_mixed_batch_mean():
    rng = np.random.default_rng(2)
    cfg = RunConfig(beta=1.3, gamma=0.6)
    pred = rng.uniform(0.05, 0.95, (2, 5, 5)).astype(np.float32)
    target = (rng.uniform(0, 1, (2, 5, 5)) > 0.5).astype(np.float32)
    values = mm2b_loss(T.as_tensor(pred), target, np.array([True, False]), cfg)
    assert values.data.shape == (2,)
    for b, weight in enumerate((cfg.beta, cfg.gamma)):
        ref = weight * branch_loss(T.as_tensor(pred[b]), target[b], cfg).item()
        assert abs(values.data[b] - ref) < 1e-6
    mean = T.tmean(values).item()
    assert abs(mean - (values.data[0] + values.data[1]) / 2) < 1e-7


def _per_plane(loss, *arrays):
    return np.array([loss(*[a[b] for a in arrays]).item() for b in range(len(arrays[0]))])


@pytest.mark.parametrize(
    "loss",
    [
        lambda p, y: bce_loss(T.as_tensor(p), y),
        lambda p, y: dice_loss(T.as_tensor(p), y),
        lambda p, y: branch_loss(T.as_tensor(p), y, RunConfig()),
        lambda p, y: detail_refine_loss(T.as_tensor(p), y, RunConfig()),
        lambda p, y: sc_loss(T.as_tensor(p), T.as_tensor(np.flip(p, -1)), y),
    ],
    ids=["bce", "dice", "branch", "detail_refine", "sc"],
)
def test_loss_on_stack_equals_per_plane_loop(loss):
    # an (N, H, W) stack reduces per sample, to the values of one call per plane
    rng = np.random.default_rng(8)
    pred = rng.uniform(0.02, 0.98, (5, 7, 6)).astype(np.float32)
    target = (rng.uniform(0, 1, (5, 7, 6)) > 0.5).astype(np.float32)
    stacked = loss(pred, target)
    assert stacked.data.shape == (5,)
    assert np.allclose(stacked.data, _per_plane(loss, pred, target), rtol=0, atol=1e-6)


def test_sc_loss_identical_predictions():
    p = np.random.default_rng(3).uniform(0, 1, (5, 5)).astype(np.float32)
    box = np.ones((5, 5), dtype=np.float32)
    assert sc_loss(T.as_tensor(p), T.as_tensor(p), box).item() == 0.0


def test_sc_loss_constant_gap():
    a = T.Tensor(np.full((4, 4), 0.8, dtype=np.float32))
    b = T.Tensor(np.full((4, 4), 0.6, dtype=np.float32))
    assert abs(sc_loss(a, b, np.ones((4, 4), dtype=np.float32)).item() - 0.2) < 1e-6


def test_sc_loss_masked_mean_reference():
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 1, (8, 8))
    b = rng.uniform(0, 1, (8, 8))
    box = (rng.uniform(0, 1, (8, 8)) > 0.4).astype(np.float64)
    ref = np.abs(a - b)[box > 0].mean()
    ours = sc_loss(T.Tensor(a, dtype=np.float64), T.Tensor(b, dtype=np.float64), box).item()
    assert abs(ours - ref) < 1e-6


def test_sc_loss_symmetry():
    rng = np.random.default_rng(5)
    a = rng.uniform(0, 1, (6, 6)).astype(np.float32)
    b = rng.uniform(0, 1, (6, 6)).astype(np.float32)
    box = np.ones((6, 6), dtype=np.float32)
    assert sc_loss(T.as_tensor(a), T.as_tensor(b), box).item() == sc_loss(T.as_tensor(b), T.as_tensor(a), box).item()


def test_sc_loss_empty_box_raises():
    p = T.Tensor(np.zeros((3, 3), dtype=np.float32))
    with pytest.raises(EmptyMaskError):
        sc_loss(p, p, np.zeros((3, 3), dtype=np.float32))


def test_detail_refine_perfect():
    m = np.zeros((5, 5), dtype=np.float32)
    m[1:4, 1:4] = 1.0
    assert detail_refine_loss(T.as_tensor(m), m, RunConfig()).item() < 1e-3


def test_detail_refine_weighted_mix():
    # engineered so dice = 0.5 and bce = ln 2 under the default config
    cfg = RunConfig()
    d, b = 0.5, math.log(2)
    expect = cfg.lambda1 * d + cfg.lambda2 * b
    assert abs(expect - 0.53862) < 1e-3
    rng = np.random.default_rng(6)
    pred = rng.uniform(0.05, 0.95, (6, 6)).astype(np.float32)
    target = (rng.uniform(0, 1, (6, 6)) > 0.5).astype(np.float32)
    dd = dice_loss(T.as_tensor(pred), target, cfg.smooth_eps).item()
    bb = bce_loss(T.as_tensor(pred), target, cfg.clamp_eps).item()
    ours = detail_refine_loss(T.as_tensor(pred), target, cfg).item()
    assert abs(ours - (0.8 * dd + 0.2 * bb)) < 1e-6


def test_detail_refine_lambda1_zero():
    class NoDice(RunConfig):
        lambda1 = 0.0

    cfg = NoDice()
    rng = np.random.default_rng(7)
    pred = rng.uniform(0.05, 0.95, (5, 5)).astype(np.float32)
    target = (rng.uniform(0, 1, (5, 5)) > 0.5).astype(np.float32)
    bb = bce_loss(T.as_tensor(pred), target, cfg.clamp_eps).item()
    assert abs(detail_refine_loss(T.as_tensor(pred), target, cfg).item() - 0.2 * bb) < 1e-6


def test_loss_config_validation():
    RunConfig(beta=0.0, gamma=0.0).validate()
    for key, value in [("beta", -1.0), ("gamma", -0.5)]:
        with pytest.raises(ValueError, match=key):
            RunConfig(**{key: value}).validate()
    # the refine weights and the epsilons are constants, not settable fields
    assert (RunConfig.lambda1, RunConfig.lambda2, RunConfig.smooth_eps, RunConfig.clamp_eps) == (0.8, 0.2, 1.0, 1e-7)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_property_losses_nonnegative(seed):
    rng = np.random.default_rng(seed)
    pred = rng.uniform(0.01, 0.99, (5, 5)).astype(np.float32)
    target = (rng.uniform(0, 1, (5, 5)) > 0.5).astype(np.float32)
    assert bce_loss(T.as_tensor(pred), target).item() >= 0.0
    assert dice_loss(T.as_tensor(pred), target).item() >= 0.0
    assert branch_loss(T.as_tensor(pred), target, RunConfig()).item() >= 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_property_dice_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    pred = rng.uniform(0, 1, 24).astype(np.float32)
    target = (rng.uniform(0, 1, 24) > 0.5).astype(np.float32)
    perm = rng.permutation(24)
    a = dice_loss(T.as_tensor(pred.reshape(4, 6)), target.reshape(4, 6)).item()
    b = dice_loss(T.as_tensor(pred[perm].reshape(4, 6)), target[perm].reshape(4, 6)).item()
    assert abs(a - b) < 1e-7
