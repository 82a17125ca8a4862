"""Central finite-difference verification of every differentiable primitive
and every loss.

Checks run in float64 (the artifact path is float32; at h = 1e-3 float32
rounding would swamp the difference quotient). Inputs of max/min-like ops are
kept at least 0.012 apart so no tie flips within the +-h probes. The `corrupt`
hook deliberately biases one named check's tape gradient so fault reporting
can be exercised.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .boxes import batch_mask_to_box
from .config import RunConfig
from .losses import LossConfig, Phase, bce_loss, branch_loss, detail_refine_loss, dice_loss, mm2b_loss, sc_loss, total_loss
from .pipeline import loss_config, weak_loss
from .synth import rng_from_key

DEFAULT_STEP = 1e-3
DEFAULT_TOL = 1e-3
_REL_FLOOR = 0.1


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    max_err: float
    instances: int


def _distinct(rng, shape, lo=-2.0, hi=2.0, spacing=0.012):
    """Values with pairwise gaps >= spacing, shuffled over the shape."""
    n = int(np.prod(shape))
    base = np.arange(n, dtype=np.float64) * spacing
    span = base[-1] if n > 1 else 0.0
    if span > hi - lo:
        raise ValueError(f"cannot fit {n} separated values into [{lo}, {hi}]")
    offset = rng.uniform(lo, hi - span)
    return rng.permutation(base + offset).reshape(shape)


def _away_from(rng, shape, points, margin=0.02, lo=-2.0, hi=2.0):
    vals = rng.uniform(lo, hi, size=shape)
    for p in points:
        close = np.abs(vals - p) < margin
        vals = np.where(close, p + np.sign(vals - p + 1e-12) * (margin + 0.01), vals)
    return vals


def _readout(rng, shape):
    return rng.uniform(-1.0, 1.0, size=shape)


def _weighted(out, weights):
    return T.tsum(T.mul(out, T.Tensor(weights, dtype=np.float64)))


def finite_diff(forward, arrays, index, h=DEFAULT_STEP):
    """Central-difference gradient of forward(arrays) w.r.t. arrays[index]."""
    work = [a.copy() for a in arrays]
    grad = np.zeros_like(work[index])
    flat_in = work[index].reshape(-1)
    flat_out = grad.reshape(-1)
    for i in range(flat_in.size):
        orig = flat_in[i]
        flat_in[i] = orig + h
        f_plus = forward(work)
        flat_in[i] = orig - h
        f_minus = forward(work)
        flat_in[i] = orig
        flat_out[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def check_instance(builder, rng, h=DEFAULT_STEP, corrupt=False):
    """Max relative FD-vs-tape error over all inputs of one instance."""
    arrays, forward = builder(rng)
    tensors = [T.Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    loss = forward(tensors)
    T.backward(loss)
    worst = 0.0

    def scalar_forward(arrs):
        return forward([T.Tensor(a, dtype=np.float64) for a in arrs]).item()

    for i, t in enumerate(tensors):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        if corrupt:
            analytic = analytic + 1.0
        fd = finite_diff(scalar_forward, arrays, i, h)
        denom = np.maximum(_REL_FLOOR, np.maximum(np.abs(fd), np.abs(analytic)))
        worst = max(worst, float(np.max(np.abs(fd - analytic) / denom)))
    return worst


# ---------------------------------------------------------------------------
# primitive builders


def _b_add(rng):
    a = rng.uniform(-2, 2, (3, 4))
    b = rng.uniform(-2, 2, (3, 4))
    w = _readout(rng, (3, 4))
    return [a, b], lambda ts: _weighted(T.add(ts[0], ts[1]), w)


def _b_sub(rng):
    a = rng.uniform(-2, 2, (3, 4))
    b = rng.uniform(-2, 2, (3, 4))
    w = _readout(rng, (3, 4))
    return [a, b], lambda ts: _weighted(T.sub(ts[0], ts[1]), w)


def _b_mul(rng):
    a = rng.uniform(-2, 2, (3, 4))
    b = rng.uniform(-2, 2, (1, 4))  # broadcast on purpose
    w = _readout(rng, (3, 4))
    return [a, b], lambda ts: _weighted(T.mul(ts[0], ts[1]), w)


def _b_div(rng):
    a = rng.uniform(-2, 2, (3, 4))
    b = np.sign(rng.uniform(-1, 1, (3, 4))) * rng.uniform(0.3, 2.0, (3, 4))
    w = _readout(rng, (3, 4))
    return [a, b], lambda ts: _weighted(T.div(ts[0], ts[1]), w)


def _b_affine(rng):
    a = rng.uniform(-2, 2, (2, 5))
    s, c = float(rng.uniform(-3, 3)), float(rng.uniform(-1, 1))
    w = _readout(rng, (2, 5))
    return [a], lambda ts: _weighted(T.affine(ts[0], s, c), w)


def _b_minimum(rng):
    vals = _distinct(rng, (2, 3, 4))
    w = _readout(rng, (3, 4))
    return [vals[0], vals[1]], lambda ts: _weighted(T.minimum(ts[0], ts[1]), w)


def _b_maximum(rng):
    vals = _distinct(rng, (2, 3, 4))
    w = _readout(rng, (3, 4))
    return [vals[0], vals[1]], lambda ts: _weighted(T.maximum(ts[0], ts[1]), w)


def _b_broadcast(rng):
    a = rng.uniform(-2, 2, (4,))
    w = _readout(rng, (3, 4))
    return [a], lambda ts: _weighted(T.broadcast_to(T.reshape(ts[0], (1, 4)), (3, 4)), w)


def _b_reshape(rng):
    a = rng.uniform(-2, 2, (3, 4))
    w = _readout(rng, (2, 6))
    return [a], lambda ts: _weighted(T.reshape(ts[0], (2, 6)), w)


def _b_concat(rng):
    a = rng.uniform(-2, 2, (1, 2, 3, 3))
    b = rng.uniform(-2, 2, (1, 1, 3, 3))
    w = _readout(rng, (1, 3, 3, 3))
    return [a, b], lambda ts: _weighted(T.concat([ts[0], ts[1]], axis=1), w)


def _b_plane(rng):
    a = rng.uniform(-2, 2, (2, 3, 4, 4))
    w = _readout(rng, (4, 4))
    return [a], lambda ts: _weighted(T.plane(ts[0], 1, 2), w)


def _b_sigmoid(rng):
    a = rng.uniform(-2, 2, (3, 4))
    w = _readout(rng, (3, 4))
    return [a], lambda ts: _weighted(T.sigmoid(ts[0]), w)


def _b_relu(rng):
    a = _away_from(rng, (3, 4), points=(0.0,))
    w = _readout(rng, (3, 4))
    return [a], lambda ts: _weighted(T.relu(ts[0]), w)


def _b_abs(rng):
    a = _away_from(rng, (3, 4), points=(0.0,))
    w = _readout(rng, (3, 4))
    return [a], lambda ts: _weighted(T.tabs(ts[0]), w)


def _b_log(rng):
    a = rng.uniform(0.1, 2.0, (3, 4))
    w = _readout(rng, (3, 4))
    return [a], lambda ts: _weighted(T.tlog(ts[0]), w)


def _b_clamp(rng):
    a = _away_from(rng, (3, 4), points=(-1.0, 1.0))
    w = _readout(rng, (3, 4))
    return [a], lambda ts: _weighted(T.clamp(ts[0], -1.0, 1.0), w)


def _b_sum(rng):
    a = rng.uniform(-2, 2, (3, 5))
    return [a], lambda ts: T.tsum(ts[0])


def _b_mean(rng):
    a = rng.uniform(-2, 2, (4, 4))
    return [a], lambda ts: T.tmean(ts[0])


def _axis_builder(op):
    def build(rng):
        a = rng.uniform(-2, 2, (2, 3, 4))
        axis = ((-2, -1), 0, 2)[int(rng.integers(3))]
        w = _readout(rng, np.sum(a, axis=axis).shape)
        return [a], lambda ts: _weighted(op(ts[0], axis=axis), w)

    return build


def _b_reduce_max(rng):
    a = _distinct(rng, (5, 6))
    axis = int(rng.integers(2))
    w = _readout(rng, (6,) if axis == 0 else (5,))
    return [a], lambda ts: _weighted(T.reduce_max(ts[0], axis=axis), w)


def _b_conv2d(rng):
    stride = int(rng.integers(1, 3))
    dilation = int(rng.integers(1, 3))
    pad = dilation  # keeps the 5x5 input producing a non-empty output
    x = rng.uniform(-2, 2, (1, 2, 5, 5))
    w = rng.uniform(-1, 1, (3, 2, 3, 3))
    bias = rng.uniform(-1, 1, (3,))
    oh = (5 + 2 * pad - dilation * 2 - 1) // stride + 1
    ro = _readout(rng, (1, 3, oh, oh))
    return [x, w, bias], lambda ts: _weighted(T.conv2d(ts[0], ts[1], bias=ts[2], stride=stride, pad=pad, dilation=dilation), ro)


def _b_maxpool2d(rng):
    h = int(rng.integers(2, 4)) * 2 + int(rng.integers(2))  # sometimes odd
    x = _distinct(rng, (1, 2, h, h))
    oh = (h + 1) // 2
    w = _readout(rng, (1, 2, oh, oh))
    return [x], lambda ts: _weighted(T.maxpool2d(ts[0]), w)


def _b_bilinear_resize(rng):
    x = rng.uniform(-2, 2, (1, 2, 5, 5))
    oh, ow = int(rng.integers(3, 9)), int(rng.integers(3, 9))
    w = _readout(rng, (1, 2, oh, ow))
    return [x], lambda ts: _weighted(T.bilinear_resize(ts[0], oh, ow), w)


def _bn_builder(training):
    def build(rng):
        x = rng.uniform(-2, 2, (2, 3, 4, 4))
        gamma = rng.uniform(0.5, 1.5, (3,))
        beta = rng.uniform(-0.5, 0.5, (3,))
        rm = rng.uniform(-0.3, 0.3, (3,)).astype(np.float32)
        rv = rng.uniform(0.7, 1.3, (3,)).astype(np.float32)
        w = _readout(rng, (2, 3, 4, 4))

        def forward(ts):
            # fresh running arrays per call so in-place updates cannot leak
            # between finite-difference evaluations
            return _weighted(
                T.batchnorm2d(ts[0], ts[1], ts[2], rm.copy(), rv.copy(), training=training), w
            )

        return [x, gamma, beta], forward

    return build


# ---------------------------------------------------------------------------
# loss builders


def _soft_mask(rng, shape):
    return rng.uniform(0.05, 0.95, size=shape)


def _binary_mask(rng, shape):
    m = (rng.uniform(0, 1, size=shape) > 0.5).astype(np.float64)
    if not m.any():
        m.flat[0] = 1.0
    return m


def _b_bce(rng):
    p = _soft_mask(rng, (4, 5))
    y = _binary_mask(rng, (4, 5))
    return [p], lambda ts: bce_loss(ts[0], y)


def _b_dice(rng):
    p = _soft_mask(rng, (4, 5))
    y = _binary_mask(rng, (4, 5))
    return [p], lambda ts: dice_loss(ts[0], y)


def _b_branch(rng):
    p = _soft_mask(rng, (4, 5))
    y = _binary_mask(rng, (4, 5))
    return [p], lambda ts: branch_loss(ts[0], y)


def _fg_soft_mask(rng):
    """6x6 separated-value mask whose centroid lands on foreground."""
    vals = _distinct(rng, (36,), lo=0.02, hi=0.45)
    grid = np.sort(vals)[:36].copy()
    rng.shuffle(grid)
    grid = grid.reshape(6, 6)
    fg = np.sort(_distinct(rng, (9,), lo=0.55, hi=0.95))
    grid[2:5, 2:5] = rng.permutation(fg).reshape(3, 3)
    return grid


def _bg_soft_mask(rng):
    """6x6 mask with two corner blobs; the centroid lands on background."""
    grid = _distinct(rng, (36,), lo=0.02, hi=0.45).reshape(6, 6)
    fg = rng.permutation(np.sort(_distinct(rng, (8,), lo=0.55, hi=0.95)))
    grid[0:2, 0:2] = fg[:4].reshape(2, 2)
    grid[4:6, 4:6] = fg[4:].reshape(2, 2)
    return grid


def _empty_soft_mask(rng):
    """6x6 mask with no pixel at the threshold: the empty-fallback case."""
    return _distinct(rng, (36,), lo=0.02, hi=0.45).reshape(6, 6)


def _mixed_batch(rng):
    """(3, 6, 6) stack of a foreground-, a background-centered and an empty
    mask, with a weak box for each."""
    masks = np.stack([_fg_soft_mask(rng), _bg_soft_mask(rng), _empty_soft_mask(rng)])
    boxes = np.zeros((3, 6, 6))
    boxes[0, 2:5, 2:5] = 1.0
    boxes[1] = 1.0
    boxes[2, 1:4, 0:3] = 1.0
    return masks, boxes


_MIXED_WEIGHTS = dict(beta=1.5, gamma=0.7)


def _b_mm2b(rng):
    p, target = _mixed_batch(rng)
    cfg = LossConfig(**_MIXED_WEIGHTS)
    w = _readout(rng, (3,))

    def forward(ts):
        box, foreground = batch_mask_to_box(ts[0])
        assert foreground.tolist() == [True, False, True]
        return _weighted(mm2b_loss(box, target, foreground, cfg), w)

    return [p], forward


def _b_sc(rng):
    p1 = _soft_mask(rng, (5, 5))
    p2 = _soft_mask(rng, (5, 5))
    # keep |p1 - p2| away from 0: abs kink
    p2 = np.where(np.abs(p1 - p2) < 0.02, p2 + 0.04, p2)
    box = _binary_mask(rng, (5, 5))
    return [p1, p2], lambda ts: sc_loss(ts[0], ts[1], box)


def _b_detail_refine(rng):
    p = _soft_mask(rng, (4, 5))
    y = _binary_mask(rng, (4, 5))
    return [p], lambda ts: detail_refine_loss(ts[0], y)


def _b_total_weak(rng):
    p, boxes = _mixed_batch(rng)
    # the second scale sits 0.03 above the first: off the |a - b| kink, and no
    # pixel crosses the threshold, so both scales take the same branches
    cfg = RunConfig(**_MIXED_WEIGHTS)
    lcfg = loss_config(cfg)
    return [p[:, None], p[:, None] + 0.03], lambda ts: weak_loss(ts[0], ts[1], list(boxes), cfg, lcfg)


def _b_total_refine(rng):
    p = _soft_mask(rng, (4, 5))
    y = _binary_mask(rng, (4, 5))
    return [p], lambda ts: total_loss(Phase.REFINE, refine=detail_refine_loss(ts[0], y))


PRIMITIVE_CHECKS = (
    ("add", _b_add),
    ("sub", _b_sub),
    ("mul", _b_mul),
    ("div", _b_div),
    ("affine", _b_affine),
    ("minimum", _b_minimum),
    ("maximum", _b_maximum),
    ("broadcast", _b_broadcast),
    ("reshape", _b_reshape),
    ("concat", _b_concat),
    ("plane", _b_plane),
    ("sigmoid", _b_sigmoid),
    ("relu", _b_relu),
    ("abs", _b_abs),
    ("log", _b_log),
    ("clamp", _b_clamp),
    ("sum", _b_sum),
    ("mean", _b_mean),
    ("sum_axis", _axis_builder(T.tsum)),
    ("mean_axis", _axis_builder(T.tmean)),
    ("reduce_max", _b_reduce_max),
    ("conv2d", _b_conv2d),
    ("maxpool2d", _b_maxpool2d),
    ("bilinear_resize", _b_bilinear_resize),
    ("batchnorm_train", _bn_builder(True)),
    ("batchnorm_eval", _bn_builder(False)),
)

LOSS_CHECKS = (
    ("loss_bce", _b_bce),
    ("loss_dice", _b_dice),
    ("loss_branch", _b_branch),
    ("loss_mm2b", _b_mm2b),
    ("loss_sc", _b_sc),
    ("loss_detail_refine", _b_detail_refine),
    ("loss_total_weak", _b_total_weak),
    ("loss_total_refine", _b_total_refine),
)

ALL_CHECKS = PRIMITIVE_CHECKS + LOSS_CHECKS


def run_gradcheck(seed=0, instances=20, tol=DEFAULT_TOL, h=DEFAULT_STEP, corrupt=None):
    """Run the full suite; returns a list with one CheckResult per check."""
    results = []
    for name, builder in ALL_CHECKS:
        worst = 0.0
        for i in range(instances):
            rng = rng_from_key(seed, "gradcheck", name, i)
            err = check_instance(builder, rng, h=h, corrupt=(corrupt == name))
            worst = max(worst, err)
        results.append(CheckResult(name=name, ok=worst <= tol, max_err=worst, instances=instances))
    return results
