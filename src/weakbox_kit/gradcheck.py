"""Central finite-difference verification of every differentiable primitive
and every loss.

Each check is one table row: a name and a draw function, `draw(rng) ->
(arrays, op)`, that gives the op's inputs and the op under test. The shared
readout rule builds the scalar loss: a scalar output is used as it is, any
other output is weighted by a uniform readout of its shape, drawn after the
inputs.

Checks run in float64 (the artifact path is float32; at h = 1e-3 float32
rounding would swamp the difference quotient). Inputs of max/min-like ops are
kept at least _SPACING apart so no tie flips within the +-h probes, and inputs
of kinked ops _KINK_MARGIN away from their kinks. A check fails when its worst
relative error over its instances exceeds the tolerance, and `run_gradcheck`
reports each check by name.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .boxes import batch_mask_to_box
from .config import RunConfig
from .losses import bce_loss, branch_loss, detail_refine_loss, dice_loss, mm2b_loss, sc_loss
from .pipeline import refine_loss, weak_loss
from .synth import rng_from_key

DEFAULT_STEP = 1e-3
DEFAULT_TOL = 1e-3
_REL_FLOOR = 0.1
_SPACING = 0.012
_KINK_MARGIN = 0.02


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    max_err: float
    instances: int


def _distinct(rng, shape, lo=-2.0, hi=2.0):
    """Values in [lo, hi] with pairwise gaps >= _SPACING, shuffled over the shape."""
    n = int(np.prod(shape))
    base = np.arange(n, dtype=np.float64) * _SPACING
    span = base[-1] if n > 1 else 0.0
    if span > hi - lo:
        raise ValueError(f"cannot fit {n} separated values into [{lo}, {hi}]")
    offset = rng.uniform(lo, hi - span)
    return rng.permutation(base + offset).reshape(shape)


def _away_from(rng, shape, points):
    vals = rng.uniform(-2.0, 2.0, size=shape)
    for p in points:
        close = np.abs(vals - p) < _KINK_MARGIN
        vals = np.where(close, p + np.sign(vals - p + 1e-12) * (_KINK_MARGIN + 0.01), vals)
    return vals


def _readout(rng, shape):
    return rng.uniform(-1.0, 1.0, size=shape)


def finite_diff(forward, arrays, index, h):
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


def check_instance(draw, rng, h):
    """Max relative FD-vs-tape error over all inputs of one instance.

    `draw(rng)` gives the input arrays and the op, called as `op(*tensors)`.
    The loss is the op's output when that is a scalar; otherwise it is the
    output weighted by a readout drawn after the inputs."""
    arrays, op = draw(rng)
    shape = op(*[T.Tensor(a, dtype=np.float64) for a in arrays]).data.shape
    weights = None if shape == () else _readout(rng, shape)

    def forward(ts):
        out = op(*ts)
        return out if weights is None else T.tsum(T.mul(out, T.Tensor(weights, dtype=np.float64)))

    tensors = [T.Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    T.backward(forward(tensors))
    worst = 0.0

    def scalar_forward(arrs):
        return forward([T.Tensor(a, dtype=np.float64) for a in arrs]).item()

    for i, t in enumerate(tensors):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        fd = finite_diff(scalar_forward, arrays, i, h)
        denom = np.maximum(_REL_FLOOR, np.maximum(np.abs(fd), np.abs(analytic)))
        worst = max(worst, float(np.max(np.abs(fd - analytic) / denom)))
    return worst


# ---------------------------------------------------------------------------
# input draws


def _check(draws, op):
    """Draw function of an op without drawn parameters: one input per draw,
    drawn in order."""
    return lambda rng: ([d(rng) for d in draws], op)


def _uniform(shape, lo=-2.0, hi=2.0):
    return lambda rng: rng.uniform(lo, hi, shape)


def _nonzero(shape):
    """Uniform magnitudes in [0.3, 2) with a random sign: a safe divisor."""
    return lambda rng: np.sign(rng.uniform(-1, 1, shape)) * rng.uniform(0.3, 2.0, shape)


def _off_kinks(*points):
    """A (3, 4) input with no value within _KINK_MARGIN of a kink point."""
    return lambda rng: _away_from(rng, (3, 4), points=points)


def _tie_free_pair(op):
    """Two (3, 4) inputs whose 24 values are pairwise _SPACING apart."""
    return lambda rng: (list(_distinct(rng, (2, 3, 4))), op)


def _soft_mask(rng, shape):
    return rng.uniform(0.05, 0.95, size=shape)


def _binary_mask(rng, shape):
    m = (rng.uniform(0, 1, size=shape) > 0.5).astype(np.float64)
    if not m.any():
        m.flat[0] = 1.0
    return m


def _against_mask(loss):
    """A (4, 5) soft prediction, checked through loss(pred, binary target)."""

    def draw(rng):
        p = _soft_mask(rng, (4, 5))
        y = _binary_mask(rng, (4, 5))
        return [p], lambda t: loss(t, y)

    return draw


# ---------------------------------------------------------------------------
# draw functions of ops with drawn parameters


def _affine(rng):
    a = rng.uniform(-2, 2, (2, 5))
    s, c = float(rng.uniform(-3, 3)), float(rng.uniform(-1, 1))
    return [a], lambda x: T.affine(x, s, c)


def _along_axis(op):
    def draw(rng):
        a = rng.uniform(-2, 2, (2, 3, 4))
        axis = ((-2, -1), 0, 2)[int(rng.integers(3))]
        return [a], lambda x: op(x, axis=axis)

    return draw


def _reduce_max(rng):
    a = _distinct(rng, (5, 6))
    axis = int(rng.integers(2))
    return [a], lambda x: T.reduce_max(x, axis=axis)


def _conv2d(rng):
    stride = int(rng.integers(1, 3))
    dilation = int(rng.integers(1, 3))
    pad = dilation  # keeps the 5x5 input producing a non-empty output
    arrays = [rng.uniform(-2, 2, (1, 2, 5, 5)), rng.uniform(-1, 1, (3, 2, 3, 3)), rng.uniform(-1, 1, (3,))]
    return arrays, lambda x, w, b: T.conv2d(x, w, bias=b, stride=stride, pad=pad, dilation=dilation)


def _maxpool2d(rng):
    h = int(rng.integers(2, 4)) * 2 + int(rng.integers(2))  # sometimes odd
    return [_distinct(rng, (1, 2, h, h))], T.maxpool2d


def _bilinear_resize(rng):
    x = rng.uniform(-2, 2, (1, 2, 5, 5))
    oh, ow = int(rng.integers(3, 9)), int(rng.integers(3, 9))
    return [x], lambda t: T.bilinear_resize(t, oh, ow)


def _batchnorm(training):
    def draw(rng):
        x = rng.uniform(-2, 2, (2, 3, 4, 4))
        gamma = rng.uniform(0.5, 1.5, (3,))
        beta = rng.uniform(-0.5, 0.5, (3,))
        rm = rng.uniform(-0.3, 0.3, (3,)).astype(np.float32)
        rv = rng.uniform(0.7, 1.3, (3,)).astype(np.float32)
        # fresh running arrays per call so in-place updates cannot leak
        # between finite-difference evaluations
        return [x, gamma, beta], lambda t, g, b: T.batchnorm2d(t, g, b, rm.copy(), rv.copy(), training=training)

    return draw


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


def _mm2b(rng):
    p, target = _mixed_batch(rng)
    cfg = RunConfig(**_MIXED_WEIGHTS)

    def op(t):
        box, foreground = batch_mask_to_box(t)
        assert foreground.tolist() == [True, False, True]
        return mm2b_loss(box, target, foreground, cfg)

    return [p], op


def _sc(rng):
    p1 = _soft_mask(rng, (5, 5))
    p2 = _soft_mask(rng, (5, 5))
    # keep |p1 - p2| away from 0: abs kink
    p2 = np.where(np.abs(p1 - p2) < 0.02, p2 + 0.04, p2)
    box = _binary_mask(rng, (5, 5))
    return [p1, p2], lambda a, b: sc_loss(a, b, box)


def _total_weak(rng):
    p, boxes = _mixed_batch(rng)
    # the second scale sits 0.03 above the first: off the |a - b| kink, and no
    # pixel crosses the threshold, so both scales take the same branches
    cfg = RunConfig(**_MIXED_WEIGHTS)
    return [p[:, None], p[:, None] + 0.03], lambda a, b: weak_loss(a, b, list(boxes), cfg)


PRIMITIVE_CHECKS = (
    ("add", _check([_uniform((3, 4)), _uniform((3, 4))], T.add)),
    ("sub", _check([_uniform((3, 4)), _uniform((3, 4))], T.sub)),
    ("mul", _check([_uniform((3, 4)), _uniform((1, 4))], T.mul)),  # broadcast on purpose
    ("div", _check([_uniform((3, 4)), _nonzero((3, 4))], T.div)),
    ("affine", _affine),
    ("minimum", _tie_free_pair(T.minimum)),
    ("maximum", _tie_free_pair(T.maximum)),
    ("broadcast", _check([_uniform((4,))], lambda a: T.broadcast_to(T.reshape(a, (1, 4)), (3, 4)))),
    ("reshape", _check([_uniform((3, 4))], lambda a: T.reshape(a, (2, 6)))),
    ("concat", _check([_uniform((1, 2, 3, 3)), _uniform((1, 1, 3, 3))], lambda a, b: T.concat([a, b], axis=1))),
    ("plane", _check([_uniform((2, 3, 4, 4))], lambda a: T.plane(a, 1, 2))),
    ("sigmoid", _check([_uniform((3, 4))], T.sigmoid)),
    ("relu", _check([_off_kinks(0.0)], T.relu)),
    ("abs", _check([_off_kinks(0.0)], T.tabs)),
    ("log", _check([_uniform((3, 4), 0.1, 2.0)], T.tlog)),
    ("clamp", _check([_off_kinks(-1.0, 1.0)], lambda a: T.clamp(a, -1.0, 1.0))),
    ("sum", _check([_uniform((3, 5))], T.tsum)),
    ("mean", _check([_uniform((4, 4))], T.tmean)),
    ("sum_axis", _along_axis(T.tsum)),
    ("mean_axis", _along_axis(T.tmean)),
    ("reduce_max", _reduce_max),
    ("conv2d", _conv2d),
    ("maxpool2d", _maxpool2d),
    ("bilinear_resize", _bilinear_resize),
    ("batchnorm_train", _batchnorm(True)),
    ("batchnorm_eval", _batchnorm(False)),
)

LOSS_CHECKS = (
    ("loss_bce", _against_mask(bce_loss)),
    ("loss_dice", _against_mask(dice_loss)),
    ("loss_branch", _against_mask(lambda p, y: branch_loss(p, y, RunConfig()))),
    ("loss_mm2b", _mm2b),
    ("loss_sc", _sc),
    ("loss_detail_refine", _against_mask(lambda p, y: detail_refine_loss(p, y, RunConfig()))),
    ("loss_total_weak", _total_weak),
    ("loss_total_refine", _against_mask(lambda p, y: refine_loss(p, y, RunConfig()))),
)

ALL_CHECKS = PRIMITIVE_CHECKS + LOSS_CHECKS


def run_gradcheck(seed=0, instances=20, tol=DEFAULT_TOL, h=DEFAULT_STEP):
    """Run the full suite; returns a list with one CheckResult per check."""
    if instances < 1:
        raise ValueError(f"gradcheck needs instances >= 1, got {instances}")
    results = []
    for name, draw in ALL_CHECKS:
        worst = 0.0
        for i in range(instances):
            rng = rng_from_key(seed, "gradcheck", name, i)
            err = check_instance(draw, rng, h)
            worst = max(worst, err)
        results.append(CheckResult(name=name, ok=worst <= tol, max_err=worst, instances=instances))
    return results
