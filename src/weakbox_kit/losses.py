"""Training objectives for box-supervised segmentation.

The weak-phase objective combines a branch-dispatched box loss with a
scale-consistency term; the refine phase uses a Dice/cross-entropy mix
against real masks. Every loss reduces over the last two (H, W) axes, on
the tape of its prediction inputs: an (H, W) prediction gives a scalar
Tensor and an (N, H, W) stack gives one value per sample, shape (N,).
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .boxes import EmptyMaskError

_HW = (-2, -1)  # the per-sample (H, W) axes every loss reduces over


@dataclass
class LossConfig:
    beta: float = 1.0  # foreground-branch weight
    gamma: float = 1.0  # background-branch weight
    lambda1: float = 0.8  # Dice weight in the refine loss
    lambda2: float = 0.2  # cross-entropy weight in the refine loss
    smooth_eps: float = 1.0  # Dice smoothing
    clamp_eps: float = 1e-7  # BCE log clamping

    def __post_init__(self):
        for name in ("beta", "gamma", "lambda1", "lambda2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.smooth_eps <= 0 or self.clamp_eps <= 0:
            raise ValueError("smooth_eps and clamp_eps must be > 0")


class Phase(enum.Enum):
    WEAK = "weak"
    REFINE = "refine"


def _check_shapes(pred, target, op):
    p = pred.data if isinstance(pred, T.Tensor) else np.asarray(pred)
    t = np.asarray(target)
    if p.shape != t.shape:
        raise T.ShapeError(f"{op}: prediction shape {p.shape} != target shape {t.shape}")


def bce_loss(pred, target, clamp_eps: float = 1e-7):
    """Per-sample mean binary cross-entropy; predictions are clamped away from {0, 1}."""
    _check_shapes(pred, target, "bce_loss")
    pred = T.as_tensor(pred)
    y = np.asarray(target, dtype=pred.data.dtype)
    p = T.clamp(pred, clamp_eps, 1.0 - clamp_eps)
    yt = T.Tensor(y, dtype=pred.data.dtype)
    term = T.add(T.mul(yt, T.tlog(p)), T.mul(T.affine(yt, -1.0, 1.0), T.tlog(T.affine(p, -1.0, 1.0))))
    return T.affine(T.tmean(term, axis=_HW), -1.0, 0.0)


def dice_loss(pred, target, smooth_eps: float = 1.0):
    """Soft Dice loss: 1 - (2*intersection + eps) / (|pred| + |target| + eps)."""
    _check_shapes(pred, target, "dice_loss")
    pred = T.as_tensor(pred)
    y = np.asarray(target, dtype=pred.data.dtype)
    yt = T.Tensor(y, dtype=pred.data.dtype)
    inter = T.tsum(T.mul(pred, yt), axis=_HW)
    target_sum = y.sum(axis=_HW, dtype=np.float64)
    num = T.affine(inter, 2.0, smooth_eps)
    den = T.add(T.tsum(pred, axis=_HW), T.Tensor(target_sum + smooth_eps, dtype=pred.data.dtype))
    return T.affine(T.div(num, den), -1.0, 1.0)


def branch_loss(pred_box, target_box, cfg: LossConfig | None = None):
    """Average of BCE and Dice between a transformed mask and the weak box."""
    cfg = cfg or LossConfig()
    b = bce_loss(pred_box, target_box, cfg.clamp_eps)
    d = dice_loss(pred_box, target_box, cfg.smooth_eps)
    return T.affine(T.add(b, d), 0.5, 0.0)


def mm2b_loss(pred_box, target_box, foreground, cfg: LossConfig | None = None):
    """Branch-weighted box loss.

    `foreground` marks, per sample, the path the box transform took (a bool
    for an (H, W) box, an (N,) bool array for a stack, as `batch_mask_to_box`
    returns it): the branch loss is scaled by beta where it is set and by
    gamma where it is not.
    """
    cfg = cfg or LossConfig()
    loss = branch_loss(pred_box, target_box, cfg)
    weight = np.where(foreground, cfg.beta, cfg.gamma)
    return T.mul(loss, T.Tensor(weight, dtype=loss.data.dtype))


def sc_loss(pred_a, pred_b, box: np.ndarray):
    """Per-sample mean absolute prediction gap inside the box region.

    Both predictions must already be at the box's resolution.
    """
    _check_shapes(pred_a, box, "sc_loss")
    _check_shapes(pred_b, box, "sc_loss")
    box = np.asarray(box)
    total = box.sum(axis=_HW, dtype=np.float64)
    if np.any(total == 0):
        raise EmptyMaskError("sc_loss: box region is empty")
    pa = T.as_tensor(pred_a)
    pb = T.as_tensor(pred_b)
    gap = T.tabs(T.sub(pa, pb))
    masked = T.mul(gap, T.Tensor(box, dtype=pa.data.dtype))
    return T.mul(T.tsum(masked, axis=_HW), T.Tensor(1.0 / total, dtype=pa.data.dtype))


def detail_refine_loss(refined_prob, gt_mask, cfg: LossConfig | None = None):
    """Weighted Dice + cross-entropy against a real mask."""
    cfg = cfg or LossConfig()
    d = dice_loss(refined_prob, gt_mask, cfg.smooth_eps)
    b = bce_loss(refined_prob, gt_mask, cfg.clamp_eps)
    return T.add(T.affine(d, cfg.lambda1, 0.0), T.affine(b, cfg.lambda2, 0.0))


def total_loss(phase: Phase, mm2b=None, sc=None, refine=None):
    """Phase-gated combination: weak phase sums the box and consistency terms
    (any refine component is ignored); refine phase passes the refine loss."""
    if phase is Phase.WEAK:
        if mm2b is None or sc is None:
            raise ValueError("weak phase needs both the mm2b and sc components")
        return T.add(T.as_tensor(mm2b), T.as_tensor(sc))
    if phase is Phase.REFINE:
        if refine is None:
            raise ValueError("refine phase needs the refine component")
        return T.as_tensor(refine)
    raise ValueError(f"unknown phase: {phase!r}")
