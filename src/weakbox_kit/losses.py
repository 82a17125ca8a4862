"""Training objectives for box-supervised segmentation.

The weak-phase objective combines a branch-dispatched box loss with a
scale-consistency term; the refine phase uses a Dice/cross-entropy mix
against real masks. The weights and epsilons are read from a RunConfig.
Every loss reduces over the last two (H, W) axes, on the tape of its
prediction inputs: an (H, W) prediction gives a scalar Tensor and an
(N, H, W) stack gives one value per sample, shape (N,).
"""

import numpy as np

from . import tensor as T
from .boxes import EmptyMaskError
from .config import RunConfig

_HW = (-2, -1)  # the per-sample (H, W) axes every loss reduces over


def _check_shapes(pred, target, op):
    p = pred.data if isinstance(pred, T.Tensor) else np.asarray(pred)
    t = np.asarray(target)
    if p.shape != t.shape:
        raise T.ShapeError(f"{op}: prediction shape {p.shape} != target shape {t.shape}")


def bce_loss(pred, target, clamp_eps: float = RunConfig.clamp_eps):
    """Per-sample mean binary cross-entropy; predictions are clamped away from {0, 1}."""
    _check_shapes(pred, target, "bce_loss")
    pred = T.as_tensor(pred)
    y = np.asarray(target, dtype=pred.data.dtype)
    p = T.clamp(pred, clamp_eps, 1.0 - clamp_eps)
    yt = T.Tensor(y, dtype=pred.data.dtype)
    term = T.add(T.mul(yt, T.tlog(p)), T.mul(T.affine(yt, -1.0, 1.0), T.tlog(T.affine(p, -1.0, 1.0))))
    return T.affine(T.tmean(term, axis=_HW), -1.0, 0.0)


def dice_loss(pred, target, smooth_eps: float = RunConfig.smooth_eps):
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


def branch_loss(pred_box, target_box, cfg: RunConfig):
    """Average of BCE and Dice between a transformed mask and the weak box."""
    b = bce_loss(pred_box, target_box, cfg.clamp_eps)
    d = dice_loss(pred_box, target_box, cfg.smooth_eps)
    return T.affine(T.add(b, d), 0.5, 0.0)


def mm2b_loss(pred_box, target_box, foreground, cfg: RunConfig):
    """Branch-weighted box loss.

    `foreground` marks, per sample, the path the box transform took (a bool
    for an (H, W) box, an (N,) bool array for a stack, as `batch_mask_to_box`
    returns it): the branch loss is scaled by beta where it is set and by
    gamma where it is not.
    """
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


def detail_refine_loss(refined_prob, gt_mask, cfg: RunConfig):
    """Weighted Dice + cross-entropy against a real mask."""
    d = dice_loss(refined_prob, gt_mask, cfg.smooth_eps)
    b = bce_loss(refined_prob, gt_mask, cfg.clamp_eps)
    return T.add(T.affine(d, cfg.lambda1, 0.0), T.affine(b, cfg.lambda2, 0.0))
