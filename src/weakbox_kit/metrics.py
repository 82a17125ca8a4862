"""Pixelwise segmentation metrics: overlap scores, rates, and HD95."""

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt

from .boxes import THRESHOLD, EmptyMaskError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn


def confusion_counts(pred: np.ndarray, gt: np.ndarray) -> ConfusionCounts:
    """Threshold both grids at THRESHOLD and count pixel agreement."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"confusion_counts: shapes differ, {pred.shape} vs {gt.shape}")
    p = pred >= THRESHOLD
    g = gt >= THRESHOLD
    return ConfusionCounts(
        tp=int(np.count_nonzero(p & g)),
        fp=int(np.count_nonzero(p & ~g)),
        fn=int(np.count_nonzero(~p & g)),
        tn=int(np.count_nonzero(~p & ~g)),
    )


def _safe_div(num, den):
    # 0/0 means a vacuously perfect score
    return 1.0 if den == 0 else num / den


def dsc_miou(c: ConfusionCounts):
    """Dice, foreground IoU, and the fg/bg-mean IoU."""
    dsc = _safe_div(2.0 * c.tp, 2.0 * c.tp + c.fp + c.fn)
    iou_fg = _safe_div(float(c.tp), float(c.tp + c.fp + c.fn))
    iou_bg = _safe_div(float(c.tn), float(c.tn + c.fp + c.fn))
    return dsc, iou_fg, (iou_fg + iou_bg) / 2.0


def acc_sen_spe(c: ConfusionCounts):
    """Accuracy, sensitivity (recall), specificity."""
    acc = _safe_div(float(c.tp + c.tn), float(c.total))
    sen = _safe_div(float(c.tp), float(c.tp + c.fn))
    spe = _safe_div(float(c.tn), float(c.tn + c.fp))
    return acc, sen, spe


def hd95(pred: np.ndarray, gt: np.ndarray) -> float:
    """Symmetric 95th-percentile Hausdorff distance between foreground sets.

    Distances are Euclidean nearest-neighbor distances over the full
    thresholded point sets, read from an exact distance transform; each
    direction is reduced to its 95th percentile (linear interpolation) and the
    two directions are combined with max.
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"hd95: shapes differ, {pred.shape} vs {gt.shape}")
    a = pred >= THRESHOLD
    b = gt >= THRESHOLD
    if not (a.any() and b.any()):
        raise EmptyMaskError("undefined HD95: one of the masks is empty after thresholding")
    # every point and its nearest neighbour lie in the joint bounding box, so
    # the transforms over it read the same distances, in the same order
    box = tuple(slice(i.min(), i.max() + 1) for i in np.nonzero(a | b))
    a, b = a[box], b[box]
    d_ab = np.percentile(distance_transform_edt(~b)[a], 95, method="linear")
    d_ba = np.percentile(distance_transform_edt(~a)[b], 95, method="linear")
    return float(max(d_ab, d_ba))
