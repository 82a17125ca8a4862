"""Pixelwise segmentation metrics: overlap scores, rates, and HD95.

HD95 reads exact Euclidean nearest-point distances from `nearest_distances`,
a numpy form of the separable exact distance transform (Meijster, Roerdink
and Hesselink, 2000): a 1-d distance along each row, then the least squared
distance over all rows, in integers until the final square root.
"""

from dataclasses import dataclass

import numpy as np

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


# src pixels compared against every dst row at once; bounds the (rows, pixels) block at 2 MiB
_BLOCK = 1 << 18


def nearest_distances(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Euclidean distance from each True pixel of `src` (row-major order) to
    the nearest True pixel of `dst`; 0 where `src` and `dst` overlap. Equal to
    `distance_transform_edt(~dst)[src]`: each value is the square root of an
    exact integer."""
    rows = np.flatnonzero(dst.any(axis=1))
    if rows.size == 0:
        raise EmptyMaskError("nearest_distances: the target set is empty")
    # per dst row, the column distance from every column to the row's nearest dst pixel
    cols = np.arange(dst.shape[1])
    far = 2 * dst.shape[1]
    occupied = dst[rows]
    before = np.maximum.accumulate(np.where(occupied, cols, -far), axis=1)
    after = np.minimum.accumulate(np.where(occupied, cols, far)[:, ::-1], axis=1)[:, ::-1]
    col_sq = np.minimum(cols - before, after - cols) ** 2
    # only src pixels outside dst are searched; the rest keep distance 0
    r, c = np.nonzero(src & ~dst)
    sq = np.empty(r.size)
    step = max(1, _BLOCK // rows.size)
    for lo in range(0, r.size, step):
        hi = lo + step
        sq[lo:hi] = ((r[lo:hi] - rows[:, None]) ** 2 + col_sq[:, c[lo:hi]]).min(axis=0)
    out = np.zeros(np.count_nonzero(src))
    out[~dst[src]] = np.sqrt(sq)
    return out


def hd95(pred: np.ndarray, gt: np.ndarray) -> float:
    """Symmetric 95th-percentile Hausdorff distance between foreground sets.

    Distances are Euclidean nearest-neighbor distances over the full
    thresholded point sets, read from `nearest_distances`; each
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
    d_ab = np.percentile(nearest_distances(a, b), 95, method="linear")
    d_ba = np.percentile(nearest_distances(b, a), 95, method="linear")
    return float(max(d_ab, d_ba))
