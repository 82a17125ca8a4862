"""Mask-to-box transforms with center-point dispatch.

A (soft) mask is projected onto its two axes; depending on whether the
foreground centroid itself lies on foreground, the box supervision mask is
either the element-wise min of the back-projected profiles (single compact
object) or the cross-band union minus a centered gap rectangle (multiple
separated objects). The gap rectangle is a constant geometric construction.

`project` and the back-projections act on the last two axes, so they take a
single (H, W) mask or an (N, H, W) stack, and are differentiable when given
a Tensor. `batch_mask_to_box` is the one Tensor box transform: it transforms
a whole stack in one pass, deciding each sample's branch in numpy first.
`mask_to_box` transforms one numpy mask.
"""

import enum
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from . import tensor as T

MaskLike = Union[np.ndarray, T.Tensor]

# the one foreground rule: a pixel is foreground when its value is >= THRESHOLD
THRESHOLD = 0.5


class EmptyMaskError(ValueError):
    """Raised when an operation needs foreground pixels and there are none."""


class Center(enum.Enum):
    FOREGROUND = "foreground"
    BACKGROUND = "background"


@dataclass(frozen=True)
class CenterStatus:
    status: Center
    centroid: tuple  # (row, col), half-up rounded mean of thresholded pixels


@dataclass(frozen=True)
class BoxCoords:
    """Inclusive pixel-coordinate box."""

    row_min: int
    col_min: int
    row_max: int
    col_max: int

    def as_tuple(self):
        return (self.row_min, self.col_min, self.row_max, self.col_max)


class Projection(NamedTuple):
    width_profile: MaskLike  # per-column maxima, shape (..., W)
    height_profile: MaskLike  # per-row maxima, shape (..., H)


def _raw(mask):
    return mask.data if isinstance(mask, T.Tensor) else np.asarray(mask)


def project(mask: MaskLike) -> Projection:
    """Per-axis maxima of an (H, W) mask or an (N, H, W) stack; differentiable
    for Tensor input."""
    ndim = _raw(mask).ndim
    if ndim not in (2, 3):
        raise T.ShapeError(f"project expects an (H, W) mask or an (N, H, W) stack, got shape {_raw(mask).shape}")
    if isinstance(mask, T.Tensor):
        return Projection(T.reduce_max(mask, axis=ndim - 2), T.reduce_max(mask, axis=ndim - 1))
    arr = np.asarray(mask)
    return Projection(arr.max(axis=-2), arr.max(axis=-1))


def _outer(proj: Projection, combine_t, combine_np):
    """Combine every row profile entry with every column profile entry; the
    combining op broadcasts (..., 1, W) against (..., H, 1)."""
    pw, ph = proj
    if isinstance(pw, T.Tensor):
        cols = T.reshape(pw, pw.data.shape[:-1] + (1, pw.data.shape[-1]))
        rows = T.reshape(ph, ph.data.shape + (1,))
        return combine_t(cols, rows)
    return combine_np(np.asarray(pw)[..., None, :], np.asarray(ph)[..., :, None])


def backproject_min(proj: Projection) -> MaskLike:
    """Element-wise min of the back-projected profiles.

    For a binary mask this is the outer product of occupied-row and
    occupied-column indicators: a union of axis-aligned rectangles.
    """
    return _outer(proj, T.minimum, np.minimum)


def backproject_max(proj: Projection) -> MaskLike:
    """Element-wise max of the back-projected profiles: the cross-band union
    of every occupied row band and occupied column band."""
    return _outer(proj, T.maximum, np.maximum)


def center_status(mask: MaskLike) -> CenterStatus:
    """Locate the thresholded-foreground centroid and classify it.

    The centroid is the half-up-rounded mean position of pixels >= THRESHOLD;
    the status says whether the mask at that pixel is itself foreground.
    """
    arr = _raw(mask)
    fg = arr >= THRESHOLD
    rows, cols = np.nonzero(fg)
    if rows.size == 0:
        raise EmptyMaskError("no foreground: no pixel reaches the threshold")
    r = int(np.floor(rows.mean() + 0.5))
    c = int(np.floor(cols.mean() + 0.5))
    status = Center.FOREGROUND if fg[r, c] else Center.BACKGROUND
    return CenterStatus(status=status, centroid=(r, c))


def _min_run_gap(occupied: np.ndarray) -> int:
    """Smallest gap between consecutive runs of True entries; 0 for <= 1 run."""
    idx = np.flatnonzero(occupied)
    if idx.size < 2:
        return 0
    steps = np.diff(idx)
    gaps = steps[steps > 1] - 1
    return int(gaps.min()) if gaps.size else 0


def min_gap_box(mask: MaskLike, centroid) -> np.ndarray:
    """Rectangle sized by the smallest projection run gaps, centered on the
    centroid and clipped to the grid. Empty when either gap is zero."""
    arr = _raw(mask)
    fg = arr >= THRESHOLD
    d_h = _min_run_gap(fg.any(axis=1))
    d_w = _min_run_gap(fg.any(axis=0))
    out = np.zeros(arr.shape, dtype=arr.dtype)
    if d_h == 0 or d_w == 0:
        return out
    r, c = centroid
    r0 = max(0, r - (d_h - 1) // 2)
    c0 = max(0, c - (d_w - 1) // 2)
    out[r0 : r0 + d_h, c0 : c0 + d_w] = 1.0
    return out


def decide_branch(mask: MaskLike):
    """The branch policy for one mask: its CenterStatus and the gap rectangle
    to cut from the cross-band union, or None on the foreground path. Raises
    EmptyMaskError when no pixel reaches the threshold."""
    status = center_status(mask)
    if status.status is Center.FOREGROUND:
        return status, None
    return status, min_gap_box(mask, status.centroid)


def mask_to_box(mask: np.ndarray):
    """Turn a (soft) numpy mask into its box supervision mask.

    Foreground-centered masks take the min-backprojection path; background-
    centered ones (multiple separated objects) take the cross-band union minus
    the centered gap rectangle, clamped to [0, 1]. Returns (box, CenterStatus).
    """
    mask = np.asarray(mask)
    status, gap = decide_branch(mask)
    proj = project(mask)
    box = backproject_min(proj) if gap is None else np.clip(backproject_max(proj) - gap, 0.0, 1.0)
    return box, status


def decide_branches(masks: np.ndarray):
    """`decide_branch` for each sample of an (N, H, W) stack, in numpy.

    Returns a boolean (N,) foreground mark and the (N, H, W) gap rectangles,
    zero except on background-centered samples. A sample with no pixel at the
    threshold has no centroid; it takes the foreground path.
    """
    masks = np.asarray(masks)
    foreground = np.ones(len(masks), dtype=bool)
    gaps = np.zeros_like(masks)
    for i, mask in enumerate(masks):
        try:
            _, gap = decide_branch(mask)
        except EmptyMaskError:
            continue
        if gap is not None:
            foreground[i] = False
            gaps[i] = gap
    return foreground, gaps


def batch_mask_to_box(masks: T.Tensor):
    """Box supervision masks for an (N, H, W) stack in one pass.

    Both branch transforms run on the whole stack from one projection; a
    per-sample {0, 1} selector keeps the min back-projection for foreground
    (and empty) samples and the clamped cross-band union minus the gap for
    background ones. Returns the (N, H, W) box Tensor and the (N,) foreground
    mark from `decide_branches`.
    """
    if masks.data.ndim != 3:
        raise T.ShapeError(f"batch_mask_to_box expects an (N, H, W) stack, got shape {masks.data.shape}")
    foreground, gaps = decide_branches(masks.data)
    dt = masks.data.dtype
    proj = project(masks)
    box_fg = backproject_min(proj)
    box_bg = T.clamp(T.sub(backproject_max(proj), T.Tensor(gaps, dtype=dt)), 0.0, 1.0)
    keep = foreground.astype(dt)[:, None, None]
    box = T.add(T.mul(box_fg, T.Tensor(keep, dtype=dt)), T.mul(box_bg, T.Tensor(1.0 - keep, dtype=dt)))
    return box, foreground


def box_coords(box_mask: MaskLike) -> BoxCoords:
    """Tight inclusive coordinate box over the thresholded support."""
    arr = _raw(box_mask)
    rows, cols = np.nonzero(arr >= THRESHOLD)
    if rows.size == 0:
        raise EmptyMaskError("no support: no box-mask pixel reaches the threshold")
    return BoxCoords(int(rows.min()), int(cols.min()), int(rows.max()), int(cols.max()))


def rasterize_box(coords: BoxCoords, height: int, width: int, dtype) -> np.ndarray:
    """Fill the inclusive coordinate box with ones on a zero grid."""
    if not (0 <= coords.row_min <= coords.row_max < height and 0 <= coords.col_min <= coords.col_max < width):
        raise ValueError(f"box {coords.as_tuple()} out of bounds for grid ({height}, {width})")
    out = np.zeros((height, width), dtype=dtype)
    out[coords.row_min : coords.row_max + 1, coords.col_min : coords.col_max + 1] = 1.0
    return out


def gt_box_mask(gt_mask: np.ndarray) -> np.ndarray:
    """Weak label: the rasterized tight bounding rectangle of a GT mask."""
    arr = np.asarray(gt_mask)
    coords = box_coords(arr)
    return rasterize_box(coords, arr.shape[0], arr.shape[1], dtype=arr.dtype if arr.dtype.kind == "f" else np.float32)
