"""Deterministic synthetic binary-segmentation data.

Masks are unions of randomized soft ellipse fields thresholded to binary
(single objects may also be fused ellipse pairs or annuli); images are
two-level intensities plus smoothed uniform noise. All randomness flows
through counter-based generators keyed by (seed, stream, index), so a
dataset regenerates byte-identically from its spec.
"""

import hashlib
import os
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter
from scipy.spatial import cKDTree

from .kvcfg import format_kv, from_kv, parse_kv_file, to_kv
from .pgm import read_pgm, write_pgm

SHAPE_FAMILIES = ("ellipse", "fused", "annulus")

FG_FRACTION_RANGE = (0.02, 0.6)
_MAX_RETRIES = 64


def rng_from_key(*parts) -> np.random.Generator:
    """Philox generator keyed by hashing the key parts; platform-stable."""
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    key = int.from_bytes(hashlib.blake2b(blob, digest_size=16).digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, index) -> int:
    blob = f"{seed}\x1f{index}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class Sample:
    image: np.ndarray
    gt_mask: np.ndarray


@dataclass(frozen=True)
class DatasetSpec:
    count: int = 200
    size: int = 64
    n_objects_min: int = 1
    n_objects_max: int = 2
    shapes: tuple = ("ellipse", "fused", "annulus")
    noise: float = 0.3
    seed: int = 42

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.size < 16:
            raise ValueError(f"size must be >= 16, got {self.size}")
        if not (1 <= self.n_objects_min <= self.n_objects_max):
            raise ValueError(f"bad object count range [{self.n_objects_min}, {self.n_objects_max}]")
        if not (0.0 <= self.noise <= 0.5):
            raise ValueError(f"noise must lie in [0, 0.5], got {self.noise}")
        unknown = set(self.shapes) - set(SHAPE_FAMILIES)
        if unknown or not self.shapes:
            raise ValueError(f"shapes must be a non-empty subset of {SHAPE_FAMILIES}, got {self.shapes}")


def _ellipse_field(size, center, axes, angle):
    """Soft ellipse 2^(-q): 1 at the center, 0.5 on the boundary q = 1."""
    rr, cc = np.meshgrid(np.arange(size, dtype=np.float64), np.arange(size, dtype=np.float64), indexing="ij")
    dr = rr - center[0]
    dc = cc - center[1]
    cos, sin = np.cos(angle), np.sin(angle)
    u = dr * cos + dc * sin
    v = -dr * sin + dc * cos
    q = (u / axes[0]) ** 2 + (v / axes[1]) ** 2
    return np.exp2(-q)


def _single_object_field(rng, size, family):
    lo, hi = 0.30 * size, 0.70 * size
    center = rng.uniform(lo, hi, size=2)
    if family == "ellipse":
        axes = rng.uniform(0.12 * size, 0.26 * size, size=2)
        return _ellipse_field(size, center, axes, rng.uniform(0, np.pi)), center, axes.max()
    if family == "fused":
        axes = rng.uniform(0.10 * size, 0.18 * size, size=2)
        offset = rng.uniform(-0.10 * size, 0.10 * size, size=2)
        f1 = _ellipse_field(size, center, axes, rng.uniform(0, np.pi))
        f2 = _ellipse_field(size, center + offset, axes[::-1], rng.uniform(0, np.pi))
        return np.maximum(f1, f2), center, axes.max() + float(np.abs(offset).max())
    if family == "annulus":
        outer = rng.uniform(0.18 * size, 0.28 * size)
        inner = outer * rng.uniform(0.45, 0.65)
        f_out = _ellipse_field(size, center, (outer, outer), 0.0)
        f_in = _ellipse_field(size, center, (inner, inner), 0.0)
        # ring: inside the outer disc but outside the inner one
        return np.minimum(f_out, 1.0 - f_in), center, outer
    raise ValueError(f"unknown shape family {family!r}")


def _multi_object_centers(rng, size, n):
    if n == 2:
        # opposite quadrants along a random diagonal keeps the joint centroid
        # in the empty middle
        near = rng.uniform(0.18 * size, 0.32 * size, size=2)
        far = rng.uniform(0.68 * size, 0.82 * size, size=2)
        if rng.integers(2) == 0:
            return [near, far]
        return [np.array([near[0], far[1]]), np.array([far[0], near[1]])]
    cells = rng.permutation(9)[:n]
    centers = []
    for cell in cells:
        cr, cc = divmod(int(cell), 3)
        base = np.array([(cr + 0.5) * size / 3.0, (cc + 0.5) * size / 3.0])
        centers.append(base + rng.uniform(-0.04 * size, 0.04 * size, size=2))
    return centers


def _min_point_distance(mask_a, mask_b):
    pts_a = np.argwhere(mask_a)
    pts_b = np.argwhere(mask_b)
    d, _ = cKDTree(pts_b).query(pts_a, k=1)
    return float(d.min())


def gen_blob_mask(seed: int, size: int, n_objects: int, shapes=SHAPE_FAMILIES) -> np.ndarray:
    """Binary mask of n_objects separated blobs; retries until the foreground
    fraction lands in FG_FRACTION_RANGE and objects stay >= 2 px apart."""
    if n_objects < 1:
        raise ValueError(f"n_objects must be >= 1, got {n_objects}")
    if size < 16:
        raise ValueError(f"size must be >= 16, got {size}")
    for attempt in range(_MAX_RETRIES):
        rng = rng_from_key(seed, "mask", attempt)
        if n_objects == 1:
            family = shapes[rng.integers(len(shapes))]
            field, _, _ = _single_object_field(rng, size, family)
            parts = [field >= 0.5]
        else:
            # multi-object samples use plain ellipses; families with holes or
            # lobes make the separation constraint needlessly flaky
            centers = _multi_object_centers(rng, size, n_objects)
            ax_range = (0.08 * size, 0.12 * size) if n_objects == 2 else (0.06 * size, 0.10 * size)
            parts = []
            for center in centers:
                axes = rng.uniform(*ax_range, size=2)
                field = _ellipse_field(size, center, axes, rng.uniform(0, np.pi))
                parts.append(field >= 0.5)
        if any(not p.any() for p in parts):
            continue
        ok = True
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                if _min_point_distance(parts[i], parts[j]) < 2.0:
                    ok = False
        if not ok:
            continue
        mask = np.zeros((size, size), dtype=bool)
        for p in parts:
            mask |= p
        fraction = mask.mean()
        if FG_FRACTION_RANGE[0] <= fraction <= FG_FRACTION_RANGE[1]:
            return mask.astype(np.float32)
    raise RuntimeError(f"gen_blob_mask: constraints unsatisfiable after {_MAX_RETRIES} retries (seed={seed}, size={size}, n_objects={n_objects})")


def render_image(mask: np.ndarray, seed: int, noise: float) -> np.ndarray:
    """Two-level intensities (fg 0.7 / bg 0.3) plus smoothed uniform noise."""
    if not (0.0 <= noise <= 0.5):
        raise ValueError(f"noise must lie in [0, 0.5], got {noise}")
    mask = np.asarray(mask, dtype=np.float32)
    base = 0.3 + 0.4 * mask
    if noise == 0.0:
        return base.astype(np.float32)
    rng = rng_from_key(seed, "image")
    raw = rng.uniform(-noise, noise, size=mask.shape)
    smooth = uniform_filter(raw, size=3, mode="nearest")
    return np.clip(base + smooth, 0.0, 1.0).astype(np.float32)


def make_sample(spec: DatasetSpec, index: int) -> Sample:
    sample_seed = derive_seed(spec.seed, index)
    rng = rng_from_key(spec.seed, "n_objects", index)
    n = int(rng.integers(spec.n_objects_min, spec.n_objects_max + 1))
    mask = gen_blob_mask(sample_seed, spec.size, n, spec.shapes)
    image = render_image(mask, sample_seed, spec.noise)
    return Sample(image=image, gt_mask=mask)


def generate_dataset(spec: DatasetSpec):
    return [make_sample(spec, i) for i in range(spec.count)]


def save_dataset(samples, spec: DatasetSpec, out_dir) -> None:
    """Directory layout: images/NNNN.pgm, masks/NNNN.pgm, spec.cfg."""
    img_dir = os.path.join(out_dir, "images")
    mask_dir = os.path.join(out_dir, "masks")
    os.makedirs(img_dir, exist_ok=True)
    os.makedirs(mask_dir, exist_ok=True)
    for i, sample in enumerate(samples):
        write_pgm(os.path.join(img_dir, f"{i:04d}.pgm"), sample.image)
        write_pgm(os.path.join(mask_dir, f"{i:04d}.pgm"), sample.gt_mask)
    with open(os.path.join(out_dir, "spec.cfg"), "w", encoding="utf-8") as f:
        f.write(format_kv(to_kv(spec)))


def load_dataset(data_dir):
    """Load (spec, samples) back."""
    spec = from_kv(DatasetSpec, parse_kv_file(os.path.join(data_dir, "spec.cfg")), "dataset spec")
    samples = []
    for i in range(spec.count):
        image = read_pgm(os.path.join(data_dir, "images", f"{i:04d}.pgm"))
        mask = read_pgm(os.path.join(data_dir, "masks", f"{i:04d}.pgm"))
        samples.append(Sample(image=image, gt_mask=mask))
    return spec, samples
