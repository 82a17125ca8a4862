import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakbox_kit import tensor as T
from weakbox_kit.boxes import (
    THRESHOLD,
    BoxCoords,
    Center,
    EmptyMaskError,
    backproject_max,
    backproject_min,
    batch_mask_to_box,
    box_coords,
    center_status,
    decide_branches,
    gt_box_mask,
    mask_to_box,
    min_gap_box,
    project,
    rasterize_box,
)
from weakbox_kit.metrics import confusion_counts, hd95
from weakbox_kit.pipeline import prompt_from_probability


def random_binary_mask(rng, max_side=32, ensure_fg=True):
    h = int(rng.integers(2, max_side + 1))
    w = int(rng.integers(2, max_side + 1))
    density = rng.uniform(0.05, 0.6)
    m = (rng.uniform(0, 1, (h, w)) < density).astype(np.float32)
    if ensure_fg and not m.any():
        m[rng.integers(h), rng.integers(w)] = 1.0
    return m


# --- oracles -----------------------------------------------------------------


def project_oracle(mask):
    h, w = mask.shape
    p_w = np.zeros(w, dtype=mask.dtype)
    p_h = np.zeros(h, dtype=mask.dtype)
    for i in range(h):
        for j in range(w):
            p_w[j] = max(p_w[j], mask[i, j])
            p_h[i] = max(p_h[i], mask[i, j])
    return p_w, p_h


def outer_product_oracle(mask):
    """Occupied-row/column indicator outer product (binary masks only)."""
    rows = (mask >= 0.5).any(axis=1).astype(mask.dtype)
    cols = (mask >= 0.5).any(axis=0).astype(mask.dtype)
    return np.outer(rows, cols)


def band_max_oracle(mask):
    p_w, p_h = project_oracle(mask)
    out = np.zeros_like(mask)
    for i in range(mask.shape[0]):
        for j in range(mask.shape[1]):
            out[i, j] = max(p_w[j], p_h[i])
    return out


def centroid_oracle(mask, threshold=0.5):
    rows, cols = [], []
    for i in range(mask.shape[0]):
        for j in range(mask.shape[1]):
            if mask[i, j] >= threshold:
                rows.append(i)
                cols.append(j)
    r = int(np.floor(sum(rows) / len(rows) + 0.5))
    c = int(np.floor(sum(cols) / len(cols) + 0.5))
    return r, c


def run_gaps_oracle(indicator):
    runs = []
    in_run = False
    for i, v in enumerate(indicator):
        if v and not in_run:
            runs.append([i, i])
            in_run = True
        elif v:
            runs[-1][1] = i
        else:
            in_run = False
    gaps = [runs[k + 1][0] - runs[k][1] - 1 for k in range(len(runs) - 1)]
    return min(gaps) if gaps else 0


# --- projection --------------------------------------------------------------


def test_project_example():
    g = np.array([[0, 1, 0], [0, 0, 0], [0, 1, 1]], dtype=np.float32)
    proj = project(g)
    assert proj.width_profile.tolist() == [0, 1, 1]
    assert proj.height_profile.tolist() == [1, 0, 1]


def test_project_zero_mask():
    proj = project(np.zeros((4, 5), dtype=np.float32))
    assert not proj.width_profile.any() and not proj.height_profile.any()


def test_project_matches_loop_oracle_soft():
    rng = np.random.default_rng(0)
    soft = rng.uniform(0, 1, (16, 16)).astype(np.float32)
    proj = project(soft)
    p_w, p_h = project_oracle(soft)
    assert np.array_equal(proj.width_profile, p_w)
    assert np.array_equal(proj.height_profile, p_h)


# --- min backprojection -------------------------------------------------------


def test_backproject_min_rectangle_fixed_point():
    g = np.zeros((4, 5), dtype=np.float32)
    g[1:3, 1:4] = 1.0
    assert np.array_equal(backproject_min(project(g)), g)


def test_backproject_min_l_shape():
    g = np.array([[1, 0, 0], [1, 1, 1], [0, 0, 0]], dtype=np.float32)
    expect = np.array([[1, 1, 1], [1, 1, 1], [0, 0, 0]], dtype=np.float32)
    assert np.array_equal(backproject_min(project(g)), expect)


def test_backproject_min_equals_outer_product_oracle():
    rng = np.random.default_rng(1)
    for _ in range(300):
        m = random_binary_mask(rng)
        assert np.array_equal(backproject_min(project(m)), outer_product_oracle(m))


def test_backproject_min_tensor_path_matches_numpy():
    rng = np.random.default_rng(2)
    m = rng.uniform(0, 1, (9, 7)).astype(np.float32)
    t = T.Tensor(m, requires_grad=True)
    out_t = backproject_min(project(t))
    out_n = backproject_min(project(m))
    assert np.array_equal(out_t.data, out_n)
    T.backward(T.tsum(out_t))
    assert t.grad is not None and t.grad.shape == m.shape


# --- center status ------------------------------------------------------------


def test_center_status_solid_square():
    g = np.zeros((9, 9), dtype=np.float32)
    g[3:6, 3:6] = 1.0
    cs = center_status(g)
    assert cs.status is Center.FOREGROUND
    assert cs.centroid == (4, 4)


def test_center_status_two_corner_blobs_background():
    g = np.zeros((16, 16), dtype=np.float32)
    g[1:4, 1:4] = 1.0
    g[12:15, 12:15] = 1.0
    cs = center_status(g)
    assert cs.centroid == centroid_oracle(g)
    assert cs.status is Center.BACKGROUND


def test_center_status_annulus_background():
    g = np.zeros((15, 15), dtype=np.float32)
    rr, cc = np.meshgrid(np.arange(15), np.arange(15), indexing="ij")
    d = np.hypot(rr - 7, cc - 7)
    g[(d >= 4) & (d <= 6)] = 1.0
    cs = center_status(g)
    assert cs.centroid == centroid_oracle(g)
    assert cs.status is Center.BACKGROUND


def test_center_status_empty_raises():
    with pytest.raises(EmptyMaskError, match="no foreground"):
        center_status(np.zeros((4, 4), dtype=np.float32))


# --- band union / gap box -------------------------------------------------------


def test_backproject_max_solid_rectangle_bands():
    g = np.zeros((5, 6), dtype=np.float32)
    g[1:3, 2:5] = 1.0
    out = backproject_max(project(g))
    expect = np.zeros((5, 6), dtype=np.float32)
    expect[1:3, :] = 1.0
    expect[:, 2:5] = 1.0
    assert np.array_equal(out, expect)


def test_backproject_max_zero_mask():
    assert not backproject_max(project(np.zeros((4, 4), dtype=np.float32))).any()


def test_backproject_max_matches_elementwise_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = random_binary_mask(rng)
        assert np.array_equal(backproject_max(project(m)), band_max_oracle(m))


def test_min_gap_example_rows():
    g = np.zeros((8, 4), dtype=np.float32)
    g[0:2, 0] = 1.0
    g[5:7, 0] = 1.0
    occupied = (g >= 0.5).any(axis=1)
    assert run_gaps_oracle(occupied) == 3
    box = min_gap_box(g, (3, 1))
    # single column run means d_w = 0: empty gap box
    assert not box.any()


def test_min_gap_single_run_empty():
    g = np.zeros((6, 6), dtype=np.float32)
    g[2:5, 1:4] = 1.0
    assert not min_gap_box(g, (3, 2)).any()


def test_min_gap_two_corner_blobs_matches_oracle():
    g = np.zeros((12, 12), dtype=np.float32)
    g[0:3, 0:3] = 1.0
    g[8:12, 8:12] = 1.0
    cs = center_status(g)
    d_h = run_gaps_oracle((g >= 0.5).any(axis=1))
    d_w = run_gaps_oracle((g >= 0.5).any(axis=0))
    assert (d_h, d_w) == (5, 5)
    box = min_gap_box(g, cs.centroid)
    r, c = cs.centroid
    expect = np.zeros_like(g)
    expect[r - 2 : r + 3, c - 2 : c + 3] = 1.0
    assert np.array_equal(box, expect)


# --- full transform -------------------------------------------------------------


def test_mask_to_box_solid_rectangle():
    g = np.zeros((6, 7), dtype=np.float32)
    g[2:4, 1:5] = 1.0
    box, status = mask_to_box(g)
    assert status.status is Center.FOREGROUND
    assert np.array_equal(box, g)


def test_mask_to_box_two_corner_blobs_composed_oracle():
    g = np.zeros((12, 12), dtype=np.float32)
    g[0:3, 0:3] = 1.0
    g[8:12, 8:12] = 1.0
    box, status = mask_to_box(g)
    assert status.status is Center.BACKGROUND
    expect = np.clip(band_max_oracle(g) - min_gap_box(g, status.centroid), 0.0, 1.0)
    assert np.array_equal(box, expect)


def test_foreground_transform_idempotent_on_dispatched_output():
    # the foreground-path transform is idempotent on any output it produced;
    # the full dispatcher may legally re-route a banded output to the
    # background path, so idempotence is asserted on the transform itself
    rng = np.random.default_rng(4)
    count = 0
    for _ in range(200):
        m = random_binary_mask(rng)
        box, status = mask_to_box(m)
        if status.status is not Center.FOREGROUND:
            continue
        count += 1
        assert np.array_equal(backproject_min(project(box)), box)
    assert count > 50


def test_mask_to_box_idempotent_on_solid_rectangle():
    g = np.zeros((7, 9), dtype=np.float32)
    g[2:5, 3:8] = 1.0
    box1, st1 = mask_to_box(g)
    box2, st2 = mask_to_box(box1)
    assert st1.status is st2.status is Center.FOREGROUND
    assert np.array_equal(box1, box2)


def test_batch_mask_to_box_matches_mask_to_box_per_plane():
    # a stack mixing foreground-, background-centered and empty masks: every
    # plane gets what mask_to_box gives it alone, and an empty plane the
    # foreground path
    rng = np.random.default_rng(6)
    two_blobs = np.zeros((12, 12), dtype=np.float32)
    two_blobs[0:3, 0:3] = 1.0
    two_blobs[8:12, 8:12] = 1.0
    empty = rng.uniform(0.0, 0.4, (12, 12)).astype(np.float32)
    sparse = [(rng.uniform(0, 1, (12, 12)) < d).astype(np.float32) for d in (0.03, 0.1, 0.2, 0.4)]
    stack = np.stack([two_blobs, empty] + sparse) * rng.uniform(0.5, 1.0, (6, 12, 12)).astype(np.float32)
    box, foreground = batch_mask_to_box(T.Tensor(stack))
    assert foreground.tolist()[:2] == [False, True]
    for b, plane in enumerate(stack):
        try:
            want, status = mask_to_box(plane)
            assert foreground[b] == (status.status is Center.FOREGROUND)
        except EmptyMaskError:
            want = backproject_min(project(plane))
            assert foreground[b]
        assert np.array_equal(box.data[b], want), b


def test_project_stack_is_per_plane():
    stack = np.random.default_rng(7).uniform(0, 1, (3, 5, 4)).astype(np.float32)
    pw, ph = project(T.Tensor(stack))
    for b in range(3):
        w_b, h_b = project(stack[b])
        assert np.array_equal(pw.data[b], w_b) and np.array_equal(ph.data[b], h_b)
    assert np.array_equal(backproject_max(project(stack))[1], backproject_max(project(stack[1])))
    with pytest.raises(T.ShapeError):
        project(np.zeros((2, 2, 2, 2), dtype=np.float32))


# --- coords and rasterization ----------------------------------------------------


def test_box_coords_rectangle():
    g = np.zeros((5, 6), dtype=np.float32)
    g[1:3, 0:4] = 1.0
    assert box_coords(g) == BoxCoords(1, 0, 2, 3)


def test_box_coords_single_pixel():
    g = np.zeros((8, 8), dtype=np.float32)
    g[5, 7] = 1.0
    assert box_coords(g) == BoxCoords(5, 7, 5, 7)


def test_box_coords_matches_extremal_scan():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = random_binary_mask(rng)
        rows, cols = np.nonzero(m >= 0.5)
        assert box_coords(m) == BoxCoords(rows.min(), cols.min(), rows.max(), cols.max())


def test_box_coords_empty_raises():
    with pytest.raises(EmptyMaskError):
        box_coords(np.zeros((3, 3), dtype=np.float32))


def test_rasterize_box_out_of_bounds():
    with pytest.raises(ValueError):
        rasterize_box(BoxCoords(0, 0, 4, 4), 4, 4, np.float32)


def test_gt_box_mask_rectangle_is_fixed_point():
    g = np.zeros((6, 6), dtype=np.float32)
    g[1:4, 2:5] = 1.0
    assert np.array_equal(gt_box_mask(g), g)


def test_gt_box_mask_diagonal():
    g = np.eye(4, dtype=np.float32)
    assert np.array_equal(gt_box_mask(g), np.ones((4, 4), dtype=np.float32))


def test_gt_box_mask_empty_raises():
    with pytest.raises(EmptyMaskError):
        gt_box_mask(np.zeros((4, 4), dtype=np.float32))


# --- algebraic properties (hypothesis) --------------------------------------------


@st.composite
def binary_masks(draw, max_side=16):
    h = draw(st.integers(2, max_side))
    w = draw(st.integers(2, max_side))
    bits = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    m = np.array(bits, dtype=np.float32).reshape(h, w)
    if not m.any():
        m[h // 2, w // 2] = 1.0
    return m


@given(binary_masks())
@settings(max_examples=120, deadline=None)
def test_property_foreground_coverage(m):
    t1 = backproject_min(project(m))
    assert np.all(m <= t1)


@given(binary_masks())
@settings(max_examples=120, deadline=None)
def test_property_idempotence(m):
    t1 = backproject_min(project(m))
    assert np.array_equal(backproject_min(project(t1)), t1)


@given(binary_masks())
@settings(max_examples=120, deadline=None)
def test_property_monotonicity(m):
    rng = np.random.default_rng(int(m.sum()) + m.shape[0])
    q = np.clip(m + (rng.uniform(0, 1, m.shape) < 0.15), 0, 1).astype(np.float32)
    ta = backproject_min(project(m))
    tb = backproject_min(project(q))
    assert np.all(ta <= tb)


@given(binary_masks(), st.floats(0.05, 0.95))
@settings(max_examples=120, deadline=None)
def test_property_threshold_commutation(m, t):
    rng = np.random.default_rng(m.shape[0] * 31 + m.shape[1])
    soft = np.where(m > 0, rng.uniform(0.5, 1.0, m.shape), rng.uniform(0.0, 0.45, m.shape)).astype(np.float32)
    left = backproject_min(project((soft >= t).astype(np.float32)))
    right = (backproject_min(project(soft)) >= t).astype(np.float32)
    assert np.array_equal(left, right)


def test_single_connected_object_equals_tight_box():
    g = np.zeros((10, 10), dtype=np.float32)
    g[2:7, 3:6] = 1.0
    g[4, 6] = 1.0  # bump on the side, still axis-connected
    t1 = backproject_min(project(g))
    assert np.array_equal(t1, gt_box_mask(g))


def test_threshold_boundary_is_foreground():
    # one rule everywhere: a pixel at exactly THRESHOLD is foreground, one
    # float32 ulp below it is not
    below = np.nextafter(np.float32(THRESHOLD), np.float32(0.0))
    blob, faint = np.zeros((5, 5), dtype=np.float32), np.zeros((5, 5), dtype=np.float32)
    blob[1:3, 2:4], faint[1:3, 2:4] = THRESHOLD, below
    status = center_status(blob)
    assert status.status is Center.FOREGROUND and status.centroid == (2, 3)
    assert box_coords(blob) == BoxCoords(1, 2, 2, 3)
    assert prompt_from_probability(blob) == BoxCoords(1, 2, 2, 3)
    assert np.array_equal(gt_box_mask(blob), (blob > 0).astype(np.float32))
    for empty in (center_status, box_coords, gt_box_mask):
        with pytest.raises(EmptyMaskError):
            empty(faint)
    assert prompt_from_probability(faint) is None

    # two corner pixels centre the mask on background; one ulp below, the
    # mask is empty and takes the foreground path
    pair = np.zeros((2, 5, 5), dtype=np.float32)
    pair[0, 0, 0] = pair[0, 4, 4] = THRESHOLD
    pair[1, 0, 0] = pair[1, 4, 4] = below
    foreground, gaps = decide_branches(pair)
    assert foreground.tolist() == [False, True]
    assert gaps[0].sum() == 9.0 and not gaps[1].any()

    assert confusion_counts(blob, blob).tp == 4
    counts = confusion_counts(faint, blob)
    assert (counts.tp, counts.fn) == (0, 4)
    assert hd95(blob, blob) == 0.0
    with pytest.raises(EmptyMaskError):
        hd95(faint, blob)
