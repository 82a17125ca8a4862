import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakbox_kit.boxes import EmptyMaskError
from weakbox_kit.metrics import ConfusionCounts, acc_sen_spe, confusion_counts, dsc_miou, hd95, nearest_distances


def confusion_oracle(pred, gt, threshold=0.5):
    tp = fp = fn = tn = 0
    for p, g in zip(pred.ravel(), gt.ravel()):
        pb, gb = p >= threshold, g >= threshold
        if pb and gb:
            tp += 1
        elif pb:
            fp += 1
        elif gb:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def hd95_oracle(pred, gt, threshold=0.5):
    """Brute-force all-pairs nearest neighbor + interpolated 95th percentile."""
    a = np.argwhere(pred >= threshold).astype(np.float64)
    b = np.argwhere(gt >= threshold).astype(np.float64)
    d_ab = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)).min(axis=1)
    d_ba = np.sqrt(((b[:, None, :] - a[None, :, :]) ** 2).sum(-1)).min(axis=1)
    return max(np.percentile(d_ab, 95, method="linear"), np.percentile(d_ba, 95, method="linear"))


def random_mask(rng, max_side=24):
    h = int(rng.integers(4, max_side))
    w = int(rng.integers(4, max_side))
    m = (rng.uniform(0, 1, (h, w)) < rng.uniform(0.1, 0.5)).astype(np.float32)
    if not m.any():
        m[h // 2, w // 2] = 1.0
    return m


def test_confusion_perfect():
    rng = np.random.default_rng(0)
    m = random_mask(rng)
    c = confusion_counts(m, m)
    assert c.fp == 0 and c.fn == 0
    assert c.tp + c.tn == m.size


def test_confusion_inverted():
    rng = np.random.default_rng(1)
    m = random_mask(rng)
    c = confusion_counts(1.0 - m, m)
    assert c.tp == 0 and c.tn == 0


def test_confusion_matches_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        pred = rng.uniform(0, 1, (9, 11)).astype(np.float32)
        gt = rng.uniform(0, 1, (9, 11)).astype(np.float32)
        c = confusion_counts(pred, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == confusion_oracle(pred, gt)


def test_confusion_shape_mismatch():
    with pytest.raises(ValueError):
        confusion_counts(np.zeros((2, 2)), np.zeros((3, 3)))


def test_dsc_miou_example():
    dsc, iou_fg, miou = dsc_miou(ConfusionCounts(tp=6, fp=2, fn=2, tn=6))
    assert dsc == 0.75
    assert iou_fg == 0.6
    assert miou == (0.6 + 0.6) / 2


def test_dsc_miou_perfect():
    assert dsc_miou(ConfusionCounts(tp=10, fp=0, fn=0, tn=20)) == (1.0, 1.0, 1.0)


def test_dsc_miou_empty_vs_empty():
    dsc, iou_fg, miou = dsc_miou(ConfusionCounts(tp=0, fp=0, fn=0, tn=16))
    assert dsc == 1.0 and iou_fg == 1.0 and miou == 1.0


def test_formula_recomputation_random_counts():
    rng = np.random.default_rng(3)
    for _ in range(200):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 50, 4))
        c = ConfusionCounts(tp, fp, fn, tn)
        dsc, iou_fg, miou = dsc_miou(c)
        if 2 * tp + fp + fn:
            assert dsc == 2 * tp / (2 * tp + fp + fn)
        if tp + fp + fn:
            assert iou_fg == tp / (tp + fp + fn)
        acc, sen, spe = acc_sen_spe(c)
        if c.total:
            assert acc == (tp + tn) / c.total
        if tp + fn:
            assert sen == tp / (tp + fn)
        if tn + fp:
            assert spe == tn / (tn + fp)


def test_dsc_iou_algebraic_identity():
    rng = np.random.default_rng(4)
    for _ in range(200):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 40, 4))
        dsc, iou_fg, _ = dsc_miou(ConfusionCounts(tp, fp, fn, tn))
        assert abs(dsc - 2 * iou_fg / (1 + iou_fg)) < 1e-12


def test_acc_sen_spe_perfect():
    assert acc_sen_spe(ConfusionCounts(tp=5, fp=0, fn=0, tn=11)) == (1.0, 1.0, 1.0)


def test_sen_zero_for_all_background_prediction():
    gt = np.zeros((4, 4), dtype=np.float32)
    gt[1:3, 1:3] = 1.0
    c = confusion_counts(np.zeros((4, 4), dtype=np.float32), gt)
    _, sen, _ = acc_sen_spe(c)
    assert sen == 0.0


def test_hd95_identical_masks():
    rng = np.random.default_rng(5)
    m = random_mask(rng)
    assert hd95(m, m) == 0.0


def test_hd95_three_four_five():
    a = np.zeros((8, 8), dtype=np.float32)
    b = np.zeros((8, 8), dtype=np.float32)
    a[0, 0] = 1.0
    b[3, 4] = 1.0
    assert hd95(a, b) == 5.0


def test_hd95_matches_brute_force_oracle():
    rng = np.random.default_rng(6)
    for _ in range(60):
        pred = random_mask(rng)
        gt = (rng.uniform(0, 1, pred.shape) < 0.3).astype(np.float32)
        if not gt.any():
            gt[0, 0] = 1.0
        assert abs(hd95(pred, gt) - hd95_oracle(pred, gt)) <= 1e-9


def test_hd95_equals_all_pairs_oracle_exactly():
    rng = np.random.default_rng(8)
    pairs = []
    for _ in range(150):
        h, w = (int(v) for v in rng.integers(1, 33, 2))
        pairs.append(tuple((rng.uniform(0, 1, (h, w)) < rng.uniform(0.02, 0.6)).astype(np.float32) for _ in range(2)))
    single = np.zeros((9, 11), dtype=np.float32)
    single[4, 6] = 1.0
    outer = np.zeros((16, 16), dtype=np.float32)
    outer[2:14, 3:15] = 1.0
    inner = np.zeros_like(outer)
    inner[6:9, 7:11] = 1.0
    far = np.zeros_like(outer)
    far[13:16, 0:2] = 1.0
    pairs += [(single, single), (single, np.roll(single, 3, axis=1)), (outer, inner), (inner, far), (outer, far)]
    # masks on the border and in the corners, and far-apart blobs in a large grid
    corner = np.zeros((40, 40), dtype=np.float32)
    corner[0, 0] = 1.0
    opposite = np.zeros_like(corner)
    opposite[37:, 36:] = 1.0
    top = np.zeros_like(corner)
    top[0, :] = 1.0
    right = np.zeros_like(corner)
    right[5:30, -1] = 1.0
    blobs = np.zeros((64, 64), dtype=np.float32)
    blobs[5:8, 50:54] = 1.0
    blobs[58:62, 3:6] = 1.0
    blob = np.zeros_like(blobs)
    blob[30:33, 20:31] = 1.0
    pairs += [(corner, opposite), (corner, top), (top, right), (opposite, right), (blobs, blob), (blob, blobs), (blobs, np.roll(blobs, 2, axis=0))]
    for pred, gt in pairs:
        if pred.any() and gt.any():
            assert hd95(pred, gt) == hd95_oracle(pred, gt)


def test_nearest_distances_equal_distance_transform_edt_exactly():
    from scipy.ndimage import distance_transform_edt

    rng = np.random.default_rng(12)
    pairs = []
    for k in range(600):
        h, w = (int(v) for v in rng.integers(1, 48, 2))
        a = rng.uniform(0, 1, (h, w)) < rng.uniform(0.01, 0.6)
        b = rng.uniform(0, 1, (h, w)) < rng.uniform(0.01, 0.6)
        if k % 3 == 0:
            b &= ~a  # disjoint sets
        pairs.append((a, b))
    one = np.zeros((9, 11), dtype=bool)
    one[4, 6] = True
    other = np.zeros_like(one)
    other[0, 10] = True
    left = np.zeros((20, 30), dtype=bool)
    left[2:18, 0:3] = True
    right = np.zeros_like(left)
    right[5:9, 27:] = True
    pairs += [(one, one), (one, other), (other, one), (left, right), (right, left)]
    checked = 0
    for a, b in pairs:
        if a.any() and b.any():
            got = nearest_distances(a, b)
            assert got.tobytes() == distance_transform_edt(~b)[a].tobytes()
            checked += 1
    assert checked > 500
    with pytest.raises(EmptyMaskError):
        nearest_distances(one, np.zeros_like(one))


def test_nearest_distances_block_boundaries():
    # more source pixels than one block holds against the target rows
    a = np.ones((300, 300), dtype=bool)
    b = np.zeros_like(a)
    b[::7, 5] = True
    b[150, 290] = True
    r, c = np.nonzero(a)
    rows, cols = np.nonzero(b)
    want = np.sqrt(((r[:, None] - rows) ** 2 + (c[:, None] - cols) ** 2).min(axis=1))
    assert np.array_equal(nearest_distances(a, b), want)


def test_hd95_symmetry_and_translation():
    rng = np.random.default_rng(7)
    a = np.zeros((20, 20), dtype=np.float32)
    b = np.zeros((20, 20), dtype=np.float32)
    a[3:7, 4:9] = 1.0
    b[5:8, 6:12] = 1.0
    assert hd95(a, b) == hd95(b, a)
    shift = np.roll(np.roll(a, 3, axis=0), 2, axis=1), np.roll(np.roll(b, 3, axis=0), 2, axis=1)
    assert abs(hd95(a, b) - hd95(*shift)) < 1e-12


def test_hd95_empty_raises():
    m = np.zeros((5, 5), dtype=np.float32)
    full = np.ones((5, 5), dtype=np.float32)
    with pytest.raises(EmptyMaskError, match="undefined HD95"):
        hd95(m, full)


@given(st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_property_metric_ranges(seed):
    rng = np.random.default_rng(seed)
    pred = random_mask(rng, max_side=16)
    gt = (rng.uniform(0, 1, pred.shape) < 0.4).astype(np.float32)
    if not gt.any():
        gt[0, 0] = 1.0
    c = confusion_counts(pred, gt)
    dsc, iou_fg, miou = dsc_miou(c)
    acc, sen, spe = acc_sen_spe(c)
    for v in (dsc, iou_fg, miou, acc, sen, spe):
        assert 0.0 <= v <= 1.0
    h = hd95(pred, gt)
    assert 0.0 <= h <= float(np.hypot(*pred.shape))
