"""Output checks computed apart from the program.

Plain numpy only: nothing here imports weakbox_kit, so a fault in the
program cannot also hide in its check. Every check returns
`(name, ok, detail)`; a run is correct when every check it made is ok.
"""

import hashlib
import math

import numpy as np


def finite(name, values):
    bad = [v for v in values if not math.isfinite(v)]
    return name, bool(values) and not bad, f"{len(values)} values, {len(bad)} non-finite"


def loss_falls(losses, window):
    """The mean loss of the last `window` steps is below that of the first."""
    head = float(np.mean(losses[:window]))
    tail = float(np.mean(losses[-window:]))
    return "loss_falls", tail < head, f"first {window} steps {head:.6f} -> last {window} steps {tail:.6f}"


def dice(pred, gt, threshold=0.5):
    """Dice of two thresholded grids; two empty grids agree perfectly."""
    p = np.asarray(pred) >= threshold
    g = np.asarray(gt) >= threshold
    size = int(p.sum()) + int(g.sum())
    return 1.0 if size == 0 else 2.0 * int((p & g).sum()) / size


def mean_dice(preds, gts):
    return float(np.mean([dice(p, g) for p, g in zip(preds, gts)]))


def beats(name, better, worse):
    return name, better > worse, f"{better:.4f} vs {worse:.4f}"


def direct_counts(pred, gt, threshold=0.5):
    """(tp, fp, fn, tn) by binning every pixel on its (pred, gt) code."""
    code = 2 * (np.asarray(pred) >= threshold).astype(np.int64) + (np.asarray(gt) >= threshold)
    tn, fn, fp, tp = np.bincount(code.ravel(), minlength=4)
    return int(tp), int(fp), int(fn), int(tn)


def _nearest(src, dst, chunk=256):
    out = np.empty(len(src))
    for lo in range(0, len(src), chunk):
        diff = src[lo : lo + chunk, None, :] - dst[None, :, :]
        out[lo : lo + chunk] = np.sqrt((diff * diff).sum(axis=-1)).min(axis=1)
    return out


def _percentile_95(values):
    s = np.sort(values)
    pos = 0.95 * (len(s) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (pos - lo) * (s[hi] - s[lo])


def brute_hd95(pred, gt, threshold=0.5):
    """HD95 from all-pairs distances; None when either set is empty."""
    a = np.argwhere(np.asarray(pred) >= threshold).astype(np.float64)
    b = np.argwhere(np.asarray(gt) >= threshold).astype(np.float64)
    if len(a) == 0 or len(b) == 0:
        return None
    return float(max(_percentile_95(_nearest(a, b)), _percentile_95(_nearest(b, a))))


def infer_record(rec, shape):
    """Problems with one inference output summary (empty list when sound).

    `rec` holds the output's min, max and shape, the prompt box as
    (row_min, col_min, row_max, col_max) or None, and the program's hd95
    (None when it reported an empty mask) and confusion counts.
    """
    problems = []
    if tuple(rec["shape"]) != tuple(shape):
        problems.append(f"output shape {rec['shape']} != {shape}")
    if not (0.0 <= rec["min"] and rec["max"] <= 1.0):
        problems.append(f"output range [{rec['min']}, {rec['max']}] not in [0, 1]")
    box = rec["prompt"]
    h, w = shape[-2:]
    if box is not None and not (0 <= box[0] <= box[2] < h and 0 <= box[1] <= box[3] < w):
        problems.append(f"prompt box {box} outside the {h}x{w} image")
    return problems


def infer_scores(pred, gt, hd, counts):
    """Problems with the program's scores of one prediction against brute force."""
    problems = []
    want_counts = direct_counts(pred, gt)
    if tuple(counts) != want_counts:
        problems.append(f"confusion counts {tuple(counts)} != direct {want_counts}")
    want_hd = brute_hd95(pred, gt)
    if (hd is None) != (want_hd is None) or (hd is not None and abs(hd - want_hd) > 1e-9):
        problems.append(f"hd95 {hd} != all-pairs {want_hd}")
    return problems


def infer_outputs(records, first_round, shape):
    """Every output summary is sound, every first-round prediction scores as
    brute force does, and later rounds repeat the first round's scores.

    `first_round` lists (pred, gt) for the first len(first_round) records;
    record k is for image k % len(first_round).
    """
    problems = []
    for k, rec in enumerate(records):
        problems += [f"op {k}: {p}" for p in infer_record(rec, shape)]
        ref = records[k % len(first_round)]
        if (rec["hd95"], rec["counts"]) != (ref["hd95"], ref["counts"]):
            problems.append(f"op {k}: scores differ from the first round")
    for k, (pred, gt) in enumerate(first_round):
        problems += [f"image {k}: {p}" for p in infer_scores(pred, gt, records[k]["hd95"], records[k]["counts"])]
    detail = f"{len(records)} outputs, {len(first_round)} scored by brute force"
    return "infer_outputs", not problems, detail + ("" if not problems else "; " + "; ".join(problems[:3]))


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]
