"""Two-phase training, evaluation, and inference.

Phase one trains the residual refiner on a small labeled split against
degraded copies of real masks. Phase two is box-supervised: per step the
model predicts, its prediction is turned into a box prompt by the centroid
rule (`prompt_from_probability`, no box transform), and the prompted
two-scale predictions are optimized against the weak box label (mask-to-box
loss from `batch_mask_to_box` plus in-box scale consistency). Real mask
pixels never reach the weak loss path; only their bounding boxes do.

All randomness is keyed by (seed, stream, epoch, index), so runs are
reproducible and checkpoint resume is bit-identical to a straight run.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .boxes import THRESHOLD, BoxCoords, Center, EmptyMaskError, batch_mask_to_box, box_coords, center_status, gt_box_mask
from .boxes import mask_to_box  # noqa: F401  perfbench/tracing.py patches this name here
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import RunConfig
from .losses import branch_loss, detail_refine_loss, mm2b_loss, sc_loss
from .metrics import acc_sen_spe, confusion_counts, dsc_miou, hd95
from .nets import NetConfig, detail_refine_forward, init_params, init_refiner, scale_one_forward, two_scale_forward
from .nets import single_scale_forward  # noqa: F401  perfbench/tracing.py patches this name here
from .optim import make_optimizer
from .reports import FIELDS, MetricsRow
from .synth import load_dataset, mean_filter, rng_from_key


class NumericError(RuntimeError):
    """Training hit a non-finite loss."""


def net_config(cfg: RunConfig) -> NetConfig:
    return NetConfig(scale_pair=(cfg.scale1, cfg.scale2), use_cnn_gate=cfg.use_cnn_gate)


def split_dataset(samples, holdout_fraction):
    """Deterministic split: the trailing fraction is held out."""
    n = len(samples)
    n_hold = int(round(holdout_fraction * n))
    n_hold = min(n_hold, n - 1)
    return samples[: n - n_hold], samples[n - n_hold :]


def augment_pair(image, mask, rng):
    """Shared flip / 90-degree rotation for an (image, mask) pair."""
    k = int(rng.integers(4))
    if k:
        image = np.rot90(image, k)
        mask = np.rot90(mask, k)
    if rng.integers(2):
        image = np.flip(image, axis=0)
        mask = np.flip(mask, axis=0)
    if rng.integers(2):
        image = np.flip(image, axis=1)
        mask = np.flip(mask, axis=1)
    return np.ascontiguousarray(image), np.ascontiguousarray(mask)


def prompt_from_probability(prob_plane_np):
    """Box prompt coordinates of a prediction plane, None when it is empty."""
    try:
        status = center_status(prob_plane_np)
    except EmptyMaskError:
        return None
    if status.status is Center.FOREGROUND:
        return box_coords(prob_plane_np)
    # The centroid rule: these are box_coords(mask_to_box(p)) without the transform. On the background branch every
    # occupied row band spans all columns and every occupied column band all rows; the gap rectangle is empty unless
    # both axes have two or more runs, and then it is narrower than the outermost runs' spread on each axis, so it
    # never clears a border row or column and the box is the full grid.
    return BoxCoords(0, 0, prob_plane_np.shape[0] - 1, prob_plane_np.shape[1] - 1)


def weak_loss(prob_a, prob_b_up, weak_boxes, cfg):
    """Box-supervised loss of one batch of (B, 1, H, W) two-scale predictions
    against the weak boxes (at scale1 frame), averaged over the batch.

    Both scales are stacked into one (2B, H, W) batch against the tiled boxes,
    so the box transform and the box loss run once; a sample's box term is the
    mean of its two scales' terms.
    """
    n, _, h, w = prob_a.data.shape
    p_a = T.reshape(prob_a, (n, h, w))
    p_b = T.reshape(prob_b_up, (n, h, w))
    weak = np.stack(weak_boxes)
    both = T.concat([p_a, p_b], axis=0)
    weak2 = np.concatenate([weak, weak])
    if cfg.supervision == "fullbox":
        # naive baseline: pretend the box mask is the segmentation target
        l_box = branch_loss(both, weak2, cfg)
    else:
        box, foreground = batch_mask_to_box(both)
        l_box = mm2b_loss(box, weak2, foreground, cfg)
    l_sc = T.tmean(sc_loss(p_a, p_b, weak)) if cfg.use_sc else T.Tensor(0.0, dtype=np.float32)
    return T.add(T.tmean(l_box), l_sc)


def weak_batch_loss(params, images_np, weak_boxes, cfg):
    """Box-supervised training-mode loss over one batch; weak_boxes are at scale1 frame."""
    x = T.Tensor(images_np, dtype=np.float32)
    out = two_scale_forward(params, x, prompt_from_probability, True, net_config(cfg))
    return weak_loss(out.prob_a, out.prob_b_up, weak_boxes, cfg)


def refine_loss(prob, gt, cfg):
    """The refine phase's objective: the refine loss of (N, H, W) refined
    probabilities against real masks, averaged over the batch."""
    return T.tmean(detail_refine_loss(prob, gt, cfg))


def _check_scale1(shape, scale1):
    if shape[0] != scale1:
        raise ValueError(f"dataset size {shape} does not match scale1 {scale1}; set scale1 to the dataset size")


def _augmented(sample, cfg, stream, epoch, idx):
    """A training sample's (image, mask), with the keyed flip/rotate draw of
    its epoch."""
    return augment_pair(sample.image, sample.gt_mask, rng_from_key(cfg.seed, stream, epoch, int(idx)))


def _weak_box(mask, idx):
    """gt_box_mask of dataset sample `idx`; an empty mask is named by its file."""
    try:
        return gt_box_mask(mask)
    except EmptyMaskError as exc:
        raise EmptyMaskError(f"sample {idx} (masks/{idx:04d}.pgm): {exc}") from None


def _batch_arrays(samples, indices, cfg, epoch):
    images, weaks = [], []
    for idx in indices:
        image, mask = _augmented(samples[idx], cfg, "aug", epoch, idx)
        # the weak path only ever sees the tight box of the mask
        weak = _weak_box(mask, idx)
        _check_scale1(weak.shape, cfg.scale1)
        images.append(image[None])
        weaks.append(weak.astype(np.float32))
    return np.stack(images).astype(np.float32), weaks


@dataclass
class TrainResult:
    params: object
    epoch_losses: list
    checkpoint_path: str


def _train_split(cfg, phase):
    """The training split of the dataset, for a valid config of the given phase."""
    cfg.validate()
    if cfg.phase != phase:
        raise ValueError(f"train_{phase} needs phase = {phase}, config says {cfg.phase!r}")
    _, samples = load_dataset(cfg.dataset_dir)
    return split_dataset(samples, cfg.holdout_fraction)[0]


def _fit(cfg, params, optimizer, items, stream, batch_loss, start_epoch=0):
    """The epoch loop both phases share. Each epoch visits `items` in the
    order keyed by (seed, stream, epoch) and takes one optimizer step per
    batch on `batch_loss(picked_items, epoch)`; a non-finite loss raises
    NumericError. Returns the mean loss of each epoch."""
    losses = []
    for epoch in range(start_epoch, cfg.epochs):
        order = rng_from_key(cfg.seed, stream, epoch).permutation(len(items))
        epoch_sum, n_batches = 0.0, 0
        for lo in range(0, len(items), cfg.batch_size):
            loss = batch_loss([items[i] for i in order[lo : lo + cfg.batch_size]], epoch)
            value = loss.item()
            if not math.isfinite(value):
                raise NumericError(f"non-finite {cfg.phase} loss at epoch {epoch}, batch {n_batches} (lr={cfg.learning_rate})")
            params.zero_grad()
            T.backward(loss)
            optimizer.step()
            epoch_sum += value
            n_batches += 1
        losses.append(epoch_sum / n_batches)
    return losses


def _result(cfg, params, optimizer, losses):
    """The run's result; saves the checkpoint when checkpoint_out is set."""
    path = cfg.checkpoint_out
    if path:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        save_checkpoint(path, params, optimizer.kind, optimizer.state_dict(), seed=cfg.seed, epoch=cfg.epochs)
    return TrainResult(params=params, epoch_losses=losses, checkpoint_path=path)


def train_weak(cfg: RunConfig) -> TrainResult:
    """Box-supervised phase; resumes from checkpoint_in when set, up to a
    checkpoint epoch no later than cfg.epochs. Either way the model is
    assembled by _model_params."""
    train_samples = _train_split(cfg, "weak")

    ck = load_checkpoint(cfg.checkpoint_in) if cfg.checkpoint_in else None
    if ck is not None:
        if ck.epoch > cfg.epochs:
            raise ValueError(f"checkpoint_in is at epoch {ck.epoch}, past epochs = {cfg.epochs}; a resume cannot train fewer epochs than its checkpoint holds")
    params = _model_params(ck.build_params() if ck else init_params(cfg.seed, net_config(cfg), include_refine=False), cfg)
    optimizer = make_optimizer(params, cfg.learning_rate)
    if ck is not None:
        if ck.optimizer_kind not in ("none", optimizer.kind):
            raise ValueError(f"checkpoint_in holds {ck.optimizer_kind!r} optimizer state; a resume needs {optimizer.kind!r} or 'none'")
        optimizer.load_state_dict(ck.optimizer_state)

    def batch_loss(indices, epoch):
        images, weaks = _batch_arrays(train_samples, indices, cfg, epoch)
        return weak_batch_loss(params, images, weaks, cfg)

    losses = _fit(cfg, params, optimizer, range(len(train_samples)), "shuffle", batch_loss, ck.epoch if ck else 0)
    return _result(cfg, params, optimizer, losses)


def degrade_mask(gt_mask, rng):
    """Soft degraded copy of a mask: blur, small shift, correlated noise."""
    size = int(rng.integers(3, 6)) | 1  # 3 or 5
    soft = mean_filter(gt_mask, size)
    soft = np.roll(soft, (int(rng.integers(-2, 3)), int(rng.integers(-2, 3))), axis=(0, 1))
    noise = mean_filter(rng.uniform(-1.0, 1.0, gt_mask.shape), 3) * 0.35
    return np.clip(soft + noise, 0.02, 0.98).astype(np.float32)


def _logit(q):
    return np.log(q / (1.0 - q)).astype(np.float32)


def refine_subset_indices(n_train, fraction, seed):
    k = max(1, math.ceil(fraction * n_train))
    order = rng_from_key(seed, "refine_subset").permutation(n_train)
    return sorted(int(i) for i in order[:k])


def train_refine(cfg: RunConfig) -> TrainResult:
    """Refiner phase on the labeled fraction of the training split.

    Coarse inputs are degraded copies of the real masks (logit domain); the
    model and its checkpoint hold the refiner alone, flagged frozen. The phase
    always starts from init: it cannot resume from checkpoint_in.
    """
    if cfg.checkpoint_in:
        raise ValueError(f"train_refine cannot resume: checkpoint_in is set ({cfg.checkpoint_in}); the refine phase always starts from init")
    train_samples = _train_split(cfg, "refine")
    labeled = refine_subset_indices(len(train_samples), cfg.refine_label_fraction, cfg.seed)
    params = init_refiner(cfg.seed)
    optimizer = make_optimizer(params, cfg.learning_rate)

    def batch_loss(picks, epoch):
        images, coarse, gts = [], [], []
        for idx in picks:
            image, mask = _augmented(train_samples[idx], cfg, "refine_aug", epoch, idx)
            coarse.append(_logit(degrade_mask(mask, rng_from_key(cfg.seed, "degrade", epoch, idx)))[None])
            images.append(image[None])
            gts.append(mask)
        x = T.Tensor(np.stack(images), dtype=np.float32)
        c = T.Tensor(np.stack(coarse), dtype=np.float32)
        prob = T.sigmoid(detail_refine_forward(params, c, x, training=True).refined)
        gt = np.stack(gts)
        return refine_loss(T.reshape(prob, gt.shape), gt, cfg)

    losses = _fit(cfg, params, optimizer, labeled, "refine_shuffle", batch_loss)
    params.set_frozen("refine.")
    return _result(cfg, params, optimizer, losses)


def has_refine(params):
    return "refine.out.w" in params.tensors


def _shapes(params):
    return {**{n: t.data.shape for n, t in params.tensors.items()}, **{n: a.shape for n, a in params.stats.items()}}


def _model_params(params, cfg: RunConfig):
    """The model: base parameters (fresh from init_params, or built from a
    checkpoint) plus the frozen refiner of cfg.refine_checkpoint when one is
    set, which must hold refine.* parameters. Names and shapes must match
    the config's parameter skeleton; the first entry that does not is named."""
    if cfg.refine_checkpoint:
        refine = load_checkpoint(cfg.refine_checkpoint)
        if not any(name.startswith("refine.") for name in refine.tensors):
            raise CheckpointError(f"refine_checkpoint {cfg.refine_checkpoint} holds no refine.* parameters")
        refine.merge_into(params, "refine.", frozen=True)
    got = _shapes(params)
    want = _shapes(init_params(0, net_config(cfg), include_refine=has_refine(params)))
    for name in sorted(got.keys() | want.keys()):
        if got.get(name) != want.get(name):
            raise CheckpointError(f"checkpoint does not match the config at {name!r}: checkpoint has {got.get(name, 'no entry')}, config expects {want.get(name, 'no entry')}")
    return params


def load_model(checkpoint_path, cfg: RunConfig):
    """The model of the checkpoint file at checkpoint_path (see _model_params)."""
    return _model_params(load_checkpoint(checkpoint_path).build_params(), cfg)


def predict_batch(params, images_np, cfg, ncfg, use_refine, scale_gap=False):
    """Eval-mode prompted prediction from the scale-one pass. Returns (coarse
    probs, refined probs or None, prompts, in-box scale-gap inputs) as numpy
    arrays at native size. The gap inputs, (scale-one probs, scale-two probs
    resized to scale one), need the second scale and are None unless
    scale_gap is set; in eval mode that pass changes no state."""
    with T.no_grad():
        x = T.Tensor(images_np, dtype=np.float32)
        gap = None
        if scale_gap:
            out = two_scale_forward(params, x, prompt_from_probability, False, ncfg)
            logits_a, prompts = out.logits_a, out.prompts
            gap = (out.prob_a.data.copy(), out.prob_b_up.data.copy())
        else:
            logits_a, prompts = scale_one_forward(params, x, prompt_from_probability, False, ncfg)
        native = images_np.shape[2]
        logits = T.bilinear_resize(logits_a, native, native)
        coarse = T.sigmoid(logits)
        refined = None
        if use_refine:
            refined = T.sigmoid(detail_refine_forward(params, logits, x, training=False).refined)
        return coarse.data.copy(), None if refined is None else refined.data.copy(), prompts, gap


def evaluate_predictions(preds, gts, sample_ids):
    """Metric rows for aligned prediction/GT grids.

    An empty prediction gets the grid diagonal as its HD95 (worst case) so
    means stay defined.
    """
    rows = []
    for i, (pred, gt) in enumerate(zip(preds, gts)):
        sid = i if sample_ids is None else sample_ids[i]
        c = confusion_counts(pred, gt)
        dsc, iou_fg, miou = dsc_miou(c)
        acc, sen, spe = acc_sen_spe(c)
        try:
            h = hd95(pred, gt)
        except EmptyMaskError:
            h = float(np.hypot(*gt.shape))
        rows.append(MetricsRow(sample_id=int(sid), dsc=dsc, iou_fg=iou_fg, miou=miou, acc=acc, sen=sen, spe=spe, hd95=h))
    return rows


def mean_metrics(rows):
    if not rows:
        raise ValueError("cannot average an empty metrics report")
    return {name: float(np.mean([getattr(r, name) for r in rows])) for name in FIELDS[1:]}


def evaluate(cfg: RunConfig, params, samples, use_refine=False, sample_ids=None):
    """Per-sample metric rows plus the in-box scale-gap diagnostic."""
    if not samples:
        raise ValueError("evaluate: empty dataset")
    ncfg = net_config(cfg)
    if use_refine and not has_refine(params):
        raise ValueError("evaluate: refine output requested but checkpoint has no refine parameters")
    # the in-box scale gap compares scale-1 maps against the native weak box
    ids = range(len(samples)) if sample_ids is None else sample_ids
    boxes = [_weak_box(s.gt_mask, sid) for s, sid in zip(samples, ids)]
    for box in boxes:
        _check_scale1(box.shape, cfg.scale1)
    preds, gts, gaps = [], [], []
    for lo in range(0, len(samples), cfg.batch_size):
        chunk = samples[lo : lo + cfg.batch_size]
        images = np.stack([s.image[None] for s in chunk]).astype(np.float32)
        coarse, refined, _, (pa, pb) = predict_batch(params, images, cfg, ncfg, use_refine, scale_gap=True)
        chosen = refined if use_refine else coarse
        for b, s in enumerate(chunk):
            preds.append(chosen[b, 0])
            gts.append(s.gt_mask)
            gaps.append(float(np.abs(pa[b, 0] - pb[b, 0])[boxes[lo + b] >= THRESHOLD].mean()))
    rows = evaluate_predictions(preds, gts, sample_ids=sample_ids)
    return rows, mean_metrics(rows), float(np.mean(gaps))
