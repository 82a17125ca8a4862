"""Two-phase training, evaluation, and inference.

Phase one trains the residual refiner on a small labeled split against
degraded copies of real masks. Phase two is box-supervised: per step the
model predicts, its prediction is converted to a box prompt, and the
prompted two-scale predictions are optimized against the weak box label
(mask-to-box loss plus in-box scale consistency). Real mask pixels never
reach the weak loss path; only their bounding boxes do.

All randomness is keyed by (seed, stream, epoch, index), so runs are
reproducible and checkpoint resume is bit-identical to a straight run.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import uniform_filter

from . import tensor as T
from .boxes import (
    Center,
    CenterStatus,
    EmptyMaskError,
    backproject_min,
    box_coords,
    gt_box_mask,
    mask_to_box,
    project,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .losses import LossConfig, Phase, branch_loss, detail_refine_loss, mm2b_loss, sc_loss, total_loss
from .metrics import acc_sen_spe, confusion_counts, dsc_miou, hd95
from .nets import NetConfig, detail_refine_forward, init_params, scale_coords, single_scale_forward, two_scale_forward
from .optim import make_optimizer
from .reports import MetricsRow
from .synth import load_dataset, rng_from_key


class NumericError(RuntimeError):
    """Training hit a non-finite loss."""


def net_config(cfg: RunConfig) -> NetConfig:
    return NetConfig(feat_channels=cfg.feat_channels, scale_pair=(cfg.scale1, cfg.scale2))


def loss_config(cfg: RunConfig) -> LossConfig:
    return LossConfig(
        beta=cfg.beta,
        gamma=cfg.gamma,
        lambda1=cfg.lambda1,
        lambda2=cfg.lambda2,
        smooth_eps=cfg.smooth_eps,
        clamp_eps=cfg.clamp_eps,
    )


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


def box_for_loss(prob_plane, threshold=0.5):
    """Mask-to-box of a live prediction, with a foreground-path fallback when
    nothing clears the threshold yet (early training)."""
    try:
        return mask_to_box(prob_plane, threshold)
    except EmptyMaskError:
        box = backproject_min(project(prob_plane))
        peak = np.unravel_index(int(np.argmax(prob_plane.data)), box.data.shape)
        status = CenterStatus(status=Center.FOREGROUND, centroid=(int(peak[0]), int(peak[1])))
        box.meta["branch"] = status.status
        return box, status


def prompt_from_probability(prob_plane_np, threshold=0.5):
    """Box prompt coordinates from a prediction's mask-to-box output."""
    try:
        box, _ = mask_to_box(prob_plane_np, threshold)
        return box_coords(box, threshold)
    except EmptyMaskError:
        return None


def prompted_two_scale(params, images_np, cfg: RunConfig, ncfg: NetConfig, training):
    """Neutral-prompt pass to derive per-sample box prompts, then the real
    prompted two-scale forward. Returns (out, prompts)."""
    x = T.Tensor(images_np, dtype=np.float32)
    s_a = ncfg.scale_pair[0]
    native = images_np.shape[2]
    with T.no_grad():
        x_a = x if native == s_a else T.bilinear_resize(x, s_a, s_a)
        neutral_logits = single_scale_forward(params, x_a, None, training, cfg.use_cnn_gate)
        neutral_prob = T.sigmoid(neutral_logits).data
    prompts = [scale_coords(prompt_from_probability(neutral_prob[b, 0]), s_a, native) for b in range(images_np.shape[0])]
    out = two_scale_forward(params, x, prompts, training, ncfg, cfg.use_cnn_gate)
    return out, prompts


def weak_batch_loss(params, images_np, weak_boxes, cfg, ncfg, lcfg, training=True):
    """Box-supervised loss over one batch; weak_boxes are at scale1 frame."""
    out, _ = prompted_two_scale(params, images_np, cfg, ncfg, training)
    n = images_np.shape[0]
    total = None
    for b in range(n):
        p_a = T.plane(out.prob_a, b, 0)
        p_b = T.plane(out.prob_b_up, b, 0)
        weak = weak_boxes[b]
        if cfg.supervision == "fullbox":
            # naive baseline: pretend the box mask is the segmentation target
            l_box = T.affine(T.add(branch_loss(p_a, weak, lcfg), branch_loss(p_b, weak, lcfg)), 0.5, 0.0)
        else:
            box_a, st_a = box_for_loss(p_a)
            box_b, st_b = box_for_loss(p_b)
            l_box = T.affine(
                T.add(mm2b_loss(box_a, weak, st_a, lcfg), mm2b_loss(box_b, weak, st_b, lcfg)), 0.5, 0.0
            )
        l_sc = sc_loss(p_a, p_b, weak) if cfg.use_sc else T.Tensor(0.0, dtype=np.float32)
        sample_loss = total_loss(Phase.WEAK, mm2b=l_box, sc=l_sc)
        total = sample_loss if total is None else T.add(total, sample_loss)
    return T.affine(total, 1.0 / n, 0.0)


def _check_scale1(shape, scale1):
    if shape[0] != scale1:
        raise ValueError(f"dataset size {shape} does not match scale1 {scale1}; set scale1 to the dataset size")


def _batch_arrays(samples, indices, cfg, epoch, scale):
    images, weaks = [], []
    for idx in indices:
        s = samples[idx]
        image, mask = s.image, s.gt_mask
        if cfg.augment:
            rng = rng_from_key(cfg.seed, "aug", epoch, int(idx))
            image, mask = augment_pair(image, mask, rng)
        # the weak path only ever sees the tight box of the mask
        weak = gt_box_mask(mask)
        _check_scale1(weak.shape, scale)
        images.append(image[None])
        weaks.append(weak.astype(np.float32))
    return np.stack(images).astype(np.float32), weaks


@dataclass
class TrainResult:
    params: object
    epoch_losses: list = field(default_factory=list)
    checkpoint_path: str = ""


def train_weak(cfg: RunConfig) -> TrainResult:
    """Box-supervised phase; resumes from checkpoint_in when set."""
    if cfg.phase != "weak":
        raise ValueError(f"train_weak needs phase = weak, config says {cfg.phase!r}")
    _, samples = load_dataset(cfg.dataset_dir)
    train_samples, _ = split_dataset(samples, cfg.holdout_fraction)
    ncfg = net_config(cfg)
    lcfg = loss_config(cfg)

    start_epoch = 0
    if cfg.checkpoint_in:
        ck = load_checkpoint(cfg.checkpoint_in)
        params = ck.build_params()
        optimizer = make_optimizer(cfg.optimizer, params, cfg.learning_rate, cfg.weight_decay)
        if ck.optimizer_kind not in ("none", cfg.optimizer):
            raise ValueError(f"checkpoint optimizer {ck.optimizer_kind!r} != config {cfg.optimizer!r}")
        optimizer.load_state_dict(ck.optimizer_state)
        start_epoch = ck.epoch
    else:
        params = init_params(cfg.seed, ncfg, include_refine=False)
        if cfg.refine_checkpoint:
            load_checkpoint(cfg.refine_checkpoint).merge_into(params, "refine.", frozen=True)
        optimizer = make_optimizer(cfg.optimizer, params, cfg.learning_rate, cfg.weight_decay)

    losses_log = []
    n = len(train_samples)
    for epoch in range(start_epoch, cfg.epochs):
        order = rng_from_key(cfg.seed, "shuffle", epoch).permutation(n)
        epoch_sum, n_batches = 0.0, 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            images, weaks = _batch_arrays(train_samples, idx, cfg, epoch, cfg.scale1)
            loss = weak_batch_loss(params, images, weaks, cfg, ncfg, lcfg, training=True)
            value = loss.item()
            if not math.isfinite(value):
                raise NumericError(f"non-finite weak loss at epoch {epoch}, batch {lo // cfg.batch_size} (lr={cfg.learning_rate})")
            params.zero_grad()
            T.backward(loss)
            optimizer.step()
            epoch_sum += value
            n_batches += 1
        losses_log.append(epoch_sum / max(n_batches, 1))

    path = ""
    if cfg.checkpoint_out:
        path = cfg.checkpoint_out
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        save_checkpoint(path, params, cfg.optimizer, optimizer.state_dict(), seed=cfg.seed, epoch=cfg.epochs)
    return TrainResult(params=params, epoch_losses=losses_log, checkpoint_path=path)


def degrade_mask(gt_mask, rng):
    """Soft corrupted copy of a mask: blur, small shift, correlated noise."""
    size = int(rng.integers(3, 6)) | 1  # 3 or 5
    soft = uniform_filter(gt_mask.astype(np.float64), size=size, mode="nearest")
    soft = np.roll(soft, (int(rng.integers(-2, 3)), int(rng.integers(-2, 3))), axis=(0, 1))
    noise = uniform_filter(rng.uniform(-1.0, 1.0, gt_mask.shape), size=3, mode="nearest") * 0.35
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
    output checkpoint carries the refine parameters flagged frozen.
    """
    if cfg.phase != "refine":
        raise ValueError(f"train_refine needs phase = refine, config says {cfg.phase!r}")
    _, samples = load_dataset(cfg.dataset_dir)
    train_samples, _ = split_dataset(samples, cfg.holdout_fraction)
    labeled = refine_subset_indices(len(train_samples), cfg.refine_label_fraction, cfg.seed)
    if not labeled:
        raise ValueError("refine phase: labeled subset is empty")
    ncfg = net_config(cfg)
    lcfg = loss_config(cfg)
    params = init_params(cfg.seed, ncfg, include_refine=True)
    optimizer = make_optimizer(cfg.optimizer, params, cfg.learning_rate, cfg.weight_decay)

    losses_log = []
    for epoch in range(cfg.epochs):
        order = rng_from_key(cfg.seed, "refine_shuffle", epoch).permutation(len(labeled))
        epoch_sum, n_batches = 0.0, 0
        for lo in range(0, len(labeled), cfg.batch_size):
            picks = [labeled[i] for i in order[lo : lo + cfg.batch_size]]
            images, coarse, gts = [], [], []
            for idx in picks:
                s = train_samples[idx]
                image, mask = s.image, s.gt_mask
                if cfg.augment:
                    rng = rng_from_key(cfg.seed, "refine_aug", epoch, int(idx))
                    image, mask = augment_pair(image, mask, rng)
                rng = rng_from_key(cfg.seed, "degrade", epoch, int(idx))
                coarse.append(_logit(degrade_mask(mask, rng))[None])
                images.append(image[None])
                gts.append(mask)
            x = T.Tensor(np.stack(images), dtype=np.float32)
            c = T.Tensor(np.stack(coarse), dtype=np.float32)
            out = detail_refine_forward(params, c, x, training=True)
            prob = T.sigmoid(out.refined)
            batch_loss = None
            for b in range(len(picks)):
                l = detail_refine_loss(T.plane(prob, b, 0), gts[b], lcfg)
                batch_loss = l if batch_loss is None else T.add(batch_loss, l)
            loss = total_loss(Phase.REFINE, refine=T.affine(batch_loss, 1.0 / len(picks), 0.0))
            value = loss.item()
            if not math.isfinite(value):
                raise NumericError(f"non-finite refine loss at epoch {epoch}, batch {lo // cfg.batch_size}")
            params.zero_grad()
            T.backward(loss)
            optimizer.step()
            epoch_sum += value
            n_batches += 1
        losses_log.append(epoch_sum / max(n_batches, 1))

    params.set_frozen("refine.")
    path = ""
    if cfg.checkpoint_out:
        path = cfg.checkpoint_out
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        save_checkpoint(
            path,
            params,
            cfg.optimizer,
            optimizer.state_dict(),
            seed=cfg.seed,
            epoch=cfg.epochs,
            name_filter=lambda name: name.startswith("refine."),
        )
    return TrainResult(params=params, epoch_losses=losses_log, checkpoint_path=path)


def has_refine(params):
    return "refine.out.w" in params.tensors


def load_model(checkpoint_path, cfg: RunConfig):
    """Parameters from a checkpoint, plus the frozen refiner from
    cfg.refine_checkpoint when one is set."""
    params = load_checkpoint(checkpoint_path).build_params()
    if cfg.refine_checkpoint:
        load_checkpoint(cfg.refine_checkpoint).merge_into(params, "refine.", frozen=True)
    return params


def predict_batch(params, images_np, cfg, ncfg, use_refine):
    """Eval-mode prompted prediction. Returns (coarse probs, refined probs or
    None, prompts, in-box scale-gap inputs) as numpy arrays at native size."""
    with T.no_grad():
        out, prompts = prompted_two_scale(params, images_np, cfg, ncfg, training=False)
        native = images_np.shape[2]
        logits = out.logits_a
        if logits.data.shape[2] != native:
            logits = T.bilinear_resize(logits, native, native)
        coarse = T.sigmoid(logits)
        refined = None
        if use_refine:
            x = T.Tensor(images_np, dtype=np.float32)
            refined = T.sigmoid(detail_refine_forward(params, logits, x, training=False).refined)
        return (
            coarse.data.copy(),
            None if refined is None else refined.data.copy(),
            prompts,
            (out.prob_a.data.copy(), out.prob_b_up.data.copy()),
        )


def evaluate_predictions(preds, gts, sample_ids=None):
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
    out = {}
    for name in ("dsc", "iou_fg", "miou", "acc", "sen", "spe", "hd95"):
        out[name] = float(np.mean([getattr(r, name) for r in rows]))
    return out


def evaluate(cfg: RunConfig, params, samples, use_refine=False, sample_ids=None):
    """Per-sample metric rows plus the in-box scale-gap diagnostic."""
    if not samples:
        raise ValueError("evaluate: empty dataset")
    ncfg = net_config(cfg)
    if use_refine and not has_refine(params):
        raise ValueError("evaluate: refine output requested but checkpoint has no refine parameters")
    # the in-box scale gap compares scale-1 maps against the native weak box
    for s in samples:
        _check_scale1(s.weak_box.shape, cfg.scale1)
    preds, gts, gaps = [], [], []
    for lo in range(0, len(samples), cfg.batch_size):
        chunk = samples[lo : lo + cfg.batch_size]
        images = np.stack([s.image[None] for s in chunk]).astype(np.float32)
        coarse, refined, _, (pa, pb) = predict_batch(params, images, cfg, ncfg, use_refine)
        chosen = refined if use_refine else coarse
        for b, s in enumerate(chunk):
            preds.append(chosen[b, 0])
            gts.append(s.gt_mask)
            box = s.weak_box
            gaps.append(float(np.abs(pa[b, 0] - pb[b, 0])[box >= 0.5].mean()))
    rows = evaluate_predictions(preds, gts, sample_ids=sample_ids)
    return rows, mean_metrics(rows), float(np.mean(gaps))
