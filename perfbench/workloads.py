"""The three workloads: set-up from a seed, a timed loop through the
program's public entry points, and the output checks.

An operation is one optimizer step (`weak-train`, `refine-train`) or one
image predicted and scored (`infer`). A loop runs until `seconds` have passed
and at least `Sizes.min_ops` operations are timed. There is no warm-up
operation: the program has no lazy set-up or cache to fill, so the first
operation costs what later ones do.

The training loops run the program's own `train_weak` / `train_refine`. The
benchmark wraps the optimizer that those functions create: each step's end
closes one operation, and the step that passes the deadline ends training
by raising `_Deadline`, which the benchmark catches.
"""

import contextlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

import checks
import tracing
from weakbox_kit import checkpoint, metrics, nets, pipeline, synth
from weakbox_kit import tensor as T
from weakbox_kit.boxes import EmptyMaskError
from weakbox_kit.config import RunConfig
from weakbox_kit.synth import DatasetSpec

WORKLOADS = ("weak-train", "refine-train", "infer")
SHAPES = ("ellipse", "fused", "annulus")
IMAGE_SIZE = 64
UNBOUNDED_EPOCHS = 10**6


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, tests shrink them."""

    train_count: int = 200  # images in the training workloads' dataset (20% held out)
    infer_count: int = 100  # images in the infer dataset (20% held out and predicted)
    train_setup_reps: int = 7  # set-ups per run; setup_s is their median
    infer_setup_reps: int = 3  # fewer: each infer set-up trains a model
    min_ops: int = 100  # op_ms_p90 needs at least ten operations beyond it
    loss_window: int = 10  # steps averaged at each end of the loss check
    infer_weak_epochs: int = 2
    infer_refine_epochs: int = 4


@dataclass
class Outcome:
    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    images: int = 0
    loop_s: float = 0.0
    checks: list = field(default_factory=list)
    digest: str = ""
    per_layer: dict = field(default_factory=dict)

    @property
    def correct(self):
        return all(ok for _, ok, _ in self.checks)

    def end_to_end(self):
        ops_ms = np.sort(np.asarray(self.op_s)) * 1e3
        # nearest rank: at least ten operations lie beyond it when n >= 100
        p90 = ops_ms[math.ceil(0.9 * len(ops_ms)) - 1]
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "op_ms_p50": (float(np.median(ops_ms)), "ms"),
            "op_ms_p90": (float(p90), "ms"),
            "images_per_s": (self.images / self.loop_s, "images/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }


class _Deadline(Exception):
    """Ends a training run from inside its optimizer step."""


class _TrainClock:
    """Times optimizer steps of one `train_weak` / `train_refine` call."""

    def __init__(self, seconds, min_ops, tracer):
        self.seconds = seconds
        self.min_ops = min_ops
        self.tracer = tracer
        self.begin = None
        self.ends = []
        self.losses = []
        self.optimizer = None
        self.deadline = None
        self.snaps = []

    @contextlib.contextmanager
    def installed(self):
        make = pipeline.make_optimizer
        backward = T.backward

        def make_optimizer(*args, **kwargs):
            opt = make(*args, **kwargs)
            step = opt.step if self.tracer is None else self.tracer.span("optim.step", opt.step)
            opt.step = lambda: self._step(step)
            self.optimizer = opt
            self.snaps.append(_snapshot(self.tracer))
            self.begin = time.perf_counter()
            self.deadline = self.begin + self.seconds
            return opt

        def capture_loss(loss):
            self.losses.append(loss.item())
            return backward(loss)

        with mock.patch.object(pipeline, "make_optimizer", make_optimizer), mock.patch.object(T, "backward", capture_loss):
            yield self

    def _step(self, step):
        step()
        now = time.perf_counter()
        self.ends.append(now)
        if len(self.ends) >= self.min_ops and now >= self.deadline:
            self.snaps.append(_snapshot(self.tracer))
            raise _Deadline

    def run(self, train, cfg):
        with self.installed():
            try:
                train(cfg)
            except _Deadline:
                pass
            else:
                raise RuntimeError(f"{train.__name__} finished {cfg.epochs} epochs before the deadline")

    def fill(self, out, batch_size):
        out.op_s = list(np.diff([self.begin] + self.ends))
        out.images = len(out.op_s) * batch_size
        out.loop_s = self.ends[-1] - self.begin


def _dataset(root, count, seed):
    spec = DatasetSpec(count=count, size=IMAGE_SIZE, n_objects_min=1, n_objects_max=1, shapes=SHAPES, noise=0.3, seed=seed)
    data_dir = os.path.join(root, "data")
    synth.save_dataset(synth.generate_dataset(spec), spec, data_dir)
    _, samples = synth.load_dataset(data_dir)
    return data_dir, samples


def _set_up(out, reps, fn):
    """Run `fn` `reps` times, timing each; returns the last result."""
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        out.setup_s.append(time.perf_counter() - t0)
    return result


def _snapshot(tracer):
    return None if tracer is None else tracer.snapshot()


def _predict(params, cfg, samples, batch=8):
    """Eval-mode coarse predictions (probabilities) of the weak model."""
    ncfg = pipeline.net_config(cfg)
    preds = []
    for lo in range(0, len(samples), batch):
        images = np.stack([s.image[None] for s in samples[lo : lo + batch]]).astype(np.float32)
        coarse, _, _, _ = pipeline.predict_batch(params, images, cfg, ncfg, use_refine=False)
        preds += list(coarse[:, 0])
    return preds


def _train_checks(out, clock, sizes):
    losses = clock.losses
    out.checks.append(checks.finite("losses_finite", losses))
    out.checks.append(checks.loss_falls(losses, sizes.loss_window))
    # every run reaches min_ops steps, so this prefix has the same length on
    # every run of a seed
    out.digest = checks.digest(np.asarray(losses[: sizes.min_ops], dtype=np.float64))


def _weak_setup(root, seed, sizes, cfg):
    data_dir, samples = _dataset(root, sizes.train_count, seed)
    return data_dir, samples, nets.init_params(seed, pipeline.net_config(cfg), include_refine=False)


def weak_train(root, seed, seconds, sizes, tracer):
    out = Outcome()
    cfg = RunConfig(phase="weak", epochs=UNBOUNDED_EPOCHS, batch_size=8, learning_rate=1e-3, seed=seed)
    cfg.dataset_dir, samples, init = _set_up(out, sizes.train_setup_reps, lambda: _weak_setup(root, seed, sizes, cfg))
    train, holdout = pipeline.split_dataset(samples, cfg.holdout_fraction)
    if len(train) % cfg.batch_size:
        raise ValueError(f"{len(train)} training images do not fill batches of {cfg.batch_size}")

    clock = _TrainClock(seconds, sizes.min_ops, tracer)
    clock.run(pipeline.train_weak, cfg)
    clock.fill(out, cfg.batch_size)
    _train_checks(out, clock, sizes)
    gts = [s.gt_mask for s in holdout]
    trained = checks.mean_dice(_predict(clock.optimizer.params, cfg, holdout), gts)
    at_init = checks.mean_dice(_predict(init, cfg, holdout), gts)
    out.checks.append(checks.beats("heldout_dice_beats_init", trained, at_init))
    return out, clock.snaps


def refine_train(root, seed, seconds, sizes, tracer):
    out = Outcome()
    cfg = RunConfig(
        phase="refine", epochs=UNBOUNDED_EPOCHS, batch_size=4, learning_rate=2e-3, seed=seed, refine_label_fraction=0.5
    )
    cfg.dataset_dir, samples = _set_up(out, sizes.train_setup_reps, lambda: _dataset(root, sizes.train_count, seed))
    train, holdout = pipeline.split_dataset(samples, cfg.holdout_fraction)
    labeled = pipeline.refine_subset_indices(len(train), cfg.refine_label_fraction, seed)
    if len(labeled) % cfg.batch_size:
        raise ValueError(f"{len(labeled)} labeled images do not fill batches of {cfg.batch_size}")

    clock = _TrainClock(seconds, sizes.min_ops, tracer)
    clock.run(pipeline.train_refine, cfg)
    clock.fill(out, cfg.batch_size)
    _train_checks(out, clock, sizes)
    degraded = [pipeline.degrade_mask(s.gt_mask, np.random.default_rng([seed, i])) for i, s in enumerate(holdout)]
    refined = _refine(clock.optimizer.params, holdout, degraded)
    gts = [s.gt_mask for s in holdout]
    out.checks.append(checks.beats("refined_dice_beats_degraded", checks.mean_dice(refined, gts), checks.mean_dice(degraded, gts)))
    return out, clock.snaps


def _refine(params, samples, degraded):
    """Eval-mode refiner outputs (probabilities) for degraded masks."""
    with T.no_grad():
        image = T.Tensor(np.stack([s.image[None] for s in samples]), dtype=np.float32)
        q = np.stack(degraded)[:, None].astype(np.float64)
        coarse = T.Tensor(np.log(q / (1.0 - q)), dtype=np.float32)
        prob = T.sigmoid(nets.detail_refine_forward(params, coarse, image, training=False).refined)
    return list(prob.data[:, 0])


def _infer_setup(root, seed, sizes):
    data_dir, samples = _dataset(root, sizes.infer_count, seed)
    refine_ckpt = os.path.join(root, "refine.ckpt")
    weak_ckpt = os.path.join(root, "weak.ckpt")
    rcfg = RunConfig(
        phase="refine", epochs=sizes.infer_refine_epochs, batch_size=4, learning_rate=2e-3,
        dataset_dir=data_dir, seed=seed, refine_label_fraction=0.25, checkpoint_out=refine_ckpt,
    )
    cfg = RunConfig(
        phase="weak", epochs=sizes.infer_weak_epochs, batch_size=8, learning_rate=1e-3,
        dataset_dir=data_dir, seed=seed, refine_checkpoint=refine_ckpt, checkpoint_out=weak_ckpt,
    )
    losses = pipeline.train_refine(rcfg).epoch_losses + pipeline.train_weak(cfg).epoch_losses
    # loaded the way `weakbox-kit infer` loads a model
    params = checkpoint.load_checkpoint(weak_ckpt).build_params()
    checkpoint.load_checkpoint(refine_ckpt).merge_into(params, "refine.", frozen=True)
    with open(weak_ckpt, "rb") as f:
        blob = f.read()
    return cfg, samples, params, losses, blob


def _predict_and_score(params, cfg, ncfg, sample):
    """One infer operation, timed: predict one image the way `weakbox-kit
    infer` does, then score it. Returns (seconds, prediction, summary)."""
    t0 = time.perf_counter()
    batch = sample.image[None, None].astype(np.float32)
    _, refined, prompts, _ = pipeline.predict_batch(params, batch, cfg, ncfg, True)
    pred = refined[0, 0]
    counts = metrics.confusion_counts(pred, sample.gt_mask)
    try:
        hd = metrics.hd95(pred, sample.gt_mask)
    except EmptyMaskError:
        hd = None
    dt = time.perf_counter() - t0
    box = prompts[0]
    summary = {
        "shape": pred.shape, "min": float(pred.min()), "max": float(pred.max()),
        "prompt": None if box is None else box.as_tuple(), "hd95": hd,
        "counts": (counts.tp, counts.fp, counts.fn, counts.tn),
    }
    return dt, pred, summary


def infer(root, seed, seconds, sizes, tracer):
    out = Outcome()
    blobs = []

    def setup():
        result = _infer_setup(root, seed, sizes)
        blobs.append(result[-1])
        return result

    cfg, samples, params, losses, _ = _set_up(out, sizes.infer_setup_reps, setup)
    out.checks.append(checks.finite("setup_losses_finite", losses))
    out.checks.append(("setup_checkpoints_identical", len(set(blobs)) == 1, f"{len(blobs)} set-ups, {len(set(blobs))} distinct weak checkpoints"))
    out.checks.append(("refiner_loaded", pipeline.has_refine(params), "refine.* parameters present"))
    ncfg = pipeline.net_config(cfg)
    _, holdout = pipeline.split_dataset(samples, cfg.holdout_fraction)

    # image k of the loop is holdout[k % len(holdout)]; the first round is
    # kept whole for the brute-force scoring check
    records, first_round = [], []
    snaps = [_snapshot(tracer)]
    loop_start = time.perf_counter()
    while len(out.op_s) < sizes.min_ops or time.perf_counter() < loop_start + seconds:
        sample = holdout[len(records) % len(holdout)]
        dt, pred, summary = _predict_and_score(params, cfg, ncfg, sample)
        out.op_s.append(dt)
        if len(records) < len(holdout):
            first_round.append((pred, sample.gt_mask))
        records.append(summary)
    out.loop_s = time.perf_counter() - loop_start
    snaps.append(_snapshot(tracer))
    out.images = len(out.op_s)
    out.checks.append(checks.infer_outputs(records, first_round, (IMAGE_SIZE, IMAGE_SIZE)))
    out.digest = checks.digest(np.asarray(losses, dtype=np.float64), *[p for p, _ in first_round])
    return out, snaps


RUNNERS = {"weak-train": weak_train, "refine-train": refine_train, "infer": infer}


def run(workload, root, seed, seconds, trace, sizes=Sizes()):
    """Set up and run one workload; per-layer metrics only when tracing."""
    tracer = tracing.Tracer() if trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        out, snaps = RUNNERS[workload](root, seed, seconds, sizes, tracer)
    if tracer is not None:
        p50 = out.end_to_end()["op_ms_p50"][0]
        out.per_layer = tracing.per_layer(snaps[0], snaps[1], len(out.op_s), sum(out.op_s), tracer.snapshot(), p50)
    return out
