"""Per-layer tracing by wrapping the program's public functions.

Nothing here edits the program. A `Tracer` swaps module attributes for timed
wrappers (restored on exit) and, for every tape op, also wraps the grad
function recorded on the op's output, so backward time is charged to the op
that produced it. Totals are kept in memory; `snapshot()` copies them so a
caller can take the difference over exactly the operations it timed.

A span is "covering" when it belongs to a layer (model, box transform, loss,
tape op, backward, optimizer, metrics). Covering time is counted once, at the
outermost covering span, so `covered` is the wall time spent inside any layer
and an operation's remaining time is pipeline glue.
"""

import contextlib
import time
from collections import defaultdict
from unittest import mock

from weakbox_kit import checkpoint, metrics, nets, pipeline, synth
from weakbox_kit import tensor as T
from weakbox_kit.boxes import Center, EmptyMaskError

# tape ops timed under their own name; every other op is "pointwise"
# (elementwise, shape and reduction ops)
NAMED_OPS = ("conv2d", "bilinear_resize", "batchnorm2d", "maxpool2d", "reduce_max")
OTHER_OPS = (
    "add", "sub", "mul", "div", "affine", "minimum", "maximum", "broadcast_to", "reshape",
    "concat", "plane", "sigmoid", "relu", "tabs", "tlog", "clamp", "tsum", "tmean",
)
OP_GROUPS = NAMED_OPS + ("pointwise",)


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)  # span name -> seconds
        self.count = defaultdict(int)  # span or counter name -> calls / events
        self.covered = 0.0
        self._depth = 0

    def snapshot(self):
        return dict(self.total), dict(self.count), self.covered

    def span(self, name, fn, cover=True):
        """`fn` wrapped so each call adds its wall time to `name`."""

        def wrapped(*args, **kwargs):
            outer = cover and self._depth == 0
            if cover:
                self._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if cover:
                    self._depth -= 1
                if outer:
                    self.covered += dt
                self.total[name] += dt
                self.count[name] += 1

        return wrapped

    def _tape_op(self, group, fn):
        fwd = f"tensor.{group}.fwd"
        bwd = f"tensor.{group}.bwd"
        timed = self.span(fwd, fn)

        def wrapped(*args, **kwargs):
            out = timed(*args, **kwargs)
            node = out._node
            if node is not None:
                self.count["tensor.ops"] += 1
                node.grad_fn = self.span(bwd, node.grad_fn)
            return out

        return wrapped

    def _mask_to_box(self, fn):
        timed = self.span("boxes.mask_to_box", fn)

        def wrapped(mask, *args, **kwargs):
            try:
                box, status = timed(mask, *args, **kwargs)
            except EmptyMaskError:
                if isinstance(mask, T.Tensor):
                    # box_for_loss falls back to the foreground path
                    self.count["boxes.empty_fallback"] += 1
                raise
            if status.status is Center.BACKGROUND:
                self.count["boxes.branch_background"] += 1
            return box, status

        return wrapped

    def _prompt(self, fn):
        def wrapped(*args, **kwargs):
            coords = fn(*args, **kwargs)
            self.count["pipeline.prompts"] += 1
            self.count["pipeline.prompts_found"] += coords is not None
            return coords

        return wrapped

    @contextlib.contextmanager
    def installed(self):
        """Patch the program's layer boundaries for the duration of the block."""
        ssf = nets.single_scale_forward
        patches = [
            (pipeline, "single_scale_forward", self.span("pipeline.neutral_pass", self.span("nets.single_scale_forward", ssf))),
            (nets, "single_scale_forward", self.span("nets.single_scale_forward", ssf)),
            (pipeline, "two_scale_forward", self.span("nets.two_scale_forward", pipeline.two_scale_forward)),
            (pipeline, "detail_refine_forward", self.span("nets.detail_refine_forward", pipeline.detail_refine_forward)),
            (pipeline, "mask_to_box", self._mask_to_box(pipeline.mask_to_box)),
            (pipeline, "prompt_from_probability", self._prompt(pipeline.prompt_from_probability)),
            (pipeline, "mm2b_loss", self.span("losses.box_loss", pipeline.mm2b_loss)),
            (pipeline, "sc_loss", self.span("losses.sc_loss", pipeline.sc_loss)),
            (pipeline, "detail_refine_loss", self.span("losses.refine_loss", pipeline.detail_refine_loss)),
            (T, "backward", self.span("tensor.backward", T.backward)),
            (metrics, "hd95", self.span("metrics.hd95", metrics.hd95)),
            (metrics, "confusion_counts", self.span("metrics.confusion_counts", metrics.confusion_counts)),
            (checkpoint, "save_checkpoint", self.span("checkpoint.save", checkpoint.save_checkpoint, cover=False)),
            (pipeline, "save_checkpoint", self.span("checkpoint.save", pipeline.save_checkpoint, cover=False)),
            (checkpoint, "load_checkpoint", self.span("checkpoint.load", checkpoint.load_checkpoint, cover=False)),
            (pipeline, "load_checkpoint", self.span("checkpoint.load", pipeline.load_checkpoint, cover=False)),
            (synth, "generate_dataset", self.span("synth.generate_dataset", synth.generate_dataset, cover=False)),
            (synth, "load_dataset", self.span("synth.load_dataset", synth.load_dataset, cover=False)),
            (pipeline, "load_dataset", self.span("synth.load_dataset", pipeline.load_dataset, cover=False)),
        ]
        patches += [(T, name, self._tape_op(name, getattr(T, name))) for name in NAMED_OPS]
        patches += [(T, name, self._tape_op("pointwise", getattr(T, name))) for name in OTHER_OPS]
        with contextlib.ExitStack() as stack:
            for module, name, value in patches:
                stack.enter_context(mock.patch.object(module, name, value))
            yield self


def per_layer(start, end, n_ops, op_seconds, run, trace_op_ms_p50):
    """Per-layer metrics from two snapshots taken around `n_ops` timed
    operations that took `op_seconds` in all; `run` is the whole-run
    snapshot, for set-up layers."""
    t0, c0, cov0 = start
    t1, c1, cov1 = end
    rt, rc, _ = run

    def ms(name):
        return 1e3 * (t1.get(name, 0.0) - t0.get(name, 0.0)) / n_ops

    def per_op(name):
        return (c1.get(name, 0) - c0.get(name, 0)) / n_ops

    def per_call(name, scale):
        calls = rc.get(name, 0)
        return scale * rt.get(name, 0.0) / calls if calls else 0.0

    op_ms = 1e3 * op_seconds / n_ops
    out = {}
    for group in OP_GROUPS:
        out[f"tensor.{group}.fwd_ms"] = (ms(f"tensor.{group}.fwd"), "ms")
        out[f"tensor.{group}.bwd_ms"] = (ms(f"tensor.{group}.bwd"), "ms")
    out["tensor.conv2d.calls"] = (per_op("tensor.conv2d.fwd"), "count/op")
    out["tensor.ops"] = (per_op("tensor.ops"), "count/op")
    table = sum(out[f"tensor.{g}.{d}_ms"][0] for g in OP_GROUPS for d in ("fwd", "bwd"))
    bwd_glue = ms("tensor.backward") - sum(out[f"tensor.{g}.bwd_ms"][0] for g in OP_GROUPS)
    glue = op_ms - 1e3 * (cov1 - cov0) / n_ops
    out["tensor.backward.glue_ms"] = (bwd_glue, "ms")
    out["pipeline.neutral_pass_ms"] = (ms("pipeline.neutral_pass"), "ms")
    prompts = c1.get("pipeline.prompts", 0) - c0.get("pipeline.prompts", 0)
    found = c1.get("pipeline.prompts_found", 0) - c0.get("pipeline.prompts_found", 0)
    out["pipeline.prompt_found_ratio"] = (found / prompts if prompts else 0.0, "ratio")
    out["pipeline.glue_ms"] = (glue, "ms")
    out["nets.single_scale_forward.ms"] = (ms("nets.single_scale_forward"), "ms")
    out["nets.detail_refine_forward.ms"] = (ms("nets.detail_refine_forward"), "ms")
    out["boxes.mask_to_box.ms"] = (ms("boxes.mask_to_box"), "ms")
    out["boxes.mask_to_box.calls"] = (per_op("boxes.mask_to_box"), "count/op")
    out["boxes.branch_background.count"] = (per_op("boxes.branch_background"), "count/op")
    out["boxes.empty_fallback.count"] = (per_op("boxes.empty_fallback"), "count/op")
    out["losses.box_loss.ms"] = (ms("losses.box_loss"), "ms")
    out["losses.sc_loss.ms"] = (ms("losses.sc_loss"), "ms")
    out["losses.refine_loss.ms"] = (ms("losses.refine_loss"), "ms")
    out["optim.step.ms"] = (ms("optim.step"), "ms")
    out["metrics.hd95.ms"] = (ms("metrics.hd95"), "ms")
    out["metrics.confusion_counts.ms"] = (ms("metrics.confusion_counts"), "ms")
    out["checkpoint.save.ms"] = (per_call("checkpoint.save", 1e3), "ms")
    out["checkpoint.load.ms"] = (per_call("checkpoint.load", 1e3), "ms")
    out["synth.generate_dataset.s"] = (per_call("synth.generate_dataset", 1.0), "s")
    out["synth.load_dataset.s"] = (per_call("synth.load_dataset", 1.0), "s")
    out["trace.op_ms_p50"] = (trace_op_ms_p50, "ms")
    out["trace.accounted_share"] = ((table + bwd_glue + glue) / op_ms, "ratio")
    return out
