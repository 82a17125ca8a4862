"""Minimal tape-based reverse-mode autodiff over dense numpy arrays.

Only the operator set needed by the box-supervised training pipeline is
implemented: elementwise arithmetic, min/max with deterministic tie routing,
axis reductions, conv/pool/resize/batchnorm, and a handful of pointwise
nonlinearities. Values are float32 by default; scalar reductions accumulate
in float64 before casting back. Gradient routing through max-like ops always
picks the first winner in row-major scan order.
"""

import contextlib
import itertools

import numpy as np

DEFAULT_DTYPE = np.float32

_node_ids = itertools.count()
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / prompt passes).

    Process-wide flag: do not enter from concurrent threads.
    """
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class TapeError(RuntimeError):
    """Backward was requested on a value with no recorded tape."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class _Node:
    """One recorded op: output, ordered inputs, and the local grad function."""

    __slots__ = ("nid", "out", "inputs", "grad_fn")

    def __init__(self, inputs, grad_fn):
        self.nid = next(_node_ids)
        self.out = None
        self.inputs = inputs
        self.grad_fn = grad_fn


class Tensor:
    """N-d float array with an optional grad slot and tape node.

    Data is read-only for op outputs; leaves stay writable so the optimizer
    can update parameters in place. `frozen` marks parameters the optimizer
    must never touch.
    """

    __slots__ = ("data", "grad", "requires_grad", "frozen", "meta", "_node", "_is_leaf")

    def __init__(self, data, requires_grad=False, dtype=None, frozen=False):
        arr = np.array(data, copy=True)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.frozen = bool(frozen)
        self.meta = {}
        self._node = None
        self._is_leaf = True

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def as_tensor(value, dtype=None):
    return value if isinstance(value, Tensor) else Tensor(value, dtype=dtype)


def _wrap(out_data, inputs, grad_fn, meta=None):
    """Wrap an op result; records a tape node iff any input is tracked."""
    out_data = np.asarray(out_data)
    requires = _grad_enabled and any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = requires
    out.frozen = False
    out.meta = dict(meta) if meta else {}
    out._is_leaf = False
    if requires:
        node = _Node(tuple(inputs), grad_fn)
        node.out = out
        out._node = node
    else:
        out._node = None
    out_data.flags.writeable = False
    return out


def _unbroadcast(grad, shape):
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def backward(loss):
    """Reverse sweep from a scalar loss; writes .grad into reachable tensors.

    The tape is released afterwards: a second backward on the same graph
    raises TapeError.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss._node is None:
        if loss._is_leaf and loss.requires_grad:
            loss.grad = np.ones_like(loss.data)
            return
        raise TapeError("value is off-tape (untracked, or its tape was already consumed)")

    nodes = {}
    stack = [loss._node]
    while stack:
        node = stack.pop()
        if node.nid in nodes:
            continue
        nodes[node.nid] = node
        for t in node.inputs:
            if t._node is not None:
                stack.append(t._node)

    loss.grad = np.ones_like(loss.data)
    for nid in sorted(nodes, reverse=True):
        node = nodes[nid]
        out = node.out
        if out.grad is None:
            continue
        grads = node.grad_fn(out.grad)
        for t, g in zip(node.inputs, grads):
            if g is None or not t.requires_grad:
                continue
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad = t.grad + g.astype(t.data.dtype, copy=False)
    for node in nodes.values():
        node.out._node = None


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    out = a.data + b.data

    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _wrap(out, (a, b), grad_fn)


def sub(a, b):
    out = a.data - b.data

    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _wrap(out, (a, b), grad_fn)


def mul(a, b):
    out = a.data * b.data

    def grad_fn(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _wrap(out, (a, b), grad_fn)


def div(a, b):
    out = a.data / b.data

    def grad_fn(g):
        ga = _unbroadcast(g / b.data, a.data.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
        return ga, gb

    return _wrap(out, (a, b), grad_fn)


def affine(x, scale, shift):
    """scale * x + shift with python-float coefficients."""
    scale = float(scale)
    shift = float(shift)
    out = (x.data * x.data.dtype.type(scale)) + x.data.dtype.type(shift)

    def grad_fn(g):
        return (g * scale,)

    return _wrap(out, (x,), grad_fn)


def minimum(a, b):
    """Elementwise min; on ties the gradient routes to the first argument."""
    take_a = a.data <= b.data
    out = np.where(take_a, a.data, b.data)

    def grad_fn(g):
        return (
            _unbroadcast(np.where(take_a, g, 0.0), a.data.shape),
            _unbroadcast(np.where(take_a, 0.0, g), b.data.shape),
        )

    return _wrap(out, (a, b), grad_fn)


def maximum(a, b):
    """Elementwise max; on ties the gradient routes to the first argument."""
    take_a = a.data >= b.data
    out = np.where(take_a, a.data, b.data)

    def grad_fn(g):
        return (
            _unbroadcast(np.where(take_a, g, 0.0), a.data.shape),
            _unbroadcast(np.where(take_a, 0.0, g), b.data.shape),
        )

    return _wrap(out, (a, b), grad_fn)


# ---------------------------------------------------------------------------
# shape ops


def broadcast_to(x, shape):
    out = np.ascontiguousarray(np.broadcast_to(x.data, shape))

    def grad_fn(g):
        return (_unbroadcast(g, x.data.shape),)

    return _wrap(out, (x,), grad_fn)


def reshape(x, shape):
    out = x.data.reshape(shape).copy()

    def grad_fn(g):
        return (g.reshape(x.data.shape),)

    return _wrap(out, (x,), grad_fn)


def concat(tensors, axis):
    """Concatenate along `axis`; backward splits the incoming gradient."""
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _wrap(out, tuple(tensors), grad_fn)


def plane(x, b, c):
    """Extract the (H, W) plane at batch b, channel c from an NCHW tensor."""
    if x.data.ndim != 4:
        raise ShapeError(f"plane expects an NCHW tensor, got shape {x.data.shape}")
    out = x.data[b, c].copy()

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[b, c] = g
        return (gx,)

    return _wrap(out, (x,), grad_fn)


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def sigmoid(x):
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)

    def grad_fn(g):
        return (g * out * (1.0 - out),)

    return _wrap(out, (x,), grad_fn)


def relu(x):
    out = np.maximum(x.data, 0)

    def grad_fn(g):
        return (g * (x.data > 0),)

    return _wrap(out, (x,), grad_fn)


def tabs(x):
    out = np.abs(x.data)

    def grad_fn(g):
        return (g * np.sign(x.data),)

    return _wrap(out, (x,), grad_fn)


def tlog(x):
    out = np.log(x.data)

    def grad_fn(g):
        return (g / x.data,)

    return _wrap(out, (x,), grad_fn)


def clamp(x, lo, hi):
    """Clip to [lo, hi]; gradient passes where lo <= x <= hi (inclusive)."""
    out = np.clip(x.data, lo, hi)
    inside = (x.data >= lo) & (x.data <= hi)

    def grad_fn(g):
        return (g * inside,)

    return _wrap(out, (x,), grad_fn)


# ---------------------------------------------------------------------------
# reductions


def tsum(x):
    out = np.asarray(x.data.sum(dtype=np.float64), dtype=x.data.dtype)

    def grad_fn(g):
        return (np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=True),)

    return _wrap(out, (x,), grad_fn)


def tmean(x):
    n = x.data.size
    out = np.asarray(x.data.sum(dtype=np.float64) / n, dtype=x.data.dtype)

    def grad_fn(g):
        return (np.broadcast_to(g / n, x.data.shape).astype(x.data.dtype, copy=True),)

    return _wrap(out, (x,), grad_fn)


def reduce_max(x, axis):
    """Max along one axis; gradient routes to the first argmax in scan order."""
    idx = np.argmax(x.data, axis=axis)
    out = np.take_along_axis(x.data, np.expand_dims(idx, axis), axis=axis).squeeze(axis)
    out = np.ascontiguousarray(out)

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        return (gx,)

    return _wrap(out, (x,), grad_fn)


# ---------------------------------------------------------------------------
# spatial ops (NCHW)


def conv2d(x, w, bias=None, stride=1, pad=0, dilation=1):
    """2-d cross-correlation. Kernel spatial dims must be odd."""
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d expects NCHW input and OIHW kernel, got {x.data.shape} and {w.data.shape}")
    bsz, cin, h, wd = x.data.shape
    cout, cink, k1, k2 = w.data.shape
    if cin != cink:
        raise ShapeError(f"conv2d channel mismatch: input {x.data.shape} vs kernel {w.data.shape}")
    if k1 % 2 == 0 or k2 % 2 == 0:
        raise ShapeError(f"conv2d kernel spatial dims must be odd, got {w.data.shape}")
    s, p, d = int(stride), int(pad), int(dilation)
    oh = (h + 2 * p - d * (k1 - 1) - 1) // s + 1
    ow = (wd + 2 * p - d * (k2 - 1) - 1) // s + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d output would be empty: input {x.data.shape}, kernel {w.data.shape}, stride {s}, pad {p}, dilation {d}")

    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    # accumulate in (B, OH, OW, Cout) layout; one transpose at the end
    acc = np.zeros((bsz, oh, ow, cout), dtype=x.data.dtype)
    for u in range(k1):
        for v in range(k2):
            xs = xp[:, :, u * d : u * d + (oh - 1) * s + 1 : s, v * d : v * d + (ow - 1) * s + 1 : s]
            acc += np.einsum("bcij,oc->bijo", xs, w.data[:, :, u, v], optimize=True)
    out = np.ascontiguousarray(acc.transpose(0, 3, 1, 2))
    if bias is not None:
        out = out + bias.data.reshape(1, cout, 1, 1)

    inputs = (x, w) if bias is None else (x, w, bias)

    def grad_fn(g):
        gw = np.zeros_like(w.data)
        gxp = np.zeros_like(xp) if x.requires_grad else None
        for u in range(k1):
            rows = slice(u * d, u * d + (oh - 1) * s + 1, s)
            for v in range(k2):
                cols = slice(v * d, v * d + (ow - 1) * s + 1, s)
                xs = xp[:, :, rows, cols]
                gw[:, :, u, v] = np.einsum("boij,bcij->oc", g, xs, optimize=True)
                if gxp is not None:
                    gxp[:, :, rows, cols] += np.einsum("boij,oc->bcij", g, w.data[:, :, u, v], optimize=True)
        gx = None
        if gxp is not None:
            gx = gxp[:, :, p : p + h, p : p + wd] if p else gxp
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return _wrap(out, inputs, grad_fn)


def maxpool2d(x):
    """2x2 max pool, stride 2. Odd spatial dims are padded to even with -inf;
    the padding decision is recorded in output meta. Gradient goes to the
    first argmax in row-major window order."""
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d expects NCHW, got {x.data.shape}")
    bsz, c, h, w = x.data.shape
    ph, pw = h % 2, w % 2
    xd = x.data
    if ph or pw:
        xd = np.pad(xd, ((0, 0), (0, 0), (0, ph), (0, pw)), constant_values=-np.inf)
    hh, ww = xd.shape[2] // 2, xd.shape[3] // 2
    windows = xd.reshape(bsz, c, hh, 2, ww, 2).transpose(0, 1, 2, 4, 3, 5).reshape(bsz, c, hh, ww, 4)
    idx = np.argmax(windows, axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    out = np.ascontiguousarray(out)

    def grad_fn(g):
        gwin = np.zeros_like(windows)
        np.put_along_axis(gwin, idx[..., None], g[..., None], axis=-1)
        gxp = gwin.reshape(bsz, c, hh, ww, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(bsz, c, hh * 2, ww * 2)
        return (np.ascontiguousarray(gxp[:, :, : h, : w]),)

    meta = {"pool_padded": (ph, pw)} if (ph or pw) else None
    return _wrap(out, (x,), grad_fn, meta=meta)


def _resize_weights(n_in, n_out):
    # align-corners: endpoints map exactly
    if n_out == 1:
        src = np.zeros(1)
    else:
        src = np.arange(n_out) * ((n_in - 1) / (n_out - 1))
    i0 = np.floor(src).astype(np.int64)
    i0 = np.minimum(i0, n_in - 1)
    i1 = np.minimum(i0 + 1, n_in - 1)
    frac = src - i0
    return i0, i1, frac


def bilinear_resize(x, out_h, out_w):
    """Align-corners bilinear resampling of an NCHW tensor."""
    if x.data.ndim != 4:
        raise ShapeError(f"bilinear_resize expects NCHW, got {x.data.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"bilinear_resize target must be >= 1, got ({out_h}, {out_w})")
    bsz, c, h, w = x.data.shape
    r0, r1, fr = _resize_weights(h, out_h)
    c0, c1, fc = _resize_weights(w, out_w)
    fr = fr.astype(x.data.dtype)[:, None]
    fc = fc.astype(x.data.dtype)[None, :]
    d = x.data
    top = d[:, :, r0, :][:, :, :, c0] * (1 - fr) * (1 - fc) + d[:, :, r0, :][:, :, :, c1] * (1 - fr) * fc
    bot = d[:, :, r1, :][:, :, :, c0] * fr * (1 - fc) + d[:, :, r1, :][:, :, :, c1] * fr * fc
    out = np.ascontiguousarray(top + bot)

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        rr = [(r0, 1 - fr), (r1, fr)]
        cc = [(c0, 1 - fc), (c1, fc)]
        for ri, wr in rr:
            for ci, wc in cc:
                contrib = g * wr * wc
                np.add.at(gx, (slice(None), slice(None), ri[:, None], ci[None, :]), contrib)
        return (gx,)

    return _wrap(out, (x,), grad_fn)


def batchnorm2d(x, gamma, beta, running_mean, running_var, training, momentum=0.9, eps=1e-5):
    """Per-channel batch normalization on NCHW.

    Training mode normalizes with batch statistics (population variance) and
    updates the running arrays in place: r = momentum * r + (1-momentum) * batch.
    Eval mode normalizes with the running statistics.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batchnorm2d expects NCHW, got {x.data.shape}")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(f"batchnorm2d scale/shift must have shape ({c},), got {gamma.data.shape} and {beta.data.shape}")
    dt = x.data.dtype
    if training:
        mu = x.data.mean(axis=(0, 2, 3), dtype=np.float64)
        var = ((x.data.astype(np.float64) - mu[None, :, None, None]) ** 2).mean(axis=(0, 2, 3))
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mu
        running_var *= momentum
        running_var += (1.0 - momentum) * var
        mu = mu.astype(dt)
        var = var.astype(dt)
    else:
        mu = running_mean.astype(dt)
        var = running_var.astype(dt)

    inv = 1.0 / np.sqrt(var + dt.type(eps))
    xhat = (x.data - mu[None, :, None, None]) * inv[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def grad_fn(g):
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        gbeta = g.sum(axis=(0, 2, 3))
        gxhat = g * gamma.data[None, :, None, None]
        if not training:
            return gxhat * inv[None, :, None, None], ggamma, gbeta
        n = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
        sum_gxhat = gxhat.sum(axis=(0, 2, 3))
        sum_gxhat_xhat = (gxhat * xhat).sum(axis=(0, 2, 3))
        gx = (inv[None, :, None, None] / n) * (
            n * gxhat
            - sum_gxhat[None, :, None, None]
            - xhat * sum_gxhat_xhat[None, :, None, None]
        )
        return gx, ggamma, gbeta

    return _wrap(out, (x, gamma, beta), grad_fn)
