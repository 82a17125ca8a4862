"""Minimal tape-based reverse-mode autodiff over dense numpy arrays.

Only the operator set needed by the box-supervised training pipeline is
implemented: elementwise arithmetic, min/max with deterministic tie routing,
axis reductions, conv/pool/resize/batchnorm, and a handful of pointwise
nonlinearities. Values are float32 by default; sums and means accumulate
in float64 before casting back. Gradient routing through max-like ops always
picks the first winner in row-major scan order.
"""

import contextlib
import ctypes
import functools
import itertools

import numpy as np

DEFAULT_DTYPE = np.float32
BN_MOMENTUM = 0.9  # batchnorm2d's running-statistic decay
BN_EPS = 1e-5

_node_ids = itertools.count()
_grad_enabled = True


def _pin_heap_thresholds():
    """Keep freed multi-MiB temporaries in the process heap (glibc only).

    A training step allocates and frees the same tens of MiB of temporaries
    every time. By default glibc serves blocks over 128 KiB with mmap (that
    threshold only rises after an mmapped block is freed) and returns the free
    heap top to the OS, so each step faults the same pages in again. Raising
    the mmap threshold to its 64-bit maximum and the trim threshold above it
    keeps those pages mapped for reuse. Both must be set: setting either one
    freezes the other at its default. The setting is process-wide; it changes
    no result. Returns whether it was applied.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return False
    if not (hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")):
        return False
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    mmap_set = libc.mallopt(m_mmap_threshold, 32 << 20)
    trim_set = libc.mallopt(m_trim_threshold, 64 << 20)
    return bool(mmap_set and trim_set)


HEAP_PINNED = _pin_heap_thresholds()


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
    can update parameters in place.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "_is_leaf")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.array(data, copy=True)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None
        self._is_leaf = True

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def as_tensor(value):
    return value if isinstance(value, Tensor) else Tensor(value)


def _wrap(out_data, inputs, grad_fn):
    """Wrap an op result; records a tape node iff any input is tracked. The
    grad function may return None for an input that needs no gradient."""
    out_data = np.asarray(out_data)
    requires = _grad_enabled and any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = requires
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
            g = g.astype(t.data.dtype, copy=False)
            # the first gradient is stored as is and may alias another tensor's;
            # safe because no gradient array is ever written in place
            t.grad = g if t.grad is None else t.grad + g
    for node in nodes.values():
        node.out._node = None


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _binary_grad(a, b, da, db):
    """Grad function of a binary op from the shares da(g), db(g) of the
    output gradient, each summed down to its input's shape; an input that
    needs no gradient gets None and its share is never computed."""

    def grad_fn(g):
        return (
            _unbroadcast(da(g), a.data.shape) if a.requires_grad else None,
            _unbroadcast(db(g), b.data.shape) if b.requires_grad else None,
        )

    return grad_fn


def add(a, b):
    return _wrap(a.data + b.data, (a, b), _binary_grad(a, b, lambda g: g, lambda g: g))


def sub(a, b):
    return _wrap(a.data - b.data, (a, b), _binary_grad(a, b, lambda g: g, lambda g: -g))


def mul(a, b):
    return _wrap(a.data * b.data, (a, b), _binary_grad(a, b, lambda g: g * b.data, lambda g: g * a.data))


def div(a, b):
    return _wrap(a.data / b.data, (a, b), _binary_grad(a, b, lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data)))


def affine(x, scale, shift):
    """scale * x + shift with python-float coefficients."""
    scale = float(scale)
    shift = float(shift)
    out = (x.data * x.data.dtype.type(scale)) + x.data.dtype.type(shift)

    def grad_fn(g):
        return (g * scale,)

    return _wrap(out, (x,), grad_fn)


def _pick_grad(a, b, take_a):
    """Grad function of an elementwise pick: each output's gradient goes to
    the input it was taken from."""
    return _binary_grad(a, b, lambda g: np.where(take_a, g, 0.0), lambda g: np.where(take_a, 0.0, g))


def minimum(a, b):
    """Elementwise min; on ties the gradient routes to the first argument."""
    take_a = a.data <= b.data
    return _wrap(np.where(take_a, a.data, b.data), (a, b), _pick_grad(a, b, take_a))


def maximum(a, b):
    """Elementwise max; on ties the gradient routes to the first argument."""
    take_a = a.data >= b.data
    return _wrap(np.where(take_a, a.data, b.data), (a, b), _pick_grad(a, b, take_a))


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
    """1 / (1 + exp(-x)), computed from exp(-|x|) so that exp never overflows."""
    d = x.data
    ex = np.exp(-np.abs(d))
    den = 1.0 + ex
    out = np.where(d >= 0, 1.0 / den, ex / den)

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


def _spread(g, x, axis):
    """Broadcast a reduction's gradient back over the reduced axes of x."""
    if axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=True)


def tsum(x, axis=None):
    """Sum over `axis` (an int or tuple; every axis when None)."""
    out = np.asarray(x.data.sum(axis=axis, dtype=np.float64), dtype=x.data.dtype)

    def grad_fn(g):
        return (_spread(g, x, axis),)

    return _wrap(out, (x,), grad_fn)


def tmean(x, axis=None):
    """Mean over `axis` (an int or tuple; every axis when None)."""
    total = x.data.sum(axis=axis, dtype=np.float64)
    n = x.data.size // np.size(total)
    out = np.asarray(total / n, dtype=x.data.dtype)

    def grad_fn(g):
        return (_spread(g / n, x, axis),)

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


def _phase_cut(n, p, s, a, size):
    """(input, phase-image) slices along one axis of length n: the inputs i
    with (i + p) % s == a sit at (i + p) // s, kept while that is < size."""
    i0 = (a - p) % s
    q0 = (i0 + p) // s
    m = max(0, min(size - q0, -(-(n - i0) // s)))
    return slice(i0, i0 + s * m, s), slice(q0, q0 + m)


def _tap_product(a, b):
    """a @ b for a (m, k) matrix and a (B, k, n) stack, as conv2d's per-tap
    paths take it; at k == 1 (a 1x1 conv from or to one channel) the broadcast
    product a * b, which numpy runs about 20x faster. a * b keeps a product's
    -0.0 where matmul gives 0.0; added into conv2d's zero-started
    accumulators, the two agree bit for bit."""
    return a * b if a.shape[1] == 1 else a @ b


@functools.lru_cache(maxsize=256)
def _conv_geometry(h, wd, k1, k2, s, p, d):
    """conv2d's shape-only set-up, or None when the output would be empty:
    (oh, ow, wrap, hp, wp, n, phases, cuts, xf_is_x, taps, phase_taps), where
    taps lists (u, v, phase, flat offset) in row-major order and phase_taps
    the tap indices that read each phase."""
    oh = (h + 2 * p - d * (k1 - 1) - 1) // s + 1
    ow = (wd + 2 * p - d * (k2 - 1) - 1) // s + 1
    if oh < 1 or ow < 1:
        return None
    # wp - ow wrap columns are dropped; when there are any, the spare phase row keeps
    # every tap slice in bounds
    wrap = d * (k2 - 1) // s
    hp, wp = oh + d * (k1 - 1) // s + (wrap > 0), ow + wrap
    phases = tuple(sorted({(u * d % s, v * d % s) for u in range(k1) for v in range(k2)}))
    cuts = tuple((_phase_cut(h, p, s, a, hp), _phase_cut(wd, p, s, b, wp)) for a, b in phases)
    # at stride 1 and pad 0 the one phase image may be the input itself
    xf_is_x = s == 1 and p == 0 and (hp, wp) == (h, wd)
    taps = tuple((u, v, phases.index((u * d % s, v * d % s)), (u * d // s) * wp + v * d // s) for u in range(k1) for v in range(k2))
    phase_taps = tuple(tuple(t for t, tap in enumerate(taps) if tap[2] == i) for i in range(len(phases)))
    return oh, ow, wrap, hp, wp, oh * wp, phases, cuts, xf_is_x, taps, phase_taps


def conv2d(x, w, bias=None, stride=1, pad=0, dilation=1):
    """2-d cross-correlation, kernel spatial dims odd. Polyphase flat-row GEMM: the padded
    input splits into s x s phase images, each flattened to hp*wp; tap (u, v) reads phase
    ((u*d) % s, (v*d) % s) at flat offset (u*d // s)*wp + (v*d) // s, into (B, Cout, oh*wp).

    A multi-tap kernel gathers its taps on the side with fewer channels and makes one
    product: the forward stacks the tap slices into (B, taps*Cin, n) when Cin <= Cout
    (im2col), the input gradient stacks the shifted output gradient into
    (B, taps*Cout, hp*wp) per phase when Cout <= Cin. Otherwise, and for 1x1 kernels,
    each tap is its own product, summed."""
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d expects NCHW input and OIHW kernel, got {x.data.shape} and {w.data.shape}")
    bsz, cin, h, wd = x.data.shape
    cout, cink, k1, k2 = w.data.shape
    if cin != cink:
        raise ShapeError(f"conv2d channel mismatch: input {x.data.shape} vs kernel {w.data.shape}")
    if k1 % 2 == 0 or k2 % 2 == 0:
        raise ShapeError(f"conv2d kernel spatial dims must be odd, got {w.data.shape}")
    s, p, d = int(stride), int(pad), int(dilation)
    geometry = _conv_geometry(h, wd, k1, k2, s, p, d)
    if geometry is None:
        raise ShapeError(f"conv2d output would be empty: input {x.data.shape}, kernel {w.data.shape}, stride {s}, pad {p}, dilation {d}")
    oh, ow, wrap, hp, wp, n, phases, cuts, xf_is_x, taps, phase_taps = geometry
    ntap = len(taps)
    if xf_is_x:
        xf = x.data.reshape(bsz, 1, cin, h * wd)
    else:
        xf = np.zeros((bsz, len(phases), cin, hp, wp), dtype=x.data.dtype)
        for i, ((ri, rq), (ci, cq)) in enumerate(cuts):
            xf[:, i, :, rq, cq] = x.data[:, :, ri, ci]
        xf = xf.reshape(bsz, len(phases), cin, hp * wp)
    if ntap > 1 and cin <= cout:
        cols = np.empty((bsz, ntap, cin, n), dtype=x.data.dtype)
        for t, (u, v, i, off) in enumerate(taps):
            cols[:, t] = xf[:, i, :, off : off + n]
        acc = w.data.transpose(0, 2, 3, 1).reshape(cout, ntap * cin) @ cols.reshape(bsz, ntap * cin, n)
    else:
        acc = np.zeros((bsz, cout, n), dtype=x.data.dtype)
        for u, v, i, off in taps:
            acc += _tap_product(w.data[:, :, u, v], xf[:, i, :, off : off + n])
    out = np.ascontiguousarray(acc.reshape(bsz, cout, oh, wp)[..., :ow])
    if bias is not None:
        out = out + bias.data.reshape(1, cout, 1, 1)

    inputs = (x, w) if bias is None else (x, w, bias)

    def grad_fn(g):
        if wrap:
            gf = np.zeros((bsz, cout, oh, wp), dtype=g.dtype)
            gf[..., :ow] = g
            gf = gf.reshape(bsz, cout, n)
        else:
            gf = g.reshape(bsz, cout, n)
        gw = np.empty_like(w.data)
        for u, v, i, off in taps:
            gw[:, :, u, v] = (gf @ xf[:, i, :, off : off + n].transpose(0, 2, 1)).sum(axis=0)
        gbias = None if bias is None else g.sum(axis=(0, 2, 3))
        if not x.requires_grad:
            return None, gw, gbias
        # gxf[i]: the gradient of phase image i, (B, Cin, hp*wp)
        if ntap > 1 and cout <= cin:
            # tap t adds w_t^T gf shifted by its offset: each phase stacks its
            # taps' windows of gf zero-padded in front by the largest offset
            top = taps[-1][3]
            gpad = np.zeros((bsz, cout, top + hp * wp), dtype=g.dtype)
            gpad[:, :, top : top + n] = gf
            wt = w.data.transpose(1, 2, 3, 0).reshape(cin, ntap, cout)
            gxf = []
            for ts in phase_taps:
                shifted = np.empty((bsz, len(ts), cout, hp * wp), dtype=g.dtype)
                for j, t in enumerate(ts):
                    shifted[:, j] = gpad[:, :, top - taps[t][3] : top - taps[t][3] + hp * wp]
                gxf.append(wt[:, list(ts)].reshape(cin, len(ts) * cout) @ shifted.reshape(bsz, len(ts) * cout, hp * wp))
        else:
            gxf = np.zeros_like(xf)
            for u, v, i, off in taps:
                gxf[:, i, :, off : off + n] += _tap_product(w.data[:, :, u, v].T, gf)
            gxf = [gxf[:, i] for i in range(len(phases))]
        if xf_is_x:
            gx = gxf[0].reshape(x.data.shape)
        else:
            gx = np.zeros_like(x.data)
            for gp, ((ri, rq), (ci, cq)) in zip(gxf, cuts):
                gx[:, :, ri, ci] = gp.reshape(bsz, cin, hp, wp)[:, :, rq, cq]
        return gx, gw, gbias

    return _wrap(out, inputs, grad_fn)


def maxpool2d(x):
    """2x2 max pool, stride 2. Odd spatial dims are padded to even with -inf.
    Gradient goes to the first argmax in row-major window order; a window
    holding NaN outputs NaN and sends its gradient to its first NaN. A window
    whose maximum is zero of both signs may output either zero."""
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d expects NCHW, got {x.data.shape}")
    h, w = x.data.shape[2:]
    xd = x.data
    if h % 2 or w % 2:
        xd = np.pad(xd, ((0, 0), (0, 0), (0, h % 2), (0, w % 2)), constant_values=-np.inf)
    corners = ((0, 0), (0, 1), (1, 0), (1, 1))
    a, b, c, d = (xd[..., i::2, j::2] for i, j in corners)
    out = np.maximum(np.maximum(a, b), np.maximum(c, d))

    def grad_fn(g):
        gx = np.empty_like(xd)
        # each corner in turn takes the gradient of the windows it wins and
        # passes the rest on; the last corner takes what is left
        rest = g
        for (i, j), v in zip(corners[:3], (a, b, c)):
            won = (v == out) | np.isnan(v)
            gx[..., i::2, j::2] = np.where(won, rest, 0.0)
            rest = np.where(won, 0.0, rest)
        gx[..., 1::2, 1::2] = rest
        return (np.ascontiguousarray(gx[..., :h, :w]),)

    return _wrap(out, (x,), grad_fn)


@functools.lru_cache(maxsize=64)
def _interp_matrix(n_in, n_out, dtype):
    """(n_out, n_in) align-corners weights, read-only: output i samples input
    position i * (n_in - 1) / (n_out - 1), so the endpoints map exactly; a
    single output takes input 0. Equal sizes give the exact identity."""
    step = (n_in - 1) / (n_out - 1) if n_out > 1 else 0.0
    src = np.arange(n_out)[:, None] * step
    m = np.maximum(0.0, 1.0 - np.abs(src - np.arange(n_in)[None, :])).astype(dtype)
    m.flags.writeable = False
    return m


def bilinear_resize(x, out_h, out_w):
    """Align-corners bilinear resampling of an NCHW tensor: out = R x C^T."""
    if x.data.ndim != 4:
        raise ShapeError(f"bilinear_resize expects NCHW, got {x.data.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"bilinear_resize target must be >= 1, got ({out_h}, {out_w})")
    r = _interp_matrix(x.data.shape[2], out_h, x.data.dtype)
    c = _interp_matrix(x.data.shape[3], out_w, x.data.dtype)
    out = r @ x.data @ c.T

    def grad_fn(g):
        return (r.T @ g @ c,)

    return _wrap(out, (x,), grad_fn)


def batchnorm2d(x, gamma, beta, running_mean, running_var, training):
    """Per-channel batch normalization on NCHW.

    Training mode normalizes with batch statistics (population variance) and
    updates the running arrays in place: r = BN_MOMENTUM * r + (1 - BN_MOMENTUM) * batch.
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
        sq = x.data.astype(np.float64)
        sq -= mu[None, :, None, None]
        np.square(sq, out=sq)
        var = sq.mean(axis=(0, 2, 3))
        del sq
        running_mean *= BN_MOMENTUM
        running_mean += (1.0 - BN_MOMENTUM) * mu
        running_var *= BN_MOMENTUM
        running_var += (1.0 - BN_MOMENTUM) * var
        mu = mu.astype(dt)
        var = var.astype(dt)
    else:
        mu = running_mean.astype(dt)
        var = running_var.astype(dt)

    # temporaries below are reused in place, in the operation order of
    # gamma * (x - mu) * inv + beta and its gradient
    inv = (1.0 / np.sqrt(var + dt.type(BN_EPS)))[None, :, None, None]
    xhat = x.data - mu[None, :, None, None]
    xhat *= inv
    out = xhat * gamma.data[None, :, None, None]
    out += beta.data[None, :, None, None]

    def grad_fn(g):
        t = g * xhat
        ggamma = t.sum(axis=(0, 2, 3))
        gbeta = g.sum(axis=(0, 2, 3))
        gx = g * gamma.data[None, :, None, None]
        if not training:
            gx *= inv
            return gx, ggamma, gbeta
        n = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
        sum_gxhat = gx.sum(axis=(0, 2, 3))
        np.multiply(gx, xhat, out=t)
        sum_gxhat_xhat = t.sum(axis=(0, 2, 3))
        np.multiply(xhat, sum_gxhat_xhat[None, :, None, None], out=t)
        # gx = (inv / n) * (n * gxhat - sum_gxhat - xhat * sum_gxhat_xhat)
        gx *= n
        gx -= sum_gxhat[None, :, None, None]
        gx -= t
        gx *= inv / n
        return gx, ggamma, gbeta

    return _wrap(out, (x, gamma, beta), grad_fn)
