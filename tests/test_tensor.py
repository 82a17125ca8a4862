import itertools

import numpy as np
import pytest

from weakbox_kit import tensor as T


def test_conv2d_identity_kernel():
    x = T.Tensor(np.random.default_rng(0).uniform(-1, 1, (1, 1, 4, 4)).astype(np.float32))
    k = T.Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
    out = T.conv2d(x, k, None, 1, 0, 1)
    assert np.array_equal(out.data, x.data)


def test_conv2d_zero_kernel():
    x = T.Tensor(np.random.default_rng(1).uniform(-1, 1, (2, 3, 5, 5)).astype(np.float32))
    k = T.Tensor(np.zeros((4, 3, 3, 3), dtype=np.float32))
    out = T.conv2d(x, k, None, 1, 1, 1)
    assert not out.data.any()


def test_conv2d_ones_kernel_counts_taps():
    x = T.Tensor(np.ones((1, 1, 5, 5), dtype=np.float32))
    k = T.Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    out = T.conv2d(x, k, None, 1, 1, 1)
    assert out.data[0, 0, 2, 2] == 9.0
    assert out.data[0, 0, 0, 0] == 4.0
    assert out.data[0, 0, 0, 2] == 6.0


def test_conv2d_rejects_even_kernel():
    x = T.Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
    k = T.Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
    with pytest.raises(T.ShapeError, match="odd"):
        T.conv2d(x, k, None, 1, 0, 1)


def test_conv2d_rejects_channel_mismatch():
    x = T.Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
    k = T.Tensor(np.zeros((1, 3, 3, 3), dtype=np.float32))
    with pytest.raises(T.ShapeError) as err:
        T.conv2d(x, k, None, 1, 0, 1)
    assert "(1, 2, 4, 4)" in str(err.value) and "(1, 3, 3, 3)" in str(err.value)


def _conv2d_oracle(x, w, bias, g, stride, pad, dilation):
    """Direct cross-correlation, one output pixel at a time, in float64.
    Returns the output and, for upstream gradient g, (gx, gw, gbias)."""
    s, p, d = stride, pad, dilation
    k1, k2 = w.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    oh = (xp.shape[2] - d * (k1 - 1) - 1) // s + 1
    ow = (xp.shape[3] - d * (k2 - 1) - 1) // s + 1
    out = np.zeros((x.shape[0], w.shape[0], oh, ow))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for i in range(oh):
        for j in range(ow):
            rows = slice(i * s, i * s + d * (k1 - 1) + 1, d)
            cols = slice(j * s, j * s + d * (k2 - 1) + 1, d)
            out[:, :, i, j] = np.einsum("bcuv,ocuv->bo", xp[:, :, rows, cols], w) + bias
            gw += np.einsum("bo,bcuv->ocuv", g[:, :, i, j], xp[:, :, rows, cols])
            gxp[:, :, rows, cols] += np.einsum("bo,ocuv->bcuv", g[:, :, i, j], w)
    return out, gxp[:, :, p : p + x.shape[2], p : p + x.shape[3]], gw, g.sum(axis=(0, 2, 3))


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_conv2d_matches_direct_oracle(dtype, tol):
    rng = np.random.default_rng(6)
    # a multi-tap kernel stacks its taps in the forward when cin <= cout and in
    # the input gradient when cout <= cin: (3, 4) and (1, 4) stack the forward,
    # (4, 3) and (3, 1) the input gradient, the tie (4, 4) both; 1x1 kernels
    # take the per-tap product, at an inner dimension of 1 in the forward of
    # 1 -> 4 and in the input gradient of 3 -> 1
    channels = ((3, 4), (1, 4), (3, 1), (4, 3), (4, 4))
    configs = itertools.product((1, 2, 3), (0, 1, 2), (1, 2), ((1, 1), (3, 3), (5, 5), (3, 1)), (1, 4), channels)
    for stride, pad, dilation, (k1, k2), bsz, (cin, cout) in configs:
        # non-square, and large enough for the widest dilated 5x5 at pad 0
        x = rng.uniform(-1, 1, (bsz, cin, 11, 10))
        w = rng.uniform(-1, 1, (cout, cin, k1, k2))
        bias = rng.uniform(-1, 1, cout)
        tx, tw, tb = (T.Tensor(a, dtype=dtype, requires_grad=True) for a in (x, w, bias))
        # a one-channel bias gradient is a single float32 sum, whose cancellation
        # an error relative to its own size cannot bound: the c -> 1 pair runs
        # without a bias, which covers that path too
        with_bias = cout > 1
        out = T.conv2d(tx, tw, bias=tb if with_bias else None, stride=stride, pad=pad, dilation=dilation)
        g = rng.uniform(-1, 1, out.data.shape)
        T.backward(T.tsum(T.mul(out, T.Tensor(g, dtype=dtype))))
        # the oracle sees the values the kernel saw, rounded to dtype
        wants = _conv2d_oracle(*(a.astype(dtype).astype(np.float64) for a in (x, w, bias * with_bias, g)), stride, pad, dilation)
        checked = list(zip(("out", "gx", "gw", "gbias"), (out.data, tx.grad, tw.grad, tb.grad), wants))
        for name, got, want in checked if with_bias else checked[:3]:
            assert got.dtype == dtype and got.shape == want.shape, (name, stride, pad, dilation, k1, k2, bsz, cin, cout)
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= tol, (name, stride, pad, dilation, k1, k2, bsz, cin, cout, err)


def test_conv2d_interleaved_geometries_match_oracle():
    # conv2d's set-up is cached per shape: alternate shapes that share some of
    # the key (same H with another W, the same shape with another stride or
    # dilation) and come back to earlier ones
    rng = np.random.default_rng(16)
    geometries = [
        ((2, 3, 11, 10), (4, 3, 3, 3), 1, 1, 1),
        ((2, 3, 11, 12), (4, 3, 3, 3), 1, 1, 1),
        ((2, 3, 11, 10), (4, 3, 3, 3), 2, 1, 1),
        ((2, 3, 11, 10), (4, 3, 3, 3), 1, 1, 2),
        ((2, 4, 11, 10), (3, 4, 3, 3), 1, 1, 1),
        ((2, 3, 11, 10), (4, 3, 3, 3), 1, 0, 1),
        ((2, 3, 11, 12), (4, 3, 3, 3), 2, 1, 1),
    ]
    for x_shape, w_shape, stride, pad, dilation in geometries * 2:
        x, w, bias = rng.uniform(-1, 1, x_shape), rng.uniform(-1, 1, w_shape), rng.uniform(-1, 1, w_shape[0])
        tx, tw, tb = (T.Tensor(a, dtype=np.float64, requires_grad=True) for a in (x, w, bias))
        out = T.conv2d(tx, tw, bias=tb, stride=stride, pad=pad, dilation=dilation)
        g = rng.uniform(-1, 1, out.data.shape)
        T.backward(T.tsum(T.mul(out, T.Tensor(g, dtype=np.float64))))
        wants = _conv2d_oracle(x, w, bias, g, stride, pad, dilation)
        for got, want in zip((out.data, tx.grad, tw.grad, tb.grad), wants):
            assert got.shape == want.shape, (x_shape, w_shape, stride, pad, dilation)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (x_shape, w_shape, stride, pad, dilation)


def test_maxpool_single_window():
    x = T.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
    out = T.maxpool2d(x)
    assert out.data.tolist() == [[[[4.0]]]]


def test_maxpool_constant_halves_resolution():
    x = T.Tensor(np.full((1, 2, 6, 8), 3.5, dtype=np.float32))
    out = T.maxpool2d(x)
    assert out.data.shape == (1, 2, 3, 4)
    assert np.all(out.data == 3.5)


def test_maxpool_gradient_routes_to_argmax():
    x = T.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32), requires_grad=True)
    T.backward(T.tsum(T.maxpool2d(x)))
    assert x.grad.tolist() == [[[[0.0, 0.0], [0.0, 1.0]]]]


def test_maxpool_tie_routes_first_in_row_major():
    x = T.Tensor(np.full((1, 1, 2, 2), 7.0, dtype=np.float32), requires_grad=True)
    T.backward(T.tsum(T.maxpool2d(x)))
    assert x.grad.tolist() == [[[[1.0, 0.0], [0.0, 0.0]]]]


def test_maxpool_odd_input_pads():
    x = T.Tensor(np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3))
    out = T.maxpool2d(x)
    assert out.data.shape == (1, 1, 2, 2)
    assert out.data[0, 0, 1, 1] == 8.0


def test_interp_matrix_is_read_only():
    # the cached weights are shared by every resize of the same size
    m = T._interp_matrix(5, 9, np.dtype(np.float32))
    assert m is T._interp_matrix(5, 9, np.dtype(np.float32))
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 2.0


def test_bilinear_constant():
    x = T.Tensor(np.full((1, 1, 3, 3), 2.25, dtype=np.float32))
    out = T.bilinear_resize(x, 7, 5)
    assert out.data.shape == (1, 1, 7, 5)
    assert np.allclose(out.data, 2.25)


def test_bilinear_align_corners_midpoint():
    x = T.Tensor(np.array([[[[0.0, 2.0]]]], dtype=np.float32))
    out = T.bilinear_resize(x, 1, 3)
    assert out.data[0, 0, 0].tolist() == [0.0, 1.0, 2.0]


def test_bilinear_identity_same_size():
    rng = np.random.default_rng(2)
    for shape in ((2, 3, 5, 4), (8, 1, 64, 64), (1, 2, 1, 1), (2, 1, 1, 7)):
        for dtype in (np.float32, np.float64):
            x = T.Tensor(rng.uniform(-1, 1, shape).astype(dtype))
            out = T.bilinear_resize(x, shape[2], shape[3])
            assert out.data.dtype == dtype
            assert np.array_equal(out.data, x.data)


# (n_in, n_out) pairs the model resamples through, plus the one-pixel edges
RESIZE_PAIRS = ((64, 48), (48, 64), (16, 64), (12, 48), (8, 16), (16, 32), (32, 64), (1, 5), (5, 1))


def _bilinear_oracle(x, out_h, out_w):
    """Align-corners bilinear resampling, one output pixel at a time."""

    def taps(i, n_in, n_out):
        pos = i * (n_in - 1) / (n_out - 1) if n_out > 1 else 0.0
        lo = min(int(np.floor(pos)), n_in - 1)
        return lo, min(lo + 1, n_in - 1), pos - lo

    h, w = x.shape[2:]
    out = np.zeros(x.shape[:2] + (out_h, out_w))
    for i in range(out_h):
        r0, r1, fr = taps(i, h, out_h)
        for j in range(out_w):
            c0, c1, fc = taps(j, w, out_w)
            top = (1 - fc) * x[:, :, r0, c0] + fc * x[:, :, r0, c1]
            bot = (1 - fc) * x[:, :, r1, c0] + fc * x[:, :, r1, c1]
            out[:, :, i, j] = (1 - fr) * top + fr * bot
    return out


def test_bilinear_matches_per_pixel_oracle():
    rng = np.random.default_rng(4)
    for n_in, n_out in RESIZE_PAIRS:
        # rows go n_in -> n_out, columns the other way round
        x = rng.uniform(-1, 1, (2, 2, n_in, n_out))
        want = _bilinear_oracle(x, n_out, n_in)
        out64 = T.bilinear_resize(T.Tensor(x, dtype=np.float64), n_out, n_in).data
        out32 = T.bilinear_resize(T.Tensor(x, dtype=np.float32), n_out, n_in).data
        assert out64.dtype == np.float64 and out32.dtype == np.float32
        assert np.allclose(out64, want, rtol=0, atol=1e-12), (n_in, n_out)
        assert np.allclose(out32, want, rtol=0, atol=1e-6), (n_in, n_out)


def test_bilinear_backward_is_adjoint():
    # <resize(X), G> == <X, resize^T(G)> for the gradient the tape returns
    rng = np.random.default_rng(5)
    for n_in, n_out in RESIZE_PAIRS:
        x = T.Tensor(rng.uniform(-1, 1, (2, 3, n_in, n_out)), dtype=np.float64, requires_grad=True)
        g = rng.uniform(-1, 1, (2, 3, n_out, n_in))
        out = T.bilinear_resize(x, n_out, n_in)
        T.backward(T.tsum(T.mul(out, T.Tensor(g, dtype=np.float64))))
        lhs = float((out.data * g).sum())
        rhs = float((x.data * x.grad).sum())
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs), (n_in, n_out)


def test_reduce_max_examples():
    g = np.array([[0, 1, 0], [0, 0, 0], [0, 1, 1]], dtype=np.float32)
    assert T.reduce_max(T.Tensor(g), axis=0).data.tolist() == [0.0, 1.0, 1.0]
    assert T.reduce_max(T.Tensor(g), axis=1).data.tolist() == [1.0, 0.0, 1.0]
    zero = T.Tensor(np.zeros((3, 3), dtype=np.float32))
    assert not T.reduce_max(zero, axis=0).data.any()


def test_reduce_max_gradient_first_argmax():
    g = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.float32)
    x = T.Tensor(g, requires_grad=True)
    T.backward(T.tsum(T.reduce_max(x, axis=1)))
    # row 0 ties: first column wins; row 1 max at column 1
    assert x.grad.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_backward_sum_ones():
    x = T.Tensor(np.random.default_rng(3).uniform(-2, 2, (3, 4)).astype(np.float32), requires_grad=True)
    T.backward(T.tsum(x))
    assert np.all(x.grad == 1.0)


def test_backward_sigmoid_at_zero():
    x = T.Tensor(0.0, requires_grad=True)
    T.backward(T.sigmoid(x))
    assert abs(float(x.grad) - 0.25) < 1e-7


def test_backward_square_at_three():
    x = T.Tensor(3.0, requires_grad=True)
    T.backward(T.mul(x, x))
    assert float(x.grad) == 6.0


def test_backward_off_tape_raises():
    x = T.Tensor(1.0, requires_grad=False)
    with pytest.raises(T.TapeError):
        T.backward(x)


def test_backward_twice_raises():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    loss = T.tsum(x)
    T.backward(loss)
    with pytest.raises(T.TapeError):
        T.backward(loss)


def test_backward_needs_scalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(T.ShapeError):
        T.backward(T.mul(x, x))


def test_backward_linearity():
    rng = np.random.default_rng(4)
    base = rng.uniform(-2, 2, (4, 4)).astype(np.float32)
    a, b = 1.7, -0.6

    def grads(scale_a, scale_b):
        x = T.Tensor(base, requires_grad=True)
        l1 = T.tsum(T.sigmoid(x))
        l2 = T.tmean(T.mul(x, x))
        T.backward(T.add(T.affine(l1, scale_a, 0.0), T.affine(l2, scale_b, 0.0)))
        return x.grad.copy()

    combined = grads(a, b)
    ga = grads(1.0, 0.0)
    gb = grads(0.0, 1.0)
    assert np.allclose(combined, a * ga + b * gb, atol=1e-6)


@pytest.mark.parametrize("axis", [None, 0, 2, (-2, -1), (0, 1, 2)])
def test_sum_and_mean_over_axis_match_numpy(axis):
    x = np.random.default_rng(3).uniform(-1, 1, (2, 3, 4))
    for op, ref in ((T.tsum, np.sum), (T.tmean, np.mean)):
        t = T.Tensor(x, requires_grad=True, dtype=np.float64)
        out = op(t, axis=axis)
        assert out.data.shape == np.shape(ref(x, axis=axis))
        assert np.allclose(out.data, ref(x, axis=axis), rtol=1e-12, atol=0)
        w = np.random.default_rng(4).uniform(-1, 1, out.data.shape)
        T.backward(T.tsum(T.mul(out, T.Tensor(w, dtype=np.float64))))
        n = x.size // w.size if op is T.tmean else 1
        spread = w if axis is None else np.expand_dims(w, axis)
        assert np.allclose(t.grad, np.broadcast_to(spread / n, x.shape), rtol=1e-12, atol=0)


def test_later_gradient_leaves_aliased_grads_alone():
    # add hands the same gradient array to both inputs, so x.grad and c.grad
    # start out as one array; c's second gradient (from m, recorded first and
    # so swept last) must not change x.grad or s.grad
    x = T.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True, dtype=np.float64)
    c = T.Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True, dtype=np.float64)
    w = T.Tensor(np.array([3.0, 4.0, 5.0]), dtype=np.float64)
    m = T.mul(c, w)
    s = T.add(x, c)
    T.backward(T.tsum(T.add(T.affine(s, 2.0, 0.0), m)))
    assert np.array_equal(x.grad, [2.0, 2.0, 2.0])
    assert np.array_equal(s.grad, [2.0, 2.0, 2.0])
    assert np.array_equal(c.grad, [5.0, 6.0, 7.0])


def test_determinism_bit_identical():
    def run():
        x = T.Tensor(np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4), requires_grad=True)
        y = T.sigmoid(T.mul(x, T.affine(x, 0.5, 0.25)))
        loss = T.tmean(y)
        T.backward(loss)
        return y.data.copy(), x.grad.copy()

    d1, g1 = run()
    d2, g2 = run()
    assert np.array_equal(d1, d2) and np.array_equal(g1, g2)


def test_minimum_tie_routes_to_first():
    a = T.Tensor([2.0, 1.0], requires_grad=True)
    b = T.Tensor([2.0, 3.0], requires_grad=True)
    T.backward(T.tsum(T.minimum(a, b)))
    assert a.grad.tolist() == [1.0, 1.0]
    assert b.grad.tolist() == [0.0, 0.0]


def test_clamp_gradient_inclusive_at_bounds():
    x = T.Tensor([-2.0, -1.0, 0.0, 1.0, 2.0], requires_grad=True)
    T.backward(T.tsum(T.clamp(x, -1.0, 1.0)))
    assert x.grad.tolist() == [0.0, 1.0, 1.0, 1.0, 0.0]


def test_op_outputs_are_read_only():
    x = T.Tensor([1.0, 2.0])
    out = T.affine(x, 2.0, 0.0)
    with pytest.raises(ValueError):
        out.data[0] = 5.0


def test_no_grad_blocks_tape():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        y = T.tsum(T.mul(x, x))
    assert y._node is None and not y.requires_grad


def test_batchnorm_running_stats_update_and_eval():
    rng = np.random.default_rng(5)
    x = rng.normal(2.0, 3.0, (4, 2, 6, 6)).astype(np.float32)
    gamma = T.Tensor(np.ones(2, dtype=np.float32))
    beta = T.Tensor(np.zeros(2, dtype=np.float32))
    rm = np.zeros(2, dtype=np.float32)
    rv = np.ones(2, dtype=np.float32)
    out = T.batchnorm2d(T.Tensor(x), gamma, beta, rm, rv, training=True)
    # normalized output has ~zero mean, unit variance per channel
    assert abs(out.data[:, 0].mean()) < 1e-4
    assert abs(out.data[:, 0].std() - 1.0) < 1e-3
    # momentum 0.9 update pulls running stats toward the batch stats
    assert abs(rm[0] - 0.1 * x[:, 0].mean()) < 1e-4
    # eval mode uses the running stats, not the batch stats
    out_eval = T.batchnorm2d(T.Tensor(x), gamma, beta, rm.copy(), rv.copy(), training=False)
    expect = (x[:, 0] - rm[0]) / np.sqrt(rv[0] + 1e-5)
    assert np.allclose(out_eval.data[:, 0], expect, atol=1e-4)


# Reference kernels: the plain-indexing maxpool2d, sigmoid and batchnorm2d the
# strided-view and in-place kernels replaced. Each returns the output and the
# input gradients for an upstream gradient g; the kernels must match bit for bit.


def _maxpool2d_reference(x, g):
    bsz, c, h, w = x.shape
    ph, pw = h % 2, w % 2
    xd = x
    if ph or pw:
        xd = np.pad(xd, ((0, 0), (0, 0), (0, ph), (0, pw)), constant_values=-np.inf)
    hh, ww = xd.shape[2] // 2, xd.shape[3] // 2
    windows = xd.reshape(bsz, c, hh, 2, ww, 2).transpose(0, 1, 2, 4, 3, 5).reshape(bsz, c, hh, ww, 4)
    idx = np.argmax(windows, axis=-1)
    out = np.ascontiguousarray(np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0])
    gwin = np.zeros_like(windows)
    np.put_along_axis(gwin, idx[..., None], g[..., None], axis=-1)
    gxp = gwin.reshape(bsz, c, hh, ww, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(bsz, c, hh * 2, ww * 2)
    return out, (np.ascontiguousarray(gxp[:, :, :h, :w]),)


def _sigmoid_reference(d, g):
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out, (g * out * (1.0 - out),)


def _batchnorm2d_reference(x, gamma, beta, running_mean, running_var, training, g, momentum=0.9, eps=1e-5):
    dt = x.dtype
    if training:
        mu = x.mean(axis=(0, 2, 3), dtype=np.float64)
        var = ((x.astype(np.float64) - mu[None, :, None, None]) ** 2).mean(axis=(0, 2, 3))
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
    xhat = (x - mu[None, :, None, None]) * inv[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    ggamma = (g * xhat).sum(axis=(0, 2, 3))
    gbeta = g.sum(axis=(0, 2, 3))
    gxhat = g * gamma[None, :, None, None]
    if not training:
        return out, (gxhat * inv[None, :, None, None], ggamma, gbeta)
    n = x.shape[0] * x.shape[2] * x.shape[3]
    sum_gxhat = gxhat.sum(axis=(0, 2, 3))
    sum_gxhat_xhat = (gxhat * xhat).sum(axis=(0, 2, 3))
    gx = (inv[None, :, None, None] / n) * (n * gxhat - sum_gxhat[None, :, None, None] - xhat * sum_gxhat_xhat[None, :, None, None])
    return out, (gx, ggamma, gbeta)


def _assert_same(got, want, signed_zero=True):
    """Equal dtype, shape, values and NaN positions; with signed_zero, also
    the sign of every non-NaN value (so -0.0 and 0.0 differ)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], want[~nan])
    if signed_zero:
        assert np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))


def _run_op(op, arrays, g):
    """Output and input gradients of a tape op, the gradients for upstream g."""
    inputs = [T.Tensor(a, requires_grad=True) for a in arrays]
    out = op(*inputs)
    return out.data, out._node.grad_fn(g)


def _special_draw(rng, shape):
    """float32 draw mixing ties (small integers), +-inf, -0.0 and +-(87..104),
    where float32 exp underflows."""
    x = rng.integers(-3, 4, shape).astype(np.float32)
    pick = rng.integers(0, 6, shape)
    big, normal = pick == 1, pick == 2
    x[big] = rng.uniform(87, 104, big.sum()) * rng.choice((-1, 1), big.sum())
    x[normal] = rng.normal(0, 3, normal.sum())
    x[pick == 3] = -0.0
    x[(pick == 4) & (rng.uniform(size=shape) < 0.2)] = np.inf
    x[(pick == 5) & (rng.uniform(size=shape) < 0.2)] = -np.inf
    return x


@pytest.mark.parametrize("bsz", [1, 4])
def test_maxpool2d_matches_reference_kernel(bsz):
    rng = np.random.default_rng(11)
    for h, w in ((2, 2), (6, 8), (7, 8), (6, 9), (5, 5), (1, 3), (32, 32)):
        for x in (_special_draw(rng, (bsz, 3, h, w)), rng.normal(0, 1, (bsz, 3, h, w)).astype(np.float32)):
            g = rng.uniform(-1, 1, (bsz, 3, (h + 1) // 2, (w + 1) // 2)).astype(np.float32)
            out, grads = _run_op(T.maxpool2d, [x], g)
            want_out, want_grads = _maxpool2d_reference(x, g)
            # a window whose maximum is a zero of both signs may give either zero
            _assert_same(out, want_out, signed_zero=False)
            _assert_same(grads[0], want_grads[0])


def test_maxpool2d_nan_window_routes_to_first_nan():
    rng = np.random.default_rng(12)
    x = rng.normal(0, 1, (2, 2, 6, 7)).astype(np.float32)
    x[rng.uniform(size=x.shape) < 0.15] = np.nan
    x[0, 0, 0:2, 0:2] = [[1.0, np.nan], [np.nan, 2.0]]
    g = rng.uniform(-1, 1, (2, 2, 3, 4)).astype(np.float32)
    out, (gx,) = _run_op(T.maxpool2d, [x], g)
    want_out, (want_gx,) = _maxpool2d_reference(x, g)
    _assert_same(out, want_out, signed_zero=False)
    _assert_same(gx, want_gx)
    assert np.isnan(out[0, 0, 0, 0])
    assert gx[0, 0, 0:2, 0:2].tolist() == [[0.0, g[0, 0, 0, 0]], [0.0, 0.0]]


def test_sigmoid_matches_reference_kernel():
    rng = np.random.default_rng(13)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 87.0, -87.0, 88.8, -88.8, 104.0, -104.0, 1e-30, -1e-30], dtype=np.float32)
    for x in (specials, _special_draw(rng, (4, 2, 9, 7)), rng.uniform(-104, 104, (1, 3, 16, 16)).astype(np.float32)):
        g = rng.uniform(-1, 1, x.shape).astype(np.float32)
        out, grads = _run_op(T.sigmoid, [x], g)
        want_out, want_grads = _sigmoid_reference(x, g)
        _assert_same(out, want_out)
        _assert_same(grads[0], want_grads[0])


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("bsz", [1, 4])
def test_batchnorm2d_matches_reference_kernel(training, bsz):
    rng = np.random.default_rng(14)
    for h, w in ((5, 7), (16, 16)):
        x = rng.normal(1.5, 2.0, (bsz, 3, h, w)).astype(np.float32)
        x.reshape(-1)[::7] = -0.0
        gamma = rng.uniform(0.5, 1.5, 3).astype(np.float32)
        beta = rng.uniform(-0.5, 0.5, 3).astype(np.float32)
        g = rng.uniform(-1, 1, x.shape).astype(np.float32)
        stats = rng.uniform(0.5, 1.5, 3).astype(np.float32), rng.uniform(0.5, 1.5, 3).astype(np.float32)
        rm, rv = (s.copy() for s in stats)
        out, grads = _run_op(lambda xt, gt, bt: T.batchnorm2d(xt, gt, bt, rm, rv, training), [x, gamma, beta], g)
        want_rm, want_rv = (s.copy() for s in stats)
        want_out, want_grads = _batchnorm2d_reference(x, gamma, beta, want_rm, want_rv, training, g)
        _assert_same(out, want_out)
        for got, want in zip(grads, want_grads):
            _assert_same(got, want)
        _assert_same(rm, want_rm)
        _assert_same(rv, want_rv)


# (m, n) of the model's inner-dimension-1 tap products, all from 1x1 convs:
# the forward of cnn.stage1.skip (1 -> 8 channels) at scales 64 and 48, and
# the input gradient of head.out at both scales and of refine.out at 64
K1_TAPS = ((8, 1024), (8, 576), (16, 256), (16, 144), (8, 4096))


@pytest.mark.parametrize("bsz", [1, 8])
def test_tap_product_matches_matmul_at_inner_dimension_one(bsz):
    rng = np.random.default_rng(15)
    for m, n in K1_TAPS:
        taps = [(_special_draw(rng, (m, 1)), _special_draw(rng, (bsz, 1, n))) for _ in range(9)]
        got = np.zeros((bsz, m, n), dtype=np.float32)
        want = np.zeros_like(got)
        with np.errstate(invalid="ignore"):
            for a, b in taps:
                prod = T._tap_product(a, b)
                # the bare product may keep a -0.0 that matmul turns into 0.0
                _assert_same(prod, a @ b, signed_zero=False)
                got += prod
                want += a @ b
        # summed into a zero-started accumulator, as conv2d does, they agree bit for bit
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.skipif(not T.HEAP_PINNED, reason="mallopt is unavailable")
def test_freed_temporaries_stay_mapped():
    import resource

    # a step's multi-MiB temporaries, allocated together and then freed: with
    # the heap thresholds pinned, later cycles reuse the pages already faulted in
    def cycle():
        arrays = []
        for mib in (3, 1, 2, 4, 1, 3):
            a = np.empty(mib << 20, dtype=np.uint8)
            a.fill(1)
            arrays.append(a)
        del arrays

    cycle()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        cycle()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000
