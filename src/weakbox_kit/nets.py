"""Toy-scale networks: frozen global encoder, trainable local CNN block,
gated fusion, box-prompted segmentation head, and the residual refiner.

All parameters live in a flat name->Tensor store; batch-norm running
statistics sit alongside as plain float32 arrays. Forward functions are pure
given the store (except for running-stat updates in training mode).
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .boxes import BoxCoords
from .synth import rng_from_key


@dataclass(frozen=True)
class NetConfig:
    in_channels: int = 1
    feat_channels: int = 16
    head_channels: int = 16
    refine_channels: tuple = (8, 16, 32)
    scale_pair: tuple = (64, 48)


class ParamStore:
    """Named parameter tensors plus batch-norm running statistics."""

    def __init__(self):
        self.tensors = {}
        self.stats = {}

    def add(self, name, array, frozen=False):
        # frozen params also drop out of the tape: no gradient is ever computed
        t = T.Tensor(np.asarray(array, dtype=np.float32), requires_grad=not frozen, frozen=frozen)
        self.tensors[name] = t
        return t

    def add_stat(self, name, array):
        self.stats[name] = np.asarray(array, dtype=np.float32).copy()

    def __getitem__(self, name):
        return self.tensors[name]

    def names(self):
        return sorted(self.tensors)

    def trainable(self):
        return [(n, self.tensors[n]) for n in self.names() if not self.tensors[n].frozen]

    def set_frozen(self, prefix, frozen=True):
        for name, t in self.tensors.items():
            if name.startswith(prefix):
                t.frozen = frozen
                t.requires_grad = not frozen

    def zero_grad(self):
        for t in self.tensors.values():
            t.grad = None


def _he_conv(rng, cout, cin, k):
    std = np.sqrt(2.0 / (cin * k * k))
    return rng.normal(0.0, std, size=(cout, cin, k, k)).astype(np.float32)


def _add_conv(params, rng, name, cout, cin, k, bias=True, frozen=False, zero=False):
    w = np.zeros((cout, cin, k, k), dtype=np.float32) if zero else _he_conv(rng, cout, cin, k)
    params.add(f"{name}.w", w, frozen=frozen)
    if bias:
        params.add(f"{name}.b", np.zeros(cout, dtype=np.float32), frozen=frozen)


def _add_bn(params, name, channels, frozen=False):
    params.add(f"{name}.scale", np.ones(channels, dtype=np.float32), frozen=frozen)
    params.add(f"{name}.shift", np.zeros(channels, dtype=np.float32), frozen=frozen)
    params.add_stat(f"{name}.running_mean", np.zeros(channels, dtype=np.float32))
    params.add_stat(f"{name}.running_var", np.ones(channels, dtype=np.float32))


def init_params(seed: int, cfg: NetConfig | None = None, include_refine: bool = True) -> ParamStore:
    """Build the full parameter store. The global encoder is frozen."""
    cfg = cfg or NetConfig()
    params = ParamStore()
    cin, feat = cfg.in_channels, cfg.feat_channels
    mid = feat // 2

    rng = rng_from_key(seed, "encoder")
    _add_conv(params, rng, "encoder.conv1", mid, cin, 3, frozen=True)
    _add_conv(params, rng, "encoder.conv2", feat, mid, 3, frozen=True)
    _add_conv(params, rng, "encoder.conv3", feat, feat, 3, frozen=True)

    rng = rng_from_key(seed, "cnn_block")
    _add_conv(params, rng, "cnn.stage1.conv", mid, cin, 3, bias=False)
    _add_bn(params, "cnn.stage1.bn", mid)
    _add_conv(params, rng, "cnn.stage1.skip", mid, cin, 1)
    _add_conv(params, rng, "cnn.stage2.conv", feat, mid, 3, bias=False)
    _add_bn(params, "cnn.stage2.bn", feat)
    _add_conv(params, rng, "cnn.stage2.skip", feat, mid, 1)

    params.add("gate.alpha_logit", np.zeros((), dtype=np.float32))

    rng = rng_from_key(seed, "head")
    hc = cfg.head_channels
    _add_conv(params, rng, "head.conv1", hc, feat + 1, 3, bias=False)
    _add_bn(params, "head.bn1", hc)
    _add_conv(params, rng, "head.conv2", hc, hc, 3, bias=False)
    _add_bn(params, "head.bn2", hc)
    _add_conv(params, rng, "head.out", 1, hc, 1)
    # center the logit conv across input channels: after BN+ReLU the channel
    # activations share their mean, so this pins the initial logit map near
    # zero; an unlucky channel-sum draw otherwise starts all predictions on
    # one side of the threshold, where box-transform gradients are too
    # sparse to escape the scale-consistency flattening pull
    w = params["head.out.w"].data
    w -= w.mean(axis=1, keepdims=True)

    if include_refine:
        rng = rng_from_key(seed, "refine")
        c1, c2, c3 = cfg.refine_channels
        _add_res_block(params, rng, "refine.enc1", cin + 1, c1)
        _add_res_block(params, rng, "refine.enc2", c1, c2)
        _add_res_block(params, rng, "refine.bottleneck", c2, c3)
        _add_res_block(params, rng, "refine.dec2", c3 + c2, c2)
        _add_res_block(params, rng, "refine.dec1", c2 + c1, c1)
        _add_conv(params, rng, "refine.out", 1, c1, 1, zero=True)
    return params


def _add_res_block(params, rng, name, cin, cout):
    _add_conv(params, rng, f"{name}.conv", cout, cin, 3, bias=False)
    _add_bn(params, f"{name}.bn", cout)
    if cin != cout:
        _add_conv(params, rng, f"{name}.proj", cout, cin, 1)


def _conv(params, name, x, stride=1, pad=0, dilation=1):
    bias = params.tensors.get(f"{name}.b")
    return T.conv2d(x, params[f"{name}.w"], bias=bias, stride=stride, pad=pad, dilation=dilation)


def _bn(params, name, x, training):
    return T.batchnorm2d(
        x,
        params[f"{name}.scale"],
        params[f"{name}.shift"],
        params.stats[f"{name}.running_mean"],
        params.stats[f"{name}.running_var"],
        training=training,
    )


def _res_block(params, name, x, training):
    main = T.relu(_bn(params, f"{name}.bn", _conv(params, f"{name}.conv", x, pad=1), training))
    if f"{name}.proj.w" in params.tensors:
        x = _conv(params, f"{name}.proj", x)
    return T.add(main, x)


def global_encoder_forward(params, image):
    """Frozen wide-receptive-field stub: strided convs then a dilated conv."""
    h = T.relu(_conv(params, "encoder.conv1", image, stride=2, pad=1))
    h = T.relu(_conv(params, "encoder.conv2", h, stride=2, pad=1))
    return T.relu(_conv(params, "encoder.conv3", h, pad=2, dilation=2))


def cnn_block_forward(params, image, training):
    """Two strided residual stages; returns (features, named taps)."""
    s1 = T.add(
        T.relu(_bn(params, "cnn.stage1.bn", _conv(params, "cnn.stage1.conv", image, stride=2, pad=1), training)),
        _conv(params, "cnn.stage1.skip", image, stride=2),
    )
    s2 = T.add(
        T.relu(_bn(params, "cnn.stage2.bn", _conv(params, "cnn.stage2.conv", s1, stride=2, pad=1), training)),
        _conv(params, "cnn.stage2.skip", s1, stride=2),
    )
    return s2, {"p1": s1, "p2": s2}


def fusion_gate(x_global, x_local, alpha_logit):
    """Convex blend a*global + (1-a)*local with a = sigmoid(alpha_logit)."""
    if x_global.data.shape != x_local.data.shape:
        raise T.ShapeError(f"fusion_gate shape mismatch: {x_global.data.shape} vs {x_local.data.shape}")
    alpha = T.sigmoid(alpha_logit)
    one_minus = T.affine(alpha, -1.0, 1.0)
    return T.add(T.mul(alpha, x_global), T.mul(one_minus, x_local))


def prompt_channel(coords_list, batch, feat_h, feat_w, down_factor, dtype=np.float32):
    """Rasterize per-sample prompt boxes as a {0,1} channel at feature
    resolution. None entries mean a neutral full-image prompt."""
    out = np.zeros((batch, 1, feat_h, feat_w), dtype=dtype)
    for b in range(batch):
        coords = coords_list[b] if coords_list is not None else None
        if coords is None:
            out[b] = 1.0
            continue
        r0 = min(coords.row_min // down_factor, feat_h - 1)
        r1 = min(coords.row_max // down_factor, feat_h - 1)
        c0 = min(coords.col_min // down_factor, feat_w - 1)
        c1 = min(coords.col_max // down_factor, feat_w - 1)
        out[b, 0, r0 : r1 + 1, c0 : c1 + 1] = 1.0
    return out


def seg_head_forward(params, fused, prompt_coords, training):
    """Box-prompted head over fused features; returns full-input-scale logits.

    The prompt is concatenated as an extra channel; the logit map is produced
    at feature resolution and bilinearly upsampled by the 4x stage factor.
    """
    b, _, fh, fw = fused.data.shape
    prompt = prompt_channel(prompt_coords, b, fh, fw, down_factor=4, dtype=fused.data.dtype)
    h = T.concat([fused, T.Tensor(prompt, dtype=fused.data.dtype)], axis=1)
    h = T.relu(_bn(params, "head.bn1", _conv(params, "head.conv1", h, pad=1), training))
    h = T.relu(_bn(params, "head.bn2", _conv(params, "head.conv2", h, pad=1), training))
    logits = _conv(params, "head.out", h)
    return T.bilinear_resize(logits, fh * 4, fw * 4)


def single_scale_forward(params, image, prompt_coords, training, use_cnn_gate=True):
    """Encoder(+CNN gate) features -> prompted head -> logits at input scale.

    prompt_coords are in the coordinate frame of `image`.
    """
    x_global = global_encoder_forward(params, image)
    if use_cnn_gate:
        x_local, _ = cnn_block_forward(params, image, training)
        fused = fusion_gate(x_global, x_local, params["gate.alpha_logit"])
    else:
        fused = x_global
    return seg_head_forward(params, fused, prompt_coords, training)


@dataclass
class TwoScaleOut:
    logits_a: T.Tensor  # at scale_pair[0]
    logits_b: T.Tensor  # at scale_pair[1]
    prob_a: T.Tensor
    prob_b_up: T.Tensor  # prob_b resized to scale_pair[0]


def scale_coords(coords, src, dst):
    """Map inclusive box coords from a src-sized grid onto a dst-sized one
    (corner-aligned, outward rounding). None passes through."""
    if coords is None:
        return None
    f = (dst - 1) / (src - 1) if src > 1 else 0.0
    return BoxCoords(
        int(np.floor(coords.row_min * f)),
        int(np.floor(coords.col_min * f)),
        min(int(np.ceil(coords.row_max * f)), dst - 1),
        min(int(np.ceil(coords.col_max * f)), dst - 1),
    )


def two_scale_forward(params, images, prompt_coords, training, cfg: NetConfig, use_cnn_gate=True):
    """Run the shared-weight stack on both scales of the scale pair.

    `images` is NCHW at the native resolution; prompt_coords (native frame)
    are rescaled per scale. The second scale's probability map is resized
    back to the first scale for consistency comparisons.
    """
    s_a, s_b = cfg.scale_pair
    native = images.data.shape[2]
    x_a = images if native == s_a else T.bilinear_resize(images, s_a, s_a)
    x_b = T.bilinear_resize(images, s_b, s_b)
    coords_a = None
    coords_b = None
    if prompt_coords is not None:
        coords_a = [scale_coords(c, native, s_a) for c in prompt_coords]
        coords_b = [scale_coords(c, native, s_b) for c in prompt_coords]
    logits_a = single_scale_forward(params, x_a, coords_a, training, use_cnn_gate)
    logits_b = single_scale_forward(params, x_b, coords_b, training, use_cnn_gate)
    prob_a = T.sigmoid(logits_a)
    prob_b_up = T.sigmoid(T.bilinear_resize(logits_b, s_a, s_a))
    return TwoScaleOut(logits_a=logits_a, logits_b=logits_b, prob_a=prob_a, prob_b_up=prob_b_up)


@dataclass
class RefineOut:
    coarse: T.Tensor  # logit map, passed through
    residual: T.Tensor
    refined: T.Tensor  # coarse + residual, exactly


def detail_refine_forward(params, coarse_logits, image, training):
    """Residual encoder-decoder over [image, sigmoid(coarse logits)].

    The encoder sees the bounded probability map (stable input range); the
    residual is added to the raw logits. With the zero-initialized output
    conv the residual is exactly zero, so refinement starts as the identity.
    """
    if coarse_logits.data.shape != image.data.shape:
        raise T.ShapeError(f"detail_refine_forward: coarse {coarse_logits.data.shape} vs image {image.data.shape}")
    h = T.concat([image, T.sigmoid(coarse_logits)], axis=1)
    e1 = _res_block(params, "refine.enc1", h, training)
    e2 = _res_block(params, "refine.enc2", T.maxpool2d(e1), training)
    mid = _res_block(params, "refine.bottleneck", T.maxpool2d(e2), training)
    u2 = T.bilinear_resize(mid, e2.data.shape[2], e2.data.shape[3])
    d2 = _res_block(params, "refine.dec2", T.concat([u2, e2], axis=1), training)
    u1 = T.bilinear_resize(d2, e1.data.shape[2], e1.data.shape[3])
    d1 = _res_block(params, "refine.dec1", T.concat([u1, e1], axis=1), training)
    residual = _conv(params, "refine.out", d1)
    refined = T.add(coarse_logits, residual)
    return RefineOut(coarse=coarse_logits, residual=residual, refined=refined)
