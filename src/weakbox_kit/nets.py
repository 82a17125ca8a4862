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


IN_CHANNELS = 1
FEAT_CHANNELS = 16  # encoder and CNN-block output width; their first stages are half as wide
HEAD_CHANNELS = 16
REFINE_CHANNELS = (8, 16, 32)
FEATURE_STRIDE = 4  # input pixels per feature pixel: the encoder's two stride-2 stages


@dataclass(frozen=True)
class NetConfig:
    """The network's shape; `pipeline.net_config` builds it from a RunConfig."""

    scale_pair: tuple
    use_cnn_gate: bool


class ParamStore:
    """Named parameter tensors plus batch-norm running statistics."""

    def __init__(self):
        self.tensors = {}
        self.stats = {}

    def add(self, name, array, frozen=False):
        # a parameter is frozen exactly when it needs no gradient: it drops
        # out of the tape and the optimizer never sees it
        t = T.Tensor(np.asarray(array, dtype=np.float32), requires_grad=not frozen)
        self.tensors[name] = t
        return t

    def add_stat(self, name, array):
        self.stats[name] = np.asarray(array, dtype=np.float32).copy()

    def __getitem__(self, name):
        return self.tensors[name]

    def names(self):
        return sorted(self.tensors)

    def trainable(self):
        return [(n, self.tensors[n]) for n in self.names() if self.tensors[n].requires_grad]

    def set_frozen(self, prefix):
        for name, t in self.tensors.items():
            if name.startswith(prefix):
                t.requires_grad = False

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


def _add_bn(params, name, channels):
    params.add(f"{name}.scale", np.ones(channels, dtype=np.float32))
    params.add(f"{name}.shift", np.zeros(channels, dtype=np.float32))
    params.add_stat(f"{name}.running_mean", np.zeros(channels, dtype=np.float32))
    params.add_stat(f"{name}.running_var", np.ones(channels, dtype=np.float32))


def init_params(seed: int, cfg: NetConfig, include_refine: bool) -> ParamStore:
    """Build the full parameter store. The global encoder is frozen."""
    params = init_refiner(seed) if include_refine else ParamStore()
    cin, feat = IN_CHANNELS, FEAT_CHANNELS
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
    hc = HEAD_CHANNELS
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
    return params


def init_refiner(seed: int) -> ParamStore:
    """The refiner's parameters alone, as init_params draws them."""
    params = ParamStore()
    rng = rng_from_key(seed, "refine")
    c1, c2, c3 = REFINE_CHANNELS
    _add_res_block(params, rng, "refine.enc1", IN_CHANNELS + 1, c1)
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
    """Two strided residual stages."""
    s1 = T.add(
        T.relu(_bn(params, "cnn.stage1.bn", _conv(params, "cnn.stage1.conv", image, stride=2, pad=1), training)),
        _conv(params, "cnn.stage1.skip", image, stride=2),
    )
    s2 = T.add(
        T.relu(_bn(params, "cnn.stage2.bn", _conv(params, "cnn.stage2.conv", s1, stride=2, pad=1), training)),
        _conv(params, "cnn.stage2.skip", s1, stride=2),
    )
    return s2


def fusion_gate(x_global, x_local, alpha_logit):
    """Convex blend a*global + (1-a)*local with a = sigmoid(alpha_logit)."""
    if x_global.data.shape != x_local.data.shape:
        raise T.ShapeError(f"fusion_gate shape mismatch: {x_global.data.shape} vs {x_local.data.shape}")
    alpha = T.sigmoid(alpha_logit)
    one_minus = T.affine(alpha, -1.0, 1.0)
    return T.add(T.mul(alpha, x_global), T.mul(one_minus, x_local))


def prompt_channel(coords_list, batch, feat_h, feat_w):
    """Rasterize per-sample prompt boxes as a float32 {0,1} channel at feature
    resolution. None entries mean a neutral full-image prompt."""
    out = np.zeros((batch, 1, feat_h, feat_w), dtype=np.float32)
    for b in range(batch):
        coords = coords_list[b] if coords_list is not None else None
        if coords is None:
            out[b] = 1.0
            continue
        r0 = min(coords.row_min // FEATURE_STRIDE, feat_h - 1)
        r1 = min(coords.row_max // FEATURE_STRIDE, feat_h - 1)
        c0 = min(coords.col_min // FEATURE_STRIDE, feat_w - 1)
        c1 = min(coords.col_max // FEATURE_STRIDE, feat_w - 1)
        out[b, 0, r0 : r1 + 1, c0 : c1 + 1] = 1.0
    return out


def seg_head_forward(params, fused, prompt_coords, training):
    """Box-prompted head over fused features; returns full-input-scale logits.

    The prompt is concatenated as an extra channel; the logit map is produced
    at feature resolution and bilinearly upsampled by FEATURE_STRIDE.
    """
    b, _, fh, fw = fused.data.shape
    prompt = prompt_channel(prompt_coords, b, fh, fw)
    h = T.concat([fused, T.Tensor(prompt, dtype=fused.data.dtype)], axis=1)
    h = T.relu(_bn(params, "head.bn1", _conv(params, "head.conv1", h, pad=1), training))
    h = T.relu(_bn(params, "head.bn2", _conv(params, "head.conv2", h, pad=1), training))
    logits = _conv(params, "head.out", h)
    return T.bilinear_resize(logits, fh * FEATURE_STRIDE, fw * FEATURE_STRIDE)


def encode(params, image, training, cfg: NetConfig):
    """Frozen encoder features, gated with the CNN block when cfg.use_cnn_gate."""
    x_global = global_encoder_forward(params, image)
    if not cfg.use_cnn_gate:
        return x_global
    return fusion_gate(x_global, cnn_block_forward(params, image, training), params["gate.alpha_logit"])


def single_scale_forward(params, image, prompt_coords, training, cfg: NetConfig):
    """Encoder(+CNN gate) features -> prompted head -> logits at input scale.

    prompt_coords are in the coordinate frame of `image`.
    """
    return seg_head_forward(params, encode(params, image, training, cfg), prompt_coords, training)


@dataclass
class TwoScaleOut:
    logits_a: T.Tensor  # at scale_pair[0]
    prob_a: T.Tensor
    prob_b_up: T.Tensor  # prob_b resized to scale_pair[0]
    prompts: list  # per-sample box prompts in the native frame (None = neutral)


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


def scale_one_forward(params, images, prompt_for, training, cfg: NetConfig):
    """Self-prompted forward at the first scale of the scale pair; returns
    (logits at scale_pair[0], prompts in the native frame).

    `images` is square NCHW at the native resolution. The scale-one features
    are encoded once: a no-tape neutral-prompt head pass over them gives each
    probability plane, `prompt_for` maps a plane to a box prompt (or None),
    and the prompted head reruns on the same features.
    """
    _, _, native, width = images.data.shape
    if native != width:
        raise ValueError(f"images must be square, got {native}x{width} (height x width)")
    s_a = cfg.scale_pair[0]
    feats = encode(params, T.bilinear_resize(images, s_a, s_a), training, cfg)
    with T.no_grad():
        neutral = T.sigmoid(seg_head_forward(params, feats, None, training)).data
    # the head takes the rule's boxes on its own grid: a round trip through
    # the native grid would round them outward
    boxes = [prompt_for(plane[0]) for plane in neutral]
    logits = seg_head_forward(params, feats, boxes, training)
    return logits, [scale_coords(c, s_a, native) for c in boxes]


def two_scale_forward(params, images, prompt_for, training, cfg: NetConfig):
    """scale_one_forward, then the second scale prompted with the same boxes,
    for the scale-consistency loss; prob_b_up is the second scale resized to
    the first."""
    logits_a, prompts = scale_one_forward(params, images, prompt_for, training, cfg)
    native = images.data.shape[2]
    s_a, s_b = cfg.scale_pair
    x_b = T.bilinear_resize(images, s_b, s_b)
    logits_b = single_scale_forward(params, x_b, [scale_coords(c, native, s_b) for c in prompts], training, cfg)
    prob_a = T.sigmoid(logits_a)
    prob_b_up = T.sigmoid(T.bilinear_resize(logits_b, s_a, s_a))
    return TwoScaleOut(logits_a=logits_a, prob_a=prob_a, prob_b_up=prob_b_up, prompts=prompts)


@dataclass
class RefineOut:
    residual: T.Tensor
    refined: T.Tensor  # the coarse logits + residual, exactly


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
    return RefineOut(residual=residual, refined=refined)
