import numpy as np
import pytest

from weakbox_kit import tensor as T
from weakbox_kit.boxes import BoxCoords
from weakbox_kit.config import RunConfig
from weakbox_kit.nets import (
    cnn_block_forward,
    detail_refine_forward,
    encode,
    fusion_gate,
    global_encoder_forward,
    init_params,
    prompt_channel,
    scale_coords,
    scale_one_forward,
    seg_head_forward,
    single_scale_forward,
    two_scale_forward,
)
from weakbox_kit.optim import AdamW
from weakbox_kit.pipeline import net_config

from helpers import NCFG


@pytest.fixture(scope="module")
def params():
    return init_params(0, NCFG, True)


def _image(seed, batch=2, size=64):
    rng = np.random.default_rng(seed)
    return T.Tensor(rng.uniform(0, 1, (batch, 1, size, size)).astype(np.float32))


def test_fusion_gate_limits():
    rng = np.random.default_rng(0)
    a = T.Tensor(rng.uniform(-1, 1, (1, 2, 3, 3)).astype(np.float32))
    b = T.Tensor(rng.uniform(-1, 1, (1, 2, 3, 3)).astype(np.float32))
    out_hi = fusion_gate(a, b, T.Tensor(20.0))
    assert np.abs(out_hi.data - a.data).max() < 1e-6
    out_mid = fusion_gate(a, b, T.Tensor(0.0))
    assert np.allclose(out_mid.data, (a.data + b.data) / 2, atol=1e-6)


def test_fusion_gate_fixed_point_when_equal():
    rng = np.random.default_rng(1)
    a = np.random.default_rng(1).uniform(-1, 1, (1, 2, 4, 4)).astype(np.float32)
    for logit in (-3.0, 0.3, 5.0):
        out = fusion_gate(T.Tensor(a), T.Tensor(a.copy()), T.Tensor(logit))
        assert np.abs(out.data - a).max() < 1e-6


def test_fusion_gate_argument_symmetry():
    rng = np.random.default_rng(2)
    a = T.Tensor(rng.uniform(-1, 1, (1, 1, 4, 4)).astype(np.float32))
    b = T.Tensor(rng.uniform(-1, 1, (1, 1, 4, 4)).astype(np.float32))
    lhs = fusion_gate(a, b, T.Tensor(0.73))
    rhs = fusion_gate(b, a, T.Tensor(-0.73))
    assert np.allclose(lhs.data, rhs.data, atol=1e-6)


def test_fusion_gate_shape_mismatch():
    a = T.Tensor(np.zeros((1, 2, 3, 3), dtype=np.float32))
    b = T.Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
    with pytest.raises(T.ShapeError):
        fusion_gate(a, b, T.Tensor(0.0))


def test_cnn_block_shape(params):
    out = cnn_block_forward(params, _image(3), training=True)
    assert out.data.shape == (2, 16, 16, 16)


def test_cnn_block_deterministic(params):
    a = cnn_block_forward(params, _image(4), training=False)
    b = cnn_block_forward(params, _image(4), training=False)
    assert np.array_equal(a.data, b.data)


def test_cnn_block_zero_input_zero_output():
    p = init_params(7, NCFG, True)
    x = T.Tensor(np.zeros((1, 1, 64, 64), dtype=np.float32))
    out = cnn_block_forward(p, x, training=True)
    assert np.abs(out.data).max() == 0.0


def test_encoder_matches_cnn_output_shape(params):
    img = _image(5)
    enc = global_encoder_forward(params, img)
    cnn = cnn_block_forward(params, img, training=False)
    assert enc.data.shape == cnn.data.shape


def test_encoder_frozen_flags(params):
    frozen = [n for n, t in params.tensors.items() if not t.requires_grad]
    assert frozen and all(n.startswith("encoder.") for n in frozen)


def test_encoder_zero_weights_zero_features():
    p = init_params(8, NCFG, True)
    for name, t in p.tensors.items():
        if name.startswith("encoder."):
            t.data[...] = 0.0
    out = global_encoder_forward(p, _image(6))
    assert np.abs(out.data).max() == 0.0


def test_frozen_params_survive_optimizer_steps():
    p = init_params(9, NCFG, True)
    before = {n: t.data.copy() for n, t in p.tensors.items() if not t.requires_grad}
    opt = AdamW(p, lr=0.05, weight_decay=0.01)
    x = _image(7, batch=1)
    for _ in range(3):
        out = cnn_block_forward(p, x, training=True)
        enc = global_encoder_forward(p, x)
        loss = T.tmean(T.mul(fusion_gate(enc, out, p["gate.alpha_logit"]), out))
        p.zero_grad()
        T.backward(loss)
        opt.step()
    for n, arr in before.items():
        assert np.array_equal(p.tensors[n].data, arr), n


def test_prompt_channel_rasterization():
    ch = prompt_channel([BoxCoords(8, 12, 23, 31), None], 2, 16, 16)
    assert ch.shape == (2, 1, 16, 16)
    assert ch[1].min() == 1.0  # neutral prompt is all ones
    on = np.argwhere(ch[0, 0] == 1.0)
    assert on[:, 0].min() == 2 and on[:, 0].max() == 5
    assert on[:, 1].min() == 3 and on[:, 1].max() == 7


def test_seg_head_outputs_probability_range(params):
    img = _image(11)
    enc = global_encoder_forward(params, img)
    logits = seg_head_forward(params, enc, None, training=True)
    prob = T.sigmoid(logits)
    assert logits.data.shape == (2, 1, 64, 64)
    assert prob.data.min() > 0.0 and prob.data.max() < 1.0


def test_seg_head_prompt_changes_output(params):
    img = _image(12)
    enc = global_encoder_forward(params, img)
    full = seg_head_forward(params, enc, None, training=False)
    tight = seg_head_forward(params, enc, [BoxCoords(10, 10, 30, 30), BoxCoords(0, 0, 63, 63)], training=False)
    assert not np.array_equal(full.data[0], tight.data[0])
    # sample 1's prompt covers the whole image: equals the neutral prompt
    assert np.array_equal(full.data[1], tight.data[1])


def test_two_scale_forward_shapes_and_determinism(params):
    img = _image(13)
    out1 = two_scale_forward(params, img, lambda plane: None, training=False, cfg=NCFG)
    out2 = two_scale_forward(params, img, lambda plane: None, training=False, cfg=NCFG)
    assert out1.logits_a.data.shape == (2, 1, 64, 64)
    assert out1.prob_b_up.data.shape == (2, 1, 64, 64)
    assert out1.prompts == [None, None]
    assert np.array_equal(out1.prob_a.data, out2.prob_a.data)
    assert np.array_equal(out1.prob_b_up.data, out2.prob_b_up.data)

    # the prompted head reuses the neutral pass's scale-one features: its
    # logits are bit-identical to a fresh single-scale forward on the
    # resized input with the same prompts, with and without the gate
    small = _image(23, size=48)
    for ncfg in (NCFG, net_config(RunConfig(use_cnn_gate=False))):
        planes = []

        def prompt_for(plane):
            planes.append(plane.shape)
            return BoxCoords(5, 9, 40 + len(planes), 50)

        out = two_scale_forward(params, small, prompt_for, training=False, cfg=ncfg)
        assert planes == [(64, 64), (64, 64)]
        assert out.prompts == [scale_coords(BoxCoords(5, 9, 40 + k, 50), 64, 48) for k in (1, 2)]
        coords_a = [BoxCoords(5, 9, 40 + k, 50) for k in (1, 2)]
        ref = single_scale_forward(params, T.bilinear_resize(small, 64, 64), coords_a, False, ncfg)
        assert np.array_equal(out.logits_a.data, ref.data)


@pytest.mark.parametrize("native", [48, 96])
def test_scale_one_head_takes_the_rules_own_box(params, native):
    # rows and columns 0-3 are one feature cell on the 64 grid; a round trip
    # through a 48 or 96 grid would widen the box to a second cell
    box = BoxCoords(0, 0, 3, 3)
    img = _image(24, batch=1, size=native)
    logits, prompts = scale_one_forward(params, img, lambda plane: box, False, NCFG)
    ref = seg_head_forward(params, encode(params, T.bilinear_resize(img, 64, 64), False, NCFG), [box], False)
    assert np.array_equal(logits.data, ref.data)
    assert prompts == [scale_coords(box, 64, native)]


def test_refine_identity_at_init(params):
    img = _image(14)
    rng = np.random.default_rng(15)
    coarse = T.Tensor(rng.normal(0, 2, (2, 1, 64, 64)).astype(np.float32))
    out = detail_refine_forward(params, coarse, img, training=True)
    assert np.abs(out.residual.data).max() == 0.0
    assert np.array_equal(out.refined.data, coarse.data)


def test_refine_residual_decomposition_exact():
    p = init_params(16, NCFG, True)
    for t in (p["refine.out.w"], p["refine.out.b"]):
        t.data[...] = np.random.default_rng(17).normal(0, 0.1, t.data.shape).astype(np.float32)
    img = _image(18)
    coarse = T.Tensor(np.random.default_rng(19).normal(0, 1, (2, 1, 64, 64)).astype(np.float32))
    out = detail_refine_forward(p, coarse, img, training=True)
    assert np.array_equal(out.refined.data, out.coarse.data + out.residual.data)
    assert np.abs(out.residual.data).max() > 0.0


def test_refine_output_geometry(params):
    img = _image(20, batch=1)
    coarse = T.Tensor(np.zeros((1, 1, 64, 64), dtype=np.float32))
    out = detail_refine_forward(params, coarse, img, training=False)
    assert out.refined.data.shape == (1, 1, 64, 64)


def test_end_to_end_gradient_reaches_every_unfrozen_param():
    p = init_params(21, NCFG, include_refine=False)
    img = _image(22, batch=2)
    out = single_scale_forward(p, img, None, True, NCFG)
    p.zero_grad()
    T.backward(T.tmean(T.sigmoid(out)))
    for name, t in p.trainable():
        assert t.grad is not None, f"no gradient reached {name}"
        assert np.isfinite(t.grad).all(), name
