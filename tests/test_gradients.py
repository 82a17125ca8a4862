"""Finite-difference gradient suite (the full 20-instance run lives in the
acceptance module; these are fast structural checks of the harness itself)."""

import numpy as np
import pytest

from weakbox_kit import gradcheck
from weakbox_kit import tensor as T
from weakbox_kit.gradcheck import ALL_CHECKS, DEFAULT_STEP, LOSS_CHECKS, PRIMITIVE_CHECKS, check_instance, finite_diff, run_gradcheck
from weakbox_kit.synth import rng_from_key


def test_every_check_listed_exactly_once():
    names = [name for name, _ in ALL_CHECKS]
    assert len(names) == len(set(names))
    assert len(PRIMITIVE_CHECKS) + len(LOSS_CHECKS) == len(ALL_CHECKS)


def test_finite_diff_on_quadratic():
    def forward(arrays):
        return float((arrays[0] ** 2).sum())

    x = np.array([1.0, -2.0, 0.5])
    fd = finite_diff(forward, [x], 0, DEFAULT_STEP)
    assert np.allclose(fd, 2 * x, atol=1e-6)


def test_suite_passes_with_few_instances():
    results = run_gradcheck(seed=7, instances=2)
    failed = [r.name for r in results if not r.ok]
    assert not failed, failed


def test_corrupt_hook_reported_by_name(monkeypatch):
    # the tape sees sigmoid only, while the output also carries sin(a): the
    # row's tape gradient is wrong by cos(a)
    def wrong(rng):
        return [rng.uniform(-2, 2, (3, 4))], lambda a: T.add(T.sigmoid(a), T.Tensor(np.sin(a.data)))

    monkeypatch.setattr(gradcheck, "ALL_CHECKS", ALL_CHECKS + (("wrong_sigmoid", wrong),))
    by_name = {r.name: r for r in run_gradcheck(seed=7, instances=1)}
    assert not by_name["wrong_sigmoid"].ok
    assert all(r.ok for n, r in by_name.items() if n != "wrong_sigmoid")


def test_check_instance_deterministic():
    name, builder = PRIMITIVE_CHECKS[0]
    rng1 = rng_from_key(0, "gradcheck", name, 0)
    rng2 = rng_from_key(0, "gradcheck", name, 0)
    assert check_instance(builder, rng1, DEFAULT_STEP) == check_instance(builder, rng2, DEFAULT_STEP)


# (input HxW, kernel, stride, pad, dilation): the CNN-block skips, the strided
# encoder and CNN-block convs, the dilated encoder conv, a 5x5 stride-3 case,
# and the refiner's 1x1 convs, whose phase image is the input itself
MODEL_CONVS = (((6, 6), 1, 2, 0, 1), ((6, 6), 3, 2, 1, 1), ((5, 5), 3, 1, 2, 2), ((7, 8), 5, 3, 2, 1), ((6, 6), 1, 1, 0, 1))


@pytest.mark.parametrize("size, k, stride, pad, dilation", MODEL_CONVS)
def test_conv2d_gradcheck_at_model_configs(size, k, stride, pad, dilation):
    # 2 -> 3, then 1 -> 3 (the encoder's and CNN block's first convs) and
    # 3 -> 1 (the logit convs), which take the inner-dimension-1 tap product
    for cin, cout in ((2, 3), (1, 3), (3, 1)):

        def builder(rng):
            arrays = [rng.uniform(-2, 2, (2, cin) + size), rng.uniform(-1, 1, (cout, cin, k, k)), rng.uniform(-1, 1, (cout,))]
            return arrays, lambda x, w, b: T.conv2d(x, w, bias=b, stride=stride, pad=pad, dilation=dilation)

        key = (k, stride) if (cin, cout) == (2, 3) else (k, stride, cin, cout)
        assert check_instance(builder, rng_from_key(0, "gradcheck", "conv2d_model", *key), DEFAULT_STEP) <= 1e-3, (cin, cout)
