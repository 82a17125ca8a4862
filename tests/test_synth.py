import numpy as np
import pytest

from weakbox_kit.boxes import Center, center_status
from weakbox_kit.kvcfg import from_kv, to_kv
from weakbox_kit.synth import (
    FG_FRACTION_RANGE,
    DatasetSpec,
    gen_blob_mask,
    generate_dataset,
    load_dataset,
    make_sample,
    render_image,
    rng_from_key,
    save_dataset,
)


def test_rng_keys_are_stable_and_distinct():
    a = rng_from_key(1, "mask", 0).integers(0, 1 << 30)
    b = rng_from_key(1, "mask", 0).integers(0, 1 << 30)
    c = rng_from_key(1, "mask", 1).integers(0, 1 << 30)
    assert a == b and a != c


def test_gen_blob_mask_deterministic():
    m1 = gen_blob_mask(123, 32, 1)
    m2 = gen_blob_mask(123, 32, 1)
    assert np.array_equal(m1, m2)


def test_gen_blob_mask_binary_and_fraction():
    for seed in range(40):
        m = gen_blob_mask(seed, 48, 1)
        assert set(np.unique(m)) <= {0.0, 1.0}
        assert FG_FRACTION_RANGE[0] <= m.mean() <= FG_FRACTION_RANGE[1]


def test_two_object_center_status_mostly_background():
    background = 0
    total = 500
    for seed in range(total):
        m = gen_blob_mask(seed, 32, 2)
        if center_status(m).status is Center.BACKGROUND:
            background += 1
    assert background >= 0.9 * total


def test_fraction_sweep_many_seeds():
    for seed in range(300):
        m = gen_blob_mask(10_000 + seed, 32, int(1 + seed % 3))
        frac = m.mean()
        assert FG_FRACTION_RANGE[0] <= frac <= FG_FRACTION_RANGE[1]


def test_render_image_two_level_at_zero_noise():
    m = gen_blob_mask(5, 32, 1)
    img = render_image(m, 5, 0.0)
    fg = np.float32(0.3) + np.float32(0.4)
    assert set(np.unique(img)) == {np.float32(0.3), fg}
    assert np.array_equal(img == fg, m == 1.0)


def test_render_image_deterministic():
    m = gen_blob_mask(6, 32, 1)
    assert np.array_equal(render_image(m, 6, 0.3), render_image(m, 6, 0.3))


def test_render_image_contrast_at_noise():
    for seed in range(200):
        m = gen_blob_mask(seed, 32, 1)
        img = render_image(m, seed, 0.3)
        assert img[m > 0].mean() > img[m == 0].mean()
        assert img.min() >= 0.0 and img.max() <= 1.0


def test_make_sample_invariants():
    spec = DatasetSpec(count=8, size=48, n_objects_min=1, n_objects_max=2, seed=9)
    for i in range(spec.count):
        s = make_sample(spec, i)
        assert s.gt_mask.any()
        assert FG_FRACTION_RANGE[0] <= s.gt_mask.mean() <= FG_FRACTION_RANGE[1]


def test_dataset_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(count=0)
    with pytest.raises(ValueError):
        DatasetSpec(size=8)
    with pytest.raises(ValueError):
        DatasetSpec(noise=0.7)
    with pytest.raises(ValueError):
        DatasetSpec(shapes=("triangle",))
    with pytest.raises(ValueError):
        DatasetSpec(n_objects_min=3, n_objects_max=2)


def test_spec_kv_roundtrip():
    spec = DatasetSpec(count=10, size=32, n_objects_min=2, n_objects_max=3, shapes=("ellipse", "fused"), noise=0.2, seed=77)
    assert from_kv(DatasetSpec, to_kv(spec), "dataset spec") == spec


def test_spec_kv_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown dataset spec keys"):
        from_kv(DatasetSpec, {"count": "3", "flavor": "spicy"}, "dataset spec")


@pytest.mark.parametrize("key, raw", [("count", "many"), ("noise", "nan"), ("noise", "inf")])
def test_spec_kv_errors_name_the_key(key, raw):
    with pytest.raises(ValueError, match=f"^{key}: "):
        from_kv(DatasetSpec, {key: raw}, "dataset spec")


def test_save_load_dataset_roundtrip(tmp_path):
    spec = DatasetSpec(count=5, size=32, seed=13)
    samples = generate_dataset(spec)
    save_dataset(samples, spec, tmp_path)
    assert (tmp_path / "spec.cfg").exists()
    loaded_spec, loaded = load_dataset(tmp_path)
    assert loaded_spec == spec
    for orig, back in zip(samples, loaded):
        assert np.array_equal(orig.gt_mask, back.gt_mask)
        # images are 8-bit quantized on disk
        assert np.abs(orig.image - back.image).max() <= 0.5 / 255.0 + 1e-6


def test_dataset_regeneration_byte_identical(tmp_path):
    spec = DatasetSpec(count=6, size=32, n_objects_min=1, n_objects_max=2, seed=21)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    save_dataset(generate_dataset(spec), spec, d1)
    save_dataset(generate_dataset(spec), spec, d2)
    for sub in ("images", "masks"):
        for i in range(spec.count):
            f1 = (d1 / sub / f"{i:04d}.pgm").read_bytes()
            f2 = (d2 / sub / f"{i:04d}.pgm").read_bytes()
            assert f1 == f2
    assert (d1 / "spec.cfg").read_bytes() == (d2 / "spec.cfg").read_bytes()


def test_multi_object_separation():
    from scipy.spatial import cKDTree
    from scipy.ndimage import label as cc_label

    for seed in range(60):
        m = gen_blob_mask(seed, 48, 2)
        labels, n = cc_label(m >= 0.5)
        assert n == 2
        pts_a = np.argwhere(labels == 1)
        pts_b = np.argwhere(labels == 2)
        d, _ = cKDTree(pts_b).query(pts_a, k=1)
        assert d.min() >= 2.0
