import builtins
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakbox_kit.checkpoint as checkpoint_module

from weakbox_kit.checkpoint import MAGIC, Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from weakbox_kit.nets import ParamStore, init_params
from weakbox_kit.optim import AdamW

from helpers import NCFG, save_untrained


def small_store():
    store = ParamStore()
    rng = np.random.default_rng(0)
    store.add("a.w", rng.normal(0, 1, (2, 3)).astype(np.float32))
    store.add("a.b", rng.normal(0, 1, (3,)).astype(np.float32))
    store.add("enc.w", rng.normal(0, 1, (4,)).astype(np.float32), frozen=True)
    store.add_stat("a.bn.running_mean", rng.normal(0, 1, (3,)).astype(np.float32))
    return store


def test_save_load_roundtrip(tmp_path):
    store = small_store()
    opt = AdamW(store, 1e-3)
    # one fake step so optimizer state is non-trivial
    for _, t in store.trainable():
        t.grad = np.ones_like(t.data)
    opt.step()
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, store, "adamw", opt.state_dict(), seed=42, epoch=7)
    ck = load_checkpoint(path)
    assert ck.epoch == 7 and ck.seed == 42 and ck.optimizer_kind == "adamw"
    for name, t in store.tensors.items():
        assert np.array_equal(ck.tensors[name], t.data)
        assert ck.frozen(name) == (not t.requires_grad)
    assert np.array_equal(ck.stats["a.bn.running_mean"], store.stats["a.bn.running_mean"])
    assert ck.optimizer_state["step"] == 1
    assert np.array_equal(ck.optimizer_state["m"]["a.w"], opt.m["a.w"])


def test_save_load_save_byte_identical(tmp_path):
    store = small_store()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, store, "adamw", {"step": 0, "m": {}, "v": {}}, seed=1, epoch=2)
    ck = load_checkpoint(p1)
    save_checkpoint(p2, ck.build_params(), ck.optimizer_kind, ck.optimizer_state, seed=ck.seed, epoch=ck.epoch)
    assert p1.read_bytes() == p2.read_bytes()


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    store = small_store()
    save_untrained(path, store)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "v.ckpt"
    save_untrained(path, small_store())
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncation_rejected(tmp_path):
    path = tmp_path / "t.ckpt"
    save_untrained(path, small_store())
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def trained_blob(tmp_path):
    """The bytes of small_store's checkpoint after one AdamW step, so both
    optimizer slot tables are filled."""
    store = small_store()
    opt = AdamW(store, 1e-3)
    for _, t in store.trainable():
        t.grad = np.ones_like(t.data)
    opt.step()
    path = tmp_path / "trained.ckpt"
    save_checkpoint(path, store, "adamw", opt.state_dict(), seed=3, epoch=1)
    return path.read_bytes()


def test_non_utf8_name_rejected(tmp_path):
    blob = bytearray(trained_blob(tmp_path))
    for name in (b"enc.w", b"adamw"):
        bad = bytearray(blob)
        bad[blob.index(name)] = 0xFF
        path = tmp_path / "u.ckpt"
        path.write_bytes(bytes(bad))
        with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*not UTF-8"):
            load_checkpoint(path)


def test_unknown_optimizer_slot_rejected(tmp_path):
    blob = bytearray(trained_blob(tmp_path))
    # slots are written m then v, each by name, so the last one is v["a.w"];
    # its tag byte follows the name
    tag = blob.rindex(b"a.w") + 3
    assert blob[tag] == 1
    blob[tag] = 2
    path = tmp_path / "s.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="unknown optimizer slot 2 for 'a.w'"):
        load_checkpoint(path)


@st.composite
def garbles(draw):
    """A truncation length (or none) and up to four (offset, xor) byte flips,
    offsets as fractions of the file."""
    cut = draw(st.none() | st.floats(0.0, 1.0))
    flips = draw(st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255)), max_size=4))
    return cut, flips


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "clean.ckpt").write_bytes(trained_blob(root))
    return root


@given(garbles())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_garbled_checkpoint_loads_or_raises_checkpoint_error(fuzz_dir, garble):
    cut, flips = garble
    blob = bytearray((fuzz_dir / "clean.ckpt").read_bytes())
    for where, xor in flips:
        blob[int(where * len(blob))] ^= xor
    if cut is not None:
        blob = blob[: int(cut * len(blob))]
    path = fuzz_dir / "garbled.ckpt"
    path.write_bytes(bytes(blob))
    try:
        load_checkpoint(path)
    except CheckpointError as exc:
        assert str(path) in str(exc)


def test_trailing_data_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    save_untrained(path, small_store())
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_merge_into_respects_prefix_and_frozen(tmp_path):
    donor = init_params(4, NCFG, True)
    path = tmp_path / "r.ckpt"
    save_untrained(path, donor)
    target = init_params(5, NCFG, include_refine=False)
    assert "refine.out.w" not in target.tensors
    load_checkpoint(path).merge_into(target, "refine.", frozen=True)
    assert "refine.out.w" in target.tensors
    assert not target["refine.out.w"].requires_grad
    assert np.array_equal(target["refine.out.w"].data, donor["refine.out.w"].data)
    # entries outside the prefix keep the target's own values
    assert np.array_equal(target["head.out.w"].data, init_params(5, NCFG, True)["head.out.w"].data)


def test_magic_constant():
    assert MAGIC == b"BSWK"


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "keep.ckpt"
    save_untrained(path, small_store(), seed=1, epoch=1)
    before = path.read_bytes()

    class FailingFile:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[: len(data) // 2])
            raise OSError("disk full")

    def failing_open(file, mode="r", *args, **kwargs):
        return FailingFile(builtins.open(file, mode, *args, **kwargs))

    monkeypatch.setattr(checkpoint_module, "open", failing_open, raising=False)
    store = init_params(2, NCFG, include_refine=False)
    with pytest.raises(OSError, match="disk full"):
        save_untrained(path, store, seed=2, epoch=2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.ckpt"]
    ck = load_checkpoint(path)
    assert ck.seed == 1 and ck.epoch == 1
