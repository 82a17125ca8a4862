"""Binary checkpoint format: magic "BSWK", version, named float32 tensor
table (trainable / frozen / running-stat entries), optimizer state, RNG seed
record, and the epoch counter. save -> load -> save is byte-identical."""

import os
import struct

import numpy as np

from .nets import ParamStore

MAGIC = b"BSWK"
VERSION = 1

_KIND_TRAINABLE = 0
_KIND_FROZEN = 1
_KIND_STAT = 2


class CheckpointError(ValueError):
    """Bad magic, wrong version, or a truncated/garbled file."""


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, have {len(self.blob) - self.pos}")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return self.take(1)[0]

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def name(self):
        raw = self.take(self.u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"name at offset {self.pos - len(raw)} is not UTF-8") from None

    def array(self):
        ndim = self.u8()
        dims = tuple(self.u32() for _ in range(ndim))
        count = 1
        for d in dims:
            count *= d
        raw = self.take(4 * count)
        return np.frombuffer(raw, dtype="<f4").reshape(dims).copy()

    def done(self):
        if self.pos != len(self.blob):
            raise CheckpointError(f"trailing data: {len(self.blob) - self.pos} extra bytes")


def _pack_name(name):
    raw = name.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _pack_array(arr):
    arr = np.asarray(arr, dtype="<f4")
    out = struct.pack("<B", arr.ndim)
    for d in arr.shape:
        out += struct.pack("<I", d)
    return out + arr.tobytes()


def save_checkpoint(path, params: ParamStore, optimizer_kind, optimizer_state, seed, epoch):
    """Serialize the whole store."""
    entries = []
    for name in params.names():
        t = params.tensors[name]
        entries.append((name, _KIND_TRAINABLE if t.requires_grad else _KIND_FROZEN, t.data))
    for name in sorted(params.stats):
        entries.append((name, _KIND_STAT, params.stats[name]))

    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    blob += struct.pack("<I", int(epoch))
    blob += struct.pack("<Q", int(seed) & 0xFFFFFFFFFFFFFFFF)
    blob += struct.pack("<I", len(entries))
    for name, kind, arr in entries:
        blob += _pack_name(name)
        blob += struct.pack("<B", kind)
        blob += _pack_array(arr)

    blob += _pack_name(optimizer_kind)
    blob += struct.pack("<Q", int(optimizer_state["step"]))
    slots = []
    for which, table in ((0, optimizer_state["m"]), (1, optimizer_state["v"])):
        for name in sorted(table):
            slots.append((name, which, table[name]))
    blob += struct.pack("<I", len(slots))
    for name, which, arr in slots:
        blob += _pack_name(name)
        blob += struct.pack("<B", which)
        blob += _pack_array(arr)

    # write beside the target, then rename: a failed write leaves the old
    # file, and the partial temp file is removed
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(bytes(blob))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class Checkpoint:
    def __init__(self, epoch, seed, tensors, kinds, stats, optimizer_kind, optimizer_state):
        self.epoch = epoch
        self.seed = seed
        self.tensors = tensors  # name -> np.ndarray
        self.kinds = kinds  # name -> kind flag
        self.stats = stats  # name -> np.ndarray
        self.optimizer_kind = optimizer_kind
        self.optimizer_state = optimizer_state

    def frozen(self, name):
        return self.kinds.get(name) == _KIND_FROZEN

    def build_params(self) -> ParamStore:
        params = ParamStore()
        for name, arr in self.tensors.items():
            params.add(name, arr, frozen=self.frozen(name))
        for name, arr in self.stats.items():
            params.add_stat(name, arr)
        return params

    def merge_into(self, params: ParamStore, prefix, frozen):
        """Copy entries under `prefix` into an existing store."""
        for name, arr in self.tensors.items():
            if name.startswith(prefix):
                params.add(name, arr, frozen=frozen)
        for name, arr in self.stats.items():
            if name.startswith(prefix):
                params.add_stat(name, arr)


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at path; a garbled or unreadable file (a directory, say)
    raises CheckpointError naming it, a missing one FileNotFoundError."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise CheckpointError(f"checkpoint {path}: cannot read: {exc.strerror or exc}") from None
    try:
        return _parse(_Reader(blob))
    except CheckpointError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from None


def _parse(r: _Reader) -> Checkpoint:
    magic = r.take(4)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}, expected {VERSION}")
    epoch = r.u32()
    seed = r.u64()
    tensors, kinds, stats = {}, {}, {}
    for _ in range(r.u32()):
        name = r.name()
        kind = r.u8()
        arr = r.array()
        if kind == _KIND_STAT:
            stats[name] = arr
        elif kind in (_KIND_TRAINABLE, _KIND_FROZEN):
            tensors[name] = arr
            kinds[name] = kind
        else:
            raise CheckpointError(f"unknown tensor kind {kind} for {name!r}")
    optimizer_kind = r.name()
    step = r.u64()
    state = {"step": step, "m": {}, "v": {}}
    for _ in range(r.u32()):
        name = r.name()
        which = r.u8()
        if which not in (0, 1):
            raise CheckpointError(f"unknown optimizer slot {which} for {name!r}")
        state["mv"[which]][name] = r.array()
    r.done()
    return Checkpoint(epoch, seed, tensors, kinds, stats, optimizer_kind, state)
