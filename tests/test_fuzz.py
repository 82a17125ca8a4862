"""Garbled inputs end in the documented error, never in a traceback.

Config text goes through `load_run_config` and `from_kv(DatasetSpec, ...)`;
PGM bytes go through `read_pgm` and `weakbox-kit mm2b`. Nothing here trains
or generates a dataset.
"""

import contextlib
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakbox_kit.cli import EXIT_DATA, EXIT_OK, main
from weakbox_kit.config import RunConfig, load_run_config
from weakbox_kit.kvcfg import from_kv, parse_kv_text
from weakbox_kit.pgm import PgmError, read_pgm
from weakbox_kit.synth import DatasetSpec

KEYS = sorted({f.name for f in dataclasses.fields(RunConfig)} | {f.name for f in dataclasses.fields(DatasetSpec)}) + ["optimizer", ""]
VALUES = ["0", "1", "-1", "8", "64", "0.5", "1e-3", "1e309", "nan", "-inf", "true", "no", "yes!", "", "weak", "refine", "fullbox", "ellipse,fused", "annulus,", ",", ".", "missing/dir", "\x00", "é", "9" * 5000]

_LINE = st.one_of(
    st.tuples(st.sampled_from(KEYS), st.sampled_from([" = ", "=", " == ", " "]), st.sampled_from(VALUES), st.sampled_from(["", " # note", "#"])).map("".join),
    st.text(max_size=12),
)
KV_TEXT = st.lists(_LINE, max_size=5).map("\n".join)


@st.composite
def pgm_bytes(draw):
    """A small P5 file, then up to three cuts, byte overwrites or insertions."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maxval = draw(st.sampled_from([b"255", b"65535", b"0", b"x"]))
    blob = bytearray(b"P5\n%d %d\n" % (w, h) + maxval + b"\n" + draw(st.binary(min_size=w * h, max_size=w * h)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(blob)))
        op = draw(st.sampled_from(["cut", "overwrite", "insert"]))
        if op == "cut":
            del blob[i:]
        elif op == "overwrite" and i < len(blob):
            blob[i] = draw(st.integers(0, 255))
        else:
            blob[i:i] = draw(st.binary(min_size=1, max_size=4))
    return bytes(blob)


PGM = st.one_of(pgm_bytes(), st.binary(max_size=24))
FUZZ = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(st.one_of(KV_TEXT.map(str.encode), st.binary(max_size=24)))
@FUZZ
def test_garbled_run_config(fuzz_dir, blob):
    path = fuzz_dir / "run.cfg"
    path.write_bytes(blob)
    try:
        cfg = load_run_config(path, {})
    except (ValueError, FileNotFoundError) as exc:  # non-UTF-8 text raises UnicodeDecodeError, a ValueError
        assert str(exc)
    else:
        assert isinstance(cfg, RunConfig)


@given(KV_TEXT)
@FUZZ
def test_garbled_dataset_spec(text):
    try:
        spec = from_kv(DatasetSpec, parse_kv_text(text), "dataset spec")
    except ValueError as exc:
        assert str(exc)
    else:
        assert isinstance(spec, DatasetSpec)


@given(PGM)
@example(b"P5 " + b"9" * 5000 + b" 2 255\n")  # past int()'s digit limit
@FUZZ
def test_garbled_pgm(fuzz_dir, blob):
    path = fuzz_dir / "in.pgm"
    path.write_bytes(blob)
    try:
        grid = read_pgm(path)
    except PgmError as exc:
        assert str(exc)
    else:
        assert grid.dtype == np.float32 and grid.ndim == 2
        assert 0.0 <= grid.min() and grid.max() <= 1.0


@given(PGM)
@FUZZ
def test_garbled_pgm_through_mm2b(fuzz_dir, blob):
    path = fuzz_dir / "mask.pgm"
    path.write_bytes(blob)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["mm2b", "--in", str(path), "--out", str(fuzz_dir / "box.pgm"), "--coords", str(fuzz_dir / "box.json")])
    if code == EXIT_OK:
        assert out.getvalue().startswith(str(path)) and not err.getvalue()
    else:
        assert code == EXIT_DATA
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
