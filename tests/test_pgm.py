import numpy as np
import pytest

from weakbox_kit.pgm import PgmFormatError, PgmMaxvalError, PgmTruncatedError, read_pgm, write_pgm


def test_roundtrip_binary_mask(tmp_path):
    rng = np.random.default_rng(0)
    mask = (rng.uniform(0, 1, (13, 9)) > 0.5).astype(np.float32)
    path = tmp_path / "m.pgm"
    write_pgm(path, mask)
    assert np.array_equal(read_pgm(path), mask)


def test_roundtrip_soft_map_8bit_representable(tmp_path):
    grid = (np.arange(256, dtype=np.float32) / 255.0).reshape(16, 16)
    path = tmp_path / "soft.pgm"
    write_pgm(path, grid)
    assert np.array_equal(read_pgm(path), grid)


def test_write_read_write_is_stable(tmp_path):
    rng = np.random.default_rng(1)
    grid = rng.uniform(0, 1, (8, 8)).astype(np.float32)
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(p1, grid)
    write_pgm(p2, read_pgm(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_exact_bytes_3x2_white(tmp_path):
    path = tmp_path / "w.pgm"
    write_pgm(path, np.ones((2, 3), dtype=np.float32))
    blob = path.read_bytes()
    assert blob == b"P5\n3 2\n255\n" + b"\xff" * 6
    assert len(blob) == 11 + 6


def test_ascii_p2_rejected(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(PgmFormatError):
        read_pgm(path)


def test_bad_maxval_rejected(tmp_path):
    path = tmp_path / "maxval.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(PgmMaxvalError):
        read_pgm(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
    with pytest.raises(PgmTruncatedError):
        read_pgm(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 5)
    with pytest.raises(PgmFormatError, match="trailing"):
        read_pgm(path)


def test_garbage_header_rejected(tmp_path):
    path = tmp_path / "garbage.pgm"
    path.write_bytes(b"P5\nxx 2\n255\n" + b"\x00" * 4)
    with pytest.raises(PgmFormatError):
        read_pgm(path)


def test_header_comments_allowed(tmp_path):
    path = tmp_path / "comment.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 2\n255\n" + bytes([0, 255, 255, 0]))
    grid = read_pgm(path)
    assert grid.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_write_rejects_out_of_range(tmp_path):
    with pytest.raises(PgmFormatError):
        write_pgm(tmp_path / "bad.pgm", np.full((2, 2), 1.5, dtype=np.float32))


def test_write_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.pgm"
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(PgmFormatError, match="finite"):
            write_pgm(path, np.array([[bad, 0.5]]))
        assert not path.exists()


def test_write_rejects_empty_grid(tmp_path):
    path = tmp_path / "empty.pgm"
    for shape in ((0, 3), (3, 0), (0, 0)):
        with pytest.raises(PgmFormatError, match=rf"empty, got shape \({shape[0]}, {shape[1]}\)"):
            write_pgm(path, np.zeros(shape))
        assert not path.exists()
