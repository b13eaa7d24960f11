"""Binary PGM reader and writer."""

import numpy as np
import pytest

from nshmc.pgm import PgmParseError, pgm_read, pgm_write


def test_round_trip_8_bit(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(7, 5)).astype(float)
    path = tmp_path / "a.pgm"
    pgm_write(img, path)
    assert np.array_equal(pgm_read(path), img)


def test_round_trip_16_bit(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 65536, size=(3, 9)).astype(float)
    path = tmp_path / "b.pgm"
    pgm_write(img, path, maxval=65535)
    assert np.array_equal(pgm_read(path), img)


def test_write_clamps_and_rounds(tmp_path):
    img = np.array([[-4.0, 0.49, 0.51, 254.5, 300.0]])
    path = tmp_path / "c.pgm"
    pgm_write(img, path)
    # np.rint rounds half to even: 254.5 -> 254.
    assert np.array_equal(pgm_read(path), [[0.0, 0.0, 1.0, 254.0, 255.0]])


def test_header_comments_and_whitespace(tmp_path):
    raw = b"P5 # magic\n# a comment line\n  2\t1 # dims\n255\n\x07\x08"
    path = tmp_path / "d.pgm"
    path.write_bytes(raw)
    assert np.array_equal(pgm_read(path), [[7.0, 8.0]])


def test_two_byte_samples_are_big_endian(tmp_path):
    path = tmp_path / "e.pgm"
    path.write_bytes(b"P5 1 1 65535 " + b"\x01\x00")
    assert pgm_read(path)[0, 0] == 256.0


def test_parse_errors_carry_offset(tmp_path):
    cases = [
        (b"P6 1 1 255 \x00", "magic", 0),
        (b"P5   ", "width", None),
        (b"P5 0 3 255 ", "dimensions", None),
        (b"P5 1 1 70000 ", "maxval", None),
        (b"P5 1 1 255", "whitespace", None),
        (b"P5 2 2 255 \x00\x00", "truncated", None),
        (b"P5 2 2 100 \x0a\xc8\x1e\xff", "above maxval", 12),
    ]
    for raw, needle, offset in cases:
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(PgmParseError, match=needle) as exc:
            pgm_read(path)
        assert exc.value.offset >= 0
        if offset is not None:
            assert exc.value.offset == offset


def test_truncation_offset_points_past_header(tmp_path):
    raw = b"P5 2 2 255 \x00\x00"
    path = tmp_path / "f.pgm"
    path.write_bytes(raw)
    with pytest.raises(PgmParseError) as exc:
        pgm_read(path)
    assert exc.value.offset == len(raw)


def test_write_validation(tmp_path):
    with pytest.raises(ValueError, match="maxval"):
        pgm_write(np.ones((2, 2)), tmp_path / "g.pgm", maxval=1024)
    with pytest.raises(ValueError, match="2-D"):
        pgm_write(np.ones(4), tmp_path / "h.pgm")
