from __future__ import annotations

import numpy as np

from motionloop import fileio, geometry as geo


def test_pgm8_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    grid = rng.integers(0, 255, size=(12, 17)).astype(np.uint8)
    p = tmp_path / "a.pgm"
    fileio.write_pgm(p, grid)
    back = fileio.read_pgm(p)
    np.testing.assert_array_equal(back, grid)


def test_pgm16_is_big_endian(tmp_path):
    grid = np.array([[258]])  # 0x0102
    p = tmp_path / "d.pgm"
    fileio.write_pgm(p, grid, maxval=65535)
    raw = p.read_bytes()
    assert raw.endswith(b"\x01\x02")
    np.testing.assert_array_equal(fileio.read_pgm(p), grid)


def test_depth_round_trip(tmp_path):
    rng = np.random.default_rng(32)
    values = rng.uniform(0, 10, size=(9, 11))
    depth = geo.DepthMap(values, scale=10.0 / 65535)
    p = tmp_path / "depth.pgm"
    fileio.write_depth(p, depth)
    back = fileio.read_depth(p)
    assert back.scale == depth.scale
    np.testing.assert_allclose(back.values, values, atol=depth.scale)


def test_condition_round_trip(tmp_path):
    mask = np.zeros((6, 8), dtype=np.int32)
    mask[2:4, 3:6] = 5
    triple = (0.8, 0.5, 0.2)
    conf = np.where(mask != 0, 0.8, 0.2)
    chans = [geo.ConditionChannels(mask, conf, triple),
             geo.ConditionChannels(np.zeros_like(mask), np.full(mask.shape, 0.2), triple)]
    fileio.write_condition(tmp_path, chans)
    back = fileio.read_condition(tmp_path)
    assert len(back) == 2
    np.testing.assert_array_equal(back[0].part_mask, mask)
    np.testing.assert_array_equal(back[0].confidence, conf)
    assert back[0].triple == triple


def test_clip_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    frames = [rng.integers(0, 255, size=(10, 14)).astype(np.uint8) for _ in range(3)]
    fileio.write_clip(tmp_path / "clip", frames, fps=12.0)
    back = fileio.read_clip(tmp_path / "clip")
    assert back.fps == 12.0 and back.resolution == (14, 10)
    for a, b in zip(back.frames, frames):
        np.testing.assert_array_equal(a, b)
