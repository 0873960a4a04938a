from __future__ import annotations

import numpy as np
import pytest

from motionloop import fileio, geometry as geo
from motionloop.errors import PayloadMismatch


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


def _part_mask() -> np.ndarray:
    mask = np.zeros((6, 8), dtype=np.int32)
    mask[2:4, 3:6] = 5
    return mask


def test_condition_round_trip(tmp_path):
    mask = _part_mask()
    triple = (0.8, 0.5, 0.2)
    for mode in geo.ConditionMode:
        chans = geo.build_condition(mode, [mask, np.zeros_like(mask)], triple)
        fileio.write_condition(tmp_path / mode.value, chans)
        back = fileio.read_condition(tmp_path / mode.value)
        assert len(back) == 2
        assert back[0].mode is mode and back[0].triple == triple
        np.testing.assert_array_equal(back[0].part_mask, mask)
        np.testing.assert_array_equal(back[0].confidence,
                                      np.where(mask != 0, mode.level(triple), 0.2))
        # no labeled pixel: read back as EMPTY, whose map is the same
        assert back[1].mode is geo.ConditionMode.EMPTY
        np.testing.assert_array_equal(back[1].confidence, chans[1].confidence)


def test_condition_full_motion_level_with_full_equal_to_target(tmp_path):
    mask = _part_mask()
    chans = geo.build_condition(geo.ConditionMode.FULL_MOTION, [mask], (1.0, 1.0, 0.0))
    fileio.write_condition(tmp_path, chans)
    level = fileio.read_pgm(tmp_path / "cond_conf_0000.pgm")
    np.testing.assert_array_equal(level, np.where(mask != 0, 2, 0))
    assert fileio.read_condition(tmp_path)[0].mode is geo.ConditionMode.FULL_MOTION


@pytest.mark.parametrize("level", ["background-set", "labeled-pixel-unset",
                                   "two-levels", "unknown-level"])
def test_read_condition_rejects_a_level_grid_that_disagrees_with_its_mask(
        tmp_path, level):
    mask = _part_mask()
    fileio.write_condition(tmp_path, geo.build_condition(
        geo.ConditionMode.TARGET_POSE, [mask]))
    grid = np.where(mask != 0, 1, 0)
    if level == "background-set":
        grid[0, 0] = 1
    elif level == "labeled-pixel-unset":
        grid[2, 3] = 0
    elif level == "two-levels":
        grid[2, 3] = 2
    else:
        grid[mask != 0] = 3
    fileio.write_pgm(tmp_path / "cond_conf_0000.pgm", grid)
    with pytest.raises(PayloadMismatch):
        fileio.read_condition(tmp_path)


def test_clip_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    frames = [rng.integers(0, 255, size=(10, 14)).astype(np.uint8) for _ in range(3)]
    fileio.write_clip(tmp_path / "clip", frames, fps=12.0)
    back = fileio.read_clip(tmp_path / "clip")
    assert back.fps == 12.0 and back.resolution == (14, 10)
    for a, b in zip(back.frames, frames):
        np.testing.assert_array_equal(a, b)
