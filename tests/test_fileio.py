from __future__ import annotations

import json

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


def _part_mask() -> np.ndarray:
    mask = np.zeros((6, 8), dtype=np.int32)
    mask[2:4, 3:6] = 5
    return mask


def test_condition_round_trip(tmp_path):
    # every mode and a blank frame: each frame reads back as written
    mask = _part_mask()
    triple = (0.8, 0.5, 0.2)
    for mode in geo.ConditionMode:
        d = tmp_path / mode.value
        chans = geo.build_condition(mode, [mask, np.zeros_like(mask)], triple)
        fileio.write_condition(d, chans)
        back = fileio.read_condition(d)
        assert len(back) == 2
        for ch, written in zip(back, chans):
            assert ch.mode is mode and ch.triple == triple
            np.testing.assert_array_equal(ch.part_mask, written.part_mask)
        np.testing.assert_array_equal(
            back[0].confidence, np.where(mask != 0, mode.level(triple), triple[2]))
        np.testing.assert_array_equal(back[1].confidence, np.full(mask.shape, triple[2]))
    assert not list(tmp_path.rglob("*_conf_*.pgm"))


def test_condition_full_motion_level_with_full_equal_to_target(tmp_path):
    # full motion and target pose share a level, so only the sidecar's mode
    # tells them apart
    mask = _part_mask()
    triple = (1.0, 1.0, 0.0)
    chans = geo.build_condition(geo.ConditionMode.FULL_MOTION, [mask], triple)
    fileio.write_condition(tmp_path, chans)
    doc = json.loads((tmp_path / "cond_conf.json").read_text())
    assert doc == {"triple": list(triple), "modes": [geo.ConditionMode.FULL_MOTION.value]}
    (ch,) = fileio.read_condition(tmp_path)
    assert ch.mode is geo.ConditionMode.FULL_MOTION and ch.triple == triple
    np.testing.assert_array_equal(ch.confidence, np.where(mask != 0, 1.0, 0.0))


# one per PayloadMismatch condition of read_condition, as an edit of the
# parsed sidecar; the last condition, mask numbering, is a renamed mask
SIDECAR_EDITS = {
    "not-json": lambda doc: "triple: [1, 0.5, 0]",
    "missing-key": lambda doc: {"triple": doc["triple"]},
    "non-finite-triple": lambda doc: {**doc, "triple": [1.0, float("nan"), 0.0]},
    "unknown-mode": lambda doc: {**doc, "modes": ["TargetPose", "Strong"]},
    "mode-count-differs-from-mask-count": lambda doc: {**doc, "modes": ["TargetPose"]},
}


@pytest.mark.parametrize("case", sorted(SIDECAR_EDITS) + ["mask-index-gap"])
def test_read_condition_rejects_a_malformed_sidecar(tmp_path, case):
    mask = _part_mask()
    fileio.write_condition(tmp_path, geo.build_condition(
        geo.ConditionMode.TARGET_POSE, [mask, mask]))
    sidecar = tmp_path / "cond_conf.json"
    if case == "mask-index-gap":
        (tmp_path / "cond_mask_0001.pgm").rename(tmp_path / "cond_mask_0002.pgm")
    else:
        doc = SIDECAR_EDITS[case](json.loads(sidecar.read_text()))
        sidecar.write_text(doc if isinstance(doc, str) else json.dumps(doc))
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
