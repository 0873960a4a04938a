from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionloop import fileio, geometry as geo
from motionloop.errors import PayloadMismatch, ShapeMismatch


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


@pytest.mark.parametrize("maxval", [b"0", b"65536", b"99999999999999999999999"])
def test_read_pgm_rejects_maxval_outside_1_to_65535(tmp_path, maxval):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5 8 6 " + maxval + b"\n" + bytes(96))
    with pytest.raises(ShapeMismatch, match="maxval"):
        fileio.read_pgm(p)


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
        written = geo.ConditionChannels(np.stack([mask, np.zeros_like(mask)]), mode)
        fileio.write_condition(d, written)
        back = fileio.read_condition(d)
        assert back.mode is mode and back.part_masks.shape == (2, 6, 8)
        np.testing.assert_array_equal(back.part_masks, written.part_masks)
        confidence = back.confidence(triple)
        np.testing.assert_array_equal(
            confidence[0], np.where(mask != 0, mode.level(triple), triple[2]))
        np.testing.assert_array_equal(confidence[1], np.full(mask.shape, triple[2]))
    assert not list(tmp_path.rglob("*_conf_*.pgm"))


def test_condition_full_motion_level_with_full_equal_to_target(tmp_path):
    # full motion and target pose share a level, so only the sidecar's mode
    # tells them apart
    mask = _part_mask()
    triple = (1.0, 1.0, 0.0)
    fileio.write_condition(tmp_path, geo.ConditionChannels(mask[None],
                                                           geo.ConditionMode.FULL_MOTION))
    doc = json.loads((tmp_path / "cond_conf.json").read_text())
    assert doc == {"mode": geo.ConditionMode.FULL_MOTION.value, "frames": 1}
    back = fileio.read_condition(tmp_path)
    assert back.mode is geo.ConditionMode.FULL_MOTION
    np.testing.assert_array_equal(back.confidence(triple), np.where(mask != 0, 1.0, 0.0)[None])


def _frames_over_masks(frames, kept):
    """The sidecar's frames set to ``frames``, with only the first ``kept``
    masks left on disk."""
    def edit(d, doc):
        for path in sorted(d.glob("cond_mask_*.pgm"))[kept:]:
            path.unlink()
        return {**doc, "frames": frames}
    return edit


def _renamed_mask(d, doc):
    (d / "cond_mask_0001.pgm").rename(d / "cond_mask_0002.pgm")
    return doc


def _smaller_mask(d, doc):
    fileio.write_pgm(d / "cond_mask_0001.pgm", np.zeros((5, 8), dtype=np.int32))
    return doc


# one per PayloadMismatch condition of read_condition, as an edit of a
# written two-frame clip's sidecar and masks, with the words its error names;
# each edit passes every check before its own
SIDECAR_EDITS = {
    "not-json": (lambda d, doc: "mode: TargetPose", "not JSON"),
    "missing-key": (lambda d, doc: {"mode": doc["mode"]}, "keys"),
    "parent-format": (lambda d, doc: {"triple": [1.0, 0.5, 0.0],
                                      "modes": ["TargetPose", "TargetPose"]}, "keys"),
    "non-positive-frames": (_frames_over_masks(0, 0), "positive integer"),
    "boolean-frames": (_frames_over_masks(True, 1), "positive integer"),
    "unknown-mode": (lambda d, doc: {**doc, "mode": "Strong"}, "not a ConditionMode"),
    "frame-count-differs-from-mask-count": (_frames_over_masks(1, 2), "numbered"),
    "mask-index-gap": (_renamed_mask, "numbered"),
    "masks-of-differing-sizes": (_smaller_mask, "differ in size"),
}


@pytest.mark.parametrize("case", sorted(SIDECAR_EDITS))
def test_read_condition_rejects_a_malformed_sidecar(tmp_path, case):
    mask = _part_mask()
    fileio.write_condition(tmp_path, geo.ConditionChannels(
        np.stack([mask, mask]), geo.ConditionMode.TARGET_POSE))
    sidecar = tmp_path / "cond_conf.json"
    edit, words = SIDECAR_EDITS[case]
    doc = edit(tmp_path, json.loads(sidecar.read_text()))
    sidecar.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(PayloadMismatch, match=words):
        fileio.read_condition(tmp_path)


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=5), inner, max_size=3),
                     max_leaves=8)


@st.composite
def _sidecar_docs(draw):
    """Sidecar documents near the format: mode and frames each valid or any
    JSON, frame counts up to 10**12, a key left out or one added, the older
    {"triple", "modes"} format, or any JSON at all."""
    mode = draw(st.sampled_from([m.value for m in geo.ConditionMode]) | _JSON)
    frames = draw(st.sampled_from([2, 1, 0, True, 10**12]) | st.integers(-3, 10**12) | _JSON)
    doc = {"mode": mode, "frames": frames}
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=1)):
        del doc[key]
    doc.update(draw(st.dictionaries(st.text(max_size=6), _JSON, max_size=1)))
    older = {"triple": [1.0, 0.5, 0.0], "modes": [mode] * 2}
    return draw(st.sampled_from([doc, doc, older]) | _JSON)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=_sidecar_docs())
def test_fuzzed_sidecar_reads_back_or_names_payload_mismatch(tmp_path_factory, doc):
    # over a written two-frame clip, any sidecar document reads back as a
    # record of its masks or raises PayloadMismatch; no other exception
    d = tmp_path_factory.mktemp("sidecar")
    mask = _part_mask()
    fileio.write_condition(d, geo.ConditionChannels(np.stack([mask, mask]),
                                                    geo.ConditionMode.EMPTY))
    (d / "cond_conf.json").write_text(json.dumps(doc))
    try:
        back = fileio.read_condition(d)
    except PayloadMismatch:
        return
    assert doc == {"mode": back.mode.value, "frames": 2}
    np.testing.assert_array_equal(back.part_masks, np.stack([mask, mask]))


def test_clip_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    frames = [rng.integers(0, 255, size=(10, 14)).astype(np.uint8) for _ in range(3)]
    fileio.write_clip(tmp_path / "clip", frames, fps=12.0)
    back = fileio.read_clip(tmp_path / "clip")
    assert back.fps == 12.0 and back.resolution == (14, 10)
    for a, b in zip(back.frames, frames):
        np.testing.assert_array_equal(a, b)
