from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass

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


@pytest.mark.parametrize("maxval", [b"0", b"65536", b"99999999999999999999999"])
def test_read_pgm_rejects_maxval_outside_1_to_65535(tmp_path, maxval):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5 8 6 " + maxval + b"\n" + bytes(96))
    with pytest.raises(ShapeMismatch, match="maxval"):
        fileio.read_pgm(p)


@pytest.mark.parametrize("maxval", [b"256", b"65535"])
def test_read_pgm_refuses_16_bit_maxval(tmp_path, maxval):
    # PGMs are 8-bit: a 16-bit header is named, not read as two-byte pixels
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5 8 6 " + maxval + b"\n" + bytes(96))
    with pytest.raises(ShapeMismatch, match=f"maxval {maxval.decode()} is outside 1..255"):
        fileio.read_pgm(p)


@pytest.mark.parametrize("maxval", [1, 100, 255])
def test_read_pgm_returns_read_only_uint8_at_any_8_bit_maxval(tmp_path, maxval):
    p = tmp_path / "m.pgm"
    p.write_bytes(f"P5 8 6 {maxval}\n".encode() + bytes(range(48)))
    grid = fileio.read_pgm(p)
    assert grid.dtype == np.uint8 and not grid.flags.writeable
    np.testing.assert_array_equal(grid, np.arange(48, dtype=np.uint8).reshape(6, 8))


@pytest.mark.parametrize("maxval, value", [(255, 300), (255, -1)])
def test_write_pgm_refuses_values_outside_0_to_maxval(tmp_path, maxval, value):
    # a cast would wrap them: 300 would read back as 44 and -1 as 255
    grid = np.zeros((3, 4), dtype=np.int32)
    grid[1, 2] = value
    with pytest.raises(ShapeMismatch, match=f"0..{maxval}"):
        fileio.write_pgm(tmp_path / "v.pgm", grid)
    assert not (tmp_path / "v.pgm").exists()


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
    doc = json.loads((tmp_path / "condition.json").read_text())
    assert doc == {"mode": geo.ConditionMode.FULL_MOTION.value, "frames": 1}
    back = fileio.read_condition(tmp_path)
    assert back.mode is geo.ConditionMode.FULL_MOTION
    np.testing.assert_array_equal(back.confidence(triple), np.where(mask != 0, 1.0, 0.0)[None])


def _stack(frames: int) -> np.ndarray:
    """``frames`` distinct 8-bit frames, each a scaled part mask."""
    return np.stack([_part_mask() * (k + 1) for k in range(frames)]).astype(np.uint8)


def _read_condition_back(d):
    back = fileio.read_condition(d)
    return {"mode": back.mode.value, "frames": len(back.part_masks)}, back.part_masks


def _read_clip_back(d):
    back = fileio.read_clip(d)
    return ({"fps": back.fps, "frames": back.frame_count,
             "resolution": list(back.resolution)}, np.stack(back.frames))


@dataclass(frozen=True)
class StackFormat:
    """A numbered-frame format as the tests below drive it."""
    sidecar: str
    error: type
    write: Callable  # (directory, (F, H, W) uint8 stack)
    read: Callable  # directory -> (the sidecar it stands for, the stack)
    valid: dict  # valid values of each of the format's own keys
    older: dict  # the sidecar of the format's layout before this one
    edits: dict  # SIDECAR_EDITS-like cases of the format's own keys


FORMATS = {
    "condition": StackFormat(
        "condition.json", PayloadMismatch,
        lambda d, stack: fileio.write_condition(
            d, geo.ConditionChannels(stack, geo.ConditionMode.TARGET_POSE)),
        _read_condition_back, {"mode": [m.value for m in geo.ConditionMode]},
        {"triple": [1.0, 0.5, 0.0], "modes": ["TargetPose", "TargetPose"]},
        {"unknown-mode": (lambda d, doc: {**doc, "mode": "Strong"}, "not a ConditionMode")}),
    "clip": StackFormat(
        "clip.json", ShapeMismatch, lambda d, stack: fileio.write_clip(d, list(stack), 8.0),
        _read_clip_back, {"fps": [8.0, 8, 0.5], "resolution": [[8, 6]]},
        {"fps": 8.0, "resolution": [8, 6]},
        {"resolution-differs-from-frames": (lambda d, doc: {**doc, "resolution": [6, 8]},
                                            "differs"),
         "infinite-fps": (lambda d, doc: {**doc, "fps": float("inf")}, "positive number"),
         "boolean-fps": (lambda d, doc: {**doc, "fps": True}, "positive number")}),
}


def _frames_over_masks(frames, kept):
    """The sidecar's frames set to ``frames``, with only the first ``kept``
    frames left on disk."""
    def edit(d, doc):
        for path in sorted(d.glob("*.pgm"))[kept:]:
            path.unlink()
        return {**doc, "frames": frames}
    return edit


def _renamed_mask(d, doc):
    second = sorted(d.glob("*.pgm"))[1]
    second.rename(second.with_name(second.name.replace("0001", "0003")))
    return doc


def _missing_middle_frame(d, doc):
    sorted(d.glob("*.pgm"))[1].unlink()
    return doc


def _stray_frame(d, doc):
    first = sorted(d.glob("*.pgm"))[0]
    first.with_name(first.name.replace("0000", "extra")).write_bytes(first.read_bytes())
    return doc


def _smaller_mask(d, doc):
    fileio.write_pgm(sorted(d.glob("*.pgm"))[1], np.zeros((5, 8), dtype=np.uint8))
    return doc


# one per error of the numbered-frame reader, as an edit of a written
# three-frame stack's sidecar and frames, with the words its error names;
# each edit passes every check before its own. Every format runs these and
# its own ``edits``, under its own error class.
SIDECAR_EDITS = {
    "not-json": (lambda d, doc: "frames: 3", "not JSON"),
    "non-utf8": (lambda d, doc: b'{"a": 1}\xff', "not JSON"),
    "missing-key": (lambda d, doc: {k: v for k, v in doc.items() if k != "frames"}, "keys"),
    "unknown-key": (lambda d, doc: {**doc, "note": "x"}, "keys"),
    "parent-format": (None, "keys"),  # the format's ``older`` sidecar
    "non-positive-frames": (_frames_over_masks(0, 0), "positive integer"),
    "boolean-frames": (_frames_over_masks(True, 1), "positive integer"),
    "frame-count-differs-from-mask-count": (_frames_over_masks(1, 2), "numbered"),
    "mask-index-gap": (_renamed_mask, "numbered"),
    "missing-middle-frame": (_missing_middle_frame, "numbered"),
    "stray-frame": (_stray_frame, "numbered"),
    "masks-of-differing-sizes": (_smaller_mask, "differ in size"),
}


def _write_sidecar(path, doc) -> None:
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))


# the condition record's cases keep their names; a clip's are clip-<case>
@pytest.mark.parametrize("fmt, case", [
    pytest.param(fmt, case, id=case if fmt == "condition" else f"{fmt}-{case}")
    for fmt, spec in FORMATS.items() for case in sorted({**SIDECAR_EDITS, **spec.edits})])
def test_read_condition_rejects_a_malformed_sidecar(tmp_path, fmt, case):
    spec = FORMATS[fmt]
    spec.write(tmp_path, _stack(3))
    sidecar = tmp_path / spec.sidecar
    edit, words = {**SIDECAR_EDITS, **spec.edits}[case]
    doc = json.loads(sidecar.read_text())
    _write_sidecar(sidecar, spec.older if edit is None else edit(tmp_path, doc))
    with pytest.raises(spec.error, match=words):
        spec.read(tmp_path)


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=5), inner, max_size=3),
                     max_leaves=8)


@st.composite
def _sidecar_docs(draw, spec: StackFormat):
    """Sidecar documents near a format: each key valid or any JSON, frame
    counts up to 10**12, a key left out or one added, the format's older
    layout, or any JSON at all."""
    doc = {key: draw(st.sampled_from(values) | _JSON) for key, values in spec.valid.items()}
    doc["frames"] = draw(st.sampled_from([2, 1, 0, True, 10**12])
                         | st.integers(-3, 10**12) | _JSON)
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=1)):
        del doc[key]
    doc.update(draw(st.dictionaries(st.text(max_size=6), _JSON, max_size=1)))
    return draw(st.sampled_from([doc, doc, spec.older]) | _JSON)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(sorted(FORMATS)).flatmap(
    lambda fmt: st.tuples(st.just(fmt), _sidecar_docs(FORMATS[fmt]))))
def test_fuzzed_sidecar_reads_back_or_names_payload_mismatch(tmp_path_factory, case):
    # over a written two-frame stack of either format, any sidecar document
    # reads back as that sidecar over its frames or raises the format's error
    # (PayloadMismatch for a condition record); no other exception
    fmt, doc = case
    spec = FORMATS[fmt]
    d = tmp_path_factory.mktemp("sidecar")
    spec.write(d, _stack(2))
    (d / spec.sidecar).write_text(json.dumps(doc))
    try:
        back, stack = spec.read(d)
    except spec.error:
        return
    assert doc == back
    np.testing.assert_array_equal(stack, _stack(2))


def test_clip_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    frames = [rng.integers(0, 255, size=(10, 14)).astype(np.uint8) for _ in range(3)]
    fileio.write_clip(tmp_path / "clip", frames, fps=12.0)
    doc = json.loads((tmp_path / "clip" / "clip.json").read_text())
    assert doc == {"fps": 12.0, "resolution": [14, 10], "frames": 3}
    back = fileio.read_clip(tmp_path / "clip")
    assert back.fps == 12.0 and back.resolution == (14, 10)
    for a, b in zip(back.frames, frames):
        np.testing.assert_array_equal(a, b)
