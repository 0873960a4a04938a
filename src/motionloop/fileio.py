"""On-disk formats: binary PGM grids and numbered-frame directories.

Frames and part masks are 8-bit P5 PGMs (a mask's pixel value is a part id,
0 = background). Clips and condition records share one format: F PGMs
{stem}_%04d.pgm, numbered 0..F-1 and of one size, plus a JSON sidecar of
"frames": F and the format's own keys. A clip is frame_%04d.pgm plus clip.json
{"fps", "frames", "resolution": [w, h]}; a condition record is mask_%04d.pgm
plus condition.json {"frames", "mode"}, whose confidence maps follow from the
masks, the mode and run.json's confidence triple.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .core import load_json
from .errors import PayloadMismatch, ShapeMismatch
from .geometry import ConditionChannels, ConditionMode, _bytes
from .simgen import VideoClip


def write_pgm(path, grid: np.ndarray) -> None:
    """Write a 2-D grid of values in 0..255 as an 8-bit PGM; any other value
    is refused, not wrapped into range."""
    grid = _bytes(grid, f"PGM values for {path}")
    if grid.ndim != 2:
        raise ShapeMismatch("PGM grids are 2-D")
    h, w = grid.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(grid.tobytes())


def read_pgm(path) -> np.ndarray:
    """An 8-bit P5 PGM (maxval 1..255) as a read-only (H, W) uint8 grid."""
    raw = Path(path).read_bytes()
    # header: magic, width, height, maxval separated by whitespace/comments
    tokens = []
    pos = 0
    while len(tokens) < 4:
        m = re.match(rb"\s*(#[^\n]*\n|\S+)", raw[pos:])
        if m is None:
            raise ShapeMismatch(f"truncated PGM header in {path}")
        pos += m.end()
        tok = m.group(1)
        if not tok.startswith(b"#"):
            tokens.append(tok)
    if tokens[0] != b"P5":
        raise ShapeMismatch(f"not a binary PGM: {path}")
    if not all(tok.isdigit() for tok in tokens[1:]):
        raise ShapeMismatch(f"non-numeric PGM header in {path}")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if not 0 < maxval <= 255:
        raise ShapeMismatch(f"PGM maxval {maxval} is outside 1..255 (8-bit): {path}")
    data = raw[pos + 1:]  # single whitespace byte after maxval
    if w * h == 0:
        raise ShapeMismatch(f"PGM of {w}x{h} pixels holds no image: {path}")
    if len(data) < w * h:
        raise ShapeMismatch(
            f"PGM payload of {len(data)} bytes is short of {w}x{h} pixels: {path}")
    return np.frombuffer(data, dtype=np.uint8, count=w * h).reshape(h, w)


def _write_frames(dir_path, stem: str, grids, sidecar: str, **meta) -> Path:
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    for i, grid in enumerate(grids):
        write_pgm(d / f"{stem}_{i:04d}.pgm", grid)
    (d / sidecar).write_text(json.dumps({**meta, "frames": len(grids)}))
    return d


def _read_frames(dir_path, stem: str, sidecar: str, error, *keys) -> tuple[dict, np.ndarray]:
    """Inverse of ``_write_frames``: the sidecar, holding exactly ``keys`` and
    frames, and the (F, H, W) stack; ``error`` names any other directory."""
    d, keys = Path(dir_path), {*keys, "frames"}
    doc = load_json((d / sidecar).read_bytes(), str(d / sidecar), error)
    if not isinstance(doc, dict) or set(doc) != keys:
        raise error(f"{d / sidecar} must hold exactly the keys {', '.join(sorted(keys))}")
    frames = doc["frames"]
    if not (isinstance(frames, int) and not isinstance(frames, bool) and frames > 0):
        raise error(f"{d / sidecar} frames must be a positive integer, got {frames!r}")
    # the count comes first, so a sidecar's frame count sizes nothing itself
    found = {p.name for p in d.glob(f"{stem}_*.pgm")}
    if len(found) != frames or found != {f"{stem}_{i:04d}.pgm" for i in range(frames)}:
        raise error(f"{sidecar} names {frames} frames, but the {stem}_*.pgm files "
                    f"in {d} are not numbered 0..{frames - 1}")
    grids = [read_pgm(d / f"{stem}_{i:04d}.pgm") for i in range(frames)]
    if len({g.shape for g in grids}) > 1:
        raise error(f"the {stem}_*.pgm files in {d} differ in size")
    return doc, np.stack(grids)


def write_condition(dir_path, channels: ConditionChannels) -> None:
    """Write a clip's part masks and their mode as a condition record."""
    _write_frames(dir_path, "mask", channels.part_masks, "condition.json",
                  mode=channels.mode.value)


def read_condition(dir_path) -> ConditionChannels:
    """Inverse of ``write_condition``; PayloadMismatch names a malformed record."""
    doc, masks = _read_frames(dir_path, "mask", "condition.json", PayloadMismatch, "mode")
    try:
        return ConditionChannels(masks, ConditionMode(doc["mode"]))
    except ValueError:
        raise PayloadMismatch(f"{dir_path} mode {doc['mode']!r} is not a ConditionMode") from None


def write_clip(dir_path, frames, fps: float) -> Path:
    """Write a sequence of equal uint8 frames, such as ``VideoClip.frames``."""
    h, w = np.asarray(frames[0]).shape
    return _write_frames(dir_path, "frame", frames, "clip.json", fps=fps, resolution=[w, h])


def read_clip(dir_path) -> VideoClip:
    doc, frames = _read_frames(dir_path, "frame", "clip.json", ShapeMismatch, "fps", "resolution")
    h, w = frames.shape[1:]
    if doc["resolution"] != [w, h]:
        raise ShapeMismatch(f"frame resolution {w}x{h} differs from clip.json {doc['resolution']}")
    if type(doc["fps"]) not in (int, float) or not 0 < doc["fps"] < math.inf:
        raise ShapeMismatch(f"clip.json fps must be a positive number, got {doc['fps']!r}")
    return VideoClip(frames, float(doc["fps"]))
