"""On-disk formats: binary PGM grids, condition channels and clip directories.

Part-label grids and masks are 8-bit P5 PGMs (pixel value = part id,
0 = background). A clip's condition channels are one such mask per frame,
{prefix}_mask_%04d.pgm, plus a {prefix}_conf.json sidecar {"mode":
ConditionMode value, "frames": F}; the confidence maps follow from the masks,
the mode and run.json's confidence triple. A video clip is a directory of
frame_%04d.pgm files plus clip.json {"fps", "resolution": [w, h]}.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .core import load_json
from .errors import PayloadMismatch, ShapeMismatch
from .geometry import ConditionChannels, ConditionMode
from .simgen import VideoClip


def write_pgm(path, grid: np.ndarray, maxval: int = 255) -> None:
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise ShapeMismatch("PGM grids are 2-D")
    h, w = grid.shape
    if maxval <= 255:
        data = grid.astype(np.uint8).tobytes()
    else:
        data = grid.astype(">u2").tobytes()
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        f.write(data)


def read_pgm(path) -> np.ndarray:
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
    if not 0 < maxval <= 65535:
        raise ShapeMismatch(f"PGM maxval {maxval} is outside 1..65535: {path}")
    data = raw[pos + 1:]  # single whitespace byte after maxval
    dtype = np.dtype(np.uint8 if maxval <= 255 else ">u2")
    if w * h == 0:
        raise ShapeMismatch(f"PGM of {w}x{h} pixels holds no image: {path}")
    if len(data) < w * h * dtype.itemsize:
        raise ShapeMismatch(
            f"PGM payload of {len(data)} bytes is short of {w}x{h} pixels: {path}")
    grid = np.frombuffer(data, dtype=dtype, count=w * h).reshape(h, w)
    return grid.astype(np.int64 if maxval > 255 else np.uint8)


def write_condition(dir_path, channels: ConditionChannels,
                    prefix: str = "cond") -> None:
    """Write a clip's part masks, one per frame, and a sidecar with its
    mode and frame count."""
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    for i, mask in enumerate(channels.part_masks):
        write_pgm(d / f"{prefix}_mask_{i:04d}.pgm", mask)
    (d / f"{prefix}_conf.json").write_text(json.dumps(
        {"mode": channels.mode.value, "frames": len(channels.part_masks)}))


def read_condition(dir_path, prefix: str = "cond") -> ConditionChannels:
    """Inverse of ``write_condition``: the sidecar's mode over masks
    numbered 0..frames-1, all of one size."""
    d = Path(dir_path)
    sidecar = d / f"{prefix}_conf.json"
    doc = load_json(sidecar.read_text(), str(sidecar), PayloadMismatch)
    if not isinstance(doc, dict) or set(doc) != {"mode", "frames"}:
        raise PayloadMismatch(f"{sidecar} must hold exactly the keys mode and frames")
    frames = doc["frames"]
    if not (isinstance(frames, int) and not isinstance(frames, bool) and frames > 0):
        raise PayloadMismatch(f"{sidecar} frames must be a positive integer, got {frames!r}")
    try:
        mode = ConditionMode(doc["mode"])
    except ValueError:
        raise PayloadMismatch(f"{sidecar} mode {doc['mode']!r} is not a ConditionMode") from None
    # the count comes first, so a sidecar's frame count sizes nothing itself
    found = {p.name for p in d.glob(f"{prefix}_mask_*.pgm")}
    if len(found) != frames or found != {f"{prefix}_mask_{i:04d}.pgm" for i in range(frames)}:
        raise PayloadMismatch(f"{sidecar.name} names {frames} frames, but the "
                              f"{prefix}_mask_*.pgm files in {d} are not numbered "
                              f"0..{frames - 1}")
    masks = [read_pgm(d / f"{prefix}_mask_{i:04d}.pgm") for i in range(frames)]
    if len({m.shape for m in masks}) > 1:
        raise PayloadMismatch(f"the {prefix}_mask_*.pgm files in {d} differ in size")
    return ConditionChannels(np.stack(masks), mode)


def write_clip(dir_path, frames: list[np.ndarray], fps: float) -> Path:
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    h, w = np.asarray(frames[0]).shape
    for i, frame in enumerate(frames):
        write_pgm(d / f"frame_{i:04d}.pgm", frame)
    (d / "clip.json").write_text(json.dumps({"fps": fps, "resolution": [w, h]}))
    return d


def read_clip(dir_path) -> VideoClip:
    d = Path(dir_path)
    meta = load_json((d / "clip.json").read_text(), "clip.json", ShapeMismatch)
    try:
        (w, h), fps = meta["resolution"], float(meta["fps"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ShapeMismatch(
            f"malformed clip.json in {d} ({type(exc).__name__}: {exc})") from None
    frames = [read_pgm(p) for p in sorted(d.glob("frame_*.pgm"))]
    for f in frames:
        if f.dtype != np.uint8:
            raise ShapeMismatch(f"clip frames must be 8-bit PGMs, {d} holds 16-bit ones")
        if f.shape != (h, w):
            raise ShapeMismatch("frame resolution differs from clip.json")
    return VideoClip(frames=tuple(frames), fps=fps, resolution=(w, h))
