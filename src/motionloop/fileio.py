"""On-disk formats: binary PGM grids, condition channels and clip directories.

Part-label grids and masks are 8-bit P5 PGMs (pixel value = part id,
0 = background). Condition channels are one such mask per frame,
{prefix}_mask_%04d.pgm, plus a {prefix}_conf.json sidecar
{"triple": [full, target, empty], "modes": [one ConditionMode value per
frame]}; each frame's confidence map follows from its mask and mode. A video
clip is a directory of frame_%04d.pgm files plus clip.json {"fps",
"resolution": [w, h]}.
"""

from __future__ import annotations

import json
import math
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
    data = raw[pos + 1:]  # single whitespace byte after maxval
    dtype = np.dtype(np.uint8 if maxval <= 255 else ">u2")
    if len(data) < w * h * dtype.itemsize:
        raise ShapeMismatch(
            f"PGM payload of {len(data)} bytes is short of {w}x{h} pixels: {path}")
    grid = np.frombuffer(data, dtype=dtype, count=w * h).reshape(h, w)
    return grid.astype(np.int64 if maxval > 255 else np.uint8)


def write_condition(dir_path, channels: list[ConditionChannels],
                    prefix: str = "cond") -> None:
    """Write per-frame part masks and a sidecar with the triple and each
    frame's mode."""
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    for i, ch in enumerate(channels):
        write_pgm(d / f"{prefix}_mask_{i:04d}.pgm", ch.part_mask)
    (d / f"{prefix}_conf.json").write_text(json.dumps(
        {"triple": list(channels[0].triple), "modes": [ch.mode.value for ch in channels]}))


def read_condition(dir_path, prefix: str = "cond") -> list[ConditionChannels]:
    """Inverse of ``write_condition``: each frame from its mask and the
    sidecar's mode and triple."""
    d = Path(dir_path)
    sidecar = d / f"{prefix}_conf.json"
    doc = load_json(sidecar.read_text(), str(sidecar), PayloadMismatch)
    try:
        triple, modes = doc["triple"], [ConditionMode(name) for name in doc["modes"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise PayloadMismatch(
            f"malformed {sidecar} ({type(exc).__name__}: {exc})") from None
    if not (isinstance(triple, list) and len(triple) == 3 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
            for v in triple)):
        raise PayloadMismatch(f"{sidecar} triple must be three finite numbers, "
                              f"got {triple!r}")
    names = [f"{prefix}_mask_{i:04d}.pgm" for i in range(len(modes))]
    found = {p.name for p in d.glob(f"{prefix}_mask_*.pgm")}
    if found != set(names):
        raise PayloadMismatch(f"{sidecar.name} names {len(modes)} modes, but the "
                              f"{prefix}_mask_*.pgm files in {d} are not numbered "
                              f"0..{len(modes) - 1}")
    triple = tuple(float(v) for v in triple)
    return [ConditionChannels(read_pgm(d / name).astype(np.int32), mode, triple)
            for name, mode in zip(names, modes)]


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
