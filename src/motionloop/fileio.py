"""On-disk formats: binary PGM grids, sidecar JSON, and clip directories.

Part-label grids and masks are 8-bit P5 PGMs (pixel value = part id,
0 = background). Depth maps are 16-bit P5 PGMs (big-endian words, per the
Netpbm convention) with a {"scale": units_per_step} sidecar. Confidence
PGMs store the frame's conditioning mode on labeled pixels (2 full motion,
1 target pose, 0 empty) and 0 on the background, with a
{"triple": [full, target, empty]} sidecar. A video clip is a directory of
frame_%04d.pgm files plus clip.json {"fps", "resolution": [w, h]}.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .core import load_json
from .errors import PayloadMismatch, ShapeMismatch
from .geometry import ConditionChannels, ConditionMode, DepthMap
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


def write_depth(path, depth: DepthMap) -> None:
    steps = np.clip(np.round(depth.values / depth.scale), 0, 65535)
    write_pgm(path, steps, maxval=65535)
    Path(str(path) + ".json").write_text(json.dumps({"scale": depth.scale}))


def read_depth(path) -> DepthMap:
    steps = read_pgm(path)
    scale = json.loads(Path(str(path) + ".json").read_text())["scale"]
    return DepthMap(values=steps.astype(np.float64) * scale, scale=scale)


# the conf PGM's levels are one more confidence triple
_FILE_LEVELS = (2, 1, 0)


def write_condition(dir_path, channels: list[ConditionChannels],
                    prefix: str = "cond") -> None:
    """Write per-frame part masks and mode-level PGMs with the triple sidecar."""
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    for i, ch in enumerate(channels):
        write_pgm(d / f"{prefix}_mask_{i:04d}.pgm", ch.part_mask)
        write_pgm(d / f"{prefix}_conf_{i:04d}.pgm",
                  np.where(ch.part_mask != 0, ch.mode.level(_FILE_LEVELS), 0))
    (d / f"{prefix}_conf.json").write_text(
        json.dumps({"triple": list(channels[0].triple)}))


def read_condition(dir_path, prefix: str = "cond") -> list[ConditionChannels]:
    """Inverse of ``write_condition``. A frame's mode is its highest level;
    a frame with no labeled pixel reads back as EMPTY."""
    d = Path(dir_path)
    triple = tuple(json.loads((d / f"{prefix}_conf.json").read_text())["triple"])
    out = []
    for mask_path in sorted(d.glob(f"{prefix}_mask_*.pgm")):
        i = int(mask_path.stem.rsplit("_", 1)[1])
        mask = read_pgm(mask_path).astype(np.int32)
        conf_path = d / f"{prefix}_conf_{i:04d}.pgm"
        level = read_pgm(conf_path)
        top = int(level.max(initial=0))
        mode = {m.level(_FILE_LEVELS): m for m in ConditionMode}.get(top)
        if mode is None or not np.array_equal(level, np.where(mask != 0, top, 0)):
            raise PayloadMismatch(f"{conf_path} is not one mode level on the "
                                  f"labeled pixels of {mask_path.name} and 0 elsewhere")
        out.append(ConditionChannels(mask, mode, triple))
    return out


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
