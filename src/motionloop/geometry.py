"""2.5D object geometry and condition-channel rasterization.

An object seen in a frame is summarized by 21 points: 16 vertices sampled
from its mask contour, the 4 bounding-box corners, and the box center, each
lifted to 3D with per-pixel depth. Going the other way, labeled 3D points
are projected through a pinhole camera and splatted into a part-label mask
with z-buffer occlusion, paired with the conditioning mode (full motion /
target pose / empty) whose confidence level says how reliable the mask is.

Image convention: x right, y down, pixel centers at integer coordinates.
Contours are returned counterclockwise in the y-up sense (negative shoelace
sum over raw pixel coordinates), starting at the topmost-leftmost boundary
pixel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import ndimage

from .errors import (
    BoxOutOfBounds,
    DegeneratePart,
    DimensionMismatch,
    EmptyMask,
    NonPositiveDepth,
    PayloadMismatch,
)

CONTOUR_VERTICES = 16
OBJECT_POINTS = 21  # 16 contour + 4 bbox corners + center
# (point, pixel) candidates per splat block, and pixels per frame group
SPLAT_BLOCK = 1 << 16  # a group's int64 z-buffer (512 KB) stays in L2 cache


@dataclass(frozen=True)
class BinaryMask:
    bits: np.ndarray  # (H, W) bool

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=bool)
        if bits.ndim != 2:
            raise EmptyMask("mask must be a 2-D grid")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)


@dataclass(frozen=True)
class DepthMap:
    values: np.ndarray  # (H, W) non-negative, scene units

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or not np.all(np.isfinite(values)):
            raise NonPositiveDepth("depth must be a finite 2-D grid")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class CameraSpec:
    focal: float  # pixels
    principal: tuple[float, float]  # (cx, cy) pixels
    size: tuple[int, int]  # (width, height)

    def __post_init__(self):
        if not 0 < self.focal < np.inf:
            raise NonPositiveDepth("focal length must be positive and finite")
        cx, cy = self.principal
        w, h = self.size
        if not (0 <= cx < w and 0 <= cy < h):
            raise BoxOutOfBounds("principal point outside image")

    @classmethod
    def default(cls, width: int, height: int) -> "CameraSpec":
        return cls(focal=float(width), principal=((width - 1) / 2.0, (height - 1) / 2.0),
                   size=(width, height))

    def scaled(self, factor: float) -> "CameraSpec":
        w = max(1, int(round(self.size[0] * factor)))
        h = max(1, int(round(self.size[1] * factor)))
        return CameraSpec(focal=self.focal * factor,
                          principal=(self.principal[0] * factor, self.principal[1] * factor),
                          size=(w, h))


@dataclass(frozen=True)
class BBox:
    """Inclusive pixel bounds."""

    x0: int
    y0: int
    x1: int
    y1: int

    @property
    def corners(self) -> np.ndarray:
        # TL, TR, BR, BL
        return np.array([[self.x0, self.y0], [self.x1, self.y0],
                         [self.x1, self.y1], [self.x0, self.y1]], dtype=np.float64)

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)


def bbox_from_mask(mask: BinaryMask) -> BBox:
    ys, xs = np.nonzero(mask.bits)
    if xs.size == 0:
        raise EmptyMask("mask has no set pixels")
    return BBox(int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max()))


@dataclass(frozen=True)
class Object25D:
    """21 object key points; rows [0:16] contour, [16:20] corners, [20] center."""

    points: np.ndarray  # (21, 3)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.shape != (OBJECT_POINTS, 3):
            raise PayloadMismatch(f"expected ({OBJECT_POINTS}, 3) points, got {pts.shape}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def contour(self) -> np.ndarray:
        return self.points[:CONTOUR_VERTICES]

    @property
    def center(self) -> np.ndarray:
        return self.points[20]


# confidence levels, one per ConditionMode in member order
DEFAULT_TRIPLE = (1.0, 0.5, 0.0)


class ConditionMode(Enum):
    """Conditioning strength. The member order is the order of a confidence
    triple's entries: (full motion, target pose, empty)."""

    FULL_MOTION = "FullMotion"
    TARGET_POSE = "TargetPose"
    EMPTY = "Empty"

    def level(self, triple: tuple[float, float, float] = DEFAULT_TRIPLE) -> float:
        """This mode's entry of the confidence triple."""
        return triple[list(ConditionMode).index(self)]


@dataclass(frozen=True)
class ConditionChannels:
    """Part-label mask + conditioning mode, the two extra generator inputs;
    the confidence map follows from them and the triple."""

    part_mask: np.ndarray  # (H, W) int32, 0 = background
    mode: ConditionMode
    triple: tuple[float, float, float] = DEFAULT_TRIPLE  # (full, target, empty)

    def __post_init__(self):
        mask = np.asarray(self.part_mask, dtype=np.int32)
        mask.setflags(write=False)
        object.__setattr__(self, "part_mask", mask)

    @property
    def confidence(self) -> np.ndarray:
        """(H, W) float64: the mode's level on labeled pixels, the empty
        level on the background."""
        return np.where(self.part_mask != 0, self.mode.level(self.triple),
                        ConditionMode.EMPTY.level(self.triple))


# ----------------------------------------------------------------- contours

# Moore neighborhood in clockwise order starting west: W NW N NE E SE S SW
_MOORE = ((-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1))


def _largest_component(bits: np.ndarray) -> np.ndarray:
    labels, n = ndimage.label(bits, structure=np.ones((3, 3), dtype=int))
    if n == 0:
        raise EmptyMask("mask has no set pixels")
    if n == 1:
        return labels == 1
    counts = np.bincount(labels.ravel())[1:]
    return labels == (int(np.argmax(counts)) + 1)


_MOORE_INDEX = {d: i for i, d in enumerate(_MOORE)}


def extract_contour(mask: BinaryMask) -> np.ndarray:
    """Trace the outer boundary of the largest 8-connected component.

    Returns an (N, 2) integer array of (x, y) pixels, counterclockwise
    (y-up sense), starting at the topmost-leftmost boundary pixel.
    """
    comp = _largest_component(np.asarray(mask.bits))
    h, w = comp.shape
    ys, xs = np.nonzero(comp)
    # topmost row, then leftmost column within it
    top = ys.min()
    start = (int(xs[ys == top].min()), int(top))

    def is_set(x, y):
        return 0 <= x < w and 0 <= y < h and comp[y, x]

    # single-pixel component: no neighbors to walk
    if not any(is_set(start[0] + dx, start[1] + dy) for dx, dy in _MOORE):
        return np.array([start], dtype=np.int64)

    # backtrack starts west of the start pixel, unset because the start is
    # the leftmost set pixel of the topmost row. The walk is a deterministic
    # map on (pixel, backtrack) states, so the boundary is the cycle this
    # walk falls into; trace until a state repeats and keep the cycle.
    cur = start
    back = (start[0] - 1, start[1])
    seen: dict[tuple, int] = {}
    chain: list[tuple] = []
    while (cur, back) not in seen:
        seen[(cur, back)] = len(chain)
        chain.append(cur)
        db = _MOORE_INDEX[(back[0] - cur[0], back[1] - cur[1])]
        for k in range(1, 9):
            d = (db + k) % 8
            cand = (cur[0] + _MOORE[d][0], cur[1] + _MOORE[d][1])
            if is_set(*cand):
                if k == 1:
                    new_back = back
                else:
                    pd = (db + k - 1) % 8
                    new_back = (cur[0] + _MOORE[pd][0], cur[1] + _MOORE[pd][1])
                cur, back = cand, new_back
                break
    cycle = chain[seen[(cur, back)]:]
    # rotate so the cycle starts at its topmost-leftmost pixel
    top_left = min(cycle, key=lambda p: (p[1], p[0]))
    k0 = cycle.index(top_left)
    pts = np.array(cycle[k0:] + cycle[:k0], dtype=np.int64)
    # enforce counterclockwise orientation (negative raw shoelace)
    if _shoelace(pts) > 0:
        pts = np.vstack([pts[:1], pts[1:][::-1]])
    return pts


def _shoelace(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def simplify_contour(contour: np.ndarray, n: int = CONTOUR_VERTICES) -> np.ndarray:
    """Subsample a closed contour to exactly n vertices, order preserved.

    Vertices are picked at uniform index spacing, which matches uniform
    arc length for pixel chains (unit-ish steps) while keeping an n-point
    input fixed and repeating vertices cyclically for shorter inputs.
    """
    contour = np.asarray(contour)
    m = contour.shape[0]
    if m < 1:
        raise EmptyMask("contour is empty")
    if m < n:
        idx = np.arange(n) % m
    else:
        idx = (np.arange(n) * m) // n
    return contour[idx]


# ------------------------------------------------------------- lift/project

def lift_points(uv: np.ndarray, z: np.ndarray, camera: CameraSpec) -> np.ndarray:
    """Back-project pixel coordinates with known depth to camera space."""
    cx, cy = camera.principal
    f = camera.focal
    uv = np.asarray(uv, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    x = (uv[:, 0] - cx) * z / f
    y = (uv[:, 1] - cy) * z / f
    return np.stack([x, y, z], axis=1)


def project(points: np.ndarray, camera: CameraSpec) -> np.ndarray:
    """Pinhole projection; returns (u, v, z) columns.

    Depth is carried through unchanged so callers can z-buffer.
    """
    points = np.asarray(points, dtype=np.float64)
    z = points[:, 2]
    if np.any(z <= 0.0):
        raise NonPositiveDepth("all points must have positive depth")
    cx, cy = camera.principal
    u = camera.focal * points[:, 0] / z + cx
    v = camera.focal * points[:, 1] / z + cy
    return np.stack([u, v, z], axis=1)


def object25d_from_mask(mask: BinaryMask, bbox: BBox, depth: DepthMap,
                        camera: CameraSpec) -> Object25D:
    """Build the ordered 21-point object representation and lift it to 3D.

    Contour points take per-pixel depth; the bbox corners and center may lie
    off the object, so they take the median depth over the mask.
    """
    bits = mask.bits
    if not bits.any():
        raise EmptyMask("mask has no set pixels")
    h, w = bits.shape
    if depth.values.shape != bits.shape:
        raise NonPositiveDepth("depth grid must match the mask")
    if not (0 <= bbox.x0 <= bbox.x1 < w and 0 <= bbox.y0 <= bbox.y1 < h):
        raise BoxOutOfBounds(f"bbox {bbox} outside {w}x{h} image")

    verts = simplify_contour(extract_contour(mask)).astype(np.float64)
    contour_z = depth.values[verts[:, 1].astype(int), verts[:, 0].astype(int)]
    median_z = float(np.median(depth.values[bits]))

    uv = np.vstack([verts, bbox.corners, np.array([bbox.center])])
    z = np.concatenate([contour_z, np.full(5, median_z)])
    return Object25D(points=lift_points(uv, z, camera))


# ------------------------------------------------------------ rasterization

def render_part_masks(objects: list[tuple[np.ndarray, np.ndarray]],
                      camera: CameraSpec, splat_radius: float = 3.0) -> np.ndarray:
    """Splat labeled 3D point sets into part-label grids with z-buffering.

    This is the one splat kernel: labels are whatever codes the caller
    needs, such as simgen's packed (intensity code, part id) values.
    Objects are ``(points, labels)`` pairs, points ``(..., N, 3)`` with the
    same leading (frame) axes in every object and labels ``(N,)``; the
    result is ``(..., h, w)`` int32, so ``(N, 3)`` points give one grid.
    Each projected point covers pixels within splat_radius of its image
    position; in each frame the smallest depth wins per pixel, ties broken
    by lower (object index, point index).

    One stable sort on depth per frame ranks the points by that key. A
    point's candidate pixels fill a fixed window at its clipped box corner;
    those inside the frame, the box and the disc are kept, and each pixel
    keeps the smallest rank that covers it (a scatter-min), with the frames
    laid end to end. Candidates go through in blocks of at most SPLAT_BLOCK,
    and frames in groups whose z-buffers hold at most SPLAT_BLOCK pixels (one
    frame at least), so memory stays bounded for any radius and frame count.
    """
    w, h = camera.size
    objs = [(np.asarray(p, dtype=np.float64), np.asarray(l, dtype=np.int32))
            for p, l in objects]
    leads = {p.shape[:-2] for p, _ in objs}
    if len(leads) > 1:
        raise DimensionMismatch(f"objects differ in their leading axes: {sorted(leads)}")
    lead = leads.pop() if leads else ()
    nf = math.prod(lead)
    objs = [(p.reshape(nf, -1, 3), l) for p, l in objs if p.size]
    if not objs:
        return np.zeros(lead + (h, w), dtype=np.int32)
    pts = np.concatenate([p for p, _ in objs], axis=1)
    n = pts.shape[1]
    u, v, z = project(pts.reshape(-1, 3), camera).reshape(nf, n, 3).transpose(2, 0, 1)
    # points are concatenated in (object, point) order, so a stable sort on
    # depth ranks each frame's points by (z, object index, point index);
    # with frames end to end, a point's flat index is its rank in its frame
    rank = np.argsort(z, axis=1, kind="stable")
    u = np.take_along_axis(u, rank, axis=1).ravel()
    v = np.take_along_axis(v, rank, axis=1).ravel()
    lab = np.append(np.concatenate([l for _, l in objs])[rank], 0)  # 0: no point
    r = splat_radius
    side = 2 * int(np.ceil(r)) + 1
    ox, oy = np.arange(min(side, w)), np.arange(min(side, h))
    offs = (oy[:, None] * w + ox).ravel()
    # box corners; clipping to w keeps far-off points' windows in int64 range
    x0 = np.clip(np.ceil(u - r), 0, w).astype(np.int64)
    y0 = np.clip(np.ceil(v - r), 0, h).astype(np.int64)
    x1 = np.minimum(np.floor(u + r), w - 1)
    y1 = np.minimum(np.floor(v + r), h - 1)
    group = max(1, SPLAT_BLOCK // (h * w))
    # a frame group's pixels are laid end to end: (frame in group, y, x)
    corner = np.repeat(np.arange(nf) % group * (h * w), n) + y0 * w + x0
    grids = np.empty((nf, h * w), dtype=np.int32)
    step = max(1, SPLAT_BLOCK // offs.size)
    for f in range(0, nf, group):
        last = min(f + group, nf)
        best = np.full((last - f) * h * w, lab.size - 1)
        for s in range(f * n, last * n, step):
            b = slice(s, min(s + step, last * n))
            px = x0[b, None] + ox
            py = y0[b, None] + oy
            # NaN past the box corner: never inside, even if r * r overflows
            dx = np.where(px <= x1[b, None], (px - u[b, None]) ** 2, np.nan)
            dy = np.where(py <= y1[b, None], (py - v[b, None]) ** 2, np.nan)
            inside = (dy[:, :, None] + dx[:, None, :] <= r * r).reshape(len(dx), -1)
            np.minimum.at(best, (corner[b, None] + offs)[inside],
                          np.repeat(np.arange(s, b.stop), np.count_nonzero(inside, axis=1)))
        grids[f:f + group] = lab[best].reshape(-1, h * w)
    return grids.reshape(lead + (h, w))


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain; returns hull vertices, counterclockwise (y-up)."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if pts.shape[0] < 3:
        raise DegeneratePart("need at least 3 distinct points")
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(tuple(p))
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(tuple(p))
    hull = np.array(lower[:-1] + upper[:-1])
    if hull.shape[0] < 3:
        raise DegeneratePart("points are collinear")
    return hull


def polygon_target_mask(parts: list[tuple[int, np.ndarray]],
                        size: tuple[int, int]) -> np.ndarray:
    """Rasterize the convex hull of each part's 2D points into a label grid.

    Later-listed parts overwrite earlier ones where hulls overlap.
    """
    w, h = size
    grid = np.zeros((h, w), dtype=np.int32)
    px = np.arange(w, dtype=np.float64)
    py = np.arange(h, dtype=np.float64)
    for label, points in parts:
        hull = _convex_hull(points)
        inside = np.ones((h, w), dtype=bool)
        n = hull.shape[0]
        for k in range(n):
            a = hull[k]
            b = hull[(k + 1) % n]
            # hull is ordered so the interior satisfies cross >= 0
            cx = (b[0] - a[0]) * (py[:, None] - a[1]) - (b[1] - a[1]) * (px[None, :] - a[0])
            inside &= cx >= 0.0
        grid[inside] = label
    return grid


# -------------------------------------------------------- condition channels

def build_condition(mode: ConditionMode, masks: list[np.ndarray],
                    confidence_triple: tuple[float, float, float] = DEFAULT_TRIPLE
                    ) -> list[ConditionChannels]:
    """Per-frame condition channels: each part-label mask under the mode,
    whose confidence level (full, target or empty) covers its labeled
    pixels and the empty level its background."""
    return [ConditionChannels(grid, mode, confidence_triple) for grid in masks]
