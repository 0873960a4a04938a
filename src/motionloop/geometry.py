"""2.5D object geometry and condition-channel rasterization.

An object seen in a frame is summarized by 21 points: 16 vertices sampled
from its mask contour, the 4 bounding-box corners, and the box center, all
lifted to 3D at the object's one depth into a (21, 3) array. Going the other
way, labeled 3D points are projected through a pinhole camera and splatted
into part-label masks with z-buffer occlusion; a clip's masks under one
conditioning mode (full motion / target pose / empty) are its condition
channels.

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
    InvalidConfig,
    NonPositiveDepth,
    ShapeMismatch,
)

CONTOUR_VERTICES = 16
# (point, pixel) candidates per splat block, and pixels per frame group in the
# splat (pixels of the splats' crop; a group's int64 z-buffer, 512 KB, stays
# in L2 cache) and in pipeline's eval (five int32 planes; 2^16 to 2^19 scored
# the fixtures' clips equally fast, 2^14 slower). Retuning it retunes both.
SPLAT_BLOCK = 1 << 16


def _bytes(values, what: str) -> np.ndarray:
    """values as uint8, refused (ShapeMismatch) rather than cast if any lies
    outside 0..255: a cast would wrap an id onto another part's."""
    a = np.asarray(values)
    if a.dtype != np.uint8 and a.size and not 0 <= a.min() <= a.max() <= 255:
        raise ShapeMismatch(f"{what} must lie in 0..255, got {a.min()}..{a.max()}")
    return a.astype(np.uint8, copy=False)


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
class CameraSpec:
    focal: float  # pixels
    principal: tuple[float, float]  # (cx, cy) pixels
    size: tuple[int, int]  # (width, height)

    def __post_init__(self):
        if not 0 < self.focal < np.inf:
            raise NonPositiveDepth("focal length must be positive and finite")
        cx, cy = self.principal
        w, h = self.size
        if not all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in (w, h)):
            raise InvalidConfig(f"camera size must be two positive integers, got {self.size}")
        if not (0 <= cx < w and 0 <= cy < h):
            raise BoxOutOfBounds("principal point outside image")

    @classmethod
    def default(cls, width: int, height: int) -> "CameraSpec":
        return cls(focal=float(width), principal=((width - 1) / 2.0, (height - 1) / 2.0),
                   size=(width, height))

    def scaled(self, factor: float) -> "CameraSpec":
        if factor == 1.0:  # kept exactly: float64 would round sizes above 2**53
            return self
        w = max(1, int(round(self.size[0] * factor)))
        h = max(1, int(round(self.size[1] * factor)))
        return CameraSpec(focal=self.focal * factor,
                          principal=(self.principal[0] * factor, self.principal[1] * factor),
                          size=(w, h))


# confidence levels, one per ConditionMode in member order
DEFAULT_TRIPLE = (1.0, 0.5, 0.0)


class ConditionMode(Enum):
    """Conditioning strength. The member order is the order of every per-mode
    triple's entries, a confidence triple's or a generator's attenuation:
    (full motion, target pose, empty)."""

    FULL_MOTION = "FullMotion"
    TARGET_POSE = "TargetPose"
    EMPTY = "Empty"

    def level(self, triple: tuple[float, float, float]) -> float:
        """This mode's entry of a per-mode triple."""
        return triple[list(ConditionMode).index(self)]


@dataclass(frozen=True)
class ConditionChannels:
    """One clip's two extra generator inputs: its part-label masks under one
    mode, whose confidence maps follow from the run's confidence triple."""

    part_masks: np.ndarray  # (F, H, W) uint8 part ids, 0 = background
    mode: ConditionMode

    def __post_init__(self):
        masks = np.asarray(self.part_masks)
        if masks.ndim != 3:
            raise ShapeMismatch(f"part masks must be (F, H, W), got shape {masks.shape}")
        masks = _bytes(masks, "part ids")
        masks.setflags(write=False)
        object.__setattr__(self, "part_masks", masks)

    def confidence(self, triple: tuple[float, float, float]) -> np.ndarray:
        """(F, H, W) float64: the mode's level of the triple on labeled
        pixels, the empty level on the background."""
        return np.where(self.part_masks != 0, self.mode.level(triple),
                        ConditionMode.EMPTY.level(triple))


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


def simplify_contour(contour: np.ndarray) -> np.ndarray:
    """Subsample a closed contour to exactly CONTOUR_VERTICES vertices, order
    preserved.

    Vertices are picked at uniform index spacing, which matches uniform
    arc length for pixel chains (unit-ish steps) while keeping an n-point
    input fixed and repeating vertices cyclically for shorter inputs.
    """
    contour = np.asarray(contour)
    n = CONTOUR_VERTICES
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


def object25d_from_mask(mask: BinaryMask, depth: float, camera: CameraSpec
                        ) -> np.ndarray:
    """The ordered 21-point object representation, lifted to 3D at one depth.

    Rows [0:16] are the contour's vertices, [16:20] the mask's bounding-box
    corners (TL, TR, BR, BL) and [20] the box center; the result is a
    read-only (21, 3) float64 array.
    """
    if not 0.0 < depth < math.inf:
        raise NonPositiveDepth(f"depth must be positive and finite, got {depth}")
    ys, xs = np.nonzero(mask.bits)
    if xs.size == 0:
        raise EmptyMask("mask has no set pixels")
    x0, y0, x1, y1 = xs.min(), ys.min(), xs.max(), ys.max()
    box = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1],
                    [(x0 + x1) / 2.0, (y0 + y1) / 2.0]], dtype=np.float64)
    uv = np.vstack([simplify_contour(extract_contour(mask)).astype(np.float64), box])
    points = lift_points(uv, np.full(uv.shape[0], float(depth)), camera)
    points.setflags(write=False)
    return points


# ------------------------------------------------------------ rasterization

def render_part_masks(objects: list[tuple[np.ndarray, np.ndarray]],
                      camera: CameraSpec, splat_radius: float) -> np.ndarray:
    """Splat labeled 3D point sets into byte planes with z-buffering.

    This is the one splat kernel: each point carries a row of label bytes,
    one per plane, such as simgen's (part intensity, part id). Objects are
    ``(points, labels)`` pairs, points ``(..., N, 3)`` with the same leading
    (frame) axes in every object and labels ``(N, C)`` with the same C in
    every object; the result is ``(C, ..., h, w)`` uint8, so ``(N, 3)``
    points give C grids. Each projected point covers pixels within
    splat_radius of its image position; in each frame the smallest depth
    wins per pixel, ties broken by lower (object index, point index), and
    each plane holds the winner's byte in that channel, 0 where no point
    lands. A label outside 0..255 is refused, not wrapped.

    One stable sort on depth per frame ranks the points by that key. Only
    the crop holding every point's clipped box in every frame is splatted.
    A point's candidate pixels fill a fixed window at its box corner, laid
    out offset-major, (window offset, point). One flatnonzero finds those
    inside the box and the disc, and division by the block's point count
    splits each flat position into window offset and point, whose index is
    its rank. Each crop pixel keeps the smallest rank that covers it (a
    scatter-min, which no candidate order changes), with the frames'
    crops end to end, and the winners' bytes are gathered straight into
    the planes' crop. Candidates go through in blocks of at most
    SPLAT_BLOCK, and frames in groups of at most SPLAT_BLOCK crop pixels
    (one frame at least), so memory stays bounded for any radius and frame
    count.
    """
    w, h = camera.size
    objs = []
    for p, l in objects:
        p, l = np.asarray(p, dtype=np.float64), _bytes(l, "labels")
        if p.ndim < 2 or p.shape[-1] != 3 or l.ndim != 2 or len(l) != p.shape[-2]:
            raise DimensionMismatch(f"labels of shape {l.shape} are not one row "
                                    f"per point of points of shape {p.shape}")
        objs.append((p, l))
    for what, axes in (("leading axes", {p.shape[:-2] for p, _ in objs}),
                       ("label channels", {l.shape[1] for _, l in objs})):
        if len(axes) > 1:
            raise DimensionMismatch(f"objects differ in their {what}: {sorted(axes)}")
    lead = objs[0][0].shape[:-2] if objs else ()
    c = objs[0][1].shape[1] if objs else 0
    nf = math.prod(lead)
    try:
        planes = np.zeros((c, nf, h, w), dtype=np.uint8)
    except (MemoryError, ValueError):  # out of memory, or past numpy's largest array
        raise ShapeMismatch(f"{nf} frames of {w}x{h} pixels cannot be allocated") from None
    objs = [(p.reshape(nf, -1, 3), l) for p, l in objs if p.size]
    if not objs:
        return planes.reshape((c,) + lead + (h, w))
    pts = np.concatenate([p for p, _ in objs], axis=1)
    n = pts.shape[1]
    u, v, z = project(pts.reshape(-1, 3), camera).reshape(nf, n, 3).transpose(2, 0, 1)
    # points are concatenated in (object, point) order, so a stable sort on
    # depth ranks each frame's points by (z, object index, point index);
    # with frames end to end, a point's flat index is its rank in its frame
    rank = np.argsort(z, axis=1, kind="stable")
    u = np.take_along_axis(u, rank, axis=1).ravel()
    v = np.take_along_axis(v, rank, axis=1).ravel()
    # (channel, ranked point), then a zero byte for pixels no point covers
    lab = np.zeros((c, nf * n + 1), dtype=np.uint8)
    np.take(np.concatenate([l for _, l in objs]).T, rank.ravel(), axis=1, out=lab[:, :-1])
    r = splat_radius
    side = 2 * int(np.ceil(r)) + 1
    ox = np.arange(min(side, w), dtype=np.float64)[:, None]
    oy = np.arange(min(side, h), dtype=np.float64)[:, None]
    # box corners, exact integers kept as floats so px - u is the same
    # float64 subtraction; clipping to w keeps far-off points' windows small
    x0 = np.clip(np.ceil(u - r), 0, w)
    y0 = np.clip(np.ceil(v - r), 0, h)
    x1 = np.minimum(np.floor(u + r), w - 1)
    y1 = np.minimum(np.floor(v + r), h - 1)
    live = (x0 <= x1) & (y0 <= y1)
    if not live.any():
        return planes.reshape((c,) + lead + (h, w))
    # splat into the crop that holds every live box of every frame: a
    # candidate outside it is outside its own box, so it is never scattered
    cx, cy = int(x0[live].min()), int(y0[live].min())
    cw, ch = int(x1[live].max()) + 1 - cx, int(y1[live].max()) + 1 - cy
    offs = (oy * cw + ox.T).astype(np.int64).ravel()
    group = max(1, SPLAT_BLOCK // (ch * cw))
    # a frame group's crop pixels are laid end to end: (frame in group, y, x)
    corner = (np.repeat(np.arange(nf) % group * (ch * cw), n)
              + ((y0 - cy) * cw + x0 - cx).astype(np.int64))
    step = max(1, SPLAT_BLOCK // offs.size)
    for f in range(0, nf, group):
        last = min(f + group, nf)
        best = np.full((last - f) * ch * cw, nf * n)
        for s in range(f * n, last * n, step):
            e = min(s + step, last * n)
            # offset-major (window offset, candidate): each row is a whole
            # block of points wide, so numpy's inner loops run long
            px = x0[s:e] + ox
            py = y0[s:e] + oy
            # NaN past the box corner: never inside, even if r * r overflows
            dx = np.where(px <= x1[s:e], (px - u[s:e]) ** 2, np.nan)
            dy = np.where(py <= y1[s:e], (py - v[s:e]) ** 2, np.nan)
            # inside candidates' flat positions: offset k // (e - s), point the rest
            k = np.flatnonzero(dy[:, None] + dx[None] <= r * r)
            row = k // (e - s)
            k -= row * (e - s)
            k += s
            np.minimum.at(best, offs[row] + corner[k], k)
        planes[:, f:last, cy:cy + ch, cx:cx + cw] = np.take(lab, best, axis=1).reshape(
            c, -1, ch, cw)
    return planes.reshape((c,) + lead + (h, w))


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

    Later-listed parts overwrite earlier ones where hulls overlap. A label
    outside 0..255, which no part-mask byte holds, is refused before any
    part is drawn.
    """
    _bytes([label for label, _ in parts], "part ids")
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

