from __future__ import annotations

import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionloop import geometry as geo
from motionloop.errors import (
    DegeneratePart,
    DimensionMismatch,
    EmptyMask,
    InvalidConfig,
    NonPositiveDepth,
    ShapeMismatch,
)
from motionloop.geometry import (
    BinaryMask,
    CameraSpec,
    ConditionMode,
)


def disc_mask(w, h, cx, cy, r):
    yy, xx = np.mgrid[0:h, 0:w]
    return BinaryMask((xx - cx) ** 2 + (yy - cy) ** 2 <= r * r)


# ---------------------------------------------------------------- contours

def test_contour_single_pixel():
    bits = np.zeros((5, 5), dtype=bool)
    bits[2, 3] = True
    c = geo.extract_contour(BinaryMask(bits))
    assert c.shape == (1, 2)
    assert tuple(c[0]) == (3, 2)


def test_contour_square_perimeter_count():
    bits = np.zeros((14, 14), dtype=bool)
    bits[2:12, 2:12] = True  # 10x10 filled square
    c = geo.extract_contour(BinaryMask(bits))
    assert c.shape[0] == 36  # 4 * 10 - 4
    assert tuple(c[0]) == (2, 2)  # topmost-leftmost
    # counterclockwise in the y-up sense: raw shoelace non-positive
    assert geo._shoelace(c) <= 0


def test_contour_points_are_boundary_pixels():
    rng = np.random.default_rng(21)
    for _ in range(5):
        bits = np.zeros((24, 32), dtype=bool)
        # random blob: union of discs
        for _ in range(4):
            cx, cy = rng.integers(6, 26), rng.integers(6, 18)
            r = int(rng.integers(2, 6))
            yy, xx = np.mgrid[0:24, 0:32]
            bits |= (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        mask = BinaryMask(bits)
        c = geo.extract_contour(mask)
        for x, y in c:
            assert bits[y, x]
            on_border = x in (0, 31) or y in (0, 23)
            has_unset_4n = any(
                not (0 <= x + dx < 32 and 0 <= y + dy < 24) or not bits[y + dy, x + dx]
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)))
            assert on_border or has_unset_4n


def test_contour_visits_every_outer_ring_pixel_once():
    bits = np.zeros((9, 9), dtype=bool)
    bits[3:6, 2:8] = True  # 3x6 rectangle
    c = geo.extract_contour(BinaryMask(bits))
    expected = 2 * 6 + 2 * 3 - 4
    assert c.shape[0] == expected
    assert len({tuple(p) for p in c}) == expected


def test_contour_picks_largest_component():
    bits = np.zeros((10, 10), dtype=bool)
    bits[1, 1] = True
    bits[5:9, 5:9] = True
    c = geo.extract_contour(BinaryMask(bits))
    assert all(x >= 5 and y >= 5 for x, y in c)


def test_contour_empty_mask():
    with pytest.raises(EmptyMask):
        geo.extract_contour(BinaryMask(np.zeros((4, 4), dtype=bool)))


# ---------------------------------------------------------- simplification

def test_simplify_identity_on_16():
    pts = np.array([[i, i * 2] for i in range(16)])
    out = geo.simplify_contour(pts)
    np.testing.assert_array_equal(out, pts)


def test_simplify_short_contour_repeats_cyclically():
    pts = np.array([[0, 0], [1, 0], [1, 1]])
    out = geo.simplify_contour(pts)
    assert out.shape == (16, 2)
    np.testing.assert_array_equal(out, pts[np.arange(16) % 3])


def test_simplify_circle_vertices_on_circle():
    mask = disc_mask(64, 64, 31.5, 31.5, 20)
    c = geo.extract_contour(mask)
    verts = geo.simplify_contour(c)
    assert verts.shape == (16, 2)
    radii = np.hypot(verts[:, 0] - 31.5, verts[:, 1] - 31.5)
    assert np.all(np.abs(radii - 20) <= 1.0)
    # angular spacing approximately uniform (22.5 degrees)
    ang = np.unwrap(np.arctan2(verts[:, 1] - 31.5, verts[:, 0] - 31.5))
    spacing = np.abs(np.diff(ang)) * 180 / math.pi
    assert np.all(np.abs(spacing - 22.5) < 8.0)


def _rasterize_polygon_crossing(verts, w, h):
    """Independent oracle: even-odd crossing-number point-in-polygon."""
    grid = np.zeros((h, w), dtype=bool)
    n = len(verts)
    for py in range(h):
        for px in range(w):
            inside = False
            for i in range(n):
                x1, y1 = verts[i]
                x2, y2 = verts[(i + 1) % n]
                if (y1 > py) != (y2 > py):
                    xi = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
                    if px < xi:
                        inside = not inside
            if inside:
                grid[py, px] = True
    return grid


@pytest.mark.parametrize("shape", ["circle", "square", "ellipse"])
def test_simplify_polygon_iou_against_mask(shape):
    w = h = 80
    if shape == "circle":
        mask = disc_mask(w, h, 39.5, 39.5, 25)
    elif shape == "square":
        bits = np.zeros((h, w), dtype=bool)
        bits[20:61, 18:59] = True
        mask = BinaryMask(bits)
    else:
        yy, xx = np.mgrid[0:h, 0:w]
        mask = BinaryMask(((xx - 40) / 30) ** 2 + ((yy - 40) / 18) ** 2 <= 1.0)
    assert mask.bits.sum() >= 500
    verts = geo.simplify_contour(geo.extract_contour(mask))
    poly = _rasterize_polygon_crossing(verts.astype(float), w, h)
    inter = np.logical_and(poly, mask.bits).sum()
    union = np.logical_or(poly, mask.bits).sum()
    assert inter / union >= 0.9


# ------------------------------------------------------------- lift/project

def test_object25d_has_21_rows():
    rng = np.random.default_rng(22)
    cam = CameraSpec.default(64, 48)
    for _ in range(10):
        bits = np.zeros((48, 64), dtype=bool)
        cx, cy = rng.integers(10, 50), rng.integers(10, 38)
        r = int(rng.integers(1, 8))
        yy, xx = np.mgrid[0:48, 0:64]
        bits |= (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        points = geo.object25d_from_mask(BinaryMask(bits), 4.0, cam)
        assert points.shape == (21, 3) and points.dtype == np.float64
        assert not points.flags.writeable
        np.testing.assert_array_equal(points[:, 2], 4.0)


def test_lift_principal_point():
    cam = CameraSpec(focal=100.0, principal=(32.0, 24.0), size=(64, 48))
    out = geo.lift_points(np.array([[32.0, 24.0]]), np.array([7.0]), cam)
    np.testing.assert_allclose(out[0], [0.0, 0.0, 7.0])


def test_object25d_recovers_true_circle_radius():
    # camera-facing disc of radius R at constant depth d0 is a true 3D
    # circle; its lifted contour must recover R within pixel precision
    w, h = 256, 192
    cam = CameraSpec(focal=480.0, principal=(127.5, 95.5), size=(w, h))
    R, d0 = 1.0, 6.0
    rho = cam.focal * R / d0  # projected pixel radius = 80
    yy, xx = np.mgrid[0:h, 0:w]
    hit = (xx - 127.5) ** 2 + (yy - 95.5) ** 2 <= rho * rho
    points = geo.object25d_from_mask(BinaryMask(hit), d0, cam)
    radial = np.hypot(points[:16, 0], points[:16, 1])
    assert np.all(np.abs(radial - R) / R < 0.02)
    # center lifts onto the axis at the object depth
    np.testing.assert_allclose(points[20], [0.0, 0.0, d0], atol=2e-2)


def _c05_masks():
    """The 60 masks acceptance criterion c05 draws: single pixels, thin
    lines and unions of three discs on a 96x64 grid."""
    rng = np.random.default_rng(505)
    yy, xx = np.mgrid[0:64, 0:96]
    for _ in range(60):
        bits = np.zeros((64, 96), dtype=bool)
        kind = rng.integers(0, 3)
        if kind == 0:
            bits[rng.integers(2, 62), rng.integers(2, 94)] = True
        elif kind == 1:
            y = int(rng.integers(4, 60))
            x0 = int(rng.integers(2, 40))
            bits[y, x0:x0 + int(rng.integers(2, 40))] = True
        else:
            for _ in range(3):
                cx, cy, r = rng.integers(10, 86), rng.integers(10, 54), rng.integers(2, 9)
                bits |= (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        yield BinaryMask(bits)


def test_object25d_bytes_match_the_per_pixel_depth_lift():
    # the digest of the 21 points over c05's masks (depth 5) and the true
    # circle's mask (depth 6), as the lift from a constant per-pixel depth
    # grid and a separate bounding box produced them
    digest = hashlib.sha256()
    cam = CameraSpec.default(96, 64)
    for mask in _c05_masks():
        digest.update(geo.object25d_from_mask(mask, 5.0, cam).tobytes())
    cam = CameraSpec(focal=480.0, principal=(127.5, 95.5), size=(256, 192))
    yy, xx = np.mgrid[0:192, 0:256]
    circle = BinaryMask((xx - 127.5) ** 2 + (yy - 95.5) ** 2 <= 80.0 ** 2)
    digest.update(geo.object25d_from_mask(circle, 6.0, cam).tobytes())
    assert digest.hexdigest() == ("8c3d49bfba106feb9cc1a95f04089832"
                                  "7622d26f1986a0fab18b11e240e30b8e")


@pytest.mark.parametrize("depth", [0.0, -1.0, math.nan, math.inf])
def test_object25d_depth_must_be_positive_and_finite(depth):
    bits = np.zeros((32, 32), dtype=bool)
    bits[4:8, 4:8] = True
    with pytest.raises(NonPositiveDepth):
        geo.object25d_from_mask(BinaryMask(bits), depth, CameraSpec.default(32, 32))


def test_project_principal_point_and_halving():
    cam = CameraSpec(focal=80.0, principal=(40.0, 30.0), size=(80, 60))
    out = geo.project(np.array([[0.0, 0.0, 5.0]]), cam)
    np.testing.assert_allclose(out[0, :2], [40.0, 30.0])
    p1 = geo.project(np.array([[1.0, 0.5, 2.0]]), cam)[0]
    p2 = geo.project(np.array([[1.0, 0.5, 4.0]]), cam)[0]
    np.testing.assert_allclose((p2[:2] - [40.0, 30.0]) * 2, p1[:2] - [40.0, 30.0])


def test_project_lift_round_trip():
    rng = np.random.default_rng(23)
    cam = CameraSpec.default(128, 72)
    pts = np.stack([rng.uniform(-2, 2, 50), rng.uniform(-1, 1, 50),
                    rng.uniform(1, 9, 50)], axis=1)
    proj = geo.project(pts, cam)
    back = geo.lift_points(proj[:, :2], proj[:, 2], cam)
    np.testing.assert_allclose(back, pts, atol=1e-9)


def test_project_rejects_nonpositive_depth():
    cam = CameraSpec.default(32, 32)
    with pytest.raises(NonPositiveDepth):
        geo.project(np.array([[0.0, 0.0, 0.0]]), cam)


@pytest.mark.parametrize("size", [(192.5, 108), (192, 108.0), (True, True), (0, 108),
                                  (192, -1)])
def test_camera_size_must_be_two_positive_integers(size):
    with pytest.raises(InvalidConfig):
        CameraSpec(focal=1.0, principal=(0.0, 0.0), size=size)


@pytest.mark.parametrize("size", [(10**30, 108), (2**40, 2**40)])
def test_render_frames_past_numpys_largest_array_name_the_error(size):
    cam = CameraSpec(focal=1.0, principal=(0.0, 0.0), size=size)
    for objects in ([], [(np.array([[1.0, 1.0, 1.0]]), np.array([[1]]))]):
        with pytest.raises(ShapeMismatch):
            geo.render_part_masks(objects, cam, 1.5)


# ------------------------------------------------------------ rasterization

def _zbuffer_oracle(objects, camera, splat_radius):
    """Brute force: for each pixel, scan all points, min (z, obj, idx) wins
    and its byte row fills the pixel in the (C, h, w) planes."""
    w, h = camera.size
    grid = np.zeros((objects[0][1].shape[1], h, w), dtype=np.uint8)
    flat = []
    for oid, (points, labels) in enumerate(objects):
        proj = geo.project(points, camera)
        for idx in range(points.shape[0]):
            flat.append((proj[idx, 2], oid, idx, proj[idx, 0], proj[idx, 1], labels[idx]))
    r2 = splat_radius * splat_radius
    for py in range(h):
        for px in range(w):
            best = None
            for z, oid, idx, u, v, lab in flat:
                if (px - u) ** 2 + (py - v) ** 2 <= r2:
                    key = (z, oid, idx)
                    if best is None or key < best[0]:
                        best = (key, lab)
            if best is not None:
                grid[:, py, px] = best[1]
    return grid


def test_render_single_object_labels_subset():
    cam = CameraSpec.default(48, 32)
    rng = np.random.default_rng(24)
    pts = np.stack([rng.uniform(-0.5, 0.5, 12), rng.uniform(-0.3, 0.3, 12),
                    rng.uniform(3, 5, 12)], axis=1)
    labels = rng.integers(1, 5, (12, 1))
    grid = geo.render_part_masks([(pts, labels)], cam, 2.0)
    present = set(np.unique(grid)) - {0}
    assert present <= set(labels.ravel().tolist())


def test_render_zbuffer_front_object_wins():
    cam = CameraSpec(focal=40.0, principal=(20.0, 16.0), size=(40, 32))
    a = (np.array([[0.0, 0.0, 1.0]]), np.array([[3]]))
    b = (np.array([[0.0, 0.0, 2.0]]), np.array([[5]]))
    [grid] = geo.render_part_masks([b, a], cam, 4.0)
    covered = grid[np.hypot(*np.mgrid[0:32, 0:40][::-1] - np.array([[[20]], [[16]]])) <= 2]
    assert np.all(grid[16, 20] == 3)
    assert 5 not in np.unique(grid)  # fully occluded at this radius


def test_render_matches_bruteforce_oracle():
    rng = np.random.default_rng(25)
    cam = CameraSpec.default(36, 24)
    for _ in range(10):
        objects = []
        for _ in range(3):
            n = int(rng.integers(3, 9))
            pts = np.stack([rng.uniform(-0.6, 0.6, n), rng.uniform(-0.4, 0.4, n),
                            rng.uniform(2, 6, n)], axis=1)
            labels = rng.integers(1, 7, (n, 2))
            objects.append((pts, labels))
        fast = geo.render_part_masks(objects, cam, 2.5)
        slow = _zbuffer_oracle(objects, cam, 2.5)
        np.testing.assert_array_equal(fast, slow)


def test_render_tie_broken_by_object_then_point_index():
    cam = CameraSpec(focal=30.0, principal=(15.0, 12.0), size=(30, 24))
    # identical depth, overlapping splats: lower object id wins
    a = (np.array([[0.0, 0.0, 3.0]]), np.array([[9]]))
    b = (np.array([[0.0, 0.0, 3.0]]), np.array([[4]]))
    [grid] = geo.render_part_masks([a, b], cam, 3.0)
    assert grid[12, 15] == 9
    # same object, same depth: lower point index wins
    c = (np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 3.0]]), np.array([[2], [8]]))
    [grid2] = geo.render_part_masks([c], cam, 3.0)
    assert grid2[12, 15] == 2


def _splat_loop_oracle(objects, camera, splat_radius):
    """The per-point loop that render_part_masks replaced, kept as its
    oracle: a worst-to-best ordered overwrite of each point's disc with its
    byte row, one byte per (C, h, w) plane."""
    w, h = camera.size
    grid = np.zeros((objects[0][1].shape[1] if objects else 0, h, w), dtype=np.uint8)
    us, vs, zs, obj_ids, pt_ids, labs = [], [], [], [], [], []
    for oid, (points, labels) in enumerate(objects):
        points = np.asarray(points, dtype=np.float64)
        if points.size == 0:
            continue
        proj = geo.project(points, camera)
        us.append(proj[:, 0])
        vs.append(proj[:, 1])
        zs.append(proj[:, 2])
        obj_ids.append(np.full(points.shape[0], oid))
        pt_ids.append(np.arange(points.shape[0]))
        labs.append(np.asarray(labels, dtype=np.uint8))
    if not us:
        return grid
    u = np.concatenate(us)
    v = np.concatenate(vs)
    z = np.concatenate(zs)
    oid = np.concatenate(obj_ids)
    pid = np.concatenate(pt_ids)
    lab = np.concatenate(labs)
    order = np.lexsort((pid, oid, z))[::-1]
    r = splat_radius
    for i in order:
        x0 = max(0, int(np.ceil(u[i] - r)))
        x1 = min(w - 1, int(np.floor(u[i] + r)))
        y0 = max(0, int(np.ceil(v[i] - r)))
        y1 = min(h - 1, int(np.floor(v[i] + r)))
        if x0 > x1 or y0 > y1:
            continue
        px = np.arange(x0, x1 + 1)
        py = np.arange(y0, y1 + 1)
        dx = (px - u[i]) ** 2
        dy = (py - v[i]) ** 2
        inside = dy[:, None] + dx[None, :] <= r * r
        patch = grid[:, y0:y1 + 1, x0:x1 + 1]
        patch[:, inside] = lab[i][:, None]
    return grid


def _splat_view(draw):
    """A camera, a splat radius and a strategy for one (x, y, z) point that
    projects exactly where it was drawn: focal 1, principal point 0 and
    power-of-two depths make u = x / z exact, so pixel and half-pixel
    positions put discs exactly on their boundary."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 30))
    r = draw(st.one_of(st.floats(0.3, 60.0), st.sampled_from([1e4, 1e200]),
                       st.integers(1, 8).map(lambda k: k / 2)))
    cam = CameraSpec(focal=1.0, principal=(0.0, 0.0), size=(w, h))
    span = min(r, 60.0) + 4.0

    def coord(hi):
        free = st.floats(-span, hi + span)
        return st.one_of(free, free.map(round), free.map(lambda c: round(2 * c) / 2))

    depth = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 4.0]), st.floats(0.5, 8.0))
    point = st.tuples(coord(w - 1), coord(h - 1), depth).map(
        lambda p: (p[0] * p[2], p[1] * p[2], p[2]))
    return cam, r, point


def _byte_rows(draw, n, c):
    """n label rows of c bytes each, as uint8 or as a wider integer type."""
    rows = draw(st.lists(st.lists(st.integers(0, 255), min_size=c, max_size=c),
                         min_size=n, max_size=n))
    return np.array(rows, dtype=draw(st.sampled_from([np.uint8, np.int64]))).reshape(n, c)


@st.composite
def _splat_frames(draw):
    """One frame of 0-3 objects whose points carry 1-3 label bytes each."""
    cam, r, point = _splat_view(draw)
    objects, c = [], draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 3))):
        pts = np.array(draw(st.lists(point, max_size=12))).reshape(-1, 3)
        objects.append((pts, _byte_rows(draw, len(pts), c)))
    return objects, cam, r


@st.composite
def _splat_clips(draw):
    """1-12 frames of 1-3 objects, each with a fixed point count (0-6) and
    its own points in every frame, carrying 1-3 label bytes a point."""
    cam, r, point = _splat_view(draw)
    frames = draw(st.integers(1, 12))
    objects, c = [], draw(st.integers(1, 3))
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 6))
        pts = draw(st.lists(point, min_size=frames * n, max_size=frames * n))
        objects.append((np.array(pts).reshape(frames, n, 3), _byte_rows(draw, n, c)))
    return objects, cam, r


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(frame=_splat_frames(), block=st.sampled_from([64, 1000, 2**12, 2**18, 2**20]))
def test_render_matches_loop_oracle_bitwise(frame, block):
    objects, cam, r = frame
    with mock.patch.object(geo, "SPLAT_BLOCK", block):
        fast = geo.render_part_masks(objects, cam, r)
    slow = _splat_loop_oracle(objects, cam, r)
    assert fast.dtype == slow.dtype == np.uint8
    np.testing.assert_array_equal(fast, slow)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(clip=_splat_clips(), block=st.sampled_from([64, 2**12, 2**18]))
def test_render_all_frames_at_once_matches_loop_oracle_per_frame(clip, block):
    # 64 splits every frame into its own group and blocks; 2**12 groups a
    # few frames; 2**18 takes every frame in one group
    objects, cam, r = clip
    with mock.patch.object(geo, "SPLAT_BLOCK", block):
        fast = geo.render_part_masks(objects, cam, r)
    slow = np.stack([_splat_loop_oracle([(p[t], l) for p, l in objects], cam, r)
                     for t in range(len(objects[0][0]))], axis=1)
    assert fast.dtype == np.uint8
    np.testing.assert_array_equal(fast, slow)


def _clip_at(cam, *tracks):
    """Objects whose points sit at the given (u, v, z) per frame under a
    focal-1 camera at the origin: each track is ``(frames, n, 3)`` image
    coordinates and depth, labelled (1, 254), (2, 253), ... in order."""
    objects, first = [], 1
    for track in tracks:
        uvz = np.asarray(track, dtype=np.float64)
        pts = np.concatenate([uvz[..., :2] * uvz[..., 2:], uvz[..., 2:]], axis=-1)
        n = uvz.shape[1]
        ids = np.arange(first, first + n)
        objects.append((pts, np.stack([ids, 255 - ids], axis=1)))
        first += n
    return objects, cam


def _edge_clips():
    cam = CameraSpec(focal=1.0, principal=(0.0, 0.0), size=(20, 14))
    w, h = cam.size
    # at every radius tested, frames 0, 2 and 5 put every point off the
    # frame (left, above, far right and below), so the other frames set the crop
    leaving = [[(-9.0, 5.0, 2.0), (-3.5, 6.0, 3.0)],
               [(1.5, 5.0, 2.0), (3.0, 6.5, 1.0)],
               [(8.0, -7.0, 2.0), (9.0, -3.2, 3.0)],
               [(10.0, 7.0, 2.0), (11.5, 8.0, 2.0)],
               [(21.5, 12.0, 2.0), (6.0, 15.5, 4.0)],
               [(40.0, 3.0, 2.0), (5.0, 30.0, 1.0)]]
    centre = [[(12.0, 8.5, 3.0)]] * 6
    clips = {
        "points-leave-and-return": _clip_at(cam, leaving, centre),
        "all-points-off-frame": _clip_at(cam, [[(-4.0, 3.0, 1.0), (30.0, 3.0, 2.0)],
                                               [(8.0, -5.0, 1.0), (8.0, 20.0, 2.0)]]),
        # 1 x N and N x 1 frames, with points on, beside and beyond the line
        "one-column": _clip_at(CameraSpec(1.0, (0.0, 0.0), (1, 9)),
                               [[(0.0, 2.0, 1.0), (1.5, 6.0, 2.0), (-3.0, 4.0, 1.0)],
                                [(0.4, 8.6, 1.0), (2.9, 0.0, 2.0), (0.0, -2.0, 1.0)]]),
        "one-row": _clip_at(CameraSpec(1.0, (0.0, 0.0), (9, 1)),
                            [[(2.0, 0.0, 1.0), (6.0, -1.5, 2.0), (4.0, 3.0, 1.0)],
                             [(8.6, 0.4, 1.0), (0.0, 2.9, 2.0), (-2.0, 0.0, 1.0)]]),
    }
    # a disc over each frame edge in turn, sliding along it, then all four
    # at once; each alone leaves the crop short of the other three edges
    edges = {"left": [(-1.2, 4.0), (-1.2, 5.5), (-1.2, 7.0)],
             "right": [(w - 0.5, 9.0), (w - 0.5, 10.5), (w - 0.5, 12.0)],
             "top": [(6.0, -0.7), (7.5, -0.7), (9.0, -0.7)],
             "bottom": [(13.0, h), (14.5, h), (16.0, h)]}
    for name, slide in edges.items():
        clips[f"disc-over-{name}-edge"] = _clip_at(cam, [[(u, v, 2.0)] for u, v in slide])
    clips["discs-over-all-edges"] = _clip_at(
        cam, [[(*slide[0], 1.0 + i) for i, slide in enumerate(edges.values())]] * 2)
    return clips


@pytest.mark.parametrize("block", [64, 2**12, 2**18])
@pytest.mark.parametrize("name", sorted(_edge_clips()))
def test_render_crop_edges_match_loop_oracle_per_frame(name, block):
    objects, cam = _edge_clips()[name]
    for r in (1.5, 2.5, 3.0):
        with mock.patch.object(geo, "SPLAT_BLOCK", block):
            fast = geo.render_part_masks(objects, cam, r)
        slow = np.stack([_splat_loop_oracle([(p[t], l) for p, l in objects], cam, r)
                         for t in range(len(objects[0][0]))], axis=1)
        assert fast.dtype == np.uint8
        np.testing.assert_array_equal(fast, slow)
        if name == "all-points-off-frame":
            assert fast.shape == (2, 2, 14, 20) and not fast.any()
        else:
            assert fast.any()


@pytest.mark.parametrize("block", [64, 2**12, 2**18])
@pytest.mark.parametrize("size", [(9, 9), (1, 9), (9, 1)], ids=["9x9", "1x9", "9x1"])
def test_render_non_square_and_oversized_windows_match_loop_oracle(size, block):
    # radius 7 gives a 15-pixel window, clipped to the frame: 9 x 9 on the
    # square frame, 1 x 9 and 9 x 1 on the line frames; radii 0.5 and 1
    # give 3 x 3 windows, clipped to 1 x 3 and 3 x 1 there
    w, h = size
    cam = CameraSpec(focal=1.0, principal=(0.0, 0.0), size=size)
    rng = np.random.default_rng(77)
    # three frames of points on, between and beyond the pixel centres
    track = np.stack([np.round(2 * rng.uniform(-3, w + 2, (3, 7))) / 2,
                      np.round(2 * rng.uniform(-3, h + 2, (3, 7))) / 2,
                      rng.choice([1.0, 2.0, 4.0], (3, 7))], axis=-1)
    track[:, 0, :2] = w // 2, h // 2  # one point on a pixel centre per frame
    objects, cam = _clip_at(cam, track)
    for r in (0.5, 1.0, 7.0):
        with mock.patch.object(geo, "SPLAT_BLOCK", block):
            fast = geo.render_part_masks(objects, cam, r)
        slow = np.stack([_splat_loop_oracle([(p[t], l) for p, l in objects], cam, r)
                         for t in range(3)], axis=1)
        assert fast.dtype == np.uint8 and fast.any()
        np.testing.assert_array_equal(fast, slow)


@pytest.mark.parametrize("r", [0.5, 2.5, 7.0])
@pytest.mark.parametrize("size", [(20, 14), (1, 9), (9, 1)], ids=["20x14", "1x9", "9x1"])
def test_render_partial_and_one_point_blocks_match_loop_oracle(size, r):
    # a candidate's point is its flat position modulo its block's width:
    # a block of three windows' candidates leaves a short last block in
    # frame groups of 7, 14 or 28 points, and a block under one window's
    # candidates holds one point; the window is clipped on the line frames
    w, h = size
    cam = CameraSpec(focal=1.0, principal=(0.0, 0.0), size=size)
    rng = np.random.default_rng(91)
    track = np.stack([np.round(2 * rng.uniform(-2, w + 1, (4, 7))) / 2,
                      np.round(2 * rng.uniform(-2, h + 1, (4, 7))) / 2,
                      rng.choice([1.0, 2.0, 4.0], (4, 7))], axis=-1)
    objects, cam = _clip_at(cam, track[:, :3], track[:, 3:])
    side = 2 * math.ceil(r) + 1
    window = min(side, w) * min(side, h)
    slow = np.stack([_splat_loop_oracle([(p[t], l) for p, l in objects], cam, r)
                     for t in range(4)], axis=1)
    for block in (window - 1, 3 * window):
        with mock.patch.object(geo, "SPLAT_BLOCK", block):
            fast = geo.render_part_masks(objects, cam, r)
        assert fast.any()
        np.testing.assert_array_equal(fast, slow)


def test_render_keeps_leading_axes_and_rejects_mismatched_ones():
    cam = CameraSpec(focal=10.0, principal=(8.0, 6.0), size=(16, 12))
    rng = np.random.default_rng(29)
    pts = np.concatenate([rng.uniform(-0.5, 0.5, (2, 3, 5, 2)), np.full((2, 3, 5, 1), 2.0)],
                         axis=-1)
    labels = np.arange(1, 6)[:, None]
    grids = geo.render_part_masks([(pts, labels)], cam, 1.5)
    assert grids.shape == (1, 2, 3, 12, 16)
    np.testing.assert_array_equal(grids[:, 1, 2], geo.render_part_masks([(pts[1, 2], labels)],
                                                                        cam, 1.5))
    for other in (pts[0], pts[:, :2], pts[0, 0]):
        with pytest.raises(DimensionMismatch):
            geo.render_part_masks([(pts, labels), (other, labels)], cam, 1.5)


def _two_objects():
    cam = CameraSpec(focal=10.0, principal=(8.0, 6.0), size=(16, 12))
    pa = np.array([[0.0, 0.0, 2.0], [0.1, 0.0, 2.0], [0.2, 0.0, 2.0]])
    return cam, pa, pa + [0.0, 0.2, 0.0]


@pytest.mark.parametrize("rows", [[[1], [2], [3], [4], [5]], [[1]], [[1], [2]], [1, 2, 3]],
                         ids=["five-rows", "one-row", "two-rows", "flat-labels"])
def test_render_refuses_labels_that_are_not_one_row_per_point(rows):
    # with flat labels, five for the first object's three points used to
    # draw the second object's points as 4, 5 and 9
    cam, pa, pb = _two_objects()
    with pytest.raises(DimensionMismatch, match="one row per point"):
        geo.render_part_masks([(pa, rows), (pb, [[9]] * 3)], cam, 1.5)


def test_render_refuses_objects_with_different_label_channels():
    cam, pa, pb = _two_objects()
    with pytest.raises(DimensionMismatch, match="label channels"):
        geo.render_part_masks([(pa, [[1, 2]] * 3), (pb, [[9]] * 3)], cam, 1.5)


@pytest.mark.parametrize("label", [256, 300000, -1])
def test_render_refuses_a_label_outside_a_byte_rather_than_wrapping_it(label):
    cam, pa, pb = _two_objects()
    rows = np.array([[1], [2], [label]], dtype=np.int64)
    with pytest.raises(ShapeMismatch, match="0..255"):
        geo.render_part_masks([(pa, [[7]] * 3), (pb, rows)], cam, 1.5)


def test_render_huge_radius_stays_within_memory_bound():
    # unblocked, 300 points x the whole 192x108 frame would hold about
    # 6.2M candidates, several hundred MB of temporaries
    rng = np.random.default_rng(28)
    cam = CameraSpec.default(192, 108)
    objects = []
    for n in (100, 120, 80):
        pts = np.stack([rng.uniform(-1.5, 1.5, n), rng.uniform(-1, 1, n),
                        rng.choice([2.0, 3.0, 4.5], n)], axis=1)
        objects.append((pts, rng.integers(0, 256, (n, 2))))
    tracemalloc.start()
    try:
        grid = geo.render_part_masks(objects, cam, 1e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    np.testing.assert_array_equal(grid, _splat_loop_oracle(objects, cam, 1e4))


# ------------------------------------------------------------ polygon masks

def test_polygon_triangle_centroid_set():
    tri = np.array([[4.0, 4.0], [20.0, 6.0], [10.0, 18.0]])
    grid = geo.polygon_target_mask([(3, tri)], (28, 24))
    cx, cy = tri.mean(axis=0)
    assert grid[int(round(cy)), int(round(cx))] == 3
    assert np.count_nonzero(grid) > 0


def test_polygon_hull_area_bounds_triangles():
    rng = np.random.default_rng(26)
    pts = rng.uniform(2, 30, size=(8, 2))
    hull = geo._convex_hull(pts)

    def area(p):
        x, y = p[:, 0], p[:, 1]
        return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    hull_area = area(hull)
    for _ in range(30):
        tri = pts[rng.choice(8, size=3, replace=False)]
        assert hull_area >= area(tri) - 1e-9


def test_polygon_matches_halfplane_oracle():
    rng = np.random.default_rng(27)
    for _ in range(8):
        pts = rng.uniform(1, 30, size=(7, 2))
        grid = geo.polygon_target_mask([(1, pts)], (32, 32))
        hull = geo._convex_hull(pts)
        oracle = np.zeros((32, 32), dtype=np.int32)
        n = hull.shape[0]
        for py in range(32):
            for px in range(32):
                ok = True
                for k in range(n):
                    a, b = hull[k], hull[(k + 1) % n]
                    cross = (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0])
                    if cross < 0:
                        ok = False
                        break
                if ok:
                    oracle[py, px] = 1
        np.testing.assert_array_equal(grid, oracle)


def test_polygon_later_parts_overwrite():
    a = np.array([[2.0, 2.0], [20.0, 2.0], [2.0, 20.0]])
    b = np.array([[2.0, 2.0], [20.0, 2.0], [2.0, 20.0]])
    grid = geo.polygon_target_mask([(1, a), (2, b)], (24, 24))
    assert set(np.unique(grid)) == {0, 2}


def test_polygon_degenerate_collinear():
    line = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(DegeneratePart):
        geo.polygon_target_mask([(1, line)], (8, 8))


@pytest.mark.parametrize("label", [256, -1, 2**40])
def test_polygon_label_outside_a_byte_is_refused(label):
    # refused as ConditionChannels refuses it, not as the grid's overflow
    tri = np.array([[1.0, 1.0], [6.0, 1.0], [1.0, 6.0]])
    with pytest.raises(ShapeMismatch, match="0..255"):
        geo.polygon_target_mask([(1, tri), (label, tri)], (8, 8))


# -------------------------------------------------------- condition channels

def test_condition_empty_default_triple():
    chans = geo.ConditionChannels(np.zeros((4, 12, 16), dtype=np.int32), ConditionMode.EMPTY)
    assert chans.part_masks.shape == (4, 12, 16) and chans.mode is ConditionMode.EMPTY
    assert not chans.part_masks.any()
    assert np.all(chans.confidence(geo.DEFAULT_TRIPLE) == 0.0)


def test_condition_target_pose_half_confidence():
    tri = np.array([[2.0, 2.0], [12.0, 3.0], [6.0, 10.0]])
    target = geo.polygon_target_mask([(2, tri)], (16, 12))
    masks = np.zeros((5, 12, 16), dtype=np.int32)
    masks[-1] = target
    chans = geo.ConditionChannels(masks, ConditionMode.TARGET_POSE)
    assert len(chans.part_masks) == 5 and chans.mode is ConditionMode.TARGET_POSE
    assert not chans.part_masks[:-1].any()
    last, confidence = chans.part_masks[-1], chans.confidence(geo.DEFAULT_TRIPLE)[-1]
    assert last.max() == 2
    assert np.all(confidence[last != 0] == 0.5)
    assert np.all(confidence[last == 0] == 0.0)


def test_condition_full_motion_custom_triple():
    cam = CameraSpec.default(20, 16)
    pts = np.array([[0.0, 0.0, 3.0]])
    [grid] = geo.render_part_masks([(pts, np.array([[4]]))], cam, 2.0)
    chans = geo.ConditionChannels(np.stack([grid, grid]), ConditionMode.FULL_MOTION)
    assert len(chans.part_masks) == 2 and chans.mode is ConditionMode.FULL_MOTION
    for mask, confidence in zip(chans.part_masks, chans.confidence((3.0, 2.0, 1.0)),
                                strict=True):
        np.testing.assert_array_equal(mask, grid)
        assert np.all(confidence[mask != 0] == 3.0)
        assert np.all(confidence[mask == 0] == 1.0)
        assert set(np.unique(confidence)) <= {3.0, 1.0}


@pytest.mark.parametrize("shape", [(12, 16), (1, 1, 12, 16), ()])
def test_condition_masks_must_be_frames_of_grids(shape):
    with pytest.raises(ShapeMismatch, match="F, H, W"):
        geo.ConditionChannels(np.zeros(shape, dtype=np.int32), ConditionMode.EMPTY)


def test_condition_masks_are_read_only_uint8():
    chans = geo.ConditionChannels(np.ones((2, 3, 4), dtype=np.int32), ConditionMode.EMPTY)
    assert chans.part_masks.dtype == np.uint8
    with pytest.raises(ValueError):
        chans.part_masks[0, 0, 0] = 2


@pytest.mark.parametrize("label", [256, -1])
def test_condition_refuses_part_ids_outside_a_byte(label):
    # a cast to uint8 would wrap 256 onto the background and -1 onto part 255
    masks = np.zeros((2, 3, 4), dtype=np.int32)
    masks[1, 2, 3] = label
    with pytest.raises(ShapeMismatch, match="0..255"):
        geo.ConditionChannels(masks, ConditionMode.TARGET_POSE)
