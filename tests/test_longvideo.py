from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionloop.core import Category, MotionSequence, motion_strength, preset
from motionloop.errors import PlanMismatch, SequenceTooShort, TotalTooShort
from motionloop.longvideo import (
    blend_weights,
    extend_motion,
    plan_windows,
    stitch,
    stitch_motion,
)
from motionloop.geometry import ConditionMode
from motionloop.pmp import Conditioning, PmpConfig, pmp_init
from motionloop.scenes import walker_scene
from motionloop.simgen import FINE_CONFIG, VideoClip, generate


def const_clip(value, frames=32, size=(12, 8)):
    w, h = size
    grid = np.full((h, w), value, dtype=np.uint8)
    return VideoClip(tuple(grid.copy() for _ in range(frames)), 16.0)


# ---------------------------------------------------------------- planning

def test_plan_128_is_five_windows():
    plan = plan_windows(128)
    assert plan.windows == ((0, 32), (24, 56), (48, 80), (72, 104), (96, 128))
    assert plan.total == 128 and plan.padding == 0
    assert plan.overlap == 8


def test_plan_single_window():
    plan = plan_windows(32)
    assert plan.windows == ((0, 32),)


def test_plan_consecutive_overlap():
    plan = plan_windows(200)
    for (s0, e0), (s1, e1) in zip(plan.windows, plan.windows[1:]):
        assert e0 - s1 == 8


def test_plan_pads_upward():
    plan = plan_windows(130)
    assert plan.total == 152  # 32 + 5 * 24
    assert plan.padding == 22
    assert plan.windows[-1][1] == plan.total


def test_plan_of_a_huge_total_counts_windows_without_listing_them():
    plan = plan_windows(24 * 10**13 + 33)
    assert len(plan.starts) == 10**13 + 2
    assert plan.total == 32 + (10**13 + 1) * 24 and plan.padding == 23
    assert plan.starts[-1] + plan.window == plan.total
    with pytest.raises(PlanMismatch):
        stitch([const_clip(0)], plan)


def test_plan_too_short():
    with pytest.raises(TotalTooShort):
        plan_windows(16)
    with pytest.raises(PlanMismatch):
        plan_windows(64, window=32, stride=40)


# ---------------------------------------------------------------- stitching

def test_blend_weights_partition_of_unity():
    w = blend_weights(8)
    assert np.all((w > 0) & (w < 1))
    for wj in w:
        assert (1.0 - wj) + wj == 1.0


def test_stitch_identical_clips_lossless():
    plan = plan_windows(80)
    base = np.random.default_rng(50).integers(0, 255, size=(8, 12)).astype(np.uint8)
    clips = []
    for start, end in plan.windows:
        frames = tuple(base.copy() for _ in range(32))
        clips.append(VideoClip(frames, 16.0))
    merged = stitch(clips, plan)
    assert merged.frame_count == 80
    for frame in merged.frames:
        np.testing.assert_array_equal(frame, base)


def test_stitch_constant_blend_closed_form():
    plan = plan_windows(56)  # two windows, overlap 8 at frames 24..31
    clips = [const_clip(0), const_clip(90)]
    merged = stitch(clips, plan)
    for j in range(1, 9):
        frame = merged.frames[24 + j - 1]
        assert np.all(frame == round(90 * j / 9))
    for t in range(24):
        assert np.all(merged.frames[t] == 0)
    for t in range(32, 56):
        assert np.all(merged.frames[t] == 90)


def test_stitch_plan_mismatch():
    plan = plan_windows(56)
    with pytest.raises(PlanMismatch):
        stitch([const_clip(0)], plan)
    with pytest.raises(PlanMismatch):
        stitch([const_clip(0), const_clip(1, frames=30)], plan)


def test_stitch_rejects_windows_of_differing_frame_shapes():
    plan = plan_windows(56)
    with pytest.raises(PlanMismatch):
        stitch([const_clip(0), const_clip(0, size=(8, 12))], plan)
    seqs = [MotionSequence(spec, 16.0, np.zeros((32, spec.pose_dim)))
            for spec in (preset(Category.GENERIC_OBJECT), preset(Category.HUMAN))]
    with pytest.raises(PlanMismatch):
        stitch_motion(seqs, plan)


def _blend_grids(grids: list, plan) -> list[np.ndarray]:
    """Per-frame oracle: copy windows verbatim as float64, then apply the
    blend in each pairwise overlap:
    out_j = (1 - w_j) * earlier + w_j * later, w = blend_weights(L)."""
    out: list[np.ndarray | None] = [None] * plan.total
    for (start, end), frames in zip(plan.windows, grids):
        for j in range(plan.window):
            out[start + j] = np.asarray(frames[j], dtype=np.float64)
    weights = blend_weights(plan.overlap)
    for k in range(1, len(plan.windows)):
        s_prev = plan.windows[k - 1][0]
        s_cur = plan.windows[k][0]
        for j, w in enumerate(weights, start=1):
            g = s_cur + j - 1
            earlier = np.asarray(grids[k - 1][g - s_prev], dtype=np.float64)
            later = np.asarray(grids[k][j - 1], dtype=np.float64)
            out[g] = (1.0 - w) * earlier + w * later
    return out


def _oracle_clip_frames(clips, plan) -> np.ndarray:
    blended = _blend_grids([clip.frames for clip in clips], plan)
    return np.stack([np.rint(g).astype(np.uint8) for g in blended])


@st.composite
def _stitch_cases(draw):
    """A plan of 1-6 windows (stride 1-12, window in [stride, 2 * stride]),
    uint8 clips of 1-6 x 1-6 pixels (random, or 0 and 255 only) and
    float64 motions scaled by 1e-3 to 1e3."""
    stride = draw(st.integers(1, 12))
    window = draw(st.integers(stride, 2 * stride))
    count = draw(st.integers(1, 6))
    padding = draw(st.integers(0, stride - 1)) if count > 1 else 0
    plan = plan_windows(window + (count - 1) * stride - padding, window, stride)
    assert len(plan.windows) == count and plan.padding == padding
    size = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    extremes = draw(st.booleans())
    scale = 10.0 ** draw(st.floats(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clips = []
    for _ in range(count):
        shape = (window, size[1], size[0])
        grids = (rng.choice(np.array([0, 255], dtype=np.uint8), shape) if extremes
                 else rng.integers(0, 256, shape, dtype=np.uint8))
        clips.append(VideoClip(tuple(grids), 16.0))
    spec = preset(Category.GENERIC_OBJECT)
    seqs = [MotionSequence(spec, 16.0, scale * rng.normal(size=(window, spec.pose_dim)))
            for _ in range(count)]
    return plan, clips, seqs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_stitch_cases())
def test_stitch_matches_the_per_frame_oracle_bitwise(case):
    plan, clips, seqs = case
    merged = np.stack(stitch(clips, plan).frames)
    expected = _oracle_clip_frames(clips, plan)
    assert merged.dtype == expected.dtype == np.uint8
    assert np.array_equal(merged, expected)
    assert merged.tobytes() == expected.tobytes()
    stitched = stitch_motion(seqs, plan).frames
    expected = np.vstack([row[None, :] for row in _blend_grids([s.frames for s in seqs], plan)])
    assert stitched.dtype == expected.dtype == np.float64
    assert np.array_equal(stitched, expected)
    assert stitched.tobytes() == expected.tobytes()


def test_equal_uint8_pixels_blend_to_themselves():
    # the premise that lets the stitch compute only the pixels that differ:
    # for every uint8 value and every ramp weight of overlaps 1-64,
    # (1 - w) * a + w * a rounds back to a
    a = np.arange(256, dtype=np.uint8)
    for overlap in range(1, 65):
        w = blend_weights(overlap)[:, None]
        assert (np.rint((1.0 - w) * a + w * a) == a).all()


def test_stitch_of_rendered_windows_of_one_motion_matches_the_oracle():
    # windows rendered from one motion agree on most overlap pixels (the
    # background and the figure where the windows' realizations coincide)
    scene = walker_scene(56)
    plan = plan_windows(56)
    clips = [generate(scene, ConditionMode.FULL_MOTION, FINE_CONFIG, seed=8,
                      frame_window=window)[0] for window in plan.windows]
    earlier = np.stack(clips[0].frames[plan.stride:])
    later = np.stack(clips[1].frames[:plan.overlap])
    assert 0.9 < np.mean(earlier == later) < 1.0
    merged = np.stack(stitch(clips, plan).frames)
    assert merged.tobytes() == _oracle_clip_frames(clips, plan).tobytes()


def test_stitch_long_clip_stays_within_memory_bound():
    # five 32-frame 192x108 windows: the per-frame oracle holds all 160
    # window frames as float64, about 23 MiB
    plan = plan_windows(128)
    rng = np.random.default_rng(64)
    clips = [VideoClip(tuple(rng.integers(0, 256, (32, 108, 192), dtype=np.uint8)), 16.0)
             for _ in plan.windows]
    tracemalloc.start()
    try:
        merged = stitch(clips, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20
    np.testing.assert_array_equal(np.stack(merged.frames), _oracle_clip_frames(clips, plan))


def test_stitch_motion_seam_transitions_bounded():
    # windows sliced from one smooth motion agree on overlaps, so the seam
    # transition strengths stay within the per-window maximum
    spec = preset(Category.GENERIC_OBJECT)
    t = np.arange(80)
    frames = np.stack([np.sin(2 * np.pi * t / 16 + p)
                       for p in np.linspace(0, 2, spec.pose_dim)], axis=1)
    motion = MotionSequence(spec, 16.0, frames)
    plan = plan_windows(80)
    windows = [motion.with_frames(motion.frames[s:e]) for s, e in plan.windows]
    merged = stitch_motion(windows, plan)
    assert merged.frame_count == 80
    np.testing.assert_allclose(merged.frames, frames, atol=1e-9)
    merged_strength = motion_strength(merged).per_transition
    window_max = max(motion_strength(w).per_transition.max() for w in windows)
    assert merged_strength.max() <= window_max + 1e-9


# ----------------------------------------------------------------- extend

SMALL = PmpConfig(layers=1, model_dim=32, heads=2, ffn_dim=32, max_frames=128,
                  max_pose_dim=66)


def test_extend_32_to_128():
    model = pmp_init(SMALL, seed=60)
    spec = preset(Category.HUMAN)
    t = np.arange(32)
    frames = 0.3 * np.stack([np.sin(2 * np.pi * t / 16 + p)
                             for p in np.linspace(0, 2, 66)], axis=1)
    seq = MotionSequence(spec, 16.0, frames)
    cond = Conditioning(tokens=(0,), strength=0.2, category=Category.HUMAN)
    out = extend_motion(seq, 128, model, cond)
    assert out.frame_count == 128


def test_extend_equal_length_refine_only():
    model = pmp_init(SMALL, seed=61)
    spec = preset(Category.HUMAN)
    rng = np.random.default_rng(62)
    seq = MotionSequence(spec, 16.0, rng.normal(size=(16, 66)) * 0.3)
    cond = Conditioning(tokens=(0,), strength=0.2, category=Category.HUMAN)
    out = extend_motion(seq, 16, model, cond)
    assert out.frame_count == 16


def test_extend_rejects_short_inputs():
    model = pmp_init(SMALL, seed=63)
    spec = preset(Category.HUMAN)
    cond = Conditioning(tokens=(0,), strength=0.2, category=Category.HUMAN)
    one = MotionSequence(spec, 16.0, np.zeros((1, 66)))
    with pytest.raises(SequenceTooShort):
        extend_motion(one, 8, model, cond)
    ten = MotionSequence(spec, 16.0, np.zeros((10, 66)))
    with pytest.raises(SequenceTooShort):
        extend_motion(ten, 5, model, cond)
