from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionloop import core
from motionloop.core import Category, MotionSequence, preset
from motionloop.errors import DimensionMismatch, SequenceTooShort


def make_seq(frames, category=Category.GENERIC_OBJECT, fps=16.0):
    spec = preset(category)
    return MotionSequence(model=spec, fps=fps, frames=np.asarray(frames, dtype=float))


def random_seq(rng, f, category=Category.GENERIC_OBJECT):
    spec = preset(category)
    return MotionSequence(model=spec, fps=16.0,
                          frames=rng.normal(size=(f, spec.pose_dim)))


# ---------------------------------------------------------------- presets

def test_presets_shape_and_tree():
    human = preset(Category.HUMAN)
    assert human.pose_dim == 66 and human.joint_count == 22
    animal = preset(Category.ANIMAL)
    assert animal.pose_dim == 48 and animal.joint_count == 16
    generic = preset(Category.GENERIC_OBJECT)
    assert generic.pose_dim == 63 and not generic.is_articulated
    for spec in (human, animal):
        roots = [j for j in spec.skeleton if j.parent_id < 0]
        assert len(roots) == 1
        for j in spec.skeleton:
            assert 1 <= j.part_label <= spec.part_count


@pytest.mark.parametrize("parents", [(-1, 1), (-1, 0, 2), (0, -1)])
def test_spec_refuses_a_skeleton_whose_parents_do_not_precede_their_children(parents):
    skeleton = tuple(core.Joint(p, (1.0, 0.0, 0.0), i + 1) for i, p in enumerate(parents))
    with pytest.raises(DimensionMismatch, match="parent-ordered"):
        core.ParametricModelSpec(category=Category.HUMAN, pose_dim=3 * len(parents),
                                 shape_dim=0, expression_dim=0, part_count=len(parents),
                                 skeleton=skeleton)


@pytest.mark.parametrize("category", [Category.HUMAN, Category.ANIMAL,
                                      Category.GENERIC_OBJECT])
def test_spec_children_are_each_joints_children_in_skeleton_order(category):
    spec = preset(category)
    assert spec.children == tuple(
        tuple(k for k, joint in enumerate(spec.skeleton) if joint.parent_id == j)
        for j in range(spec.joint_count))
    assert spec.children is spec.children  # derived once


@pytest.mark.parametrize("category", [Category.HUMAN, Category.ANIMAL,
                                      Category.GENERIC_OBJECT])
def test_spec_derives_its_point_layout_once_read_only(category):
    spec = preset(category)
    bones = [(j.parent_id, k) for k, j in enumerate(spec.skeleton) if j.parent_id >= 0]
    parents, kids = spec.bones
    assert parents.tolist() == [p for p, _ in bones] and kids.tolist() == [k for _, k in bones]
    np.testing.assert_array_equal(
        spec.rest_offsets, np.reshape([j.rest_offset for j in spec.skeleton], (-1, 3)))
    labels = [j.part_label for j in spec.skeleton]
    assert spec.point_labels.tolist() == labels + [
        labels[k] for _, k in bones for _ in range(core.BONE_SAMPLES)]
    for derived in (spec.rest_offsets, parents, kids, spec.point_labels):
        assert not derived.flags.writeable
    assert spec.rest_offsets is spec.rest_offsets and spec.bones is spec.bones
    assert spec.point_labels is spec.point_labels


# --------------------------------------------------------- motion strength

def test_strength_constant_sequence_is_zero():
    seq = make_seq(np.ones((10, 63)))
    s = core.motion_strength(seq)
    assert np.all(s.per_transition == 0.0)
    assert s.mean == 0.0


def test_strength_345_norm():
    # pose_dim 2 has no preset; build a bare spec for the analytic case
    spec = core.ParametricModelSpec(
        category=Category.GENERIC_OBJECT, pose_dim=2, shape_dim=0,
        expression_dim=0, part_count=1, skeleton=())
    seq = MotionSequence(model=spec, fps=1.0, frames=[[0.0, 0.0], [3.0, 4.0]])
    s = core.motion_strength(seq)
    assert s.per_transition[0] == pytest.approx(5.0 / math.sqrt(2), rel=1e-15)
    assert s.mean == pytest.approx(5.0 / math.sqrt(2), rel=1e-15)


def test_strength_matches_scalar_loop_oracle():
    rng = np.random.default_rng(3)
    seq = random_seq(rng, 16)
    s = core.motion_strength(seq)
    # independent oracle: per-entry python loop
    expected = []
    for i in range(15):
        acc = 0.0
        for c in range(63):
            d = seq.frames[i + 1, c] - seq.frames[i, c]
            acc += d * d
        expected.append(math.sqrt(acc) / math.sqrt(63))
    assert s.per_transition == pytest.approx(expected, rel=1e-12)
    assert s.mean == pytest.approx(sum(expected) / len(expected), rel=1e-12)


def test_strength_translation_invariant_and_linear():
    rng = np.random.default_rng(4)
    seq = random_seq(rng, 12)
    shifted = seq.with_frames(seq.frames + 7.5)
    assert core.motion_strength(shifted).per_transition == pytest.approx(
        core.motion_strength(seq).per_transition, rel=1e-12)
    scaled = seq.with_frames(seq.frames * 3.0)
    assert core.motion_strength(scaled).per_transition == pytest.approx(
        core.motion_strength(seq).per_transition * 3.0, rel=1e-12)


def test_strength_too_short():
    with pytest.raises(SequenceTooShort):
        core.motion_strength(make_seq(np.zeros((1, 63))))


# ---------------------------------------------------------------- resample

def test_resample_identity_is_bitwise():
    rng = np.random.default_rng(5)
    seq = random_seq(rng, 9)
    out = core.resample(seq, 9)
    assert np.array_equal(out.frames, seq.frames)


def test_resample_midpoint_of_ramp():
    spec = core.ParametricModelSpec(
        category=Category.GENERIC_OBJECT, pose_dim=1, shape_dim=0,
        expression_dim=0, part_count=1, skeleton=())
    seq = MotionSequence(model=spec, fps=1.0, frames=[[0.0], [2.0]])
    out = core.resample(seq, 3)
    assert np.array_equal(out.frames, [[0.0], [1.0], [2.0]])


def test_resample_exact_at_shared_grid_points():
    # 32 -> 63 places every other output node exactly on an input node
    rng = np.random.default_rng(6)
    seq = random_seq(rng, 32)
    out = core.resample(seq, 63)
    assert out.frame_count == 63
    np.testing.assert_allclose(out.frames[::2], seq.frames, atol=1e-9)


def test_resample_doubling_preserves_endpoints():
    rng = np.random.default_rng(7)
    seq = random_seq(rng, 32)
    out = core.resample(seq, 64)
    assert out.frame_count == 64
    assert np.array_equal(out.frames[0], seq.frames[0])
    assert np.array_equal(out.frames[-1], seq.frames[-1])


def test_resample_same_length_idempotent():
    rng = np.random.default_rng(8)
    seq = random_seq(rng, 20)
    once = core.resample(seq, 45)
    twice = core.resample(once, 45)
    assert np.array_equal(once.frames, twice.frames)


# ------------------------------------------------------------- extrapolate

def test_extrapolate_constant_sequence():
    seq = make_seq(np.full((6, 63), 2.5))
    out = core.extrapolate(seq, 8)
    assert out.frame_count == 14
    assert np.allclose(out.frames, 2.5)


def test_extrapolate_constant_velocity_first_step():
    rng = np.random.default_rng(9)
    v = rng.normal(size=63)
    frames = np.arange(8)[:, None] * v
    seq = make_seq(frames)
    out = core.extrapolate(seq, 1)
    np.testing.assert_allclose(out.frames[-1], frames[-1] + 0.9 * v, rtol=1e-12)


def test_extrapolate_strength_bounded_by_source():
    # synthetic walk-like motion: smooth oscillation
    t = np.arange(64)
    frames = np.stack([np.sin(2 * np.pi * t / 16 + p) for p in np.linspace(0, 3, 63)], axis=1)
    seq = make_seq(frames)
    out = core.extrapolate(seq, 64)
    assert out.frame_count == 128
    s = core.motion_strength(out).per_transition
    source_max = s[:63].max()
    appended_max = s[63:].max()
    assert appended_max <= source_max


# ------------------------------------------------------ forward kinematics

def test_fk_zero_pose_is_scaled_rest_skeleton():
    for cat in (Category.HUMAN, Category.ANIMAL):
        spec = preset(cat)
        for scale in (1.0, 2.5):
            got = core.fk_joints(spec, np.zeros(spec.pose_dim), scale)
            # independent accumulation of rest offsets
            expected = np.zeros((spec.joint_count, 3))
            for i, j in enumerate(spec.skeleton):
                off = np.array(j.rest_offset) * scale
                if j.parent_id < 0:
                    expected[i] = off
                else:
                    expected[i] = expected[j.parent_id] + off
            np.testing.assert_allclose(got, expected, atol=1e-12)


def test_fk_quarter_turn_single_bone():
    spec = core.ParametricModelSpec(
        category=Category.HUMAN, pose_dim=6, shape_dim=0, expression_dim=0,
        part_count=2,
        skeleton=(core.Joint(-1, (0.0, 0.0, 0.0), 1),
                  core.Joint(0, (1.0, 0.0, 0.0), 2)))
    pose = np.zeros(6)
    pose[2] = math.pi / 2  # root z rotation
    for scale in (1.0, 3.0):
        joints = core.fk_joints(spec, pose, scale)
        np.testing.assert_allclose(joints[1], [0.0, scale, 0.0], atol=1e-12)


def _rot_x(a):
    return np.array([[1, 0, 0], [0, math.cos(a), -math.sin(a)], [0, math.sin(a), math.cos(a)]])


def _rot_y(a):
    return np.array([[math.cos(a), 0, math.sin(a)], [0, 1, 0], [-math.sin(a), 0, math.cos(a)]])


def _rot_z(a):
    return np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])


def test_fk_chain_matches_homogeneous_transform_oracle():
    spec = core.ParametricModelSpec(
        category=Category.ANIMAL, pose_dim=9, shape_dim=0, expression_dim=0,
        part_count=3,
        skeleton=(core.Joint(-1, (0.1, -0.2, 0.3), 1),
                  core.Joint(0, (0.7, 0.1, -0.2), 2),
                  core.Joint(1, (0.0, 0.5, 0.4), 3)))
    rng = np.random.default_rng(11)
    for _ in range(20):
        pose = rng.uniform(-math.pi, math.pi, size=9)
        scale = float(rng.uniform(0.5, 2.0))
        got = core.fk_joints(spec, pose, scale)
        # oracle: explicit 4x4 homogeneous transform composition
        mats = []
        for j in range(3):
            a, b, c = pose[3 * j:3 * j + 3]
            r = _rot_z(c) @ _rot_y(b) @ _rot_x(a)
            t = np.array(spec.skeleton[j].rest_offset) * scale
            m = np.eye(4)
            m[:3, :3] = r
            # offset is applied in the parent's frame, before the local rotation
            m[:3, 3] = t
            mats.append(m)
        acc = np.eye(4)
        expected = []
        for j in range(3):
            acc = acc @ mats[j]
            expected.append(acc[:3, 3].copy())
        np.testing.assert_allclose(got, expected, atol=1e-9)


def test_fk_random_specs_zero_pose_property():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        joints = [core.Joint(-1, tuple(rng.normal(size=3)), 1)]
        for i in range(1, n):
            parent = int(rng.integers(0, i))
            joints.append(core.Joint(parent, tuple(rng.normal(size=3)), i + 1))
        spec = core.ParametricModelSpec(
            category=Category.HUMAN, pose_dim=3 * n, shape_dim=0,
            expression_dim=0, part_count=n, skeleton=tuple(joints))
        got = core.fk_joints(spec, np.zeros(3 * n), 1.3)
        expected = np.zeros((n, 3))
        for i, j in enumerate(joints):
            if j.parent_id >= 0:
                expected[i] = expected[j.parent_id] + np.array(j.rest_offset) * 1.3
            else:
                expected[i] = np.array(j.rest_offset) * 1.3
        np.testing.assert_allclose(got, expected, atol=1e-12)


def _euler_xyz_oracle(a, b, c):
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cc, sc = np.cos(c), np.sin(c)
    rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rz = np.array([[cc, -sc, 0], [sc, cc, 0], [0, 0, 1]])
    return rz @ ry @ rx


def _fk_loop_oracle(spec, pose, shape_scale):
    """The per-pose joint loop that batched fk_joints replaced, kept as its
    oracle, with forward_kinematics' per-bone densify: (points, joints)."""
    world_rot = np.empty((spec.joint_count, 3, 3))
    pos = np.empty((spec.joint_count, 3))
    for i, joint in enumerate(spec.skeleton):
        local = _euler_xyz_oracle(*pose[3 * i:3 * i + 3])
        offset = np.asarray(joint.rest_offset) * shape_scale
        if joint.parent_id < 0:
            world_rot[i] = local
            pos[i] = offset
        else:
            p = joint.parent_id
            world_rot[i] = world_rot[p] @ local
            pos[i] = pos[p] + world_rot[p] @ offset
    pts = [pos]
    fractions = (np.arange(1, core.BONE_SAMPLES + 1) / core.BONE_SAMPLES)[:, None]
    for i, joint in enumerate(spec.skeleton):
        if joint.parent_id >= 0:
            a, b = pos[joint.parent_id], pos[i]
            pts.append(a + fractions * (b - a))
    return np.vstack(pts), pos


@st.composite
def _posed_skeletons(draw):
    """A random parent-ordered skeleton, or a preset, with 1-64 frames of
    angles at scales up to 100 rad, a random shape scale and an entry to
    make NaN."""
    spec = draw(st.sampled_from([None, preset(Category.HUMAN), preset(Category.ANIMAL)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if spec is None:
        n = draw(st.integers(1, 12))
        joints = [core.Joint(-1, tuple(rng.normal(size=3)), 1)]
        for i in range(1, n):
            joints.append(core.Joint(int(rng.integers(0, i)),
                                     tuple(rng.normal(size=3)), i + 1))
        spec = core.ParametricModelSpec(
            category=Category.HUMAN, pose_dim=3 * n, shape_dim=0,
            expression_dim=0, part_count=n, skeleton=tuple(joints))
    frames = draw(st.integers(1, 64))
    scale = draw(st.sampled_from([0.01, 0.5, math.pi, 10.0, 100.0]))
    poses = rng.uniform(-scale, scale, size=(frames, spec.pose_dim))
    nan_at = (draw(st.integers(0, frames - 1)), draw(st.integers(0, spec.pose_dim - 1)))
    return spec, poses, draw(st.floats(0.3, 3.0)), nan_at


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_posed_skeletons())
def test_batched_fk_matches_per_pose_loop_oracle_bitwise(case):
    spec, poses, shape_scale, nan_at = case
    joints = core.fk_joints(spec, poses, shape_scale)
    posed = core.forward_kinematics(spec, poses, shape_scale)
    assert joints.shape == (len(poses), spec.joint_count, 3)
    assert posed.shape == (len(poses), spec.point_labels.shape[0], 3)
    for t, pose in enumerate(poses):
        points, expected = _fk_loop_oracle(spec, pose, shape_scale)
        np.testing.assert_array_equal(joints[t], expected)
        np.testing.assert_array_equal(posed[t], points)
    # one bad entry in any one frame rejects the whole batch
    bad = poses.copy()
    bad[nan_at] = np.nan
    with pytest.raises(DimensionMismatch):
        core.fk_joints(spec, bad, shape_scale)
    with pytest.raises(DimensionMismatch):
        core.forward_kinematics(spec, bad, shape_scale)


def test_fk_single_pose_keeps_its_shape():
    spec = preset(Category.ANIMAL)
    pose = np.random.default_rng(13).normal(size=spec.pose_dim)
    posed = core.forward_kinematics(spec, pose, 1.4)
    points, joints = _fk_loop_oracle(spec, pose, 1.4)
    np.testing.assert_array_equal(core.fk_joints(spec, pose, 1.4), joints)
    np.testing.assert_array_equal(posed, points)


def test_forward_kinematics_emits_joint_and_bone_points():
    spec = preset(Category.HUMAN)
    out = core.forward_kinematics(spec, np.zeros(spec.pose_dim), 1.0)
    expected_n = spec.joint_count + core.BONE_SAMPLES * (spec.joint_count - 1)
    assert out.shape == (expected_n, 3)
    assert spec.point_labels.shape == (expected_n,)
    assert spec.point_labels.min() >= 1 and spec.point_labels.max() <= spec.part_count
    # the first J points are the joints themselves
    np.testing.assert_array_equal(out[:spec.joint_count],
                                  core.fk_joints(spec, np.zeros(spec.pose_dim), 1.0))


def test_fk_dimension_mismatch():
    spec = preset(Category.HUMAN)
    with pytest.raises(DimensionMismatch):
        core.fk_joints(spec, np.zeros(10), 1.0)
    with pytest.raises(DimensionMismatch):
        core.fk_joints(preset(Category.GENERIC_OBJECT), np.zeros(63), 1.0)


# ---------------------------------------------- validation at construction

def test_validate_well_formed():
    seq = random_seq(np.random.default_rng(13), 5)
    assert seq.frames.shape == (5, 63) and seq.frames.dtype == np.float64
    assert not seq.frames.flags.writeable


def test_validate_nan_entry():
    frames = np.zeros((4, 63))
    frames[2, 7] = frames[3, 0] = np.nan
    with pytest.raises(DimensionMismatch, match=r"\(frame 2, channel 7\) is nan"):
        make_seq(frames)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_validate_infinite_entry(value):
    frames = np.zeros((3, 63))
    frames[1, 62] = value
    with pytest.raises(DimensionMismatch, match=r"\(frame 1, channel 62\)"):
        make_seq(frames)


def test_validate_width_mismatch():
    # a wrong width, no frames, or not one row per frame
    for shape in [(3, 10), (3, 64), (0, 63), (63,), (1, 3, 21)]:
        with pytest.raises(DimensionMismatch, match="not \\(F >= 1, 63\\)"):
            make_seq(np.zeros(shape))


@pytest.mark.parametrize("fps", [0.0, -1.0, np.nan, np.inf])
def test_validate_refuses_an_fps_that_is_not_positive_and_finite(fps):
    with pytest.raises(DimensionMismatch, match="fps"):
        make_seq(np.zeros((3, 63)), fps=fps)


def test_ragged_frames_rejected_at_construction():
    spec = preset(Category.GENERIC_OBJECT)
    with pytest.raises((DimensionMismatch, ValueError)):
        MotionSequence(model=spec, fps=16.0, frames=[[0.0, 1.0], [2.0]])


def test_valid_sequence_accepted_by_all_operations():
    rng = np.random.default_rng(14)
    seq = random_seq(rng, 8, Category.HUMAN)
    core.motion_strength(seq)
    core.resample(seq, 12)
    core.extrapolate(seq, 2)
    core.forward_kinematics(seq.model, seq.frames[0], 1.0)


# -------------------------------------------------------------- motion json

def test_motion_json_round_trip():
    rng = np.random.default_rng(15)
    seq = random_seq(rng, 6, Category.ANIMAL)
    text = core.motion_to_json(seq)
    back = core.motion_from_json(text)
    assert back.model.category is Category.ANIMAL
    assert back.fps == seq.fps
    assert np.array_equal(back.frames, seq.frames)


def test_motion_json_frames_match_the_per_element_float_loop():
    # frames.tolist() gives the same Python floats as the loop it replaced,
    # so the JSON bytes (pinned by the golden run digests) do not move
    rng = np.random.default_rng(17)
    seq = random_seq(rng, 4, Category.HUMAN)
    frames = seq.frames.copy()
    frames[0, :6] = [-0.0, 5e-324, -2.225073858507203e-309, 1e16, 1 / 3, -1e16 / 3]
    seq = seq.with_frames(frames)
    text = core.motion_to_json(seq)
    old = [[float(v) for v in row] for row in seq.frames]
    assert text == json.dumps({**json.loads(text), "frames": old})
    assert '[-0.0, 5e-324, -2.225073858507203e-309, 1e+16, 0.3333333333333333, ' in text


def test_motion_json_rejects_bad_version_and_dims():
    rng = np.random.default_rng(16)
    seq = random_seq(rng, 3)
    import json as _json
    doc = _json.loads(core.motion_to_json(seq))
    doc["version"] = "2"
    with pytest.raises(DimensionMismatch):
        core.motion_from_json(_json.dumps(doc))
    doc["version"] = "1"
    doc["pose_dim"] = 64
    with pytest.raises(DimensionMismatch):
        core.motion_from_json(_json.dumps(doc))
