from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from motionloop import simgen
from motionloop.core import Category, motion_strength, preset, resample
from motionloop.errors import DimensionMismatch, InvalidConfig, UnknownActionTag
from motionloop.geometry import CameraSpec, ConditionMode
from motionloop.scenes import fixture_scene
from motionloop.simgen import (
    COARSE_CONFIG,
    CORRUPTION_PIN_WIDTH,
    DROP_ACCEL,
    FINE_CONFIG,
    GeneratorConfig,
    SceneObject,
    SceneSpec,
    VideoClip,
    corrupt_motion,
    generate,
    generic_template,
    object_render_points,
    part_code,
    part_intensity,
    render,
    synthesize_gt_motion,
)


def one_object_scene(category=Category.GENERIC_OBJECT, action="drop",
                     duration=32, placement=(0.0, -0.5, 5.0)):
    spec = preset(category)
    if spec.is_articulated:
        pose = np.zeros(spec.pose_dim)
    else:
        pose = generic_template(0.6, 0.45)
    obj = SceneObject(spec=spec, initial_pose=pose, shape_scale=1.0,
                      placement=placement,
                      tags=("object" if not spec.is_articulated else "human",
                            action))
    return SceneSpec(objects=(obj,), camera=CameraSpec.default(192, 108),
                     duration=duration, fps=16.0)


# ------------------------------------------------------------- gt synthesis

def test_static_tag_constant_sequence():
    scene = one_object_scene(action="static")
    seq = synthesize_gt_motion(scene, seed=0)[0]
    assert np.all(seq.frames == seq.frames[0])


def test_drop_constant_acceleration():
    scene = one_object_scene(action="drop")
    seq = synthesize_gt_motion(scene, seed=1)[0]
    y = seq.frames[:, 20 * 3 + 1]  # center point, vertical channel
    d2 = np.diff(y, 2)
    expected = DROP_ACCEL / scene.fps**2
    np.testing.assert_allclose(d2, expected, atol=1e-9)


def test_walk_strength_and_periodicity():
    scene = one_object_scene(Category.HUMAN, "walk", duration=48,
                             placement=(0, 0, 5.0))
    seq = synthesize_gt_motion(scene, seed=2)[0]
    s = motion_strength(seq)
    assert s.mean > 0
    # normalized autocorrelation of per-frame deltas peaks at the period
    deltas = np.diff(seq.frames, axis=0)
    sig = deltas - deltas.mean(axis=0)
    period = scene.walk_period

    def autocorr(lag):
        a = sig if lag == 0 else sig[:-lag]
        b = sig if lag == 0 else sig[lag:]
        return float((a * b).sum() / a.shape[0])

    base = autocorr(0)
    at_period = autocorr(period)
    others = [autocorr(lag) for lag in range(2, period + 5) if lag != period]
    assert at_period > 0.9 * base
    assert at_period > max(others)


def test_unknown_action_tag():
    spec = preset(Category.GENERIC_OBJECT)
    obj = SceneObject(spec=spec, initial_pose=generic_template(0.5, 0.4),
                      shape_scale=1.0, placement=(0, 0, 5.0),
                      tags=("object", "walk"))  # walk is not a generic action
    scene = SceneSpec(objects=(obj,), camera=CameraSpec.default(64, 48),
                      duration=8, fps=16.0)
    with pytest.raises(UnknownActionTag):
        synthesize_gt_motion(scene, seed=0)


def test_synthesis_deterministic():
    scene = one_object_scene(Category.ANIMAL, "walk")
    a = synthesize_gt_motion(scene, seed=5)[0]
    b = synthesize_gt_motion(scene, seed=5)[0]
    assert np.array_equal(a.frames, b.frames)


# --------------------------------------------------------------- corruption

def test_corrupt_zero_attenuation_is_identity():
    config = GeneratorConfig(attenuation=(0.0, 0.4, 1.0))
    scene = one_object_scene(action="slide")
    gt = synthesize_gt_motion(scene, seed=3)[0]
    out = corrupt_motion(gt, ConditionMode.FULL_MOTION, config, seed=123)
    assert out.frames is gt.frames or np.array_equal(out.frames, gt.frames)


def test_corrupt_monotone_in_conditioning():
    scene = one_object_scene(action="orbit")
    gt = synthesize_gt_motion(scene, seed=4)[0]
    config = GeneratorConfig()
    for seed in range(12):
        errs = []
        for mode in (ConditionMode.EMPTY, ConditionMode.TARGET_POSE,
                     ConditionMode.FULL_MOTION):
            out = corrupt_motion(gt, mode, config, seed=seed)
            errs.append(float(np.mean((out.frames - gt.frames) ** 2)))
        assert errs[0] >= errs[1] >= errs[2]


def test_corrupt_target_pose_pins_final_frame():
    scene = one_object_scene(action="drop")
    gt = synthesize_gt_motion(scene, seed=6)[0]
    config = GeneratorConfig()
    for seed in range(8):
        out = corrupt_motion(gt, ConditionMode.TARGET_POSE, config, seed=seed)
        err = np.linalg.norm(out.frames[-1] - gt.frames[-1])
        assert err <= CORRUPTION_PIN_WIDTH * np.sqrt(gt.frames.shape[1]) + 1e-12


# ---------------------------------------------------------------- rendering

def test_render_out_of_view_object_gives_background():
    scene = one_object_scene(action="static", placement=(50.0, 0.0, 5.0))
    motions = synthesize_gt_motion(scene, seed=0)
    clip, masks = render(scene, motions, FINE_CONFIG)
    for frame, mask in zip(clip.frames, masks):
        assert not frame.any() and not mask.any()


def test_render_returns_read_only_uint8_frame_and_mask_stacks():
    scene = one_object_scene(action="drop", duration=4)
    clip, masks = render(scene, synthesize_gt_motion(scene, seed=0), FINE_CONFIG)
    for stack in (clip.frames, masks):
        assert stack.shape == (4, 108, 192) and stack.dtype == np.uint8
        assert not stack.flags.writeable
    assert masks.any() and set(np.unique(masks)) <= {0, 1}


def test_render_static_scene_identical_frames():
    scene = one_object_scene(action="static")
    motions = synthesize_gt_motion(scene, seed=0)
    clip = render(scene, motions, FINE_CONFIG)[0]
    for frame in clip.frames[1:]:
        assert np.array_equal(frame, clip.frames[0])


def test_render_centroid_tracks_projected_center():
    from motionloop.geometry import project

    scene = one_object_scene(action="slide")
    motions = synthesize_gt_motion(scene, seed=7)
    clip = render(scene, motions, FINE_CONFIG)[0]
    camera = scene.camera
    for t in range(0, scene.duration, 4):
        frame = clip.frames[t]
        ys, xs = np.nonzero(frame)
        centroid = np.array([xs.mean(), ys.mean()])
        center = motions[0].frames[t].reshape(21, 3)[20]
        proj = project(center[None, :], camera)[0, :2]
        assert np.linalg.norm(centroid - proj) <= FINE_CONFIG.splat_radius + 1


def test_intensity_depends_only_on_part_label():
    scene = one_object_scene(Category.HUMAN, "walk", placement=(0, 0, 5.0))
    motions = synthesize_gt_motion(scene, seed=8)
    clip = render(scene, motions, FINE_CONFIG)[0]
    values = set()
    for frame in clip.frames:
        values |= set(np.unique(frame).tolist())
    values -= {0}
    allowed = {part_intensity(l, 22) for l in range(1, 23)}
    assert values <= allowed


def test_render_two_objects_nearer_one_wins_the_overlap():
    human = one_object_scene(Category.HUMAN, "walk",
                             placement=(0.0, 0.0, 4.0)).objects[0]
    thing = SceneObject(spec=preset(Category.GENERIC_OBJECT),
                        initial_pose=generic_template(1.2, 0.9), shape_scale=1.0,
                        placement=(0.0, 0.0, 7.0), tags=("object", "static"))

    def scene_of(*objects):
        return SceneSpec(objects=objects, camera=CameraSpec.default(192, 108),
                         duration=8, fps=16.0)

    # the farther object is listed first, so only depth puts the human on top
    scene = scene_of(thing, human)
    motions = synthesize_gt_motion(scene, seed=3)
    clip, masks = render(scene, motions, FINE_CONFIG)
    thing_alone = render(scene_of(thing), motions[:1], FINE_CONFIG)[0]
    human_alone = render(scene_of(human), motions[1:], FINE_CONFIG)[0]
    human_codes = {part_intensity(l, 22) for l in range(1, 23)}
    for t, frame in enumerate(clip.frames):
        thing_px = thing_alone.frames[t] > 0
        human_px = human_alone.frames[t] > 0
        overlap = thing_px & human_px
        assert overlap.sum() > 50
        assert np.array_equal(frame[overlap], human_alone.frames[t][overlap])
        assert set(np.unique(frame[overlap]).tolist()) <= human_codes
        rest = thing_px & ~human_px
        assert rest.any()
        assert np.array_equal(frame[rest], thing_alone.frames[t][rest])
        assert np.array_equal(frame > 0, masks[t] > 0)


def _fixture_objects():
    # fixture 2 is a generic object, 1 a human and 3 an animal
    return {name: fixture_scene(i) for name, i in
            (("generic", 2), ("human", 1), ("animal", 3))}


def _three_object_scene():
    scenes = _fixture_objects()
    return SceneSpec(objects=tuple(scenes[name].objects[0]
                                   for name in ("human", "animal", "generic")),
                     camera=scenes["human"].camera, duration=16, fps=16.0)


@pytest.mark.parametrize("name", ["generic", "human", "animal"])
def test_object_render_points_poses_every_frame_as_its_own_row(name):
    scene = _fixture_objects()[name]
    obj = scene.objects[0]
    frames = synthesize_gt_motion(scene, seed=4)[0].frames
    pts, labels = object_render_points(obj, frames)
    assert pts.shape == (len(frames), labels.shape[0], 3)
    for t in range(len(frames)):
        row_pts, row_labels = object_render_points(obj, frames[t:t + 1])
        np.testing.assert_array_equal(pts[t], row_pts[0])
        np.testing.assert_array_equal(labels, row_labels)


def test_render_poses_each_articulated_object_once(monkeypatch):
    # the skeleton is posed for all frames in one call, not once per frame
    calls = []
    fk = simgen.forward_kinematics

    def counted(*args, **kwargs):
        calls.append(1)
        return fk(*args, **kwargs)

    monkeypatch.setattr(simgen, "forward_kinematics", counted)
    scene = _three_object_scene()
    clip, masks = render(scene, synthesize_gt_motion(scene, seed=4), FINE_CONFIG)
    assert clip.frame_count == len(masks) == 16
    assert len(calls) == 2


def test_render_full_hd_clip_stays_within_memory_bound():
    # the returned uint8 frames and masks are the kernel's two byte planes,
    # 2 bytes a pixel; its crop-bounded temporaries stay inside the bound's
    # 64 MiB, and a whole-clip z-buffer or code grid would add over 60 MB
    scene = dataclasses.replace(fixture_scene(1), camera=CameraSpec.default(1920, 1080))
    motions = synthesize_gt_motion(scene, seed=4)
    tracemalloc.start()
    try:
        clip, masks = render(scene, motions, FINE_CONFIG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert clip.frame_count == len(masks) == 16
    assert peak < 16 * 1920 * 1080 * 2 + 64 * 2**20


def test_splat_kernel_full_hd_clip_stays_within_memory_bound(monkeypatch):
    # beyond its two byte planes the kernel holds one frame group's z-buffer
    # and candidate blocks; a whole-frame group at 1920 x 1080 is one frame
    # of int64 ranks (16 MiB) plus its label gather, so splatting only the
    # crop where the points land keeps the rest well under 16 MiB
    scene = dataclasses.replace(fixture_scene(1), camera=CameraSpec.default(1920, 1080))
    calls = []
    kernel = simgen.render_part_masks
    monkeypatch.setattr(simgen, "render_part_masks",
                        lambda *args: calls.append(args) or kernel(*args))
    render(scene, synthesize_gt_motion(scene, seed=4), FINE_CONFIG)
    objects, camera, radius = calls[0]
    assert camera.size == (1920, 1080) and radius == simgen.effective_radius(FINE_CONFIG)
    tracemalloc.start()
    try:
        planes = kernel(objects, camera, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert planes.shape == (2, 16, 1080, 1920)
    assert peak - 16 * 1920 * 1080 * 2 < 16 * 2**20


# sha256 of generate()'s clips, all three modes at coarse then fine
# resolution, seed 5, pinned so that a speed-up cannot change pixels
# silently. Recorded with numpy 2.4 and OpenBLAS 0.3.31 on x86-64; another
# platform's trig or BLAS rounding may give other digests.
GOLDEN_CLIP_DIGESTS = {
    "generic": "f3bd61c8c7b4843021180ffa6a9edbfda0ffaac80c2f2374fde5c2ef3b740c95",
    "human": "73c845bdc428991edd657cd9f188b2c928c805edcfa1e759063d72548d3cf492",
    "animal": "a5ce081661542c149bf79b4a49f86207995e5aba99b02149dde1e29588b5baf5",
    "composite": "e85a6506b12658d0e19f8ed95dedad4c07617f1a5e2ecebd2269fe17b814b750",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CLIP_DIGESTS))
def test_generate_clips_match_golden_digests(name):
    scene = (_three_object_scene() if name == "composite"
             else _fixture_objects()[name])
    digest = hashlib.sha256()
    for mode in ConditionMode:
        for config in (COARSE_CONFIG, FINE_CONFIG):
            clip, _ = generate(scene, mode, config, seed=5)
            for frame in clip.frames:
                digest.update(frame.tobytes())
    assert digest.hexdigest() == GOLDEN_CLIP_DIGESTS[name]


@pytest.mark.parametrize("part_count", [1, 16, 22])
def test_intensity_coding_round_trip(part_count):
    rows, decode = part_code(part_count)
    codes = [part_intensity(label, part_count) for label in range(1, part_count + 1)]
    assert all(64 < i <= 255 for i in codes) and len(set(codes)) == part_count
    assert rows.tolist() == [[part_intensity(l, part_count), l]
                             for l in range(part_count + 1)]
    # every byte decodes to the label of the nearest code, the lower on a tie
    for byte in range(256):
        dist = [abs(code - byte) for code in codes]
        assert decode[byte] == dist.index(min(dist)) + 1, byte
    assert part_code(part_count) is part_code(part_count)
    assert not rows.flags.writeable and not decode.flags.writeable


# ----------------------------------------------------------------- generate

def test_generate_coarse_knobs():
    scene = one_object_scene(action="drop")
    clip, realized = generate(scene, ConditionMode.EMPTY, COARSE_CONFIG, seed=9)
    assert clip.frame_count == int(np.ceil(scene.duration / 2))
    assert clip.resolution == (192 // 4, 108 // 4)
    assert realized[0].frame_count == clip.frame_count


def test_generate_deterministic():
    scene = one_object_scene(action="orbit")
    a, ra = generate(scene, ConditionMode.TARGET_POSE, COARSE_CONFIG, seed=10)
    b, rb = generate(scene, ConditionMode.TARGET_POSE, COARSE_CONFIG, seed=10)
    assert all(np.array_equal(x, y) for x, y in zip(a.frames, b.frames))
    assert all(np.array_equal(x.frames, y.frames) for x, y in zip(ra, rb))


def test_generate_full_motion_with_zero_attenuation_returns_gt():
    config = GeneratorConfig(resolution_scale=0.5, frame_fraction=0.5,
                             attenuation=(0.0, 0.4, 1.0))
    scene = one_object_scene(action="slide")
    _, realized = generate(scene, ConditionMode.FULL_MOTION, config, seed=11)
    gt = synthesize_gt_motion(scene, seed=11)
    gt_sub = [resample(m, realized[0].frame_count) for m in gt]
    for r, g in zip(realized, gt_sub):
        assert np.array_equal(r.frames, g.frames)


def test_generate_monotone_conditioning_mse():
    scene = one_object_scene(action="drop")
    config = COARSE_CONFIG
    gt = synthesize_gt_motion(scene, seed=12)
    n = int(np.ceil(scene.duration * config.frame_fraction))
    gt_sub = [resample(m, n) for m in gt]
    for seed in (12, 13, 14):
        errs = []
        for mode in (ConditionMode.EMPTY, ConditionMode.TARGET_POSE,
                     ConditionMode.FULL_MOTION):
            _, realized = generate(scene, mode, config, seed=seed)
            errs.append(float(np.mean([(r.frames - g.frames) ** 2
                                       for r, g in zip(realized, gt_sub)])))
        assert errs[0] >= errs[1] >= errs[2]


def test_generator_config_validation():
    with pytest.raises(InvalidConfig):
        GeneratorConfig(resolution_scale=0.0)
    for attenuation in ((0.02, 0.4), (0.02, 0.4, 1.0, 1.0), (0.02, float("nan"), 1.0),
                        (0.02, 0.4, float("inf")), (0.5, 0.4, 1.0), (0.02, 0.4, 0.3)):
        with pytest.raises(InvalidConfig, match="attenuation"):
            GeneratorConfig(attenuation=attenuation)
    assert GeneratorConfig(attenuation=(0.3, 0.3, 0.3)).attenuation == (0.3, 0.3, 0.3)


def _changed(value):
    """A different value of the same type: halved, entry by entry in a tuple."""
    if isinstance(value, tuple):
        return tuple(_changed(v) for v in value)
    return type(value)(value / 2)


def test_every_generator_config_field_changes_what_generate_returns():
    # a field generate does not read is a field nothing reads
    scene = one_object_scene(action="orbit")
    base = GeneratorConfig()
    clip, realized = generate(scene, ConditionMode.TARGET_POSE, base, seed=10)
    for field in dataclasses.fields(GeneratorConfig):
        config = dataclasses.replace(base, **{field.name: _changed(getattr(base, field.name))})
        other, other_realized = generate(scene, ConditionMode.TARGET_POSE, config, seed=10)
        assert not (len(other.frames) == len(clip.frames)
                    and all(np.array_equal(a, b) for a, b in zip(other.frames, clip.frames))
                    and all(np.array_equal(a.frames, b.frames)
                            for a, b in zip(other_realized, realized))), field.name


def test_video_clip_rejects_non_uint8_frames():
    # SSIM's exact integer window sums rely on the uint8 frame contract
    frame = np.zeros((4, 6), dtype=np.uint8)
    VideoClip((frame,), 16.0)
    with pytest.raises(InvalidConfig, match="uint8"):
        VideoClip((frame, frame.astype(np.float64)), 16.0)


def test_video_clip_from_a_tuple_is_one_read_only_array():
    frames = tuple(np.full((4, 6), k, dtype=np.uint8) for k in range(3))
    clip = VideoClip(frames, 16.0)
    assert isinstance(clip.frames, np.ndarray) and clip.frames.shape == (3, 4, 6)
    assert clip.frames.dtype == np.uint8 and not clip.frames.flags.writeable
    np.testing.assert_array_equal(clip.frames, np.stack(frames))


def test_video_clip_size_is_its_frames_shape():
    clip = VideoClip(np.zeros((2, 4, 6), dtype=np.uint8), 16.0)
    assert clip.resolution == (6, 4) and clip.frame_count == 2
    # a resolution, if given, is only checked against the frames
    assert VideoClip(clip.frames, 16.0, resolution=(6, 4)).resolution == (6, 4)
    with pytest.raises(DimensionMismatch, match="not the frames' \\(6, 4\\)"):
        VideoClip(clip.frames, 16.0, resolution=(4, 6))


@pytest.mark.parametrize("shape", [(0, 4, 6), (4, 6), (1, 1, 4, 6), ()])
def test_video_clip_refuses_frames_that_are_not_a_stack(shape):
    with pytest.raises(InvalidConfig, match="F >= 1, H, W"):
        VideoClip(np.zeros(shape, dtype=np.uint8), 16.0)
