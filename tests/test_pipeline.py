from __future__ import annotations

import hashlib
import json
import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionloop import pipeline
from motionloop.core import Category, MotionSequence, motions_from_json, preset, resample
from motionloop.errors import ExtractionFailed, InvalidConfig, ShapeMismatch
from motionloop.fileio import read_clip, read_condition
from motionloop.geometry import CameraSpec, ConditionMode
from motionloop.pipeline import (
    EvalReport,
    PipelineConfig,
    UserCondition,
    _frame_scores,
    eval_metrics,
    extract_motion,
    run_from_json,
    run_pipeline,
    stage1_coarse,
    stage2_optimize,
    stage3_regenerate,
)
from motionloop.pmp import PmpConfig, pmp_init
from motionloop.scenes import fixture_scene, scene_to_json, walker_scene
from motionloop.simgen import (
    COARSE_CONFIG,
    FINE_CONFIG,
    GeneratorConfig,
    SceneSpec,
    VideoClip,
    generate,
    render,
    synthesize_gt_motion,
)

TINY = PmpConfig(layers=1, model_dim=32, heads=2, ffn_dim=32, max_frames=64)


def tiny_model():
    return pmp_init(TINY, seed=5)


def clip_of(frames, fps=16.0):
    return VideoClip(tuple(np.asarray(f, dtype=np.uint8) for f in frames), fps)


ZERO_CORRUPTION = GeneratorConfig(
    resolution_scale=0.25, frame_fraction=0.5, attenuation=(0.0, 0.0, 0.0))


# ------------------------------------------------------------------- config

def test_pipeline_config_validation():
    with pytest.raises(InvalidConfig):
        PipelineConfig(confidence_triple=(0.0, 0.5, 1.0))
    cfg = PipelineConfig()
    assert cfg.confidence_triple == (1.0, 0.5, 0.0)


def test_pipeline_config_json_round_trip():
    coarse = GeneratorConfig(resolution_scale=0.3, frame_fraction=0.6,
                             attenuation=(0.1, 0.5, 0.9), splat_radius=2.5)
    fine = GeneratorConfig(resolution_scale=0.9, frame_fraction=0.8,
                           attenuation=(0.05, 0.3, 0.7), splat_radius=4.0)
    config = PipelineConfig(coarse=coarse, fine=fine,
                            confidence_triple=(0.9, 0.6, 0.1),
                            pmp_checkpoint="prior.ckpt", seed=13)
    for c, default in ((coarse, COARSE_CONFIG), (fine, FINE_CONFIG),
                       (config, PipelineConfig())):
        for f in fields(c):
            assert getattr(c, f.name) != getattr(default, f.name), f.name
    assert PipelineConfig.from_json(json.loads(config.to_json()), 13) == config


# ------------------------------------------------------------------ metrics

def test_metrics_identity():
    rng = np.random.default_rng(70)
    frames = [rng.integers(0, 255, size=(24, 32)).astype(np.uint8)
              for _ in range(4)]
    clip = clip_of(frames)
    masks = [rng.integers(0, 4, size=(24, 32)) for _ in range(4)]
    spec = preset(Category.GENERIC_OBJECT)
    motion = MotionSequence(spec, 16.0, rng.normal(size=(4, 63)))
    report = eval_metrics(clip, clip, [motion], [motion], masks, masks)
    assert report.psnr == 99.0
    assert report.ssim == pytest.approx(1.0, abs=1e-12)
    assert report.mask_miou == 1.0
    assert report.traj_mse == 0.0


def test_psnr_uniform_offset_closed_form():
    base = np.full((36, 48), 100, dtype=np.uint8)
    pred = clip_of([base + 10])
    ref = clip_of([base])
    report = eval_metrics(pred, ref, [], [], [], [])
    assert report.psnr == pytest.approx(10 * np.log10(255**2 / 100), abs=0.01)


def test_psnr_monotone_in_noise():
    rng = np.random.default_rng(71)
    base = rng.integers(60, 200, size=(32, 32)).astype(np.float64)
    last = np.inf
    for sigma in (2, 6, 14, 30):
        noisy = np.clip(base + rng.normal(0, sigma, base.shape), 0, 255)
        report = eval_metrics(clip_of([noisy.astype(np.uint8)]),
                              clip_of([base.astype(np.uint8)]), [], [], [], [])
        assert report.psnr < last
        last = report.psnr


def test_ssim_symmetric():
    rng = np.random.default_rng(72)
    a = rng.integers(0, 255, size=(24, 24)).astype(np.uint8)
    b = rng.integers(0, 255, size=(24, 24)).astype(np.uint8)
    r1 = eval_metrics(clip_of([a]), clip_of([b]), [], [], [], [])
    r2 = eval_metrics(clip_of([b]), clip_of([a]), [], [], [], [])
    assert r1.ssim == pytest.approx(r2.ssim, rel=1e-12)


def _ssim_frame_loop(a: np.ndarray, b: np.ndarray, maxval: float = 255.0,
                     window: int = 8, stride: int = 4) -> float:
    """The per-window loop that the window-sum SSIM replaced, kept as its oracle."""
    c1 = (0.01 * maxval) ** 2
    c2 = (0.03 * maxval) ** 2
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    h, w = a.shape
    vals = []
    for y in range(0, max(h - window + 1, 1), stride):
        for x in range(0, max(w - window + 1, 1), stride):
            pa = a[y:y + window, x:x + window]
            pb = b[y:y + window, x:x + window]
            mu_a, mu_b = pa.mean(), pb.mean()
            va, vb = pa.var(), pb.var()
            cov = ((pa - mu_a) * (pb - mu_b)).mean()
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2)))
    return float(np.mean(vals))


def test_ssim_equals_window_loop_on_fixture_frames():
    # the final (full-motion, fine) and coarse (empty, coarse) clips against
    # the ground-truth render, as run_pipeline evaluates them
    compared = 0
    for index in range(20):
        scene = fixture_scene(index)
        gt = synthesize_gt_motion(scene, seed=42)
        for mode, config in ((ConditionMode.FULL_MOTION, FINE_CONFIG),
                             (ConditionMode.EMPTY, COARSE_CONFIG)):
            clip, _ = generate(scene, mode, config, seed=42)
            ref = render(scene, [resample(m, clip.frame_count) for m in gt],
                         config)[0]
            ssim = _frame_scores(clip.frames, ref.frames)[1]
            for t, (a, b) in enumerate(zip(clip.frames, ref.frames)):
                assert ssim[t] == _ssim_frame_loop(a, b), (index, config, t)
                compared += 1
    assert compared == 20 * (16 + 8)


def test_ssim_equals_window_loop_on_random_and_sparse_frames():
    rng = np.random.default_rng(74)
    for shape in ((108, 192), (110, 193), (9, 13), (8, 8), (12, 17)):
        a = rng.integers(0, 256, size=shape, dtype=np.uint8)
        b = rng.integers(0, 256, size=shape, dtype=np.uint8)
        sparse = a * (rng.random(shape) < 0.03)
        for x, y in ((a, b), (sparse, b), (sparse, sparse), (sparse, 0 * a)):
            assert _frame_scores([x], [y])[1] == [_ssim_frame_loop(x, y)], shape


def test_ssim_matches_window_loop_on_frames_smaller_than_the_window():
    # one truncated window of fewer than 64 pixels: its mean and variance are
    # no longer exact divisions, so agreement is to rounding, not bitwise
    rng = np.random.default_rng(75)
    for shape in ((5, 7), (3, 20), (20, 3), (1, 1)):
        a = rng.integers(0, 256, size=shape, dtype=np.uint8)
        b = rng.integers(0, 256, size=shape, dtype=np.uint8)
        assert _frame_scores([a], [b])[1] == pytest.approx([_ssim_frame_loop(a, b)],
                                                           rel=0, abs=1e-12), shape


def _psnr_frame(a: np.ndarray, b: np.ndarray) -> float:
    """The float-mean PSNR that the integer one replaced, kept as its oracle."""
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    return 99.0 if mse == 0.0 else min(99.0, 10.0 * math.log10(255.0 * 255.0 / mse))


@st.composite
def _frame_pairs(draw):
    """1-12 pairs of h x w uint8 frames, 1-40 pixels a side: a dense random
    frame against a dense, sparse, blank or identical one."""
    n, h, w = draw(st.integers(1, 12)), draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, 256, size=(n, h, w), dtype=np.uint8)
    kind = draw(st.sampled_from(["dense", "sparse", "blank", "same"]))
    b = {"dense": rng.integers(0, 256, size=(n, h, w), dtype=np.uint8),
         "sparse": a * (rng.random((n, h, w)) < 0.03).astype(np.uint8),
         "blank": np.zeros_like(a), "same": a.copy()}[kind]
    return list(a), list(b)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pair=_frame_pairs(), budget=st.sampled_from([1, 2**8, 2**20]))
def test_frame_groups_score_every_frame_as_the_per_frame_oracles(pair, budget):
    # a budget of 1 pixel scores each frame alone; 2**8 groups frames of up
    # to 16 x 16 pixels; 2**20 takes every frame in one group
    a, b = pair
    with mock.patch.object(pipeline, "SPLAT_BLOCK", budget):
        psnr, ssim = _frame_scores(a, b)
        report = eval_metrics(clip_of(a), clip_of(b), [], [], a, b)
    assert psnr == [_psnr_frame(x, y) for x, y in zip(a, b)]
    oracle = [_ssim_frame_loop(x, y) for x, y in zip(a, b)]
    if min(a[0].shape) < 8:  # one truncated window: agreement to rounding
        assert ssim == pytest.approx(oracle, rel=0, abs=1e-12)
    else:
        assert ssim == oracle
    ious = []
    for x, y in zip(a, b):
        union = np.count_nonzero((x != 0) | (y != 0))
        ious.append(np.count_nonzero((x == y) & (y != 0)) / union if union else 1.0)
    assert report.mask_miou == float(np.mean(ious))


def test_eval_full_hd_clip_stays_within_memory_bound():
    # one 1920 x 1080 frame's five int32 planes take 41 MB; five int64
    # integral images of it take 83 MB, and a whole-clip group over 600 MB
    scene = replace(fixture_scene(1), camera=CameraSpec.default(1920, 1080))
    gt = synthesize_gt_motion(scene, seed=4)
    ref, gt_masks = render(scene, gt, FINE_CONFIG)
    clip, realized = generate(scene, ConditionMode.FULL_MOTION, FINE_CONFIG, seed=4)
    pred_masks = render(scene, realized, FINE_CONFIG)[1]
    assert clip.frame_count == 16 and clip.resolution == (1920, 1080)
    tracemalloc.start()
    try:
        eval_metrics(clip, ref, realized, gt, pred_masks, gt_masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2**20


# sha256 of EvalReport.to_json() over fixtures 0-19 at seed 42, pinned so that
# a faster metric cannot change a bit of report.json. Recorded with numpy 2.4
# on x86-64, like GOLDEN_CLIP_DIGESTS in test_simgen.py.
GOLDEN_EVAL_DIGESTS = {
    "full_motion_fine": "e3f15ed7663307000b3349fadee49fa929e5985d230a859840abd53f1024495a",
    "empty_coarse": "543397eb0b8fd420067468011898641532a6605133e46f61770f9eae3e8429c9",
}


def _eval_report_digests() -> dict[str, str]:
    digests = {name: hashlib.sha256() for name in GOLDEN_EVAL_DIGESTS}
    for index in range(20):
        scene = fixture_scene(index)
        gt = synthesize_gt_motion(scene, seed=42)
        for name, mode, config in (
                ("full_motion_fine", ConditionMode.FULL_MOTION, FINE_CONFIG),
                ("empty_coarse", ConditionMode.EMPTY, COARSE_CONFIG)):
            clip, realized = generate(scene, mode, config, seed=42)
            gt_n = [resample(m, clip.frame_count) for m in gt]
            ref, gt_masks = render(scene, gt_n, config)
            if mode is ConditionMode.FULL_MOTION:
                pred_masks = render(scene, realized, config)[1]
            else:
                pred_masks = gt_masks = []
            report = eval_metrics(clip, ref, realized, gt_n, pred_masks, gt_masks)
            digests[name].update(report.to_json().encode())
    return {name: d.hexdigest() for name, d in digests.items()}


def test_eval_reports_match_golden_digests():
    assert _eval_report_digests() == GOLDEN_EVAL_DIGESTS


def test_miou_counting_oracle():
    rng = np.random.default_rng(73)
    base = np.zeros((8, 8), dtype=np.uint8)
    for _ in range(20):
        a = rng.integers(0, 3, size=(10, 12))
        b = rng.integers(0, 3, size=(10, 12))
        report = eval_metrics(clip_of([base.copy()]), clip_of([base.copy()]),
                              [], [], [a], [b])
        inter = union = 0
        for y in range(10):
            for x in range(12):
                if a[y, x] != 0 or b[y, x] != 0:
                    union += 1
                    if a[y, x] == b[y, x]:
                        inter += 1
        expected = 1.0 if union == 0 else inter / union
        assert report.mask_miou == pytest.approx(expected, rel=1e-12)


def test_metrics_shape_mismatch():
    a = clip_of([np.zeros((8, 8), dtype=np.uint8)])
    b = clip_of([np.zeros((8, 10), dtype=np.uint8)])
    with pytest.raises(ShapeMismatch):
        eval_metrics(a, b, [], [], [], [])


# --------------------------------------------------------------- extraction

def test_extraction_all_background_fails():
    scene = fixture_scene(0)
    blank = clip_of([np.zeros((27, 48), dtype=np.uint8) for _ in range(16)])
    with pytest.raises(ExtractionFailed):
        extract_motion(blank, scene, COARSE_CONFIG)


@pytest.mark.parametrize("name,scene_builder", [
    ("generic_drop", lambda: fixture_scene(0)),
    ("generic_slide", lambda: fixture_scene(2)),
    ("walker", walker_scene),
])
def test_extraction_within_calibrated_tolerance(name, scene_builder, calibration):
    # clip rendered from uncorrupted ground truth: raw extraction error must
    # stay within the frozen per-fixture tolerance
    scene = scene_builder()
    clip, realized = generate(scene, ConditionMode.FULL_MOTION,
                              ZERO_CORRUPTION, seed=3)
    gt = synthesize_gt_motion(scene, seed=3)
    gt_sub = [resample(m, clip.frame_count) for m in gt]
    for r, g in zip(realized, gt_sub):
        assert np.array_equal(r.frames, g.frames)  # fully conditioned
    raw = extract_motion(clip, scene, ZERO_CORRUPTION)
    err = float(np.mean([np.mean((r.frames - g.frames) ** 2)
                         for r, g in zip(raw, gt_sub)]))
    assert err <= calibration["epsilon_extract"][name]


# ------------------------------------------------------------------ stage 1

def test_stage1_empty_condition_channels_all_zero():
    scene = fixture_scene(0)
    config = PipelineConfig()
    gt = synthesize_gt_motion(scene, seed=1)
    clip, channels, _ = stage1_coarse(scene, gt, UserCondition(), config, seed=1)
    assert clip.frame_count == int(np.ceil(scene.duration / 2))
    assert channels.mode is ConditionMode.EMPTY
    assert channels.part_masks.shape == (clip.frame_count,) + clip.frames[0].shape
    assert not channels.part_masks.any()
    assert np.all(channels.confidence(config.confidence_triple) == 0.0)


def test_stage1_target_pose_final_frame_polygon():
    scene = fixture_scene(0)
    config = PipelineConfig()
    tri = np.array([[60.0, 40.0], [120.0, 44.0], [90.0, 80.0]])
    cond = UserCondition(mode=ConditionMode.TARGET_POSE, parts=((1, tri),))
    gt = synthesize_gt_motion(scene, seed=1)
    clip, channels, _ = stage1_coarse(scene, gt, cond, config, seed=1)
    assert channels.mode is ConditionMode.TARGET_POSE
    assert len(channels.part_masks) == clip.frame_count
    assert not channels.part_masks[:-1].any()
    last = channels.part_masks[-1]
    assert last.any()
    assert np.all(channels.confidence(config.confidence_triple)[-1][last != 0] == 0.5)


def test_target_pose_part_label_past_a_byte_is_refused_not_wrapped(tmp_path):
    # the label reaches channels/s1/ as a mask value; 300 used to read back as 44
    tri = np.array([[60.0, 40.0], [120.0, 44.0], [90.0, 80.0]])
    cond = UserCondition(mode=ConditionMode.TARGET_POSE, parts=((300, tri),))
    with pytest.raises(ShapeMismatch, match="0..255"):
        run_pipeline(fixture_scene(0), cond, PipelineConfig(), tiny_model(),
                     out_dir=tmp_path / "run")


@pytest.mark.parametrize("label", [300, -1, 2**40])
def test_target_pose_label_outside_a_byte_is_refused_before_any_render(tmp_path, label):
    # the label is checked where stage 1 builds its channels: no stage
    # renders and the run directory is never made
    tri = np.array([[60.0, 40.0], [120.0, 44.0], [90.0, 80.0]])
    cond = UserCondition(mode=ConditionMode.TARGET_POSE, parts=((label, tri),))
    with mock.patch.object(pipeline, "render", side_effect=AssertionError("rendered")), \
            pytest.raises(ShapeMismatch, match="0..255"):
        run_pipeline(fixture_scene(0), cond, PipelineConfig(), tiny_model(), out_dir=tmp_path)
    assert not list(tmp_path.iterdir())


def test_stage1_deterministic():
    scene = fixture_scene(2)
    config = PipelineConfig()
    gt = synthesize_gt_motion(scene, seed=9)
    a = stage1_coarse(scene, gt, UserCondition(), config, seed=9)[0]
    b = stage1_coarse(scene, gt, UserCondition(), config, seed=9)[0]
    assert all(np.array_equal(x, y) for x, y in zip(a.frames, b.frames))
    # the stage realizes and renders what generate() does for the same seed
    c = generate(scene, ConditionMode.EMPTY, config.coarse, seed=9)[0]
    assert all(np.array_equal(x, y) for x, y in zip(a.frames, c.frames))


def test_stage1_rejects_full_motion_user_condition():
    with pytest.raises(InvalidConfig):
        UserCondition(mode=ConditionMode.FULL_MOTION)


# ------------------------------------------------------------------ stage 3

def test_stage3_final_clip_and_its_masks_come_from_one_render():
    scene = fixture_scene(2)
    config = PipelineConfig()
    gt = synthesize_gt_motion(scene, seed=4)
    clip, masks, realized = stage3_regenerate(scene, gt, config, seed=4)
    assert clip.resolution == scene.camera.size  # fine keeps base resolution
    assert len(masks) == clip.frame_count == scene.duration and masks.any()
    # the final clip's masks come from the same render as its pixels
    again, again_masks = render(scene, realized, config.fine)
    for a, b, m, n in zip(clip.frames, again.frames, masks, again_masks, strict=True):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(m, n)


# ------------------------------------------------------------------ stage 2

def test_stage2_outputs_fine_length_and_strengths():
    scene = fixture_scene(0)
    config = PipelineConfig()
    clip = stage1_coarse(scene, synthesize_gt_motion(scene, seed=2), UserCondition(),
                         config, seed=2)[0]
    refined, raw, strengths = stage2_optimize(clip, scene, tiny_model(), config)
    assert len(refined) == len(raw) == len(strengths) == 1
    assert refined[0].frame_count == scene.duration
    assert raw[0].frame_count == scene.duration
    assert strengths[0] >= 0


# ----------------------------------------------------------------- full run

def test_run_pipeline_persists_layout_and_is_deterministic(tmp_path):
    scene = fixture_scene(2, duration=16)
    config = PipelineConfig()
    model = tiny_model()
    r1 = run_pipeline(scene, UserCondition(), config, model,
                      out_dir=tmp_path / "a")
    r2 = run_pipeline(scene, UserCondition(), config, model,
                      out_dir=tmp_path / "b")
    for sub in ("run.json", "report.json", "coarse/clip.json",
                "final/clip.json", "stage2/raw.json", "stage2/refined.json",
                "stage2/strength.json", "channels/s1/condition.json"):
        assert (tmp_path / "a" / sub).exists(), sub
    assert [p.name for p in (tmp_path / "a" / "channels").iterdir()] == ["s1"]
    for sub in ("report.json", "stage2/raw.json", "stage2/refined.json",
                "run.json"):
        assert (tmp_path / "a" / sub).read_bytes() == \
            (tmp_path / "b" / sub).read_bytes()
    assert r1.report == r2.report
    doc = json.loads((tmp_path / "a" / "report.json").read_text())
    assert set(doc) == {"traj_mse", "mask_miou", "psnr", "ssim"}


def test_stage3_masks_rebuild_bitwise_from_run_json_and_refined_json(tmp_path):
    # run.json and stage2/refined.json alone give the refined motion's masks
    scene = SceneSpec(objects=(fixture_scene(1).objects[0], fixture_scene(2).objects[0]),
                      camera=fixture_scene(1).camera, duration=16, fps=16.0)
    result = run_pipeline(scene, UserCondition(), PipelineConfig(), tiny_model(),
                          out_dir=tmp_path)
    expected = render(scene, result.refined_motions, PipelineConfig().fine)[1]
    config, back_scene = run_from_json((tmp_path / "run.json").read_bytes())
    refined = motions_from_json((tmp_path / "stage2" / "refined.json").read_bytes())
    masks = render(back_scene, refined, config.fine)[1]
    assert masks.shape == (scene.duration,) + expected.shape[1:] and len(refined) == 2
    assert masks.any()
    np.testing.assert_array_equal(masks, expected)


def test_every_file_a_run_writes_reads_back(tmp_path, monkeypatch):
    # each file of the run directory is read by a reader of the package and
    # gives back what the run produced; none is written and left unread
    scene = fixture_scene(3)
    config = PipelineConfig(seed=7)
    result = run_pipeline(scene, UserCondition(), config, tiny_model(), out_dir=tmp_path)
    written = {p for p in tmp_path.rglob("*") if p.is_file()}
    read = set()
    for method in ("read_text", "read_bytes"):
        def recorded(self, *args, _read=getattr(Path, method), **kwargs):
            read.add(self)
            return _read(self, *args, **kwargs)
        monkeypatch.setattr(Path, method, recorded)

    back_config, back_scene = run_from_json((tmp_path / "run.json").read_text())
    assert back_config == config and scene_to_json(back_scene) == scene_to_json(scene)
    for name, clip in (("coarse", result.coarse_clip), ("final", result.final_clip)):
        back = read_clip(tmp_path / name)
        assert (back.fps, back.resolution) == (clip.fps, clip.resolution)
        assert len(back.frames) == len(clip.frames)
        for a, b in zip(back.frames, clip.frames):
            np.testing.assert_array_equal(a, b)
    for name, motions in (("raw", result.raw_motions), ("refined", result.refined_motions)):
        back = motions_from_json((tmp_path / "stage2" / f"{name}.json").read_text())
        assert len(back) == len(motions)
        for a, b in zip(back, motions):
            np.testing.assert_array_equal(a.frames, b.frames)
    assert json.loads((tmp_path / "stage2" / "strength.json").read_text()) == result.strengths
    w, h = scene.camera.scaled(config.coarse.resolution_scale).size
    channels = read_condition(tmp_path / "channels" / "s1")
    assert channels.mode is ConditionMode.EMPTY
    assert channels.part_masks.shape == (result.coarse_clip.frame_count, h, w)
    np.testing.assert_array_equal(channels.part_masks, result.coarse_channels.part_masks)
    assert not channels.part_masks.any()
    assert EvalReport(**json.loads((tmp_path / "report.json").read_text())) == result.report
    assert not list(tmp_path.rglob("*_conf_*.pgm"))
    assert read == written, sorted(str(p.relative_to(tmp_path)) for p in written - read)


# For each group (fixtures 0-19 at seed 42; one 3-object scene) and each
# relative path a run writes, the sha256 of that file in every run of the
# group, in run order (null where a run does not write it), pinned so that a
# refactor of the stages cannot change a byte or the file set of a run
# directory. Recorded with numpy 2.4 on x86-64, like GOLDEN_EVAL_DIGESTS;
# re-record with `PYTHONPATH=src python tests/test_pipeline.py`.
GOLDEN_RUNS = Path(__file__).parent / "fixtures" / "golden_runs.json"


def _three_object_scene() -> SceneSpec:
    return SceneSpec(objects=tuple(fixture_scene(i).objects[0] for i in (1, 2, 3)),
                     camera=fixture_scene(1).camera, duration=16, fps=16.0)


def _run_file_digests(scenes, root: Path) -> dict[str, list[str | None]]:
    model = tiny_model()
    runs = []
    for index, scene in enumerate(scenes):
        out = root / str(index)
        run_pipeline(scene, UserCondition(), PipelineConfig(seed=42), model, out_dir=out)
        runs.append({p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in out.rglob("*") if p.is_file()})
    return {path: [run.get(path) for run in runs]
            for path in sorted(set().union(*runs))}


def _golden_run_groups(root: Path) -> dict[str, dict[str, list[str | None]]]:
    return {
        "fixtures": _run_file_digests([fixture_scene(i) for i in range(20)],
                                      root / "fixtures"),
        "three_objects": _run_file_digests([_three_object_scene()], root / "three"),
    }


def test_run_directories_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN_RUNS.read_text())
    groups = _golden_run_groups(tmp_path)
    assert sorted(groups) == sorted(golden)
    for name, digests in groups.items():
        differ = sorted(path for path in {*digests, *golden[name]}
                        if digests.get(path) != golden[name].get(path))
        assert not differ, f"{name}: these files differ from {GOLDEN_RUNS.name}: {differ}"


def test_run_pipeline_splats_each_motion_set_once(monkeypatch):
    # one kernel call per render, each taking all of its frames: 8 coarse
    # frames, then the final clip with its masks and the ground-truth clip
    # with its masks (16 each)
    from motionloop import simgen

    calls = []
    kernel = simgen.render_part_masks

    def counted(*args, **kwargs):
        planes = kernel(*args, **kwargs)
        calls.append(planes.shape[1])
        return planes

    monkeypatch.setattr(simgen, "render_part_masks", counted)
    run_pipeline(fixture_scene(1), UserCondition(), PipelineConfig(), tiny_model())
    assert sorted(calls) == [8, 16, 16]


def test_run_pipeline_synthesizes_ground_truth_once(monkeypatch):
    # both stages realize, and eval scores against, one synthesis; counted
    # through simgen and through pipeline, which imports the name
    from motionloop import simgen

    calls = []
    synthesize = simgen.synthesize_gt_motion

    def counted(*args, **kwargs):
        calls.append(args)
        return synthesize(*args, **kwargs)

    for module in (simgen, pipeline):
        monkeypatch.setattr(module, "synthesize_gt_motion", counted)
    run_pipeline(fixture_scene(1), UserCondition(), PipelineConfig(), tiny_model())
    assert len(calls) == 1


def test_run_pipeline_empty_condition_completes():
    scene = fixture_scene(4, duration=16)
    result = run_pipeline(scene, UserCondition(), PipelineConfig(), tiny_model())
    assert result.final_clip.frame_count == 16
    assert np.isfinite(result.report.traj_mse)


# ------------------------------------------------ objects leaving the frame

def _slide_at(x: float) -> SceneSpec:
    """Fixture 2's slide object moved to x, at its own depth."""
    scene = fixture_scene(2)
    obj = scene.objects[0]
    return replace(scene, objects=(replace(obj, placement=(x, *obj.placement[1:])),))


def test_run_pipeline_on_an_object_cut_by_the_frame_edge_reports_in_range():
    scene = _slide_at(2.5)
    clip = generate(scene, ConditionMode.EMPTY, COARSE_CONFIG, seed=42)[0]
    # stage 1's clip: the right edge cuts the object in every frame
    assert clip.frames[:, :, -1].any(axis=1).all()
    report = run_pipeline(scene, UserCondition(), PipelineConfig(seed=42), tiny_model()).report
    assert 0.0 <= report.traj_mse < math.inf and 0.0 <= report.mask_miou <= 1.0
    assert 0.0 < report.psnr <= 99.0 and -1.0 <= report.ssim <= 1.0


def test_run_pipeline_on_an_object_off_the_frame_fails_and_writes_nothing(tmp_path):
    scene = _slide_at(4.0)
    assert not generate(scene, ConditionMode.EMPTY, COARSE_CONFIG, seed=42)[0].frames.any()
    with pytest.raises(ExtractionFailed, match="no object pixels in 8/8 frames"):
        run_pipeline(scene, UserCondition(), PipelineConfig(seed=42), tiny_model(),
                     out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


# --------------------------------------------- properties with trained prior

def test_error_containment_on_every_fixture(fixture_runs, trained_prior):
    # the refinement must never make the extracted motion worse
    for index, result in enumerate(fixture_runs):
        assert result.refined_traj_mse <= result.raw_traj_mse, (
            index, result.raw_traj_mse, result.refined_traj_mse)
    scene = walker_scene()
    result = run_pipeline(scene, UserCondition(), PipelineConfig(),
                          trained_prior.model)
    assert result.refined_traj_mse <= result.raw_traj_mse


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN_RUNS.write_text(json.dumps(_golden_run_groups(Path(tmp)), indent=1) + "\n")
