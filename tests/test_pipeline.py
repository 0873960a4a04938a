from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from motionloop.core import Category, MotionSequence, motions_from_json, preset, resample
from motionloop.errors import ExtractionFailed, InvalidConfig, ShapeMismatch
from motionloop.fileio import read_clip, read_condition
from motionloop.geometry import ConditionMode
from motionloop.pipeline import (
    EvalReport,
    PipelineConfig,
    UserCondition,
    _ssim_frame,
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
    h, w = np.asarray(frames[0]).shape
    return VideoClip(frames=tuple(np.asarray(f, dtype=np.uint8) for f in frames),
                     fps=fps, resolution=(w, h))


ZERO_CORRUPTION = GeneratorConfig(
    resolution_scale=0.25, frame_fraction=0.5, steps=32,
    condition_fidelity=((0.0, 0.0), (0.5, 0.0), (1.0, 0.0)))


# ------------------------------------------------------------------- config

def test_pipeline_config_validation():
    with pytest.raises(InvalidConfig):
        PipelineConfig(confidence_triple=(0.0, 0.5, 1.0))
    cfg = PipelineConfig()
    assert cfg.confidence_triple == (1.0, 0.5, 0.0)


def test_pipeline_config_json_round_trip():
    coarse = GeneratorConfig(resolution_scale=0.3, frame_fraction=0.6, steps=7,
                             condition_fidelity=((0.0, 0.9), (0.25, 0.5), (1.0, 0.1)),
                             splat_radius=2.5)
    fine = GeneratorConfig(resolution_scale=0.9, frame_fraction=0.8, steps=11,
                           condition_fidelity=((0.0, 0.7), (1.0, 0.05)),
                           splat_radius=4.0)
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
    """The per-window loop that _ssim_frame replaced, kept as its oracle."""
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
            for t, (a, b) in enumerate(zip(clip.frames, ref.frames)):
                assert _ssim_frame(a, b) == _ssim_frame_loop(a, b), (index, config, t)
                compared += 1
    assert compared == 20 * (16 + 8)


def test_ssim_equals_window_loop_on_random_and_sparse_frames():
    rng = np.random.default_rng(74)
    for shape in ((108, 192), (110, 193), (9, 13), (8, 8), (12, 17)):
        a = rng.integers(0, 256, size=shape, dtype=np.uint8)
        b = rng.integers(0, 256, size=shape, dtype=np.uint8)
        sparse = a * (rng.random(shape) < 0.03)
        for x, y in ((a, b), (sparse, b), (sparse, sparse), (sparse, 0 * a)):
            assert _ssim_frame(x, y) == _ssim_frame_loop(x, y), shape


def test_ssim_matches_window_loop_on_frames_smaller_than_the_window():
    # one truncated window of fewer than 64 pixels: its mean and variance are
    # no longer exact divisions, so agreement is to rounding, not bitwise
    rng = np.random.default_rng(75)
    for shape in ((5, 7), (3, 20), (20, 3), (1, 1)):
        a = rng.integers(0, 256, size=shape, dtype=np.uint8)
        b = rng.integers(0, 256, size=shape, dtype=np.uint8)
        assert _ssim_frame(a, b) == pytest.approx(_ssim_frame_loop(a, b),
                                                  rel=0, abs=1e-12), shape


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
    clip, (channels, _) = stage1_coarse(scene, UserCondition(), config, seed=1)
    assert clip.frame_count == int(np.ceil(scene.duration / 2))
    for ch in channels:
        assert not ch.part_mask.any()
        assert np.all(ch.confidence == 0.0)


def test_stage1_target_pose_final_frame_polygon():
    scene = fixture_scene(0)
    config = PipelineConfig()
    tri = np.array([[60.0, 40.0], [120.0, 44.0], [90.0, 80.0]])
    cond = UserCondition(mode=ConditionMode.TARGET_POSE, parts=((1, tri),))
    clip, (channels, _) = stage1_coarse(scene, cond, config, seed=1)
    for ch in channels[:-1]:
        assert not ch.part_mask.any()
    last = channels[-1]
    assert last.part_mask.any()
    assert np.all(last.confidence[last.part_mask != 0] == 0.5)


def test_stage1_deterministic():
    scene = fixture_scene(2)
    config = PipelineConfig()
    a, _ = stage1_coarse(scene, UserCondition(), config, seed=9)
    b, _ = stage1_coarse(scene, UserCondition(), config, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a.frames, b.frames))


def test_stage1_rejects_full_motion_user_condition():
    with pytest.raises(InvalidConfig):
        UserCondition(mode=ConditionMode.FULL_MOTION)


# ------------------------------------------------------------------ stage 3

def test_stage3_channels_full_confidence_and_resolution():
    scene = fixture_scene(2)
    config = PipelineConfig()
    gt = synthesize_gt_motion(scene, seed=4)
    clip, (channels, _) = stage3_regenerate(scene, gt, config, seed=4)
    assert clip.resolution == scene.camera.size  # fine keeps base resolution
    assert len(channels) == scene.duration
    seen = False
    for ch in channels:
        labeled = ch.part_mask != 0
        if labeled.any():
            seen = True
            assert np.all(ch.confidence[labeled] == 1.0)
        assert np.all(ch.confidence[~labeled] == 0.0)
    assert seen


def test_stage3_rejects_wrong_length():
    scene = fixture_scene(2)
    config = PipelineConfig()
    gt = synthesize_gt_motion(scene, seed=4)
    short = [m.with_frames(m.frames[:10]) for m in gt]
    with pytest.raises(ShapeMismatch):
        stage3_regenerate(scene, short, config, seed=4)


# ------------------------------------------------------------------ stage 2

def test_stage2_outputs_fine_length_and_strengths():
    scene = fixture_scene(0)
    config = PipelineConfig()
    clip, _ = stage1_coarse(scene, UserCondition(), config, seed=2)
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
                "stage2/strength.json", "channels/s1_conf.json",
                "channels/s3_conf.json"):
        assert (tmp_path / "a" / sub).exists(), sub
    for sub in ("report.json", "stage2/raw.json", "stage2/refined.json",
                "run.json"):
        assert (tmp_path / "a" / sub).read_bytes() == \
            (tmp_path / "b" / sub).read_bytes()
    assert r1.report == r2.report
    doc = json.loads((tmp_path / "a" / "report.json").read_text())
    assert set(doc) == {"traj_mse", "mask_miou", "psnr", "ssim"}


def test_stage3_channels_are_the_part_masks_of_the_refined_motions(tmp_path):
    scene = SceneSpec(objects=(fixture_scene(1).objects[0], fixture_scene(2).objects[0]),
                      camera=fixture_scene(1).camera, duration=16, fps=16.0)
    config = PipelineConfig()
    result = run_pipeline(scene, UserCondition(), config, tiny_model(), out_dir=tmp_path)
    channels = read_condition(tmp_path / "channels", prefix="s3")
    masks = render(scene, result.refined_motions, config.fine)[1]
    assert len(channels) == len(masks) == scene.duration
    for ch, mask in zip(channels, masks):
        np.testing.assert_array_equal(ch.part_mask, mask)


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
    fine_masks = render(scene, result.refined_motions, config.fine)[1]
    for prefix, mode, masks in (
            ("s1", ConditionMode.EMPTY, [np.zeros((h, w))] * result.coarse_clip.frame_count),
            ("s3", ConditionMode.FULL_MOTION, fine_masks)):
        channels = read_condition(tmp_path / "channels", prefix=prefix)
        assert len(channels) == len(masks)
        for ch, mask in zip(channels, masks):
            assert ch.mode is mode and ch.triple == config.confidence_triple
            np.testing.assert_array_equal(ch.part_mask, mask)
    assert EvalReport(**json.loads((tmp_path / "report.json").read_text())) == result.report
    assert not list(tmp_path.rglob("*_conf_*.pgm"))
    assert read == written, sorted(str(p.relative_to(tmp_path)) for p in written - read)


def test_run_pipeline_splats_each_motion_set_once(monkeypatch):
    # one kernel call per render, each taking all of its frames: 8 coarse
    # frames, the refined-motion channels and the final clip (16 each), and
    # the ground-truth clip with its masks plus the final clip's masks (16
    # each); ground truth is not splatted twice
    from motionloop import simgen

    calls = []
    kernel = simgen.render_part_masks

    def counted(*args, **kwargs):
        grids = kernel(*args, **kwargs)
        calls.append(grids.shape[0])
        return grids

    monkeypatch.setattr(simgen, "render_part_masks", counted)
    run_pipeline(fixture_scene(1), UserCondition(), PipelineConfig(), tiny_model())
    assert sorted(calls) == [8, 16, 16, 16, 16]


def test_run_pipeline_empty_condition_completes():
    scene = fixture_scene(4, duration=16)
    result = run_pipeline(scene, UserCondition(), PipelineConfig(), tiny_model())
    assert result.final_clip.frame_count == 16
    assert np.isfinite(result.report.traj_mse)


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
