"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The trained-prior session fixture performs the reference
training run (512-motion corpus, 5000 steps, seed 42) once and is shared
by every criterion that needs a trained model.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from motionloop.core import Category, MotionSequence, motion_strength, preset, resample
from motionloop.geometry import (
    BinaryMask,
    CameraSpec,
    ConditionMode,
    extract_contour,
    object25d_from_mask,
    project,
    render_part_masks,
    simplify_contour,
)
from motionloop.longvideo import blend_weights, plan_windows, stitch, stitch_motion
from motionloop.perturb import ALPHA_BAR, PerturbConfig, forward_noise, sample_perturbation
from motionloop.pipeline import (
    PipelineConfig,
    UserCondition,
    eval_metrics,
    run_pipeline,
)
from motionloop.pmp import (
    Conditioning,
    PmpConfig,
    conditioning_for,
    grad_check,
    pmp_init,
    pmp_refine,
    save_checkpoint,
    tokens_for,
)
from motionloop.scenes import fixture_scene, scene_to_json, walker_scene
from motionloop.simgen import FINE_CONFIG, VideoClip, generate, synthesize_gt_motion


def _line(n: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n:2d}] {status}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------- criterion 1

def test_c01_gradient_exactness():
    start = time.perf_counter()
    worst = {}
    for layers in (1, 2, 4):
        config = PmpConfig(layers=layers)
        model = pmp_init(config, seed=100 + layers)
        rng = np.random.default_rng(layers)
        spec = preset(Category.HUMAN)
        example = (
            MotionSequence(spec, 16.0, rng.normal(size=(8, 66)) * 0.4),
            MotionSequence(spec, 16.0, rng.normal(size=(8, 66)) * 0.4),
            Conditioning(tokens=tokens_for(config, ["human", "walk"]),
                         strength=0.3, category=Category.HUMAN),
        )
        worst[layers] = grad_check(model, example, epsilon=1e-5, samples=200,
                                   seed=layers)
    elapsed = time.perf_counter() - start
    ok = all(err < 1e-4 for err in worst.values()) and elapsed < 60.0
    _line(1, ok, f"grad_check max rel err {max(worst.values()):.2e} "
                 f"(layers 1/2/4), {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2

def test_c02_denoising_improvement(trained_prior, held_out_corpus):
    model = trained_prior.model
    improvements = {}
    for name, probs in [("Noise", (1.0, 0.0, 0.0)), ("Shuffle", (0.0, 1.0, 0.0)),
                        ("DropRepeat", (0.0, 0.0, 1.0))]:
        config = PerturbConfig(probs=probs)
        perturbed_mse, refined_mse = [], []
        for i, item in enumerate(held_out_corpus):
            perturbed, _ = sample_perturbation(item.motion, config, seed=9000 + i)
            cond = conditioning_for(model.config, item.motion, item.tags)
            refined = pmp_refine(model, perturbed, cond)
            perturbed_mse.append(np.mean((perturbed.frames - item.motion.frames) ** 2))
            refined_mse.append(np.mean((refined.frames - item.motion.frames) ** 2))
        improvements[name] = 1.0 - np.mean(refined_mse) / np.mean(perturbed_mse)
    mean_improvement = float(np.mean(list(improvements.values())))
    losses = np.array([loss for _, loss in trained_prior.log])
    smoothed_early = losses[25:75].mean()   # window 50 at step 50
    smoothed_late = losses[1975:2025].mean()  # window 50 at step 2000
    ok = (all(v > 0 for v in improvements.values())
          and mean_improvement >= 0.5
          and smoothed_late < smoothed_early
          and trained_prior.seconds < 600.0)
    detail = ", ".join(f"{k} {v:+.1%}" for k, v in improvements.items())
    _line(2, ok, f"{detail}; mean {mean_improvement:+.1%}; smoothed loss "
                 f"{smoothed_early:.4f}->{smoothed_late:.4f}; "
                 f"training {trained_prior.seconds/60:.1f} min")


# ---------------------------------------------------------------- criterion 3

def test_c03_forward_noise_statistics():
    spec = preset(Category.GENERIC_OBJECT)
    value = 5.0
    base = MotionSequence(spec, 16.0, np.full((25, 63), value))
    ok = True
    details = []
    for t in (10, 100, 500):
        abar = ALPHA_BAR[t - 1]
        draws = []
        for seed in range(64):  # 64 x 25 x 63 = 100800 samples
            draws.append(forward_noise(base, t, seed).frames)
        draws = np.stack(draws)
        mean_err = abs(draws.mean() - np.sqrt(abar) * value) / (np.sqrt(abar) * value)
        var_err = abs(draws.var() - (1 - abar)) / (1 - abar)
        details.append(f"t={t}: mean {mean_err:.2%}, var {var_err:.2%}")
        ok = ok and mean_err < 0.02 and var_err < 0.02
    _line(3, ok, "; ".join(details))


# ---------------------------------------------------------------- criterion 4

def _zbuffer_bruteforce(objects, camera, radius):
    w, h = camera.size
    grid = np.zeros((h, w), dtype=np.int32)
    flat = []
    for oid, (points, labels) in enumerate(objects):
        proj = project(points, camera)
        for idx in range(points.shape[0]):
            flat.append((float(proj[idx, 2]), oid, idx,
                         float(proj[idx, 0]), float(proj[idx, 1]),
                         int(labels[idx])))
    r2 = radius * radius
    for py in range(h):
        for px in range(w):
            best_key, best_label = None, 0
            for z, oid, idx, u, v, label in flat:
                if (px - u) ** 2 + (py - v) ** 2 <= r2:
                    key = (z, oid, idx)
                    if best_key is None or key < best_key:
                        best_key, best_label = key, label
            grid[py, px] = best_label
    return grid


def test_c04_occlusion_oracle():
    rng = np.random.default_rng(404)
    camera = CameraSpec.default(32, 20)
    mismatches = 0
    for _ in range(100):
        objects = []
        for _ in range(3):
            n = int(rng.integers(2, 8))
            pts = np.stack([rng.uniform(-0.5, 0.5, n), rng.uniform(-0.3, 0.3, n),
                            rng.uniform(1.5, 6.0, n)], axis=1)
            labels = rng.integers(1, 9, n)
            objects.append((pts, labels))
        radius = float(rng.uniform(1.0, 3.5))
        [fast] = render_part_masks([(p, l[:, None]) for p, l in objects], camera, radius)
        slow = _zbuffer_bruteforce(objects, camera, radius)
        if not np.array_equal(fast, slow):
            mismatches += 1
    _line(4, mismatches == 0,
          f"splat rasterizer == brute-force min-depth on 100/100 scenes")


# ---------------------------------------------------------------- criterion 5

def test_c05_21_point_representation():
    rng = np.random.default_rng(505)
    camera = CameraSpec.default(96, 64)
    count_ok = True
    for _ in range(60):
        bits = np.zeros((64, 96), dtype=bool)
        kind = rng.integers(0, 3)
        if kind == 0:  # single pixel
            bits[rng.integers(2, 62), rng.integers(2, 94)] = True
        elif kind == 1:  # thin line
            y = int(rng.integers(4, 60))
            x0 = int(rng.integers(2, 40))
            bits[y, x0:x0 + int(rng.integers(2, 40))] = True
        else:  # blob union
            yy, xx = np.mgrid[0:64, 0:96]
            for _ in range(3):
                cx, cy, r = rng.integers(10, 86), rng.integers(10, 54), rng.integers(2, 9)
                bits |= (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        points = object25d_from_mask(BinaryMask(bits), 5.0, camera)
        count_ok = count_ok and points.shape == (21, 3)

    # convex masks >= 500 px: 16-gon IoU >= 0.9
    ious = []
    for shape in ("circle", "ellipse", "square"):
        bits = np.zeros((96, 128), dtype=bool)
        yy, xx = np.mgrid[0:96, 0:128]
        if shape == "circle":
            bits = (xx - 64) ** 2 + (yy - 48) ** 2 <= 30 ** 2
        elif shape == "ellipse":
            bits = ((xx - 64) / 42.0) ** 2 + ((yy - 48) / 22.0) ** 2 <= 1.0
        else:
            bits[20:80, 30:100] = True
        assert bits.sum() >= 500
        verts = simplify_contour(extract_contour(BinaryMask(bits)))
        inside = np.zeros_like(bits)
        n = len(verts)
        vx, vy = verts[:, 0].astype(float), verts[:, 1].astype(float)
        for py in range(96):
            crossings = np.zeros(128, dtype=int)
            for i in range(n):
                x1, y1, x2, y2 = vx[i], vy[i], vx[(i + 1) % n], vy[(i + 1) % n]
                if (y1 > py) != (y2 > py):
                    xi = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
                    crossings[np.arange(128) < xi] += 1
            inside[py] = crossings % 2 == 1
        iou = np.logical_and(inside, bits).sum() / np.logical_or(inside, bits).sum()
        ious.append(iou)
    ok = count_ok and all(v >= 0.9 for v in ious)
    _line(5, ok, f"21 points on 60/60 masks; convex IoU "
                 f"{', '.join(f'{v:.3f}' for v in ious)}")


# ---------------------------------------------------------------- criterion 6

def test_c06_three_stage_improvement(fixture_runs):
    wins = 0
    improvements = []
    for result in fixture_runs:
        if result.report.traj_mse < result.coarse_traj_mse:
            wins += 1
        improvements.append(1.0 - result.report.traj_mse / result.coarse_traj_mse)
    median = float(np.median(improvements))
    ok = wins >= 18 and median >= 0.30
    _line(6, ok, f"final < coarse in {wins}/20 runs; median improvement {median:.1%}")


# ---------------------------------------------------------------- criterion 7

def test_c07_confidence_robustness(trained_prior):
    model = trained_prior.model
    triples = [(1.0, 0.5, 0.0), (0.8, 0.5, 0.2), (3.0, 2.0, 1.0)]
    finals = []
    for triple in triples:
        config = PipelineConfig(confidence_triple=triple)
        errs = []
        for index in (1, 2):
            result = run_pipeline(fixture_scene(index), UserCondition(),
                                  config, model)
            errs.append(result.report.traj_mse)
        finals.append(float(np.mean(errs)))
    worst = max(abs(a - b) / max(a, b) for a in finals for b in finals)
    _line(7, worst < 0.25,
          f"final traj_mse per triple {['%.6f' % v for v in finals]}, "
          f"max pairwise rel diff {worst:.2%}")


# ---------------------------------------------------------------- criterion 8

def test_c08_long_motion_pipeline(trained_prior):
    model = trained_prior.model
    scene = walker_scene(duration=128)
    gt = synthesize_gt_motion(scene, seed=8)[0]
    base = resample(gt, 32)

    from motionloop.longvideo import extend_motion
    cond = Conditioning(tokens=tokens_for(model.config, ["human", "walk"]),
                        strength=motion_strength(base).mean,
                        category=Category.HUMAN)
    extended = extend_motion(base, 128, model, cond)
    length_ok = extended.frame_count == 128

    plan = plan_windows(128)
    plan_ok = plan.windows == ((0, 32), (24, 56), (48, 80), (72, 104), (96, 128))

    weights = blend_weights(plan.overlap)
    unity_ok = all((1.0 - w) + w == 1.0 for w in weights)

    clips, motions = [], []
    for start, end in plan.windows:
        clip, realized = generate(scene, ConditionMode.FULL_MOTION, FINE_CONFIG,
                                  seed=8, frame_window=(start, end))
        clips.append(clip)
        motions.append(realized[0])
    merged = stitch(clips, plan)
    clip_ok = merged.frame_count == 128

    stitched = stitch_motion(motions, plan)
    seam_strength = motion_strength(stitched).per_transition
    window_max = max(motion_strength(m).per_transition.max() for m in motions)
    seam_idx = []
    for start, _ in plan.windows[1:]:
        seam_idx.extend(range(max(start - 1, 0),
                              min(start + plan.overlap, 127)))
    seam_ok = seam_strength[seam_idx].max() <= window_max + 1e-9

    ok = length_ok and plan_ok and unity_ok and clip_ok and seam_ok
    _line(8, ok, f"extend 32->128 ok={length_ok}, plan ok={plan_ok}, "
                 f"unity exact={unity_ok}, 128-frame clip={clip_ok}, "
                 f"seam bound ok={seam_ok}")


# ---------------------------------------------------------------- criterion 9

def test_c09_metrics_self_consistency():
    base = np.full((40, 50), 90, dtype=np.uint8)
    pred = VideoClip((base + 10,), 8.0)
    ref = VideoClip((base,), 8.0)
    report = eval_metrics(pred, ref, [], [], [], [])
    psnr_ok = abs(report.psnr - 10 * np.log10(255 ** 2 / 100.0)) <= 0.01

    rng = np.random.default_rng(909)
    x = rng.integers(0, 255, size=(40, 50)).astype(np.uint8)
    same = VideoClip((x,), 8.0)
    ssim_ok = eval_metrics(same, same, [], [], [], []).ssim == pytest.approx(1.0, abs=1e-12)

    miou_ok = True
    blank = VideoClip((np.zeros((8, 8), dtype=np.uint8),), 8.0)
    for _ in range(50):
        a = rng.integers(0, 4, size=(12, 16))
        b = rng.integers(0, 4, size=(12, 16))
        got = eval_metrics(blank, blank, [], [], [a], [b]).mask_miou
        inter = union = 0
        for y in range(12):
            for xx in range(16):
                if a[y, xx] != 0 or b[y, xx] != 0:
                    union += 1
                    if a[y, xx] == b[y, xx]:
                        inter += 1
        expected = 1.0 if union == 0 else inter / union
        miou_ok = miou_ok and got == pytest.approx(expected, rel=1e-12)

    ok = psnr_ok and ssim_ok and miou_ok
    _line(9, ok, f"PSNR offset-10 {report.psnr:.4f} dB (within 0.01), "
                 f"SSIM(x,x)=1 {ssim_ok}, mIoU oracle 50/50 {miou_ok}")


# --------------------------------------------------------------- criterion 10

def test_c10_end_to_end_determinism(trained_prior, tmp_path):
    from motionloop.cli import main as cli_main

    checkpoint = tmp_path / "pmp.ckpt"
    save_checkpoint(trained_prior.model, checkpoint)
    scene = fixture_scene(2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scene": json.loads(scene_to_json(scene)),
                                    "seed": 42}))
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["run", "--config", str(cfg_path), "--seed", "42",
                         "--out", str(out), "--checkpoint", str(checkpoint)])
        assert code == 0
        runs.append(out)
    same = all((runs[0] / sub).read_bytes() == (runs[1] / sub).read_bytes()
               for sub in ("report.json", "stage2/raw.json",
                           "stage2/refined.json", "stage2/strength.json",
                           "run.json"))
    _line(10, same, "two CLI runs byte-identical on report.json and motion JSONs")
