"""The four benchmark workloads: inputs, timed operations and their checks.

Every call into motionloop goes through a module attribute
(``longvideo.extend_motion``, not an imported name), so the traced run's
wrappers see it.

An operation ("op") is one training step (``train``), one fixture scene
(``fixtures``), one 128-frame long clip (``long``) or one pair of a 2-object
and a 3-object scene (``multi``; pairing keeps the op time unimodal, so its
median does not jump between the two scene sizes).
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter as _clock

import numpy as np

from motionloop import core, longvideo, pipeline, scenes, simgen
from motionloop.geometry import CameraSpec, ConditionMode
from motionloop.pmp import model as pmp_model
from motionloop.pmp import train as pmp_train

# The set-up prior: a short deterministic training run at the reference
# model config. It is the same in every run (the seed only changes inputs),
# and its loss trajectory is checked against reference.json.
PRIOR_SEED = 0
PRIOR_CORPUS = 64
PRIOR_STEPS = 8

TRAIN_CORPUS = 512
FIXTURE_COUNT = 20
LONG_BASE, LONG_TOTAL = 32, 128
LONG_WINDOWS = ((0, 32), (24, 56), (48, 80), (72, 104), (96, 128))
INPUT_POOL = 32  # seeded inputs built in set-up; ops cycle through them

HUMANS = tuple(i for i in range(FIXTURE_COUNT) if i % 4 == 1)
ANIMALS = tuple(i for i in range(FIXTURE_COUNT) if i % 4 == 3)
GENERICS = tuple(i for i in range(FIXTURE_COUNT) if i % 2 == 0)


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def compare(values: dict, reference: dict, rel: float) -> list[str]:
    return [f"{k} = {values.get(k)!r}, reference {v!r}"
            for k, v in reference.items()
            if k not in values or not close(float(values[k]), float(v), rel)]


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


@dataclass
class OpResult:
    problems: list[str]
    digest: str  # hash of the op's outputs, for the in-process repeat check
    quality: dict  # deterministic output values
    counts: dict  # exact counts, summed over all ops of a phase


# ------------------------------------------------------------------ set-up

def train_prior(ckpt: Path, timings: dict):
    """The set-up prior plus its training losses, via a checkpoint round trip."""
    t = _clock()
    corpus = scenes.corpus_items(scenes.make_corpus(PRIOR_CORPUS, seed=PRIOR_SEED))
    timings["make_corpus"] = _clock() - t
    model = pmp_model.pmp_init(pmp_model.PmpConfig(), seed=PRIOR_SEED)
    model, log = pmp_train.pmp_train(
        model, corpus, pmp_train.TrainConfig(steps=PRIOR_STEPS), seed=PRIOR_SEED)
    return checkpoint_round_trip(model, ckpt, timings), [loss for _, loss in log]


def checkpoint_round_trip(model, ckpt: Path, timings: dict):
    t = _clock()
    pmp_model.save_checkpoint(model, ckpt)
    timings["save_checkpoint"] = _clock() - t
    t = _clock()
    loaded = pmp_model.load_checkpoint(ckpt)
    timings["load_checkpoint"] = _clock() - t
    return loaded


def prior_problems(losses: list[float], reference: dict) -> list[str]:
    ref = reference["prior_losses"]
    if len(losses) != len(ref):
        return [f"{len(losses)} prior losses, reference has {len(ref)}"]
    return [f"prior loss {i} = {a!r}, reference {b!r}"
            for i, (a, b) in enumerate(zip(losses, ref))
            if not close(a, b, reference["rel_tol"])]


# ----------------------------------------------------------------- workloads

class Workload:
    """Subclasses define set-up, the op, its check and the reference probe."""

    name = ""
    min_ops = 1  # every timed phase completes at least this many ops

    def __init__(self, seed: int, work: Path, reference: dict):
        self.seed = seed
        self.work = work
        self.reference = reference

    def op_rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, i))


class Train(Workload):
    """``pmp_train`` at the reference config on a seeded 512-motion corpus."""

    name = "train"
    min_ops = 48
    loss_window = 16  # loss_end: mean loss over steps [min_ops - 16, min_ops)

    def build(self, checks: Checks, timings: dict):
        t = _clock()
        corpus = scenes.corpus_items(scenes.make_corpus(TRAIN_CORPUS, seed=self.seed))
        timings["make_corpus"] = _clock() - t
        model = pmp_model.pmp_init(pmp_model.PmpConfig(), seed=self.seed)
        model = checkpoint_round_trip(model, self.work / "init.ckpt", timings)
        return {"corpus": corpus, "model": model}

    def warm_up(self, state, checks: Checks) -> dict:
        """The set-up prior's training run, checked against its reference."""
        _, losses = train_prior(self.work / "prior.ckpt", {})
        checks.record("probe: prior training", prior_problems(losses, self.reference))
        return {"probe_mse": float(np.mean(losses[-4:]))}


class SceneWorkload(Workload):
    """Shared by ``fixtures`` and ``multi``: ops run ``run_pipeline`` with an
    out_dir, as ``motionloop run`` does, and check what it wrote."""

    def build(self, checks: Checks, timings: dict):
        prior, losses = train_prior(self.work / "prior.ckpt", timings)
        checks.record("set-up prior training", prior_problems(losses, self.reference))
        return {"prior": prior, "inputs": [self.op_input(i) for i in range(INPUT_POOL)]}

    def op(self, state, inp, tag: str):
        results = []
        for k, (scene, pseed) in enumerate(inp):
            out = self.work / f"{tag}-{k}"
            result = pipeline.run_pipeline(
                scene, pipeline.UserCondition(), pipeline.PipelineConfig(seed=pseed),
                state["prior"], out_dir=str(out))
            results.append((scene, result, out))
        return results

    def check(self, results) -> OpResult:
        problems, chunks, counts = [], [], {"bytes": 0, "files": 0}
        quality = {"ssim": [], "refined_traj_mse": [], "raw_traj_mse": [],
                   "traj_mse": [], "mask_miou": [], "psnr": [], "coarse_traj_mse": []}
        for scene, result, out in results:
            problems += _scene_problems(scene, result, out)
            for name in ("report.json", "run.json", "stage2/raw.json",
                         "stage2/refined.json", "stage2/strength.json"):
                chunks.append((out / name).read_bytes())
            chunks += [f.tobytes() for f in result.final_clip.frames]
            for f in out.rglob("*"):
                if f.is_file():
                    counts["files"] += 1
                    counts["bytes"] += f.stat().st_size
            rep = result.report
            for key, value in (("ssim", rep.ssim), ("traj_mse", rep.traj_mse),
                               ("mask_miou", rep.mask_miou), ("psnr", rep.psnr),
                               ("refined_traj_mse", result.refined_traj_mse),
                               ("raw_traj_mse", result.raw_traj_mse),
                               ("coarse_traj_mse", result.coarse_traj_mse)):
                quality[key].append(value)
            shutil.rmtree(out)
        quality = {k: float(np.mean(v)) for k, v in quality.items()}
        return OpResult(problems, _digest(*chunks), quality, counts)

    def probe(self, state) -> OpResult:
        return self.check(self.op(state, self.probe_input(), "probe"))

    def warm_up(self, state, checks: Checks) -> dict:
        res = self.probe(state)
        ref = self.reference[f"{self.name}_probe"]
        checks.record("probe", res.problems + compare(res.quality, ref,
                                                       self.reference["rel_tol"]))
        return {"probe_mse": res.quality["refined_traj_mse"]}


def _scene_problems(scene, result, out: Path) -> list[str]:
    problems = []
    rep = result.report
    values = (rep.traj_mse, rep.mask_miou, rep.psnr, rep.ssim,
              result.refined_traj_mse, result.raw_traj_mse)
    if not all(math.isfinite(v) for v in values):
        problems.append(f"non-finite report values {values}")
    if not (0.0 < rep.ssim <= 1.0 and 0.0 <= rep.mask_miou <= 1.0
            and rep.psnr <= 99.0 and min(values[:1] + values[4:]) >= 0.0):
        problems.append(f"report values out of range {values}")
    if (out / "report.json").read_text() != rep.to_json():
        problems.append("report.json differs from the returned report")
    refined = json.loads((out / "stage2" / "refined.json").read_text())
    if len(refined) != len(scene.objects) or \
            any(len(m["frames"]) != scene.duration for m in refined):
        problems.append("stage2/refined.json has the wrong shape")
    clip = json.loads((out / "final" / "clip.json").read_text())
    frames = len(list((out / "final").glob("frame_*.pgm")))
    if clip["resolution"] != list(scene.camera.size) or frames != scene.duration:
        problems.append(f"final clip {frames} frames at {clip['resolution']}")
    return problems


class Fixtures(SceneWorkload):
    """The deterministic fixture scenes in index order; the seed sets each
    run's pipeline seed, which drives the scene's motion and corruption."""

    name = "fixtures"
    min_ops = 6

    def op_input(self, i: int):
        return [(scenes.fixture_scene(i % FIXTURE_COUNT),
                 int(self.op_rng(i).integers(2**31)))]

    def probe_input(self):
        return [(scenes.fixture_scene(2), 42)]  # the c10 scene and seed


def compose(indices) -> simgen.SceneSpec:
    """A scene holding the objects of several fixture scenes, each at its
    own fixture placement, so they overlap and occlude as they happen to."""
    return simgen.SceneSpec(
        objects=tuple(scenes.fixture_scene(i).objects[0] for i in indices),
        camera=CameraSpec.default(192, 108), duration=16, fps=16.0)


class Multi(SceneWorkload):
    """A 2-object (human + generic) and a 3-object (human + animal +
    generic) scene per op. The slots are filled from a fixed cycle over the
    fixture objects, so every five ops use each human, animal and generic
    object once in each scene size, whatever the seed; the seed picks the
    pipeline seeds (motion and corruption). The objects set most of an
    op's cost and a run does only 6-9 ops, so a seeded pick of objects
    would make the run median depend on the seed."""

    name = "multi"
    min_ops = 2

    def op_input(self, i: int):
        rng = self.op_rng(i)
        h, a, g = len(HUMANS), len(ANIMALS), len(GENERICS)
        two = (HUMANS[i % h], GENERICS[2 * i % g])
        three = (HUMANS[(i + 2) % h], ANIMALS[i % a], GENERICS[(2 * i + 1) % g])
        return [(compose(two), int(rng.integers(2**31))),
                (compose(three), int(rng.integers(2**31)))]

    def probe_input(self):
        return [(compose((1, 2)), 42)]


class Long(Workload):
    """The c08 path: extend 32 -> 128 frames with the prior, generate each
    32/24 window at full resolution, stitch clip and motion."""

    name = "long"
    min_ops = 6

    def build(self, checks: Checks, timings: dict):
        prior, losses = train_prior(self.work / "prior.ckpt", timings)
        checks.record("set-up prior training", prior_problems(losses, self.reference))
        scene = scenes.walker_scene(LONG_TOTAL)
        return {"prior": prior, "scene": scene,
                "inputs": [self.clip_input(scene, prior, int(self.op_rng(i).integers(2**31)))
                           for i in range(INPUT_POOL)]}

    @staticmethod
    def clip_input(scene, prior, seed: int):
        gt = simgen.synthesize_gt_motion(scene, seed)[0]
        base = core.resample(gt, LONG_BASE)
        cond = pmp_model.Conditioning(
            tokens=pmp_model.tokens_for(prior.config, ["human", "walk"]),
            strength=core.motion_strength(base).mean, category=core.Category.HUMAN)
        return seed, gt, base, cond

    def op(self, state, inp, tag: str):
        seed, gt, base, cond = inp
        scene = state["scene"]
        extended = longvideo.extend_motion(base, LONG_TOTAL, state["prior"], cond)
        plan = longvideo.plan_windows(LONG_TOTAL)
        clips, motions = [], []
        for window in plan.windows:
            clip, realized = simgen.generate(scene, ConditionMode.FULL_MOTION,
                                             simgen.FINE_CONFIG, seed,
                                             frame_window=window)
            clips.append(clip)
            motions.append(realized[0])
        merged = longvideo.stitch(clips, plan)
        stitched = longvideo.stitch_motion(motions, plan)
        return gt, extended, plan, motions, merged, stitched

    def check(self, outputs) -> OpResult:
        gt, extended, plan, motions, merged, stitched = outputs
        problems = []
        if extended.frame_count != LONG_TOTAL or not np.all(np.isfinite(extended.frames)):
            problems.append(f"extended motion has {extended.frame_count} frames")
        if plan.windows != LONG_WINDOWS:
            problems.append(f"window plan {plan.windows}")
        if merged.frame_count != LONG_TOTAL or stitched.frame_count != LONG_TOTAL:
            problems.append(f"stitched clip has {merged.frame_count} frames")
        # c08 seam bound: no transition across an overlap is faster than the
        # fastest transition inside any window. c08 asserts it at seed 8 only,
        # and the probe checks it there; on other seeds the linear ramp can
        # exceed it slightly, so ops count it instead of failing.
        seam = core.motion_strength(stitched).per_transition
        window_max = max(core.motion_strength(m).per_transition.max() for m in motions)
        seam_idx = [j for start, _ in plan.windows[1:]
                    for j in range(max(start - 1, 0), min(start + plan.overlap, LONG_TOTAL - 1))]
        seam_max = float(seam[seam_idx].max())
        frames = np.stack(merged.frames)
        quality = {"extend_mse": float(np.mean((extended.frames - gt.frames) ** 2)),
                   "stitched_mse": float(np.mean((stitched.frames - gt.frames) ** 2)),
                   "clip_mean": float(frames.mean()), "seam_max": seam_max}
        digest = _digest(extended.frames.tobytes(), frames.tobytes(),
                         stitched.frames.tobytes())
        return OpResult(problems, digest, quality,
                        {"seam_over_bound": int(seam_max > window_max + 1e-9)})

    def probe(self, state) -> OpResult:
        inp = self.clip_input(state["scene"], state["prior"], 8)  # the c08 seed
        return self.check(self.op(state, inp, "probe"))

    def warm_up(self, state, checks: Checks) -> dict:
        res = self.probe(state)
        problems = res.problems + compare(res.quality, self.reference[f"{self.name}_probe"],
                                          self.reference["rel_tol"])
        if res.counts["seam_over_bound"]:
            problems.append(f"seam strength {res.quality['seam_max']} over the window max")
        checks.record("probe", problems)
        return {"probe_mse": res.quality["extend_mse"]}


WORKLOADS = {w.name: w for w in (Train, Fixtures, Long, Multi)}
