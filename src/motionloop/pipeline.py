"""Three-stage orchestration: extract, optimize, reinforce.

The scene's ground truth is synthesized once per run. Stage 1 realizes it
under weak conditioning (a target pose, or nothing) as a coarse clip. Stage 2
recovers per-object motion from that clip's pixels alone and refines it with
the motion prior. Stage 3 realizes the ground truth at full fidelity under
full-motion conditioning; its one render gives the final clip and the masks
eval scores. The loop is open: the refined motion is recorded, not fed back.

Depth during extraction is proxied by the one depth of each object's scene
placement, since the stand-in renderer encodes no depth in pixels: a generic
object's 21 points all lift at it into a (21, 3) array. A real depth
estimator would plug in at that seam.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from . import fileio
from .core import (
    MotionSequence,
    config_from_json,
    json_like,
    load_json,
    motions_to_json,
    resample,
)
from .errors import ExtractionFailed, InvalidConfig, ShapeMismatch, TooManyFrames
from .geometry import (
    DEFAULT_TRIPLE,
    SPLAT_BLOCK,
    BinaryMask,
    ConditionChannels,
    ConditionMode,
    lift_points,
    object25d_from_mask,
    polygon_target_mask,
    project,
)
from .pmp import PmpModel, conditioning_for, pmp_refine
from .scenes import fixture_scene, scene_from_json, scene_to_json
from .simgen import (
    COARSE_CONFIG,
    FINE_CONFIG,
    GeneratorConfig,
    SceneSpec,
    VideoClip,
    coarse_frame_count,
    effective_radius,
    part_code,
    realize,
    render,
    synthesize_gt_motion,
)


@dataclass(frozen=True)
class PipelineConfig:
    coarse: GeneratorConfig = COARSE_CONFIG
    fine: GeneratorConfig = FINE_CONFIG
    confidence_triple: tuple[float, float, float] = DEFAULT_TRIPLE
    pmp_checkpoint: str = ""
    seed: int = 42

    def __post_init__(self):
        if len(self.confidence_triple) != 3:
            raise InvalidConfig("confidence triple needs three values")
        full, target, empty = self.confidence_triple
        if not full >= target >= empty:
            raise InvalidConfig("confidence triple must satisfy full >= target >= empty")

    def to_json(self) -> str:
        """The "pipeline" block of run.json: every field but the seed."""
        return json.dumps({k: v for k, v in asdict(self).items() if k != "seed"},
                          sort_keys=True)

    @classmethod
    def from_json(cls, doc, seed: int) -> "PipelineConfig":
        """Strict inverse of ``to_json`` (parsed); absent keys keep defaults."""
        return config_from_json(cls(seed=seed), doc, "pipeline", exclude=("seed",))


def run_to_json(config: PipelineConfig, scene: SceneSpec) -> str:
    """The run.json document: everything `motionloop run --config` needs to
    replay the run."""
    return json.dumps({"pipeline": json.loads(config.to_json()), "seed": config.seed,
                       "scene": json.loads(scene_to_json(scene))}, sort_keys=True)


def run_from_json(text: str | bytes, seed: int | None = None
                  ) -> tuple[PipelineConfig, SceneSpec]:
    """Parse run.json, or a user config that leaves keys out or names a
    fixture scene; the seed resolves as argument, then file, then 42."""
    doc = load_json(text, "run config")
    keys = {"pipeline", "scene", "fixture", "seed"}
    if not isinstance(doc, dict) or not set(doc) <= keys:
        raise InvalidConfig(f"run config must be a JSON object with keys among "
                            f"{sorted(keys)}, got {json.dumps(doc)[:80]}")
    if "scene" in doc and "fixture" in doc:
        raise InvalidConfig("give a scene or a fixture, not both")
    file_seed, fixture = (json_like(doc.get(key, value), 0, key)
                          for key, value in (("seed", 42), ("fixture", 0)))
    seed = file_seed if seed is None else seed
    if min(seed, fixture) < 0:
        raise InvalidConfig("seed and fixture must be non-negative")
    config = PipelineConfig.from_json(doc.get("pipeline", {}), seed)
    return config, (scene_from_json(json.dumps(doc["scene"])) if "scene" in doc
                    else fixture_scene(fixture))


@dataclass(frozen=True)
class EvalReport:
    traj_mse: float
    mask_miou: float
    psnr: float
    ssim: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass(frozen=True)
class UserCondition:
    """Optional stage-1 conditioning: a final-frame target pose or nothing.

    ``parts`` holds (part_label, (N, 2) pixel points) at base resolution.
    """

    mode: ConditionMode = ConditionMode.EMPTY
    parts: tuple = ()

    def __post_init__(self):
        if self.mode is ConditionMode.FULL_MOTION:
            raise InvalidConfig("stage 1 accepts TargetPose or Empty conditioning")


# ------------------------------------------------------------------ stage 1

def stage1_coarse(scene: SceneSpec, gt: list[MotionSequence],
                  user_condition: UserCondition, config: PipelineConfig, seed: int
                  ) -> tuple[VideoClip, ConditionChannels, list[MotionSequence]]:
    """Coarse clip, channels and realized motion from weak user conditioning."""
    n = coarse_frame_count(scene.duration, config.coarse)
    w, h = scene.camera.scaled(config.coarse.resolution_scale).size
    masks = np.zeros((n, h, w), dtype=np.int32)
    if user_condition.mode is ConditionMode.TARGET_POSE:
        s = config.coarse.resolution_scale
        masks[-1] = polygon_target_mask([(label, np.asarray(pts, dtype=float) * s)
                                         for label, pts in user_condition.parts], (w, h))
    channels = ConditionChannels(masks, user_condition.mode)
    realized = realize(gt, user_condition.mode, config.coarse, seed)
    return render(scene, realized, config.coarse)[0], channels, realized


# ------------------------------------------------------------------ stage 2

def _match_components(frame: np.ndarray, expected: list[np.ndarray]
                      ) -> list[np.ndarray | None]:
    """Split the non-background pixels into components and assign one per
    object by nearest centroid to each object's expected position."""
    labels, n = ndimage.label(frame > 0, structure=np.ones((3, 3), dtype=int))
    if n == 0:
        return [None] * len(expected)
    centroids = ndimage.center_of_mass(frame > 0, labels, range(1, n + 1))
    centroids = [np.array([c[1], c[0]]) for c in centroids]  # (u, v)
    assigned: list[np.ndarray | None] = [None] * len(expected)
    taken = set()
    for oi in range(len(expected)):
        best, best_d = None, np.inf
        for ci, c in enumerate(centroids):
            if ci in taken:
                continue
            d = float(np.hypot(*(c - expected[oi])))
            if d < best_d:
                best, best_d = ci, d
        if best is not None:
            taken.add(best)
            assigned[oi] = labels == (best + 1)
    return assigned


def _recover_articulated(obj, comp: np.ndarray, frame: np.ndarray,
                         camera, prev_pose: np.ndarray) -> np.ndarray:
    """Joint angles from part-intensity centroids (planar z rotations).

    Part pixel centroids sit a known fraction along each bone, so bone
    directions (and from them the accumulated z rotations) follow from a
    parent-first walk; angles about x and y stay zero, matching the planar
    stand-in motions. Missing parts fall back to the previous frame.
    """
    spec = obj.spec
    depth = obj.placement[2]
    _, decode = part_code(spec.part_count)
    centroids: dict[int, np.ndarray] = {}
    vals = frame[comp]
    ys, xs = np.nonzero(comp)
    for intensity in np.unique(vals):
        sel = vals == intensity
        uv = np.array([[xs[sel].mean(), ys[sel].mean()]])
        centroids[int(decode[intensity])] = lift_points(uv, np.array([depth]), camera)[0]

    offsets = spec.rest_offsets
    scaled = offsets * obj.shape_scale
    pos: dict[int, np.ndarray] = {}
    phi: dict[int, float] = {}
    pose = prev_pose.copy()

    root_c = centroids.get(spec.skeleton[0].part_label)  # joint 0 is the root
    pos[0] = root_c if root_c is not None else np.asarray(obj.placement) + scaled[0]

    for jid, j in enumerate(spec.skeleton):  # parent-ordered by construction
        kids = spec.children[jid]
        parent_phi = phi.get(j.parent_id, 0.0)
        if kids:
            sines, cosines = [], []
            for kid in kids:
                c = centroids.get(spec.skeleton[kid].part_label)
                off = offsets[kid]
                if c is None or np.hypot(off[0], off[1]) < 1e-9:
                    continue
                d = c - pos[jid]
                ang = math.atan2(d[1], d[0]) - math.atan2(off[1], off[0])
                sines.append(math.sin(ang))
                cosines.append(math.cos(ang))
            if sines:
                phi[jid] = math.atan2(sum(sines), sum(cosines))
            else:
                phi[jid] = parent_phi + prev_pose[3 * jid + 2]
        else:
            phi[jid] = parent_phi  # leaf rotation unobservable
        local = phi[jid] - parent_phi
        pose[3 * jid:3 * jid + 3] = (0.0, 0.0, local)
        cphi, sphi = math.cos(phi[jid]), math.sin(phi[jid])
        for kid in kids:
            off = scaled[kid]
            rotated = np.array([cphi * off[0] - sphi * off[1],
                                sphi * off[0] + cphi * off[1], off[2]])
            pos[kid] = pos[jid] + rotated
    return pose


def _recover_generic(obj, comp: np.ndarray, camera, radius: float
                     ) -> np.ndarray:
    """21-point recovery: erode the splat dilation, trace, simplify, lift.

    The 16 contour vertices are rolled so vertex 0 sits at the top of the
    shape (the convention generic templates use), keeping the channel
    correspondence stable across frames and against ground truth.
    """
    r = int(round(radius))
    eroded = comp
    if r >= 1:
        yy, xx = np.mgrid[-r:r + 1, -r:r + 1]
        structure = xx**2 + yy**2 <= r * r
        candidate = ndimage.binary_erosion(comp, structure=structure)
        if candidate.any():
            eroded = candidate
    pts = object25d_from_mask(BinaryMask(eroded), obj.placement[2], camera).copy()
    contour, center = pts[:16], pts[20]
    ang = np.arctan2(contour[:, 1] - center[1], contour[:, 0] - center[0])
    # circular distance to "straight up" (-pi/2 with y pointing down)
    dist = np.abs(np.angle(np.exp(1j * (ang + np.pi / 2))))
    pts[:16] = np.roll(contour, -int(np.argmin(dist)), axis=0)
    return pts.ravel()


def extract_motion(clip: VideoClip, scene: SceneSpec,
                   config: GeneratorConfig) -> list[MotionSequence]:
    """Recover raw per-object motion from clip pixels."""
    camera = scene.camera.scaled(config.resolution_scale)
    if clip.resolution != camera.size:
        raise ShapeMismatch(f"clip resolution {clip.resolution} != scene camera "
                            f"{camera.size} at scale {config.resolution_scale}")
    radius = effective_radius(config)
    n = clip.frame_count
    empty_frames = n - np.count_nonzero(clip.frames.any(axis=(1, 2)))
    if empty_frames * 4 >= n:
        raise ExtractionFailed(
            f"no object pixels in {empty_frames}/{n} frames")

    expected = []
    for obj in scene.objects:
        if obj.spec.is_articulated:
            anchor = np.asarray(obj.placement)
        else:
            anchor = obj.initial_pose.reshape(21, 3)[20] + np.asarray(obj.placement)
        expected.append(project(anchor[None, :], camera)[0, :2])

    # each object's last recovered row; a frame that shows no component of
    # the object repeats it
    prev = [obj.initial_pose if obj.spec.is_articulated else _initial_generic_row(obj)
            for obj in scene.objects]
    rows = [[] for _ in scene.objects]
    for frame in clip.frames:
        comps = _match_components(frame, expected)
        for oi, (obj, comp) in enumerate(zip(scene.objects, comps)):
            if comp is not None:
                if obj.spec.is_articulated:
                    prev[oi] = _recover_articulated(obj, comp, frame, camera, prev[oi])
                else:
                    prev[oi] = _recover_generic(obj, comp, camera, radius)
                ys, xs = np.nonzero(comp)
                expected[oi] = np.array([xs.mean(), ys.mean()])
            rows[oi].append(prev[oi])
    return [MotionSequence(model=obj.spec, fps=clip.fps, frames=rows[oi])
            for oi, obj in enumerate(scene.objects)]


def _initial_generic_row(obj) -> np.ndarray:
    return (obj.initial_pose.reshape(21, 3) + np.asarray(obj.placement)).ravel()


def stage2_optimize(clip: VideoClip, scene: SceneSpec, pmp: PmpModel,
                    config: PipelineConfig
                    ) -> tuple[list[MotionSequence], list[MotionSequence], list[float]]:
    """Extract raw motion from the coarse clip and refine it with the prior.

    Returns (refined, raw_resampled, strengths); both motion lists are at
    the fine frame count.
    """
    raw = extract_motion(clip, scene, config.coarse)
    raws = [resample(m, coarse_frame_count(scene.duration, config.fine)) for m in raw]
    conds = [conditioning_for(pmp.config, res, obj.tags) for obj, res in zip(scene.objects, raws)]
    refined = [pmp_refine(pmp, res, cond) for res, cond in zip(raws, conds)]
    return refined, raws, [cond.strength for cond in conds]


# ------------------------------------------------------------------ stage 3

def stage3_regenerate(scene: SceneSpec, gt: list[MotionSequence],
                      config: PipelineConfig, seed: int
                      ) -> tuple[VideoClip, np.ndarray, list[MotionSequence]]:
    """Regenerate at full fidelity under full-motion conditioning: the final
    clip, its part masks and the realized motion."""
    realized = realize(gt, ConditionMode.FULL_MOTION, config.fine, seed)
    return *render(scene, realized, config.fine), realized


# ------------------------------------------------------------------ metrics

def _window_sums(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    """Sums over window x window patches at the given stride on the last two
    axes, rows first; a side shorter than the window sums to one value. Each
    side adds gcd(window, stride)-wide blocks by strided slices, then
    window / gcd consecutive blocks at the stride."""
    for axis in (-2, -1):
        w = min(window, x.shape[axis])
        g = math.gcd(w, stride)
        count = (x.shape[axis] - w) // stride + 1
        tail = (slice(None),) * (-1 - axis)
        for terms, step, num in ((g, g, ((count - 1) * stride + w) // g),
                                 (w // g, stride // g, count)):
            parts = [x[(..., slice(j, j + step * (num - 1) + 1, step)) + tail]
                     for j in range(terms)]
            x = sum(parts[1:], parts[0])
    return x


def _spans(lo, hi, side: int, window: int, stride: int):
    """Per frame, [start, stop) of one side's crop that starts at a multiple
    of the stride, holds pixels lo..hi and every window that meets them, and
    holds at least one window; a side shorter than the window is taken
    whole. ``lo`` and ``hi`` are int arrays."""
    w = min(window, side)
    last = (side - w) // stride  # the last window's index
    start = np.clip(-((w - 1 - lo) // stride), 0, last) * stride
    return start, np.minimum(np.maximum(np.minimum(hi // stride, last) * stride + w,
                                        hi + 1), side)


def _crop_groups(pred, ref, marks, window: int = 1, stride: int = 1):
    """(first, stop, rows, columns) for runs of consecutive frames of two
    (F, H, W) stacks: the row and column slices crop every pixel that
    ``marks(pred, ref)`` marks in the run's frames, aligned to the windows
    as ``_spans`` does, and are empty when it marks none. A run's frames
    times its crop pixels stay within SPLAT_BLOCK, one frame at least."""
    h, w = pred.shape[1:]
    rows, cols = [], []  # per frame, whether each row and each column holds a mark
    k = max(1, SPLAT_BLOCK // (h * w))  # whole frames marked at once
    for f in range(0, len(pred), k):
        m = marks(pred[f:f + k], ref[f:f + k])
        rows.append(m.any(2))
        cols.append(m.any(1))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    top, bottom = _spans(rows.argmax(1), h - 1 - rows[:, ::-1].argmax(1), h, window, stride)
    left, right = _spans(cols.argmax(1), w - 1 - cols[:, ::-1].argmax(1), w, window, stride)
    # per frame (-top, bottom, -left, right), so a run's crop is a running
    # max; a frame that marks nothing is empty in any union
    crops = np.where(rows.any(1)[:, None], np.stack([-top, bottom, -left, right], 1),
                     (-h, 0, -w, 0))
    first = 0
    while first < len(crops):
        union = np.maximum.accumulate(crops[first:])
        pixels = (np.arange(1, len(union) + 1) * (union[:, 0] + union[:, 1]).clip(0)
                  * (union[:, 2] + union[:, 3]).clip(0))
        # the pixels grow with the run, so the runs within the budget are a prefix
        stop = first + max(1, np.count_nonzero(pixels <= SPLAT_BLOCK))
        t, b, lt, rt = union[stop - first - 1].tolist()
        yield first, stop, slice(-t, max(-t, b)), slice(-lt, max(-lt, rt))
        first = stop


def _frame_scores(pred, ref, maxval: float = 255.0, window: int = 8,
                  stride: int = 4) -> tuple[list[float], list[float]]:
    """Per-frame PSNR and SSIM (mean over window x window patches at the
    stride, row-major) of two equal-shape sequences of uint8 frames. Patch
    sums of a, b, a², b², ab are exact in int32 (64·255² < 2³¹), so with a
    full 64-pixel patch S/n and (n·Sxy − Sx·Sy)/n² are exactly the two-pass
    mean, variance and covariance; PSNR's squared error sums exactly.

    A window where the frames agree scores exactly 1: its sums are equal
    pairwise, so SSIM's numerator and denominator are the same operations
    on equal values. So windows are computed only on the crop that holds
    every pixel where a run of frames differs (``_crop_groups``), the rest
    of each frame's window grid is 1, and the squared error, zero outside
    the crop, is summed over it and divided by the whole frame's pixels."""
    c1, c2 = (0.01 * maxval) ** 2, (0.03 * maxval) ** 2
    pred, ref = np.asarray(pred), np.asarray(ref)
    h, w = pred.shape[1:]
    n = min(window, h) * min(window, w)
    ny, nx = ((side - min(window, side)) // stride + 1 for side in (h, w))
    chunk = max(1, SPLAT_BLOCK // (ny * nx))  # frames per block of whole window grids
    psnr, ssim = [], []
    for f, stop, rows, cols in _crop_groups(pred, ref, np.not_equal, window, stride):
        sq, vals = np.zeros(stop - f, dtype=np.int64), np.ones((stop - f, 0, 0))
        if rows.stop > rows.start:
            q = np.empty((5, stop - f, rows.stop - rows.start, cols.stop - cols.start),
                         dtype=np.int32)
            q[0], q[1] = pred[f:stop, rows, cols], ref[f:stop, rows, cols]
            a, b = q[:2]
            sq = np.square(np.subtract(a, b, out=q[4]), out=q[4]).sum((1, 2), dtype=np.int64)
            np.multiply(q[:2], q[:2], out=q[2:4])
            np.multiply(a, b, out=q[4])
            sa, sb, saa, sbb, sab = _window_sums(q, window, stride).astype(np.int64)
            mu_a, mu_b = sa / n, sb / n
            va = (n * saa - sa * sa) / (n * n)
            vb = (n * sbb - sb * sb) / (n * n)
            cov = (n * sab - sa * sb) / (n * n)
            vals = (((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                    / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2)))
        psnr += [min(99.0, 10.0 * math.log10(maxval * maxval / m)) if m else 99.0
                 for m in (sq / (h * w)).tolist()]
        y, x = rows.start // stride, cols.start // stride
        for g in range(0, stop - f, chunk):
            grid = np.ones((len(vals[g:g + chunk]), ny, nx))
            grid[:, y:y + vals.shape[1], x:x + vals.shape[2]] = vals[g:g + chunk]
            ssim += grid.reshape(len(grid), -1).mean(1).tolist()
    return psnr, ssim


def eval_metrics(pred_clip: VideoClip, ref_clip: VideoClip,
                 pred_motions: list[MotionSequence],
                 gt_motions: list[MotionSequence],
                 pred_masks: np.ndarray,
                 gt_masks: np.ndarray) -> EvalReport:
    if pred_clip.resolution != ref_clip.resolution or \
            pred_clip.frame_count != ref_clip.frame_count:
        raise ShapeMismatch("clip shapes differ")
    pred_masks, gt_masks = np.asarray(pred_masks), np.asarray(gt_masks)
    if pred_masks.shape != gt_masks.shape:
        raise ShapeMismatch(f"mask shapes differ: {pred_masks.shape} and {gt_masks.shape}")
    if len(pred_masks) and (pred_masks.ndim != 3 or not pred_masks[0].size):
        raise ShapeMismatch(f"masks must be (F, H >= 1, W >= 1), got {pred_masks.shape}")
    if len(pred_motions) != len(gt_motions):
        raise ShapeMismatch(f"{len(pred_motions)} predicted motions for "
                            f"{len(gt_motions)} ground-truth ones")
    psnr, ssim = (float(np.mean(v)) for v in
                  _frame_scores(pred_clip.frames, ref_clip.frames))
    # mIoU counts only pixels that either mask labels, so it counts on their crop
    ious = []
    for f, stop, rows, cols in (_crop_groups(pred_masks, gt_masks, np.logical_or)
                                if len(pred_masks) else ()):
        p, r = pred_masks[f:stop, rows, cols], gt_masks[f:stop, rows, cols]
        inter = np.count_nonzero((p == r) & (r != 0), axis=(1, 2)).tolist()
        union = np.count_nonzero((p != 0) | (r != 0), axis=(1, 2)).tolist()
        ious += [i / u if u else 1.0 for i, u in zip(inter, union)]
    miou = float(np.mean(ious)) if ious else 1.0
    return EvalReport(traj_mse=_traj_mse(pred_motions, gt_motions), mask_miou=miou,
                      psnr=psnr, ssim=ssim)


def _traj_mse(pred: list[MotionSequence], ref: list[MotionSequence]) -> float:
    """Mean over objects of each motion's mean squared error; 0 for none."""
    if any(p.frames.shape != r.frames.shape for p, r in zip(pred, ref)):
        raise ShapeMismatch("motion shapes differ")
    return float(np.mean([np.mean((p.frames - r.frames) ** 2)
                          for p, r in zip(pred, ref)])) if pred else 0.0


# ---------------------------------------------------------------- full run

@dataclass
class RunResult:
    final_clip: VideoClip
    report: EvalReport
    coarse_clip: VideoClip
    coarse_channels: ConditionChannels
    coarse_traj_mse: float
    raw_motions: list[MotionSequence]
    refined_motions: list[MotionSequence]
    strengths: list[float]
    raw_traj_mse: float = 0.0
    refined_traj_mse: float = 0.0


def run_pipeline(scene: SceneSpec, user_condition: UserCondition,
                 config: PipelineConfig, pmp: PmpModel,
                 out_dir: str | None = None) -> RunResult:
    """Stage 1 -> 2 -> 3 with evaluation against the scene's ground truth."""
    fine_n = coarse_frame_count(scene.duration, config.fine)
    if fine_n > pmp.config.max_frames:  # stage 2 would refuse it after stage 1
        raise TooManyFrames(f"{fine_n} frames > max_frames {pmp.config.max_frames}")
    seed = config.seed
    gt = synthesize_gt_motion(scene, seed)
    coarse_clip, s1_channels, coarse_realized = stage1_coarse(
        scene, gt, user_condition, config, seed)
    refined, raws, strengths = stage2_optimize(coarse_clip, scene, pmp, config)
    final_clip, pred_masks, final_realized = stage3_regenerate(scene, gt, config, seed)

    gt_fine = [resample(m, fine_n) for m in gt]
    gt_coarse = [resample(m, coarse_clip.frame_count) for m in gt]

    ref_clip, gt_masks = render(scene, gt_fine, config.fine)
    report = eval_metrics(final_clip, ref_clip, final_realized, gt_fine,
                          pred_masks, gt_masks)
    result = RunResult(final_clip=final_clip, report=report, coarse_clip=coarse_clip,
                       coarse_channels=s1_channels,
                       coarse_traj_mse=_traj_mse(coarse_realized, gt_coarse),
                       raw_motions=raws, refined_motions=refined,
                       strengths=strengths, raw_traj_mse=_traj_mse(raws, gt_fine),
                       refined_traj_mse=_traj_mse(refined, gt_fine))
    if out_dir is not None:
        _persist_run(out_dir, config, scene, result)
    return result


def _persist_run(out_dir, config: PipelineConfig, scene: SceneSpec,
                 result: RunResult) -> None:
    """Write the run directory. ``channels/s1`` holds the stage-1 masks,
    which carry the user's target-pose mask that ``run.json`` lacks."""
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    (d / "run.json").write_text(run_to_json(config, scene))
    for name, clip in (("coarse", result.coarse_clip), ("final", result.final_clip)):
        fileio.write_clip(d / name, clip.frames, clip.fps)
    stage2 = d / "stage2"
    stage2.mkdir(exist_ok=True)
    (stage2 / "raw.json").write_text(motions_to_json(result.raw_motions))
    (stage2 / "refined.json").write_text(motions_to_json(result.refined_motions))
    (stage2 / "strength.json").write_text(json.dumps(result.strengths))
    fileio.write_condition(d / "channels" / "s1", result.coarse_channels)
    (d / "report.json").write_text(result.report.to_json())
