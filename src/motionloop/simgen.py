"""Pluggable video generator with a synthetic stand-in implementation.

The stand-in makes the three-stage loop executable and measurable: it
synthesizes deterministic ground-truth motion for a scene, corrupts it in
proportion to how weakly the generation is conditioned (empty conditioning
corrupts fully, a target pose attenuates corruption and pins the final
frame, full motion conditioning corrupts almost not at all), and renders
grayscale frames whose intensity encodes the part label. ``generate`` is
synthesize, slice, ``realize`` and ``render``; the pipeline calls the last
two itself, so one ground-truth synthesis serves a whole run, and its
stage 2 still recovers motion from pixels alone.

The generator interface contract is ``generate()``'s signature plus its
determinism clause; a real diffusion backend would plug in at that seam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import perturb
from .core import (
    MotionSequence,
    ParametricModelSpec,
    forward_kinematics,
    read_only,
    resample,
)
from .errors import DimensionMismatch, InvalidConfig, UnknownActionTag
from .geometry import CameraSpec, ConditionMode, render_part_masks

ACTIONS_ARTICULATED = ("static", "walk", "reach")
ACTIONS_GENERIC = ("static", "drop", "slide", "orbit")

INTENSITY_LO, INTENSITY_HI = 64, 255
DROP_ACCEL = 0.3  # units / s^2, toward +y (down)

# full-strength generator corruption, before conditioning attenuation: the
# perturbation mix (noise, shuffle, drop) and the target-pose pin width per
# sqrt(channel)
CORRUPTION = perturb.PerturbConfig(probs=(0.5, 0.25, 0.25))
CORRUPTION_PIN_WIDTH = 0.1


@dataclass(frozen=True)
class SceneObject:
    spec: ParametricModelSpec
    initial_pose: np.ndarray  # angles for articulated, local 21x3 flat for generic
    shape_scale: float
    placement: tuple[float, float, float]  # camera-space offset, z > 0
    tags: tuple[str, ...]

    def __post_init__(self):
        pose = np.asarray(self.initial_pose, dtype=np.float64)
        if pose.shape != (self.spec.pose_dim,):
            raise DimensionMismatch(
                f"initial pose length {pose.shape} != pose_dim {self.spec.pose_dim}")
        if (len(self.placement) != 3 or not np.all(np.isfinite(self.placement))
                or self.placement[2] <= 0):
            raise DimensionMismatch("placement must be 3 finite numbers, depth > 0")
        if not np.all(np.isfinite(pose)) or not 0 < self.shape_scale < math.inf:
            raise DimensionMismatch("initial pose must be finite, shape_scale positive and finite")
        object.__setattr__(self, "initial_pose", read_only(pose))

    @property
    def action(self) -> str:
        allowed = (ACTIONS_ARTICULATED if self.spec.is_articulated
                   else ACTIONS_GENERIC)
        for tag in self.tags:
            if tag in allowed:
                return tag
        raise UnknownActionTag(
            f"no recognized action for {self.spec.category.value} in {self.tags}")


@dataclass(frozen=True)
class SceneSpec:
    objects: tuple[SceneObject, ...]
    camera: CameraSpec
    duration: int  # frames
    fps: float
    walk_period: int = 16  # frames per gait cycle

    def __post_init__(self):
        if len(self.objects) < 1:
            raise InvalidConfig("scene needs at least one object")
        # frame counts are scaled in float64, which holds integers to 2**53
        if not (2 <= self.duration <= 2**53 and 2 <= self.walk_period <= 2**53
                and 0 < self.fps < math.inf):
            raise InvalidConfig(
                "duration and walk_period in 2..2**53 frames, finite fps > 0 required")


@dataclass(frozen=True)
class GeneratorConfig:
    resolution_scale: float = 1.0
    frame_fraction: float = 1.0
    # corruption attenuation per ConditionMode, in member order
    attenuation: tuple[float, float, float] = (0.02, 0.4, 1.0)
    splat_radius: float = 3.0

    def __post_init__(self):
        if not 0.0 < self.resolution_scale <= 1.0:
            raise InvalidConfig("resolution_scale must be in (0, 1]")
        if not 0.0 < self.frame_fraction <= 1.0:
            raise InvalidConfig("frame_fraction must be in (0, 1]")
        if not 0.0 < self.splat_radius < math.inf:
            raise InvalidConfig("splat_radius must be positive and finite")
        if len(self.attenuation) != 3 or not np.all(np.isfinite(self.attenuation)):
            raise InvalidConfig("attenuation needs three finite values, one per mode")
        full, target, empty = self.attenuation
        if not full <= target <= empty:
            raise InvalidConfig("attenuation must satisfy full <= target <= empty")


COARSE_CONFIG = GeneratorConfig(resolution_scale=0.25, frame_fraction=0.5)
FINE_CONFIG = GeneratorConfig(resolution_scale=1.0, frame_fraction=1.0)


@dataclass(frozen=True, init=False)
class VideoClip:
    """A clip; its size is its frames' shape. A ``resolution`` argument is
    only checked against the frames' (w, h): perfbench's tests pass one."""

    frames: np.ndarray  # read-only (F, H, W >= 1) uint8, from any sequence of equal frames
    fps: float

    def __init__(self, frames, fps: float, *, resolution: tuple[int, int] | None = None):
        frames = np.asarray(frames)
        if frames.ndim != 3 or not len(frames):
            raise InvalidConfig(f"clip frames must be (F >= 1, H, W), got shape {frames.shape}")
        if not frames[0].size:
            raise InvalidConfig(f"clip frames hold no image: shape {frames.shape}")
        # SSIM's int32 window sums are exact only for uint8 pixels
        if frames.dtype != np.uint8:
            raise InvalidConfig(f"clip frames must be uint8, got {frames.dtype}")
        object.__setattr__(self, "frames", read_only(frames))
        object.__setattr__(self, "fps", fps)
        if resolution is not None and tuple(resolution) != self.resolution:
            raise DimensionMismatch(f"resolution {resolution} is not the frames' {self.resolution}")

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    @property
    def resolution(self) -> tuple[int, int]:  # (w, h)
        return self.frames.shape[2], self.frames.shape[1]


# --------------------------------------------------------------- templates

def generic_template(rx: float, ry: float) -> np.ndarray:
    """Local 21-point ellipse object: contour (visually counterclockwise,
    starting at the top), bbox corners TL TR BR BL, center. Flat (63,)."""
    k = np.arange(16)
    t = -np.pi / 2 - 2 * np.pi * k / 16
    contour = np.stack([rx * np.cos(t), ry * np.sin(t), np.zeros(16)], axis=1)
    corners = np.array([[-rx, -ry, 0.0], [rx, -ry, 0.0],
                        [rx, ry, 0.0], [-rx, ry, 0.0]])
    center = np.zeros((1, 3))
    return np.vstack([contour, corners, center]).ravel()


# --------------------------------------------------------- motion synthesis

def synthesize_gt_motion(scene: SceneSpec, seed: int) -> list[MotionSequence]:
    """Deterministic procedural motion per object, one sequence each."""
    out = []
    for oi, obj in enumerate(scene.objects):
        rng = np.random.default_rng((seed, 1009, oi))
        action = obj.action
        f = scene.duration
        frames = np.tile(obj.initial_pose, (f, 1))
        if obj.spec.is_articulated:
            # joints with a child: their angles move the visible bones
            joints = [j for j, kids in enumerate(obj.spec.children) if kids]
            if action == "walk":
                amps = rng.uniform(0.15, 0.45, size=len(joints))
                phases = rng.uniform(0, 2 * np.pi, size=len(joints))
                t = np.arange(f)[:, None]
                arg = 2 * np.pi * t / scene.walk_period + phases[None, :]
                osc = amps[None, :] * np.sin(arg)
                for col, j in enumerate(joints):
                    frames[:, 3 * j + 2] += osc[:, col]
            elif action == "reach":
                target = frames[0].copy()
                for j in joints:
                    target[3 * j + 2] += rng.uniform(-0.7, 0.7)
                u = np.linspace(0.0, 1.0, f)[:, None]
                s = 3 * u**2 - 2 * u**3  # smoothstep
                frames = frames[0][None, :] * (1 - s) + target[None, :] * s
        else:
            pts0 = obj.initial_pose.reshape(21, 3) + np.asarray(obj.placement)
            frames = np.tile(pts0.ravel(), (f, 1))
            tt = np.arange(f) / scene.fps
            if action == "drop":
                dy = 0.5 * DROP_ACCEL * tt**2
                offsets = np.stack([np.zeros(f), dy, np.zeros(f)], axis=1)
            elif action == "slide":
                v = rng.uniform(0.15, 0.3) * (1 if rng.random() < 0.5 else -1)
                offsets = np.stack([v * tt, np.zeros(f), np.zeros(f)], axis=1)
            elif action == "orbit":
                r = rng.uniform(0.2, 0.4)
                w = 2 * np.pi / (scene.walk_period / scene.fps)
                offsets = np.stack([r * (np.cos(w * tt) - 1.0),
                                    r * np.sin(w * tt), np.zeros(f)], axis=1)
            else:  # static
                offsets = np.zeros((f, 3))
            frames = frames + np.tile(offsets, (1, 21))
        out.append(MotionSequence(model=obj.spec, fps=scene.fps, frames=frames))
    return out


# -------------------------------------------------------------- corruption

def corrupt_motion(gt: MotionSequence, mode: ConditionMode,
                   config: GeneratorConfig, seed: int) -> MotionSequence:
    """Perturb ground truth in proportion to conditioning weakness.

    One full-strength perturbation is drawn from the seed and blended
    toward ground truth by the conditioning attenuation, so for a fixed
    seed the realized error is monotone in conditioning strength frame by
    frame. Target-pose conditioning additionally clamps the final frame
    into a tolerance ball around the true final pose.
    """
    att = mode.level(config.attenuation)
    if att <= 0.0:
        return gt
    perturbed, _ = perturb.sample_perturbation(gt, CORRUPTION, seed)
    frames = gt.frames + att * (perturbed.frames - gt.frames)
    if mode is ConditionMode.TARGET_POSE:
        tol = CORRUPTION_PIN_WIDTH * np.sqrt(gt.frames.shape[1])
        dev = frames[-1] - gt.frames[-1]
        norm = float(np.linalg.norm(dev))
        if norm > tol:
            frames[-1] = gt.frames[-1] + dev * (tol / norm)
    return gt.with_frames(frames)


# --------------------------------------------------------------- rendering

def part_intensity(label: int, part_count: int) -> int:
    """Grayscale code for a part label; 0 is reserved for background."""
    return int(round(INTENSITY_LO + (label / part_count)
                     * (INTENSITY_HI - INTENSITY_LO)))


@lru_cache(maxsize=None)
def part_code(part_count: int) -> tuple[np.ndarray, np.ndarray]:
    """The part code for one part count, as two read-only tables: the uint8
    byte rows (part_intensity(l), l) that render splats for labels
    l = 0..part_count, and the part label nearest each byte 0..255 (the lower
    one on a tie), which decodes them."""
    rows = np.array([(part_intensity(l, part_count), l) for l in range(part_count + 1)],
                    dtype=np.uint8)
    decode = 1 + np.abs(np.arange(256)[:, None] - rows[1:, 0].astype(int)).argmin(axis=1)
    return read_only(rows), read_only(decode)


def object_render_points(obj: SceneObject, frames: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """World-space points (F, N, 3) for one object over (F, pose_dim)
    frames, and their part labels (N,)."""
    if obj.spec.is_articulated:
        pts = forward_kinematics(obj.spec, frames, obj.shape_scale) + np.asarray(obj.placement)
        return pts, obj.spec.point_labels
    pts21 = frames.reshape(-1, 21, 3)
    contour, center = pts21[:, :16], pts21[:, 20:]
    # densify so the splatted object reads as a filled shape:
    # edge midpoints plus spokes toward the center
    mids = 0.5 * (contour + np.roll(contour, -1, axis=1))
    spokes = [center + frac * (contour - center) for frac in (0.25, 0.5, 0.75)]
    pts = np.concatenate([pts21, mids, *spokes], axis=1)
    return pts, np.ones(pts.shape[1], dtype=np.int64)


def effective_radius(config: GeneratorConfig) -> float:
    return max(1.0, config.splat_radius * config.resolution_scale)


def render(scene: SceneSpec, motions: list[MotionSequence],
           config: GeneratorConfig) -> tuple[VideoClip, np.ndarray]:
    """Render motions to a grayscale clip with part-coded intensity, and
    the read-only (F, H, W) uint8 part-label masks of the same splat.

    Every frame of every object goes through one call of the one splat
    kernel, each point carrying the byte row (part intensity, part id):
    its plane 0 is the clip's frames and its plane 1 the masks.
    """
    if len(motions) != len(scene.objects):
        raise DimensionMismatch("one motion per scene object required")
    n, posed = motions[0].frame_count, []
    for obj, m in zip(scene.objects, motions):
        if m.frame_count != n:
            raise DimensionMismatch("motion lengths differ")
        if m.model.category is not obj.spec.category:
            raise DimensionMismatch(f"a {m.model.category.value} motion for a "
                                    f"{obj.spec.category.value} scene object")
        pts, labels = object_render_points(obj, m.frames)
        rows, _ = part_code(obj.spec.part_count)
        posed.append((pts, rows[labels]))
    camera = scene.camera.scaled(config.resolution_scale)
    frames, masks = render_part_masks(posed, camera, effective_radius(config))
    return VideoClip(frames, scene.fps), read_only(masks)


# ---------------------------------------------------------------- generate

def coarse_frame_count(duration: int, config: GeneratorConfig) -> int:
    return int(math.ceil(duration * config.frame_fraction))


def realize(motions: list[MotionSequence], mode: ConditionMode,
            config: GeneratorConfig, seed: int) -> list[MotionSequence]:
    """Resample each motion to the config's frame count, then corrupt it
    per conditioning strength under the object's (seed, 4241, index) key."""
    n = coarse_frame_count(motions[0].frame_count, config)
    keys = [int(np.random.default_rng((seed, 4241, oi)).integers(2**63 - 1))
            for oi in range(len(motions))]
    return [corrupt_motion(resample(m, n), mode, config, key) for m, key in zip(motions, keys)]


def generate(scene: SceneSpec, mode: ConditionMode, config: GeneratorConfig,
             seed: int, frame_window: tuple[int, int] | None = None
             ) -> tuple[VideoClip, list[MotionSequence]]:
    """Synthesize, slice, realize and render.

    Returns (clip, realized motions). ``frame_window`` restricts generation
    to a [start, end) slice of the scene's timeline, used for long-video
    windows.
    """
    gt = synthesize_gt_motion(scene, seed)
    if frame_window is not None:
        lo, hi = frame_window
        if not 0 <= lo < hi <= scene.duration:
            raise InvalidConfig(f"frame window {frame_window} outside scene")
        gt = [m.with_frames(m.frames[lo:hi]) for m in gt]
    realized = realize(gt, mode, config, seed)
    return render(scene, realized, config)[0], realized
