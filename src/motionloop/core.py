"""Core motion data model.

A motion sequence is an F x pose_dim matrix of per-frame parameters for one
tracked object: joint angles (radians, XYZ Euler triplets) for articulated
categories, world-space point coordinates for generic objects. Category
presets ship a compact stand-in skeleton, not the upstream full models.

A ``MotionSequence`` is valid when built: read-only float64 frames of shape
(F >= 1, model.pose_dim), every entry finite, and 0 < fps < inf; otherwise
DimensionMismatch, naming the first non-finite (frame, channel). A joint is
its skeleton index; a spec derives its point layout once.

Camera/world convention throughout the package: x right, y down, z depth
(so "up" is -y). Local joint rotation for pose triplet (a, b, c) is
R = Rz(c) @ Ry(b) @ Rx(a).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache
from importlib import resources

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, SequenceTooShort

BONE_SAMPLES = 8  # densified points per bone so part masks have area
_BONE_FRACTIONS = (np.arange(1, BONE_SAMPLES + 1) / BONE_SAMPLES)[:, None]
EXTRAPOLATE_WINDOW, EXTRAPOLATE_DECAY = 4, 0.9  # frame deltas averaged; damping per frame


class Category(Enum):
    HUMAN = "Human"
    ANIMAL = "Animal"
    GENERIC_OBJECT = "GenericObject"


@dataclass(frozen=True)
class Joint:
    parent_id: int  # -1 for the root
    rest_offset: tuple[float, float, float]
    part_label: int


@dataclass(frozen=True)
class ParametricModelSpec:
    """Parameter layout + stand-in skeleton for one object category.

    ``pose_dim`` is 3 x joint count for articulated categories and 63
    (21 points x 3) for generic objects. Joints are parent-ordered, and a
    joint's index in ``skeleton`` is its id.
    """

    category: Category
    pose_dim: int
    shape_dim: int
    expression_dim: int
    part_count: int
    skeleton: tuple[Joint, ...]

    def __post_init__(self):
        if self.pose_dim <= 0 or self.part_count <= 0:
            raise DimensionMismatch("pose_dim and part_count must be positive")
        if self.shape_dim < 0 or self.expression_dim < 0:
            raise DimensionMismatch("shape_dim/expression_dim must be >= 0")
        if self.is_articulated:
            if self.pose_dim != 3 * len(self.skeleton):
                raise DimensionMismatch(
                    f"pose_dim {self.pose_dim} != 3 x {len(self.skeleton)} joints"
                )
            roots = [j for j in self.skeleton if j.parent_id < 0]
            if len(roots) != 1:
                raise DimensionMismatch("skeleton must have exactly one root")
            for i, j in enumerate(self.skeleton):
                if not 1 <= j.part_label <= self.part_count:
                    raise DimensionMismatch(f"part label {j.part_label} out of range")
                if j.parent_id >= i:
                    # parents precede children, which also rules out cycles
                    raise DimensionMismatch("skeleton joints must be parent-ordered")

    @property
    def is_articulated(self) -> bool:
        return self.category is not Category.GENERIC_OBJECT

    @property
    def joint_count(self) -> int:
        return len(self.skeleton)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Each joint's child ids in skeleton order, indexed by joint id."""
        kids = [[] for _ in self.skeleton]
        for i, j in enumerate(self.skeleton):
            if j.parent_id >= 0:
                kids[j.parent_id].append(i)
        return tuple(map(tuple, kids))

    @cached_property
    def rest_offsets(self) -> np.ndarray:
        """Read-only (J, 3) rest offsets, each in its parent's frame."""
        return read_only(np.array([j.rest_offset for j in self.skeleton],
                                  dtype=np.float64).reshape(-1, 3))

    @cached_property
    def bones(self) -> np.ndarray:
        """Read-only (2, B) parent and child joint ids of every bone, by child id."""
        return read_only(np.array([(j.parent_id, i) for i, j in enumerate(self.skeleton)
                                   if j.parent_id >= 0], dtype=np.int64).reshape(-1, 2).T)

    @cached_property
    def point_labels(self) -> np.ndarray:
        """Read-only (N,) part labels of the ``forward_kinematics`` points:
        each joint's, then each bone's child's, once per bone sample."""
        labels = np.array([j.part_label for j in self.skeleton], dtype=np.int64)
        return read_only(np.concatenate([labels, np.repeat(labels[self.bones[1]],
                                                           BONE_SAMPLES)]))


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only in place."""
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def preset(category: Category) -> ParametricModelSpec:
    """Load the shipped stand-in spec for a category."""
    fname = {
        Category.HUMAN: "human.json",
        Category.ANIMAL: "animal.json",
        Category.GENERIC_OBJECT: "generic_object.json",
    }[category]
    raw = json.loads(resources.files("motionloop.data").joinpath(fname).read_text())
    skeleton = tuple(Joint(parent, tuple(offset), label)
                     for parent, offset, label in raw["skeleton"])
    return ParametricModelSpec(
        category=Category(raw["category"]),
        pose_dim=raw["pose_dim"],
        shape_dim=raw["shape_dim"],
        expression_dim=raw["expression_dim"],
        part_count=raw["part_count"],
        skeleton=skeleton,
    )


@dataclass(frozen=True)
class MotionSequence:
    """Per-frame parameter vectors for one tracked object; valid when built."""

    model: ParametricModelSpec
    fps: float
    frames: np.ndarray  # read-only (F >= 1, pose_dim) float64, finite

    def __post_init__(self):
        frames = np.array(self.frames, dtype=np.float64, order="C")
        if frames.ndim != 2 or not len(frames) or frames.shape[1] != self.model.pose_dim:
            raise DimensionMismatch(
                f"motion frames of shape {frames.shape}, not (F >= 1, {self.model.pose_dim})")
        finite = np.isfinite(frames)
        if not finite.all():
            frame, channel = np.argwhere(~finite)[0]
            raise DimensionMismatch(f"motion entry (frame {frame}, channel {channel}) "
                                    f"is {frames[frame, channel]}, not finite")
        if not 0 < self.fps < math.inf:
            raise DimensionMismatch(f"motion fps must be positive and finite, got {self.fps}")
        object.__setattr__(self, "frames", read_only(frames))

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    def with_frames(self, frames: np.ndarray) -> "MotionSequence":
        return MotionSequence(self.model, self.fps, frames)


@dataclass(frozen=True)
class MotionStrength:
    per_transition: np.ndarray  # (F-1,) non-negative
    mean: float


def motion_strength(seq: MotionSequence) -> MotionStrength:
    """Per-transition parameter speed, L2 norm normalized by sqrt(pose_dim).

    The normalization keeps strengths comparable across categories with
    different parameter dimensionality.
    """
    if seq.frame_count < 2:
        raise SequenceTooShort("motion strength needs at least 2 frames")
    diffs = np.diff(seq.frames, axis=0)
    per = np.linalg.norm(diffs, axis=1) / np.sqrt(seq.frames.shape[1])
    return MotionStrength(per_transition=per, mean=float(per.mean()))


def resample(seq: MotionSequence, new_len: int) -> MotionSequence:
    """Linear per-channel resampling onto a uniform grid over [0, F-1].

    Endpoints map exactly; new_len == F returns an identical copy.
    """
    if seq.frame_count < 2:
        raise SequenceTooShort("resample needs at least 2 frames")
    if new_len < 1:
        raise DimensionMismatch("new_len must be positive")
    f = seq.frame_count
    if new_len == f:
        return seq.with_frames(seq.frames.copy())
    if new_len == 1:
        return seq.with_frames(seq.frames[:1].copy())
    t = np.linspace(0.0, f - 1, new_len)
    idx = np.minimum(t.astype(np.int64), f - 2)
    w = (t - idx)[:, None]
    out = (1.0 - w) * seq.frames[idx] + w * seq.frames[idx + 1]
    return seq.with_frames(out)


def extrapolate(seq: MotionSequence, extra: int) -> MotionSequence:
    """Append frames continuing the mean velocity of the last transitions.

    The continuation velocity is the mean of the last EXTRAPOLATE_WINDOW
    frame deltas, damped by EXTRAPOLATE_DECAY per appended frame so long
    extrapolations settle instead of diverging.
    """
    if seq.frame_count < 2:
        raise SequenceTooShort("extrapolate needs at least 2 frames")
    if extra < 1:
        raise DimensionMismatch("extra must be positive")
    w = min(EXTRAPOLATE_WINDOW, seq.frame_count - 1)
    vel = np.diff(seq.frames[-(w + 1):], axis=0).mean(axis=0)
    tail = np.empty((extra, seq.frames.shape[1]))
    prev = seq.frames[-1]
    step = vel
    for k in range(extra):
        step = step * EXTRAPOLATE_DECAY
        prev = prev + step
        tail[k] = prev
    return seq.with_frames(np.vstack([seq.frames, tail]))


def _euler_xyz(angles: np.ndarray) -> np.ndarray:
    """Rotation matrices Rz(c) @ Ry(b) @ Rx(a) for (..., 3) angles (a, b, c)."""
    ca, cb, cc = np.moveaxis(np.cos(angles), -1, 0)
    sa, sb, sc = np.moveaxis(np.sin(angles), -1, 0)
    zero, one, shape = np.zeros_like(ca), np.ones_like(ca), ca.shape + (3, 3)
    rx = np.stack([one, zero, zero, zero, ca, -sa, zero, sa, ca], -1).reshape(shape)
    ry = np.stack([cb, zero, sb, zero, one, zero, -sb, zero, cb], -1).reshape(shape)
    rz = np.stack([cc, -sc, zero, sc, cc, zero, zero, zero, one], -1).reshape(shape)
    return rz @ ry @ rx


def fk_joints(spec: ParametricModelSpec, pose: np.ndarray,
              shape_scale: float) -> np.ndarray:
    """Joint world positions (..., J, 3) for poses (..., pose_dim); leading
    axes such as frames are posed together, joint by joint."""
    if not spec.is_articulated:
        raise DimensionMismatch("forward kinematics needs an articulated spec")
    pose = np.asarray(pose, dtype=np.float64)
    if pose.ndim == 0 or pose.shape[-1] != spec.pose_dim:
        raise DimensionMismatch(f"pose shape {pose.shape} != (..., {spec.pose_dim})")
    if not np.all(np.isfinite(pose)):
        raise DimensionMismatch("pose angles must be finite")
    j = spec.joint_count
    offsets = spec.rest_offsets * shape_scale
    local = _euler_xyz(pose.reshape(-1, j, 3))
    world_rot = np.empty(local.shape)
    pos = np.empty(local.shape[:-1])
    for i, joint in enumerate(spec.skeleton):
        p = joint.parent_id
        if p < 0:
            world_rot[:, i] = local[:, i]
            pos[:, i] = offsets[i]
        else:
            world_rot[:, i] = world_rot[:, p] @ local[:, i]
            pos[:, i] = pos[:, p] + world_rot[:, p] @ offsets[i]
    return pos.reshape(pose.shape[:-1] + (j, 3))


def forward_kinematics(spec: ParametricModelSpec, pose: np.ndarray,
                       shape_scale: float = 1.0) -> np.ndarray:
    """Pose the stand-in skeleton and densify its bones into points.

    A pose of shape (..., pose_dim) gives points (..., N, 3): the J joints
    by id, then BONE_SAMPLES points per bone at fractions i/BONE_SAMPLES
    along parent->child, bones by child id. ``spec.point_labels`` holds
    their (N,) part labels.
    """
    joints = fk_joints(spec, pose, shape_scale)
    parents, kids = spec.bones
    a, b = joints[..., parents, None, :], joints[..., kids, None, :]
    samples = (a + _BONE_FRACTIONS * (b - a)).reshape(
        joints.shape[:-2] + (len(kids) * BONE_SAMPLES, 3))
    return np.concatenate([joints, samples], -2)


MOTION_JSON_VERSION = "1"


def motion_to_json(seq: MotionSequence) -> str:
    """Serialize to the version-1 motion JSON format.

    Python's repr of floats emits the shortest round-tripping decimal, which
    always carries >= 15 significant digits when needed.
    """
    doc = {
        "version": MOTION_JSON_VERSION,
        "category": seq.model.category.value,
        "pose_dim": seq.model.pose_dim,
        "shape_dim": seq.model.shape_dim,
        "expression_dim": seq.model.expression_dim,
        "fps": seq.fps,
        "frames": seq.frames.tolist(),
    }
    return json.dumps(doc)


def motion_from_json(text: str | bytes) -> MotionSequence:
    """Inverse of ``motion_to_json``. A malformed document, or one that is
    not a valid ``MotionSequence`` (e.g. non-finite entries), raises
    DimensionMismatch."""
    return _motion_from_doc(load_json(text, "motion JSON", DimensionMismatch))


def motions_to_json(motions: list[MotionSequence]) -> str:
    """A JSON list of motion documents, one per sequence."""
    return "[" + ", ".join(motion_to_json(m) for m in motions) + "]"


def motions_from_json(text: str | bytes) -> list[MotionSequence]:
    """Inverse of ``motions_to_json``; a single motion document reads as a
    one-item list. Malformed input raises DimensionMismatch."""
    doc = load_json(text, "motion JSON", DimensionMismatch)
    return [_motion_from_doc(d) for d in (doc if isinstance(doc, list) else [doc])]


def _motion_from_doc(doc) -> MotionSequence:
    try:
        if doc.get("version") != MOTION_JSON_VERSION:
            raise DimensionMismatch(
                f"unsupported motion JSON version {doc.get('version')!r}")
        spec = preset(Category(doc["category"]))
        for key in ("pose_dim", "shape_dim", "expression_dim"):
            if doc[key] != getattr(spec, key):
                raise DimensionMismatch(
                    f"{key} {doc[key]} does not match the {spec.category.value} preset")
        return MotionSequence(model=spec, fps=json_like(doc["fps"], 0.0, "motion fps"),
                              frames=json_like(doc["frames"], ((0.0,),), "motion frames"))
    except (AttributeError, KeyError, TypeError, ValueError, InvalidConfig) as exc:
        raise DimensionMismatch(
            f"malformed motion JSON ({type(exc).__name__}: {exc})") from None


# ------------------------------------------------------------ config JSON

def load_json(text, what: str, error=InvalidConfig):
    """``json.loads``, raising ``error`` instead of a decode error or the
    ``RecursionError`` of a document nested too deeply to parse."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not JSON: {exc}") from None


def json_like(value, default, where: str):
    """A parsed JSON value as the type of ``default``: a number, a string, a
    tuple (any length, entries like ``default[0]``) or a dataclass."""
    if is_dataclass(default):
        return config_from_json(default, value, where)
    if isinstance(default, tuple) and isinstance(value, list):
        return tuple(json_like(v, default[0], where) for v in value)
    accepted = {float: (int, float), int: int, str: str}.get(type(default))
    if accepted and isinstance(value, accepted) and not isinstance(value, bool):
        try:
            return type(default)(value)
        except OverflowError:  # an integer past the float range
            pass
    raise InvalidConfig(f"{where} must be like {default!r}, got {repr(value)[:80]}")


def config_from_json(base, doc, where: str, exclude: tuple[str, ...] = ()):
    """``base`` (a frozen dataclass) with the fields a parsed JSON object sets;
    unknown or excluded keys and wrong types raise InvalidConfig."""
    if not isinstance(doc, dict):
        raise InvalidConfig(f"{where} must be a JSON object, got {repr(doc)[:80]}")
    names = {f.name for f in fields(base)} - set(exclude)
    unknown = sorted(set(doc) - names)
    if unknown:
        raise InvalidConfig(f"unknown {where} key(s) {unknown}; "
                            f"expected some of {sorted(names)}")
    return replace(base, **{key: json_like(value, getattr(base, key), f"{where}.{key}")
                            for key, value in doc.items()})
