"""Synthetic scene and training-corpus construction.

Scenes are single- or few-object worlds in camera space (x right, y down,
z depth). The training corpus pairs clean procedural motions with their
text tags; each item also records a conditioning-mode assignment drawn at
the 0.4 / 0.3 / 0.3 full / target / empty training mix.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .core import Category, json_like, load_json, preset
from .errors import InvalidConfig
from .geometry import CameraSpec, ConditionMode
from .pmp import CorpusItem
from .simgen import SceneObject, SceneSpec, generic_template, synthesize_gt_motion

TRAINING_MIX = (0.4, 0.3, 0.3)  # in ConditionMode order

_CATEGORY_WORD = {Category.HUMAN: "human", Category.ANIMAL: "animal",
                  Category.GENERIC_OBJECT: "object"}
# static is a legal action but a degenerate training example (no perturbation
# signal for reorderings), so the corpus sticks to moving families
_ARTICULATED_ACTIONS = ("walk", "reach")
_GENERIC_ACTIONS = ("drop", "slide", "orbit")


@dataclass(frozen=True)
class CorpusRecord:
    """One corpus entry plus its conditioning-mode assignment."""

    item: CorpusItem
    mode: ConditionMode


def random_scene(rng: np.random.Generator, category: Category, action: str,
                 duration: int = 16) -> SceneSpec:
    """One-object scene with randomized pose, shape, and placement."""
    spec = preset(category)
    if spec.is_articulated:
        pose = np.zeros(spec.pose_dim)
        # small random stance on the z-rotation channels
        pose[2::3] = rng.uniform(-0.25, 0.25, size=spec.joint_count)
        placement = (rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2),
                     rng.uniform(4.0, 6.0))
    else:
        # sizes and depths chosen so objects stay a few dozen pixels wide
        # even at quarter-resolution coarse rendering
        pose = generic_template(rng.uniform(0.45, 0.8), rng.uniform(0.35, 0.6))
        y0 = rng.uniform(-0.45, -0.3) if action == "drop" else rng.uniform(-0.35, 0.25)
        # keep the whole trajectory inside the frustum at the nearest depth
        placement = (rng.uniform(-0.3, 0.3), y0, rng.uniform(4.0, 6.0))
    obj = SceneObject(spec=spec, initial_pose=pose,
                      shape_scale=float(rng.uniform(0.8, 1.2)),
                      placement=placement,
                      tags=(_CATEGORY_WORD[category], action))
    return SceneSpec(objects=(obj,), camera=CameraSpec.default(192, 108),
                     duration=duration, fps=16.0)


def make_corpus(n: int = 512, seed: int = 42, frames: int = 16
                ) -> Iterator[CorpusRecord]:
    """Clean motions with tags across all categories, uniform frame count,
    drawn one at a time so a caller can write each before the next."""
    rng = np.random.default_rng(seed)
    categories = (Category.HUMAN, Category.ANIMAL, Category.GENERIC_OBJECT)
    cat_probs = (0.45, 0.2, 0.35)
    for i in range(n):
        category = categories[int(rng.choice(3, p=cat_probs))]
        actions = _ARTICULATED_ACTIONS if category is not Category.GENERIC_OBJECT \
            else _GENERIC_ACTIONS
        action = actions[int(rng.integers(0, len(actions)))]
        scene = random_scene(rng, category, action, duration=frames)
        motion = synthesize_gt_motion(scene, seed=int(rng.integers(2**31)))[0]
        mode = tuple(ConditionMode)[int(rng.choice(3, p=TRAINING_MIX))]
        yield CorpusRecord(item=CorpusItem(motion=motion, tags=scene.objects[0].tags),
                           mode=mode)


def corpus_items(records: Iterable[CorpusRecord]) -> list[CorpusItem]:
    return [r.item for r in records]


def fixture_scene(index: int, duration: int = 16) -> SceneSpec:
    """Deterministic pipeline fixture scene #index.

    Even indices are single generic objects (drop / slide / orbit), odd
    indices articulated walkers or reachers, cycling over categories.
    """
    rng = np.random.default_rng((9176, index))
    if index % 2 == 0:
        action = _GENERIC_ACTIONS[index // 2 % 3]  # no static fixtures
        return random_scene(rng, Category.GENERIC_OBJECT, action, duration=duration)
    category = Category.HUMAN if index % 4 == 1 else Category.ANIMAL
    action = "walk" if index % 8 < 4 else "reach"
    return random_scene(rng, category, action, duration=duration)


def walker_scene(duration: int = 16) -> SceneSpec:
    """The standard articulated walking fixture."""
    spec = preset(Category.HUMAN)
    pose = np.zeros(spec.pose_dim)
    obj = SceneObject(spec=spec, initial_pose=pose, shape_scale=1.0,
                      placement=(0.0, 0.0, 5.0), tags=("human", "walk"))
    return SceneSpec(objects=(obj,), camera=CameraSpec.default(192, 108),
                     duration=duration, fps=16.0)


def scene_to_json(scene: SceneSpec) -> str:
    return json.dumps({
        "objects": [{
            "category": obj.spec.category.value,
            "initial_pose": [float(v) for v in obj.initial_pose],
            "shape_scale": obj.shape_scale,
            "placement": list(obj.placement),
            "tags": list(obj.tags),
        } for obj in scene.objects],
        "camera": {"focal": scene.camera.focal,
                   "principal": list(scene.camera.principal),
                   "size": list(scene.camera.size)},
        "duration": scene.duration,
        "fps": scene.fps,
        "walk_period": scene.walk_period,
    }, sort_keys=True)


def scene_from_json(text: str | bytes) -> SceneSpec:
    """Inverse of ``scene_to_json``; a malformed document raises InvalidConfig."""
    doc = load_json(text, "scene JSON")
    try:
        cam = doc["camera"]
        objects = tuple(
            SceneObject(spec=preset(Category(o["category"])),
                        initial_pose=json_like(o["initial_pose"], (0.0,), "scene initial_pose"),
                        shape_scale=json_like(o["shape_scale"], 0.0, "scene shape_scale"),
                        placement=json_like(o["placement"], (0.0,), "scene placement"),
                        tags=tuple(o["tags"]))
            for o in doc["objects"])
        return SceneSpec(objects=objects,
                         camera=CameraSpec(
                             focal=json_like(cam["focal"], 0.0, "scene camera focal"),
                             principal=json_like(cam["principal"], (0.0,),
                                                 "scene camera principal"),
                             size=tuple(cam["size"])),
                         duration=json_like(doc["duration"], 16, "scene duration"),
                         fps=json_like(doc["fps"], 0.0, "scene fps"), walk_period=json_like(
                             doc.get("walk_period", 16), 16, "scene walk_period"))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(
            f"malformed scene JSON ({type(exc).__name__}: {exc})") from None
