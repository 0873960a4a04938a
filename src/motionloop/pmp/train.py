"""Training loop and gradient verification for the motion prior.

Each step samples clean motions from the corpus, corrupts them with one of
the three perturbations, conditions on the *clean* sequence's strength and
tags, and takes one Adam step on the MSE toward the clean target.
Gradients are reduced in a fixed order, so runs are reproducible
bit-for-bit from the seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ..core import MotionSequence, motion_strength
from ..errors import EmptyCorpus, InvalidConfig
from ..perturb import PerturbConfig, sample_perturbation
from .model import Conditioning, PmpConfig, PmpModel, pmp_loss, tokens_for


@dataclass(frozen=True)
class CorpusItem:
    motion: MotionSequence
    tags: tuple[str, ...]


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 5000
    batch_size: int = 16
    lr: float = 1e-3

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1 or not 0 < self.lr < math.inf:
            raise InvalidConfig("steps >= 0, batch_size >= 1 and a finite lr > 0 "
                                f"required, got lr {self.lr}")


def conditioning_for(config: PmpConfig, motion: MotionSequence, tags,
                     strength: float | None = None) -> Conditioning:
    """The prior's conditioning on a motion: its tags' tokens, its category
    and a strength, by default the motion's own mean strength."""
    return Conditioning(tokens=tokens_for(config, list(tags)),
                        strength=motion_strength(motion).mean if strength is None else strength,
                        category=motion.model.category)


def pmp_train(model: PmpModel, corpus: list[CorpusItem],
              train_config: TrainConfig, seed: int
              ) -> tuple[PmpModel, list[tuple[int, float]]]:
    """Train on perturbed copies of the corpus; returns (model, log).

    Adam updates the passed model's parameter arrays in place, so the
    returned model is the passed one; take ``model.copy()`` first to keep
    the starting weights.
    """
    if not corpus:
        raise EmptyCorpus("training corpus is empty")
    frame_counts = {item.motion.frame_count for item in corpus}
    if len(frame_counts) != 1:
        raise InvalidConfig(
            f"corpus frame counts must match for batching, got {sorted(frame_counts)}")
    rng = np.random.default_rng(seed)
    velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
    second = {k: np.zeros_like(v) for k, v in model.params.items()}
    # one scratch buffer for every tensor; a view of it is reshaped per tensor
    scratch = np.empty(max((v.size for v in model.params.values()), default=0))
    log: list[tuple[int, float]] = []
    conds = [conditioning_for(model.config, item.motion, item.tags) for item in corpus]
    perturb_config = PerturbConfig()
    b1, b2, eps = 0.9, 0.999, 1e-8  # Adam
    clean_fraction = 0.1  # samples left unperturbed: anchors pass-through
    for step in range(train_config.steps):
        try:  # the batch size sizes the batch and every activation of the step
            idx = rng.integers(0, len(corpus), size=train_config.batch_size)
            batch = []
            for i in idx:
                item = corpus[int(i)]
                op_seed = int(rng.integers(0, 2**63 - 1))
                if rng.random() < clean_fraction:
                    perturbed = item.motion
                else:
                    perturbed, _ = sample_perturbation(item.motion, perturb_config,
                                                       op_seed)
                batch.append((perturbed, item.motion, conds[int(i)]))
            loss, grads = pmp_loss(model, batch)
        except MemoryError:
            raise InvalidConfig(f"a training batch of {train_config.batch_size} motions "
                                "cannot be allocated") from None
        t = step + 1
        c1, c2 = 1 - b1**t, 1 - b2**t
        for name, w in model.params.items():
            # in place, in the order of w -= lr * (m / c1) / (sqrt(v / c2) + eps)
            # with m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g * g;
            # each step's gradients are fresh arrays, so g then holds the update
            g, m, v = grads[name], velocity[name], second[name]
            s = scratch[:g.size].reshape(g.shape)
            m *= b1
            m += np.multiply(g, 1 - b1, out=s)
            np.multiply(g, 1 - b2, out=s)
            s *= g
            v *= b2
            v += s
            np.divide(v, c2, out=s)
            np.sqrt(s, out=s)
            s += eps
            np.divide(m, c1, out=g)
            g *= train_config.lr
            g /= s
            w -= g
        log.append((step, loss))
    return model, log


def save_log_csv(log: list[tuple[int, float]], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for step, loss in log:
            writer.writerow([step, repr(loss)])


def grad_check(model: PmpModel, example, epsilon: float = 1e-5,
               samples: int = 200, seed: int = 0) -> float:
    """Worst relative error between analytic and central-difference gradients.

    Samples at least ``samples`` parameters spread over every tensor. The
    analytic gradient comes from the backward pass; the numeric one from
    (L(w+h) - L(w-h)) / 2h on the same example.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise InvalidConfig("epsilon must lie in [1e-7, 1e-3]")
    rng = np.random.default_rng(seed)
    batch = [example]
    _, grads = pmp_loss(model, batch)

    def loss_only() -> float:
        loss, _ = pmp_loss(model, batch)
        return loss

    names = model.param_names()
    per_tensor = max(1, int(np.ceil(samples / len(names))))
    worst = 0.0
    for name in names:
        tensor = model.params[name]
        flat_n = tensor.size
        picks = rng.integers(0, flat_n, size=min(per_tensor, flat_n))
        for flat in picks:
            ij = np.unravel_index(int(flat), tensor.shape)
            orig = tensor[ij]
            tensor[ij] = orig + epsilon
            hi = loss_only()
            tensor[ij] = orig - epsilon
            lo = loss_only()
            tensor[ij] = orig
            numeric = (hi - lo) / (2.0 * epsilon)
            analytic = grads[name][ij]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst
