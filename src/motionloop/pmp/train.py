"""Training loop and gradient verification for the motion prior.

Each step samples clean motions from the corpus, corrupts them with one of
the three perturbations, conditions on the *clean* sequence's strength and
tags, and takes one Adam step on the MSE toward the clean target.
Gradients are reduced in a fixed order, so runs are reproducible
bit-for-bit from the seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ..core import MotionSequence, motion_strength
from ..errors import EmptyCorpus, InvalidConfig
from ..perturb import PerturbConfig, sample_perturbation
from .model import Conditioning, PmpModel, pmp_loss, tokens_for


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
        if self.steps < 0 or self.batch_size < 1 or self.lr <= 0:
            raise InvalidConfig("steps >= 0, batch_size >= 1, lr > 0 required")


def conditioning_for(model: PmpModel, item: CorpusItem) -> Conditioning:
    """Conditioning derived from the clean sequence: tags + mean strength."""
    strength = motion_strength(item.motion).mean
    return Conditioning(tokens=tokens_for(model.config, list(item.tags)),
                        strength=strength,
                        category=item.motion.model.category)


def pmp_train(model: PmpModel, corpus: list[CorpusItem],
              train_config: TrainConfig, seed: int
              ) -> tuple[PmpModel, list[tuple[int, float]]]:
    """Train in place on perturbed copies of the corpus; returns (model, log)."""
    if not corpus:
        raise EmptyCorpus("training corpus is empty")
    frame_counts = {item.motion.frame_count for item in corpus}
    if len(frame_counts) != 1:
        raise InvalidConfig(
            f"corpus frame counts must match for batching, got {sorted(frame_counts)}")
    rng = np.random.default_rng(seed)
    velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
    second = {k: np.zeros_like(v) for k, v in model.params.items()}
    log: list[tuple[int, float]] = []
    conds = [conditioning_for(model, item) for item in corpus]
    perturb_config = PerturbConfig()
    b1, b2, eps = 0.9, 0.999, 1e-8  # Adam
    clean_fraction = 0.1  # samples left unperturbed: anchors pass-through
    for step in range(train_config.steps):
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
        t = step + 1
        for name in model.params:
            g = grads[name]
            velocity[name] = b1 * velocity[name] + (1 - b1) * g
            second[name] = b2 * second[name] + (1 - b2) * g * g
            mhat = velocity[name] / (1 - b1**t)
            vhat = second[name] / (1 - b2**t)
            model.params[name] = model.params[name] - \
                train_config.lr * mhat / (np.sqrt(vhat) + eps)
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
