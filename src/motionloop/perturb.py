"""Training-time corruption of motion sequences.

Three perturbations teach the motion denoiser what to undo: additive
Gaussian noise through the closed-form forward-noising map
x_t = sqrt(abar_t) x + sqrt(1 - abar_t) eps, a seeded shuffle of an internal
segment, and dropping a small segment with the remainder tiled back to the
original length. Every perturbation is replayable from a small record.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import MotionSequence, read_only
from .errors import (
    InvalidConfig,
    RangeOutOfBounds,
    SegmentTooLarge,
    StepOutOfRange,
)


# the noise schedule: per-step rates gamma_t, t = 1..1000, and their
# cumulative products ALPHA_BAR[t-1] = prod_{i<=t} (1 - gamma_i)
GAMMA = read_only(np.linspace(1e-4, 0.02, 1000))
ALPHA_BAR = read_only(np.cumprod(1.0 - GAMMA))


class Kind(Enum):
    NOISE = "Noise"
    SHUFFLE = "Shuffle"
    DROP_REPEAT = "DropRepeat"


@dataclass(frozen=True)
class PerturbationRecord:
    """Enough to replay one perturbation deterministically."""

    kind: Kind
    params: tuple  # (t,) for Noise; (lo, hi) for Shuffle / DropRepeat
    seed: int


# Noise draws a step index in NOISE_T of the schedule; an upper
# bound of 100 of 1000 steps keeps the added noise small relative to the
# signal. Segment lengths are drawn as fractions of the sequence length; drop
# segments are additionally capped at F // 4 so most of the true motion
# survives.
NOISE_T = (1, 100)
SHUFFLE_FRAC = (0.25, 0.75)
DROP_FRAC = (0.05, 0.25)


@dataclass(frozen=True)
class PerturbConfig:
    """Sampling distribution for training perturbations: the probabilities
    of noise, shuffle and drop. Their parameters are drawn from the module
    constants NOISE_T (steps of ALPHA_BAR), SHUFFLE_FRAC and
    DROP_FRAC."""

    probs: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (3,) or np.any(p < 0.0):
            raise InvalidConfig("kind probabilities must be 3 non-negatives")
        if abs(p.sum() - 1.0) > 1e-9:
            raise InvalidConfig("kind probabilities must sum to 1")


def forward_noise(seq: MotionSequence, t: int, seed: int) -> MotionSequence:
    """Apply the closed-form noising map at step t with a seeded draw."""
    if not 1 <= t <= ALPHA_BAR.size:
        raise StepOutOfRange(f"t={t} outside [1, {ALPHA_BAR.size}]")
    abar = ALPHA_BAR[t - 1]
    eps = np.random.default_rng(seed).standard_normal(seq.frames.shape)
    out = np.sqrt(abar) * seq.frames + np.sqrt(1.0 - abar) * eps
    return seq.with_frames(out)


def _fisher_yates(n: int, rng: np.random.Generator) -> np.ndarray:
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def shuffle_segment(seq: MotionSequence, lo: int, hi: int, seed: int) -> MotionSequence:
    """Permute frames in [lo, hi) with a seeded Fisher-Yates shuffle."""
    if not 0 <= lo < hi <= seq.frame_count:
        raise RangeOutOfBounds(f"[{lo}, {hi}) outside [0, {seq.frame_count})")
    perm = _fisher_yates(hi - lo, np.random.default_rng(seed))
    out = seq.frames.copy()
    out[lo:hi] = seq.frames[lo:hi][perm]
    return seq.with_frames(out)


def drop_repeat(seq: MotionSequence, lo: int, hi: int) -> MotionSequence:
    """Drop frames [lo, hi) and tile the remainder back to the original length."""
    f = seq.frame_count
    if not 0 <= lo < hi <= f:
        raise RangeOutOfBounds(f"[{lo}, {hi}) outside [0, {f})")
    if hi - lo > f // 4:
        raise SegmentTooLarge(f"dropping {hi - lo} of {f} frames exceeds F//4")
    retained = np.vstack([seq.frames[:lo], seq.frames[hi:]])
    idx = np.arange(f) % retained.shape[0]
    return seq.with_frames(retained[idx])


def apply_record(seq: MotionSequence, record: PerturbationRecord) -> MotionSequence:
    """Replay a recorded perturbation on a sequence."""
    if record.kind is Kind.NOISE:
        return forward_noise(seq, int(record.params[0]), record.seed)
    if record.kind is Kind.SHUFFLE:
        lo, hi = record.params
        return shuffle_segment(seq, int(lo), int(hi), record.seed)
    lo, hi = record.params
    return drop_repeat(seq, int(lo), int(hi))


def _draw_record(kind: Kind, f: int, rng: np.random.Generator) -> PerturbationRecord:
    """Draw the op seed and parameters of one perturbation of an f-frame
    sequence. Parameters scale shared uniforms so that, for the same seed,
    narrower ranges always yield weaker-or-equal perturbations."""
    op_seed = int(rng.integers(0, 2**63 - 1))
    u_size = rng.random()
    u_pos = rng.random()
    if kind is Kind.NOISE:
        lo_t, hi_t = NOISE_T
        t = lo_t + int(u_size * (hi_t - lo_t + 1) * (1 - 1e-12))
        return PerturbationRecord(kind, (t,), op_seed)
    if kind is Kind.SHUFFLE:
        (a, b), min_len, max_len = SHUFFLE_FRAC, 2, f
    else:
        (a, b), min_len, max_len = DROP_FRAC, 1, max(1, f // 4)
    length = int(np.clip(round((a + u_size * (b - a)) * f), min_len, max_len))
    lo = int(u_pos * (f - length + 1) * (1 - 1e-12))
    return PerturbationRecord(kind, (lo, lo + length), op_seed)


def sample_perturbation(seq: MotionSequence, config: PerturbConfig,
                        seed: int) -> tuple[MotionSequence, PerturbationRecord]:
    """Draw one perturbation kind + parameters and apply it."""
    f = seq.frame_count
    if f < 2:
        raise InvalidConfig("perturbation needs at least 2 frames")
    rng = np.random.default_rng(seed)
    u = rng.random()
    probs = np.asarray(config.probs, dtype=np.float64)
    if f < 4 and probs[2] > 0.0:
        # no legal drop segment below 4 frames; fold its mass into noise
        probs = np.array([probs[0] + probs[2], probs[1], 0.0])
    cumulative = np.cumsum(probs)
    if u < cumulative[0]:
        kind = Kind.NOISE
    elif u < cumulative[1]:
        kind = Kind.SHUFFLE
    else:
        kind = Kind.DROP_REPEAT
    record = _draw_record(kind, f, rng)
    return apply_record(seq, record), record

