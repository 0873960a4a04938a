from __future__ import annotations

import numpy as np
import pytest

from motionloop import perturb
from motionloop.core import Category, MotionSequence, preset
from motionloop.errors import (
    InvalidConfig,
    RangeOutOfBounds,
    SegmentTooLarge,
    StepOutOfRange,
)
from motionloop.perturb import (
    ALPHA_BAR,
    GAMMA,
    Kind,
    PerturbConfig,
)


def make_seq(frames):
    return MotionSequence(model=preset(Category.GENERIC_OBJECT), fps=16.0,
                          frames=np.asarray(frames, dtype=float))


def random_seq(rng, f=16):
    return make_seq(rng.normal(size=(f, 63)))


# ---------------------------------------------------------------- schedule

def test_linear_schedule_invariants():
    assert GAMMA.shape == ALPHA_BAR.shape == (1000,)
    assert np.array_equal(GAMMA, np.linspace(1e-4, 0.02, 1000))
    assert np.all(np.diff(ALPHA_BAR) < 0)
    assert 0 < ALPHA_BAR[-1] < ALPHA_BAR[0] < 1
    assert np.array_equal(ALPHA_BAR, np.cumprod(1 - GAMMA))
    for table in (GAMMA, ALPHA_BAR):
        with pytest.raises(ValueError):
            table[0] = 0.5


# ------------------------------------------------------------ forward noise

def test_forward_noise_identity_limit():
    # the closed-form map, exactly, at the first step (nearest the
    # identity) and the last (nearest pure noise)
    rng = np.random.default_rng(0)
    seq = random_seq(rng)
    x = seq.frames
    for t in (1, 1000):
        eps = np.random.default_rng(42).standard_normal(x.shape)
        out = perturb.forward_noise(seq, t, seed=42)
        expected = np.sqrt(ALPHA_BAR[t - 1]) * x + np.sqrt(1 - ALPHA_BAR[t - 1]) * eps
        assert np.array_equal(out.frames, expected)


def test_forward_noise_variance_monte_carlo():
    # zero input: output entries ~ N(0, 1 - abar_t)
    t = 200
    seq = make_seq(np.zeros((25, 63)))
    samples = []
    for seed in range(64):
        samples.append(perturb.forward_noise(seq, t, seed).frames.ravel())
    draws = np.concatenate(samples)  # 100800 draws
    assert draws.size > 1e5
    target = 1.0 - ALPHA_BAR[t - 1]
    assert np.var(draws) == pytest.approx(target, rel=0.02)
    assert abs(np.mean(draws)) < 3 * np.sqrt(target / draws.size) * 2


def test_forward_noise_deterministic_replay():
    rng = np.random.default_rng(1)
    seq = random_seq(rng)
    a = perturb.forward_noise(seq, 10, seed=999)
    b = perturb.forward_noise(seq, 10, seed=999)
    assert np.array_equal(a.frames, b.frames)


def test_forward_noise_step_out_of_range():
    rng = np.random.default_rng(2)
    seq = random_seq(rng)
    with pytest.raises(StepOutOfRange):
        perturb.forward_noise(seq, 0, 0)
    with pytest.raises(StepOutOfRange):
        perturb.forward_noise(seq, 1001, 0)


# ---------------------------------------------------------- shuffle segment

def test_shuffle_singleton_is_identity():
    rng = np.random.default_rng(3)
    seq = random_seq(rng)
    out = perturb.shuffle_segment(seq, 5, 6, seed=7)
    assert np.array_equal(out.frames, seq.frames)


def test_shuffle_preserves_multiset():
    rng = np.random.default_rng(4)
    seq = random_seq(rng)
    out = perturb.shuffle_segment(seq, 3, 12, seed=11)
    key = lambda a: sorted(map(tuple, a))
    assert key(out.frames) == key(seq.frames)
    assert np.array_equal(out.frames[:3], seq.frames[:3])
    assert np.array_equal(out.frames[12:], seq.frames[12:])


def test_shuffle_full_range_changes_ramp():
    seq = make_seq(np.arange(16)[:, None] * np.ones((16, 63)))
    out = perturb.shuffle_segment(seq, 0, 16, seed=7)
    assert not np.array_equal(out.frames, seq.frames)
    # replay oracle: independent Fisher-Yates with the same draw sequence
    g = np.random.default_rng(7)
    perm = list(range(16))
    for i in range(15, 0, -1):
        j = int(g.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    np.testing.assert_array_equal(out.frames, seq.frames[perm])


def test_shuffle_range_out_of_bounds():
    rng = np.random.default_rng(5)
    seq = random_seq(rng)
    for lo, hi in [(-1, 4), (4, 4), (5, 3), (0, 17)]:
        with pytest.raises(RangeOutOfBounds):
            perturb.shuffle_segment(seq, lo, hi, 0)


# -------------------------------------------------------------- drop repeat

def test_drop_repeat_minimal_case():
    seq = make_seq(np.arange(8)[:, None] * np.ones((8, 63)))
    out = perturb.drop_repeat(seq, 0, 1)
    expected = np.array([1, 2, 3, 4, 5, 6, 7, 1], dtype=float)
    np.testing.assert_array_equal(out.frames[:, 0], expected)
    assert out.frame_count == 8


def test_drop_repeat_length_preserved():
    rng = np.random.default_rng(6)
    for f in (8, 16, 33):
        seq = random_seq(rng, f)
        out = perturb.drop_repeat(seq, 2, 2 + f // 4)
        assert out.frame_count == f


def test_drop_repeat_matches_concatenation_oracle():
    rng = np.random.default_rng(7)
    seq = random_seq(rng, 16)
    out = perturb.drop_repeat(seq, 4, 8)
    retained = [seq.frames[i] for i in list(range(4)) + list(range(8, 16))]
    expected = [retained[i % len(retained)] for i in range(16)]
    np.testing.assert_array_equal(out.frames, np.array(expected))


def test_drop_repeat_only_retained_frames_appear():
    rng = np.random.default_rng(8)
    seq = random_seq(rng, 16)
    out = perturb.drop_repeat(seq, 5, 9)
    retained = {tuple(r) for i, r in enumerate(seq.frames) if not 5 <= i < 9}
    assert all(tuple(r) in retained for r in out.frames)


def test_drop_repeat_segment_too_large():
    rng = np.random.default_rng(9)
    seq = random_seq(rng, 16)
    with pytest.raises(SegmentTooLarge):
        perturb.drop_repeat(seq, 0, 5)  # 5 > 16 // 4


# ------------------------------------------------------- sample perturbation

def test_sample_degenerate_distribution():
    rng = np.random.default_rng(10)
    seq = random_seq(rng)
    config = PerturbConfig(probs=(1.0, 0.0, 0.0))
    for seed in range(20):
        _, record = perturb.sample_perturbation(seq, config, seed)
        assert record.kind is Kind.NOISE


def test_sample_kind_frequencies():
    rng = np.random.default_rng(11)
    seq = random_seq(rng)
    config = PerturbConfig()
    counts = {k: 0 for k in Kind}
    n = 10_000
    for seed in range(n):
        _, record = perturb.sample_perturbation(seq, config, seed)
        counts[record.kind] += 1
    for k in Kind:
        assert 0.30 <= counts[k] / n <= 0.37


def test_sample_replay_is_bitwise():
    rng = np.random.default_rng(12)
    seq = random_seq(rng)
    config = PerturbConfig()
    for seed in (0, 5, 42, 1234):
        out, record = perturb.sample_perturbation(seq, config, seed)
        replayed = perturb.apply_record(seq, record)
        assert np.array_equal(out.frames, replayed.frames)


def test_sample_preserves_shape():
    rng = np.random.default_rng(13)
    config = PerturbConfig()
    for f in (8, 16, 31):
        seq = random_seq(rng, f)
        for seed in range(12):
            out, _ = perturb.sample_perturbation(seq, config, seed)
            assert out.frames.shape == seq.frames.shape


def test_invalid_config_rejected():
    with pytest.raises(InvalidConfig):
        PerturbConfig(probs=(0.5, 0.5, 0.5))


def test_forward_noise_mean_tracks_scaled_input():
    # constant nonzero input: mean of outputs approaches sqrt(abar_t) * input
    t = 100
    seq = make_seq(np.full((10, 63), 5.0))
    acc = np.zeros(seq.frames.shape)
    n = 200
    for seed in range(n):
        acc += perturb.forward_noise(seq, t, seed).frames
    target = np.sqrt(ALPHA_BAR[t - 1]) * 5.0
    assert acc.mean() / (10 * 63) * (10 * 63) / n == pytest.approx(target, rel=0.02)
