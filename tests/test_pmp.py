from __future__ import annotations

import hashlib

import numpy as np
import pytest

from motionloop.core import Category, MotionSequence, preset
from motionloop.errors import (
    EmptyBatch,
    EmptyCorpus,
    InvalidConfig,
    PoseDimExceedsMax,
    TooManyFrames,
)
from motionloop.pmp import (
    Conditioning,
    CorpusItem,
    PmpConfig,
    TrainConfig,
    grad_check,
    load_checkpoint,
    pmp_init,
    pmp_loss,
    pmp_refine,
    pmp_train,
    save_checkpoint,
    tokens_for,
)
from motionloop.scenes import corpus_items, make_corpus

SMALL = PmpConfig(layers=2, model_dim=32, heads=4, ffn_dim=48, max_frames=32,
                  max_pose_dim=66)


def human_seq(rng, f=8, scale=0.4):
    spec = preset(Category.HUMAN)
    return MotionSequence(spec, 16.0, rng.normal(size=(f, spec.pose_dim)) * scale)


def human_cond(config, strength=0.3):
    return Conditioning(tokens=tokens_for(config, ["human", "walk"]),
                        strength=strength, category=Category.HUMAN)


# ------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(InvalidConfig):
        PmpConfig(model_dim=30, heads=4)
    with pytest.raises(InvalidConfig):
        PmpConfig(layers=0)


def test_init_deterministic():
    a = pmp_init(SMALL, seed=9)
    b = pmp_init(SMALL, seed=9)
    assert a.param_names() == b.param_names()
    for name in a.param_names():
        assert np.array_equal(a.params[name], b.params[name])
    c = pmp_init(SMALL, seed=10)
    assert any(not np.array_equal(a.params[n], c.params[n])
               for n in a.param_names())


def test_forward_finite_on_zero_input():
    model = pmp_init(SMALL, seed=0)
    spec = preset(Category.HUMAN)
    seq = MotionSequence(spec, 16.0, np.zeros((6, spec.pose_dim)))
    out = pmp_refine(model, seq, human_cond(SMALL, strength=0.0))
    assert np.all(np.isfinite(out.frames))


# ------------------------------------------------------------------- refine

def test_refine_preserves_shape_across_categories():
    model = pmp_init(PmpConfig(layers=1, model_dim=32, heads=2, ffn_dim=48),
                     seed=1)
    rng = np.random.default_rng(2)
    for category in (Category.HUMAN, Category.ANIMAL, Category.GENERIC_OBJECT):
        spec = preset(category)
        seq = MotionSequence(spec, 16.0, rng.normal(size=(10, spec.pose_dim)))
        cond = Conditioning(tokens=(0, 1), strength=0.5, category=category)
        out = pmp_refine(model, seq, cond)
        assert out.frames.shape == seq.frames.shape
        assert out.model is spec


def test_refine_token_order_invariance():
    model = pmp_init(SMALL, seed=3)
    rng = np.random.default_rng(4)
    seq = human_seq(rng)
    a = pmp_refine(model, seq, Conditioning(tokens=(0, 1, 5), strength=0.2,
                                            category=Category.HUMAN))
    b = pmp_refine(model, seq, Conditioning(tokens=(5, 0, 1), strength=0.2,
                                            category=Category.HUMAN))
    np.testing.assert_allclose(a.frames, b.frames, atol=1e-6)


def test_refine_iterations_config():
    cfg = PmpConfig(layers=1, model_dim=32, heads=2, ffn_dim=32,
                    max_pose_dim=66, refine_iterations=2)
    model = pmp_init(cfg, seed=44)
    rng = np.random.default_rng(45)
    seq = human_seq(rng)
    out = pmp_refine(model, seq, human_cond(cfg))
    assert out.frames.shape == seq.frames.shape
    assert np.all(np.isfinite(out.frames))
    # a second pass changes the output (same weights, one iteration)
    single_cfg = PmpConfig(layers=1, model_dim=32, heads=2, ffn_dim=32,
                           max_pose_dim=66, refine_iterations=1)
    single = pmp_init(single_cfg, seed=44)
    out1 = pmp_refine(single, seq, human_cond(single_cfg))
    assert not np.allclose(out.frames, out1.frames)


def test_refine_frame_and_dim_limits():
    model = pmp_init(SMALL, seed=5)
    rng = np.random.default_rng(6)
    spec = preset(Category.HUMAN)
    with pytest.raises(TooManyFrames):
        pmp_refine(model, MotionSequence(spec, 16.0, rng.normal(size=(40, 66))),
                   human_cond(SMALL))
    wide = preset(Category.GENERIC_OBJECT)
    bad = MotionSequence(wide, 16.0, rng.normal(size=(4, 63)))
    small_cfg = PmpConfig(layers=1, model_dim=16, heads=2, ffn_dim=16,
                          max_pose_dim=48)
    with pytest.raises(PoseDimExceedsMax):
        pmp_refine(pmp_init(small_cfg, 0), bad,
                   Conditioning(tokens=(), strength=0.0,
                                category=Category.GENERIC_OBJECT))


# --------------------------------------------------------------------- loss

def test_loss_zero_when_target_is_model_output():
    model = pmp_init(SMALL, seed=7)
    rng = np.random.default_rng(8)
    seq = human_seq(rng)
    cond = human_cond(SMALL)
    out = pmp_refine(model, seq, cond)
    loss, grads = pmp_loss(model, [(seq, out, cond)])
    assert loss == pytest.approx(0.0, abs=1e-24)
    for g in grads.values():
        assert np.allclose(g, 0.0, atol=1e-12)


def test_loss_batch_duplication_invariance():
    model = pmp_init(SMALL, seed=9)
    rng = np.random.default_rng(10)
    batch = [(human_seq(rng), human_seq(rng), human_cond(SMALL))
             for _ in range(3)]
    loss_once, _ = pmp_loss(model, batch)
    loss_twice, _ = pmp_loss(model, batch + batch)
    assert loss_twice == pytest.approx(loss_once, rel=1e-12)


def test_loss_empty_batch():
    model = pmp_init(SMALL, seed=11)
    with pytest.raises(EmptyBatch):
        pmp_loss(model, [])


def test_loss_ignores_padded_channels():
    # gradients of the output projection rows beyond every item's pose_dim
    # columns stay zero: padding cannot leak signal
    cfg = PmpConfig(layers=1, model_dim=16, heads=2, ffn_dim=16,
                    max_pose_dim=80)
    model = pmp_init(cfg, seed=12)
    rng = np.random.default_rng(13)
    spec = preset(Category.HUMAN)  # 66 of 80 channels used
    seq = MotionSequence(spec, 16.0, rng.normal(size=(5, 66)))
    tgt = MotionSequence(spec, 16.0, rng.normal(size=(5, 66)))
    cond = Conditioning(tokens=(0,), strength=0.1, category=Category.HUMAN)
    _, grads = pmp_loss(model, [(seq, tgt, cond)])
    assert np.allclose(grads["out_proj_w"][:, 66:], 0.0)
    assert np.allclose(grads["out_proj_b"][66:], 0.0)


# --------------------------------------------------------------- grad check

@pytest.mark.parametrize("layers", [1, 2])
def test_grad_check_small_configs(layers):
    cfg = PmpConfig(layers=layers, model_dim=32, heads=4, ffn_dim=48,
                    max_frames=32, max_pose_dim=66)
    model = pmp_init(cfg, seed=20 + layers)
    rng = np.random.default_rng(21)
    example = (human_seq(rng), human_seq(rng), human_cond(cfg))
    err = grad_check(model, example, epsilon=1e-5, samples=200, seed=0)
    assert err < 1e-4


def test_grad_check_degenerate_zero_example():
    model = pmp_init(SMALL, seed=22)
    spec = preset(Category.HUMAN)
    zeros = MotionSequence(spec, 16.0, np.zeros((4, 66)))
    cond = Conditioning(tokens=(), strength=0.0, category=Category.HUMAN)
    err = grad_check(model, (zeros, zeros, cond), epsilon=1e-5, samples=40,
                     seed=1)
    assert np.isfinite(err)


def test_grad_check_epsilon_stability():
    model = pmp_init(PmpConfig(layers=1, model_dim=16, heads=2, ffn_dim=16,
                               max_pose_dim=66), seed=23)
    rng = np.random.default_rng(24)
    example = (human_seq(rng, f=5), human_seq(rng, f=5),
               Conditioning(tokens=(0,), strength=0.2, category=Category.HUMAN))
    e1 = grad_check(model, example, epsilon=1e-5, samples=60, seed=2)
    e2 = grad_check(model, example, epsilon=5e-6, samples=60, seed=2)
    assert e2 < max(10 * e1, 1e-6)


def test_grad_check_rejects_bad_epsilon():
    model = pmp_init(SMALL, seed=25)
    rng = np.random.default_rng(26)
    example = (human_seq(rng), human_seq(rng), human_cond(SMALL))
    with pytest.raises(InvalidConfig):
        grad_check(model, example, epsilon=1e-2)


# ------------------------------------------------------------------ training

def small_corpus(n=24, frames=10):
    return corpus_items(make_corpus(n, seed=99, frames=frames))


def test_train_zero_steps_is_identity():
    model = pmp_init(SMALL, seed=30)
    before = {k: v.copy() for k, v in model.params.items()}
    model, log = pmp_train(model, small_corpus(), TrainConfig(steps=0), seed=0)
    assert log == []
    for name, arr in model.params.items():
        assert np.array_equal(arr, before[name])


def test_train_deterministic():
    corpus = small_corpus()
    tc = TrainConfig(steps=20, batch_size=4)
    a, _ = pmp_train(pmp_init(SMALL, seed=31), corpus, tc, seed=5)
    b, _ = pmp_train(pmp_init(SMALL, seed=31), corpus, tc, seed=5)
    for name in a.param_names():
        assert np.array_equal(a.params[name], b.params[name])


def test_train_loss_decreases():
    corpus = small_corpus(n=48, frames=10)
    tc = TrainConfig(steps=300, batch_size=8)
    _, log = pmp_train(pmp_init(SMALL, seed=32), corpus, tc, seed=6)
    losses = np.array([l for _, l in log])
    assert losses[-40:].mean() < losses[:40].mean()


def test_train_empty_corpus():
    with pytest.raises(EmptyCorpus):
        pmp_train(pmp_init(SMALL, seed=33), [], TrainConfig(steps=1), seed=0)


def test_train_rejects_mixed_frame_counts():
    spec = preset(Category.HUMAN)
    rng = np.random.default_rng(34)
    corpus = [
        CorpusItem(MotionSequence(spec, 16.0, rng.normal(size=(8, 66))), ("human",)),
        CorpusItem(MotionSequence(spec, 16.0, rng.normal(size=(12, 66))), ("human",)),
    ]
    with pytest.raises(InvalidConfig):
        pmp_train(pmp_init(SMALL, seed=35), corpus, TrainConfig(steps=1), seed=0)


def test_shared_model_serves_all_categories():
    corpus = small_corpus(n=30, frames=10)
    categories = {item.motion.model.category for item in corpus}
    assert categories == {Category.HUMAN, Category.ANIMAL, Category.GENERIC_OBJECT}
    model, _ = pmp_train(pmp_init(SMALL, seed=36), corpus,
                         TrainConfig(steps=10, batch_size=4), seed=7)
    rng = np.random.default_rng(37)
    for category in categories:
        spec = preset(category)
        seq = MotionSequence(spec, 16.0, rng.normal(size=(6, spec.pose_dim)))
        cond = Conditioning(tokens=(0,), strength=0.2, category=category)
        out = pmp_refine(model, seq, cond)
        assert out.frames.shape == seq.frames.shape


# --------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip(tmp_path):
    model = pmp_init(SMALL, seed=40)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    assert raw[:4] == b"PMP1"
    back = load_checkpoint(path)
    assert back.config == model.config
    for name in model.param_names():
        assert np.array_equal(back.params[name], model.params[name])
    rng = np.random.default_rng(41)
    seq = human_seq(rng)
    cond = human_cond(SMALL)
    np.testing.assert_array_equal(pmp_refine(model, seq, cond).frames,
                                  pmp_refine(back, seq, cond).frames)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(InvalidConfig):
        load_checkpoint(path)


def test_checkpoint_refuses_non_finite_weights(tmp_path):
    model = pmp_init(SMALL, seed=42)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    model.params["layer1.ffn_b2"][3] = np.inf
    with pytest.raises(InvalidConfig, match="layer1.ffn_b2"):
        save_checkpoint(model, tmp_path / "diverged.ckpt")
    assert not (tmp_path / "diverged.ckpt").exists()
    raw = bytearray(path.read_bytes())
    raw[-8:] = np.array([np.nan]).astype("<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(InvalidConfig, match="out_proj_b"):
        load_checkpoint(path)


@pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
def test_train_config_rejects_a_learning_rate_outside_zero_to_inf(lr):
    with pytest.raises(InvalidConfig):
        TrainConfig(lr=lr)


# sha256 of the reference prior's checkpoint (default PmpConfig, 512-motion
# corpus, 5000 steps, seed 42), pinned so that a faster training step cannot
# change a weight silently. Recorded with numpy 2.4 and OpenBLAS 0.3.31 on
# x86-64; another platform's BLAS or libm rounding may give another digest.
REFERENCE_PRIOR_DIGEST = "f973557a7faaa8d6d344bc776a65132b078ab97424a73e06a7ec30ce370c8c30"


def test_reference_prior_matches_golden_digest(trained_prior, tmp_path):
    path = tmp_path / "prior.ckpt"
    save_checkpoint(trained_prior.model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REFERENCE_PRIOR_DIGEST
