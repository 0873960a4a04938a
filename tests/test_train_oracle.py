"""The training step against an allocating oracle, bitwise.

``pmp_train`` runs Adam in place, ``backward`` writes each gradient once,
attention works on strided views of its heads, and the forward and backward
passes update their temporaries in place. The oracle below is the earlier
form of the same arithmetic: fresh arrays for every intermediate, heads
copied into contiguous arrays, layer norm through ``x.var``, a backward
pass that zero-fills every gradient and accumulates into it, and an Adam
loop that rebinds each tensor. The two must agree to the last bit, so the
in-place forms are free to change speed and nothing else.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from scipy.special import erf

from motionloop.perturb import PerturbConfig, sample_perturbation
from motionloop.pmp import (
    PmpConfig,
    TrainConfig,
    conditioning_for,
    pmp_init,
    pmp_loss,
    pmp_train,
)
from motionloop.pmp import model as pmp_model
from motionloop.scenes import corpus_items, make_corpus

SMALL = PmpConfig(layers=2, model_dim=32, heads=4, ffn_dim=48, max_frames=32,
                  max_pose_dim=66)


# ------------------------------------------------------------------ oracle

def _ln_fwd(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + pmp_model._LN_EPS)
    xhat = (x - mu) * inv
    return g * xhat + b, (xhat, inv)


def _ln_bwd(dy, g, cache):
    xhat, inv = cache
    dg = (dy * xhat).reshape(-1, dy.shape[-1]).sum(axis=0)
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2), dg, db


_lin, _outer = pmp_model._lin, pmp_model._outer_grad


def _split(x, heads):
    b, f, d = x.shape
    return np.ascontiguousarray(x.reshape(b, f, heads, d // heads).transpose(0, 2, 1, 3))


def _merge(x):
    b, h, f, hd = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(b, f, h * hd)


def _attn_fwd(xq, xkv, wq, wk, wv, wo, heads, key_mask=None):
    q = _split(_lin(xq, wq), heads)
    k = _split(_lin(xkv, wk), heads)
    v = _split(_lin(xkv, wv), heads)
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = (q @ k.swapaxes(-1, -2)) * scale
    if key_mask is not None:
        scores = np.where(key_mask[:, None, None, :] > 0, scores, -1e30)
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    probs = e / e.sum(axis=-1, keepdims=True)
    merged = _merge(probs @ v)
    return _lin(merged, wo), (xq, xkv, q, k, v, probs, merged, scale)


def _attn_bwd(dout, wq, wk, wv, wo, heads, cache):
    xq, xkv, q, k, v, probs, merged, scale = cache
    dwo = _outer(merged, dout)
    dctx = _split(_lin(dout, wo.T), heads)
    dprobs = dctx @ v.swapaxes(-1, -2)
    dv = probs.swapaxes(-1, -2) @ dctx
    inner = (dprobs * probs).sum(axis=-1, keepdims=True)
    dscores = probs * (dprobs - inner)
    dq = (dscores @ k) * scale
    dk = (dscores.swapaxes(-1, -2) @ q) * scale
    dq_m, dk_m, dv_m = _merge(dq), _merge(dk), _merge(dv)
    dxkv = _lin(dk_m, wk.T) + _lin(dv_m, wv.T)
    return (_lin(dq_m, wq.T), dxkv, _outer(xq, dq_m), _outer(xkv, dk_m),
            _outer(xkv, dv_m), dwo)


def _forward(model, x, onehot, tok_idx, tok_mask, feats):
    cfg, p = model.config, model.params
    b, f, _ = x.shape
    mu = x.mean(axis=1, keepdims=True)
    x = x - mu
    xc = np.concatenate([x, np.broadcast_to(onehot[:, None, :],
                                            (b, f, onehot.shape[1]))], axis=2)
    h = _lin(xc, p["in_proj_w"]) + p["in_proj_b"] + p["pos_emb"][:f]
    strength_row = (feats @ p["strength_w"] + p["strength_b"])[:, None, :]
    memory = np.concatenate([p["token_emb"][tok_idx], strength_row], axis=1)
    memory = memory * tok_mask[:, :, None]
    caches = []
    for i in range(cfg.layers):
        w = {k[len(f"layer{i}."):]: v for k, v in p.items()
             if k.startswith(f"layer{i}.")}
        a, ln1c = _ln_fwd(h, w["ln1_g"], w["ln1_b"])
        sa, sac = _attn_fwd(a, a, w["self_wq"], w["self_wk"], w["self_wv"],
                            w["self_wo"], cfg.heads)
        h = h + sa
        bq, ln2c = _ln_fwd(h, w["ln2_g"], w["ln2_b"])
        ca, cac = _attn_fwd(bq, memory, w["cross_wq"], w["cross_wk"], w["cross_wv"],
                            w["cross_wo"], cfg.heads, key_mask=tok_mask)
        h = h + ca
        c, ln3c = _ln_fwd(h, w["ln3_g"], w["ln3_b"])
        u = _lin(c, w["ffn_w1"]) + w["ffn_b1"]
        phi = 0.5 * (1.0 + erf(u / np.sqrt(2.0)))
        g = u * phi
        h = h + (_lin(g, w["ffn_w2"]) + w["ffn_b2"])
        caches.append((ln1c, sac, ln2c, cac, ln3c, (c, u, phi, g)))
    y = _lin(h, p["out_proj_w"]) + p["out_proj_b"] + mu
    return y, (xc, memory, tok_idx, tok_mask, feats, caches, h, f)


def _backward(model, cache, dy):
    cfg, p = model.config, model.params
    xc, memory, tok_idx, tok_mask, feats, caches, h_final, f = cache
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    grads["out_proj_w"] += _outer(h_final, dy)
    grads["out_proj_b"] += dy.sum(axis=(0, 1))
    dh = _lin(dy, p["out_proj_w"].T)
    dmem = np.zeros_like(memory)
    for i in reversed(range(cfg.layers)):
        pref = f"layer{i}."
        ln1c, sac, ln2c, cac, ln3c, (c, u, phi, g) = caches[i]
        grads[pref + "ffn_w2"] += _outer(g, dh)
        grads[pref + "ffn_b2"] += dh.sum(axis=(0, 1))
        dg = _lin(dh, p[pref + "ffn_w2"].T)
        pdf = np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
        du = dg * (phi + u * pdf)
        grads[pref + "ffn_w1"] += _outer(c, du)
        grads[pref + "ffn_b1"] += du.sum(axis=(0, 1))
        dx, dgn, dbn = _ln_bwd(_lin(du, p[pref + "ffn_w1"].T), p[pref + "ln3_g"], ln3c)
        grads[pref + "ln3_g"] += dgn
        grads[pref + "ln3_b"] += dbn
        dh = dh + dx
        for block, lnc, ln, attn_cache in (("cross", ln2c, "ln2", cac),
                                          ("self", ln1c, "ln1", sac)):
            dxq, dxkv, dwq, dwk, dwv, dwo = _attn_bwd(
                dh, p[pref + block + "_wq"], p[pref + block + "_wk"],
                p[pref + block + "_wv"], p[pref + block + "_wo"], cfg.heads,
                attn_cache)
            for name, d in (("_wq", dwq), ("_wk", dwk), ("_wv", dwv), ("_wo", dwo)):
                grads[pref + block + name] += d
            if block == "cross":
                dmem += dxkv
            else:
                dxq = dxq + dxkv
            dx, dgn, dbn = _ln_bwd(dxq, p[pref + ln + "_g"], lnc)
            grads[pref + ln + "_g"] += dgn
            grads[pref + ln + "_b"] += dbn
            dh = dh + dx
    grads["pos_emb"][:f] += dh.sum(axis=0)
    grads["in_proj_w"] += _outer(xc, dh)
    grads["in_proj_b"] += dh.sum(axis=(0, 1))
    dmem = dmem * tok_mask[:, :, None]
    drow = dmem[:, -1, :]
    grads["strength_w"] += feats.T @ drow
    grads["strength_b"] += drow.sum(axis=0)
    dtok = dmem[:, :-1, :]
    np.add.at(grads["token_emb"], tok_idx.ravel(), dtok.reshape(-1, dtok.shape[-1]))
    return grads


def _oracle_loss(model, batch):
    perturbed, targets, conds = zip(*batch)
    x, onehot, chan_mask, tok_idx, tok_mask, feats = pmp_model.pack_inputs(
        model.config, list(perturbed), list(conds))
    t = np.zeros_like(x)
    for i, target in enumerate(targets):
        t[i, :, :target.frames.shape[1]] = target.frames
    y, cache = _forward(model, x, onehot, tok_idx, tok_mask, feats)
    diff = (y - t) * chan_mask[:, None, :]
    n_valid = float(chan_mask.sum() * x.shape[1])
    loss = float((diff ** 2).sum() / n_valid)
    return loss, _backward(model, cache, 2.0 * diff / n_valid)


def _oracle_train(model, corpus, train_config, seed):
    """pmp_train's loop with the allocating Adam update."""
    rng = np.random.default_rng(seed)
    velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
    second = {k: np.zeros_like(v) for k, v in model.params.items()}
    conds = [conditioning_for(model.config, item.motion, item.tags) for item in corpus]
    b1, b2, eps = 0.9, 0.999, 1e-8
    log = []
    for step in range(train_config.steps):
        idx = rng.integers(0, len(corpus), size=train_config.batch_size)
        batch = []
        for i in idx:
            item = corpus[int(i)]
            op_seed = int(rng.integers(0, 2**63 - 1))
            if rng.random() < 0.1:
                perturbed = item.motion
            else:
                perturbed, _ = sample_perturbation(item.motion, PerturbConfig(), op_seed)
            batch.append((perturbed, item.motion, conds[int(i)]))
        loss, grads = _oracle_loss(model, batch)
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


def _digest(model) -> dict[str, str]:
    return {name: hashlib.sha256(arr.tobytes()).hexdigest()
            for name, arr in model.params.items()}


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("config, steps, batch_size", [
    (SMALL, 20, 4),
    (PmpConfig(), 3, 16),
], ids=["small-20-steps", "reference-3-steps"])
def test_train_matches_allocating_oracle_bitwise(config, steps, batch_size):
    corpus = corpus_items(make_corpus(48, seed=99, frames=10))
    tc = TrainConfig(steps=steps, batch_size=batch_size)
    model, log = pmp_train(pmp_init(config, seed=31), corpus, tc, seed=5)
    oracle, oracle_log = _oracle_train(pmp_init(config, seed=31), corpus, tc, seed=5)
    assert log == oracle_log
    assert list(model.params) == list(oracle.params)
    assert _digest(model) == _digest(oracle)


def test_loss_and_gradients_match_allocating_oracle_bitwise():
    model = pmp_init(SMALL, seed=8)
    corpus = corpus_items(make_corpus(6, seed=4, frames=12))
    batch = [(sample_perturbation(item.motion, PerturbConfig(), 50 + i)[0], item.motion,
              conditioning_for(model.config, item.motion, item.tags))
             for i, item in enumerate(corpus)]
    loss, grads = pmp_loss(model, batch)
    oracle_loss, oracle_grads = _oracle_loss(model, batch)
    assert loss == oracle_loss
    assert list(grads) == list(oracle_grads) == model.param_names()
    for name, g in grads.items():
        assert g.shape == oracle_grads[name].shape, name
        # the oracle's zero fill turns a -0.0 sum into +0.0; values are equal
        np.testing.assert_array_equal(g, oracle_grads[name], err_msg=name)


def test_layer_norm_matches_variance_formula_bitwise():
    rng = np.random.default_rng(12)
    d = 24
    g, b = rng.normal(size=d), rng.normal(size=d)
    rows = [rng.normal(size=(3, 5, d)),
            rng.normal(size=(7, d)) * 1e-6 + 1e8,   # large offset, tiny spread
            rng.normal(size=(2, 4, d)) * 1e5,
            np.full((2, 3, d), 7.25),                 # constant rows: variance 0
            np.zeros((1, d)),
            np.concatenate([np.full((1, d), -3.0), rng.normal(size=(2, d))])]
    for x in rows:
        y, (xhat, inv) = pmp_model._layer_norm_fwd(x.copy(), g, b)
        y_ref, (xhat_ref, inv_ref) = _ln_fwd(x, g, b)
        assert y.tobytes() == y_ref.tobytes()
        assert xhat.tobytes() == xhat_ref.tobytes()
        assert inv.tobytes() == inv_ref.tobytes()
        dy = rng.normal(size=x.shape)
        got = pmp_model._layer_norm_bwd(dy, g, (xhat, inv))
        want = _ln_bwd(dy, g, (xhat_ref, inv_ref))
        for a, w in zip(got, want):
            assert a.tobytes() == w.tobytes()


# ---------------------------------------------------------------- aliasing

def _small_batch(model, seed):
    corpus = corpus_items(make_corpus(4, seed=seed, frames=8))
    return [(sample_perturbation(item.motion, PerturbConfig(), seed + i)[0],
             item.motion, conditioning_for(model.config, item.motion, item.tags))
            for i, item in enumerate(corpus)]


def test_successive_losses_return_unshared_gradients():
    model = pmp_init(SMALL, seed=14)
    _, first = pmp_loss(model, _small_batch(model, 1))
    kept = {name: g.copy() for name, g in first.items()}
    _, second = pmp_loss(model, _small_batch(model, 2))
    for name, g in first.items():
        assert np.array_equal(g, kept[name]), name
        for other in second.values():
            assert not np.shares_memory(g, other), name
        assert not any(np.shares_memory(g, w) for w in model.params.values()), name


def test_train_updates_the_passed_model_in_place_and_spares_a_copy():
    model = pmp_init(SMALL, seed=15)
    arrays = dict(model.params)
    before = model.copy()
    start = _digest(before)
    trained, _ = pmp_train(model, corpus_items(make_corpus(12, seed=3, frames=8)),
                           TrainConfig(steps=3, batch_size=4), seed=2)
    assert trained is model
    assert all(trained.params[name] is arr for name, arr in arrays.items())
    assert _digest(before) == start
    assert _digest(trained) != start
