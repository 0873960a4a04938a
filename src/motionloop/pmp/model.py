"""Motion-prior transformer: forward pass, exact backward pass, checkpoints.

A single shared model refines motion sequences of every category. Frames
are zero-padded to ``max_pose_dim`` channels, concatenated with a category
one-hot, projected into the model width, and processed by pre-norm blocks:
self-attention over frames, cross-attention into a conditioning memory
(token embeddings plus one motion-strength row, order-free), and a GELU
feedforward, with residual connections throughout. The output projection
directly predicts the corrected pose.

All math is float64 numpy; the backward pass returns exact derivatives of
the MSE loss for every parameter, verified against central differences.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import erf

from ..core import Category, MotionSequence, config_from_json, load_json
from ..errors import (
    EmptyBatch,
    InvalidConfig,
    PoseDimExceedsMax,
    TooManyFrames,
)

CATEGORIES = (Category.HUMAN, Category.ANIMAL, Category.GENERIC_OBJECT)
MAX_TOKENS = 32
MAX_REFINE_ITERATIONS = 100  # forward passes a checkpoint's config may ask of a refine
FOURIER_FEATURES = 16
_LN_EPS = 1e-5

DEFAULT_VOCAB = ("static", "walk", "reach", "drop", "slide", "orbit",
                 "human", "animal", "object")


@dataclass(frozen=True)
class PmpConfig:
    layers: int = 4
    model_dim: int = 128
    heads: int = 4
    ffn_dim: int = 256
    max_frames: int = 128
    vocab: tuple[str, ...] = DEFAULT_VOCAB
    max_pose_dim: int = 165  # the upstream human model's pose layout (55 joints x 3)
    refine_iterations: int = 1

    def __post_init__(self):
        if min(self.layers, self.model_dim, self.heads, self.ffn_dim,
               self.max_frames, self.max_pose_dim) < 1:
            raise InvalidConfig("all size fields must be positive")
        if self.model_dim % self.heads != 0:
            raise InvalidConfig("model_dim must be divisible by heads")
        if len(self.vocab) != len(set(self.vocab)):
            raise InvalidConfig("vocab entries must be unique")
        if not 1 <= self.refine_iterations <= MAX_REFINE_ITERATIONS:
            raise InvalidConfig(f"refine_iterations must lie in 1..{MAX_REFINE_ITERATIONS}")

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str | bytes) -> "PmpConfig":
        """Strict inverse of ``to_json``; absent keys keep their defaults."""
        return config_from_json(cls(), load_json(text, "PMP config"), "PMP config")


@dataclass(frozen=True)
class Conditioning:
    tokens: tuple[int, ...]
    strength: float
    category: Category

    def __post_init__(self):
        if len(self.tokens) > MAX_TOKENS:
            raise InvalidConfig(f"at most {MAX_TOKENS} conditioning tokens")
        if not 0 <= self.strength < math.inf:
            raise InvalidConfig(f"strength must be finite and non-negative, "
                                f"got {self.strength}")


@dataclass
class PmpModel:
    config: PmpConfig
    params: dict[str, np.ndarray] = field(default_factory=dict)

    def param_names(self) -> list[str]:
        return list(self.params.keys())

    def copy(self) -> "PmpModel":
        return PmpModel(self.config, {k: v.copy() for k, v in self.params.items()})


def _param_shapes(config: PmpConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Tensor declaration order; also the checkpoint serialization order.
    A generator, so a reader can stop partway through a huge config."""
    d, ffn = config.model_dim, config.ffn_dim
    in_dim = config.max_pose_dim + len(CATEGORIES)
    yield from [
        ("in_proj_w", (in_dim, d)),
        ("in_proj_b", (d,)),
        ("pos_emb", (config.max_frames, d)),
    ]
    for i in range(config.layers):
        p = f"layer{i}."
        yield from [
            (p + "ln1_g", (d,)), (p + "ln1_b", (d,)),
            (p + "self_wq", (d, d)), (p + "self_wk", (d, d)),
            (p + "self_wv", (d, d)), (p + "self_wo", (d, d)),
            (p + "ln2_g", (d,)), (p + "ln2_b", (d,)),
            (p + "cross_wq", (d, d)), (p + "cross_wk", (d, d)),
            (p + "cross_wv", (d, d)), (p + "cross_wo", (d, d)),
            (p + "ln3_g", (d,)), (p + "ln3_b", (d,)),
            (p + "ffn_w1", (d, ffn)), (p + "ffn_b1", (ffn,)),
            (p + "ffn_w2", (ffn, d)), (p + "ffn_b2", (d,)),
        ]
    yield from [
        ("token_emb", (len(config.vocab), d)),
        ("strength_w", (FOURIER_FEATURES, d)),
        ("strength_b", (d,)),
        ("out_proj_w", (d, config.max_pose_dim)),
        ("out_proj_b", (config.max_pose_dim,)),
    ]


def pmp_init(config: PmpConfig, seed: int) -> PmpModel:
    """Scaled-uniform initialization, deterministic in the seed.

    Layer-norm scales start at one, every other vector (the biases and
    layer-norm shifts) and the position table at zero. Other matrices draw
    from U(-1/sqrt(fan_in), 1/sqrt(fan_in)), the token table with its width
    as fan-in.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    try:
        for name, shape in _param_shapes(config):
            base = name.rsplit(".", 1)[-1]
            if base in ("ln1_g", "ln2_g", "ln3_g"):
                params[name] = np.ones(shape)
            elif len(shape) == 1 or base == "pos_emb":
                # pos_emb is an additive bias on activations: a zero start
                # degrades gracefully at frame positions training never visited
                params[name] = np.zeros(shape)
            else:
                scale = 1.0 / np.sqrt(shape[1] if base == "token_emb" else shape[0])
                params[name] = rng.uniform(-scale, scale, size=shape)
    except MemoryError:
        raise InvalidConfig(f"a prior of {config.layers} layers cannot be allocated") from None
    return PmpModel(config=config, params=params)


# ------------------------------------------------------------ batch packing

def _one_hot(category: Category) -> np.ndarray:
    v = np.zeros(len(CATEGORIES))
    v[CATEGORIES.index(category)] = 1.0
    return v


def _fourier(strength: float) -> np.ndarray:
    freqs = 2.0 ** np.arange(FOURIER_FEATURES // 2)
    arg = 2.0 * np.pi * freqs * strength
    return np.concatenate([np.sin(arg), np.cos(arg)])


def pack_inputs(config: PmpConfig, seqs: list[MotionSequence],
                conds: list[Conditioning]):
    """Pad sequences/conditionings into batch arrays.

    Returns (x, onehot, chan_mask, tok_idx, tok_mask, feats) where
    chan_mask marks the real (un-padded) pose channels per item.
    """
    if not seqs:
        raise EmptyBatch("batch is empty")
    f = seqs[0].frame_count
    if any(s.frame_count != f for s in seqs):
        raise InvalidConfig("batch items must share a frame count")
    if f > config.max_frames:
        raise TooManyFrames(f"{f} frames > max_frames {config.max_frames}")
    b = len(seqs)
    p = config.max_pose_dim
    x = np.zeros((b, f, p))
    onehot = np.zeros((b, len(CATEGORIES)))
    chan_mask = np.zeros((b, p))
    max_tok = max((len(c.tokens) for c in conds), default=0)
    tok_idx = np.zeros((b, max_tok), dtype=np.int64)
    tok_mask = np.zeros((b, max_tok + 1))  # +1 row for the strength slot
    feats = np.zeros((b, FOURIER_FEATURES))
    for i, (s, c) in enumerate(zip(seqs, conds)):
        dim = s.frames.shape[1]
        if dim > p:
            raise PoseDimExceedsMax(f"pose_dim {dim} > max_pose_dim {p}")
        x[i, :, :dim] = s.frames
        chan_mask[i, :dim] = 1.0
        onehot[i] = _one_hot(c.category)
        for t in c.tokens:
            if not 0 <= t < len(config.vocab):
                raise InvalidConfig(f"token index {t} outside vocab")
        tok_idx[i, :len(c.tokens)] = c.tokens
        tok_mask[i, :len(c.tokens)] = 1.0
        tok_mask[i, max_tok] = 1.0  # strength row always attends
        feats[i] = _fourier(c.strength)
    return x, onehot, chan_mask, tok_idx, tok_mask, feats


# ---------------------------------------------------------- forward/backward

def _layer_norm_fwd(x, g, b):
    # one centring pass: numpy's x.var is this same sum of squared
    # deviations from x.mean over the count, so the result is bitwise equal
    xhat = x - x.mean(axis=-1, keepdims=True)
    y = np.square(xhat)  # the output buffer, holding squares until below
    inv = 1.0 / np.sqrt(y.sum(axis=-1, keepdims=True) / x.shape[-1] + _LN_EPS)
    xhat *= inv
    np.multiply(xhat, g, out=y)
    y += b
    return y, (xhat, inv)


def _layer_norm_bwd(dy, g, cache):
    xhat, inv = cache
    t = dy * xhat
    dg = t.reshape(-1, dy.shape[-1]).sum(axis=0)
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    dx = dy * g  # dxhat, turned into dx in place below
    m1 = dx.mean(axis=-1, keepdims=True)
    m2 = np.multiply(dx, xhat, out=t).mean(axis=-1, keepdims=True)
    dx -= m1
    dx -= np.multiply(xhat, m2, out=t)
    dx *= inv
    return dx, dg, db


def _lin(x, w):
    """(…, a) @ (a, b) through one flattened BLAS gemm."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[1])


def _outer_grad(x, dy):
    """d(loss)/dw for y = x @ w, summed over all leading axes."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def _heads(x, heads):
    """A C-contiguous (b, f, d) array as a (b, heads, f, d // heads) view.

    Each head's (f, hd) matrix is strided, not copied: BLAS reads and writes
    it in place, with the same gemm shapes as a contiguous copy and a wider
    leading dimension, so the sums are the same. ``out=`` targets must be
    C-contiguous, or the reshape would copy and the writes would be lost.
    """
    b, f, d = x.shape
    return x.reshape(b, f, heads, d // heads).transpose(0, 2, 1, 3)


def _attention_fwd(xq, xkv, wq, wk, wv, wo, heads, key_mask=None):
    q = _heads(_lin(xq, wq), heads)
    k = _heads(_lin(xkv, wk), heads)
    v = _heads(_lin(xkv, wv), heads)
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    if key_mask is not None:
        scores = np.where(key_mask[:, None, None, :] > 0, scores, -1e30)
    scores -= scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores, out=scores)
    probs /= probs.sum(axis=-1, keepdims=True)
    merged = np.empty(xq.shape)  # the heads' contexts, side by side
    np.matmul(probs, v, out=_heads(merged, heads))
    out = _lin(merged, wo)
    cache = (xq, xkv, q, k, v, probs, merged, scale)
    return out, cache


def _attention_bwd(dout, wq, wk, wv, wo, heads, cache):
    xq, xkv, q, k, v, probs, merged, scale = cache
    dwo = _outer_grad(merged, dout)
    dctx = _heads(_lin(dout, wo.T), heads)
    dprobs = dctx @ v.swapaxes(-1, -2)
    dv = np.empty(xkv.shape)
    np.matmul(probs.swapaxes(-1, -2), dctx, out=_heads(dv, heads))
    inner = (dprobs * probs).sum(axis=-1, keepdims=True)
    dscores = dprobs
    dscores -= inner
    dscores *= probs
    dq = np.empty(xq.shape)
    np.matmul(dscores, k, out=_heads(dq, heads))
    dq *= scale
    dk = np.empty(xkv.shape)
    np.matmul(dscores.swapaxes(-1, -2), q, out=_heads(dk, heads))
    dk *= scale
    dwq = _outer_grad(xq, dq)
    dwk = _outer_grad(xkv, dk)
    dwv = _outer_grad(xkv, dv)
    dxq = _lin(dq, wq.T)
    dxkv = _lin(dk, wk.T)
    dxkv += _lin(dv, wv.T)
    return dxq, dxkv, dwq, dwk, dwv, dwo


def _gelu_fwd(u):
    phi = u / np.sqrt(2.0)
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    return u * phi, phi


def _gelu_bwd(du_out, u, phi):
    t = -0.5 * u
    t *= u
    np.exp(t, out=t)
    t /= np.sqrt(2.0 * np.pi)  # the normal pdf at u
    t *= u
    t += phi
    t *= du_out
    return t


def forward(model: PmpModel, x, onehot, tok_idx, tok_mask, feats):
    """Run the network; returns (output (B,F,max_pose_dim), cache).

    The input is centered by its per-channel temporal mean and the mean is
    added back onto the prediction: the network predicts the corrected pose
    as an offset pattern around the sequence's own origin, which keeps it
    invariant to absolute parameter values (padded channels stay all-zero).
    The mean path carries no parameters, so gradients are unaffected.
    """
    cfg = model.config
    p = model.params
    b, f, _ = x.shape
    mu = x.mean(axis=1, keepdims=True)
    x = x - mu
    xc = np.concatenate([x, np.broadcast_to(onehot[:, None, :], (b, f, onehot.shape[1]))],
                        axis=2)
    # only the final residual stream is cached, so h is updated in place
    h = _lin(xc, p["in_proj_w"])
    h += p["in_proj_b"]
    h += p["pos_emb"][:f]

    tok_rows = p["token_emb"][tok_idx]  # (B, T, d)
    strength_row = (feats @ p["strength_w"] + p["strength_b"])[:, None, :]
    memory = np.concatenate([tok_rows, strength_row], axis=1)  # (B, T+1, d)
    memory *= tok_mask[:, :, None]

    caches = []
    for i in range(cfg.layers):
        pref = f"layer{i}."
        a, ln1c = _layer_norm_fwd(h, p[pref + "ln1_g"], p[pref + "ln1_b"])
        sa, sac = _attention_fwd(a, a, p[pref + "self_wq"], p[pref + "self_wk"],
                                 p[pref + "self_wv"], p[pref + "self_wo"], cfg.heads)
        h += sa
        bq, ln2c = _layer_norm_fwd(h, p[pref + "ln2_g"], p[pref + "ln2_b"])
        ca, cac = _attention_fwd(bq, memory, p[pref + "cross_wq"], p[pref + "cross_wk"],
                                 p[pref + "cross_wv"], p[pref + "cross_wo"], cfg.heads,
                                 key_mask=tok_mask)
        h += ca
        c, ln3c = _layer_norm_fwd(h, p[pref + "ln3_g"], p[pref + "ln3_b"])
        u = _lin(c, p[pref + "ffn_w1"])
        u += p[pref + "ffn_b1"]
        g, phi = _gelu_fwd(u)
        ff = _lin(g, p[pref + "ffn_w2"])
        ff += p[pref + "ffn_b2"]
        h += ff
        caches.append((ln1c, sac, ln2c, cac, ln3c, (c, u, phi, g)))

    y = _lin(h, p["out_proj_w"])
    y += p["out_proj_b"]
    y += mu
    cache = (xc, memory, tok_idx, tok_mask, feats, caches, h, f, b)
    return y, cache


def backward(model: PmpModel, cache, dy) -> dict[str, np.ndarray]:
    """Exact gradients of a scalar loss with upstream derivative dy.

    Each gradient is a fresh array, written once; only ``pos_emb`` (rows
    past the frame count) and ``token_emb`` (a scatter-add) start from zeros.
    """
    cfg = model.config
    p = model.params
    xc, memory, tok_idx, tok_mask, feats, caches, h_final, f, b = cache
    grads: dict[str, np.ndarray] = {}

    grads["out_proj_w"] = _outer_grad(h_final, dy)
    grads["out_proj_b"] = dy.sum(axis=(0, 1))
    dh = _lin(dy, p["out_proj_w"].T)
    dmem = np.zeros_like(memory)

    # dh is updated in place: no block keeps a reference to it
    for i in reversed(range(cfg.layers)):
        pref = f"layer{i}."
        ln1c, sac, ln2c, cac, ln3c, ffnc = caches[i]
        c, u, phi, g = ffnc
        # FFN block
        grads[pref + "ffn_w2"] = _outer_grad(g, dh)
        grads[pref + "ffn_b2"] = dh.sum(axis=(0, 1))
        dg = _lin(dh, p[pref + "ffn_w2"].T)
        du = _gelu_bwd(dg, u, phi)
        grads[pref + "ffn_w1"] = _outer_grad(c, du)
        grads[pref + "ffn_b1"] = du.sum(axis=(0, 1))
        dc = _lin(du, p[pref + "ffn_w1"].T)
        dx, grads[pref + "ln3_g"], grads[pref + "ln3_b"] = _layer_norm_bwd(
            dc, p[pref + "ln3_g"], ln3c)
        dh += dx
        # cross-attention block
        (dbq, dm, grads[pref + "cross_wq"], grads[pref + "cross_wk"],
         grads[pref + "cross_wv"], grads[pref + "cross_wo"]) = _attention_bwd(
            dh, p[pref + "cross_wq"], p[pref + "cross_wk"],
            p[pref + "cross_wv"], p[pref + "cross_wo"], cfg.heads, cac)
        dmem += dm
        dx, grads[pref + "ln2_g"], grads[pref + "ln2_b"] = _layer_norm_bwd(
            dbq, p[pref + "ln2_g"], ln2c)
        dh += dx
        # self-attention block
        (dxq, dxkv, grads[pref + "self_wq"], grads[pref + "self_wk"],
         grads[pref + "self_wv"], grads[pref + "self_wo"]) = _attention_bwd(
            dh, p[pref + "self_wq"], p[pref + "self_wk"],
            p[pref + "self_wv"], p[pref + "self_wo"], cfg.heads, sac)
        dxq += dxkv
        dx, grads[pref + "ln1_g"], grads[pref + "ln1_b"] = _layer_norm_bwd(
            dxq, p[pref + "ln1_g"], ln1c)
        dh += dx

    # input projection + positional embeddings
    grads["pos_emb"] = np.zeros_like(p["pos_emb"])
    grads["pos_emb"][:f] = dh.sum(axis=0)
    grads["in_proj_w"] = _outer_grad(xc, dh)
    grads["in_proj_b"] = dh.sum(axis=(0, 1))

    # conditioning memory: masked rows received no signal by construction
    dmem *= tok_mask[:, :, None]
    drow = dmem[:, -1, :]  # strength slot
    grads["strength_w"] = feats.T @ drow
    grads["strength_b"] = drow.sum(axis=0)
    dtok = dmem[:, :-1, :]
    grads["token_emb"] = np.zeros_like(p["token_emb"])
    np.add.at(grads["token_emb"], tok_idx.ravel(),
              dtok.reshape(-1, dtok.shape[-1]))
    return {name: grads[name] for name in p}  # in declaration order


# -------------------------------------------------------------- public ops

def pmp_refine(model: PmpModel, seq: MotionSequence,
               cond: Conditioning) -> MotionSequence:
    """Predict the corrected sequence for one input. A forward pass that
    overflows, as finite weights near the float range make it, raises
    InvalidConfig."""
    x, onehot, _, tok_idx, tok_mask, feats = pack_inputs(
        model.config, [seq], [cond])
    dim = seq.frames.shape[1]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(model.config.refine_iterations):
                y, _ = forward(model, x, onehot, tok_idx, tok_mask, feats)
                x = np.zeros_like(x)
                x[0, :, :dim] = y[0, :, :dim]
    except FloatingPointError as exc:
        raise InvalidConfig(f"the prior's forward pass is not finite ({exc})") from None
    return seq.with_frames(y[0, :, :dim])


def pmp_loss(model: PmpModel, batch: list):
    """Mean squared error over un-padded channels + exact gradients.

    ``batch`` items are (perturbed, target, conditioning) triples with a
    shared frame count.
    """
    if not batch:
        raise EmptyBatch("loss needs at least one example")
    perturbed = [item[0] for item in batch]
    targets = [item[1] for item in batch]
    conds = [item[2] for item in batch]
    x, onehot, chan_mask, tok_idx, tok_mask, feats = pack_inputs(
        model.config, perturbed, conds)
    t = np.zeros_like(x)
    for i, target in enumerate(targets):
        dim = target.frames.shape[1]
        if target.frame_count != x.shape[1] or dim != perturbed[i].frames.shape[1]:
            raise InvalidConfig("target shape differs from perturbed input")
        t[i, :, :dim] = target.frames
    y, cache = forward(model, x, onehot, tok_idx, tok_mask, feats)
    mask = chan_mask[:, None, :]  # (B, 1, P) broadcast over frames
    diff = y
    diff -= t
    diff *= mask
    n_valid = float(chan_mask.sum() * x.shape[1])
    loss = float((diff ** 2).sum() / n_valid)
    dy = np.multiply(diff, 2.0, out=diff)
    dy /= n_valid
    grads = backward(model, cache, dy)
    return loss, grads


# -------------------------------------------------------------- checkpoints

CHECKPOINT_MAGIC = b"PMP1"


def _require_finite(params: dict[str, np.ndarray]) -> None:
    """A checkpoint holds finite weights: name the first tensor that does not."""
    for name, arr in params.items():
        if not np.isfinite(arr).all():
            raise InvalidConfig(f"checkpoint tensor {name} holds non-finite values")


def save_checkpoint(model: PmpModel, path) -> None:
    """Magic, uint32-LE config length, config JSON, tensors as LE float64.

    Weights holding a NaN or an infinity raise InvalidConfig before the file
    is opened, so a diverged training run leaves no checkpoint behind.
    """
    _require_finite(model.params)
    cfg_json = model.config.to_json().encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(cfg_json)))
        fh.write(cfg_json)
        for name, _ in _param_shapes(model.config):
            fh.write(model.params[name].astype("<f8").tobytes())


def load_checkpoint(path) -> PmpModel:
    """Inverse of ``save_checkpoint``; any other layout, or a tensor holding
    a NaN or an infinity, raises InvalidConfig."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if header[:4] != CHECKPOINT_MAGIC or len(header) < 8:
            raise InvalidConfig(f"bad checkpoint header {header!r}")
        (n,) = struct.unpack_from("<I", header, 4)
        size = os.fstat(fh.fileno()).st_size
        if n > size - 8:  # checked first: read(n) allocates n bytes before it reads
            raise InvalidConfig(f"checkpoint config length {n} is past the file's {size} bytes")
        config = PmpConfig.from_json(fh.read(n))
        # sizes are summed layer by layer before anything is allocated, and
        # the sum stops once it passes the file, so a config that declares
        # huge tensors or a huge layer count cannot exhaust memory
        left = size - fh.tell()
        declared = 0
        for _, shape in _param_shapes(config):
            declared += 8 * math.prod(shape)
            if declared > left:
                break
        if declared != left:
            over = "at least " if declared > left else ""
            raise InvalidConfig(f"checkpoint config declares {over}{declared} tensor "
                                f"bytes, the file holds {left}")
        params = {name: np.frombuffer(fh.read(8 * math.prod(shape)), dtype="<f8")
                  .reshape(shape).copy() for name, shape in _param_shapes(config)}
    _require_finite(params)
    return PmpModel(config=config, params=params)


def tokens_for(config: PmpConfig, words: list[str]) -> tuple[int, ...]:
    """Vocabulary lookup; unknown words are skipped."""
    lookup = {w: i for i, w in enumerate(config.vocab)}
    return tuple(lookup[w] for w in words if w in lookup)
