"""Encoder plus detection, generation, and category heads.

The network is a small pre-norm self-attention encoder over tagged text.
The final hidden state at the [CLS] position is pooled through a tanh
projection; the pooled vector feeds a 2-way detection decoder, a 5-way
category decoder, and an LSTM that generates the tagged specification
token sequence. Since only the [CLS] row leaves the last block, that block
computes its query, attention output and FFN for the [CLS] row alone, in
the forward and the backward pass; its keys and values cover every position.
Inference sorts texts by token length and encodes consecutive ones
together, padding each to the longest of its call and masking the padded
keys; it keeps no backward cache, and decodes flagged rows in small batches
(`encode_groups`, `generate_batch`). The encoder's weight products run as
one 2-D GEMM per call (`_dot`), and each embedding gradient is one flat
scatter (`_scatter_rows`).

Every parameter lives in a flat name -> array mapping and every gradient
is derived by hand, so the complete network can be checked against central
finite differences. The network computes in the dtype of its parameters
(`Model.cast` makes a copy in another): training and inference run in
float32, while gradient checks and checkpoints use float64.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..dsl import Category
from .vocab import (
    BOS_ID,
    CLS_ID,
    EOS_ID,
    TAG_TOKEN_IDS,
    ModelError,
    PAD_ID,
    UNK_ID,
    Vocab,
)


class SequenceTooLong(ModelError):
    """Input sequence exceeds the positional table."""


class DivergenceError(ModelError):
    """Training loss became NaN."""


_LN_EPS = 1e-5
_LOG_FLOOR = 1e-12
_GELU_C = math.sqrt(2.0 / math.pi)

CATEGORIES = tuple(Category)

# hidden widths of the detection and category MLPs and of the LSTM generator
DETECT_HIDDEN = 50
CATEGORY_HIDDEN = 50
GENERATOR_HIDDEN = 20
# greedy decoding stops after this many tokens without [EOS]
GENERATE_MAX_TOKENS = 24
# Inference batches: an encoder call holds at most this many token slots,
# rows x the longest row, padding included (one row at least); greedy
# decoding runs this many rows at once. From a float32 sweep of in-process
# `eval` over 1,000 protocol samples, in fresh processes and in bench-like
# rounds (BENCH_f32infer.json): 128 tokens ran about 1.2x slower than 192,
# 192 to 384 tokens and 16 to 64 rows were within noise of each other, and
# 192 tokens with 16 rows took no minor page faults per call in a fresh
# process and settled at none per `eval` call in repeated rounds.
ENCODE_TOKEN_BUDGET = 192
DECODE_ROWS = 16
# never generated: the control tokens other than [EOS], and every tag token
# until a row's tag map allows it
_BANNED_IDS = [PAD_ID, UNK_ID, CLS_ID, BOS_ID, *TAG_TOKEN_IDS.values()]


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    blocks: int = 2
    heads: int = 4
    max_len: int = 64

    def __post_init__(self):
        if any(s < 1 for s in (self.d_model, self.blocks, self.heads, self.max_len)):
            raise ModelError("all model dimensions must be positive")
        if self.d_model % self.heads:
            raise ModelError("d_model must be divisible by heads")


@dataclass(frozen=True)
class GenerationResult:
    tokens: tuple[str, ...]
    truncated: bool


@dataclass
class Batch:
    """Padded sample batch prepared for a joint forward/backward pass."""

    ids: np.ndarray       # (B, L) token ids, PAD-filled
    mask: np.ndarray      # (B, L) True at real positions
    labels: np.ndarray    # (B,) 0 = no spec, 1 = spec
    cat_ids: np.ndarray   # (B,) category index, -1 where absent
    gen_in: np.ndarray    # (B, T) generator inputs starting at [BOS]
    gen_out: np.ndarray   # (B, T) generator targets ending at [EOS]
    gen_mask: np.ndarray  # (B, T) True at supervised generator steps

    @property
    def size(self) -> int:
        return self.ids.shape[0]


def check_lengths(lengths, max_len: int) -> None:
    """Raise SequenceTooLong for the first record, numbered from 1, whose
    sequence, [CLS] included, is longer than max_len; the message gives the
    record's own token count and the max_len - 1 tokens that fit."""
    for number, length in enumerate(lengths, start=1):
        if length > max_len:
            raise SequenceTooLong(
                f"record {number} has {length - 1} tokens; max_len {max_len} "
                f"leaves room for {max_len - 1} after [CLS]"
            )


def weighted_ce(pred, label: int, weights) -> float:
    """-w_label * ln(p_label) with the log argument clamped at 1e-12: the
    scalar reference for the rows of `_cross_entropy`, which training uses."""
    p = float(np.asarray(pred)[label])
    return -float(np.asarray(weights)[label]) * math.log(max(p, _LOG_FLOOR))


def detection_weights(labels) -> np.ndarray:
    """Inverse-frequency class weights w_c = n_total / (M * n_c)."""
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels, minlength=2)
    if counts.size != 2 or (counts == 0).any():
        raise ModelError("training data must contain both detection classes")
    return labels.size / (2.0 * counts.astype(np.float64))


def _softmax(x):
    e = np.subtract(x, x.max(axis=-1, keepdims=True))
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _cross_entropy(logits, targets, weights):
    """Per-row loss -w * ln(max(p_target, 1e-12)) and its logit gradient
    (softmax - onehot) * w, zeroed on rows where the clamp applies."""
    grad = _softmax(logits)
    rows = np.arange(grad.shape[0])
    p = grad[rows, targets]
    loss = -(weights * np.log(np.maximum(p, _LOG_FLOOR)))
    grad[rows, targets] -= 1.0
    grad *= weights[:, None]
    grad[p < _LOG_FLOOR] = 0.0
    return loss, grad


def _sigmoid(x):
    """1 / (1 + exp(-x)) where x >= 0, else exp(x) / (1 + exp(x)); both
    branches take exp of -|x|, which is -x on the first and x on the second."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# The elementwise kernels below allocate their outputs and at most one
# scratch buffer the size of their input, and work in place on those. Each
# computes 0.5 * x * (1 + t) and the like in the order the formula states,
# swapping only the operands of a + or a *, so its results are bit for bit
# those of the plain expression.


def _gelu(x):
    """0.5 * x * (1 + t) with t = tanh(C * (x + 0.044715 * x^3)); returns both."""
    s = np.multiply(x, x)
    s *= 0.044715
    s *= x
    s += x
    s *= _GELU_C
    t = np.tanh(s)
    np.add(t, 1.0, out=s)
    y = np.multiply(x, 0.5)
    y *= s
    return y, t


def _gelu_grad(x, t):
    """(1 - t^2) * C * (0.5 * x + 0.0670725 * x^3) + 0.5 * (1 + t)."""
    v = np.multiply(x, 0.5)
    u = np.multiply(x, 0.0670725)
    u *= x
    u *= x
    v += u
    v *= _GELU_C
    np.multiply(t, t, out=u)
    np.subtract(1.0, u, out=u)
    u *= v
    np.add(t, 1.0, out=v)
    v *= 0.5
    u += v
    return u


def _mean(x):
    """x.mean(axis=-1, keepdims=True), bit for bit, without the Python
    wrapper of `ndarray.mean`. `mean` divides a float32 sum in float64 and
    rounds the quotient to float32, which gives the correctly rounded
    float32 quotient that dividing in float32 gives."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _layer_norm(x, scale, shift):
    """xhat * scale + shift with xhat = (x - mean) / sqrt(var + eps);
    returns it and the cache (xhat, 1 / sqrt(var + eps))."""
    xhat = np.subtract(x, _mean(x))
    y = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(_mean(y) + _LN_EPS)
    xhat *= inv
    np.multiply(xhat, scale, out=y)
    y += shift
    return y, (xhat, inv)


def _layer_norm_grad(dy, cache, scale, grads, prefix):
    """inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
    dxhat = dy * scale; adds the scale and shift gradients to `grads`."""
    xhat, inv = cache
    axes = tuple(range(dy.ndim - 1))
    tmp = np.multiply(dy, xhat)
    _acc(grads, prefix + "/scale", tmp.sum(axis=axes))
    _acc(grads, prefix + "/shift", dy.sum(axis=axes))
    dx = np.multiply(dy, scale)
    mean1 = _mean(dx)
    np.multiply(dx, xhat, out=tmp)
    mean2 = _mean(tmp)
    dx -= mean1
    np.multiply(xhat, mean2, out=tmp)
    dx -= tmp
    dx *= inv
    return dx


def _acc(grads, name, value):
    if name in grads:
        grads[name] += value
    else:
        grads[name] = value


def _split_heads(x, heads):
    b, length, d = x.shape
    return x.reshape(b, length, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, heads, length, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, length, heads * dh)


def _matgrad(x, dy):
    """Weight gradient for y = x @ w summed over all leading axes."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def _dot(x, w):
    """x @ w for x of shape (B, L, n) and a weight w (n, m) or its transpose.

    With L >= 2 this is one 2-D GEMM, (B * L, n) @ (n, m). numpy's stacked
    product runs a slow loop when w is a transposed view, as in every
    backward product; for a C-ordered w the 2-D GEMM gives the stacked
    product's bits, so forward outputs stay the same. A one-row input
    (L = 1: the last block's [CLS] row) keeps the stacked product, whose
    bits differ there from the 2-D GEMM's.
    """
    b, length, n = x.shape
    if length < 2:
        return x @ w
    return (x.reshape(b * length, n) @ w).reshape(b, length, w.shape[1])


def _scatter_rows(table, ids, rows):
    """np.add.at(table, ids, rows), bit for bit, for a C-contiguous (V, d)
    table, ids of any shape and rows of shape ids.shape + (d,): one flat
    add.at of one index per element, which adds to each cell in the same
    order and is several times faster than the row-wise one."""
    d = table.shape[1]
    flat = ids.reshape(-1, 1) * d + np.arange(d)
    np.add.at(table.reshape(-1), flat.reshape(-1), rows.reshape(-1))


def param_shapes(config: ModelConfig, vocab_size: int) -> dict[str, tuple]:
    """Name -> shape of every parameter, in the order `_init_params` draws them."""
    d, g = config.d_model, GENERATOR_HIDDEN
    shapes = {"embed/tokens": (vocab_size, d), "embed/positions": (config.max_len, d)}
    for i in range(config.blocks):
        blk = f"block{i}"
        shapes[f"{blk}/ln1/scale"] = shapes[f"{blk}/ln1/shift"] = (d,)
        for name in ("wq", "wk", "wv", "wo"):
            shapes[f"{blk}/attn/{name}"] = (d, d)
        shapes[f"{blk}/ln2/scale"] = shapes[f"{blk}/ln2/shift"] = (d,)
        shapes[f"{blk}/ffn/w1"] = (d, 4 * d)
        shapes[f"{blk}/ffn/b1"] = (4 * d,)
        shapes[f"{blk}/ffn/w2"] = (4 * d, d)
        shapes[f"{blk}/ffn/b2"] = (d,)
    shapes["final_ln/scale"] = shapes["final_ln/shift"] = (d,)
    shapes["pool/w1"] = (d, d)
    for head, hidden, classes in (
        ("detect", DETECT_HIDDEN, 2),
        ("category", CATEGORY_HIDDEN, len(CATEGORIES)),
    ):
        shapes[f"{head}/w1"] = (d, hidden)
        shapes[f"{head}/b1"] = (hidden,)
        shapes[f"{head}/w2"] = (hidden, hidden)
        shapes[f"{head}/b2"] = (hidden,)
        shapes[f"{head}/w3"] = (hidden, classes)
        shapes[f"{head}/b3"] = (classes,)
    shapes["generator/h0"] = (d, g)
    shapes["generator/wx"] = (d, 4 * g)
    shapes["generator/wh"] = (g, 4 * g)
    shapes["generator/b"] = (4 * g,)
    shapes["generator/out_w"] = (g, vocab_size)
    shapes["generator/out_b"] = (vocab_size,)
    return shapes


def _init_params(config: ModelConfig, vocab_size: int, rng) -> dict[str, np.ndarray]:
    embed_std = 1.0 / math.sqrt(config.d_model)
    p = {}
    for name, shape in param_shapes(config, vocab_size).items():
        if name.startswith("embed/"):
            p[name] = rng.normal(0.0, embed_std, size=shape)
        elif len(shape) == 2:
            # Glorot: keeps forward activations and backward signals at a
            # healthy scale at any width, which also keeps gradients far
            # enough above float noise for finite-difference verification.
            std = math.sqrt(2.0 / (shape[0] + shape[1]))
            p[name] = rng.normal(0.0, std, size=shape)
        elif name.endswith("/scale"):
            p[name] = np.ones(shape)  # LayerNorm gains
        else:
            p[name] = np.zeros(shape)
    g = GENERATOR_HIDDEN
    p["generator/b"][g:2 * g] = 1.0  # forget gate starts open
    return p


class Model:
    """Trained or freshly initialized network over a fixed vocabulary."""

    def __init__(self, config: ModelConfig, vocab: Vocab, params: dict[str, np.ndarray]):
        if params["embed/tokens"].shape != (len(vocab), config.d_model):
            raise ModelError("embedding table does not match the vocabulary")
        self.config = config
        self.vocab = vocab
        self.params = params

    @classmethod
    def initialize(cls, config: ModelConfig, vocab: Vocab, rng_seed: int = 0) -> "Model":
        rng = np.random.default_rng(rng_seed)
        return cls(config, vocab, _init_params(config, len(vocab), rng))

    def cast(self, dtype) -> "Model":
        """A copy of the model whose parameters are cast to `dtype`."""
        return Model(self.config, self.vocab, {k: v.astype(dtype) for k, v in self.params.items()})

    # ------------------------------------------------------------------ encoder

    def _encode_batch(self, ids, mask, keep_cache=True):
        """Pooled [CLS] vectors h_c of shape (B, d), and the cache that
        `_encode_backward` needs, or None without keep_cache: inference then
        frees each block's transients as the next block replaces them."""
        p, cfg = self.params, self.config
        length = ids.shape[1]
        if length > cfg.max_len:
            raise SequenceTooLong(
                f"sequence length {length} exceeds max_len {cfg.max_len}"
            )
        emb = p["embed/tokens"][ids]
        emb += p["embed/positions"][:length]
        key_bias = np.where(mask[:, None, None, :], 0.0, -np.inf).astype(emb.dtype, copy=False)
        scale = 1.0 / math.sqrt(cfg.d_model // cfg.heads)

        h = emb
        blocks = []
        for i in range(cfg.blocks):
            blk = f"block{i}"
            # the last block computes the [CLS] row alone, the only row that
            # leaves it; keys and values still cover every position. The
            # full slice that earlier blocks take is a view, not a copy.
            rows = slice(0, 1) if i == cfg.blocks - 1 else slice(None)
            a, ln1 = _layer_norm(h, p[f"{blk}/ln1/scale"], p[f"{blk}/ln1/shift"])
            qh = _split_heads(_dot(a[:, rows], p[f"{blk}/attn/wq"]), cfg.heads)
            kh = _split_heads(_dot(a, p[f"{blk}/attn/wk"]), cfg.heads)
            vh = _split_heads(_dot(a, p[f"{blk}/attn/wv"]), cfg.heads)
            scores = qh @ kh.transpose(0, 1, 3, 2)
            scores *= scale
            scores += key_bias
            att = _softmax(scores)
            ctx = _merge_heads(att @ vh)
            h1 = _dot(ctx, p[f"{blk}/attn/wo"])
            h1 += h[:, rows]
            f, ln2 = _layer_norm(h1, p[f"{blk}/ln2/scale"], p[f"{blk}/ln2/shift"])
            u = _dot(f, p[f"{blk}/ffn/w1"])
            u += p[f"{blk}/ffn/b1"]
            r, gelu_t = _gelu(u)
            h = _dot(r, p[f"{blk}/ffn/w2"])
            h += h1
            h += p[f"{blk}/ffn/b2"]
            if keep_cache:
                blocks.append((rows, a, qh, kh, vh, att, ctx, ln1, f, u, gelu_t, r, ln2))

        normed, final_ln = _layer_norm(h, p["final_ln/scale"], p["final_ln/shift"])
        h_cls = normed[:, 0]
        h_c = np.tanh(h_cls @ p["pool/w1"])
        cache = (ids, length, scale, blocks, final_ln, h_cls, h_c) if keep_cache else None
        return h_c, cache

    def _encode_backward(self, dh_c, cache, grads):
        p, cfg = self.params, self.config
        ids, length, scale, blocks, final_ln, h_cls, h_c = cache

        dpooled = dh_c * (1.0 - h_c * h_c)
        _acc(grads, "pool/w1", h_cls.T @ dpooled)
        dnormed = (dpooled @ p["pool/w1"].T)[:, None]
        dh = _layer_norm_grad(dnormed, final_ln, p["final_ln/scale"], grads, "final_ln")

        for i in reversed(range(cfg.blocks)):
            blk = f"block{i}"
            rows, a, qh, kh, vh, att, ctx, ln1, f, u, gelu_t, r, ln2 = blocks[i]

            _acc(grads, f"{blk}/ffn/w2", _matgrad(r, dh))
            _acc(grads, f"{blk}/ffn/b2", dh.sum(axis=(0, 1)))
            du = _dot(dh, p[f"{blk}/ffn/w2"].T)
            du *= _gelu_grad(u, gelu_t)
            _acc(grads, f"{blk}/ffn/w1", _matgrad(f, du))
            _acc(grads, f"{blk}/ffn/b1", du.sum(axis=(0, 1)))
            df = _dot(du, p[f"{blk}/ffn/w1"].T)
            dh1 = _layer_norm_grad(df, ln2, p[f"{blk}/ln2/scale"], grads, f"{blk}/ln2")
            dh1 += dh

            _acc(grads, f"{blk}/attn/wo", _matgrad(ctx, dh1))
            dctx = _split_heads(_dot(dh1, p[f"{blk}/attn/wo"].T), cfg.heads)
            dvh = att.transpose(0, 1, 3, 2) @ dctx
            # the gradient of att, turned into that of the scores in place
            ds = dctx @ vh.transpose(0, 1, 3, 2)
            ds -= (ds * att).sum(axis=-1, keepdims=True)
            ds *= att
            dqh = ds @ kh
            dqh *= scale
            dkh = ds.transpose(0, 1, 3, 2) @ qh
            dkh *= scale
            dq, dk, dv = _merge_heads(dqh), _merge_heads(dkh), _merge_heads(dvh)
            _acc(grads, f"{blk}/attn/wq", _matgrad(a[:, rows], dq))
            _acc(grads, f"{blk}/attn/wk", _matgrad(a, dk))
            _acc(grads, f"{blk}/attn/wv", _matgrad(a, dv))
            # the query and the residual reach only `rows`; the terms add in
            # the order dq, dk, dv, as for a block that computes every row
            da = _dot(dk, p[f"{blk}/attn/wk"].T)
            da[:, rows] += _dot(dq, p[f"{blk}/attn/wq"].T)
            da += _dot(dv, p[f"{blk}/attn/wv"].T)
            dh = _layer_norm_grad(da, ln1, p[f"{blk}/ln1/scale"], grads, f"{blk}/ln1")
            dh[:, rows] += dh1

        for name in ("embed/positions", "embed/tokens"):
            if name not in grads:  # the generator has usually made embed/tokens
                grads[name] = np.zeros_like(p[name])
        grads["embed/positions"][:length] += dh.sum(axis=0)
        _scatter_rows(grads["embed/tokens"], ids, dh)

    # ------------------------------------------------------------------ heads

    def _mlp_forward(self, head, x):
        p = self.params
        u1 = x @ p[f"{head}/w1"] + p[f"{head}/b1"]
        r1, t1 = _gelu(u1)
        u2 = r1 @ p[f"{head}/w2"] + p[f"{head}/b2"]
        r2, t2 = _gelu(u2)
        logits = r2 @ p[f"{head}/w3"] + p[f"{head}/b3"]
        return logits, (x, u1, t1, r1, u2, t2, r2)

    def _mlp_backward(self, head, dlogits, cache, grads):
        p = self.params
        x, u1, t1, r1, u2, t2, r2 = cache
        _acc(grads, f"{head}/w3", r2.T @ dlogits)
        _acc(grads, f"{head}/b3", dlogits.sum(axis=0))
        du2 = (dlogits @ p[f"{head}/w3"].T) * _gelu_grad(u2, t2)
        _acc(grads, f"{head}/w2", r1.T @ du2)
        _acc(grads, f"{head}/b2", du2.sum(axis=0))
        du1 = (du2 @ p[f"{head}/w2"].T) * _gelu_grad(u1, t1)
        _acc(grads, f"{head}/w1", x.T @ du1)
        _acc(grads, f"{head}/b1", du1.sum(axis=0))
        return du1 @ p[f"{head}/w1"].T

    # ------------------------------------------------------------------ generator

    def _lstm_step(self, x, h, c):
        p = self.params
        g = GENERATOR_HIDDEN
        gates = x @ p["generator/wx"] + h @ p["generator/wh"] + p["generator/b"]
        i = _sigmoid(gates[:, :g])
        f = _sigmoid(gates[:, g:2 * g])
        z = np.tanh(gates[:, 2 * g:3 * g])
        o = _sigmoid(gates[:, 3 * g:])
        c_new = f * c + i * z
        tc = np.tanh(c_new)
        h_new = o * tc
        return h_new, c_new, (i, f, z, o, tc)

    def _lstm_start(self, h_c):
        """Initial (h, c): the context also seeds the cell, where the gates preserve it."""
        h0_pre = h_c @ self.params["generator/h0"]
        return np.tanh(h0_pre), h0_pre

    def _gen_forward(self, h_c, gen_in, gen_out, gen_mask):
        p = self.params
        n_tok = int(gen_mask.sum())
        h, c = self._lstm_start(h_c)
        h0 = h
        ones = np.ones(h_c.shape[0], dtype=h_c.dtype)
        steps = []
        loss = 0.0
        for t in range(gen_in.shape[1]):
            x = p["embed/tokens"][gen_in[:, t]]
            h_prev, c_prev = h, c
            h, c, gates = self._lstm_step(x, h_prev, c_prev)
            logits = h @ p["generator/out_w"] + p["generator/out_b"]
            step_loss, dlogits = _cross_entropy(logits, gen_out[:, t], ones)
            live = gen_mask[:, t]
            loss += step_loss[live].sum()
            dlogits[~live] = 0.0
            steps.append((x, h_prev, c_prev, gates, dlogits, h))
        loss = loss / n_tok if n_tok else 0.0
        return loss, (h_c, h0, steps, n_tok)

    def _gen_backward(self, cache, gen_in, grads):
        p = self.params
        h_c, h0, steps, n_tok = cache
        factor = 1.0 / n_tok if n_tok else 0.0
        dh_next = np.zeros((h_c.shape[0], GENERATOR_HIDDEN), dtype=h_c.dtype)
        dc_next = np.zeros_like(dh_next)
        d_inputs = []  # each step's input-embedding gradient, last step first
        for t in reversed(range(gen_in.shape[1])):
            x, h_prev, c_prev, (i, f, z, o, tc), dlogits, h = steps[t]
            dlogits *= factor
            _acc(grads, "generator/out_w", h.T @ dlogits)
            _acc(grads, "generator/out_b", dlogits.sum(axis=0))
            dh = dh_next + dlogits @ p["generator/out_w"].T
            do = dh * tc
            dc = dc_next + dh * o * (1.0 - tc * tc)
            di, dz, df = dc * z, dc * i, dc * c_prev
            dc_next = dc * f
            dgates = np.concatenate(
                (
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dz * (1.0 - z * z),
                    do * o * (1.0 - o),
                ),
                axis=1,
            )
            _acc(grads, "generator/wx", x.T @ dgates)
            _acc(grads, "generator/wh", h_prev.T @ dgates)
            _acc(grads, "generator/b", dgates.sum(axis=0))
            d_inputs.append(dgates @ p["generator/wx"].T)
            dh_next = dgates @ p["generator/wh"].T
        d_embed = grads.setdefault("embed/tokens", np.zeros_like(p["embed/tokens"]))
        _scatter_rows(d_embed, gen_in[:, ::-1].T, np.stack(d_inputs))
        dh0 = dh_next * (1.0 - h0 * h0) + dc_next
        _acc(grads, "generator/h0", h_c.T @ dh0)
        return dh0 @ p["generator/h0"].T

    # ------------------------------------------------------------------ losses

    def _run(self, batch: Batch, weights, want_grads: bool):
        b = batch.size
        h_c, enc_cache = self._encode_batch(batch.ids, batch.mask, keep_cache=want_grads)
        weights = np.asarray(weights, dtype=h_c.dtype)

        det_logits, det_cache = self._mlp_forward("detect", h_c)
        det_rows, det_grad = _cross_entropy(
            det_logits, batch.labels, weights[batch.labels]
        )
        det_loss = float(det_rows.mean())

        cat_rows = np.flatnonzero(batch.cat_ids >= 0)
        if cat_rows.size:
            cat_logits, cat_cache = self._mlp_forward("category", h_c[cat_rows])
            cat_row_loss, cat_grad = _cross_entropy(
                cat_logits, batch.cat_ids[cat_rows], np.ones(cat_rows.size, dtype=h_c.dtype)
            )
            cat_loss = float(cat_row_loss.mean())
        else:
            cat_loss = 0.0

        gen_rows = np.flatnonzero(batch.gen_mask.any(axis=1))
        if gen_rows.size:
            gen_loss, gen_cache = self._gen_forward(
                h_c[gen_rows],
                batch.gen_in[gen_rows],
                batch.gen_out[gen_rows],
                batch.gen_mask[gen_rows],
            )
            gen_loss = float(gen_loss)
        else:
            gen_loss = 0.0

        losses = {
            "detection": det_loss,
            "generation": gen_loss,
            "category": cat_loss,
            "total": det_loss + gen_loss + cat_loss,
        }
        if not want_grads:
            return losses, None

        grads: dict[str, np.ndarray] = {}
        dh_c = np.zeros_like(h_c)

        # each head's mean: times 1/n, which can differ from / n in the last bit
        det_grad *= 1.0 / b
        dh_c += self._mlp_backward("detect", det_grad, det_cache, grads)

        if cat_rows.size:
            cat_grad *= 1.0 / cat_rows.size
            dh_c[cat_rows] += self._mlp_backward("category", cat_grad, cat_cache, grads)

        if gen_rows.size:
            dh_c[gen_rows] += self._gen_backward(gen_cache, batch.gen_in[gen_rows], grads)

        self._encode_backward(dh_c, enc_cache, grads)
        for name, tensor in self.params.items():
            if name not in grads:
                grads[name] = np.zeros_like(tensor)
        return losses, grads

    def losses(self, batch: Batch, weights):
        return self._run(batch, weights, want_grads=False)[0]

    def loss_and_grads(self, batch: Batch, weights):
        return self._run(batch, weights, want_grads=True)

    # ------------------------------------------------------------------ inference

    def encode(self, ids) -> np.ndarray:
        """Pooled representation of one id sequence starting at [CLS]."""
        ids = np.asarray(list(ids), dtype=np.int64)
        if ids.size == 0 or ids[0] != CLS_ID:
            raise ModelError("sequence must start with [CLS]")
        h_c, _ = self._encode_batch(
            ids[None, :], np.ones((1, ids.size), dtype=bool), keep_cache=False)
        return h_c[0]

    def encode_text(self, text: str) -> np.ndarray:
        return self.encode([CLS_ID] + self.vocab.encode(text))

    def _head_probs(self, head, h_c) -> np.ndarray:
        h = np.atleast_2d(np.asarray(h_c))
        probs = _softmax(self._mlp_forward(head, h)[0])
        return probs[0] if np.ndim(h_c) == 1 else probs

    def detect(self, h_c) -> np.ndarray:
        return self._head_probs("detect", h_c)

    def classify_category(self, h_c) -> np.ndarray:
        return self._head_probs("category", h_c)

    def encode_groups(self, sequences):
        """Pooled vectors of id sequences that start with [CLS]. The sequences
        are sorted, stably, by length and consecutive ones share an encoder
        call while rows x the longest length stays within ENCODE_TOKEN_BUDGET
        (one row at least); shorter rows are padded with PAD_ID and their keys
        masked. Yields (indices into `sequences`, h_c of shape
        (len(indices), d)) per call."""
        lengths = [len(ids) for ids in sequences]
        order = sorted(range(len(sequences)), key=lengths.__getitem__)
        start = 0
        while start < len(order):
            end = start + 1
            while end < len(order) and (end + 1 - start) * lengths[order[end]] <= ENCODE_TOKEN_BUDGET:
                end += 1
            rows = order[start:end]
            start = end
            width = lengths[rows[-1]]
            ids = np.full((len(rows), width), PAD_ID, dtype=np.int64)
            for row, i in enumerate(rows):
                ids[row, :lengths[i]] = sequences[i]
            mask = np.arange(width) < np.array([lengths[i] for i in rows])[:, None]
            yield rows, self._encode_batch(ids, mask, keep_cache=False)[0]

    def generate(self, h_c, tags) -> GenerationResult:
        """Greedy decode of one pooled vector; see `generate_batch`."""
        return self.generate_batch(np.asarray(h_c)[None, :], [tags])[0]

    def generate_batch(self, h_c, tag_maps) -> list[GenerationResult]:
        """Greedy decode of each row of h_c (B, d), DECODE_ROWS rows at a
        time. A row may emit only the tag tokens present in its own tag map,
        and stops at [EOS] or after GENERATE_MAX_TOKENS tokens."""
        results = []
        for start in range(0, len(tag_maps), DECODE_ROWS):
            rows = slice(start, start + DECODE_ROWS)
            results += self._decode(h_c[rows], tag_maps[rows])
        return results

    def _decode(self, h_c, tag_maps) -> list[GenerationResult]:
        p = self.params
        allowed = np.ones((len(tag_maps), len(self.vocab)), dtype=bool)
        allowed[:, _BANNED_IDS] = False
        for row, tags in enumerate(tag_maps):
            allowed[row, [TAG_TOKEN_IDS[t] for t in tags if t in TAG_TOKEN_IDS]] = True

        h, c = self._lstm_start(h_c)
        prev = np.full(len(tag_maps), BOS_ID)
        live = np.arange(len(tag_maps))  # rows still decoding, in h and c order
        tokens: list[list[str]] = [[] for _ in tag_maps]
        for _ in range(GENERATE_MAX_TOKENS):
            h, c, _ = self._lstm_step(p["embed/tokens"][prev], h, c)
            logits = h @ p["generator/out_w"] + p["generator/out_b"]
            logits[~allowed[live]] = -np.inf
            prev = logits.argmax(axis=1)
            going = prev != EOS_ID
            for row, token_id in zip(live[going], prev[going]):
                tokens[row].append(self.vocab.token_of(token_id))
            if not going.all():
                live, prev, h, c = live[going], prev[going], h[going], c[going]
            if not live.size:
                break
        truncated = set(live.tolist())  # rows that never reached [EOS]
        return [GenerationResult(tuple(t), row in truncated) for row, t in enumerate(tokens)]


def predicted_label(det_probs) -> bool:
    """Argmax with ties resolved toward no-spec."""
    probs = np.asarray(det_probs)
    return bool(probs[1] > probs[0])


def predicted_category(cat_probs) -> Category:
    """Argmax with ties resolved by category declaration order."""
    return CATEGORIES[int(np.argmax(np.asarray(cat_probs)))]
