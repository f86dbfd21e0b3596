"""The full-width encoder that `specsyn.model.network.Model._encode_batch`
and `_encode_backward` replaced, kept as the reference they are compared
against.

Every block, the last included, computes its query, attention output,
residual and FFN at every position, and the backward pass pushes a
(B, L, d) gradient that is zero off the [CLS] row through all of them.
"""

from __future__ import annotations

import math

import numpy as np

from specsyn.model.network import (
    _acc,
    _gelu,
    _gelu_grad,
    _layer_norm,
    _layer_norm_grad,
    _matgrad,
    _merge_heads,
    _softmax,
    _split_heads,
)


def encode_batch(model, ids, mask):
    """Pooled [CLS] vectors (B, d) and the cache `encode_backward` reads."""
    p, cfg = model.params, model.config
    length = ids.shape[1]
    emb = p["embed/tokens"][ids] + p["embed/positions"][:length]
    key_bias = np.where(mask[:, None, None, :], 0.0, -np.inf)
    scale = 1.0 / math.sqrt(cfg.d_model // cfg.heads)

    h = emb
    blocks = []
    for i in range(cfg.blocks):
        blk = f"block{i}"
        a, ln1 = _layer_norm(h, p[f"{blk}/ln1/scale"], p[f"{blk}/ln1/shift"])
        qh = _split_heads(a @ p[f"{blk}/attn/wq"], cfg.heads)
        kh = _split_heads(a @ p[f"{blk}/attn/wk"], cfg.heads)
        vh = _split_heads(a @ p[f"{blk}/attn/wv"], cfg.heads)
        scores = qh @ kh.transpose(0, 1, 3, 2) * scale + key_bias
        att = _softmax(scores)
        ctx = _merge_heads(att @ vh)
        h1 = h + ctx @ p[f"{blk}/attn/wo"]
        f, ln2 = _layer_norm(h1, p[f"{blk}/ln2/scale"], p[f"{blk}/ln2/shift"])
        u = f @ p[f"{blk}/ffn/w1"] + p[f"{blk}/ffn/b1"]
        r, gelu_t = _gelu(u)
        h = h1 + r @ p[f"{blk}/ffn/w2"] + p[f"{blk}/ffn/b2"]
        blocks.append((a, qh, kh, vh, att, ctx, ln1, f, u, gelu_t, r, ln2))

    normed, final_ln = _layer_norm(h, p["final_ln/scale"], p["final_ln/shift"])
    h_cls = normed[:, 0]
    h_c = np.tanh(h_cls @ p["pool/w1"])
    cache = (ids, length, scale, blocks, final_ln, h_cls, h_c)
    return h_c, cache


def encode_backward(model, dh_c, cache, grads):
    """Accumulate into `grads` the encoder's gradients for upstream `dh_c`."""
    p, cfg = model.params, model.config
    ids, length, scale, blocks, final_ln, h_cls, h_c = cache

    dpooled = dh_c * (1.0 - h_c * h_c)
    _acc(grads, "pool/w1", h_cls.T @ dpooled)
    dnormed = np.zeros((ids.shape[0], length, cfg.d_model))
    dnormed[:, 0] = dpooled @ p["pool/w1"].T
    dh = _layer_norm_grad(dnormed, final_ln, p["final_ln/scale"], grads, "final_ln")

    for i in reversed(range(cfg.blocks)):
        blk = f"block{i}"
        a, qh, kh, vh, att, ctx, ln1, f, u, gelu_t, r, ln2 = blocks[i]

        _acc(grads, f"{blk}/ffn/w2", _matgrad(r, dh))
        _acc(grads, f"{blk}/ffn/b2", dh.sum(axis=(0, 1)))
        du = (dh @ p[f"{blk}/ffn/w2"].T) * _gelu_grad(u, gelu_t)
        _acc(grads, f"{blk}/ffn/w1", _matgrad(f, du))
        _acc(grads, f"{blk}/ffn/b1", du.sum(axis=(0, 1)))
        df = du @ p[f"{blk}/ffn/w1"].T
        dh1 = dh + _layer_norm_grad(df, ln2, p[f"{blk}/ln2/scale"], grads, f"{blk}/ln2")

        _acc(grads, f"{blk}/attn/wo", _matgrad(ctx, dh1))
        dctx = _split_heads(dh1 @ p[f"{blk}/attn/wo"].T, cfg.heads)
        datt = dctx @ vh.transpose(0, 1, 3, 2)
        dvh = att.transpose(0, 1, 3, 2) @ dctx
        ds = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
        dqh = ds @ kh * scale
        dkh = ds.transpose(0, 1, 3, 2) @ qh * scale
        dq, dk, dv = _merge_heads(dqh), _merge_heads(dkh), _merge_heads(dvh)
        _acc(grads, f"{blk}/attn/wq", _matgrad(a, dq))
        _acc(grads, f"{blk}/attn/wk", _matgrad(a, dk))
        _acc(grads, f"{blk}/attn/wv", _matgrad(a, dv))
        da = (
            dq @ p[f"{blk}/attn/wq"].T
            + dk @ p[f"{blk}/attn/wk"].T
            + dv @ p[f"{blk}/attn/wv"].T
        )
        dh = dh1 + _layer_norm_grad(da, ln1, p[f"{blk}/ln1/scale"], grads, f"{blk}/ln1")

    _acc(grads, "embed/positions", np.zeros_like(p["embed/positions"]))
    grads["embed/positions"][:length] += dh.sum(axis=0)
    _acc(grads, "embed/tokens", np.zeros_like(p["embed/tokens"]))
    np.add.at(grads["embed/tokens"], ids.reshape(-1), dh.reshape(-1, cfg.d_model))
