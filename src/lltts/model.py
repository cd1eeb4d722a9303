"""Toy dual-head acoustic model with exact analytic gradients.

Per-position feed-forward pipeline: token embedding -> tanh encoder ->
language one-hot concat -> tanh trunk -> one of two linear projection
heads -> residual post net. The trunk and post net are shared between
heads; only the selected head receives gradient.

A position's activations depend only on its (token, language) pair, so the
forward runs once per distinct pair of a batch (at most 40 of a one-language
paper-scale batch's 1,008 positions) and gathers each activation back to the
positions. The pairs are computed in blocks of the batch's padded length T:
each product then has the shape of one sample's, (T, K) @ (K, N), and rounds
as it does. A product over more rows rounds differently at the paper shapes
(K = 32 and 36). The backward runs over every position.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputDomainError, NumericError, UsageError


class Head(enum.Enum):
    LBS = "lbs"
    RRS = "rrs"


@dataclass(frozen=True)
class ModelTopology:
    vocab_size: int
    embed_dim: int
    encoder_hidden: int
    trunk_dim: int
    frame_dim: int
    postnet_hidden: int
    num_languages: int

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise UsageError(f"topology field {f.name} must be >= 1")

    def num_params(self) -> int:
        return sum(math.prod(shape) for _, shape in _layout(self))


def _layout(t: ModelTopology) -> tuple:
    """(name, shape) of every weight and bias, in the order of the flat vector.

    Checkpoints store the flat vector, so a reordered table misreads them.
    """
    head = (t.frame_dim, t.trunk_dim)
    return (
        ("emb", (t.vocab_size, t.embed_dim)),
        ("w_enc", (t.encoder_hidden, t.embed_dim)),
        ("b_enc", (t.encoder_hidden,)),
        ("w_trunk", (t.trunk_dim, t.encoder_hidden + t.num_languages)),
        ("b_trunk", (t.trunk_dim,)),
        ("w_lbs", head),
        ("b_lbs", (t.frame_dim,)),
        ("w_rrs", head),
        ("b_rrs", (t.frame_dim,)),
        ("w_p1", (t.postnet_hidden, t.frame_dim)),
        ("b_p1", (t.postnet_hidden,)),
        ("w_p2", (t.frame_dim, t.postnet_hidden)),
        ("b_p2", (t.frame_dim,)),
    )


@dataclass
class ParameterSet:
    values: np.ndarray
    topology: ModelTopology

    def copy(self) -> "ParameterSet":
        return ParameterSet(self.values.copy(), self.topology)


class _Weights:
    """Named matrix views over one flat parameter (or gradient) vector."""

    def __init__(self, topology: ModelTopology, flat: np.ndarray):
        start = 0
        for name, shape in _layout(topology):
            size = math.prod(shape)
            setattr(self, name, flat[start : start + size].reshape(shape))
            start += size
        self.heads = {
            Head.LBS: (self.w_lbs, self.b_lbs),
            Head.RRS: (self.w_rrs, self.b_rrs),
        }


def init_params(topology: ModelTopology, seed: int) -> ParameterSet:
    """Xavier-uniform weights, zero biases; deterministic per seed."""
    values = np.zeros(topology.num_params())
    w = _Weights(topology, values)
    rng = np.random.default_rng(seed)
    for name, shape in _layout(topology):
        if len(shape) == 2:
            fan_out, fan_in = shape
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            getattr(w, name)[...] = rng.uniform(-bound, bound, size=shape)
    return ParameterSet(values, topology)


def _check_rows(topology: ModelTopology, store, rows) -> None:
    """Raise InputDomainError naming the first of `rows` (by its position in
    `rows`) whose token ids, language id or frame dim do not fit the topology.

    A store all of whose samples fit is remembered, so it is checked once.
    """
    if topology in store.checked:
        return
    width = store.frames.shape[1:]
    if width != (topology.frame_dim,):
        t = int(store.lengths[rows[0]])
        raise InputDomainError(
            f"sample 0: target frames of shape {(t, *width)}, expected ({t}, {topology.frame_dim})"
        )
    tokens, langs = store.tokens, store.langs
    vocab, num_languages = topology.vocab_size, topology.num_languages
    if min(tokens.min(), langs.min()) >= 0 and tokens.max() < vocab and langs.max() < num_languages:
        store.checked.add(topology)
        return
    for i, row in enumerate(rows.tolist()):
        a = store.starts[row]
        sample_tokens = tokens[a : a + store.lengths[row]]
        if sample_tokens.min() < 0 or sample_tokens.max() >= vocab:
            raise InputDomainError(f"sample {i}: token id out of range [0, {vocab})")
        if not 0 <= langs[row] < num_languages:
            raise InputDomainError(
                f"sample {i}: language id {langs[row]} out of range [0, {num_languages})"
            )


def _pad_batch(topology: ModelTopology, batch):
    """The batch's rows as padded arrays plus a mask: one gather from its store."""
    store, rows = batch.store, batch.rows
    _check_rows(topology, store, rows)
    lengths = store.lengths[rows]
    valid = np.arange(lengths.max()) < lengths[:, None]
    # each row's token positions; those past the sample's end are zeroed
    pos = store.starts[rows, None] + np.arange(valid.shape[1])
    invalid = ~valid
    tokens = store.tokens.take(pos, mode="clip")
    tokens[invalid] = 0
    targets = store.frames.take(pos, axis=0, mode="clip")
    targets[invalid] = 0.0
    return tokens, targets, valid.astype(np.float64), store.langs[rows]


def _affine(x, weight, bias, tanh: bool):
    """x @ weight.T + bias, through tanh if asked, in the buffer the product returns."""
    out = x @ weight.T
    out += bias
    return np.tanh(out, out=out) if tanh else out


def _forward_padded(w: _Weights, topology: ModelTopology, tokens, langs, head: Head):
    """Every activation of the padded batch, each (n, T, ·), gathered from a
    (blocks, T, ·) table of its distinct (token, language) pairs."""
    n_lang = topology.num_languages
    keys = np.multiply(tokens, n_lang, dtype=np.intp)
    keys += langs[:, None]
    # slot[key] is 1 for each pair present, then the pair's row in the table
    slot = np.zeros(topology.vocab_size * n_lang, dtype=np.intp)
    slot[keys] = 1
    pairs = np.flatnonzero(slot)
    slot[pairs] = np.arange(len(pairs))
    rows = slot[keys]
    t = tokens.shape[1]
    # rows past the last pair repeat the first pairs
    pair_tokens, pair_langs = np.divmod(np.resize(pairs, (-(-len(pairs) // t), t)), n_lang)

    def gather(table):
        return table.reshape(-1, table.shape[2]).take(rows, axis=0)

    # each table is dropped once the next is made from it
    e = w.emb[tokens]
    table = _affine(w.emb[pair_tokens], w.w_enc, w.b_enc, tanh=True)
    h = gather(table)
    table = np.concatenate([table, np.eye(n_lang)[pair_langs]], axis=2)
    z = gather(table)
    table = _affine(table, w.w_trunk, w.b_trunk, tanh=True)
    u = gather(table)
    w_h, b_h = w.heads[head]
    pre = _affine(table, w_h, b_h, tanh=False)
    y_pre = gather(pre)
    table = _affine(pre, w.w_p1, w.b_p1, tanh=True)
    q = gather(table)
    # pre + q @ w_p2.T + b_p2, with the first sum's operands swapped
    table = table @ w.w_p2.T
    table += pre
    table += w.b_p2
    return e, h, z, u, y_pre, q, gather(table)


def forward(params: ParameterSet, batch, head: Head):
    """Predicted frames per sample: (pre-postnet list, post-postnet list)."""
    topology = params.topology
    tokens, _, _, langs = _pad_batch(topology, batch)
    w = _Weights(topology, params.values)
    *_, y_pre, _, y_post = _forward_padded(w, topology, tokens, langs, head)
    pre, post = [], []
    for i, ti in enumerate(batch.store.lengths[batch.rows].tolist()):
        pre.append(y_pre[i, :ti].copy())
        post.append(y_post[i, :ti].copy())
    return pre, post


@dataclass
class LossBreakdown:
    pre_postnet_mse: float
    post_postnet_mse: float

    @property
    def total(self) -> float:
        return self.pre_postnet_mse + self.post_postnet_mse


def _weight_grad(upstream, inputs):
    """Gradient of a per-position linear map, sum_{b,t} upstream[b,t] x inputs[b,t].

    One small GEMM per sample, summed over the batch axis. Each product is far
    below the size at which OpenBLAS starts worker threads, so the rounding,
    and hence every result, is the same for any BLAS thread count; a single
    GEMM over the flattened batch is threaded at the larger topologies and
    rounds differently with the thread count.
    """
    return np.matmul(upstream.transpose(0, 2, 1), inputs).sum(axis=0)


def loss_and_grad(params: ParameterSet, batch, head: Head):
    """MSE(pre) + MSE(post) vs targets, with the exact analytic gradient.

    Per-sample loss averages over positions and frame coefficients; the
    batch loss averages over samples. The unselected head's gradient
    segment stays zero.
    """
    topology = params.topology
    # d_pre is the targets' buffer and d_post is y_post's, until each becomes its residual
    tokens, d_pre, mask, langs = _pad_batch(topology, batch)
    w = _Weights(topology, params.values)
    e, h, z, u, y_pre, q, d_post = _forward_padded(w, topology, tokens, langs, head)

    n, _, f_dim = d_pre.shape
    lengths = mask.sum(axis=1)
    # per-element averaging weight: 1 / (n_samples * T_i * frame_dim)
    weight = (mask / (n * lengths[:, None] * f_dim))[:, :, None]
    del mask, langs

    # A backward quantity takes over the buffer of an array at its last use, and
    # what no later step reads is dropped before the next weight gradient. Each
    # step is the out-of-place operation, the operands of a + or * at most
    # swapped, so the bits are the same.
    d_post -= d_pre
    np.subtract(y_pre, d_pre, out=d_pre)
    pre_mse = float(np.sum(weight * d_pre**2))
    post_mse = float(np.sum(weight * d_post**2))
    loss = LossBreakdown(pre_mse, post_mse)

    grad = np.zeros_like(params.values)
    g = _Weights(topology, grad)

    g_post = np.multiply(2.0 * weight, d_post, out=d_post)
    g.b_p2[...] = g_post.sum(axis=(0, 1))
    g.w_p2[...] = _weight_grad(g_post, q)
    ds1 = g_post @ w.w_p2  # dq, then dq * (1 - q**2)
    ds1 *= np.subtract(1.0, np.square(q, out=q), out=q)
    del q
    g.b_p1[...] = ds1.sum(axis=(0, 1))
    g.w_p1[...] = _weight_grad(ds1, y_pre)
    del y_pre

    dy_pre = np.multiply(2.0 * weight, d_pre, out=d_pre)
    dy_pre += g_post
    dy_pre += ds1 @ w.w_p1
    del weight, d_post, g_post, ds1
    w_h, _ = w.heads[head]
    gw_h, gb_h = g.heads[head]
    gb_h[...] = dy_pre.sum(axis=(0, 1))
    gw_h[...] = _weight_grad(dy_pre, u)

    da_tr = dy_pre @ w_h  # du, then du * (1 - u**2)
    da_tr *= np.subtract(1.0, np.square(u, out=u), out=u)
    del d_pre, dy_pre, u
    g.b_trunk[...] = da_tr.sum(axis=(0, 1))
    g.w_trunk[...] = _weight_grad(da_tr, z)
    dh = (da_tr @ w.w_trunk)[:, :, : topology.encoder_hidden]
    del da_tr, z
    da_enc = np.multiply(dh, np.subtract(1.0, np.square(h, out=h), out=h), out=h)
    del dh
    g.b_enc[...] = da_enc.sum(axis=(0, 1))
    g.w_enc[...] = _weight_grad(da_enc, e)
    de = da_enc @ w.w_enc
    del e, da_enc, h
    # bincount adds the rows in input order onto 0.0, as np.add.at would, so
    # the sums are bitwise the same; padded positions carry zero upstream
    # gradient and add exact zeros, so no masking is needed
    d_emb = topology.embed_dim
    slots = (tokens.reshape(-1, 1) * d_emb + np.arange(d_emb)).reshape(-1)
    g.emb[...] = np.bincount(
        slots, weights=de.reshape(-1), minlength=topology.vocab_size * d_emb
    ).reshape(topology.vocab_size, d_emb)
    return loss, grad


# Adam's moment decay rates and denominator offset
ADAM_B1 = 0.9
ADAM_B2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    lr: float = 0.001

    @classmethod
    def fresh(cls, n_params: int, lr: float = 0.001) -> "AdamState":
        return cls(np.zeros(n_params), np.zeros(n_params), lr=lr)


def adam_step(state: AdamState, params: ParameterSet, grad: np.ndarray):
    """Standard Adam with bias correction; returns updated (state, params)."""
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite gradient entries")
    t = state.step + 1
    m = ADAM_B1 * state.first_moment + (1 - ADAM_B1) * grad
    v = ADAM_B2 * state.second_moment + (1 - ADAM_B2) * grad**2
    m_hat = m / (1 - ADAM_B1**t)
    v_hat = v / (1 - ADAM_B2**t)
    new_values = params.values - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return AdamState(m, v, t, state.lr), ParameterSet(new_values, params.topology)


def infer(params: ParameterSet, sample) -> np.ndarray:
    """Post-postnet output of the LBS branch for a single sample."""
    from .samplers import Batch, Provenance

    _, post = forward(params, Batch([sample], Provenance.LBS), Head.LBS)
    return post[0]


def finite_diff_check(params: ParameterSet, batch, head: Head, eps: float = 1e-5) -> float:
    """Max relative error of the analytic gradient vs central differences."""
    if eps <= 0:
        raise UsageError("eps must be positive")
    _, grad = loss_and_grad(params, batch, head)
    worst = 0.0
    values = params.values
    for i in range(len(values)):
        orig = values[i]
        values[i] = orig + eps
        up, _ = loss_and_grad(params, batch, head)
        values[i] = orig - eps
        down, _ = loss_and_grad(params, batch, head)
        values[i] = orig
        fd = (up.total - down.total) / (2 * eps)
        err = abs(grad[i] - fd) / max(1.0, abs(fd))
        worst = max(worst, err)
    return worst
