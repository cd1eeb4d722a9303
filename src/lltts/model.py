"""Toy dual-head acoustic model with exact analytic gradients.

Per-position feed-forward pipeline: token embedding -> tanh encoder ->
language one-hot concat -> tanh trunk -> one of two linear projection
heads -> residual post net. The trunk and post net are shared between
heads; only the selected head receives gradient.

A position's activations depend only on its (token, language) pair, so the
forward, the backward and evaluation run over a table of the batch's
distinct pairs (at most 40 rows for a one-language paper-scale batch of
about 800 positions) and never over padded positions. The loss still sums
each position's own residual.
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


def _gather_pairs(topology: ModelTopology, batch):
    """The batch's valid positions, flat in batch order, as rows of a table of
    its distinct (token, language) pairs.

    Returns each pair's token id and language id (the table, in key order),
    each position's row of the table, each position's target frame and each
    sample's length.
    """
    store, rows = batch.store, batch.rows
    _check_rows(topology, store, rows)
    lengths = store.lengths[rows]
    ends = np.cumsum(lengths)
    # each position's index into the store
    pos = np.repeat(store.starts[rows] - (ends - lengths), lengths)
    pos += np.arange(ends[-1])
    n_lang = topology.num_languages
    keys = np.multiply(store.tokens[pos], n_lang, dtype=np.intp)
    keys += np.repeat(store.langs[rows], lengths)
    # slot[key] is 1 for each pair present, then the pair's row in the table
    slot = np.zeros(topology.vocab_size * n_lang, dtype=np.intp)
    slot[keys] = 1
    pairs = np.flatnonzero(slot)
    slot[pairs] = np.arange(len(pairs))
    pair_tokens, pair_langs = np.divmod(pairs, n_lang)
    return pair_tokens, pair_langs, slot[keys], store.frames.take(pos, axis=0), lengths


def _affine(x, weight, bias, tanh: bool):
    """x @ weight.T + bias, through tanh if asked, in the buffer the product returns."""
    out = x @ weight.T
    out += bias
    return np.tanh(out, out=out) if tanh else out


def _forward_pairs(w: _Weights, topology: ModelTopology, pair_tokens, pair_langs, head: Head):
    """Every activation of the pair table, each (pairs, ·)."""
    e = w.emb[pair_tokens]
    h = _affine(e, w.w_enc, w.b_enc, tanh=True)
    z = np.concatenate([h, np.eye(topology.num_languages)[pair_langs]], axis=1)
    u = _affine(z, w.w_trunk, w.b_trunk, tanh=True)
    w_h, b_h = w.heads[head]
    y_pre = _affine(u, w_h, b_h, tanh=False)
    q = _affine(y_pre, w.w_p1, w.b_p1, tanh=True)
    y_post = q @ w.w_p2.T
    y_post += y_pre
    y_post += w.b_p2
    return e, h, z, u, y_pre, q, y_post


def _predict(params: ParameterSet, batch, head: Head):
    """The pair table's pre- and post-net frames, with each position's row of
    the table, each position's target frame and each sample's length."""
    topology = params.topology
    pair_tokens, pair_langs, idx, targets, lengths = _gather_pairs(topology, batch)
    w = _Weights(topology, params.values)
    *_, y_pre, _, y_post = _forward_pairs(w, topology, pair_tokens, pair_langs, head)
    return y_pre, y_post, idx, targets, lengths


def forward(params: ParameterSet, batch, head: Head):
    """Predicted frames per sample: (pre-postnet list, post-postnet list)."""
    y_pre, y_post, idx, _, lengths = _predict(params, batch, head)
    bounds = np.cumsum(lengths[:-1])
    return np.split(y_pre.take(idx, axis=0), bounds), np.split(y_post.take(idx, axis=0), bounds)


@dataclass
class LossBreakdown:
    pre_postnet_mse: float
    post_postnet_mse: float

    @property
    def total(self) -> float:
        return self.pre_postnet_mse + self.post_postnet_mse


def _scatter_rows(rows, values, n_rows: int):
    """An (n_rows, K) array whose row r is the sum of the values[i] with rows[i] == r."""
    k = values.shape[1]
    slots = (rows[:, None] * k + np.arange(k)).reshape(-1)
    return np.bincount(slots, weights=values.reshape(-1), minlength=n_rows * k).reshape(n_rows, k)


def loss_and_grad(params: ParameterSet, batch, head: Head):
    """MSE(pre) + MSE(post) vs targets, with the exact analytic gradient.

    Per-sample loss averages over positions and frame coefficients; the
    batch loss averages over samples. The unselected head's gradient
    segment stays zero.

    The loss is a sum of each position's weighted squared residual, so the
    gradient at a pair's output y is 2 (W y - S), with W the summed loss
    weights of the pair's positions and S their weighted targets, and the
    backward runs over the pair table.
    """
    topology = params.topology
    pair_tokens, pair_langs, idx, targets, lengths = _gather_pairs(topology, batch)
    w = _Weights(topology, params.values)
    e, h, z, u, y_pre, q, y_post = _forward_pairs(w, topology, pair_tokens, pair_langs, head)

    n_pairs, f_dim = y_pre.shape
    # each position's loss weight, 1 / (n_samples * T_i * frame_dim)
    weight = np.repeat(1.0 / (lengths * float(len(lengths) * f_dim)), lengths)
    loss = LossBreakdown(
        float(np.sum(weight[:, None] * (y_pre.take(idx, axis=0) - targets) ** 2)),
        float(np.sum(weight[:, None] * (y_post.take(idx, axis=0) - targets) ** 2)),
    )
    w_sum = np.bincount(idx, weights=weight, minlength=n_pairs)[:, None]
    s_sum = _scatter_rows(idx, weight[:, None] * targets, n_pairs)

    grad = np.zeros_like(params.values)
    g = _Weights(topology, grad)
    g_post = 2.0 * (w_sum * y_post - s_sum)
    g.b_p2[...] = g_post.sum(axis=0)
    g.w_p2[...] = g_post.T @ q
    ds1 = (g_post @ w.w_p2) * (1.0 - q**2)
    g.b_p1[...] = ds1.sum(axis=0)
    g.w_p1[...] = ds1.T @ y_pre
    dy_pre = 2.0 * (w_sum * y_pre - s_sum) + g_post + ds1 @ w.w_p1
    w_h, _ = w.heads[head]
    gw_h, gb_h = g.heads[head]
    gb_h[...] = dy_pre.sum(axis=0)
    gw_h[...] = dy_pre.T @ u
    da_tr = (dy_pre @ w_h) * (1.0 - u**2)
    g.b_trunk[...] = da_tr.sum(axis=0)
    g.w_trunk[...] = da_tr.T @ z
    da_enc = (da_tr @ w.w_trunk[:, : topology.encoder_hidden]) * (1.0 - h**2)
    g.b_enc[...] = da_enc.sum(axis=0)
    g.w_enc[...] = da_enc.T @ e
    g.emb[...] = _scatter_rows(pair_tokens, da_enc @ w.w_enc, topology.vocab_size)
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
