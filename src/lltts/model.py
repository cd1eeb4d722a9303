"""Toy dual-head acoustic model with exact analytic gradients.

Per-position feed-forward pipeline: token embedding -> tanh encoder ->
language one-hot concat -> tanh trunk -> one of two linear projection
heads -> residual post net. The trunk and post net are shared between
heads; a batch's gradient is zero on the head it does not use.

A position's activations depend only on its (token, language) pair, so the
forward, the backward and evaluation run over a table of the batch's
distinct pairs (at most 40 rows for a one-language paper-scale batch of
about 800 positions) and never over padded positions. The loss still sums
each position's own residual. Several batches can share one pass as groups
of one table, each with its own head, loss and gradient: a dual step's LBS
and RRS batches, or a GEM step's batch and its reference batches.
"""
from __future__ import annotations

import enum
import functools
import itertools
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


@functools.cache
def _spans(topology: ModelTopology) -> tuple:
    """(name, slice of the flat vector, shape) of every weight and bias."""
    spans, start = [], 0
    for name, shape in _layout(topology):
        size = math.prod(shape)
        spans.append((name, slice(start, start + size), shape))
        start += size
    return tuple(spans)


class _Weights:
    """Named matrix views over the last axis of a (..., n_params) array of
    parameter or gradient vectors."""

    def __init__(self, topology: ModelTopology, flat: np.ndarray):
        lead = flat.shape[:-1]
        for name, span, shape in _spans(topology):
            setattr(self, name, flat[..., span].reshape(lead + shape))
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


def _gather_pairs(topology: ModelTopology, batch, sizes):
    """The batch's valid positions, flat in batch order, as rows of a table of
    the distinct (token, language) pairs of each group of `sizes` consecutive
    batch rows.

    A pair's key is (group * vocab_size + token) * num_languages + language,
    so each group's pairs are one block of the table, as its rows alone would
    give it. Returns each pair's token and language, each position's row of
    the table and index into the store, each sample's length and each pair's
    key.
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
    # each group's keys follow those of the groups before it
    span = topology.vocab_size * n_lang
    for row in itertools.accumulate(sizes[:-1]):
        keys[ends[row - 1] :] += span
    # slot[key] is 1 for each key present, then the key's row in the table
    slot = np.zeros(len(sizes) * span, dtype=np.intp)
    slot[keys] = 1
    pairs = np.flatnonzero(slot)
    slot[pairs] = np.arange(len(pairs))
    pair_tokens, pair_langs = np.divmod(pairs % span, n_lang)
    return pair_tokens, pair_langs, slot[keys], pos, lengths, pairs


def _affine(x, weight, bias, tanh: bool):
    """x @ weight.T + bias, through tanh if asked, in the buffer the product returns."""
    out = x @ weight.T
    out += bias
    return np.tanh(out, out=out) if tanh else out


def _stack_runs(parts):
    """The head runs' blocks of rows as one array; a single run's block as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _forward_pairs(w: _Weights, topology: ModelTopology, pair_tokens, pair_langs, runs):
    """Every activation of the pair table, each (pairs, ·), with the table
    rows of each (head, rows) of `runs` through that head."""
    e = w.emb[pair_tokens]
    h = _affine(e, w.w_enc, w.b_enc, tanh=True)
    # the trunk's input: h, then the language one-hot
    n_pairs, n_h = h.shape
    z = np.zeros((n_pairs, n_h + topology.num_languages))
    z[:, :n_h] = h
    z[np.arange(n_pairs), n_h + pair_langs] = 1.0
    u = _affine(z, w.w_trunk, w.b_trunk, tanh=True)
    y_pre = _stack_runs([_affine(u[rows], *w.heads[head], tanh=False) for head, rows in runs])
    q = _affine(y_pre, w.w_p1, w.b_p1, tanh=True)
    y_post = q @ w.w_p2.T
    y_post += y_pre
    y_post += w.b_p2
    return e, h, z, u, y_pre, q, y_post


def _predict(params: ParameterSet, batch, head: Head):
    """The pair table's pre- and post-net frames, with each position's row of
    the table and index into the store, and each sample's length."""
    topology = params.topology
    pair_tokens, pair_langs, idx, pos, lengths, _ = _gather_pairs(topology, batch, [len(batch.rows)])
    w = _Weights(topology, params.values)
    *_, y_pre, _, y_post = _forward_pairs(w, topology, pair_tokens, pair_langs, [(head, slice(None))])
    return y_pre, y_post, idx, pos, lengths


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


def _position_sums(batch, pos, idx, weight, ends, y_pre, y_post):
    """Each group's LossBreakdown, over its positions up to `ends`, and each
    pair's weighted target sum S."""
    targets = batch.store.frames.take(pos, axis=0)
    mse = []
    for y in (y_pre, y_post):
        sq = y.take(idx, axis=0)
        sq -= targets
        sq *= sq
        sq *= weight[:, None]
        mse.append([float(sq[a:b].sum()) for a, b in zip([0, *ends], ends)])
        del sq  # before the next residuals
    targets *= weight[:, None]
    return [LossBreakdown(*m) for m in zip(*mse)], _scatter_rows(idx, targets, len(y_pre))


def _block_grads(g_weight, g_bias, d, x, blocks):
    """Each group's weight and bias gradient, d.T @ x and the sum of d over
    the group's block of table rows."""
    for i, (a, b) in enumerate(blocks):
        g_bias[i] = d[a:b].sum(axis=0)
        g_weight[i] = d[a:b].T @ x[a:b]


def loss_and_grad(params: ParameterSet, batch, head: Head):
    """MSE(pre) + MSE(post) vs targets, with the exact analytic gradient.

    Per-sample loss averages over positions and frame coefficients; the
    batch loss averages over samples. The unselected head's gradient
    segment stays zero. `group_loss_and_grads` with one group.
    """
    losses, grads = group_loss_and_grads(params, batch, [head], [len(batch.rows)])
    return losses[0], grads[0]


def group_loss_and_grads(params: ParameterSet, batch, heads, sizes):
    """`loss_and_grad` of each group of `sizes` consecutive batch rows on its
    head of `heads`, from one model pass: a LossBreakdown per group and a
    (groups, n_params) array of their gradients.

    The gradient at a pair's output y is 2 (W y - S), with W the summed loss
    weights of the pair's positions and S their weighted targets. The
    backward runs once over the table; each group's weight and bias gradients
    are products over its block of rows, and the embedding gradient is
    scattered by (group, token). Each run of consecutive groups on one head
    takes one head product each way.
    """
    topology = params.topology
    pair_tokens, pair_langs, idx, pos, lengths, pairs = _gather_pairs(topology, batch, sizes)
    n_pairs, f_dim = len(pairs), topology.frame_dim
    # each group's end in the batch's rows, in its positions and in the table
    row_ends = list(itertools.accumulate(sizes))
    ends = [int(lengths[:r].sum()) for r in row_ends[:-1]] + [len(idx)]
    span = topology.vocab_size * topology.num_languages
    bounds = [0] + [int(pairs.searchsorted(g * span)) for g in range(1, len(sizes))] + [n_pairs]
    blocks = list(itertools.pairwise(bounds))
    # each run of consecutive groups on one head: its groups a:b, and its head and table rows
    cuts = [0] + [g for g in range(1, len(heads)) if heads[g] is not heads[g - 1]] + [len(heads)]
    run_groups = list(itertools.pairwise(cuts))
    runs = [(heads[a], slice(bounds[a], bounds[b])) for a, b in run_groups]
    w = _Weights(topology, params.values)
    e, h, z, u, y_pre, q, y_post = _forward_pairs(w, topology, pair_tokens, pair_langs, runs)

    # each position's loss weight, 1 / (n_g * T_i * frame_dim), n_g its group's size
    scale = lengths * float(sizes[0] * f_dim)
    for a, b in itertools.pairwise(row_ends):
        scale[a:b] = lengths[a:b] * float((b - a) * f_dim)
    weight = np.repeat(1.0 / scale, lengths)
    losses, s_sum = _position_sums(batch, pos, idx, weight, ends, y_pre, y_post)
    w_sum = np.bincount(idx, weights=weight, minlength=n_pairs)[:, None]

    grads = np.zeros((len(ends), len(params.values)))
    g = _Weights(topology, grads)
    g_post = 2.0 * (w_sum * y_post - s_sum)
    _block_grads(g.w_p2, g.b_p2, g_post, q, blocks)
    ds1 = (g_post @ w.w_p2) * (1.0 - q**2)
    _block_grads(g.w_p1, g.b_p1, ds1, y_pre, blocks)
    dy_pre = 2.0 * (w_sum * y_pre - s_sum) + g_post + ds1 @ w.w_p1
    for (a, b), (head, _) in zip(run_groups, runs):
        g_w, g_b = g.heads[head]
        _block_grads(g_w[a:b], g_b[a:b], dy_pre, u, blocks[a:b])
    da_tr = _stack_runs([dy_pre[rows] @ w.heads[head][0] for head, rows in runs]) * (1.0 - u**2)
    _block_grads(g.w_trunk, g.b_trunk, da_tr, z, blocks)
    da_enc = (da_tr @ w.w_trunk[:, : topology.encoder_hidden]) * (1.0 - h**2)
    _block_grads(g.w_enc, g.b_enc, da_enc, e, blocks)
    # each pair's embedding row is group * vocab_size + token
    emb_rows = pairs // topology.num_languages
    de = _scatter_rows(emb_rows, da_enc @ w.w_enc, len(grads) * topology.vocab_size)
    g.emb[...] = de.reshape(g.emb.shape)
    return losses, grads


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
