"""Toy dual-head acoustic model with exact analytic gradients.

Per-position feed-forward pipeline: token embedding -> tanh encoder ->
language one-hot concat -> tanh trunk -> one of two linear projection
heads -> residual post net. The trunk and post net are shared between
heads; a batch's gradient is zero on the head it does not use.

A position's activations depend only on its (token, language) pair, so the
forward, the backward and evaluation run over a table of the batch's
distinct pairs (at most 40 rows for a one-language paper-scale batch of
about 800 positions) and never over padded positions. Several batches can
share one pass as groups of one table, each on its own head: a dual step's
LBS and RRS batches, whose weighted losses share one gradient, or a GEM
step's batch and its reference batches, each with a gradient of its own.

Every gradient is taken from a plan of the tables of a chunk of steps
(`pairs.plan_steps`), with each pair's summed loss weights W and weighted
targets S (its group's weight folded in), and each group's sum of w·|t|².
`run_step` runs one step over its block of pairs: the gradient at a pair's
output y is 2 (W y − S), and a group's loss is Σ_p (W_p·|y_p|² − 2·y_p·S_p)
+ Σ_i w_i·|t_i|², so no step touches a per-position array.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericError, UsageError
from .pairs import PairPlan, _gather_pairs, plan_steps
from .samplers import Batch, Provenance


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

    @functools.cached_property
    def weights(self) -> "_Weights":
        """Named views of `values`, made on first use; `values` is changed in place only."""
        return _Weights(self.topology, self.values)


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


def _affine(x, weight, bias, tanh: bool, out=None):
    """x @ weight.T + bias, through tanh if asked, in `out` or the buffer the product returns."""
    out = np.dot(x, weight.T, out=out)
    out += bias
    return np.tanh(out, out=out) if tanh else out


def _forward_pairs(w: _Weights, topology: ModelTopology, pair_tokens, pair_langs, runs):
    """Every activation of the pair table, with the table rows of each (head,
    rows, ...) of `runs` through that head: each (pairs, ·), but for the pre- and
    post-net frames, the rows of one (2, pairs, frame_dim) array y."""
    e = w.emb[pair_tokens]
    # the trunk's input: h, then the language one-hot; h is a view of it
    n_pairs, n_h = len(e), topology.encoder_hidden
    z = np.zeros((n_pairs, n_h + topology.num_languages))
    z[:, :n_h] = _affine(e, w.w_enc, w.b_enc, tanh=True)
    h = z[:, :n_h]
    z[np.arange(n_pairs), n_h + pair_langs] = 1.0
    u = _affine(z, w.w_trunk, w.b_trunk, tanh=True)
    y = np.empty((2, n_pairs, topology.frame_dim))
    y_pre, y_post = y
    for head, rows, *_ in runs:
        _affine(u[rows], *w.heads[head], tanh=False, out=y_pre[rows])
    q = _affine(y_pre, w.w_p1, w.b_p1, tanh=True)
    np.dot(q, w.w_p2.T, out=y_post)
    y_post += y_pre
    y_post += w.b_p2
    return e, h, z, u, y, q


def _predict(params: ParameterSet, batch, head: Head):
    """The pair table's pre- and post-net frames, with each position's row of
    the table and index into the store, and each sample's length."""
    topology = params.topology
    pair_tokens, pair_langs, idx, pos, lengths, _ = _gather_pairs(topology, batch, [len(batch.rows)])
    *_, (y_pre, y_post), _ = _forward_pairs(
        params.weights, topology, pair_tokens, pair_langs, [(head, slice(None))]
    )
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


def _block_grads(g_weight, g_bias, d, x, blocks):
    """The weight and bias gradient of each (output, a, b) of `blocks`,
    d.T @ x and the sum of d over table rows a to b, written into its views."""
    for o, a, b in blocks:
        np.add.reduce(d[a:b], axis=0, out=g_bias[o])
        np.dot(d[a:b].T, x[a:b], out=g_weight[o])


def run_step(params: ParameterSet, plan: PairPlan, step: int):
    """The weighted loss of each group of step `step` of `plan` and the
    gradient of each output, from one model pass over the step's block of the
    table: a LossBreakdown per group and an (outputs, n_params) array.

    The gradients are the plan's buffer, which the plan's next step
    overwrites. The backward runs once over the block; each output's weight
    and bias gradients are products over its rows, and the embedding
    gradient is scattered by (output, token). Each run of consecutive groups
    on one head takes one head product each way.
    """
    topology, n_groups = params.topology, len(plan.heads)
    a, b, bounds, blocks, runs = plan.steps[step]
    w = params.weights
    e, _, z, u, y, q = _forward_pairs(w, topology, plan.tokens[a:b], plan.langs[a:b], runs)
    s_sum = plan.s_sum[a:b]
    # W y - S at the pairs' pre- and post-net outputs, where the gradient is twice it
    d = plan.w_sum[a:b] * y
    d -= s_sum
    # each group's loss: its pairs' W |y|^2 - 2 y.S, plus its sum of w |t|^2
    sums = np.add.reduceat((y * (d - s_sum)).sum(axis=2), bounds[:-1], axis=1)
    pre, post = (sums + plan.t_sq[step * n_groups : (step + 1) * n_groups]).tolist()
    losses = [LossBreakdown(*m) for m in zip(pre, post)]

    if plan.grads is None:
        grads = np.zeros((len(blocks), len(params.values)))
        plan.grads = grads, _Weights(topology, grads)
    grads, g = plan.grads
    dy_pre, g_post = np.multiply(d, 2.0, out=d)
    _block_grads(g.w_p2, g.b_p2, g_post, q, blocks)
    ds1 = np.dot(g_post, w.w_p2)
    # tanh's derivative 1 - a^2 at its output a, in a's buffer once a is read
    ds1 *= np.subtract(1.0, np.square(q, out=q), out=q)
    _block_grads(g.w_p1, g.b_p1, ds1, y[0], blocks)
    # 2 (W y_pre - S) + g_post + ds1 @ w_p1, in d's buffer
    dy_pre += g_post
    dy_pre += np.dot(ds1, w.w_p1)
    del y, q, ds1  # read; freed before the step's heap peaks
    da_tr = np.empty_like(u)
    for head, rows, pieces in runs:
        _block_grads(*g.heads[head], dy_pre, u, pieces)
        np.dot(dy_pre[rows], w.heads[head][0], out=da_tr[rows])
    da_tr *= np.subtract(1.0, np.square(u, out=u), out=u)
    del d, dy_pre, g_post, u
    _block_grads(g.w_trunk, g.b_trunk, da_tr, z, blocks)
    da_enc = np.dot(da_tr, w.w_trunk[:, : topology.encoder_hidden])
    # 1 - h^2 in all of z, h's columns and the rest: on h, a strided view, ufuncs buffer
    da_enc *= np.subtract(1.0, np.square(z, out=z), out=z)[:, : topology.encoder_hidden]
    _block_grads(g.w_enc, g.b_enc, da_enc, e, blocks)
    de = np.dot(da_enc, w.w_enc, out=e)  # e is read
    de = _scatter_rows(plan.emb_rows[a:b], de, len(blocks) * topology.vocab_size)
    g.emb[...] = de.reshape(g.emb.shape)
    return losses, grads


def loss_and_grad(params: ParameterSet, batch, head: Head):
    """MSE(pre) + MSE(post) vs targets, with the exact analytic gradient.

    Per-sample loss averages over positions and frame coefficients; the
    batch loss averages over samples. The unselected head's gradient
    segment stays zero. The plan of one step of one group, run.
    """
    plan = plan_steps(params.topology, [(batch.store, batch.rows)], [head], [1.0])
    losses, grads = run_step(params, plan, 0)
    return losses[0], grads[0]


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
