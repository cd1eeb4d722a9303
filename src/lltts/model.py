"""Toy dual-head acoustic model with exact analytic gradients.

Per-position feed-forward pipeline: token embedding -> tanh encoder ->
language one-hot concat -> tanh trunk -> one of two linear projection
heads -> residual post net. The trunk and post net are shared between
heads; a batch's gradient is zero on the head it does not use.

A position's activations depend only on its (token, language) pair, so the
forward, the backward and evaluation run over a table of pairs
(`pairs.Layout`), never over positions: the encoder over the vocabulary, the
rest over a block of `vocab_size` rows for each language a group can draw.
Several batches share one pass as groups of one table, each on its own head:
a dual step's LBS and RRS batches, whose weighted losses share one gradient,
or a GEM step's batch and its reference batches, each with its own.

Every gradient is taken from a plan of the tables of a chunk of steps
(`pairs.plan_steps`), with each row's summed loss weights W and weighted
targets S (its group's weight folded in), and each group's sum of w·|t|².
`run_step` runs one step over its table: the gradient at a row's output y
is 2 (W y − S), and a group's loss is Σ_p (W_p·|y_p|² − 2·y_p·S_p)
+ Σ_i w_i·|t_i|², so no step touches a per-position array.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericError, UsageError
from .pairs import Layout, PairPlan, _positions, plan_steps
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


def _forward(w: _Weights, layout: Layout):
    """Every activation of the layout's table: the encoder's h (vocab_size,
    ·), the trunk input z (the layout's, h then the language one-hot), u
    (rows, ·), the pre- and post-net frames y (2, rows, frame_dim) and q."""
    topology, z = layout.topology, layout.z
    h = _affine(w.emb, w.w_enc, w.b_enc, tanh=True)
    z.reshape(-1, topology.vocab_size, z.shape[1])[..., : topology.encoder_hidden] = h
    u = _affine(z, w.w_trunk, w.b_trunk, tanh=True)
    y = np.empty((2, layout.n_rows, topology.frame_dim))
    y_pre, y_post = y
    for head, rows in layout.runs:
        _affine(u[rows], *w.heads[head], tanh=False, out=y_pre[rows])
    q = _affine(y_pre, w.w_p1, w.b_p1, tanh=True)
    np.dot(q, w.w_p2.T, out=y_post)
    y_post += y_pre
    y_post += w.b_p2
    return h, z, u, y, q


def _predict(params: ParameterSet, batch, head: Head):
    """The pre- and post-net frames of the table of the batch's languages
    on `head`, with each position's row of the table and index into the
    store, and each sample's length."""
    layout = Layout.of_batch(params.topology, batch.store, batch.rows, head, None)
    *_, (y_pre, y_post), _ = _forward(params.weights, layout)
    return (y_pre, y_post, *_positions(layout, batch.store, batch.rows, [len(batch.rows)]))


def forward(params: ParameterSet, batch, head: Head):
    """Predicted frames per sample: (pre-postnet list, post-postnet list)."""
    y_pre, y_post, keys, _, lengths = _predict(params, batch, head)
    bounds = np.cumsum(lengths[:-1])
    return np.split(y_pre.take(keys, axis=0), bounds), np.split(y_post.take(keys, axis=0), bounds)


@dataclass
class LossBreakdown:
    pre_postnet_mse: float
    post_postnet_mse: float

    @property
    def total(self) -> float:
        return self.pre_postnet_mse + self.post_postnet_mse


def _grads(g_weight, g_bias, d, x):
    """Each output's weight gradient d.T @ x and bias gradient, the sum of d over
    its rows, into their views: d is (outputs, rows, ·), x that or (rows, ·)."""
    np.add.reduce(d, axis=1, out=g_bias)
    np.matmul(d.transpose(0, 2, 1), x, out=g_weight)


def run_step(params: ParameterSet, plan: PairPlan, step: int):
    """The weighted loss of each group of step `step` of `plan` and the
    gradient of each output, from one model pass over the step's table: a
    LossBreakdown per group and an (outputs, n_params) array.

    The gradients are the layout's buffer, which its next step overwrites.
    Each layer's weight and bias gradients are one product and one sum over
    an (outputs, rows, ·) view (a head's over its runs' rows, outputs that run
    alike at once); the encoder's sum each output's rows of a token first.
    """
    layout, topology, w = plan.layout, params.topology, params.weights
    n_groups, n_out, n_rows = len(layout.heads), layout.n_outputs, layout.n_rows
    rows = slice(step * n_rows, (step + 1) * n_rows)
    h, z, u, y, q = _forward(w, layout)
    s_sum = plan.s_sum[rows]
    # W y - S at the rows' pre- and post-net outputs, where the gradient is twice it
    d = plan.w_sum[rows] * y
    d -= s_sum
    # each group's loss: its rows' W |y|^2 - 2 y.S, plus its sum of w |t|^2
    sums = np.add.reduceat((y * (d - s_sum)).sum(axis=2), layout.group_rows, axis=1)
    pre, post = (sums + plan.t_sq[step * n_groups : (step + 1) * n_groups]).tolist()
    losses = [LossBreakdown(*m) for m in zip(pre, post)]

    if layout.grads is None:
        grads = np.zeros((n_out, len(params.values)))
        layout.grads = grads, _Weights(topology, grads)
    grads, g = layout.grads
    outs = lambda x: x.reshape(n_out, layout.width, x.shape[-1])  # an (outputs, rows, ·) view
    dy_pre, g_post = np.multiply(d, 2.0, out=d)
    _grads(g.w_p2, g.b_p2, outs(g_post), outs(q))
    ds1 = np.dot(g_post, w.w_p2)
    # tanh's derivative 1 - a^2 at its output a, in a's buffer once a is read
    ds1 *= np.subtract(1.0, np.square(q, out=q), out=q)
    _grads(g.w_p1, g.b_p1, outs(ds1), outs(y[0]))
    # 2 (W y_pre - S) + g_post + ds1 @ w_p1, in d's buffer
    dy_pre += g_post
    dy_pre += np.dot(ds1, w.w_p1)
    del y, q, ds1  # read; freed before the step's heap peaks
    da_tr = np.empty_like(u)
    for head, head_rows in layout.runs:
        np.dot(dy_pre[head_rows], w.heads[head][0], out=da_tr[head_rows])
    for head, oa, ob, span in layout.pieces:
        g_weight, g_bias = g.heads[head]
        _grads(g_weight[oa:ob], g_bias[oa:ob], outs(dy_pre)[oa:ob, span], outs(u)[oa:ob, span])
    da_tr *= np.subtract(1.0, np.square(u, out=u), out=u)
    del d, dy_pre, g_post, u
    _grads(g.w_trunk, g.b_trunk, outs(da_tr), outs(z))
    # each output's trunk input gradient at h, its blocks of a token summed
    da_h = da_tr.reshape(n_out, -1, topology.vocab_size, da_tr.shape[1]).sum(axis=1)
    da_enc = np.matmul(da_h, w.w_trunk[:, : topology.encoder_hidden])
    da_enc *= np.subtract(1.0, np.square(h, out=h), out=h)
    _grads(g.w_enc, g.b_enc, da_enc, w.emb)
    np.matmul(da_enc, w.w_enc, out=g.emb)
    return losses, grads


def loss_and_grad(params: ParameterSet, batch, head: Head):
    """MSE(pre) + MSE(post) vs targets, with the exact analytic gradient.

    Per-sample loss averages over positions and frame coefficients; the
    batch loss averages over samples. The unselected head's gradient
    segment stays zero. The plan of one step of one group, run.
    """
    layout = Layout.of_batch(params.topology, batch.store, batch.rows, head, 1.0)
    losses, grads = run_step(params, plan_steps(layout, [(batch.store, batch.rows)]), 0)
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
