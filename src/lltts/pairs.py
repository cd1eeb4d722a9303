"""Pair tables: the half of a model pass that reads no parameter.

A position's activations depend only on its (token, language) pair, so a
model pass runs over a table of its batch's distinct pairs. `plan_steps`
builds the tables of a chunk of consecutive steps at once (training steps,
EWC's Fisher samples or `model.loss_and_grad`'s one batch), with all that
their passes need of the targets; `model.run_step` runs one step.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputDomainError
from .samplers import Batch, Provenance
from .store import join_rows

if TYPE_CHECKING:  # model imports this module
    from .model import ModelTopology


def _check_rows(topology: ModelTopology, store, rows, period: int) -> None:
    """Raise InputDomainError naming the first of `rows`, by its position in
    its step's `period` consecutive rows, whose token ids, language id or
    frame dim do not fit the topology.

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
            raise InputDomainError(f"sample {i % period}: token id out of range [0, {vocab})")
        if not 0 <= langs[row] < num_languages:
            raise InputDomainError(
                f"sample {i % period}: language id {langs[row]} out of range [0, {num_languages})"
            )


def _gather_pairs(topology: ModelTopology, batch, sizes, period: int | None = None):
    """The batch's valid positions, flat in batch order, as rows of a table of
    the distinct (token, language) pairs of each group of `sizes` consecutive
    batch rows.

    A pair's key is (group * vocab_size + token) * num_languages + language,
    so each group's pairs are one block of the table, as its rows alone would
    give it. An input error names its sample by its position in its step of
    `period` rows, the whole batch by default. Returns each pair's token and
    language, each position's row of the table and index into the store, each
    sample's length and each pair's key.
    """
    store, rows = batch.store, batch.rows
    _check_rows(topology, store, rows, period or len(rows))
    lengths = store.lengths[rows]
    ends = np.cumsum(lengths)
    # each position's index into the store
    pos = np.repeat(store.starts[rows] - (ends - lengths), lengths)
    pos += np.arange(ends[-1])
    n_lang = topology.num_languages
    span = topology.vocab_size * n_lang
    # each row's group offset and language, the part of its keys past the token
    offsets = np.repeat(np.arange(len(sizes)) * span, sizes)
    offsets += store.langs[rows]
    keys = np.multiply(store.tokens[pos], n_lang, dtype=np.intp)
    keys += np.repeat(offsets, lengths)
    # slot[key] is 1 for each key present, then the key's row in the table
    slot = np.zeros(len(sizes) * span, dtype=np.intp)
    slot[keys] = 1
    pairs = np.flatnonzero(slot)
    slot[pairs] = np.arange(len(pairs))
    pair_tokens, pair_langs = np.divmod(pairs % span, n_lang)
    return pair_tokens, pair_langs, slot[keys], pos, lengths, pairs


@dataclass
class PairPlan:
    """What the passes of a chunk of steps need of their batches: a step's
    group heads and (first, end) groups of each run on one head; per pair of
    the table, its token, language, summed loss weights W (pairs, 1),
    weighted targets S (pairs, frame_dim) and embedding row in its step; per
    group, its rows, sum of w * |t|^2 and first table row (`bounds` ends with
    P); per step, the (a, b, bounds, blocks, runs) of `model.run_step`, which
    sets `grads`: the (groups, n_params) buffer all steps overwrite, and its views."""

    heads: list
    runs: list
    sizes: list
    tokens: np.ndarray
    langs: np.ndarray
    w_sum: np.ndarray
    s_sum: np.ndarray
    emb_rows: np.ndarray
    t_sq: np.ndarray
    bounds: list
    steps: list
    grads: tuple | None = None


def plan_steps(topology: ModelTopology, parts, heads) -> PairPlan:
    """The PairPlan of the steps whose groups' batches are the (store, rows)
    parts, step after step, group g of each step on heads[g].

    Its table is the grouped table of all the steps' groups, so each step's
    pairs are one block, as its parts alone would give them. A position's
    loss weight is w = 1 / (n_g * T_i * frame_dim); W and S sum the pair's
    positions in batch order, as a step planned alone sums them, and a
    group's sum of w * |t|^2 sums its rows' w * (the store's Σ|t|^2).
    """
    sizes = [len(rows) for _, rows in parts]
    n_groups = len(heads)
    cuts = [0] + [g for g in range(1, n_groups) if heads[g] is not heads[g - 1]]
    runs = list(itertools.pairwise(cuts + [n_groups]))
    store, rows = join_rows(parts)
    frame_sq = store.frame_sq()[rows]  # first, so squaring a new store overlaps no temporary
    pair_tokens, pair_langs, idx, pos, lengths, pairs = _gather_pairs(
        topology, Batch.of_rows(store, rows, Provenance.LBS), sizes, sum(sizes[:n_groups])
    )
    n_pairs = len(pairs)
    span = topology.vocab_size * topology.num_languages
    bounds = pairs.searchsorted(np.arange(len(sizes) + 1) * span).tolist()
    # a step's embedding gradient rows are group * vocab_size + token
    emb_rows = pairs // topology.num_languages % (n_groups * topology.vocab_size)
    del pairs
    # each row's n_g * frame_dim, from Python floats: an intp array times a
    # float runs numpy's int64-to-float64 cast, 64 kB of its code that
    # nothing else in a run executes and that then counts in the peak RSS
    row_scale = np.repeat([n * float(topology.frame_dim) for n in sizes], sizes)
    row_weight = 1.0 / (lengths * row_scale)
    t_sq = np.add.reduceat(row_weight * frame_sq, np.cumsum(sizes) - sizes)
    weight = np.repeat(row_weight, lengths)
    w_sum = np.bincount(idx, weights=weight, minlength=n_pairs)[:, None]
    # S one frame coefficient at a time, so that no temporary holds every
    # position's frame
    frames = store.frames.reshape(-1)
    pos *= topology.frame_dim
    wt = np.empty(len(pos))
    s_sum = np.empty((n_pairs, topology.frame_dim))
    for j in range(topology.frame_dim):
        frames.take(pos, out=wt, mode="clip")  # the indices are in range: no buffer
        wt *= weight
        s_sum[:, j] = np.bincount(idx, weights=wt, minlength=n_pairs)
        pos += 1
    steps = []
    for a, first in zip(bounds[: len(sizes) : n_groups], range(0, len(sizes), n_groups)):
        rel = [x - a for x in bounds[first : first + n_groups + 1]]
        step_runs = [(heads[ga], slice(rel[ga], rel[gb])) for ga, gb in runs]
        steps.append((a, a + rel[-1], rel, list(itertools.pairwise(rel)), step_runs))
    return PairPlan(heads, runs, sizes, pair_tokens, pair_langs, w_sum, s_sum, emb_rows, t_sq,
                    bounds, steps)
