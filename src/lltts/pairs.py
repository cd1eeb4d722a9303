"""Pair tables: the half of a model pass that reads no parameter.

A position's activations depend only on its (token, language) pair. A
`Layout` fixes the table of pairs once for every step of a stage: its rows
are (output, head, language block, token), `vocab_size` rows a block in
token order, each group's blocks the languages it can draw, and every output
as many rows (an output of fewer blocks is padded with blocks no position
reaches). `plan_steps` sums the positions of a chunk of steps into their
steps' tables by bincount; `model.run_step` runs one step.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputDomainError, UsageError
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


class Layout:
    """The pair table of every step of a stage, whose group g is on heads[g],
    of loss weight weights[g], and draws the languages languages[g]. The
    weighted groups come first, those of a head consecutive: their summed
    loss is output 0; each group of weight None is an output of its own.
    Holds the trunk input z, whose language one-hot columns it writes once,
    and the gradient buffer that `model.run_step` makes once and overwrites.
    """

    def __init__(self, topology: ModelTopology, heads, weights, languages):
        n_groups = len(heads)
        n_sum = len(weights) - weights.count(None)
        if None in weights[:n_sum] or heads[:n_sum] != sorted(heads[:n_sum], key=heads.index):
            raise UsageError("the weighted groups must come first, those of a head consecutive")
        self.topology, self.heads, self.weights = topology, list(heads), list(weights)
        outs = list(itertools.pairwise([0, *range(max(1, n_sum), n_groups + 1)]))
        blocks = [sorted(set(langs)) for langs in languages]
        if bad := sorted({lang for b in blocks for lang in b} - set(range(topology.num_languages))):
            raise InputDomainError(f"language id {bad[0]} out of range [0, {topology.num_languages})")
        n_blocks = max(sum(len(blocks[g]) for g in range(a, b)) for a, b in outs)  # the widest's
        self.n_outputs, self.width = len(outs), n_blocks * topology.vocab_size  # every output's rows
        self.n_rows, vocab = len(outs) * self.width, topology.vocab_size
        # the first row of group g's block of each language; -1 where it has none
        self.base = np.full((n_groups, topology.num_languages), -1, dtype=np.intp)
        block_langs, self.group_rows = [], []
        for o, (a, b) in enumerate(outs):
            for g in range(a, b):
                self.group_rows.append(len(block_langs) * vocab)
                self.base[g, blocks[g]] = (len(block_langs) + np.arange(len(blocks[g]))) * vocab
                block_langs += blocks[g]
            # padding: blocks of the output's last language, on its last group's head
            block_langs += block_langs[-1:] * ((o + 1) * n_blocks - len(block_langs))
        # the runs of consecutive groups on one head (rows), and the backward's head
        # products: a run's rows in each output, over consecutive outputs alike
        firsts = [g for g in range(n_groups) if g == 0 or heads[g] is not heads[g - 1]]
        bounds = [self.group_rows[g] for g in firsts] + [self.n_rows]
        self.runs = [(heads[g], slice(*rows)) for g, rows in zip(firsts, itertools.pairwise(bounds))]
        self.pieces = []  # [head, first output, end output, rows of each]
        for head, rows in self.runs:
            for o in range(rows.start // self.width, -(-rows.stop // self.width)):
                span = slice(max(rows.start - o * self.width, 0), min(rows.stop - o * self.width, self.width))
                if self.pieces and self.pieces[-1][0] is head and self.pieces[-1][2:] == [o, span]:
                    self.pieces[-1][2] = o + 1
                else:
                    self.pieces.append([head, o, o + 1, span])
        self.z = np.zeros((self.n_rows, topology.encoder_hidden + topology.num_languages))
        self.z[np.arange(self.n_rows), topology.encoder_hidden + np.repeat(block_langs, vocab)] = 1.0
        self.grads = None

    @classmethod
    def of_batch(cls, topology: ModelTopology, store, rows, head, weight) -> Layout:
        """The layout of one group, the store's `rows`, whose blocks are the
        languages they hold."""
        _check_rows(topology, store, rows, len(rows))
        return cls(topology, [head], [weight], [store.langs[rows].tolist()])


def _positions(layout: Layout, store, rows, sizes):
    """Each position of the store's `rows`, whose `sizes` parts are the layout's
    groups step after step: its row of the chunk's tables (its step's first +
    its group's block of its language + its token) and index into the store."""
    n_groups = len(layout.heads)
    lengths = store.lengths[rows]
    ends = np.cumsum(lengths)
    pos = np.repeat(store.starts[rows] - (ends - lengths), lengths)
    pos += np.arange(ends[-1])
    part = np.arange(len(sizes))
    first = layout.base[np.repeat(part % n_groups, sizes), store.langs[rows]]
    if first.min() < 0:
        raise UsageError("a group drew a language of which its layout has no block")
    first += np.repeat(part // n_groups * layout.n_rows, sizes)
    keys = np.repeat(first, lengths)
    keys += store.tokens[pos]
    return keys, pos, lengths


@dataclass
class PairPlan:
    """What the passes of a chunk of steps need of their batches, step after
    step: each table row's summed loss weights W (rows, 1) and weighted
    targets S (rows, frame_dim), and each group's sum of w * |t|^2."""

    layout: Layout
    w_sum: np.ndarray
    s_sum: np.ndarray
    t_sq: np.ndarray


def plan_steps(layout: Layout, parts) -> PairPlan:
    """The PairPlan of the steps whose groups' batches are the (store, rows)
    parts, step after step, group g of each step that of the layout.

    A position's loss weight is w = weight / (n_g * T_i * frame_dim); W and
    S sum a row's positions in batch order, as a step planned alone sums
    them, and a group's sum of w * |t|^2 sums its rows' w * (their Σ|t|^2)."""
    topology, n_groups = layout.topology, len(layout.heads)
    sizes = [len(rows) for _, rows in parts]
    store, rows = join_rows(parts)
    frame_sq = store.frame_sq()[rows]  # first, so squaring a new store overlaps no temporary
    _check_rows(topology, store, rows, sum(sizes[:n_groups]))
    keys, pos, lengths = _positions(layout, store, rows, sizes)
    n_slots = len(sizes) // n_groups * layout.n_rows
    # each row's n_g * frame_dim, from Python floats: an intp array times a
    # float runs numpy's int64-to-float64 cast, 64 kB of its code that
    # nothing else in a run executes and that then counts in the peak RSS
    row_scale = np.repeat([n * float(topology.frame_dim) for n in sizes], sizes)
    part_weights = [1.0 if w is None else w for w in layout.weights] * (len(sizes) // n_groups)
    row_weight = np.repeat(part_weights, sizes) / (lengths * row_scale)
    t_sq = np.add.reduceat(row_weight * frame_sq, np.cumsum(sizes) - sizes)
    weight = np.repeat(row_weight, lengths)
    w_sum = np.bincount(keys, weights=weight, minlength=n_slots)[:, None]
    # S one frame coefficient at a time, so that no temporary holds every
    # position's frame
    frames = store.frames.reshape(-1)
    pos *= topology.frame_dim
    wt = np.empty(len(pos))
    s_sum = np.empty((n_slots, topology.frame_dim))
    for j in range(topology.frame_dim):
        frames.take(pos, out=wt, mode="clip")  # the indices are in range: no buffer
        wt *= weight
        s_sum[:, j] = np.bincount(keys, weights=wt, minlength=n_slots)
        pos += 1
    return PairPlan(layout, w_sum, s_sum, t_sq)
