"""Synthetic pseudo-language tasks and the merged replay view.

Each language id owns a fixed smooth map from sliding token-embedding
windows to target frames, so tasks share low-level structure (they
interfere in shared parameters) while remaining learnable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, UsageError
from .store import (  # callers also import Sample and ReplayDataset from here
    INDEX,
    ReplayDataset,
    Sample,
    SampleStore,
    _starts,
    join_pools,
)

# generator-side constants, independent of the model topology
_GEN_EMBED_DIM = 6
_GEN_WINDOW = 3
# past window positions contribute weakly, so a per-position model keeps
# a small irreducible error while tasks stay history-dependent
_GEN_WINDOW_WEIGHTS = (1.0, 0.2, 0.1)
# generate_tasks computes targets at most this many tokens at a time, which
# bounds its temporaries to about 300 kB, below one training step's
_GEN_CHUNK_TOKENS = 1024
_EMB_STREAM = 0xE3B
_MAP_STREAM = 0x11A


class TaskDataset:
    """One language's train, dev and test samples.

    The splits are consecutive rows of `store`, train then dev then test,
    from `first_row` on, with `sizes` rows each; their samples are made by
    the store when asked for. TaskDataset(language_id, train, dev, test)
    packs copies of the samples into a store of their own.
    """

    def __init__(self, language_id: int, train: list, dev: list, test: list):
        self.language_id = language_id
        self.store = SampleStore.pack(train + dev + test)
        self.first_row = 0
        self.sizes = (len(train), len(dev), len(test))

    @classmethod
    def of_rows(cls, language_id: int, store: SampleStore, first_row: int, sizes) -> "TaskDataset":
        ds = cls.__new__(cls)
        ds.language_id, ds.store, ds.first_row, ds.sizes = language_id, store, first_row, tuple(sizes)
        return ds

    def rows(self, split: str) -> np.ndarray:
        """The store rows of split "train", "dev" or "test"."""
        k = ("train", "dev", "test").index(split)
        first = self.first_row + sum(self.sizes[:k])
        return np.arange(first, first + self.sizes[k])

    def part(self, split: str) -> tuple:
        """(store, rows) of a split, as `join_pools` takes them."""
        return self.store, self.rows(split)

    @property
    def train(self) -> list:
        return self.store.samples(self.rows("train"))

    @property
    def dev(self) -> list:
        return self.store.samples(self.rows("dev"))

    @property
    def test(self) -> list:
        return self.store.samples(self.rows("test"))


@dataclass
class TaskSpec:
    language_id: int
    seed: int
    n_train: int = 3000
    n_dev: int = 40
    n_test: int = 20
    seq_len_range: tuple = (6, 12)
    transform_scale: float = 1.0
    vocab_size: int = 40
    frame_dim: int = 8

    def __post_init__(self):
        if min(self.n_train, self.n_dev, self.n_test) < 1:
            raise UsageError("split sizes n_train, n_dev and n_test must be >= 1")
        lo, hi = self.seq_len_range
        # lengths and token ids are INDEX values
        top = int(np.iinfo(INDEX).max)
        if lo < 1 or lo > hi or hi > top:
            raise UsageError(
                f"invalid seq_len_range {self.seq_len_range}: need 1 <= min <= max <= {top}"
            )
        if not 1 <= self.vocab_size <= top + 1:
            raise UsageError(f"vocab_size {self.vocab_size} must be in [1, {top + 1}]")
        if not np.isfinite(self.transform_scale):
            raise UsageError("transform_scale must be finite")


def _gen_embedding(vocab_size: int) -> np.ndarray:
    rng = np.random.default_rng([_EMB_STREAM, vocab_size])
    return rng.standard_normal((vocab_size, _GEN_EMBED_DIM))


def _language_map(language_id: int, frame_dim: int):
    rng = np.random.default_rng([_MAP_STREAM, language_id, frame_dim])
    win = _GEN_WINDOW * _GEN_EMBED_DIM
    w = rng.standard_normal((frame_dim, win)) / np.sqrt(win)
    b = 0.3 * rng.standard_normal(frame_dim)
    return w, b


def _targets_for(tokens, emb, w_map, b_map, scale):
    """Target frames of token sequences of one length; tokens is (..., t).

    The window columns are written in place and the frames are made in the
    buffer the product returns, so the only temporaries are the embeddings,
    the window and the frames themselves.
    """
    vecs = emb[tokens]
    t = vecs.shape[-2]
    win = np.zeros(vecs.shape[:-1] + (_GEN_WINDOW * _GEN_EMBED_DIM,))
    for k in range(min(_GEN_WINDOW, t)):
        # window position k holds the embedding of token t-k (zero-padded)
        cols = slice(k * _GEN_EMBED_DIM, (k + 1) * _GEN_EMBED_DIM)
        np.multiply(vecs[..., : t - k, :], _GEN_WINDOW_WEIGHTS[k], out=win[..., k:, cols])
    del vecs
    out = win @ w_map.T
    out += b_map
    np.tanh(out, out=out)
    out *= scale
    return out


def _draw(specs):
    """Lengths and first token positions of the tasks' samples in one store,
    and their tokens; each task's train, then dev, then test.

    Each task's rng draws its lengths with one `integers` call, then its
    tokens with another. Every length is drawn first, so a store too large
    to address fails before any token is drawn.
    """
    rngs = [np.random.default_rng([spec.seed, spec.language_id, 0xDA7A]) for spec in specs]
    task_lengths = [rng.integers(spec.seq_len_range[0], spec.seq_len_range[1] + 1,
                                 size=spec.n_train + spec.n_dev + spec.n_test, dtype=INDEX)
                    for spec, rng in zip(specs, rngs)]
    lengths = np.concatenate(task_lengths)
    starts = _starts(lengths)
    tokens = [rng.integers(0, spec.vocab_size, size=int(n.sum()), dtype=INDEX)
              for spec, rng, n in zip(specs, rngs, task_lengths)]
    return lengths, starts, np.concatenate(tokens)


def _fill_targets(spec: TaskSpec, tokens, frames, starts, lengths) -> None:
    """Write the target frames of one task's samples, which start at the
    token positions `starts`, into `frames`."""
    emb = _gen_embedding(spec.vocab_size)
    w_map, b_map = _language_map(spec.language_id, spec.frame_dim)
    # Samples of one length share a _targets_for call, up to _GEN_CHUNK_TOKENS
    # tokens at a time. Its matmul still makes one BLAS product per sample,
    # of the sample's own size, so the frames are bit-identical to one call
    # per sample (a one-row product goes through GEMV, which rounds unlike
    # GEMM) and every product stays far below OpenBLAS's threading size.
    # The distinct lengths come from bincount (np.unique would import
    # numpy.ma, +1 MB of RSS).
    for t in np.flatnonzero(np.bincount(lengths)).tolist():
        ids = np.flatnonzero(lengths == t)
        step = max(1, _GEN_CHUNK_TOKENS // t)
        for c in range(0, len(ids), step):
            rows = starts[ids[c : c + step], None] + np.arange(t)
            frames[rows] = _targets_for(tokens[rows], emb, w_map, b_map, spec.transform_scale)


def generate_tasks(specs) -> list:
    """Deterministic synthetic datasets, one per spec, generated into one store.

    Each task draws from its own rng stream, so a task's samples do not
    depend on the other specs: `generate_task(spec)` gives the same bytes.
    Every task is rows of the store, which is built once.
    """
    if not specs:
        raise UsageError("no task specs given")
    if len({spec.frame_dim for spec in specs}) > 1:
        raise UsageError("the tasks of one store must share frame_dim")
    lengths, starts, tokens = _draw(specs)
    counts = [spec.n_train + spec.n_dev + spec.n_test for spec in specs]
    langs = np.repeat(np.array([spec.language_id for spec in specs], dtype=INDEX), counts)
    frames = np.empty((len(tokens), specs[0].frame_dim))
    firsts = np.cumsum([0] + counts[:-1]).tolist()
    for spec, first, n in zip(specs, firsts, counts):
        rows = slice(first, first + n)
        _fill_targets(spec, tokens, frames, starts[rows], lengths[rows])
    # the samples need no check: the specs guarantee >= 1 token each and
    # finite frames (a finite scale times tanh), and the store gives each one
    # frame row per token
    store = SampleStore(tokens, frames, starts, lengths, langs)
    return [
        TaskDataset.of_rows(spec.language_id, store, first, (spec.n_train, spec.n_dev, spec.n_test))
        for spec, first in zip(specs, firsts)
    ]


def generate_task(spec: TaskSpec) -> TaskDataset:
    """Deterministic synthetic dataset for one pseudo-language, in a store of
    its own; `generate_tasks` with one spec."""
    return generate_tasks([spec])[0]


def merge_replay(current: TaskDataset, buffer) -> ReplayDataset:
    """D_k merged with the buffer; buffer must not hold current-task samples."""
    if buffer is not None and current.language_id in buffer.rows:
        raise ConsistencyError(
            f"buffer already holds language {current.language_id}; "
            "integrate the task only after its training stage"
        )
    parts = [current.part("train")]
    if buffer is not None:
        parts.extend(buffer.parts())
    return join_pools(parts)
