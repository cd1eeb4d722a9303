"""The sample store: samples packed into one array each, addressed by row.

A `SampleStore` holds every sample's tokens and target frames as rows of one
array each. Task splits, replay pools, buffer slots and batches are rows of
a store, so none of them copies sample data. The store makes a row's
`Sample`, a view of the row, only when it is first asked for.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import InputDomainError, UsageError

# the dtype of a store's per-sample starts, lengths and language ids, and of
# the token ids of a generated or loaded store: 4 bytes a token instead of 8
INDEX = np.int32


@dataclass(slots=True)
class Sample:
    language_id: int
    tokens: np.ndarray
    target_frames: np.ndarray

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.target_frames = np.asarray(self.target_frames, dtype=np.float64)
        if len(self.tokens) < 1:
            raise UsageError("sample must have at least one token")
        if self.target_frames.shape[0] != len(self.tokens):
            raise UsageError("target_frames must have one row per token")
        if not np.all(np.isfinite(self.target_frames)):
            raise UsageError("target frames must be finite")

    def __eq__(self, other):
        return (
            isinstance(other, Sample)
            and self.language_id == other.language_id
            and np.array_equal(self.tokens, other.tokens)
            and np.array_equal(self.target_frames, other.target_frames)
        )


@dataclass(eq=False)
class SampleStore:
    """Samples packed into one array each.

    Sample (row) i is of language langs[i], with the tokens
    tokens[starts[i] : starts[i] + lengths[i]] and the same rows of frames.
    """

    tokens: np.ndarray  # (total tokens,) INDEX if generated or loaded, int64 if packed
    frames: np.ndarray  # (total tokens, frame_dim) float64
    starts: np.ndarray  # (samples,) INDEX
    lengths: np.ndarray  # (samples,) INDEX
    langs: np.ndarray  # (samples,) INDEX
    # the model topologies that every sample is known to fit (model._check_rows)
    checked: set = field(default_factory=set, repr=False)
    # row -> its Sample, made on first request or given to `pack`
    _samples: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self):
        return len(self.lengths)

    def samples(self, rows) -> list:
        """The Sample of each of `rows`: the same object every time a row is
        asked for. A row's first request makes a view of its tokens and
        frames, without Sample's per-sample checks, which the store has passed.
        """
        made = self._samples
        out = []
        for row in np.asarray(rows).tolist():
            s = made.get(row)
            if s is None:
                a, t = int(self.starts[row]), int(self.lengths[row])
                s = object.__new__(Sample)
                s.language_id = int(self.langs[row])
                s.tokens, s.target_frames = self.tokens[a : a + t], self.frames[a : a + t]
                made[row] = s
            out.append(s)
        return out

    @classmethod
    def pack(cls, samples) -> "SampleStore":
        """A store of copies of `samples`, sample i in row i; row i's Sample
        is samples[i] itself.

        Raises InputDomainError naming the first sample whose target frames
        are not one row per token of the samples' most common frame dim (the
        model checks that dim against its topology).
        """
        n = len(samples)
        lengths = np.fromiter((len(s.tokens) for s in samples), dtype=INDEX, count=n)
        langs = np.fromiter((s.language_id for s in samples), dtype=INDEX, count=n)
        if n == 0:
            empty = np.zeros(0, dtype=np.int64)
            return cls(empty, np.zeros((0, 0)), _starts(lengths), lengths, langs)
        shapes = [np.shape(s.target_frames) for s in samples]
        ((width, _),) = Counter(shape[1:] for shape in shapes).most_common(1)
        for i, (t, shape) in enumerate(zip(lengths.tolist(), shapes)):
            if shape != (t, *width):
                raise InputDomainError(
                    f"sample {i}: target frames of shape {shape}, expected {(t, *width)}"
                )
        tokens = np.concatenate([s.tokens for s in samples]).astype(np.int64, copy=False)
        frames = np.concatenate([s.target_frames for s in samples]).astype(np.float64, copy=False)
        store = cls(tokens, frames, _starts(lengths), lengths, langs)
        store._samples.update(enumerate(samples))
        return store


def _starts(lengths) -> np.ndarray:
    """The first token position of each sample of a store: the lengths before it."""
    if lengths.sum(dtype=np.int64) > np.iinfo(INDEX).max:
        raise UsageError(f"a sample store holds at most {np.iinfo(INDEX).max} tokens")
    starts = np.zeros(len(lengths), dtype=INDEX)
    np.cumsum(lengths[:-1], out=starts[1:])
    return starts


class ReplayDataset:
    """A training pool: rows of one sample store.

    ReplayDataset(samples) packs copies of the samples into a store of their
    own; `ReplayDataset.of_rows` addresses rows of an existing store.
    """

    def __init__(self, samples):
        self._index(SampleStore.pack(samples), np.arange(len(samples)))

    @classmethod
    def of_rows(cls, store: SampleStore, rows) -> "ReplayDataset":
        ds = cls.__new__(cls)
        ds._index(store, rows)
        return ds

    def _index(self, store, rows):
        self.store, self.rows = store, rows
        langs = store.langs[rows]
        groups = []
        if len(langs):
            order = np.argsort(langs, kind="stable")
            groups = np.split(order, np.flatnonzero(np.diff(langs[order])) + 1)
            groups.sort(key=lambda idx: idx[0])
        self._groups = {int(langs[idx[0]]): idx for idx in groups}
        self.language_counts = {lang: len(idx) for lang, idx in self._groups.items()}

    @property
    def samples(self) -> list:
        return self.store.samples(self.rows)

    def __len__(self):
        return len(self.rows)

    def by_language(self) -> dict:
        """Language id -> ascending sample indices, in order of first appearance.

        Built once with the dataset; callers must not modify the arrays.
        """
        return self._groups


def join_pools(parts) -> ReplayDataset:
    """One pool of the (store, rows) parts, in order.

    Parts of one store are joined by their rows, which copies no sample
    data; the samples of several stores are packed into a new one.
    """
    stores = {id(store): store for store, rows in parts if len(rows)}
    if len(stores) != 1:
        return ReplayDataset([s for store, rows in parts for s in store.samples(rows)])
    (store,) = stores.values()
    return ReplayDataset.of_rows(store, np.concatenate([rows for _, rows in parts]))
