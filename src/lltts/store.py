"""The sample store: samples packed into one array each, addressed by row.

A `SampleStore` holds every sample's tokens and target frames as rows of one
array each. `Sample`s view their rows, and task splits, replay pools and
batches address samples by row number, so none of them copies sample data.
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

    def __len__(self):
        return len(self.lengths)

    @classmethod
    def pack(cls, samples) -> "SampleStore":
        """A store of copies of `samples`, sample i in row i.

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
        return cls(tokens, frames, _starts(lengths), lengths, langs)


def _starts(lengths) -> np.ndarray:
    """The first token position of each sample of a store: the lengths before it."""
    if lengths.sum(dtype=np.int64) > np.iinfo(INDEX).max:
        raise UsageError(f"a sample store holds at most {np.iinfo(INDEX).max} tokens")
    starts = np.zeros(len(lengths), dtype=INDEX)
    np.cumsum(lengths[:-1], out=starts[1:])
    return starts


def _views(store: SampleStore, rows: slice) -> list:
    """Samples viewing the store's rows, without Sample's per-sample checks:
    the caller has validated the store as a whole."""
    samples = []
    tokens, frames = store.tokens, store.frames
    for lang, a, t in zip(*(x[rows].tolist() for x in (store.langs, store.starts, store.lengths))):
        s = object.__new__(Sample)
        s.language_id, s.tokens, s.target_frames = lang, tokens[a : a + t], frames[a : a + t]
        samples.append(s)
    return samples


@dataclass(eq=False)
class ReplayDataset:
    """A training pool: samples, and their rows of one store.

    ReplayDataset(samples) packs copies of the samples into a store of their
    own; `join_pools` passes the store and rows the samples already have.
    """

    samples: list
    store: SampleStore = field(default=None, repr=False)
    rows: np.ndarray = field(default=None, repr=False)
    language_counts: dict = field(init=False)
    _groups: dict = field(init=False, repr=False)

    def __post_init__(self):
        if self.store is None:
            self.store, self.rows = SampleStore.pack(self.samples), np.arange(len(self.samples))
        langs = self.store.langs[self.rows]
        groups = []
        if len(langs):
            order = np.argsort(langs, kind="stable")
            groups = np.split(order, np.flatnonzero(np.diff(langs[order])) + 1)
            groups.sort(key=lambda idx: idx[0])
        self._groups = {int(langs[idx[0]]): idx for idx in groups}
        self.language_counts = {lang: len(idx) for lang, idx in self._groups.items()}

    def __len__(self):
        return len(self.samples)

    def by_language(self) -> dict:
        """Language id -> ascending sample indices, in order of first appearance.

        Built once with the dataset; callers must not modify the arrays.
        """
        return self._groups


def join_pools(parts) -> ReplayDataset:
    """One pool of the (samples, store, rows) parts, in order.

    Parts whose samples all lie in one store are joined by their rows, which
    copies no sample data; samples of several stores are packed into a new one.
    """
    samples = [s for part, _, _ in parts for s in part]
    stores = {id(store): store for part, store, _ in parts if len(part)}
    if len(stores) != 1:
        return ReplayDataset(samples)
    (store,) = stores.values()
    return ReplayDataset(samples, store, np.concatenate([rows for _, _, rows in parts]))
