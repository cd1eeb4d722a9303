"""Batch construction: random, weighted, and language-balanced.

The samplers draw sample indices of a pool and return batches of the pool's
store rows; the model gathers those rows, so a draw copies no sample data.
"""
from __future__ import annotations

import enum
from collections import Counter

import numpy as np

from .errors import UsageError
from .store import SampleStore


class Provenance(enum.Enum):
    RANDOM = "random"
    WEIGHTED = "weighted"
    LBS = "lbs"
    RRS = "rrs"


class Batch:
    """The samples of one loss term, as rows of a sample store.

    Batch(samples, provenance) packs copies of the samples into a store of
    their own. `Batch.of_rows` addresses rows of an existing store and copies
    nothing.
    """

    __slots__ = ("store", "rows", "provenance")

    def __init__(self, samples, provenance: Provenance):
        if not samples:
            raise UsageError("batch must be non-empty")
        self.store = SampleStore.pack(samples)
        self.rows = np.arange(len(samples))
        self.provenance = provenance

    @classmethod
    def of_rows(cls, store, rows, provenance: Provenance) -> "Batch":
        """The batch of `store`'s `rows`."""
        if len(rows) == 0:
            raise UsageError("batch must be non-empty")
        batch = cls.__new__(cls)
        batch.store, batch.rows, batch.provenance = store, rows, provenance
        return batch

    @property
    def samples(self) -> list:
        return self.store.samples(self.rows)

    def __len__(self):
        return len(self.rows)

    @property
    def language_histogram(self) -> dict:
        return dict(Counter(self.store.langs[self.rows].tolist()))


def _drawn(ds, idx, provenance: Provenance) -> Batch:
    """The batch of pool `ds`'s samples at indices `idx`."""
    return Batch.of_rows(ds.store, ds.rows[idx], provenance)


def build_weight_table(ds) -> np.ndarray:
    """Per-sample weight |D+| / C_lang (reciprocal language frequency)."""
    if len(ds) == 0:
        raise UsageError("dataset is empty")
    weights = np.empty(len(ds))
    for idx in ds.by_language().values():
        weights[idx] = len(ds) / len(idx)
    return weights


def draw_random(ds, batch_size: int, rng, provenance: Provenance = Provenance.RANDOM) -> Batch:
    if batch_size < 1:
        raise UsageError("batch_size must be >= 1")
    if len(ds) == 0:
        raise UsageError("cannot sample from an empty dataset")
    idx = rng.integers(0, len(ds), size=batch_size)
    return _drawn(ds, idx, provenance)


def draw_weighted(weights: np.ndarray, ds, batch_size: int, rng) -> Batch:
    if batch_size < 1:
        raise UsageError("batch_size must be >= 1")
    if len(weights) != len(ds):
        raise UsageError("weight table does not match dataset")
    p = weights / weights.sum()
    idx = rng.choice(len(ds), size=batch_size, replace=True, p=p)
    return _drawn(ds, idx, Provenance.WEIGHTED)


def draw_balanced(ds, batch_size: int, rng) -> Batch:
    """Equal per-language counts (remainder spread at random), uniform
    with replacement within each language."""
    groups = ds.by_language()
    langs = sorted(groups)
    k = len(langs)
    if batch_size < k:
        raise UsageError(f"batch_size {batch_size} < number of languages {k}")
    base, rem = divmod(batch_size, k)
    quotas = np.full(k, base)
    if rem:
        quotas[rng.choice(k, size=rem, replace=False)] += 1
    # one draw of every pick, each uniform over its language's samples: the
    # stream of one draw per language in turn
    sizes = np.array([len(groups[lang]) for lang in langs])
    picks = rng.integers(0, np.repeat(sizes, quotas))
    picks += np.repeat(np.cumsum(sizes) - sizes, quotas)
    return _drawn(ds, np.concatenate([groups[lang] for lang in langs])[picks], Provenance.LBS)
