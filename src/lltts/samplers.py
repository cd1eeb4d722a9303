"""Batch construction: random, weighted, and language-balanced."""
from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import UsageError


class Provenance(enum.Enum):
    RANDOM = "random"
    WEIGHTED = "weighted"
    LBS = "lbs"
    RRS = "rrs"


@dataclass
class Batch:
    samples: list
    provenance: Provenance

    def __post_init__(self):
        if not self.samples:
            raise UsageError("batch must be non-empty")

    def __len__(self):
        return len(self.samples)

    @property
    def language_histogram(self) -> dict:
        return dict(Counter(s.language_id for s in self.samples))


@dataclass
class SampleWeightTable:
    weights: np.ndarray


def build_weight_table(ds) -> SampleWeightTable:
    """Per-sample weight |D+| / C_lang (reciprocal language frequency)."""
    if len(ds) == 0:
        raise UsageError("dataset is empty")
    total = len(ds)
    counts = ds.language_counts
    weights = np.array([total / counts[s.language_id] for s in ds.samples])
    return SampleWeightTable(weights)


def draw_random(ds, batch_size: int, rng, provenance: Provenance = Provenance.RANDOM) -> Batch:
    if batch_size < 1:
        raise UsageError("batch_size must be >= 1")
    if len(ds) == 0:
        raise UsageError("cannot sample from an empty dataset")
    idx = rng.integers(0, len(ds), size=batch_size)
    return Batch([ds.samples[i] for i in idx.tolist()], provenance)


def draw_weighted(table: SampleWeightTable, ds, batch_size: int, rng) -> Batch:
    if batch_size < 1:
        raise UsageError("batch_size must be >= 1")
    if len(table.weights) != len(ds):
        raise UsageError("weight table does not match dataset")
    p = table.weights / table.weights.sum()
    idx = rng.choice(len(ds), size=batch_size, replace=True, p=p)
    return Batch([ds.samples[i] for i in idx.tolist()], Provenance.WEIGHTED)


def draw_balanced(ds, batch_size: int, rng) -> Batch:
    """Equal per-language counts (remainder spread at random), uniform
    with replacement within each language."""
    groups = ds.by_language()
    langs = sorted(groups)
    k = len(langs)
    if batch_size < k:
        raise UsageError(f"batch_size {batch_size} < number of languages {k}")
    base, rem = divmod(batch_size, k)
    quota = {lang: base for lang in langs}
    if rem:
        for j in rng.choice(k, size=rem, replace=False):
            quota[langs[j]] += 1
    samples = []
    for lang in langs:
        group = groups[lang]
        idx = rng.integers(0, len(group), size=quota[lang])
        samples.extend(ds.samples[i] for i in group[idx].tolist())
    return Batch(samples, Provenance.LBS)
