"""Language-balanced episodic memory with random push / random pop."""
from __future__ import annotations

import numpy as np

from .errors import UsageError


class MemoryBuffer:
    """Capacity-bounded per-language sample store.

    After every `integrate_task` the per-language counts differ by at
    most one; remainder slots go to the earliest-integrated languages.
    The contents follow from the rng seed and the tasks integrated so far,
    in order, so a resumed run rebuilds the buffer instead of loading it.
    Next to each language's samples (`slots`) it keeps their rows of the
    task's sample store (`rows`, `stores`), so it holds no copy of the data.
    """

    def __init__(self, capacity: int, rng_seed: int = 0):
        if capacity < 1:
            raise UsageError("capacity must be >= 1")
        self.capacity = capacity
        self._rng = np.random.default_rng(rng_seed)
        self.slots: dict[int, list] = {}
        self.rows: dict[int, np.ndarray] = {}
        self.stores: dict = {}

    def languages(self) -> list:
        return list(self.slots.keys())

    def parts(self) -> list:
        """(samples, store, rows) of each language, in integration order."""
        return [(self.slots[lang], self.stores[lang], self.rows[lang]) for lang in self.slots]

    def total(self) -> int:
        return sum(len(v) for v in self.slots.values())

    def counts(self) -> dict:
        return {lang: len(v) for lang, v in self.slots.items()}

    def __len__(self):
        return self.total()

    def _quotas(self):
        k = len(self.slots)
        base, rem = divmod(self.capacity, k)
        return {
            lang: base + (1 if i < rem else 0)
            for i, lang in enumerate(self.slots)  # insertion order = integration order
        }

    def integrate_task(self, ds) -> None:
        """Evict old languages down to quota, then push random train samples."""
        if ds.language_id in self.slots:
            raise UsageError(f"language {ds.language_id} already integrated")
        self.slots[ds.language_id] = []
        quotas = self._quotas()
        for lang, samples in self.slots.items():
            quota = quotas[lang]
            if lang == ds.language_id:
                pool = ds.train
                n = min(quota, len(pool))
                idx = sorted(self._rng.choice(len(pool), size=n, replace=False))
                self.slots[lang] = [pool[i] for i in idx]
                self.rows[lang] = ds.rows("train")[idx]
                self.stores[lang] = ds.store
            elif len(samples) > quota:
                idx = sorted(self._rng.choice(len(samples), size=quota, replace=False))
                self.slots[lang] = [samples[i] for i in idx]
                self.rows[lang] = self.rows[lang][idx]
