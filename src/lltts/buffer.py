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
    Each language's samples are rows (`rows`) of its task's sample store
    (`stores`), so the buffer holds no copy of the data.
    """

    def __init__(self, capacity: int, rng_seed: int = 0):
        if capacity < 1:
            raise UsageError("capacity must be >= 1")
        self.capacity = capacity
        self._rng = np.random.default_rng(rng_seed)
        self.rows: dict[int, np.ndarray] = {}
        self.stores: dict = {}

    @property
    def slots(self) -> dict:
        """Language -> its buffered samples, in integration order."""
        return {lang: self.stores[lang].samples(rows) for lang, rows in self.rows.items()}

    def languages(self) -> list:
        return list(self.rows.keys())

    def parts(self) -> list:
        """(store, rows) of each language, in integration order."""
        return [(self.stores[lang], rows) for lang, rows in self.rows.items()]

    def total(self) -> int:
        return sum(len(v) for v in self.rows.values())

    def counts(self) -> dict:
        return {lang: len(v) for lang, v in self.rows.items()}

    def __len__(self):
        return self.total()

    def _quotas(self):
        k = len(self.rows)
        base, rem = divmod(self.capacity, k)
        return {
            lang: base + (1 if i < rem else 0)
            for i, lang in enumerate(self.rows)  # insertion order = integration order
        }

    def integrate_task(self, ds) -> None:
        """Evict old languages down to quota, then push random train samples."""
        new = ds.language_id
        if new in self.rows:
            raise UsageError(f"language {new} already integrated")
        self.rows[new], self.stores[new] = ds.rows("train"), ds.store
        quotas = self._quotas()
        for lang, rows in self.rows.items():
            # the new language always draws; an old one only when over quota
            if lang == new or len(rows) > quotas[lang]:
                n = min(quotas[lang], len(rows))
                idx = sorted(self._rng.choice(len(rows), size=n, replace=False))
                self.rows[lang] = rows[idx]
