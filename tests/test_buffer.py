import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lltts.buffer import MemoryBuffer
from lltts.data import TaskSpec, generate_task
from lltts.errors import UsageError


def task(language_id, n_train=40):
    spec = TaskSpec(
        language_id=language_id,
        seed=9,
        n_train=n_train,
        n_dev=2,
        n_test=2,
        vocab_size=10,
        frame_dim=3,
    )
    return generate_task(spec)


class TestIntegrateTask:
    def test_first_task_fills_capacity(self):
        buf = MemoryBuffer(capacity=30, rng_seed=0)
        buf.integrate_task(task(0))
        assert buf.counts() == {0: 30}

    def test_second_task_splits_evenly(self):
        buf = MemoryBuffer(capacity=30, rng_seed=0)
        buf.integrate_task(task(0))
        buf.integrate_task(task(1))
        assert buf.counts() == {0: 15, 1: 15}

    def test_remainder_goes_to_earliest(self):
        buf = MemoryBuffer(capacity=10, rng_seed=0)
        for lang in range(3):
            buf.integrate_task(task(lang))
        assert buf.counts() == {0: 4, 1: 3, 2: 3}

    def test_small_task_underfills(self):
        buf = MemoryBuffer(capacity=30, rng_seed=0)
        buf.integrate_task(task(0, n_train=8))
        assert buf.counts() == {0: 8}

    def test_duplicate_language_rejected(self):
        buf = MemoryBuffer(capacity=10, rng_seed=0)
        buf.integrate_task(task(0))
        with pytest.raises(UsageError):
            buf.integrate_task(task(0))

    def test_buffered_samples_come_from_train_split(self):
        ds = task(0)
        buf = MemoryBuffer(capacity=10, rng_seed=0)
        buf.integrate_task(ds)
        for s in buf.slots[0]:
            assert any(s == t for t in ds.train)
            assert not any(s == t for t in ds.dev + ds.test)

    @settings(max_examples=25, deadline=None)
    @given(
        capacity=st.integers(min_value=3, max_value=40),
        n_langs=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_capacity_and_balance_invariants(self, capacity, n_langs, seed):
        buf = MemoryBuffer(capacity=capacity, rng_seed=seed)
        for lang in range(n_langs):
            buf.integrate_task(task(lang, n_train=60))
            counts = list(buf.counts().values())
            assert buf.total() <= capacity
            assert max(counts) - min(counts) <= 1

    def test_eviction_is_uniform(self):
        # evict 15 of 30 over many trials; survival frequency ~ 0.5
        trials = 2000
        survival = np.zeros(30)
        ds0 = task(0, n_train=30)
        ds1 = task(1, n_train=30)
        for trial in range(trials):
            buf = MemoryBuffer(capacity=30, rng_seed=trial)
            buf.integrate_task(ds0)
            kept_first = {id(s) for s in buf.slots[0]}
            order = [i for i, s in enumerate(ds0.train) if id(s) in kept_first]
            buf.integrate_task(ds1)
            kept = {id(s) for s in buf.slots[0]}
            for slot, train_idx in enumerate(order):
                if id(ds0.train[train_idx]) in kept:
                    survival[slot] += 1
        freq = survival / trials
        assert np.all(np.abs(freq - 0.5) < 0.05)

