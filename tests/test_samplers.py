import numpy as np
import pytest

from lltts.data import ReplayDataset, Sample
from lltts.errors import UsageError
from lltts.samplers import (
    Batch,
    Provenance,
    build_weight_table,
    draw_balanced,
    draw_random,
    draw_weighted,
)


def make_dataset(counts):
    samples = []
    for lang, n in counts.items():
        for j in range(n):
            tokens = np.array([j % 5 + 1])
            samples.append(Sample(lang, tokens, np.zeros((1, 2))))
    return ReplayDataset(samples)


class TestWeightTable:
    def test_formula(self):
        ds = make_dataset({0: 100, 1: 10})
        weights = build_weight_table(ds)
        for s, w in zip(ds.samples, weights):
            assert w == pytest.approx(110 / (100 if s.language_id == 0 else 10))

    def test_symmetric_counts_equal_weights(self):
        weights = build_weight_table(make_dataset({0: 50, 1: 50}))
        assert np.all(weights == 2.0)

    def test_per_language_total_weight_equal(self):
        ds = make_dataset({0: 300, 1: 30, 2: 7})
        weights = build_weight_table(ds)
        totals = {}
        for s, w in zip(ds.samples, weights):
            totals[s.language_id] = totals.get(s.language_id, 0.0) + w
        vals = list(totals.values())
        assert all(v == pytest.approx(vals[0]) for v in vals)


class TestDrawRandom:
    def test_proportions(self):
        ds = make_dataset({0: 300, 1: 30})
        rng = np.random.default_rng(0)
        batch = draw_random(ds, 20000, rng)
        frac_b = batch.language_histogram[1] / len(batch)
        assert frac_b == pytest.approx(30 / 330, abs=0.01)

    def test_singleton_dataset(self):
        ds = make_dataset({0: 1})
        batch = draw_random(ds, 5, np.random.default_rng(0))
        assert len(batch) == 5
        assert all(s is ds.samples[0] for s in batch.samples)

    def test_deterministic(self):
        ds = make_dataset({0: 20, 1: 5})
        a = draw_random(ds, 10, np.random.default_rng(3))
        b = draw_random(ds, 10, np.random.default_rng(3))
        assert [id(s) for s in a.samples] == [id(s) for s in b.samples]

    def test_empty_dataset_rejected(self):
        with pytest.raises(UsageError):
            draw_random(ReplayDataset([]), 4, np.random.default_rng(0))

    def test_provenance(self):
        ds = make_dataset({0: 4})
        assert draw_random(ds, 2, np.random.default_rng(0)).provenance is Provenance.RANDOM


class TestDrawWeighted:
    def test_language_marginal_uniform(self):
        ds = make_dataset({0: 300, 1: 30})
        weights = build_weight_table(ds)
        batch = draw_weighted(weights, ds, 20000, np.random.default_rng(1))
        frac = batch.language_histogram[0] / len(batch)
        assert frac == pytest.approx(0.5, abs=0.02)

    def test_three_languages(self):
        ds = make_dataset({0: 300, 1: 20, 2: 10})
        weights = build_weight_table(ds)
        batch = draw_weighted(weights, ds, 30000, np.random.default_rng(2))
        for lang in (0, 1, 2):
            assert batch.language_histogram[lang] / len(batch) == pytest.approx(
                1 / 3, abs=0.02
            )

    def test_single_language_is_uniform(self):
        ds = make_dataset({0: 10})
        weights = build_weight_table(ds)
        batch = draw_weighted(weights, ds, 5000, np.random.default_rng(3))
        # uniform over the 10 samples: each drawn ~500 times
        by_id = {}
        for s in batch.samples:
            by_id[id(s)] = by_id.get(id(s), 0) + 1
        assert all(abs(c - 500) < 120 for c in by_id.values())


class TestDrawBalanced:
    def test_exact_split(self):
        ds = make_dataset({0: 100, 1: 5, 2: 5, 3: 5})
        batch = draw_balanced(ds, 84, np.random.default_rng(0))
        assert all(batch.language_histogram[lang] == 21 for lang in range(4))

    def test_remainder_rule(self):
        ds = make_dataset({0: 10, 1: 10, 2: 10})
        batch = draw_balanced(ds, 10, np.random.default_rng(0))
        counts = sorted(batch.language_histogram.values(), reverse=True)
        assert counts == [4, 3, 3]

    def test_single_language(self):
        ds = make_dataset({0: 30})
        batch = draw_balanced(ds, 8, np.random.default_rng(0))
        assert batch.language_histogram == {0: 8}

    def test_too_small_batch_rejected(self):
        ds = make_dataset({0: 5, 1: 5, 2: 5})
        with pytest.raises(UsageError):
            draw_balanced(ds, 2, np.random.default_rng(0))

    def test_counts_always_within_one(self):
        rng = np.random.default_rng(7)
        ds = make_dataset({0: 50, 1: 3, 2: 17})
        for _ in range(50):
            batch = draw_balanced(ds, int(rng.integers(3, 30)), rng)
            counts = list(batch.language_histogram.values())
            assert max(counts) - min(counts) <= 1


def list_draw_balanced(ds, batch_size, rng):
    """List-based reference draw: groups rebuilt per draw, one index at a time."""
    groups = {}
    for i, s in enumerate(ds.samples):
        groups.setdefault(s.language_id, []).append(i)
    langs = sorted(groups)
    base, rem = divmod(batch_size, len(langs))
    quota = {lang: base for lang in langs}
    if rem:
        for j in rng.choice(len(langs), size=rem, replace=False):
            quota[langs[j]] += 1
    samples = []
    for lang in langs:
        pool = groups[lang]
        idx = rng.integers(0, len(pool), size=quota[lang])
        samples.extend(ds.samples[pool[i]] for i in idx)
    return samples


class TestByLanguage:
    @pytest.mark.parametrize("counts", [{2: 13, 0: 40, 1: 7}, {3: 5, 1: 60, 0: 2, 2: 31}])
    def test_draw_balanced_matches_list_reference(self, counts):
        # one rng.integers call for every pick takes the stream of one call
        # per language; the batch sizes leave every remainder of 3 and of 4
        ds = ReplayDataset(make_dataset(counts).samples[::-1])
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        for batch_size in (4, 10, 32, 7, 84, 5, 6, 33):
            got = draw_balanced(ds, batch_size, rng).samples
            want = list_draw_balanced(ds, batch_size, ref_rng)
            assert [id(s) for s in got] == [id(s) for s in want]
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_groups_match_brute_force(self):
        ds = make_dataset({1: 5, 0: 3, 4: 1})
        ds = ReplayDataset([ds.samples[i] for i in (8, 0, 5, 1, 6, 2, 7, 3, 4)])
        brute = {}
        for i, s in enumerate(ds.samples):
            brute.setdefault(s.language_id, []).append(i)
        groups = ds.by_language()
        assert list(groups) == list(brute)
        assert {lang: idx.tolist() for lang, idx in groups.items()} == brute
        assert ds.language_counts == {lang: len(idx) for lang, idx in brute.items()}

    def test_empty_dataset(self):
        ds = ReplayDataset([])
        assert ds.by_language() == {} and ds.language_counts == {}


class TestBatch:
    def test_histogram_consistent(self):
        ds = make_dataset({0: 3, 1: 2})
        batch = Batch(ds.samples, Provenance.RANDOM)
        assert batch.language_histogram == {0: 3, 1: 2}

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            Batch([], Provenance.RANDOM)
