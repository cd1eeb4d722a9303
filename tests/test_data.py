import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lltts
from lltts import data
from lltts.buffer import MemoryBuffer
from lltts.config import parse_config
from lltts.data import Sample, TaskSpec, generate_task, generate_tasks, merge_replay
from lltts.errors import ConsistencyError, UsageError

from conftest import CONFIGS, store_nbytes


def small_spec(language_id=0, seed=3, **kw):
    defaults = dict(n_train=30, n_dev=8, n_test=5, vocab_size=12, frame_dim=4)
    defaults.update(kw)
    return TaskSpec(language_id=language_id, seed=seed, **defaults)


def datasets_equal(a, b):
    for split_a, split_b in zip((a.train, a.dev, a.test), (b.train, b.dev, b.test)):
        if len(split_a) != len(split_b):
            return False
        if any(x != y for x, y in zip(split_a, split_b)):
            return False
    return a.language_id == b.language_id


def digests(splits):
    """sha256 of each split's tokens and frames, sample by sample; `splits`
    maps a split's name to its (tokens, frames) pairs."""
    out = {}
    for name, pairs in splits.items():
        h = hashlib.sha256()
        for tokens, frames in pairs:
            h.update(tokens.astype("<i8").tobytes())
            h.update(frames.astype("<f8").tobytes())
        out[name] = h.hexdigest()
    return out


def split_digests(ds):
    return digests({name: [(s.tokens, s.target_frames) for s in getattr(ds, name)]
                    for name in ("train", "dev", "test")})


def two_call_draw(spec):
    """A task's lengths, then its tokens: two calls on the task's rng."""
    rng = np.random.default_rng([spec.seed, spec.language_id, 0xDA7A])
    lo, hi = spec.seq_len_range
    total = spec.n_train + spec.n_dev + spec.n_test
    lengths = rng.integers(lo, hi + 1, size=total, dtype=data.INDEX)
    return lengths, rng.integers(0, spec.vocab_size, size=int(lengths.sum()), dtype=data.INDEX)


def reference_digests(spec):
    """`split_digests` of the task built one sample at a time: one
    `_targets_for` call per sample over `two_call_draw`."""
    lengths, tokens = two_call_draw(spec)
    emb = data._gen_embedding(spec.vocab_size)
    w_map, b_map = data._language_map(spec.language_id, spec.frame_dim)
    samples = [(t, data._targets_for(t, emb, w_map, b_map, spec.transform_scale))
               for t in np.split(tokens, np.cumsum(lengths)[:-1])]
    ends = np.cumsum([spec.n_train, spec.n_dev, spec.n_test]).tolist()
    return digests(dict(zip(("train", "dev", "test"),
                            (samples[a:z] for a, z in zip([0] + ends, ends)))))


# Taken from `reference_digests`, which builds one sample at a time. At
# (1, 4) samples are shorter than the 3-token window, and one-token samples
# have one-row target products, which BLAS computes with GEMV instead of GEMM.
PINNED_DIGESTS = {
    (6, 12): {
        "train": "a2f837fb0d1edef29ffd4ea97d11a0cdcb39d496eb2662acc2897c8d0efa1a5b",
        "dev": "319c855312f4d370d94eca6dc8ee00a93a6238eb87805e2017a60d2695bb412b",
        "test": "6674d9dcc2a9380b90964dfde13269a5aa5f6b9b15579057624901e0a17e727c",
    },
    (1, 4): {
        "train": "3c37907f469d647a32cb77aa0dc4da1914f96d2d69539b83b3249e43711ef96a",
        "dev": "e3f77d3e6f211a16d4bb48c7e135415d2557b99fb641a7d3314d4237c3dfbe95",
        "test": "72b17139f786c990bda801966f48dc5a88b1423bbe1266b87c74f471b96ff315",
    },
}

# An n_train = 3000 task, whose 424 to 459 samples of each length span
# several 1,024-token chunks. Taken from `reference_digests`.
MULTI_CHUNK_DIGESTS = {
    "train": "c2929f421cfe73407806ed35d0dec32108bdd81aaa2c9913fffe446332267c1e",
    "dev": "d124c03f0a776759ee7a8151911f8239cb649f4b676792b421b9ff782a85840a",
    "test": "c7cb78ce84fbe7495be303d052faee6c722e414edacafde74069dbab5d72332d",
}

_THREADS_CHILD = """
import hashlib
from lltts.data import TaskSpec, generate_task
digest = hashlib.sha256()
# a paper_scale.ini task, and one of samples shorter than the window
for seq_len_range in ((6, 12), (1, 4)):
    store = generate_task(TaskSpec(language_id=1, seed=5, seq_len_range=seq_len_range)).store
    for name in ("tokens", "frames", "starts", "lengths", "langs"):
        digest.update(getattr(store, name).tobytes())
print(digest.hexdigest())
"""


class TestExactDraw:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        language_id=st.integers(0, 9),
        lo=st.integers(1, 12),
        spread=st.sampled_from([0, 0, 1]) | st.integers(0, 60),
        vocab_size=st.sampled_from([1, 2, 40, 2**31 - 1, 2**31]) | st.integers(1, 2**31),
        n_train=st.integers(1, 40),
    )
    @example(seed=0, language_id=0, lo=6, spread=0, vocab_size=40, n_train=20)
    @example(seed=1, language_id=2, lo=3, spread=4, vocab_size=1, n_train=20)
    @example(seed=2, language_id=1, lo=1, spread=5, vocab_size=2, n_train=20)
    @example(seed=3, language_id=0, lo=1, spread=9, vocab_size=2**31, n_train=30)
    @example(seed=4, language_id=3, lo=2, spread=9, vocab_size=2**31 - 1, n_train=30)
    @example(seed=5, language_id=0, lo=7, spread=0, vocab_size=1, n_train=5)
    @example(seed=6, language_id=1, lo=12, spread=0, vocab_size=2**31, n_train=5)
    def test_draws_in_range(self, seed, language_id, lo, spread, vocab_size, n_train):
        spec = TaskSpec(language_id=language_id, seed=seed, n_train=n_train, n_dev=2, n_test=1,
                        seq_len_range=(lo, lo + spread), vocab_size=vocab_size)
        lengths, starts, tokens = data._draw([spec])
        assert lengths.dtype == starts.dtype == tokens.dtype == data.INDEX
        assert len(lengths) == n_train + 3
        assert np.all((lo <= lengths) & (lengths <= lo + spread))
        assert np.all((0 <= tokens) & (tokens < vocab_size))
        assert len(tokens) == lengths.sum()
        assert np.array_equal(starts, np.cumsum(lengths) - lengths)
        for got, want in zip((lengths, tokens), two_call_draw(spec)):
            assert np.array_equal(got, want)

    def test_store_limit_checked_before_tokens_drawn(self):
        # 3 samples of 2**30 tokens each pass the spec's checks but exceed
        # the store's INDEX positions; drawing their tokens would take 12 GiB
        spec = TaskSpec(language_id=0, seed=0, n_train=1, n_dev=1, n_test=1,
                        seq_len_range=(2**30, 2**30))
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match="at most 2147483647 tokens"):
                generate_tasks([spec])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_store_limit_checked_across_tasks(self):
        # each task's 3 samples of 2**29 tokens fit a store on their own,
        # but two such tasks in one store do not
        specs = [TaskSpec(language_id=k, seed=0, n_train=1, n_dev=1, n_test=1,
                          seq_len_range=(2**29, 2**29)) for k in range(2)]
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match="at most 2147483647 tokens"):
                generate_tasks(specs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_paper_scale_tasks_match(self):
        # four tasks drawn into one store get each task's own two-call draw
        specs = [TaskSpec(language_id=k, seed=11) for k in range(4)]
        lengths, starts, tokens = data._draw(specs)
        want = [two_call_draw(spec) for spec in specs]
        assert np.array_equal(lengths, np.concatenate([n for n, _ in want]))
        assert np.array_equal(tokens, np.concatenate([t for _, t in want]))
        assert np.array_equal(starts, np.cumsum(lengths) - lengths)

    @pytest.mark.parametrize("kw", [dict(vocab_size=0), dict(vocab_size=2**31 + 1),
                                    dict(seq_len_range=(1, 2**31))])
    def test_ranges_beyond_index_rejected(self, kw):
        with pytest.raises(UsageError):
            TaskSpec(language_id=0, seed=0, **kw)


class TestGenerateTask:
    def test_deterministic(self):
        assert datasets_equal(generate_task(small_spec()), generate_task(small_spec()))

    def test_language_changes_target_map(self):
        a = generate_task(small_spec(language_id=0))
        b = generate_task(small_spec(language_id=1))
        # same seed stream per (seed, language) differs, but the map itself
        # must differ: apply both maps to one shared token sequence
        from lltts.data import _gen_embedding, _language_map, _targets_for

        emb = _gen_embedding(12)
        tokens = a.train[0].tokens
        wa, ba = _language_map(0, 4)
        wb, bb = _language_map(1, 4)
        ta = _targets_for(tokens, emb, wa, ba, 1.0)
        tb = _targets_for(tokens, emb, wb, bb, 1.0)
        assert np.any(ta != tb)

    def test_splits_disjoint_and_sized(self):
        ds = generate_task(small_spec())
        assert (len(ds.train), len(ds.dev), len(ds.test)) == (30, 8, 5)
        seen = [s for s in ds.train]
        for s in ds.dev + ds.test:
            assert all(s != other for other in seen)
            seen.append(s)

    def test_samples_valid(self):
        spec = small_spec()
        ds = generate_task(spec)
        for s in ds.train + ds.dev + ds.test:
            assert s.language_id == spec.language_id
            assert 6 <= len(s.tokens) <= 12
            assert np.all(s.tokens < spec.vocab_size)
            assert np.all(np.isfinite(s.target_frames))

    @pytest.mark.parametrize("seq_len_range", list(PINNED_DIGESTS), ids=["6-12", "1-4"])
    def test_generated_bytes_pinned(self, monkeypatch, seq_len_range):
        spec = TaskSpec(language_id=2, seed=7, n_train=300, seq_len_range=seq_len_range)
        assert reference_digests(spec) == PINNED_DIGESTS[seq_len_range]
        for chunk_tokens in (1024, 4096):
            monkeypatch.setattr(data, "_GEN_CHUNK_TOKENS", chunk_tokens)
            assert split_digests(generate_task(spec)) == PINNED_DIGESTS[seq_len_range]

    def test_generated_bytes_pinned_across_chunks(self, monkeypatch):
        spec = TaskSpec(language_id=2, seed=7, n_train=3000)
        counts = np.bincount(two_call_draw(spec)[0])
        for t in np.flatnonzero(counts):
            assert counts[t] > 2 * max(1, 1024 // t)
        assert reference_digests(spec) == MULTI_CHUNK_DIGESTS
        for chunk_tokens in (1024, 4096):
            monkeypatch.setattr(data, "_GEN_CHUNK_TOKENS", chunk_tokens)
            assert split_digests(generate_task(spec)) == MULTI_CHUNK_DIGESTS

    @pytest.mark.parametrize("name", ["desk.ini", "paper_scale.ini"])
    def test_generate_tasks_peak_memory(self, name):
        # the heap generation adds to the store it builds: one chunk's
        # embeddings, window and frames. With 4,096-token chunks and the
        # frames made out of place this was 983 kB (desk) and 1,435 kB (paper)
        specs = parse_config((CONFIGS / name).read_text()).task_specs
        generate_tasks(specs)
        tracemalloc.start()
        try:
            store = generate_tasks(specs)[0].store
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - store_nbytes(store) <= 400_000

    def test_generated_bytes_independent_of_blas_threads(self):
        src = os.path.dirname(os.path.dirname(lltts.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            out = subprocess.run([sys.executable, "-c", _THREADS_CHILD], env=env,
                                 capture_output=True, text=True, check=True, timeout=120)
            digests.append(out.stdout.strip())
        assert digests[0] == digests[1]

    def test_samples_view_the_packed_store(self):
        ds = generate_task(small_spec(seq_len_range=(1, 4)))
        store = ds.store
        samples = ds.train + ds.dev + ds.test
        assert len(store) == len(samples)
        assert store.starts[-1] + store.lengths[-1] == len(store.tokens) == len(store.frames)
        for i, s in enumerate(samples):
            a, b = store.starts[i], store.starts[i] + store.lengths[i]
            assert np.shares_memory(s.tokens, store.tokens)
            assert np.shares_memory(s.target_frames, store.frames)
            assert np.array_equal(s.tokens, store.tokens[a:b])
            assert np.array_equal(s.target_frames, store.frames[a:b])

    def test_in_place_edit_changes_only_its_rows(self):
        ds = generate_task(small_spec())
        frames = ds.store.frames
        before = frames.copy()
        ds.train[1].target_frames[:] = 0.0
        a = ds.store.starts[1]
        b = a + ds.store.lengths[1]
        assert np.all(frames[a:b] == 0.0)
        assert np.array_equal(np.delete(frames, np.s_[a:b], axis=0),
                              np.delete(before, np.s_[a:b], axis=0))

    def test_non_finite_targets_rejected(self):
        with pytest.raises(UsageError, match="finite"):
            generate_task(small_spec(transform_scale=float("inf")))

    def test_transform_scale_scales_targets(self):
        a = generate_task(small_spec(transform_scale=1.0))
        b = generate_task(small_spec(transform_scale=2.0))
        np.testing.assert_allclose(
            2.0 * a.train[0].target_frames, b.train[0].target_frames, atol=1e-12
        )


class TestMergeReplay:
    def test_empty_buffer(self):
        ds = generate_task(small_spec(language_id=1))
        merged = merge_replay(ds, None)
        assert len(merged) == len(ds.train)
        assert merged.language_counts == {1: len(ds.train)}

    def test_counts_with_buffer(self):
        current = generate_task(small_spec(language_id=1))
        past = generate_task(small_spec(language_id=0))
        buf = MemoryBuffer(capacity=10, rng_seed=0)
        buf.integrate_task(past)
        merged = merge_replay(current, buf)
        assert len(merged) == 30 + 10
        assert merged.language_counts == {1: 30, 0: 10}

    def test_counts_match_brute_force(self):
        current = generate_task(small_spec(language_id=2))
        buf = MemoryBuffer(capacity=9, rng_seed=1)
        buf.integrate_task(generate_task(small_spec(language_id=0)))
        buf.integrate_task(generate_task(small_spec(language_id=1)))
        merged = merge_replay(current, buf)
        brute = {}
        for s in merged.samples:
            brute[s.language_id] = brute.get(s.language_id, 0) + 1
        assert merged.language_counts == brute

    def test_rejects_current_language_in_buffer(self):
        ds = generate_task(small_spec(language_id=0))
        buf = MemoryBuffer(capacity=5, rng_seed=0)
        buf.integrate_task(ds)
        with pytest.raises(ConsistencyError):
            merge_replay(ds, buf)


class TestLearnability:
    def test_single_task_training_reduces_dev_mcd(self):
        # threshold fixed from a pilot run: 200-epoch desk-scale training
        # reaches ~14% of the untrained dev MCD; assert the 30% contract
        import lltts as L
        from lltts.strategies import StageConfig, StrategyConfig, StrategyKind, _dev_mcd, train_stage

        spec = TaskSpec(language_id=0, seed=11, n_train=300, n_dev=30, n_test=10,
                        vocab_size=40, frame_dim=8)
        ds = generate_task(spec)
        topo = L.ModelTopology(40, 16, 32, 32, 8, 16, 3)
        params = L.init_params(topo, 0)
        epoch0 = _dev_mcd(params, ds)
        cfg = StageConfig(epochs=200, batch_size=32, lr=0.001)
        result = train_stage(
            StrategyConfig(StrategyKind.FINE_TUNE),
            params, ds, None, None, cfg, np.random.default_rng(0),
        )
        final = result.dev_curves[0][-1]
        assert final < 0.30 * epoch0
