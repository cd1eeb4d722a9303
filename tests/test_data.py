import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import lltts
from lltts.buffer import MemoryBuffer
from lltts.data import (
    Sample,
    TaskSpec,
    generate_task,
    load_dataset,
    merge_replay,
    save_dataset,
)
from lltts.errors import ConsistencyError, FormatError, UsageError, VersionError


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


def split_digests(ds):
    """sha256 of each split's tokens and frames, sample by sample."""
    out = {}
    for name in ("train", "dev", "test"):
        h = hashlib.sha256()
        for s in getattr(ds, name):
            h.update(s.tokens.astype("<i8").tobytes())
            h.update(s.target_frames.astype("<f8").tobytes())
        out[name] = h.hexdigest()
    return out


# Taken from the generator that built and validated one sample at a time. At
# (1, 4) samples are shorter than the 3-token window, and one-token samples
# have one-row target products, which BLAS computes with GEMV instead of GEMM.
PINNED_DIGESTS = {
    (6, 12): {
        "train": "079ae54d619cd34e558f53267a229e260ce4c91bb4910cd0c224687ae76a240a",
        "dev": "b01c0e701706fe53319a1d7f32f5c3db9a5ccdc31cf5aa2da71bcded5a6eb864",
        "test": "43276b74b2d55975a5c402221ff56e19f0393e49ccc6785c40d0721ba633f632",
    },
    (1, 4): {
        "train": "80f53d589f2803c5e7761aa9eb3fc0622677e1303ff26489efc19a0cf1b3f355",
        "dev": "0a14cd853ec199b4b7712aff0dac99ebf0c5ba7d1209580258250b7abed899ff",
        "test": "33e9bb4e246be729e25a6a326e0a93984d9f0e3a2d2de06d458fb87623f89c49",
    },
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
    def test_generated_bytes_pinned(self, seq_len_range):
        spec = TaskSpec(language_id=2, seed=7, n_train=300, seq_len_range=seq_len_range)
        assert split_digests(generate_task(spec)) == PINNED_DIGESTS[seq_len_range]

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


class TestDatasetFile:
    def test_round_trip(self, tmp_path):
        ds = generate_task(small_spec())
        path = tmp_path / "lang0.lltts"
        save_dataset(ds, path, vocab_size=12)
        loaded = load_dataset(path)
        assert datasets_equal(ds, loaded)
        for a, b in zip(ds.train, loaded.train):
            assert np.array_equal(a.target_frames, b.target_frames)  # bit-exact

    def test_loaded_samples_view_one_store(self, tmp_path):
        ds = generate_task(small_spec(seq_len_range=(1, 4)))
        path = tmp_path / "lang0.lltts"
        save_dataset(ds, path, vocab_size=12)
        loaded = load_dataset(path)
        store = loaded.store
        assert len(store) == 30 + 8 + 5 and np.all(store.langs == 0)
        originals = ds.train + ds.dev + ds.test
        for i, (a, b) in enumerate(zip(originals, loaded.train + loaded.dev + loaded.test)):
            assert a == b
            assert np.shares_memory(b.tokens, store.tokens)
            assert np.shares_memory(b.target_frames, store.frames)
            first = store.starts[i]
            assert np.array_equal(b.tokens, store.tokens[first : first + store.lengths[i]])
        # writable views, as generated samples are
        loaded.train[0].target_frames[0, 0] = 7.0
        assert store.frames[0, 0] == 7.0

    def test_truncated_file_rejected(self, tmp_path):
        ds = generate_task(small_spec())
        path = tmp_path / "lang0.lltts"
        save_dataset(ds, path, vocab_size=12)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 17])
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.lltts"
        path.write_bytes(b"NOTAFILE")
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_version_mismatch(self, tmp_path):
        ds = generate_task(small_spec())
        path = tmp_path / "lang0.lltts"
        save_dataset(ds, path, vocab_size=12)
        blob = bytearray(path.read_bytes())
        blob[5] = ord("9")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_dataset(path)

    def test_language_range_check(self, tmp_path):
        ds = generate_task(small_spec(language_id=5))
        path = tmp_path / "lang5.lltts"
        save_dataset(ds, path, vocab_size=12)
        with pytest.raises(FormatError, match="num_languages") as exc:
            load_dataset(path, num_languages=3)
        # the header's language-id field: magic, vocab_size, frame_dim
        assert exc.value.offset == 14
        assert load_dataset(path, num_languages=6).language_id == 5

    def test_token_range_check_names_first_bad_token(self, tmp_path):
        ds = generate_task(small_spec())
        ds.train[1].tokens[2] = 12
        ds.train[1].tokens[4] = 13
        path = tmp_path / "lang0.lltts"
        save_dataset(ds, path, vocab_size=12)
        with pytest.raises(FormatError, match="vocab_size") as exc:
            load_dataset(path)
        # 30-byte header, sample 0 (length, tokens, frames), sample 1's
        # length field, then its first two tokens
        t0 = len(ds.train[0].tokens)
        expected = 30 + (4 + t0 * (4 + 8 * ds.frame_dim)) + 4 + 4 * 2
        assert exc.value.offset == expected
        blob = path.read_bytes()
        assert int.from_bytes(blob[expected : expected + 4], "little") == 12


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
