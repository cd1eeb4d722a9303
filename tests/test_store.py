"""The sample store: one gather per batch, and no copy of the data or Sample in a run."""
import dataclasses

import numpy as np
import pytest

import lltts.model as model
import lltts.pairs as pairs
import lltts.strategies as strategies
from lltts.buffer import MemoryBuffer
from lltts.config import ExperimentConfig
from lltts.data import TaskSpec, generate_task, generate_tasks, merge_replay
from lltts.errors import InputDomainError
from lltts.model import Head
from lltts.pairs import Layout, _positions
from lltts.samplers import Batch, Provenance
from lltts.store import ReplayDataset, SampleStore, join_pools
from lltts.strategies import StrategyConfig, StrategyKind, run_sequence

from conftest import TINY, plain_padding, random_sample


def gather_one_group(topology, batch):
    """The layout of a one-group batch, with each position's row of its
    table and index into the store, and each sample's length."""
    layout = Layout.of_batch(topology, batch.store, batch.rows, Head.LBS, None)
    return (layout, *_positions(layout, batch.store, batch.rows, [len(batch.rows)]))


def assert_gathers_padding(topology, batch, want):
    """The gather holds the valid positions of the padding `want`, in batch
    order, as rows of a table of a block of each language, in token order."""
    layout, keys, pos, lengths = gather_one_group(topology, batch)
    tokens, want_targets, mask, langs = want
    valid = mask.astype(bool)
    assert np.array_equal(lengths, valid.sum(axis=1))
    position_langs = np.broadcast_to(langs[:, None], tokens.shape)[valid]
    assert np.array_equal(keys, layout.base[0, position_langs] + tokens[valid])
    targets = batch.store.frames[pos]
    assert np.array_equal(targets.view(np.uint64), want_targets[valid].view(np.uint64))
    # one block per language, in ascending order
    blocks = sorted(set(langs.tolist()))
    assert layout.n_rows == len(blocks) * topology.vocab_size
    assert layout.base[0, blocks].tolist() == [k * topology.vocab_size for k in range(len(blocks))]


def tiny_specs(n_tasks=3, **kw):
    return [
        TaskSpec(language_id=k, seed=5 + k, n_train=40, n_dev=6, n_test=4,
                 vocab_size=TINY.vocab_size, frame_dim=TINY.frame_dim,
                 seq_len_range=(1, 5), **kw)
        for k in range(n_tasks)
    ]


class TestGather:
    def test_store_rows_match_plain_padding(self):
        # a run store: one-token samples, three languages, repeated rows
        tasks = generate_tasks(tiny_specs())
        store = tasks[0].store
        samples = [s for t in tasks for s in t.train + t.dev + t.test]
        topology = dataclasses.replace(TINY, num_languages=3)
        rng = np.random.default_rng(4)
        for _ in range(50):
            rows = rng.integers(0, len(store), size=int(rng.integers(1, 20)))
            rows[-1] = rows[0]
            batch = Batch.of_rows(store, rows, Provenance.LBS)
            want = plain_padding([samples[r] for r in rows], TINY.frame_dim)
            assert_gathers_padding(topology, batch, want)
        assert any(store.lengths == 1)

    def test_api_batch_matches_plain_padding(self, rng):
        for n in (1, 2, 7):
            samples = [random_sample(rng, t=int(rng.integers(1, 6))) for _ in range(n)]
            samples.append(samples[0])
            want = plain_padding(samples, TINY.frame_dim)
            assert_gathers_padding(TINY, Batch(samples, Provenance.LBS), want)

    @pytest.mark.parametrize("position", [0, 2])
    def test_bad_sample_of_api_batch_is_named(self, rng, position):
        def batch_with(edit):
            samples = [random_sample(rng, t=t) for t in (3, 1, 4)]
            edit(samples[position])
            return Batch(samples, Provenance.LBS)

        def bad_token(s):
            s.tokens[-1] = TINY.vocab_size

        def bad_language(s):
            s.language_id = -1

        with pytest.raises(InputDomainError, match=f"sample {position}: token id"):
            gather_one_group(TINY, batch_with(bad_token))
        with pytest.raises(InputDomainError, match=f"sample {position}: language id -1"):
            gather_one_group(TINY, batch_with(bad_language))
        with pytest.raises(InputDomainError, match=f"sample {position}: target frames"):
            samples = [random_sample(rng, t=t) for t in (3, 1, 4)]
            samples[position].target_frames = np.zeros((len(samples[position].tokens), 2))
            # the first sample's frame dim is wrong for the topology, or
            # another sample's disagrees with it
            gather_one_group(TINY, Batch(samples, Provenance.LBS))

    def test_bad_row_of_store_is_named_by_its_batch_position(self):
        tasks = generate_tasks(tiny_specs(n_tasks=1))
        store = tasks[0].store
        store.tokens[store.starts[5]] = -1
        with pytest.raises(InputDomainError, match="sample 1: token id"):
            gather_one_group(TINY, Batch.of_rows(store, np.array([3, 5, 7]), Provenance.LBS))
        # rows that fit still gather; the store is not marked as checked
        gather_one_group(TINY, Batch.of_rows(store, np.array([3, 7]), Provenance.LBS))
        assert TINY not in store.checked


class TestOneStore:
    def test_generate_task_alone_gives_the_bytes_of_a_run(self):
        specs = tiny_specs()
        together = generate_tasks(specs)
        store = together[0].store
        for spec, task in zip(specs, together):
            alone = generate_task(spec).store
            # the task's rows and token span of the run store
            rows = task.first_row + np.arange(len(alone))
            first = store.starts[task.first_row]
            span = slice(first, first + len(alone.tokens))
            assert alone.tokens.tobytes() == store.tokens[span].tobytes()
            assert alone.frames.tobytes() == store.frames[span].tobytes()
            assert alone.starts.tobytes() == (store.starts[rows] - first).tobytes()
            for name in ("lengths", "langs"):
                assert getattr(alone, name).tobytes() == getattr(store, name)[rows].tobytes(), name
            assert task.store is store
            assert np.shares_memory(task.train[0].target_frames, store.frames)

    def test_each_row_has_one_sample(self, rng):
        task = generate_task(tiny_specs()[0])
        train = task.train
        assert all(a is b for a, b in zip(train, task.train))
        assert all(s is train[3] for s in task.store.samples([3, 3]))
        assert task.dev[0] is task.store.samples([len(train)])[0]
        # packed samples are their rows' samples
        samples = [random_sample(rng, t=t) for t in (3, 1, 4)]
        samples.append(samples[0])
        for pool in (Batch(samples, Provenance.LBS), ReplayDataset(samples)):
            assert all(a is b for a, b in zip(pool.samples, samples))

    def test_pools_of_one_store_copy_nothing(self):
        tasks = generate_tasks(tiny_specs())
        buf = MemoryBuffer(capacity=10, rng_seed=0)
        buf.integrate_task(tasks[0])
        buf.integrate_task(tasks[1])
        pool = merge_replay(tasks[2], buf)
        assert pool.store is tasks[0].store
        for s, row in zip(pool.samples, pool.rows.tolist()):
            a = pool.store.starts[row]
            assert np.shares_memory(s.tokens, pool.store.tokens)
            assert np.array_equal(s.target_frames, pool.store.frames[a : a + len(s.tokens)])

    def test_samples_of_several_stores_are_packed(self):
        a, b = generate_task(tiny_specs()[0]), generate_task(tiny_specs()[1])
        pool = join_pools([a.part("train"), b.part("train")])
        assert pool.store is not a.store and pool.store is not b.store
        assert len(pool.store) == len(pool) == 80
        assert pool.language_counts == {0: 40, 1: 40}
        assert ReplayDataset(a.train + b.train).language_counts == pool.language_counts

    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_run_sequence_gathers_every_batch_from_one_store(self, monkeypatch, kind):
        config = ExperimentConfig(
            task_specs=tiny_specs(), topology=dataclasses.replace(TINY, num_languages=3),
            strategy=StrategyConfig(kind), epochs_per_stage=1, batch_size=8,
            buffer_capacity=10, seed=0,
        )

        def no_copy(samples):
            raise AssertionError("a run packed a copy of its samples")

        def no_sample(store, rows):
            raise AssertionError("a run made a Sample")

        monkeypatch.setattr(SampleStore, "pack", staticmethod(no_copy))
        monkeypatch.setattr(SampleStore, "samples", no_sample)
        stores, stages = [], []
        positions = pairs._positions

        def spy_positions(layout, store, *args):
            stores.append(store)
            return positions(layout, store, *args)

        step_groups = strategies._step_groups

        def spy_groups(*args):
            pool, groups, hook = step_groups(*args)
            stores.append(pool.store)
            return pool, groups, hook

        train_stage = strategies.train_stage

        def spy_stage(strategy, params, ds_k, buffer, fstate, cfg, rng, seen_tasks):
            stages.append((seen_tasks, buffer))
            return train_stage(strategy, params, ds_k, buffer, fstate, cfg, rng, seen_tasks)

        # training and EWC's Fisher batches gather in `pairs`, evaluation in `model`
        monkeypatch.setattr(pairs, "_positions", spy_positions)
        monkeypatch.setattr(model, "_positions", spy_positions)
        monkeypatch.setattr(strategies, "_step_groups", spy_groups)
        monkeypatch.setattr(strategies, "train_stage", spy_stage)
        run_sequence(config)
        monkeypatch.undo()

        tasks, buffer = stages[-1]
        store = tasks[0].store
        assert all(s is store for s in stores) and len(stores) > 3
        assert all(task.store is store for task in tasks)
        for lang, samples in buffer.slots.items():
            assert buffer.stores[lang] is store
            train, first = tasks[lang].train, tasks[lang].first_row
            assert all(train[row - first] is s for s, row in zip(samples, buffer.rows[lang]))
