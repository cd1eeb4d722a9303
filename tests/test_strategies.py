import dataclasses
import gc
import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from lltts.buffer import MemoryBuffer
from lltts.config import parse_config
from lltts.data import TaskSpec, generate_task, generate_tasks, merge_replay
from lltts.errors import InputDomainError, NumericError, UsageError
from lltts import model, strategies
from lltts.model import AdamState, Head, LossBreakdown, adam_step, init_params, loss_and_grad
from lltts.pairs import Layout
from lltts.samplers import Batch, Provenance, draw_balanced, draw_random
from lltts.store import SampleStore, join_pools
from lltts.strategies import (
    FisherState,
    GemState,
    StageConfig,
    StrategyConfig,
    StrategyKind,
    dual_loss,
    ewc_consolidate,
    ewc_penalty,
    gem_project,
    lr_for_epoch,
    train_stage,
)

from conftest import CONFIGS, TINY, plan_of, store_nbytes
from test_model import REL_TOL


def small_task(language_id=0, n_train=60, seed=5):
    spec = TaskSpec(
        language_id=language_id,
        seed=seed,
        n_train=n_train,
        n_dev=6,
        n_test=4,
        vocab_size=TINY.vocab_size,
        frame_dim=TINY.frame_dim,
        seq_len_range=(2, 5),
    )
    return generate_task(spec)


class TestDualLoss:
    def test_paper_constants(self):
        l_lbs = LossBreakdown(1.0, 1.0)
        l_rrs = LossBreakdown(0.5, 0.5)
        assert dual_loss(l_lbs, l_rrs, 0.5, 1.0) == 2.0

    def test_beta_zero(self):
        assert dual_loss(LossBreakdown(1.0, 2.0), LossBreakdown(9.0, 9.0), 0.5, 0.0) == 1.5

    def test_unit_weights_plain_sum(self):
        assert dual_loss(LossBreakdown(1.0, 1.0), LossBreakdown(2.0, 2.0), 1.0, 1.0) == 6.0

    def test_negative_weight_rejected(self):
        with pytest.raises(UsageError):
            dual_loss(LossBreakdown(1.0, 1.0), LossBreakdown(1.0, 1.0), -1.0, 1.0)

    @pytest.mark.parametrize("gamma, beta", [(float("nan"), 1.0), (1.0, float("inf")),
                                             (float("inf"), 1.0), (1.0, float("nan"))])
    def test_non_finite_weight_rejected(self, gamma, beta):
        with pytest.raises(UsageError, match="finite"):
            dual_loss(LossBreakdown(1.0, 1.0), LossBreakdown(1.0, 1.0), gamma, beta)


class TestEwc:
    def test_zero_gradient_zero_fisher(self, rng):
        params = init_params(TINY, 0)
        params.values[:] = 0.0
        ds = small_task()
        for s in ds.train:
            s.target_frames[:] = 0.0
        fstate = ewc_consolidate(params, ds, 10, rng)
        assert np.all(fstate.fisher_diag == 0)

    def test_single_sample_is_squared_grad(self, rng):
        params = init_params(TINY, 0)
        ds = small_task()
        state_rng = np.random.default_rng(77)
        fstate = ewc_consolidate(params, ds, 1, state_rng)
        # recompute with the same rng draw
        check_rng = np.random.default_rng(77)
        idx = check_rng.choice(len(ds.train), size=1, replace=False)
        _, grad = loss_and_grad(params, Batch([ds.train[int(idx[0])]], Provenance.LBS), Head.LBS)
        np.testing.assert_allclose(fstate.fisher_diag, grad**2, atol=1e-15)

    def test_accumulation_matches_brute_force(self):
        params = init_params(TINY, 1)
        ds = small_task()
        fstate = ewc_consolidate(params, ds, 50, np.random.default_rng(3))
        check_rng = np.random.default_rng(3)
        idx = check_rng.choice(len(ds.train), size=50, replace=False)
        expected = np.zeros_like(params.values)
        for i in idx:
            _, g = loss_and_grad(params, Batch([ds.train[int(i)]], Provenance.LBS), Head.LBS)
            expected += g**2
        expected /= 50
        np.testing.assert_allclose(fstate.fisher_diag, expected, atol=1e-12)

    def test_desk_samples_are_the_one_row_steps_of_one_plan(self, monkeypatch):
        # a desk task's 100 Fisher samples are planned 25 at a time, a one-row
        # output each of one pass, and the diagonal is, bit for bit, the mean
        # of their squared one-sample loss_and_grad gradients
        cfg = parse_config((CONFIGS / "desk.ini").read_text())
        task = generate_tasks(cfg.task_specs)[0]
        params = init_params(cfg.topology, 0)
        plans = []
        plan_steps = strategies.plan_steps

        def spy_plan(layout, parts):
            plans.append(([rows.tolist() for _, rows in parts], layout.heads, layout.weights))
            return plan_steps(layout, parts)

        monkeypatch.setattr(strategies, "plan_steps", spy_plan)
        fstate = ewc_consolidate(params, task, 100, np.random.default_rng(4))
        monkeypatch.undo()
        train = task.rows("train")
        rows = train[np.random.default_rng(4).choice(len(train), size=100, replace=False)]
        assert plans == [([[row] for row in rows[k : k + 25].tolist()], [Head.LBS] * 25, [None] * 25)
                         for k in range(0, 100, 25)]
        expected = np.zeros_like(params.values)
        for row in rows:
            _, g = loss_and_grad(params, Batch.of_rows(task.store, np.array([row]), Provenance.LBS), Head.LBS)
            expected += g**2
        expected /= 100
        assert fstate.fisher_diag.tobytes() == expected.tobytes()

    def test_prior_accumulates_additively(self, rng):
        params = init_params(TINY, 1)
        ds = small_task()
        first = ewc_consolidate(params, ds, 5, np.random.default_rng(1))
        second = ewc_consolidate(params, ds, 5, np.random.default_rng(2), prior=first)
        alone = ewc_consolidate(params, ds, 5, np.random.default_rng(2))
        np.testing.assert_allclose(
            second.fisher_diag, first.fisher_diag + alone.fisher_diag, atol=1e-12
        )

    def test_penalty_at_anchor_zero(self):
        params = init_params(TINY, 0)
        fstate = ewc_consolidate(params, small_task(), 3, np.random.default_rng(0))
        penalty, grad = ewc_penalty(params, fstate, 10.0)
        assert penalty == 0.0
        assert np.all(grad == 0)

    def test_hand_arithmetic(self):
        params = init_params(TINY, 0)
        anchor = params.copy()
        params = params.copy()
        params.values[0] += 1.0
        params.values[1] += 1.0
        from lltts.strategies import FisherState

        fstate = FisherState(np.ones_like(params.values), anchor)
        penalty, grad = ewc_penalty(params, fstate, 2.0)
        assert penalty == pytest.approx(2.0)
        expected = np.zeros_like(grad)
        expected[0] = expected[1] = 2.0
        np.testing.assert_allclose(grad, expected)

    def test_penalty_gradient_finite_difference(self):
        rng = np.random.default_rng(9)
        params = init_params(TINY, 2)
        anchor = params.copy()
        anchor.values[:] += 0.05 * rng.standard_normal(len(anchor.values))
        from lltts.strategies import FisherState

        fstate = FisherState(rng.uniform(0, 2, len(params.values)), anchor)
        lam = 3.0
        _, grad = ewc_penalty(params, fstate, lam)
        eps = 1e-6
        for i in rng.choice(len(params.values), size=20, replace=False):
            params.values[i] += eps
            up, _ = ewc_penalty(params, fstate, lam)
            params.values[i] -= 2 * eps
            down, _ = ewc_penalty(params, fstate, lam)
            params.values[i] += eps
            fd = (up - down) / (2 * eps)
            assert abs(grad[i] - fd) / max(1.0, abs(fd)) < 1e-6


def reference_state(params, buffer, batch_size, rng):
    """The GemState the stage's hook hands gem_project for one draw of a GEM
    step's reference batches, run as the groups of one planned step."""
    strategy = StrategyConfig(StrategyKind.GEM, gem_memory_batch=batch_size)
    _, groups, hook = strategies._step_groups(strategy, small_task(), buffer, None, None, batch_size, rng)
    parts = [(batch.store, batch.rows) for batch in (draw() for weight, draw, *_ in groups if weight is None)]
    plan = plan_of(params.topology, parts, [Head.LBS] * len(parts), [None] * len(parts))
    _, grads = strategies.run_step(params, plan, 0)
    states = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strategies, "gem_project", lambda g, gstate: states.append(gstate))
        hook(params, grads, 0.0, grads[0])
    return states[0]


class TestGemReferenceGrads:
    def _buffer(self, langs, rng_seed=0):
        buf = MemoryBuffer(capacity=12, rng_seed=rng_seed)
        for lang in langs:
            buf.integrate_task(small_task(language_id=lang))
        return buf

    def test_one_row_per_language(self):
        params = init_params(TINY, 0)
        buf = self._buffer([0])
        state = reference_state(params, buf, 4, np.random.default_rng(0))
        assert state.reference_grads.shape[0] == 1
        assert state.languages == [0]

    def test_rows_finite_nonzero(self):
        params = init_params(TINY, 0)
        buf = self._buffer([0, 1])
        state = reference_state(params, buf, 4, np.random.default_rng(0))
        assert np.all(np.isfinite(state.reference_grads))
        assert np.all(np.any(state.reference_grads != 0, axis=1))

    def test_row_equals_direct_recompute(self):
        params = init_params(TINY, 0)
        buf = self._buffer([0])
        state = reference_state(params, buf, 4, np.random.default_rng(8))
        check_rng = np.random.default_rng(8)
        pool = buf.slots[0]
        idx = check_rng.choice(len(pool), size=4, replace=False)
        _, grad = loss_and_grad(
            params, Batch([pool[i] for i in idx], Provenance.LBS), Head.LBS
        )
        np.testing.assert_array_equal(state.reference_grads[0], grad)

    def test_empty_slot_skipped(self):
        # capacity 1 over two languages leaves language 1 a quota of 0
        params = init_params(TINY, 0)
        buf = MemoryBuffer(capacity=1, rng_seed=0)
        for lang in (0, 1):
            buf.integrate_task(small_task(language_id=lang))
        assert buf.counts() == {0: 1, 1: 0}
        state = reference_state(params, buf, 4, np.random.default_rng(0))
        assert state.languages == [0]
        _, grad = loss_and_grad(params, Batch(buf.slots[0], Provenance.LBS), Head.LBS)
        np.testing.assert_array_equal(state.reference_grads, grad[None, :])

    def test_empty_buffer_plans_one_group_a_step(self, monkeypatch):
        # with no buffered sample a GEM step's pass is its own batch alone:
        # 7 steps an epoch of 8 rows of at most 5 tokens, a chunk an epoch
        heads = []
        plan_steps = strategies.plan_steps

        def spy_plan(layout, parts):
            heads.append((layout.heads, layout.weights))
            return plan_steps(layout, parts)

        monkeypatch.setattr(strategies, "plan_steps", spy_plan)
        train_stage(StrategyConfig(StrategyKind.GEM), init_params(TINY, 0), small_task(),
                    MemoryBuffer(5, 0), None, StageConfig(epochs=2, batch_size=8), np.random.default_rng(0))
        assert heads == [([Head.LBS], [1.0])] * 2


def no_call(*args):
    raise AssertionError("a training step called loss_and_grad")


def spy_passes(monkeypatch):
    """The list to which each model pass of a training step appends its
    plan's heads and its groups' row counts."""
    passes, sizes = [], {}
    plan_steps, run_step = strategies.plan_steps, strategies.run_step

    def spy_plan(layout, parts):
        plan = plan_steps(layout, parts)
        sizes[id(plan)] = [len(rows) for _, rows in parts]
        return plan

    def spy_pass(params, plan, step):
        n = len(plan.layout.heads)
        passes.append((plan.layout.heads, sizes[id(plan)][step * n : (step + 1) * n]))
        return run_step(params, plan, step)

    monkeypatch.setattr(strategies, "plan_steps", spy_plan)
    monkeypatch.setattr(strategies, "run_step", spy_pass)
    return passes


def separate_gem_stage(params, ds_k, buffer, cfg, rng, memory_batch):
    """A GEM stage with one loss_and_grad per batch: the step's batch, then one
    reference batch per buffered language in integration order. Returns the
    final parameters and each step's (gradient, reference rows, languages)."""
    pool = join_pools([ds_k.part("train")])
    opt = AdamState.fresh(len(params.values), lr=cfg.lr)
    steps = []
    for epoch in range(cfg.epochs):
        opt.lr = lr_for_epoch(cfg.lr, epoch, cfg.epochs, cfg.lr_decay_epoch_fraction)
        for _ in range(max(1, len(pool) // cfg.batch_size)):
            _, grad = loss_and_grad(params, draw_random(pool, cfg.batch_size, rng), Head.LBS)
            refs, langs = [], []
            for lang, rows in buffer.rows.items():
                if len(rows):
                    idx = rng.choice(len(rows), size=min(memory_batch, len(rows)), replace=False)
                    batch = Batch.of_rows(buffer.stores[lang], rows[idx], Provenance.LBS)
                    refs.append(loss_and_grad(params, batch, Head.LBS)[1])
                    langs.append(lang)
            steps.append((grad, np.stack(refs), langs))
            opt, params = adam_step(opt, params, gem_project(grad, GemState(np.stack(refs), langs)))
    return params, steps


class TestGemStage:
    def test_one_pass_equals_separate_passes(self, monkeypatch):
        # languages integrated in the order 2, 0, then a stage of language 1,
        # each task in a store of its own: every step's gradient, its reference
        # rows and their languages (in integration order), the final
        # parameters and the rng stream are those of one pass per batch
        topology = dataclasses.replace(TINY, num_languages=3)
        tasks = {lang: small_task(language_id=lang, seed=5 + lang) for lang in (2, 0, 1)}
        buffer = MemoryBuffer(capacity=12, rng_seed=0)
        buffer.integrate_task(tasks[2])
        buffer.integrate_task(tasks[0])
        cfg = StageConfig(epochs=2, batch_size=8, lr=0.01)
        params = init_params(topology, 0)
        seen = []
        project = strategies.gem_project

        def spy_project(g, gstate):
            seen.append((g.copy(), gstate.reference_grads.copy(), list(gstate.languages)))
            return project(g, gstate)

        monkeypatch.setattr(strategies, "gem_project", spy_project)
        passes = spy_passes(monkeypatch)
        monkeypatch.setattr(model, "loss_and_grad", no_call)
        rng = np.random.default_rng(3)
        strategy = StrategyConfig(StrategyKind.GEM, gem_memory_batch=4)
        result = train_stage(strategy, params, tasks[1], buffer, None, cfg, rng)
        monkeypatch.undo()

        want_rng = np.random.default_rng(3)
        want_params, want_steps = separate_gem_stage(params, tasks[1], buffer, cfg, want_rng, 4)
        assert len(seen) == len(want_steps) == 2 * (60 // 8)
        # one model pass a step: the step's batch and a reference batch per language
        assert passes == [([Head.LBS] * 3, [8, 4, 4])] * len(seen)
        for (g, refs, langs), (want_g, want_refs, want_langs) in zip(seen, want_steps):
            assert langs == want_langs == [2, 0]
            assert np.array_equal(g, want_g)
            assert refs.tobytes() == want_refs.tobytes()
        assert result.final_params.values.tobytes() == want_params.values.tobytes()
        assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_stage_packs_the_buffered_rows_once(self, monkeypatch):
        # the buffered languages' rows live in stores other than the task's:
        # the stage joins them with the task's rows once, and no chunk's plan
        # packs a sample again; the final parameters are the same bits
        params, ds_k, buffer, cfg = three_language_stage()
        packs = []
        pack = SampleStore.pack.__func__

        def spy_pack(cls, samples):
            packs.append(len(samples))
            return pack(cls, samples)

        monkeypatch.setattr(SampleStore, "pack", classmethod(spy_pack))
        strategy = StrategyConfig(StrategyKind.GEM, gem_memory_batch=4)
        result = train_stage(strategy, params, ds_k, buffer, None, cfg, np.random.default_rng(3))
        monkeypatch.undo()
        want, _ = separate_gem_stage(params, ds_k, buffer, cfg, np.random.default_rng(3), 4)
        assert len(packs) <= 1
        assert result.final_params.values.tobytes() == want.values.tobytes()


def separate_dual_stage(params, ds_k, buffer, cfg, rng, gamma, beta):
    """A dual stage with one loss_and_grad per batch: the LBS batch, then the
    RRS batch. Returns the final parameters."""
    pool = merge_replay(ds_k, buffer)
    opt = AdamState.fresh(len(params.values), lr=cfg.lr)
    for epoch in range(cfg.epochs):
        opt.lr = lr_for_epoch(cfg.lr, epoch, cfg.epochs, cfg.lr_decay_epoch_fraction)
        for _ in range(max(1, len(pool) // cfg.batch_size)):
            _, g_lbs = loss_and_grad(params, draw_balanced(pool, cfg.batch_size, rng), Head.LBS)
            _, g_rrs = loss_and_grad(params, draw_random(pool, cfg.batch_size, rng, Provenance.RRS), Head.RRS)
            grad = np.zeros_like(params.values)
            grad += gamma * g_lbs
            grad += beta * g_rrs
            opt, params = adam_step(opt, params, grad)
    return params


def three_language_stage():
    """Languages 2 and 0 buffered, then a stage of language 1, each task in a
    store of its own, so a replay pool packs a store of its own: parameters,
    the stage's task, the buffer and a stage config of 2 epochs at batch 8."""
    topology = dataclasses.replace(TINY, num_languages=3)
    tasks = {lang: small_task(language_id=lang, seed=5 + lang) for lang in (2, 0, 1)}
    buffer = MemoryBuffer(capacity=12, rng_seed=0)
    buffer.integrate_task(tasks[2])
    buffer.integrate_task(tasks[0])
    return init_params(topology, 0), tasks[1], buffer, StageConfig(epochs=2, batch_size=8, lr=0.01)


class TestDualStage:
    def _stage(self):
        return three_language_stage()

    def test_one_pass_equals_separate_passes(self, monkeypatch):
        # one model pass a step, over the LBS and RRS batches as two groups;
        # the rng stream is that of one pass per batch, and the final
        # parameters are too, to REL_TOL of the largest entry: each shared
        # layer's gradient is one product over both batches' rows, so it sums
        # in another order than gamma * g_lbs + beta * g_rrs
        params, ds_k, buffer, cfg = self._stage()
        passes = spy_passes(monkeypatch)
        monkeypatch.setattr(model, "loss_and_grad", no_call)
        rng = np.random.default_rng(3)
        strategy = StrategyConfig(StrategyKind.REPLAY_DUAL, gamma=0.5, beta=1.0)
        result = train_stage(strategy, params, ds_k, buffer, None, cfg, rng)
        monkeypatch.undo()

        want_rng = np.random.default_rng(3)
        want_params = separate_dual_stage(params, ds_k, buffer, cfg, want_rng, 0.5, 1.0)
        steps = 2 * ((60 + 12) // 8)
        assert passes == [([Head.LBS, Head.RRS], [8, 8])] * steps
        got, want = result.final_params.values, want_params.values
        assert np.max(np.abs(got - want)) <= REL_TOL * np.max(np.abs(want))
        assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_zero_weights_are_a_no_op_step(self):
        # gamma = beta = 0 leaves a step no loss term: it draws nothing and
        # the zero gradient leaves every parameter where it was
        params, ds_k, buffer, cfg = self._stage()
        rng = np.random.default_rng(3)
        strategy = StrategyConfig(StrategyKind.REPLAY_DUAL, gamma=0.0, beta=0.0)
        result = train_stage(strategy, params, ds_k, buffer, None, cfg, rng)
        assert result.final_params.values.tobytes() == params.values.tobytes()
        assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


def dual_step_parts():
    """The parameters and the (store, rows) parts of a dual step's LBS and
    RRS batches at the last of three_language_stage's stages."""
    params, ds_k, buffer, _ = three_language_stage()
    pool, rng = merge_replay(ds_k, buffer), np.random.default_rng(3)
    batches = [draw_balanced(pool, 8, rng), draw_random(pool, 8, rng, Provenance.RRS)]
    params.values[:] += 0.1 * rng.standard_normal(len(params.values))
    return params, [(batch.store, batch.rows) for batch in batches]


class TestFoldedWeights:
    DUAL = [Head.LBS, Head.RRS]

    @pytest.mark.parametrize("weight", [1.0, 0.5, 2.0, 2.0**-7])
    def test_power_of_two_weight_scales_the_plan_bitwise(self, weight):
        # W, S and the sum of w |t|^2 of a group of weight 2^k are those of
        # the group of weight None, times 2^k, bit for bit; the other group
        # keeps its own
        # each group's blocks are the stage pool's three languages
        params, parts = dual_step_parts()
        alone, plan = (strategies.plan_steps(Layout(params.topology, self.DUAL, weights, [[0, 1, 2]] * 2), parts)
                       for weights in ([None, None], [weight, 1.0]))
        a = plan.layout.group_rows[1]
        assert plan.layout.group_rows == alone.layout.group_rows
        for name in ("w_sum", "s_sum"):
            got, want = getattr(plan, name), getattr(alone, name)
            assert got[:a].tobytes() == (weight * want[:a]).tobytes()
            assert got[a:].tobytes() == want[a:].tobytes()
        assert plan.t_sq.tobytes() == (np.array([weight, 1.0]) * alone.t_sq).tobytes()

    def test_one_gradient_is_the_weighted_sum_of_separate_passes(self):
        # gamma = 0.3 and beta = 0.7, which round when folded: one output,
        # gamma * g_lbs + beta * g_rrs to REL_TOL of the largest entry, and
        # each group's weighted loss
        params, parts = dual_step_parts()
        plan = plan_of(params.topology, parts, self.DUAL, [0.3, 0.7])
        losses, grads = strategies.run_step(params, plan, 0)
        assert grads.shape == (1, len(params.values)) and len(losses) == 2
        want = np.zeros_like(params.values)
        for loss, weight, (store, rows), head in zip(losses, [0.3, 0.7], parts, self.DUAL):
            want_loss, grad = loss_and_grad(params, Batch.of_rows(store, rows, Provenance.LBS), head)
            want += weight * grad
            assert loss.total == pytest.approx(weight * want_loss.total, rel=REL_TOL, abs=0)
        assert np.max(np.abs(grads[0] - want)) <= REL_TOL * np.max(np.abs(want))

    def test_gem_reference_outputs_are_their_groups_planned_alone(self):
        # a GEM step's batch is output 0 and each reference batch the next:
        # each output is, bit for bit, the gradient of its group planned alone
        params, ds_k, buffer, cfg = three_language_stage()
        strategy = StrategyConfig(StrategyKind.GEM, gem_memory_batch=4)
        _, groups, _ = strategies._step_groups(
            strategy, ds_k, buffer, None, [ds_k], cfg.batch_size, np.random.default_rng(3)
        )
        parts = [(batch.store, batch.rows) for batch in (draw() for _, draw, *_ in groups)]
        weights = [weight for weight, *_ in groups]
        assert weights == [1.0, None, None]
        layout = Layout(params.topology, [Head.LBS] * 3, weights, [langs for *_, langs in groups])
        _, grads = strategies.run_step(params, strategies.plan_steps(layout, parts), 0)
        assert grads.shape == (3, len(params.values))
        for grad, part in zip(grads, parts, strict=True):
            alone = plan_of(params.topology, [part], [Head.LBS], [None])
            assert grad.tobytes() == strategies.run_step(params, alone, 0)[1][0].tobytes()

    @pytest.mark.parametrize("heads, weights", [
        ([Head.LBS, Head.LBS], [None, 1.0]),
        ([Head.LBS, Head.RRS, Head.LBS], [1.0, 1.0, 1.0]),
    ], ids=["weighted_after_none", "head_split_in_the_sum"])
    def test_weights_out_of_order_raise(self, heads, weights):
        # the weighted groups come first, each head's consecutive, so that
        # each head's gradient of output 0 is one product
        params, parts = dual_step_parts()
        parts = (parts * 2)[: len(heads)]
        with pytest.raises(UsageError, match="weighted groups must come first"):
            plan_of(params.topology, parts, heads, weights)


# a chunk budget of 4 steps of 16 rows of at most 5 tokens (small_task's lengths)
FOUR_STEPS = 4 * 16 * 5


class TestChunkedPlans:
    # a dual stage has 9 steps an epoch of two groups of 8 rows; a GEM stage 7
    # steps of its batch of 8 and two reference batches of 4
    CHUNKS = {
        (StrategyKind.REPLAY_DUAL, 1): [1] * 18,
        (StrategyKind.REPLAY_DUAL, FOUR_STEPS): [4, 4, 1] * 2,
        (StrategyKind.REPLAY_DUAL, 10**6): [9] * 2,
        (StrategyKind.GEM, 1): [1] * 14,
        (StrategyKind.GEM, FOUR_STEPS): [4, 3] * 2,
        (StrategyKind.GEM, 10**6): [7] * 2,
    }

    @pytest.mark.parametrize("kind, budget", list(CHUNKS))
    def test_chunk_plan_equals_each_step_planned_alone(self, monkeypatch, kind, budget):
        # chunks of one step, of several, and cut short by the end of an
        # epoch: each step's block of its chunk's plan is the plan of its own
        # batch, bit for bit, and gives the same losses and gradient bits
        params, ds_k, buffer, cfg = three_language_stage()
        chunks = []
        plan_steps = strategies.plan_steps

        def spy_plan(layout, parts):
            plan = plan_steps(layout, parts)
            chunks.append((parts, len(parts) // len(layout.heads), plan))
            return plan

        monkeypatch.setattr(strategies, "_CHUNK_POSITIONS", budget)
        monkeypatch.setattr(strategies, "plan_steps", spy_plan)
        strategy = StrategyConfig(kind, gem_memory_batch=4)
        train_stage(strategy, params, ds_k, buffer, None, cfg, np.random.default_rng(3))
        monkeypatch.undo()
        assert [steps for _, steps, _ in chunks] == self.CHUNKS[kind, budget]
        (layout,) = {plan.layout for *_, plan in chunks}  # the stage's one layout

        params.values[:] += 0.1 * np.random.default_rng(1).standard_normal(len(params.values))
        n_groups, n_rows = len(layout.heads), layout.n_rows
        for parts, steps, plan in chunks:
            for k in range(steps):
                alone = plan_steps(layout, parts[k * n_groups : (k + 1) * n_groups])
                for name in ("w_sum", "s_sum"):
                    got = getattr(plan, name)[k * n_rows : (k + 1) * n_rows]
                    assert got.tobytes() == getattr(alone, name).tobytes()
                assert plan.t_sq[k * n_groups : (k + 1) * n_groups].tobytes() == alone.t_sq.tobytes()
                losses, grads = strategies.run_step(params, plan, k)
                grads = grads.copy()  # the layout's buffer, which the next step overwrites
                want_losses, want_grads = strategies.run_step(params, alone, 0)
                assert losses == want_losses and grads.tobytes() == want_grads.tobytes()

    @pytest.mark.parametrize("kind", [StrategyKind.REPLAY_DUAL, StrategyKind.GEM, StrategyKind.REPLAY_WEIGHTED])
    @pytest.mark.parametrize("budget", [FOUR_STEPS, strategies._CHUNK_POSITIONS])
    def test_stage_draws_are_step_by_step_draws(self, monkeypatch, kind, budget):
        # a chunk draws its steps' batches, and GEM's reference rows, in the
        # order a step at a time draws them: the same rows, and the stage's
        # rng ends in the state the draws leave it in, made one step at a time
        params, ds_k, buffer, cfg = three_language_stage()
        drawn = []
        plan_steps = strategies.plan_steps

        def spy_plan(layout, parts):
            drawn.extend(rows for _, rows in parts)
            return plan_steps(layout, parts)

        monkeypatch.setattr(strategies, "_CHUNK_POSITIONS", budget)
        monkeypatch.setattr(strategies, "plan_steps", spy_plan)
        strategy = StrategyConfig(kind, gem_memory_batch=4)
        rng = np.random.default_rng(3)
        train_stage(strategy, params, ds_k, buffer, None, cfg, rng)

        # one step at a time: the step's batches, then GEM's reference batches
        want_rng, want = np.random.default_rng(3), []
        pool, groups, _ = strategies._step_groups(strategy, ds_k, buffer, None, [ds_k], cfg.batch_size, want_rng)
        for _ in range(cfg.epochs * (len(pool) // cfg.batch_size)):
            want += [draw().rows for _, draw, *_ in groups]
        assert len(drawn) == len(want) and all(map(np.array_equal, drawn, want))
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("kind", [StrategyKind.REPLAY_DUAL, StrategyKind.GEM, StrategyKind.EWC])
    def test_views_and_a_gradient_buffer_once_a_stage(self, monkeypatch, kind):
        # a stage's steps update one parameter vector in place, whose named
        # views are made once, and overwrite the one (outputs, n_params)
        # gradient buffer of the stage's layout, whose views are made once
        params, ds_k, buffer, cfg = three_language_stage()
        fstate = ewc_consolidate(params, ds_k, 4, np.random.default_rng(0))
        made, plans, buffers = [], [], []
        plan_steps, run_step = strategies.plan_steps, strategies.run_step

        class Counted(model._Weights):
            def __init__(self, topology, flat):
                made.append(flat.ndim)  # 1 for a parameter vector, 2 for a buffer
                super().__init__(topology, flat)

        def spy_plan(*args):
            plans.append(plan_steps(*args))
            return plans[-1]

        def spy_pass(params, plan, step):
            losses, grads = run_step(params, plan, step)
            buffers.append(grads)
            return losses, grads

        monkeypatch.setattr(model, "_Weights", Counted)
        monkeypatch.setattr(strategies, "plan_steps", spy_plan)
        monkeypatch.setattr(strategies, "run_step", spy_pass)
        strategy = StrategyConfig(kind, gem_memory_batch=4)
        result = train_stage(strategy, params, ds_k, buffer, fstate, cfg, np.random.default_rng(3))
        assert len(plans) > 1 and made.count(2) == 1 and made.count(1) == 1
        assert all(grads is buffers[0] for grads in buffers)
        assert np.shares_memory(result.final_params.weights.emb, result.final_params.values)


def test_a_language_outside_the_topology_is_an_input_error():
    # a stage's layout has a block for each language its pool holds: one past
    # num_languages is named before any step, as the planner names it
    text = (CONFIGS / "desk.ini").read_text().replace("postnet_hidden = 8", "postnet_hidden = 8\nnum_languages = 2")
    with pytest.raises(InputDomainError, match=r"language id 2 out of range \[0, 2\)"):
        strategies.run_sequence(parse_config(text.replace("epochs_per_stage = 20", "epochs_per_stage = 1")))


def last_stage(profile, kind):
    """The profile's config with strategy `kind`, its tasks and a buffer
    holding every task but the last."""
    text = (CONFIGS / f"{profile}.ini").read_text()
    cfg = parse_config(text.replace("kind = replay_dual", f"kind = {kind}"))
    tasks = generate_tasks(cfg.task_specs)
    buffer = MemoryBuffer(cfg.buffer_capacity, rng_seed=0)
    for task in tasks[:-1]:
        buffer.integrate_task(task)
    return cfg, tasks, buffer


def step_peak(step, topology):
    """The tracemalloc peak of the second `step(opt, params)`."""
    params = init_params(topology, 0)
    opt, params = step(AdamState.fresh(len(params.values)), params)  # checks the store's ids
    tracemalloc.start()
    try:
        step(opt, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("profile, bound", [("desk", 400_000), ("paper_scale", 1_000_000)])
def test_dual_step_peak_memory(profile, bound):
    # the heap of one dual step at the last stage: its two draws, the one
    # model pass over the LBS and RRS batches, which gives the one gradient
    # of the weighted sum, and Adam. Measured 151-171 and 349-397 kB (374-422
    # kB with a gradient per batch, summed in the loop; 266-274 and 689-738
    # kB before the step wrote into a plan's buffer); two separate passes
    # peaked at 154-160 and 455-462 kB, and a paper-scale pass over padded
    # positions at 3.44 MB
    cfg, tasks, buffer = last_stage(profile, "replay_dual")
    pool = merge_replay(tasks[-1], buffer)
    rng = np.random.default_rng(0)
    weights = [cfg.strategy.gamma, cfg.strategy.beta]
    layout = Layout(cfg.topology, [Head.LBS, Head.RRS], weights, [list(pool.language_counts)] * 2)

    def step(opt, params):
        batches = [draw_balanced(pool, cfg.batch_size, rng),
                   draw_random(pool, cfg.batch_size, rng, Provenance.RRS)]
        parts = [(batch.store, batch.rows) for batch in batches]
        plan = strategies.plan_steps(layout, parts)
        _, grads = strategies.run_step(params, plan, 0)
        return adam_step(opt, params, grads[0])

    assert step_peak(step, cfg.topology) <= bound


@pytest.mark.parametrize("profile, bound", [("desk", 450_000), ("paper_scale", 800_000)])
def test_gem_step_peak_memory(profile, bound):
    # the heap of one GEM step at the last stage (desk: 3 languages, paper
    # scale: 4): its draw, the one model pass over the step's batch and every
    # reference batch, the projection and Adam. Measured 331 and 606 kB;
    # the 1-3 reference passes of their own peaked at 150 and 330 kB
    cfg, tasks, buffer = last_stage(profile, "gem")
    rng = np.random.default_rng(0)
    _, groups, hook = strategies._step_groups(cfg.strategy, tasks[-1], buffer, None, tasks, cfg.batch_size, rng)
    weights = [weight for weight, *_ in groups]
    layout = Layout(cfg.topology, [Head.LBS] * len(groups), weights, [langs for *_, langs in groups])

    def step(opt, params):
        parts = [(batch.store, batch.rows) for batch in (draw() for _, draw, *_ in groups)]
        plan = strategies.plan_steps(layout, parts)
        _, grads = strategies.run_step(params, plan, 0)
        return adam_step(opt, params, hook(params, grads, 0.0, grads[0])[1])

    assert step_peak(step, cfg.topology) <= bound


def test_chunk_steps_leave_no_blocks_behind():
    # CPython's free lists keep the small tuples they are given, up to 2,000
    # of a size, so a plan or a pass that leaves one more on them each call
    # raises a run's peak RSS: zip(*generator) and np.tile did, by about
    # 0.15 MB on a desk run. Once the free lists have refilled, 200 chunks of
    # 4 dual steps left 1 block; 1,209 with that zip and those np.tile calls
    cfg, tasks, buffer = last_stage("desk", "replay_dual")
    pool = merge_replay(tasks[-1], buffer)
    rng = np.random.default_rng(0)
    params = init_params(cfg.topology, 0)
    layout = Layout(cfg.topology, [Head.LBS, Head.RRS], [0.5, 1.0], [list(pool.language_counts)] * 2)

    def chunk(steps=4):
        parts = []
        for _ in range(steps):
            batches = [draw_balanced(pool, cfg.batch_size, rng),
                       draw_random(pool, cfg.batch_size, rng, Provenance.RRS)]
            parts += [(batch.store, batch.rows) for batch in batches]
        plan = strategies.plan_steps(layout, parts)
        for k in range(steps):
            strategies.run_step(params, plan, k)

    gc.collect()  # a full collection empties the free lists
    for _ in range(50):
        chunk()
    blocks = sys.getallocatedblocks()
    for _ in range(200):
        chunk()
    assert sys.getallocatedblocks() - blocks <= 100


def test_gem_chunk_plan_peak_memory():
    # the heap of planning one chunk of paper-scale GEM steps at the last
    # stage (4 languages): 2 steps of a batch of 84 and three reference
    # batches of 32, at most 6,144 positions. Measured 145 kB
    cfg, tasks, buffer = last_stage("paper_scale", "gem")
    rng = np.random.default_rng(0)
    pool, groups, _ = strategies._step_groups(cfg.strategy, tasks[-1], buffer, None, tasks, cfg.batch_size, rng)
    weights = [weight for weight, *_ in groups]
    layout = Layout(cfg.topology, [Head.LBS] * len(groups), weights, [langs for *_, langs in groups])
    memory_batch = cfg.strategy.gem_memory_batch
    sizes = [cfg.batch_size] + [min(memory_batch, len(rows)) for rows in buffer.rows.values()]
    steps = strategies._CHUNK_POSITIONS // (int(pool.store.lengths.max()) * sum(sizes))
    assert steps == 2 and len(groups) == len(sizes)
    parts = []
    for _ in range(steps):
        parts += [(batch.store, batch.rows) for batch in (draw() for _, draw, *_ in groups)]
    assert [len(rows) for _, rows in parts] == sizes * steps
    strategies.plan_steps(layout, parts)  # checks the store's ids
    tracemalloc.start()
    try:
        strategies.plan_steps(layout, parts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 200_000


def active_set_oracle(g, g_mat, tol=1e-9):
    """Exhaustive KKT enumeration over all active-constraint subsets."""
    k = g_mat.shape[0]
    best = None
    for mask in itertools.product([0, 1], repeat=k):
        active = [i for i in range(k) if mask[i]]
        if not active:
            x = g.copy()
            lam_ok = True
        else:
            gs = g_mat[active]
            lam = -np.linalg.pinv(gs @ gs.T) @ (gs @ g)
            lam_ok = np.all(lam >= -tol)
            x = g + gs.T @ lam
        if lam_ok and np.all(g_mat @ x >= -1e-8):
            dist = np.linalg.norm(x - g)
            if best is None or dist < best[0]:
                best = (dist, x)
    return best[1]


class TestGemProject:
    def test_feasible_unchanged(self):
        g = np.array([1.0, 0.0])
        state = GemState(np.array([[1.0, 0.0]]), [0])
        np.testing.assert_array_equal(gem_project(g, state), g)

    def test_halfspace_closed_form(self):
        g = np.array([-1.0, 0.0])
        state = GemState(np.array([[1.0, 0.0]]), [0])
        np.testing.assert_allclose(gem_project(g, state), np.zeros(2), atol=1e-9)

    def test_single_constraint_general(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = rng.standard_normal(6)
            c = rng.standard_normal(6)
            state = GemState(c[None, :], [0])
            got = gem_project(g, state)
            dot = c @ g
            expected = g - (dot / (c @ c)) * c if dot < 0 else g
            np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_matches_active_set_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            k = int(rng.integers(1, 4))
            g = rng.standard_normal(dim)
            g_mat = rng.standard_normal((k, dim))
            state = GemState(g_mat, list(range(k)))
            got = gem_project(g, state)
            assert np.all(g_mat @ got >= -1e-8)
            expected = active_set_oracle(g, g_mat)
            np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_projection_is_nearest_feasible(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal(5)
        g_mat = rng.standard_normal((3, 5))
        state = GemState(g_mat, [0, 1, 2])
        proj = gem_project(g, state)
        d_proj = np.linalg.norm(proj - g)
        for _ in range(1000):
            h = rng.standard_normal(5) * 2
            if np.all(g_mat @ h >= 0):
                assert d_proj <= np.linalg.norm(h - g) + 1e-9

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_float_sweeps_are_the_numpy_scalar_sweeps(self, k):
        # the sweeps over Python floats give the bytes of the sweeps over
        # numpy scalars: random violated sets, one with a zero reference row
        # (h[i, i] = 0, skipped) and, from k = 2, an ill-conditioned one
        rng = np.random.default_rng(k)
        cases = []
        for _ in range(30):
            g_mat = rng.standard_normal((k, 12))
            cases.append((rng.standard_normal(12) - g_mat.sum(axis=0), g_mat))
        g_mat = rng.standard_normal((k, 12))
        g_mat[k // 2] = 0.0
        cases.append((-g_mat.sum(axis=0) - 1.0, g_mat))
        if k >= 2:
            g_mat = 0.01 * rng.standard_normal((k, 12))
            g_mat[:2, :2] = [[1.0, 0.1], [1.0, -0.1]]
            g = np.zeros(12)
            g[0] = -1.0
            cases.append((g, g_mat))
        sweeps = []
        for g, g_mat in cases:
            state = GemState(g_mat, list(range(k)))
            want, n = numpy_scalar_gem_project(g, state)
            assert gem_project(g, state).tobytes() == want.tobytes()
            sweeps.append(n)
        assert k == 1 or max(sweeps) > 50

    def test_unconverged_projection_raises(self):
        # three nearly parallel references of very different norms (found by
        # a random search): the sweeps stop with a constraint still violated
        g_mat = np.array([
            [-0.5323780985907972, 0.9540504653869403, 0.5395352552017997],
            [-16.410681536483263, 25.411945890786935, 16.24531273494009],
            [-326.96444482763235, 467.4990002691472, 328.1380362810731],
        ])
        g = np.array([18.914975088241395, -30.09727936647271, -19.3116529925641])
        state = GemState(g_mat, [0, 1, 2])
        for project in (gem_project, numpy_scalar_gem_project):
            with pytest.raises(NumericError, match="did not converge"):
                project(g, state)


def numpy_scalar_gem_project(g, gstate):
    """gem_project with its sweeps over numpy scalars, as it was before they
    ran over Python floats; returns the projection and the sweep count."""
    tol = 1e-9
    g_mat = gstate.reference_grads
    dots = g_mat @ g
    if np.all(dots >= -tol):
        return g.copy(), 0
    k = g_mat.shape[0]
    h = g_mat @ g_mat.T
    v = np.zeros(k)
    for sweeps in range(1, max(1000 * k * k, 1000) + 1):
        delta = 0.0
        for i in range(k):
            if h[i, i] <= 0:
                continue
            new_vi = max(0.0, v[i] - (h[i] @ v + dots[i]) / h[i, i])
            delta = max(delta, abs(new_vi - v[i]))
            v[i] = new_vi
        if delta < tol * 1e-3:
            break
    projected = g + g_mat.T @ v
    residual = float(np.min(g_mat @ projected))
    if residual < -tol * max(1.0, float(np.max(np.abs(dots)))) * 10:
        raise NumericError(f"GEM dual solver did not converge; residual {residual:.3e}")
    return projected, sweeps


class TestLrSchedule:
    def test_switch_at_epoch_60_of_100(self):
        assert lr_for_epoch(0.001, 59, 100, 0.6) == 0.001
        assert lr_for_epoch(0.001, 60, 100, 0.6) == 0.0005
        assert lr_for_epoch(0.001, 99, 100, 0.6) == 0.0005

    def test_small_epoch_count(self):
        values = [lr_for_epoch(0.01, e, 10, 0.6) for e in range(10)]
        assert values == [0.01] * 6 + [0.005] * 4


def tiny_stage_cfg(epochs=2):
    return StageConfig(epochs=epochs, batch_size=8, lr=0.01)


class TestTrainStage:
    def test_stage1_finetune_equals_replay_random(self):
        ds = small_task()
        results = {}
        for kind in (StrategyKind.FINE_TUNE, StrategyKind.REPLAY_RANDOM,
                     StrategyKind.EWC, StrategyKind.GEM):
            params = init_params(TINY, 0)
            res = train_stage(
                StrategyConfig(kind), params, ds, MemoryBuffer(10, 0), None,
                tiny_stage_cfg(), np.random.default_rng(5),
            )
            results[kind] = res.final_params.values
        base = results[StrategyKind.FINE_TUNE]
        for kind, values in results.items():
            np.testing.assert_array_equal(values, base, err_msg=str(kind))

    def test_dual_with_gamma1_beta0_forced_random_matches_replay_random(self):
        ds = small_task()
        a = train_stage(
            StrategyConfig(StrategyKind.REPLAY_RANDOM),
            init_params(TINY, 0), ds, None, None, tiny_stage_cfg(),
            np.random.default_rng(5),
        )
        b = train_stage(
            StrategyConfig(
                StrategyKind.REPLAY_DUAL, gamma=1.0, beta=0.0, force_lbs_random=True
            ),
            init_params(TINY, 0), ds, None, None, tiny_stage_cfg(),
            np.random.default_rng(5),
        )
        np.testing.assert_array_equal(a.final_params.values, b.final_params.values)

    def test_dual_gradient_additivity(self):
        # one dual step equals gamma * lbs-grad + beta * rrs-grad computed
        # independently with the same rng stream
        from lltts.data import ReplayDataset
        from lltts.model import AdamState, adam_step
        from lltts.samplers import draw_balanced, draw_random

        ds = small_task()
        params = init_params(TINY, 0)
        strategy = StrategyConfig(StrategyKind.REPLAY_DUAL, gamma=0.5, beta=1.0)
        cfg = StageConfig(epochs=1, batch_size=8, lr=0.01)
        res = train_stage(strategy, params, ds, None, None, cfg,
                          np.random.default_rng(7))

        pool = ReplayDataset(list(ds.train))
        rng = np.random.default_rng(7)
        check = params.copy()
        opt = AdamState.fresh(len(check.values), lr=0.01)
        for _ in range(max(1, len(pool) // 8)):
            b_lbs = draw_balanced(pool, 8, rng)
            _, g_lbs = loss_and_grad(check, b_lbs, Head.LBS)
            b_rrs = draw_random(pool, 8, rng, Provenance.RRS)
            _, g_rrs = loss_and_grad(check, b_rrs, Head.RRS)
            grad = 0.5 * g_lbs + 1.0 * g_rrs
            opt, check = adam_step(opt, check, grad)
        np.testing.assert_allclose(res.final_params.values, check.values, atol=1e-12)

    def test_input_params_not_mutated(self):
        ds = small_task()
        params = init_params(TINY, 0)
        before = params.values.copy()
        train_stage(
            StrategyConfig(StrategyKind.FINE_TUNE), params, ds, None, None,
            tiny_stage_cfg(), np.random.default_rng(0),
        )
        np.testing.assert_array_equal(params.values, before)

    def test_dev_curves_cover_seen_languages(self):
        ds0, ds1 = small_task(0), small_task(1)
        buf = MemoryBuffer(10, 0)
        buf.integrate_task(ds0)
        res = train_stage(
            StrategyConfig(StrategyKind.REPLAY_DUAL),
            init_params(TINY, 0), ds1, buf, None, tiny_stage_cfg(3),
            np.random.default_rng(1), seen_tasks=[ds0, ds1],
        )
        assert set(res.dev_curves) == {0, 1}
        assert all(len(v) == 3 for v in res.dev_curves.values())

    def test_nan_gradient_names_stage_epoch_and_step(self, monkeypatch):
        import lltts.strategies as strategies

        calls = []

        run_step = strategies.run_step

        def nan_at_step_3(params, plan, step):
            calls.append(None)
            losses, grads = run_step(params, plan, step)
            if len(calls) == 4:
                grads[0, 0] = np.nan
            return losses, grads

        monkeypatch.setattr(strategies, "run_step", nan_at_step_3)
        ds = small_task(language_id=1)
        # 60 samples at batch 8: 7 steps an epoch, so step 3 is in epoch 0
        with pytest.raises(NumericError, match="non-finite gradient") as exc:
            train_stage(
                StrategyConfig(StrategyKind.FINE_TUNE), init_params(TINY, 0), ds, None,
                None, tiny_stage_cfg(), np.random.default_rng(0),
            )
        assert "language 1 at epoch 0 step 3" in str(exc.value)
        assert isinstance(exc.value.__cause__, NumericError)

    def test_nan_loss_names_stage_epoch_and_step(self, monkeypatch):
        import lltts.strategies as strategies

        calls = []

        run_step = strategies.run_step

        def nan_loss_in_epoch_1(params, plan, step):
            calls.append(None)
            losses, grads = run_step(params, plan, step)
            if len(calls) == 9:
                losses[0] = LossBreakdown(np.nan, 0.0)
            return losses, grads

        monkeypatch.setattr(strategies, "run_step", nan_loss_in_epoch_1)
        message = "non-finite loss in the stage of language 1 at epoch 1 step 1"
        with pytest.raises(NumericError, match=message):
            train_stage(
                StrategyConfig(StrategyKind.FINE_TUNE), init_params(TINY, 0),
                small_task(language_id=1), None, None, tiny_stage_cfg(),
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize("kind", [StrategyKind.FINE_TUNE, StrategyKind.EWC, StrategyKind.JOINT])
    def test_buffer_does_not_reach_stage(self, kind):
        # run_sequence refills the buffer for every strategy; these three
        # train on the same bits, and leave the rng in the same state, with
        # no buffer and with one that holds a past task
        past, ds_k = small_task(language_id=0, seed=6), small_task(language_id=1)
        params = init_params(TINY, 0)
        fstate = ewc_consolidate(params, past, 10, np.random.default_rng(2))
        buffer = MemoryBuffer(10, 0)
        buffer.integrate_task(past)
        results = []
        for buf in (None, buffer):
            rng = np.random.default_rng(5)
            res = train_stage(StrategyConfig(kind), params, ds_k, buf, fstate,
                              tiny_stage_cfg(), rng, seen_tasks=[past, ds_k])
            results.append((res.final_params.values.tobytes(), res.dev_curves,
                             rng.bit_generator.state))
        assert results[0] == results[1]


class TestStepHook:
    def _groups(self, kind, buffer, fstate, seen=None):
        ds_k = small_task(language_id=1)
        return strategies._step_groups(StrategyConfig(kind), ds_k, buffer, fstate,
                                       seen or [ds_k], 8, np.random.default_rng(0))

    @pytest.mark.parametrize("kind", [StrategyKind.REPLAY_RANDOM, StrategyKind.REPLAY_WEIGHTED,
                                      StrategyKind.REPLAY_DUAL, StrategyKind.FINE_TUNE,
                                      StrategyKind.JOINT])
    def test_no_hook_with_buffer_and_fisher_state(self, kind):
        past = small_task(language_id=0, seed=6)
        buffer = MemoryBuffer(10, 0)
        buffer.integrate_task(past)
        params = init_params(TINY, 0)
        fstate = FisherState(np.ones_like(params.values), params.copy())
        assert self._groups(kind, buffer, fstate, [past, small_task(language_id=1)])[2] is None

    def test_no_ewc_hook_without_fisher_state(self):
        assert self._groups(StrategyKind.EWC, None, None)[2] is None

    @pytest.mark.parametrize("buffer", [None, MemoryBuffer(5, 0)], ids=["none", "empty"])
    def test_no_gem_hook_without_buffered_rows(self, buffer):
        pool, groups, hook = self._groups(StrategyKind.GEM, buffer, None)
        assert hook is None and len(groups) == 1

    def test_ewc_hook_adds_penalty(self):
        rng = np.random.default_rng(1)
        params = init_params(TINY, 0)
        fstate = FisherState(rng.uniform(0, 2, len(params.values)), init_params(TINY, 1))
        hook = self._groups(StrategyKind.EWC, None, fstate)[2]
        grad = rng.standard_normal(len(params.values))
        penalty, pgrad = ewc_penalty(params, fstate, StrategyConfig(StrategyKind.EWC).ewc_lambda)
        loss, got = hook(params, grad[None, :], 1.5, grad)
        assert loss == 1.5 + penalty and got.tobytes() == (grad + pgrad).tobytes()

    def test_gem_hook_languages_in_integration_order(self, monkeypatch):
        # integrated 2, 0, 3 into 2 slots: language 3's quota is 0, so the
        # reference languages are 2 then 0, not in ascending order
        topology = dataclasses.replace(TINY, num_languages=4)
        buffer = MemoryBuffer(2, 0)
        for lang in (2, 0, 3):
            buffer.integrate_task(small_task(language_id=lang, seed=5 + lang))
        assert buffer.counts() == {2: 1, 0: 1, 3: 0}
        pool, groups, hook = self._groups(StrategyKind.GEM, buffer, None)
        assert [weight for weight, *_ in groups] == [1.0, None, None]
        states = []
        monkeypatch.setattr(strategies, "gem_project", lambda g, gstate: states.append(gstate) or g)
        params = init_params(topology, 0)
        grads = np.random.default_rng(2).standard_normal((3, len(params.values)))
        loss, grad = hook(params, grads, 1.5, grads[0])
        assert loss == 1.5 and grad.tobytes() == grads[0].tobytes()
        assert states[0].languages == [2, 0]
        assert states[0].reference_grads.tobytes() == grads[1:].tobytes()


class TestRunSequence:
    def _config(self, kind, n_tasks=2, seed=0, buffer_capacity=10):
        from lltts.config import ExperimentConfig

        specs = [
            TaskSpec(language_id=i, seed=5, n_train=40, n_dev=6, n_test=4,
                     vocab_size=TINY.vocab_size, frame_dim=TINY.frame_dim,
                     seq_len_range=(2, 5))
            for i in range(n_tasks)
        ]
        topology = dataclasses.replace(TINY, num_languages=max(TINY.num_languages, n_tasks))
        return ExperimentConfig(
            task_specs=specs, topology=topology,
            strategy=StrategyConfig(kind),
            epochs_per_stage=2, batch_size=8, buffer_capacity=buffer_capacity, seed=seed,
        )

    def test_single_task_single_cell(self):
        from lltts.strategies import run_sequence

        result = run_sequence(self._config(StrategyKind.FINE_TUNE, n_tasks=1))
        assert len(result.reports) == 1
        assert list(result.reports[0].per_language) == [0]

    def test_staircase_shape_four_tasks(self):
        from lltts.strategies import run_sequence

        topo4 = TINY.__class__(**{**TINY.__dict__, "num_languages": 4})
        cfg = self._config(StrategyKind.REPLAY_DUAL, n_tasks=4)
        cfg = cfg.__class__(
            task_specs=cfg.task_specs, topology=topo4, strategy=cfg.strategy,
            epochs_per_stage=2, batch_size=8, buffer_capacity=10, seed=0,
        )
        result = run_sequence(cfg)
        cells = sum(len(r.per_language) for r in result.reports)
        assert cells == 1 + 2 + 3 + 4

    @pytest.mark.parametrize("kind", [StrategyKind.GEM, StrategyKind.REPLAY_DUAL])
    def test_fewer_buffer_slots_than_languages(self, kind):
        # at stage 2 language 1's slot is empty; GEM must build its
        # constraints from language 0 alone
        from lltts.strategies import run_sequence

        result = run_sequence(self._config(kind, n_tasks=3, buffer_capacity=1))
        assert [len(r.per_language) for r in result.reports] == [1, 2, 3]
        assert all(np.isfinite(v) for r in result.reports for v in r.per_language.values())

    def test_deterministic_rerun(self):
        from lltts.strategies import run_sequence

        a = run_sequence(self._config(StrategyKind.REPLAY_DUAL))
        b = run_sequence(self._config(StrategyKind.REPLAY_DUAL))
        for ra, rb in zip(a.reports, b.reports):
            assert ra.per_language == rb.per_language

    def test_stage_initialization_carries_over(self):
        # stage k starts from the exact parameters stage k-1 ended with
        from lltts.strategies import run_sequence

        captured = {}

        def hook(state):
            captured[state.stage] = state.params.values.copy()

        cfg = self._config(StrategyKind.FINE_TUNE)
        run_sequence(cfg, checkpoint_hook=hook)

        # replay stage 1 manually from stage 0's checkpointed params
        from lltts.model import ParameterSet

        tasks = [generate_task(s) for s in cfg.task_specs]
        params = ParameterSet(captured[0].copy(), TINY)
        rng = np.random.default_rng([cfg.seed, 1, 0x7EA1])
        res = train_stage(
            cfg.strategy, params, tasks[1], MemoryBuffer(10, 0), None,
            StageConfig(epochs=2, batch_size=8, lr=cfg.lr,
                        lr_decay_epoch_fraction=cfg.lr_decay_epoch_fraction),
            rng, seen_tasks=tasks,
        )
        np.testing.assert_array_equal(res.final_params.values, captured[1])

    @pytest.mark.parametrize("kind", ["replay_dual", "gem"])
    def test_desk_run_peak_memory(self, kind):
        # a run's heap is the sample store plus about one training step's
        # activations (the generator's chunks stay below that). Out-of-place
        # generation with 4,096-token chunks peaked 983 kB above the store
        from lltts.strategies import run_sequence

        text = (CONFIGS / "desk.ini").read_text()
        text = text.replace("epochs_per_stage = 20", "epochs_per_stage = 2")
        cfg = parse_config(text.replace("kind = replay_dual", f"kind = {kind}"))
        assert cfg.epochs_per_stage == 2 and cfg.strategy.kind.value == kind
        store = generate_tasks(cfg.task_specs)[0].store
        tracemalloc.start()
        try:
            run_sequence(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - store_nbytes(store) <= 600_000
