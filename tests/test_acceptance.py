"""Acceptance suite: one test per criterion, one pass/fail line each."""
import itertools

import numpy as np
import pytest
from scipy import stats

import lltts as L
from lltts.buffer import MemoryBuffer
from lltts.config import ExperimentConfig
from lltts.data import ReplayDataset, Sample, TaskSpec, generate_task
from lltts.metrics import mcdr
from lltts.model import Head, ModelTopology, finite_diff_check, init_params
from lltts.samplers import Batch, Provenance, build_weight_table, draw_random, draw_weighted
from lltts.strategies import (
    GemState,
    StrategyConfig,
    StrategyKind,
    gem_project,
    run_sequence,
    train_stage,
)

from conftest import TINY, random_batch
from test_strategies import active_set_oracle

# desk profile: values fixed after pilot runs (see configs/desk.ini)
DESK_TOPOLOGY = ModelTopology(
    vocab_size=40, embed_dim=8, encoder_hidden=12, trunk_dim=8,
    frame_dim=8, postnet_hidden=8, num_languages=3,
)
DESK_EPOCHS = 20
DESK_BATCH = 32
DESK_N_TRAIN = 1500
DESK_BUFFER = 120
DESK_SEEDS = (0, 1, 2)
DESK_STRATEGIES = (
    StrategyKind.FINE_TUNE,
    StrategyKind.JOINT,
    StrategyKind.REPLAY_RANDOM,
    StrategyKind.REPLAY_WEIGHTED,
    StrategyKind.REPLAY_DUAL,
    StrategyKind.EWC,
    StrategyKind.GEM,
)


# pass/fail lines, echoed in the terminal summary by conftest
_LINES = []


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" — {detail}" if detail else "")
    _LINES.append(line)
    print(line)
    assert ok, f"{name}: {detail}"


def desk_config(kind, seed):
    specs = [
        TaskSpec(language_id=i, seed=11, n_train=DESK_N_TRAIN, n_dev=40, n_test=20,
                 vocab_size=DESK_TOPOLOGY.vocab_size, frame_dim=DESK_TOPOLOGY.frame_dim)
        for i in range(3)
    ]
    return ExperimentConfig(
        task_specs=specs, topology=DESK_TOPOLOGY,
        strategy=StrategyConfig(kind),
        epochs_per_stage=DESK_EPOCHS, batch_size=DESK_BATCH,
        buffer_capacity=DESK_BUFFER, seed=seed,
    )


@pytest.fixture(scope="module")
def desk_runs():
    """Final-stage reports for every (strategy, seed) of the desk profile."""
    runs = {}
    for kind in DESK_STRATEGIES:
        for seed in DESK_SEEDS:
            result = run_sequence(desk_config(kind, seed))
            runs[(kind, seed)] = result.reports[-1]
    return runs


class TestCriterion1Mcdr:
    def test_mcdr_reproduces_published_table(self):
        checks = [
            ("Joint at NL stage", 5.97, 3.79, 36.52, 0.005),
            ("Dual at JA stage", 7.04, 4.02, 42.90, 0.005),
            ("Dual at NL stage", 5.97, 4.16, 30.37, 0.10),
        ]
        worst = 0.0
        for _, base, method, printed, tol in checks:
            err = abs(mcdr(base, method) - printed)
            worst = max(worst, err - tol + 0.10)  # normalized headroom
            assert err <= tol + 1e-12
        _report("criterion 1: MCDR reproduction", True,
                "all three published cells within tolerance")


class TestCriterion2Gradients:
    def test_100_random_instances(self):
        rng = np.random.default_rng(20240817)
        worst = 0.0
        for _ in range(100):
            params = init_params(TINY, int(rng.integers(0, 2**31)))
            params.values[:] += 0.1 * rng.standard_normal(len(params.values))
            batch = random_batch(rng, n=int(rng.integers(1, 4)))
            head = Head.LBS if rng.integers(2) else Head.RRS
            worst = max(worst, finite_diff_check(params, batch, head, 1e-5))
        _report("criterion 2: gradient correctness", worst < 1e-4,
                f"max finite-difference relative error {worst:.2e}")


class TestCriterion3GemProjection:
    def test_500_random_instances(self):
        rng = np.random.default_rng(7)
        worst_err = 0.0
        worst_violation = 0.0
        for _ in range(500):
            dim = int(rng.integers(2, 21))
            k = int(rng.integers(1, 4))
            g = rng.standard_normal(dim)
            g_mat = rng.standard_normal((k, dim))
            state = GemState(g_mat, list(range(k)))
            got = gem_project(g, state)
            if np.all(g_mat @ g >= -1e-9):
                np.testing.assert_array_equal(got, g)
            worst_violation = max(worst_violation, float(-np.min(g_mat @ got)))
            expected = active_set_oracle(g, g_mat)
            worst_err = max(worst_err, float(np.max(np.abs(got - expected))))
        ok = worst_violation <= 1e-9 and worst_err <= 1e-6
        _report("criterion 3: GEM projection", ok,
                f"max constraint violation {worst_violation:.2e}, "
                f"max oracle deviation {worst_err:.2e}")


class TestCriterion4SamplerStatistics:
    @staticmethod
    def _dataset(counts):
        samples = []
        for lang, n in counts.items():
            samples.extend(
                Sample(lang, np.array([0]), np.zeros((1, 2))) for _ in range(n)
            )
        return ReplayDataset(samples)

    def test_weighted_marginals(self):
        draws = 100_000
        for counts in ({0: 3000, 1: 300}, {0: 3000, 1: 100, 2: 100}):
            ds = self._dataset(counts)
            table = build_weight_table(ds)
            batch = draw_weighted(table, ds, draws, np.random.default_rng(1))
            k = len(counts)
            observed = np.array([batch.language_histogram.get(l, 0) for l in counts])
            fracs = observed / draws
            assert np.all(np.abs(fracs - 1 / k) < 0.01), fracs
            _, p = stats.chisquare(observed)
            assert p > 0.01, p
        _report("criterion 4a: weighted sampler marginal 1/K", True)

    def test_random_matches_proportions(self):
        counts = {0: 3000, 1: 300}
        ds = self._dataset(counts)
        batch = draw_random(ds, 100_000, np.random.default_rng(2))
        frac = batch.language_histogram[1] / len(batch)
        ok = abs(frac - 300 / 3300) < 0.005
        _report("criterion 4b: random sampler proportions", ok,
                f"minority fraction {frac:.4f} vs {300/3300:.4f}")


class TestCriterion5BufferProtocol:
    def test_randomized_sequences(self):
        rng = np.random.default_rng(99)
        tasks = {
            lang: generate_task(TaskSpec(language_id=lang, seed=4, n_train=80,
                                         n_dev=2, n_test=2, vocab_size=8, frame_dim=2))
            for lang in range(9)
        }
        for trial in range(60):
            n_langs = int(rng.integers(1, 10))
            capacity = int(rng.integers(n_langs, 60))
            buf = MemoryBuffer(capacity, rng_seed=trial)
            order = list(rng.permutation(9)[:n_langs])
            for lang in order:
                buf.integrate_task(tasks[int(lang)])
                counts = list(buf.counts().values())
                assert buf.total() <= capacity
                assert max(counts) - min(counts) <= 1
        _report("criterion 5a: capacity and balance invariants", True)

    def test_eviction_uniformity(self):
        # 10^4 trials of evicting 150 of 300
        trials = 10_000
        ds0 = generate_task(TaskSpec(language_id=0, seed=4, n_train=300, n_dev=2,
                                     n_test=2, vocab_size=8, frame_dim=2))
        ds1 = generate_task(TaskSpec(language_id=1, seed=4, n_train=300, n_dev=2,
                                     n_test=2, vocab_size=8, frame_dim=2))
        survival = np.zeros(300)
        index_of = {id(s): i for i, s in enumerate(ds0.train)}
        for trial in range(trials):
            buf = MemoryBuffer(300, rng_seed=trial)
            buf.integrate_task(ds0)
            buf.integrate_task(ds1)
            for s in buf.slots[0]:
                survival[index_of[id(s)]] += 1
        freq = survival / trials
        spread = float(np.max(np.abs(freq - 0.5)))
        _report("criterion 5b: eviction uniformity", spread < 0.02,
                f"max |survival - 0.5| = {spread:.4f}")


class TestCriterion6ForgettingDirections:
    def test_dual_beats_finetune_by_25pct(self, desk_runs):
        ok = True
        details = []
        for seed in DESK_SEEDS:
            ft = desk_runs[(StrategyKind.FINE_TUNE, seed)].average
            dual = desk_runs[(StrategyKind.REPLAY_DUAL, seed)].average
            reduction = mcdr(ft, dual)
            details.append(f"seed {seed}: {reduction:.1f}%")
            ok = ok and reduction >= 25.0
        _report("criterion 6a: dual >= 25% below fine-tune", ok, ", ".join(details))

    def test_dual_at_most_random(self, desk_runs):
        wins = sum(
            desk_runs[(StrategyKind.REPLAY_DUAL, s)].average
            <= desk_runs[(StrategyKind.REPLAY_RANDOM, s)].average
            for s in DESK_SEEDS
        )
        _report("criterion 6b: dual <= random in >= 2/3 seeds", wins >= 2,
                f"{wins}/3 seeds")

    def test_weighted_worse_on_current_language(self, desk_runs):
        final_lang = 2
        wins = sum(
            desk_runs[(StrategyKind.REPLAY_WEIGHTED, s)].per_language[final_lang]
            >= desk_runs[(StrategyKind.REPLAY_DUAL, s)].per_language[final_lang]
            for s in DESK_SEEDS
        )
        _report("criterion 6c: weighted current-language MCD >= dual in >= 2/3 seeds",
                wins >= 2, f"{wins}/3 seeds")

    def test_ewc_at_most_finetune(self, desk_runs):
        wins = sum(
            desk_runs[(StrategyKind.EWC, s)].average
            <= desk_runs[(StrategyKind.FINE_TUNE, s)].average
            for s in DESK_SEEDS
        )
        _report("criterion 6d: EWC <= fine-tune in >= 2/3 seeds", wins >= 2,
                f"{wins}/3 seeds")

    def test_joint_is_minimum_everywhere(self, desk_runs):
        ok = True
        for seed in DESK_SEEDS:
            joint = desk_runs[(StrategyKind.JOINT, seed)].average
            others = [
                desk_runs[(k, seed)].average
                for k in DESK_STRATEGIES
                if k is not StrategyKind.JOINT
            ]
            ok = ok and all(joint <= o for o in others)
        _report("criterion 6e: joint minimum in all seeds", ok)

    def test_gem_at_most_finetune(self, desk_runs):
        wins = sum(
            desk_runs[(StrategyKind.GEM, s)].average
            <= desk_runs[(StrategyKind.FINE_TUNE, s)].average
            for s in DESK_SEEDS
        )
        _report("criterion 6f: GEM <= fine-tune in >= 2/3 seeds", wins >= 2,
                f"{wins}/3 seeds")


class TestCriterion7DualLossEquivalences:
    def test_forced_random_dual_matches_replay_random_bitwise(self):
        from lltts.strategies import StageConfig

        spec = TaskSpec(language_id=0, seed=5, n_train=60, n_dev=6, n_test=4,
                        vocab_size=TINY.vocab_size, frame_dim=TINY.frame_dim,
                        seq_len_range=(2, 5))
        ds = generate_task(spec)
        cfg = StageConfig(epochs=3, batch_size=8, lr=0.01)
        a = train_stage(StrategyConfig(StrategyKind.REPLAY_RANDOM),
                        init_params(TINY, 0), ds, None, None, cfg,
                        np.random.default_rng(5))
        b = train_stage(
            StrategyConfig(StrategyKind.REPLAY_DUAL, gamma=1.0, beta=0.0,
                           force_lbs_random=True),
            init_params(TINY, 0), ds, None, None, cfg, np.random.default_rng(5))
        identical = np.array_equal(a.final_params.values, b.final_params.values)
        _report("criterion 7a: forced-random dual == replay-random bitwise", identical)

    def test_dual_loss_arithmetic(self):
        from lltts.model import LossBreakdown
        from lltts.strategies import dual_loss

        value = dual_loss(LossBreakdown(1.0, 1.0), LossBreakdown(0.5, 0.5), 0.5, 1.0)
        _report("criterion 7b: dual_loss(2.0, 1.0, 0.5, 1.0) == 2.0", value == 2.0)


class TestCriterion8DeterminismAndResume:
    def test_byte_identical_reports_across_resume(self, tmp_path):
        from lltts.cli import cli

        text = f"""
[experiment]
epochs_per_stage = 2
batch_size = 8
buffer_capacity = 10
seed = 3
output_dir = {tmp_path / 'run'}

[topology]
vocab_size = 8
embed_dim = 3
encoder_hidden = 4
trunk_dim = 4
frame_dim = 3
postnet_hidden = 3

[strategy]
kind = replay_dual

[task 0]
seed = 1
n_train = 30
n_dev = 4
n_test = 3
seq_len_min = 2
seq_len_max = 4

[task 1]
seed = 2
n_train = 30
n_dev = 4
n_test = 3
seq_len_min = 2
seq_len_max = 4
"""
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        out = tmp_path / "run"
        assert cli(["train", "--config", str(cfg)]) == 0
        first_report = (out / "report.csv").read_bytes()
        first_result = (out / "result.json").read_bytes()

        assert cli(["train", "--config", str(cfg)]) == 0
        rerun_ok = (out / "report.csv").read_bytes() == first_report

        # kill-and-resume at the stage boundary
        import os

        os.unlink(out / "checkpoints" / "stage1.ckpt")
        os.unlink(out / "report.csv")
        os.unlink(out / "result.json")
        assert cli(["train", "--config", str(cfg), "--resume"]) == 0
        resume_ok = (
            (out / "report.csv").read_bytes() == first_report
            and (out / "result.json").read_bytes() == first_result
        )
        _report("criterion 8: determinism and resume", rerun_ok and resume_ok,
                f"rerun identical: {rerun_ok}, resume identical: {resume_ok}")
