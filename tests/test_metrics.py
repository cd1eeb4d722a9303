import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lltts.data import Sample, TaskDataset
from lltts.errors import UsageError
from lltts.metrics import (
    McdReport,
    mcd,
    mcdr,
    mean_mcd,
    render_curves,
    render_table,
    sample_mcds,
    smooth_curve,
    stage_eval,
)
from lltts.model import Head, forward, init_params
from lltts.samplers import Batch, Provenance
from lltts.strategies import ExperimentResult

from conftest import TINY


def reference_mcd(ref, hyp):
    """Independent straight-line reimplementation of the MCD formula."""
    total = 0.0
    for r_row, h_row in zip(ref, hyp):
        acc = sum((a - b) ** 2 for a, b in zip(r_row, h_row))
        total += math.sqrt(2.0 * acc)
    return (10.0 / math.log(10.0)) * total / len(ref)


class TestMcd:
    def test_identical_is_zero(self):
        x = np.random.default_rng(0).standard_normal((4, 3))
        assert mcd(x, x) == 0.0

    def test_single_unit_difference(self):
        ref = np.zeros((1, 5))
        hyp = np.zeros((1, 5))
        hyp[0, 0] = 1.0
        assert mcd(ref, hyp) == pytest.approx((10 / math.log(10)) * math.sqrt(2), abs=1e-9)

    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        ref = rng.standard_normal((5, 4))
        hyp = rng.standard_normal((5, 4))
        assert mcd(ref, hyp) == pytest.approx(reference_mcd(ref, hyp), abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            mcd(np.zeros((2, 3)), np.zeros((3, 3)))

    @settings(max_examples=50, deadline=None)
    @given(
        a=arrays(np.float64, (3, 2), elements=st.floats(-10, 10, width=16)),
        b=arrays(np.float64, (3, 2), elements=st.floats(-10, 10, width=16)),
    )
    def test_symmetric_and_nonnegative(self, a, b):
        assert mcd(a, b) == pytest.approx(mcd(b, a))
        assert mcd(a, b) >= 0.0
        if mcd(a, b) == 0.0:
            np.testing.assert_array_equal(a, b)

    def test_linear_in_difference_scale(self):
        ref = np.zeros((1, 4))
        d = np.array([[0.3, -1.0, 0.2, 0.5]])
        base = mcd(ref, d)
        for lam in (0.5, 2.0, 3.5):
            assert mcd(ref, lam * d) == pytest.approx(abs(lam) * base)


class TestStageEval:
    def _dataset(self, sample):
        return TaskDataset(sample.language_id, [sample], [sample], [sample])

    def test_single_sample(self, rng):
        params = init_params(TINY, 0)
        from lltts.model import infer

        # one sample, then a split of unequal lengths that the batched
        # evaluation has to pad
        for lengths in ((3,), (3, 1, 5, 2)):
            split = []
            for t in lengths:
                tokens = rng.integers(0, TINY.vocab_size, size=t)
                split.append(Sample(0, tokens, rng.standard_normal((t, TINY.frame_dim))))
            report = stage_eval(params, [TaskDataset(0, split, split, split)])
            expected = np.mean([mcd(s.target_frames, infer(params, s)) for s in split])
            assert report.per_language[0] == pytest.approx(expected, rel=1e-12)
            assert report.average == report.per_language[0]

    def test_sample_mcds_equal_mcd_bitwise(self, rng):
        # lengths past numpy's 8-way unrolled and 128-element blocked sums,
        # so the per-frame and per-sample sums are grouped as in `mcd`
        topo = dataclasses.replace(TINY, frame_dim=10)
        params = init_params(topo, 0)
        split = []
        for t in (150, 1, 3, 8, *range(9, 60, 5)):
            tokens = rng.integers(0, topo.vocab_size, size=t)
            split.append(Sample(t % 2, tokens, rng.standard_normal((t, topo.frame_dim))))
        _, post = forward(params, Batch(split, Provenance.LBS), Head.LBS)
        expected = np.array([mcd(s.target_frames, out) for s, out in zip(split, post)])
        got = sample_mcds(params, split)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert mean_mcd(params, split) == float(np.mean(expected))

    def test_perfect_model_zero(self, rng):
        params = init_params(TINY, 0)
        params.values[:] = 0.0
        tokens = rng.integers(0, TINY.vocab_size, size=3)
        s = Sample(0, tokens, np.zeros((3, TINY.frame_dim)))
        report = stage_eval(params, [self._dataset(s)])
        assert report.average == 0.0

    def test_average_recomputed_by_hand(self):
        report = McdReport(2, {0: 4.0, 1: 6.0, 2: 5.0})
        assert report.average == pytest.approx((4.0 + 6.0 + 5.0) / 3)

    def test_average_is_not_an_init_field(self):
        with pytest.raises(TypeError):
            McdReport(0, {0: 4.0}, 9.9)


class TestMcdr:
    def test_table_joint_nl(self):
        assert mcdr(5.97, 3.79) == pytest.approx(36.52, abs=0.005)

    def test_table_dual_ja(self):
        assert mcdr(7.04, 4.02) == pytest.approx(42.90, abs=0.005)

    def test_equal_is_zero(self):
        assert mcdr(3.3, 3.3) == 0.0

    def test_nonpositive_baseline(self):
        with pytest.raises(UsageError):
            mcdr(0.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        b=st.floats(0.1, 100),
        m1=st.floats(0.0, 100),
        m2=st.floats(0.0, 100),
    )
    def test_strictly_decreasing_in_method(self, b, m1, m2):
        if m1 <= m2:
            assert mcdr(b, m1) >= mcdr(b, m2)
        # a separation below float resolution cannot show as a strict drop
        if m2 - m1 > 1e-9 * b:
            assert mcdr(b, m1) > mcdr(b, m2)


class TestSmoothCurve:
    def test_factor_zero_identity(self):
        series = [3.0, 1.0, 4.0, 1.5]
        assert smooth_curve(series, 0.0) == series

    def test_constant_unchanged(self):
        assert smooth_curve([2.0] * 5, 0.7) == [2.0] * 5

    def test_hand_example(self):
        assert smooth_curve([0.0, 1.0], 0.5) == [0.0, 0.5]

    def test_bad_factor(self):
        with pytest.raises(UsageError):
            smooth_curve([1.0], 1.0)


class TestRenderCurves:
    def test_numbered_by_global_epoch_and_smoothed_across_stages(self):
        # two stages of E = 2 epochs; language 1 arrives in stage 1, so it
        # starts at epoch 2, and language 0's EMA runs on into stage 1
        stage_curves = [{0: [4.0, 2.0]}, {0: [5.0, 1.0], 1: [6.0, 4.0]}]
        assert render_curves(stage_curves, 2) == (
            "epoch,language,raw,smoothed\n"
            "0,0,4.0,4.0\n"
            "1,0,2.0,3.0\n"
            "2,0,5.0,4.0\n"
            "3,0,1.0,2.5\n"
            "2,1,6.0,6.0\n"
            "3,1,4.0,5.0\n"
        )


def _result(strategy, reports, order):
    return ExperimentResult(strategy, order, reports, [])


class TestRenderTable:
    def test_staircase_shape(self):
        reports = [McdReport(0, {0: 4.0}), McdReport(1, {0: 5.0, 1: 3.0})]
        csv = render_table([_result("REPLAY_DUAL", reports, [0, 1])])
        lines = csv.strip().split("\n")
        assert len(lines) == 2
        # 1 method col + stage0 (1 MCD + Avg + MCDR) + stage1 (2 + Avg + MCDR)
        assert len(lines[1].split(",")) == 1 + 3 + 4

    def test_mcdr_against_finetune(self):
        base = [McdReport(0, {0: 4.11}), McdReport(1, {0: 7.53, 1: 4.41})]
        joint = [McdReport(0, {0: 3.42}), McdReport(1, {0: 3.42, 1: 4.16})]
        csv = render_table(
            [_result("FINE_TUNE", base, [0, 1]), _result("JOINT", joint, [0, 1])]
        )
        rows = {line.split(",")[0]: line.split(",") for line in csv.strip().split("\n")[1:]}
        assert rows["FINE_TUNE"][-1] == "N/A"
        assert rows["JOINT"][-1] == "36.52%"

    def test_missing_baseline_gives_na(self):
        reports = [McdReport(0, {0: 4.0})]
        csv = render_table([_result("JOINT", reports, [0])])
        assert csv.strip().split("\n")[1].split(",")[-1] == "N/A"

    def test_round_trip_parse(self):
        reports = [McdReport(0, {0: 4.1234}), McdReport(1, {0: 5.5555, 1: 3.0})]
        csv = render_table([_result("FINE_TUNE", reports, [0, 1])])
        header, row = csv.strip().split("\n")
        cells = row.split(",")[1:]
        expected = ["4.12", "5.56", "3.00"]
        numeric = [c for c in cells if c not in ("N/A",) and not c.endswith("%")]
        # Avg cells interleave with the per-language cells
        assert numeric == ["4.12", "4.12", "5.56", "3.00", "4.28"]
        for c in numeric:
            float(c)

    def test_mismatched_task_orders_rejected(self):
        a = _result("JOINT", [McdReport(0, {0: 4.0})], [0])
        b = _result("EWC", [McdReport(1, {1: 4.0})], [1])
        with pytest.raises(UsageError):
            render_table([a, b])
