"""Mel-cepstral distortion, stage evaluation, curves, and the report table."""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .model import Head, _predict
from .samplers import Batch, Provenance

MCD_CONST = 10.0 / math.log(10.0)


def mcd(ref_frames: np.ndarray, hyp_frames: np.ndarray) -> float:
    """(10/ln10) * mean_t sqrt(2 * sum_d (c_d - c'_d)^2), all coefficients."""
    ref = np.asarray(ref_frames)
    hyp = np.asarray(hyp_frames)
    if ref.shape != hyp.shape:
        raise UsageError(f"shape mismatch {ref.shape} vs {hyp.shape}")
    diff = ref - hyp
    per_frame = np.sqrt(2.0 * np.sum(diff**2, axis=-1))
    return float(MCD_CONST * per_frame.mean())


@dataclass
class McdReport:
    stage_language: int
    per_language: dict

    @property
    def average(self) -> float:
        # shadows the "average" that older checkpoints pickle in __dict__
        return float(np.mean(list(self.per_language.values())))


def sample_mcds(params, samples) -> np.ndarray:
    """MCD of the LBS branch's post-net output for each sample, from one
    batched forward pass; each value equals `mcd` on that sample.

    `samples` is a Batch, or a list of samples, which is packed into one.
    """
    batch = samples if isinstance(samples, Batch) else Batch(samples, Provenance.LBS)
    _, y_post, keys, pos, lengths = _predict(params, batch, Head.LBS)
    targets = batch.store.frames.take(pos, axis=0)
    per_frame = np.sqrt(2.0 * np.sum((targets - y_post.take(keys, axis=0)) ** 2, axis=-1))
    # the samples of one length at once: a sum over each sample's own frames
    # adds them as `mcd`'s mean does (np.add.reduceat groups them differently)
    starts = np.cumsum(lengths) - lengths
    means = np.empty(len(lengths))
    for t in np.flatnonzero(np.bincount(lengths)).tolist():
        ids = np.flatnonzero(lengths == t)
        means[ids] = per_frame[starts[ids, None] + np.arange(t)].sum(axis=1) / t
    return MCD_CONST * means


def mean_mcd(params, samples) -> float:
    """Mean MCD of the LBS branch's post-net output over a Batch or a list of samples."""
    return float(np.mean(sample_mcds(params, samples)))


def split_mcd(params, ds, split: str) -> float:
    """Mean MCD over one split of a TaskDataset, gathered from its store rows."""
    return mean_mcd(params, Batch.of_rows(ds.store, ds.rows(split), Provenance.LBS))


def stage_eval(params, test_sets) -> McdReport:
    """Mean test-split MCD per seen language, plus the cross-language average."""
    if not test_sets:
        raise UsageError("no test sets given")
    per_language = {}
    for ds in test_sets:
        if not len(ds.rows("test")):
            raise UsageError(f"language {ds.language_id} has an empty test split")
        per_language[ds.language_id] = split_mcd(params, ds, "test")
    return McdReport(test_sets[-1].language_id, per_language)


def mcdr(mcd_finetune: float, mcd_method: float) -> float:
    """Percent MCD reduction relative to the fine-tune lower bound."""
    if mcd_finetune <= 0:
        raise UsageError("baseline MCD must be positive")
    return 100.0 * (mcd_finetune - mcd_method) / mcd_finetune


def smooth_curve(series, factor: float):
    """Exponential moving average, s_0 = x_0."""
    if not 0 <= factor < 1:
        raise UsageError("smoothing factor must be in [0, 1)")
    out = []
    prev = None
    for x in series:
        prev = x if prev is None else factor * prev + (1 - factor) * x
        out.append(prev)
    return out


def render_table(results) -> str:
    """CSV: one row per method, staircase columns per stage with Avg and MCDR.

    MCDR is computed against the FINE_TUNE row; without that baseline the
    MCDR cells read N/A (as does the fine-tune row itself).
    """
    results = list(results)
    if not results:
        raise UsageError("no results to render")
    task_order = results[0].task_order
    for r in results:
        if r.task_order != task_order:
            raise UsageError("results do not share a task order")
    baseline = next((r for r in results if r.strategy == "FINE_TUNE"), None)

    header = ["method"]
    for k, lang in enumerate(task_order):
        seen = task_order[: k + 1]
        header.extend(f"stage{lang}:L{sl}" for sl in seen)
        header.append(f"stage{lang}:Avg")
        header.append(f"stage{lang}:MCDR")

    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for r in results:
        row = [r.strategy]
        for k, report in enumerate(r.reports):
            seen = task_order[: k + 1]
            for sl in seen:
                row.append(f"{report.per_language[sl]:.2f}")
            row.append(f"{report.average:.2f}")
            if baseline is None or r is baseline:
                row.append("N/A")
            else:
                row.append(f"{mcdr(baseline.reports[k].average, report.average):.2f}%")
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def render_curves(stage_curves, epochs_per_stage: int) -> str:
    """CSV with columns epoch, language, raw, smoothed (EMA factor 0.5).

    `stage_curves` holds one language -> per-epoch dev MCD dict per stage. A
    language's curve runs on across stages; a language first evaluated in
    stage k starts at global epoch k * epochs_per_stage.
    """
    merged: dict[int, list] = {}
    first_epoch: dict[int, int] = {}
    for stage, curves in enumerate(stage_curves):
        for lang, vals in curves.items():
            first_epoch.setdefault(lang, stage * epochs_per_stage)
            merged.setdefault(lang, []).extend(vals)
    buf = io.StringIO()
    buf.write("epoch,language,raw,smoothed\n")
    for lang in sorted(merged):
        raw = merged[lang]
        for epoch, (x, s) in enumerate(zip(raw, smooth_curve(raw, 0.5)), start=first_epoch[lang]):
            buf.write(f"{epoch},{lang},{x!r},{s!r}\n")
    return buf.getvalue()
