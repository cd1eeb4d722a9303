"""Span tracing of an lltts run, wrapped from outside the package.

`Tracer.install` rebinds the functions each lltts module exposes to its
callers to timing wrappers. A function imported by name into another module
(`from .model import loss_and_grad`) has one binding per importing module,
so every lltts module attribute that is the original object is rebound.
Spans are kept in memory and written out once, at the end of the run.
`summarize` turns a span file into the per-layer metrics.

A target that a later refactor removes or renames is reported as absent;
its metrics then read 0 and nothing crashes.
"""
from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time

import numpy as np


def _batch_rows(args, out):
    return len(out)


def _arg_rows(args, out):
    return len(args[1])


def _projected(args, out):
    return 0 if np.array_equal(out, args[0]) else 1


def _file_bytes(args, out):
    return os.path.getsize(args[1])


# (span name, module, attribute path, None or (counter, amount of one call))
SPAN_TARGETS = (
    ("cli.cmd_train", "lltts.cli", "cmd_train", None),
    ("config.parse_config", "lltts.config", "parse_config", None),
    ("config.save_checkpoint", "lltts.config", "save_checkpoint", ("config.checkpoint_bytes", _file_bytes)),
    ("data.generate_task", "lltts.data", "generate_task", None),
    ("data.by_language", "lltts.data", "ReplayDataset.by_language", None),
    ("samplers.draw_balanced", "lltts.samplers", "draw_balanced", ("samplers.samples_drawn", _batch_rows)),
    ("samplers.draw_random", "lltts.samplers", "draw_random", ("samplers.samples_drawn", _batch_rows)),
    ("samplers.draw_weighted", "lltts.samplers", "draw_weighted", ("samplers.samples_drawn", _batch_rows)),
    ("model.pad", "lltts.model", "_pad_batch", ("model.pad.rows", _arg_rows)),
    ("model.forward_padded", "lltts.model", "_forward_padded", None),
    ("model.loss_and_grad", "lltts.model", "loss_and_grad", ("model.loss_and_grad.rows", _arg_rows)),
    ("model.adam_step", "lltts.model", "adam_step", None),
    ("strategies.train_stage", "lltts.strategies", "train_stage", None),
    ("strategies.gem_reference_grads", "lltts.strategies", "gem_reference_grads", None),
    ("strategies.gem_project", "lltts.strategies", "gem_project", ("strategies.gem_project.projected", _projected)),
    ("metrics.dev_eval", "lltts.strategies", "_dev_mcd", None),
    ("metrics.stage_eval", "lltts.metrics", "stage_eval", None),
    ("buffer.integrate_task", "lltts.buffer", "MemoryBuffer.integrate_task", None),
    ("buffer.snapshot", "lltts.buffer", "MemoryBuffer.snapshot", None),
)

# Called per sample, so they are counted without a span to keep overhead low.
COUNT_TARGETS = (
    ("model.infer.calls", "lltts.model", "infer"),
    ("metrics.mcd.calls", "lltts.metrics", "mcd"),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) or None when the target no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


def _rebind(owner, attr: str, original, wrapper) -> None:
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    # the same function object under its name in every other lltts module
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "lltts" or name.startswith("lltts.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


class Tracer:
    """In-memory span recorder for one run (single-threaded)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list = []  # [name index, start, end, parent index]
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for span_name, module_name, path, counter in SPAN_TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(span_name)
                continue
            owner, attr, original = found
            _rebind(owner, attr, original, self._span_wrapper(span_name, original, counter))
        for counter_name, module_name, path in COUNT_TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(counter_name)
                continue
            owner, attr, original = found
            _rebind(owner, attr, original, self._count_wrapper(counter_name, original))

    def _span_wrapper(self, span_name, fn, counter):
        name_index = len(self.names)
        self.names.append(span_name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        if counter is not None:
            counters.setdefault(counter[0], 0)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name_index, start, end, parent]
            if counter is not None:
                counters[counter[0]] += counter[1](args, out)
            return out

        return wrapper

    def _count_wrapper(self, counter_name, fn):
        counters = self.counters
        counters.setdefault(counter_name, 0)

        def wrapper(*args, **kwargs):
            counters[counter_name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path: str) -> None:
        """Spans as rows of [name, start, end, parent, run id]."""
        doc = {
            "run_id": self.run_id,
            "names": self.names,
            "absent": self.absent,
            "counters": self.counters,
            "columns": ["name", "start", "end", "parent", "run_id"],
            "spans": [row + [self.run_id] for row in self.spans],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _step_gaps_ms(names, spans) -> list[float]:
    """Time between consecutive adam_step calls of one stage, skipping the
    gaps that hold an end-of-epoch dev evaluation."""
    try:
        step_id = names.index("model.adam_step")
    except ValueError:
        return []
    eval_id = names.index("metrics.dev_eval") if "metrics.dev_eval" in names else None
    events = sorted(
        (end if name == step_id else start, name == step_id, parent)
        for name, start, end, parent, _ in spans
        if name == step_id or name == eval_id
    )
    gaps = []
    last = None  # (end time, stage span) of the previous step
    for when, is_step, parent in events:
        if not is_step:
            last = None
            continue
        if last is not None and last[1] == parent:
            gaps.append(1000.0 * (when - last[0]))
        last = (when, parent)
    return gaps


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


# per-layer metric -> unit, in report order
LAYER_METRICS = {
    "data.generate_task.s": "s",
    "data.by_language.calls": "count",
    "data.by_language.s": "s",
    "samplers.draw_balanced.self_s": "s",
    "samplers.draw_random.s": "s",
    "samplers.draw_weighted.s": "s",
    "samplers.samples_drawn": "count",
    "model.pad.s": "s",
    "model.pad.rows": "count",
    "model.forward_padded.s": "s",
    "model.loss_and_grad.self_s": "s",
    "model.loss_and_grad.calls": "count",
    "model.loss_and_grad.rows_per_call": "rows",
    "model.adam_step.s": "s",
    "model.adam_step.calls": "count",
    "model.infer.calls": "count",
    "strategies.step_ms.p50": "ms",
    "strategies.step_ms.p99": "ms",
    "strategies.train_stage.self_s": "s",
    "strategies.gem_reference_grads.s": "s",
    "strategies.gem_reference_grads.self_s": "s",
    "strategies.gem_project.s": "s",
    "strategies.gem_project.active_ratio": "ratio",
    "metrics.dev_eval.s": "s",
    "metrics.stage_eval.s": "s",
    "metrics.mcd.calls": "count",
    "buffer.integrate_task.s": "s",
    "buffer.snapshot.s": "s",
    "config.parse_config.s": "s",
    "config.save_checkpoint.s": "s",
    "config.checkpoint_bytes": "bytes",
    "cli.cmd_train.self_s": "s",
    "trace.overhead_pct": "%",
    "trace.untraced_s": "s",
}


def summarize(doc: dict, wall_s: float, overhead_pct: float) -> dict:
    """Per-layer metric values of one traced run.

    `wall_s` is the traced child's wall time and `overhead_pct` how much
    longer it ran than the untraced children of the same config.
    """
    names = doc["names"]
    spans = doc["spans"]
    own = self_times(spans)
    calls = {name: 0 for name in names}
    total = {name: 0.0 for name in names}
    self_s = {name: 0.0 for name in names}
    for (name_index, start, end, _, _), s in zip(spans, own):
        name = names[name_index]
        calls[name] += 1
        total[name] += end - start
        self_s[name] += s
    counters = doc["counters"]
    gaps = _step_gaps_ms(names, spans)
    # top-level spans of one thread follow each other without overlap
    covered = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    lag_calls = calls.get("model.loss_and_grad", 0)
    gem_calls = calls.get("strategies.gem_project", 0)

    values = {}
    for metric in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        if stat == "s":
            values[metric] = total.get(layer, 0.0)
        elif stat == "self_s":
            values[metric] = self_s.get(layer, 0.0)
        elif stat == "calls" and layer in calls:
            values[metric] = calls[layer]
    values.update(
        {
            "samplers.samples_drawn": counters.get("samplers.samples_drawn", 0),
            "model.pad.rows": counters.get("model.pad.rows", 0),
            "model.loss_and_grad.rows_per_call": (
                counters.get("model.loss_and_grad.rows", 0) / lag_calls if lag_calls else 0.0
            ),
            "model.infer.calls": counters.get("model.infer.calls", 0),
            "metrics.mcd.calls": counters.get("metrics.mcd.calls", 0),
            "strategies.step_ms.p50": _percentile(gaps, 50),
            "strategies.step_ms.p99": _percentile(gaps, 99),
            "strategies.gem_project.active_ratio": (
                counters.get("strategies.gem_project.projected", 0) / gem_calls
                if gem_calls
                else 0.0
            ),
            "config.checkpoint_bytes": counters.get("config.checkpoint_bytes", 0),
            "trace.overhead_pct": overhead_pct,
            "trace.untraced_s": wall_s - covered,
        }
    )
    return {metric: values.get(metric, 0) for metric in LAYER_METRICS}
