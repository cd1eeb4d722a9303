"""lltts benchmark: one workload, one seed, measured for a fixed time.

    python3 bench/run.py --workload dual_desk --seed 0 --seconds 60 --trace 0

Runs `lltts train` on the workload's generated configs again and again, each
time in-process in a fresh child interpreter, one child at a time, until the
time is used. Every child's outputs are checked, and all children of one
config must produce the same report digest. With `--trace 0` the children run
untraced and the end-to-end metrics are reported; with `--trace 1` untraced
and traced children alternate and the per-layer metrics are reported. The
end-to-end times are scaled to a speed reference that every child times on
its own core while it runs (reference.py).

Prints one line per metric, an environment stamp, and as the last line a JSON
object with `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a
check fails and 2 when the checkout holds no lltts sources.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src", "lltts")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")

from checks import CheckFailed, check_outputs  # noqa: E402
from reference import INTERVAL_S, NOMINAL_S  # noqa: E402
from tracing import LAYER_METRICS, summarize  # noqa: E402
from workloads import REPLICATES, WORKLOADS, config_text  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "train_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "final_avg_mcd": "dB",
    "forgetting_mcd": "dB",
    "ok_share": "ratio",
}
# every run must exit within 180 s; no child starts past this point
DEADLINE_S = 150.0
BLAS_THREADS = len(os.sched_getaffinity(0))


@dataclass
class ChildRun:
    traced: bool
    ok: bool
    replicate: int = 0
    reason: str = ""
    run_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    digest: str = ""
    final_avg_mcd: float = 0.0
    forgetting_mcd: float = 0.0
    # NOMINAL_S over the mean time of a speed-reference pass in this child;
    # run_s excludes the passes, and both times are as measured
    scale: float = 1.0
    spans: dict | None = field(default=None, repr=False)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def child_files(work: str, index: int) -> tuple[str, str, str]:
    """(record, spans, log) paths of child `index`."""
    stem = os.path.join(work, f"child{index}")
    return stem + ".json", stem + ".spans.json", stem + ".log"


def judge(workload, epochs, traced, rc, run_s, started, work, index) -> ChildRun:
    """Turn one finished child into a ChildRun; any failed check makes it
    a failed run."""
    record_path, spans_path, log_path = child_files(work, index)
    child = ChildRun(traced=traced, ok=False, run_s=run_s)
    if rc != 0:
        with open(log_path, "rb") as f:
            tail = f.read()[-400:].decode("utf-8", "replace").strip()
        child.reason = f"exit code {rc}: {tail}"
        return child
    try:
        with open(record_path, encoding="utf-8") as f:
            record = json.load(f)
        if record["first_stage_at"] is None:
            raise CheckFailed("train_stage was never entered")
        outputs = check_outputs(os.path.join(work, "out"), workload.languages)
        steps = record["steps"]
        if steps is not None and steps != workload.steps(epochs):
            raise CheckFailed(f"{steps} optimizer steps, config implies {workload.steps(epochs)}")
        passes, reference_s = record["reference"]
        if passes == 0:
            raise CheckFailed("the speed reference was never timed")
        if traced:
            with open(spans_path, encoding="utf-8") as f:
                child.spans = json.load(f)
    except (OSError, ValueError, KeyError) as exc:
        child.reason = f"unreadable child record: {exc!r}"
        return child
    except CheckFailed as exc:
        child.reason = str(exc)
        return child
    child.ok = True
    child.run_s = run_s - reference_s
    child.setup_s = record["first_stage_at"] - started - record["setup_reference_s"]
    child.scale = NOMINAL_S * passes / reference_s
    child.peak_rss_mb = record["maxrss_kb"] / 1024.0
    child.digest = outputs.digest
    child.final_avg_mcd = outputs.final_avg_mcd
    child.forgetting_mcd = outputs.forgetting_mcd
    return child


def run_child(workload, epochs, config_path, work, index, traced, timeout) -> ChildRun:
    shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)
    record_path, spans_path, log_path = child_files(work, index)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), config_path, record_path]
    if traced:
        cmd.append(spans_path)
    with open(log_path, "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return ChildRun(traced=traced, ok=False, reason=f"timed out after {timeout:.0f} s")
        run_s = time.monotonic() - started
    return judge(workload, epochs, traced, rc, run_s, started, work, index)


def measure(workload, seed, seconds, trace, epochs, work) -> list:
    """Children of one seed, one at a time, until `seconds` are used.

    Untraced children cycle through the seed's replicates and run at least
    once more than there are replicates, so every replicate is measured and
    one is repeated for the digest check. With tracing, untraced and traced
    children of replicate 0 alternate.
    """
    configs = []
    for replicate in range(REPLICATES):
        path = os.path.join(work, f"config{replicate}.ini")
        with open(path, "w", encoding="utf-8") as f:
            f.write(config_text(workload.name, seed, replicate, os.path.join(work, "out"), epochs))
        configs.append(path)
    if trace:
        plan = [(0, False), (0, True)]
    else:
        plan = [(replicate, False) for replicate in range(REPLICATES)]
    minimum, unit = (2, 2) if trace else (REPLICATES + 1, 1)
    children = []
    t0 = time.monotonic()
    while True:
        replicate, traced = plan[len(children) % len(plan)]
        left = DEADLINE_S - (time.monotonic() - t0)
        child = run_child(workload, epochs, configs[replicate], work, len(children), traced, left)
        child.replicate = replicate
        children.append(child)
        if child.reason.startswith("timed out"):
            return children
        elapsed = time.monotonic() - t0
        per_child = elapsed / len(children)
        if len(children) % unit == 0 and len(children) >= minimum:
            if elapsed + unit * per_child > min(seconds, DEADLINE_S):
                return children


def tally(children) -> tuple[int, int]:
    """(attempted, failed). A child whose digest disagrees with the majority
    digest of its config is failed too."""
    for replicate in range(REPLICATES):
        digests = Counter(c.digest for c in children if c.ok and c.replicate == replicate)
        if len(digests) < 2:
            continue
        majority = digests.most_common(1)[0][0]
        for c in children:
            if c.ok and c.replicate == replicate and c.digest != majority:
                c.ok = False
                c.reason = "report digest differs from other runs of the same config" + (
                    " (traced run)" if c.traced else ""
                )
    return len(children), sum(1 for c in children if not c.ok)


def end_to_end_metrics(children, workload, epochs, attempted, failed) -> dict:
    runs = [c for c in children if c.ok and not c.traced]
    if not runs:
        return {}
    samples = workload.train_samples(epochs)
    by_replicate = {c.replicate: c for c in runs}
    # times at the reference speed (reference.py)
    return {
        "setup_s": statistics.median(c.setup_s * c.scale for c in runs),
        "run_s": statistics.median(c.run_s * c.scale for c in runs),
        "train_samples_per_s": statistics.median(samples / ((c.run_s - c.setup_s) * c.scale) for c in runs),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in runs),
        "final_avg_mcd": statistics.mean(c.final_avg_mcd for c in by_replicate.values()),
        "forgetting_mcd": statistics.mean(c.forgetting_mcd for c in by_replicate.values()),
        "ok_share": (attempted - failed) / attempted,
    }


def layer_metrics(children) -> dict:
    untraced = [c.run_s * c.scale for c in children if c.ok and not c.traced]
    traced = [c for c in children if c.ok and c.traced]
    if not untraced or not traced:
        return {}
    baseline = statistics.median(untraced)
    per_child = [summarize(c.spans, c.run_s, 100.0 * (c.run_s * c.scale / baseline - 1.0)) for c in traced]
    return {m: statistics.median(values[m] for values in per_child) for m in LAYER_METRICS}


def git_revision():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(SRC, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": BLAS_THREADS,
        "blas_threads": BLAS_THREADS,
        "speed_reference": {"nominal_s": NOMINAL_S, "interval_s": INTERVAL_S},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--epochs", type=int, default=None, help="override epochs per stage (smoke runs)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: no lltts sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = os.path.join(RUNS_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(work)
    try:
        children = measure(workload, args.seed, args.seconds, args.trace, args.epochs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = tally(children)
    if args.trace:
        values = layer_metrics(children)
        units = LAYER_METRICS
    else:
        values = end_to_end_metrics(children, workload, args.epochs, attempted, failed)
        units = END_TO_END
    correct = failed == 0 and bool(values)
    env = environment()

    for c in children:
        if not c.ok:
            kind = "traced" if c.traced else "untraced"
            print(f"FAILED {kind} run: {c.reason}", file=sys.stderr)
    for name, value in values.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    measured = [c for c in children if c.ok and not c.traced]
    if measured:
        print(f"{workload.name} as measured, unscaled: setup_s = "
              f"{statistics.median(c.setup_s for c in measured):.6g} s, run_s = "
              f"{statistics.median(c.run_s for c in measured):.6g} s; machine speed "
              f"{statistics.median(c.scale for c in measured):.4g} x the reference speed")
    print(f"{workload.name} runs: {attempted} attempted, {failed} failed, "
          f"{sum(c.traced for c in children)} traced")
    if args.trace and children and children[-1].spans:
        absent = children[-1].spans["absent"]
        print(f"{workload.name} trace: absent targets {absent or 'none'}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    os.makedirs(os.path.join(RUNS_DIR, "results"), exist_ok=True)
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace, env=env,
                  children=[{k: v for k, v in vars(c).items() if k != "spans"} for c in children])
    with open(os.path.join(RUNS_DIR, "results", f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
