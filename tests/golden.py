"""Golden outputs: what the CI's training configurations produce, pinned.

Each configuration is one of the runs that the CI trains under 1 and 2 BLAS
threads (profile:kind). It is trained in-process with `run_sequence`, and its
outputs are recorded in tests/golden.json: the sha256 of `report.csv`, every
stage's per-language test MCD and every `curves.csv` value, as `repr` floats.
`test_golden.py` trains each configuration again and compares.

Usage: PYTHONPATH=src python tests/golden.py --write

A change that moves the outputs on purpose regenerates the file and says in
CHANGES.md which entries moved, by how much and why.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import pathlib
import re

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden.json"

# the CI's runs, as profile:kind
RUNS = [
    "desk:replay_dual", "desk:gem", "desk:ewc", "desk:replay_random", "desk:replay_weighted",
    "desk:fine_tune", "desk:joint", "paper_scale:gem", "paper_scale:replay_dual",
    "paper_scale:ewc", "paper_scale:replay_weighted", "paper_scale:joint",
    "paper_scale_2031:gem", "desk_dual37:replay_dual", "paper_scale:replay_random",
    "paper_scale:fine_tune",
]
# the CI trains paper_scale for 1 epoch a stage and desk for its 20; desk is
# cut to 4 here (the learning rate still halves, at epoch 3), which keeps the
# 16 runs to a few seconds
EPOCHS = {"desk": 4, "paper_scale": 1}
TOLERANCE = 1e-12  # relative, for every float


def config_text(run: str) -> str:
    """The config of `run`, made from the shipped profiles as the CI makes it."""
    profile, kind = run.split(":")
    base = "desk" if profile.startswith("desk") else "paper_scale"
    text = (ROOT / "configs" / f"{base}.ini").read_text()
    if profile == "paper_scale_2031":
        # the tasks integrate in the order 2, 0, 3, 1
        order = {"0": "2", "1": "0", "2": "3", "3": "1"}
        text = re.sub(r"^\[task ([0-3])\]$", lambda m: f"[task {order[m[1]]}]", text, flags=re.M)
    if profile == "desk_dual37":
        text = re.sub(r"^gamma = .*$", "gamma = 0.3", text, flags=re.M)
        text = re.sub(r"^beta = .*$", "beta = 0.7", text, flags=re.M)
    text = re.sub(r"^kind = .*$", f"kind = {kind}", text, flags=re.M)
    return re.sub(r"^epochs_per_stage = .*$", f"epochs_per_stage = {EPOCHS[base]}", text, flags=re.M)


def outputs(run: str) -> dict:
    """The recorded outputs of one training of `run`."""
    from lltts.config import parse_config
    from lltts.metrics import render_curves, render_table
    from lltts.strategies import run_sequence

    config = parse_config(config_text(run))
    result = run_sequence(config)
    report = render_table([result])
    curves = list(csv.reader(io.StringIO(render_curves(result.stage_curves, config.epochs_per_stage))))
    return {
        "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
        "stage_mcds": [{str(lang): repr(v) for lang, v in r.per_language.items()} for r in result.reports],
        "curves": [[int(e), int(lang), raw, smoothed] for e, lang, raw, smoothed in curves[1:]],
    }


def environment() -> dict:
    """The numpy and BLAS that a golden file was taken with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_configuration": blas.get("openblas configuration", ""),
    }


def mismatches(want: dict, got: dict) -> list:
    """The differences of `got` from `want`, one line each."""
    out = []
    if got["report_sha256"] != want["report_sha256"]:
        out.append("report.csv differs")
    for name in ("stage_mcds", "curves"):
        if len(got[name]) != len(want[name]):
            out.append(f"{name}: {len(got[name])} entries, want {len(want[name])}")
    pairs = [
        (f"stage {k} L{lang}", want_stage[lang], got_stage.get(lang))
        for k, (want_stage, got_stage) in enumerate(zip(want["stage_mcds"], got["stage_mcds"]))
        for lang in want_stage
    ]
    for want_row, got_row in zip(want["curves"], got["curves"]):
        if want_row[:2] != got_row[:2]:
            out.append(f"curves: row {got_row[:2]}, want {want_row[:2]}")
            continue
        pairs += [(f"curves epoch {want_row[0]} L{want_row[1]} {col}", w, g)
                  for col, w, g in zip(("raw", "smoothed"), want_row[2:], got_row[2:])]
    for where, w, g in pairs:
        if g is None:
            out.append(f"{where}: missing")
        elif abs(float(g) - float(w)) > TOLERANCE * abs(float(w)):
            out.append(f"{where}: {g}, want {w} (relative {abs(float(g) / float(w) - 1):.2e})")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="retrain every run and rewrite the file")
    args = parser.parse_args(argv)
    if not args.write:
        parser.print_help()
        return 2
    record = {
        "about": "outputs of the CI's runs, trained in-process by tests/golden.py; "
        f"desk runs {EPOCHS['desk']} epochs a stage, paper_scale runs {EPOCHS['paper_scale']}",
        "environment": environment(),
        "tolerance": TOLERANCE,
        "runs": {run: outputs(run) for run in RUNS},
    }
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
