"""Command-line surface: gen-data, train, report."""
from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import re
import sys

from . import config as cfgmod
from .data import atomic_write, generate_task, save_dataset
from .errors import FormatError, LlttsError
from .metrics import LearningCurve, McdReport, render_curves, render_table
from .strategies import ExperimentResult, run_sequence

log = logging.getLogger("lltts")


# glibc mallopt parameters and the values `cli` sets before any command. A
# training step frees activation buffers of a few hundred KB that the next
# step allocates again; under glibc's default, adaptive thresholds they go
# back to the OS and are faulted in again on every step. These fixed
# thresholds keep them in the heap.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 * 2**20
_TRIM_THRESHOLD_BYTES = 64 * 2**20


def _keep_freed_buffers() -> bool:
    """Set the process's malloc thresholds; a no-op without glibc's mallopt.

    Returns whether mallopt was called.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    return True


def _setup_logging():
    level = os.environ.get("LLTTS_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level, logging.INFO), format="%(levelname)s %(name)s: %(message)s"
    )


def _load_config(path) -> cfgmod.ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return cfgmod.parse_config(f.read())


def _write_text(path, text: str):
    atomic_write(path, text.encode())


def cmd_gen_data(args) -> int:
    config = _load_config(args.config)
    out = os.path.join(config.output_dir, "data")
    os.makedirs(out, exist_ok=True)
    for spec in config.task_specs:
        ds = generate_task(spec)
        path = os.path.join(out, f"lang{spec.language_id}.lltts")
        save_dataset(ds, path, vocab_size=spec.vocab_size)
        log.info("wrote %s (%d train samples)", path, len(ds.rows("train")))
    return 0


def _result_record(result: ExperimentResult) -> dict:
    return {
        "strategy": result.strategy,
        "task_order": result.task_order,
        "reports": [
            {
                "stage_language": r.stage_language,
                "per_language": {str(k): v for k, v in r.per_language.items()},
                "average": r.average,
            }
            for r in result.reports
        ],
    }


def _result_from_record(record: dict) -> ExperimentResult:
    reports = [
        McdReport(r["stage_language"], {int(k): v for k, v in r["per_language"].items()})
        for r in record["reports"]
    ]
    return ExperimentResult(record["strategy"], record["task_order"], reports, [])


def cmd_train(args) -> int:
    config = _load_config(args.config)
    chash = cfgmod.config_hash(config)
    ckpt_dir = os.path.join(config.output_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)

    start_state = None
    if args.resume:
        names = map(re.compile(r"stage([0-9]+)\.ckpt").fullmatch, os.listdir(ckpt_dir))
        stages = [int(m[1]) for m in names if m]
        if stages:
            path = os.path.join(ckpt_dir, f"stage{max(stages)}.ckpt")
            start_state = cfgmod.load_checkpoint(path, expected_hash=chash, force=args.force)
            log.info("resuming after stage %d from %s", start_state.stage, path)

    def hook(state):
        cfgmod.save_checkpoint(state, os.path.join(ckpt_dir, f"stage{state.stage}.ckpt"), chash)
        log.info("stage %d done; avg test MCD %.3f", state.stage, state.reports[-1].average)

    result = run_sequence(config, checkpoint_hook=hook, start_state=start_state)

    record = _result_record(result)
    _write_text(
        os.path.join(config.output_dir, "result.json"),
        json.dumps(record, sort_keys=True, indent=2) + "\n",
    )
    # learning curves concatenated over stages, one file per run; a language
    # first evaluated in stage k starts at global epoch k * epochs_per_stage
    merged: dict[int, list] = {}
    first_epoch: dict[int, int] = {}
    for stage, curves in enumerate(result.stage_curves):
        for lang, vals in curves.items():
            first_epoch.setdefault(lang, stage * config.epochs_per_stage)
            merged.setdefault(lang, []).extend(vals)
    _write_text(
        os.path.join(config.output_dir, "curves.csv"),
        render_curves(LearningCurve(merged), first_epoch),
    )
    _write_text(os.path.join(config.output_dir, "report.csv"), render_table([result]))
    return 0


def _load_result(path) -> ExperimentResult:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return _result_from_record(json.load(f))
    except json.JSONDecodeError as exc:
        offset = len(exc.doc[: exc.pos].encode("utf-8"))
        raise FormatError(f"{path}: malformed JSON: {exc.msg}", offset=offset) from exc
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"{path}: malformed result file: {exc!r}") from exc


def cmd_report(args) -> int:
    results = []
    for root, _, files in sorted(os.walk(args.in_dir)):
        if "result.json" in files:
            results.append(_load_result(os.path.join(root, "result.json")))
    if not results:
        print("no result.json files found", file=sys.stderr)
        return 1
    # fine-tune baseline row first, then stable alphabetical order
    results.sort(key=lambda r: (r.strategy != "FINE_TUNE", r.strategy))
    _write_text(args.out, render_table(results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lltts", description="Lifelong multilingual training engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="materialize the synthetic task datasets")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run the sequential training experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", action="store_true", help="continue from the latest checkpoint")
    p.add_argument("--force", action="store_true", help="ignore config-hash mismatch on resume")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("report", help="aggregate runs into one comparison table")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def cli(argv=None) -> int:
    _keep_freed_buffers()
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except LlttsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
