"""Command-line surface: train, report."""
from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys

from . import config as cfgmod
from .errors import FormatError, LlttsError
from .metrics import McdReport, render_curves, render_table
from .strategies import ExperimentResult, StrategyKind, run_sequence

log = logging.getLogger("lltts")


_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _write_text(path, text: str):
    cfgmod.atomic_write(path, text.encode())


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
    """The result a record holds; ValueError unless it has one report per task
    of its task order, each with a finite int or float MCD >= 0 for every
    language seen by then. Language ids must be ints: JSON's true and 1.0
    compare equal to 1. A per_language key must be an int as str() writes it:
    int() also reads " 1", "01" and "+0_1" as 1. Strategy: a StrategyKind name."""
    if record["strategy"] not in StrategyKind.__members__:
        raise ValueError(f"strategy {record['strategy']!r} is not a strategy name")
    order = record["task_order"]
    if any(type(lang) is not int for lang in order):
        raise ValueError(f"task_order {order} holds a language id that is not an int")
    reports = []
    for k, r in enumerate(record["reports"]):
        if any(str(int(lang)) != lang for lang in r["per_language"]):
            raise ValueError(f"report {k} has a language key that is not an int: "
                             f"{list(r['per_language'])}")
        mcds = list(r["per_language"].values())
        if any(type(v) not in (int, float) or not 0 <= v <= sys.float_info.max for v in mcds):
            raise ValueError(f"report {k} has an MCD that is not a finite number >= 0: {mcds}")
        per_language = {int(lang): float(v) for lang, v in r["per_language"].items()}
        if (
            k >= len(order)
            or type(r["stage_language"]) is not int
            or r["stage_language"] != order[k]
            or sorted(per_language) != sorted(order[: k + 1])
        ):
            raise ValueError(f"report {k} does not match task_order {order}")
        reports.append(McdReport(r["stage_language"], per_language))
    if len(reports) != len(order):
        raise ValueError(f"{len(reports)} reports for {len(order)} tasks")
    return ExperimentResult(record["strategy"], order, reports, [])


def cmd_train(args) -> int:
    with open(args.config, "r", encoding="utf-8") as f:
        config = cfgmod.parse_config(f.read())
    chash = cfgmod.config_hash(config)
    ckpt_dir = os.path.join(config.output_dir, "checkpoints")

    start_state = None
    if args.resume and os.path.isdir(ckpt_dir):  # no folder, no checkpoints
        names = map(re.compile(r"stage([0-9]+)\.ckpt").fullmatch, os.listdir(ckpt_dir))
        stages = [int(m[1]) for m in names if m]
        if stages:
            path = os.path.join(ckpt_dir, f"stage{max(stages)}.ckpt")
            start_state = cfgmod.load_checkpoint(path, expected_hash=chash, force=args.force)
            log.info("resuming after stage %d from %s", start_state.stage, path)

    def hook(state):
        # made with the first checkpoint, so a run that fails before leaves no folder
        os.makedirs(ckpt_dir, exist_ok=True)
        cfgmod.save_checkpoint(state, os.path.join(ckpt_dir, f"stage{state.stage}.ckpt"), chash)
        log.info("stage %d done; avg test MCD %.3f", state.stage, state.reports[-1].average)

    result = run_sequence(config, checkpoint_hook=hook, start_state=start_state)

    record = _result_record(result)
    _write_text(
        os.path.join(config.output_dir, "result.json"),
        json.dumps(record, sort_keys=True, indent=2) + "\n",
    )
    _write_text(
        os.path.join(config.output_dir, "curves.csv"),
        render_curves(result.stage_curves, config.epochs_per_stage),
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
    value = os.environ.get("LLTTS_LOG", "info")
    level = _LOG_LEVELS.get(value.lower())
    if level is None:
        print(f"error: LLTTS_LOG={value!r}: accepted values are {', '.join(_LOG_LEVELS)}",
              file=sys.stderr)
        return 2
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
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
