"""Correctness checks on the files one `lltts train` run leaves behind."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass


class CheckFailed(Exception):
    """The run's outputs are missing, malformed or not plausible."""


@dataclass
class Outputs:
    digest: str  # sha256 over report.csv and result.json
    final_avg_mcd: float
    forgetting_mcd: float


def _mcd(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CheckFailed(f"{where}: MCD {value!r} is not a number")
    if not math.isfinite(value) or value <= 0:
        raise CheckFailed(f"{where}: MCD {value!r} is not finite and positive")
    return float(value)


def check_outputs(out_dir: str, n_languages: int) -> Outputs:
    """Parse result.json and report.csv, check them against each other and
    return the run's digest and MCD metrics; raise CheckFailed otherwise."""
    try:
        with open(os.path.join(out_dir, "result.json"), "rb") as f:
            result_bytes = f.read()
        with open(os.path.join(out_dir, "report.csv"), "rb") as f:
            report_bytes = f.read()
    except OSError as exc:
        raise CheckFailed(f"missing output: {exc}") from None
    try:
        result = json.loads(result_bytes)
        rows = list(csv.reader(io.StringIO(report_bytes.decode("utf-8"))))
    except (ValueError, csv.Error) as exc:
        raise CheckFailed(f"unparsable output: {exc}") from None

    try:
        order = [int(lang) for lang in result["task_order"]]
        reports = result["reports"]
        if len(order) != n_languages or len(reports) != n_languages:
            raise CheckFailed(
                f"{len(reports)} stages for {len(order)} languages, expected {n_languages}"
            )
        table = []  # (stage, language, MCD) in report.csv column order
        for k, report in enumerate(reports):
            per_language = report["per_language"]
            if sorted(per_language) != sorted(str(lang) for lang in order[: k + 1]):
                raise CheckFailed(f"stage {k} reports languages {sorted(per_language)}")
            for lang in order[: k + 1]:
                table.append((k, lang, _mcd(per_language[str(lang)], f"stage {k} L{lang}")))
            table.append((k, "Avg", _mcd(report["average"], f"stage {k} average")))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"malformed result.json: {exc!r}") from None

    if len(rows) != 2 or len(rows[0]) != len(rows[1]) or rows[0][0] != "method":
        raise CheckFailed("report.csv is not one header row and one method row")
    cells = dict(zip(rows[0], rows[1]))
    for k, lang, value in table:
        column = f"stage{order[k]}:" + (lang if lang == "Avg" else f"L{lang}")
        if cells.get(column) != f"{value:.2f}":
            raise CheckFailed(f"report.csv {column}={cells.get(column)!r}, result.json {value!r}")

    final = reports[-1]["per_language"]
    own_stage = [reports[k]["per_language"][str(lang)] for k, lang in enumerate(order)]
    forgetting = [final[str(lang)] - own_stage[k] for k, lang in enumerate(order[:-1])]
    return Outputs(
        digest=hashlib.sha256(report_bytes + b"\0" + result_bytes).hexdigest(),
        final_avg_mcd=float(reports[-1]["average"]),
        forgetting_mcd=sum(forgetting) / len(forgetting) if forgetting else 0.0,
    )
