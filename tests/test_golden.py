import json

import pytest

import golden

RECORD = json.loads(golden.GOLDEN.read_text())


@pytest.mark.parametrize("run", golden.RUNS)
def test_outputs_match_golden(run):
    # report.csv byte for byte, every stage MCD and curve value to 1e-12
    # relative. A mismatch on another numpy or BLAS may be rounding: the
    # message names the environment the file was taken with
    got = golden.outputs(run)
    diffs = golden.mismatches(RECORD["runs"][run], got)
    assert not diffs, (
        f"{run} moved from tests/golden.json, taken with {RECORD['environment']}; "
        f"this is {golden.environment()}:\n" + "\n".join(diffs[:20])
    )


def test_golden_covers_the_ci_runs():
    assert list(RECORD["runs"]) == golden.RUNS
    assert RECORD["tolerance"] == golden.TOLERANCE
