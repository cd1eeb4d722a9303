"""One measured run: `lltts train` in-process, in a fresh interpreter.

Usage: python3 bench/child.py CONFIG RESULT_JSON [SPANS_JSON]

Writes RESULT_JSON with the exit code, the monotonic time of the first
`train_stage` entry (the end of set-up) with the speed reference's time up
to then, the number of optimizer steps
(`adam_step` calls; null when a refactor removed it), the speed reference's
pass count and total time (`reference.py`) and the peak RSS. With SPANS_JSON
the run is traced: every lltts layer is wrapped and the spans are written
there.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    config_path, result_path = argv[0], argv[1]
    spans_path = argv[2] if len(argv) > 2 else None
    from reference import SpeedReference

    reference = SpeedReference()
    reference.start()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import lltts.cli
    import lltts.strategies

    if not os.path.abspath(lltts.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"lltts imported from {lltts.__file__}, not from this checkout", file=sys.stderr)
        return 3

    from tracing import Tracer, _rebind, _resolve

    tracer = None
    if spans_path is not None:
        tracer = Tracer(run_id=os.path.basename(spans_path))
        tracer.install()

    # count the optimizer steps, to check them against the config
    steps = None
    found = _resolve("lltts.model", "adam_step")
    if found is not None:
        steps = [0]
        owner, attr, adam_step = found

        def step_counter(*args, **kwargs):
            steps[0] += 1
            return adam_step(*args, **kwargs)

        _rebind(owner, attr, adam_step, step_counter)

    # set-up ends when the first stage starts training
    first_stage = []
    train_stage = lltts.strategies.train_stage

    def stage_probe(*args, **kwargs):
        if not first_stage:
            first_stage.extend((time.monotonic(), reference.total_s))
        return train_stage(*args, **kwargs)

    lltts.strategies.train_stage = stage_probe

    rc = lltts.cli.cli(["train", "--config", config_path])
    reference.stop()
    if tracer is not None:
        tracer.write(spans_path)
    record = {
        "rc": rc,
        "first_stage_at": first_stage[0] if first_stage else None,
        "setup_reference_s": first_stage[1] if first_stage else None,
        "steps": steps[0] if steps else None,
        "reference": [reference.count, reference.total_s],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
