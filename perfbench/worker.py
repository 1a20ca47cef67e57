"""One plgd pipeline run in a fresh process, timed from the process start.

    python3 perfbench/worker.py CONFIG SPAWNED_AT TRACE KIND

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s``
covers interpreter start, ``import plgd``, config load and normalisation
and, for a ``run``, ``build_problem``.  ``solve_s`` is the pipeline call:
``cli.execute`` for ``KIND=run``, ``cli.sweep`` for ``KIND=sweep``.  With
``TRACE=1`` plgd's layers are wrapped in spans first.  The last stdout
line is a JSON object with the timings, the peak RSS and the exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    config_path, spawned_at, trace, kind = argv[1], float(argv[2]), argv[3] == "1", argv[4]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    from plgd import cli

    rec = None
    if trace:
        import spans

        rec = spans.Recorder()
        spans.install(rec)

    cfg = cli.normalize_config(json.loads(Path(config_path).read_text(encoding="utf-8")))
    if kind == "sweep":
        from workloads import SWEEP_AXIS, SWEEP_VALUES

        started = time.monotonic()
        exit_code = cli.sweep(config_path, SWEEP_AXIS, SWEEP_VALUES)
    else:
        problem = cli.build_problem(cfg)
        started = time.monotonic()
        exit_code = cli.execute(problem, cfg, Path(cfg["output"]["dir"]))["exit_code"]
    ended = time.monotonic()

    result = {
        "setup_s": started - spawned_at,
        "solve_s": ended - started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_code": int(exit_code),
    }
    if rec is not None:
        result["trace"] = rec.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
