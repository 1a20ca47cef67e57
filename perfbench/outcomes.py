"""Reading a run's outputs back from disk and checking them.

``outcome`` condenses what a run wrote (``report.json`` per run, plus
``summary.csv`` for a sweep) into the values the default seed pins;
``problems`` compares it with the pinned outcome, or for other seeds with
the exit code and gradient gate alone.  ``digest`` hashes the files that
must stay byte-identical across the runs of one benchmark invocation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import ABS_TOL, DEFAULT_SEED, EXPECTED, REL_TOL, SWEEP_AXIS, SWEEP_VALUES

DETERMINISTIC_FILES = ("report.json", "trace.csv", "bounds.csv")


def _run_dirs(workload: str, outdir: Path) -> list[Path]:
    if workload == "gan_sweep":
        return [outdir / f"{SWEEP_AXIS}={v:g}" for v in SWEEP_VALUES]
    return [outdir]


def _run_outcome(run_dir: Path) -> dict:
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    ledger = report["ledger"]
    iterations = report["iterations"]
    return {
        "exit_code": report["exit_code"],
        "gate_passed": report["gradient_check"]["passed"],
        "mode": ledger["mode"],
        "provenance": ledger["provenance"],
        "steps": iterations["actual"],
        "q": ledger["q"],
        "K": ledger["K"],
        "final_gap": iterations["final_gap"],
        "verdicts": {v["name"]: [v["passed"], v["hypothesis_met"]] for v in report["verdicts"]},
    }


def _cell(text: str):
    if text == "":
        return None
    return int(text) if text.lstrip("-").isdigit() else float(text)


def outcome(workload: str, exit_code: int, outdir: Path) -> dict:
    """The pinned quantities of one run, read from the files it wrote."""
    if workload != "gan_sweep":
        return {**_run_outcome(outdir), "exit_code": exit_code}
    lines = (outdir / "summary.csv").read_text(encoding="utf-8").splitlines()
    return {
        "exit_code": exit_code,
        "summary": [[_cell(c) for c in line.split(",")] for line in lines[1:]],
        "runs": {d.name: _run_outcome(d) for d in _run_dirs(workload, outdir)},
    }


def digest(workload: str, outdir: Path) -> str:
    """SHA-256 over every file that must be byte-identical between runs."""
    h = hashlib.sha256()
    paths = [d / name for d in _run_dirs(workload, outdir) for name in DETERMINISTIC_FILES]
    if workload == "gan_sweep":
        paths.append(outdir / "summary.csv")
    for path in paths:
        h.update(str(path.relative_to(outdir)).encode())
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def _mismatches(got, want, path: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got} != {want}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if abs(got - want) <= ABS_TOL + REL_TOL * abs(want):
            return []
        return [f"{path}: {got!r} differs from {want!r} beyond rel {REL_TOL}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def problems(workload: str, seed: int, got: dict) -> list[str]:
    """Differences between a run's outcome and what its seed requires."""
    if seed == DEFAULT_SEED:
        return _mismatches(got, EXPECTED[workload], workload)
    runs = got["runs"].values() if workload == "gan_sweep" else [got]
    found = _mismatches(got["exit_code"], 0, f"{workload}.exit_code")
    for run in runs:
        found += _mismatches(run["exit_code"], 0, f"{workload}.exit_code")
        found += _mismatches(run["gate_passed"], True, f"{workload}.gate_passed")
    return found
