"""Checks of the benchmark itself (slow: about three minutes).

    python3 -m pytest perfbench/selftest.py -q

Run from the root of the checkout.  The file name keeps it out of the
repository's own test collection, which would otherwise run the workloads.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import outcomes
import workloads

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
BENCH = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, seed, trace, cwd=CHECKOUT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_default_seed_reproduces_plgd_synthetic_data():
    sys.path.insert(0, str(CHECKOUT / "src"))
    from plgd.cli import build_dataset

    for workload, spec in [
        ("rf_certified", {"kind": "gaussian", "d": 64, "in_dim": 8, "target_dim": 1, "seed": 3}),
        ("gate_wide", {"kind": "gaussian", "d": 400, "in_dim": 4, "target_dim": 1, "seed": 3}),
        ("gan_sweep", {"kind": "two_gaussians", "n_real": 16, "n_gen": 16, "in_dim": 2, "seed": 0}),
    ]:
        inline = workloads.config(workload, 0, "out")["problem"]["dataset"]
        ref, ref_side = build_dataset({"path": None, "inline": None, "synthetic": spec})
        got, got_side = build_dataset({"path": None, "synthetic": None, **inline})
        assert got_side == ref_side
        for a, b in zip(got.points, ref.points):
            assert np.array_equal(a.x, b.x)
            assert (a.target is None) == (b.target is None)
            assert a.target is None or np.array_equal(a.target, b.target)


def test_seed_is_deterministic_and_changes_inputs():
    for workload in workloads.WORKLOADS:
        one = workloads.config(workload, 7, "out")
        assert one == workloads.config(workload, 7, "out")
        assert one != workloads.config(workload, 0, "out")


def test_outcome_check_reports_a_changed_pin():
    want = workloads.EXPECTED["rf_certified"]
    assert outcomes.problems("rf_certified", 0, want) == []
    moved = {**want, "steps": want["steps"] + 1, "q": want["q"] * (1 + 1e-5)}
    found = outcomes.problems("rf_certified", 0, moved)
    assert len(found) == 2 and "steps" in found[0] and "q" in found[1]


def test_untraced_run_reports_every_end_to_end_metric():
    out = result(bench("rf_certified", 3, 0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_cover_execute(workload):
    first, second = (result(bench(workload, 0, 1)) for _ in range(2))
    names = {m["name"] for m in BENCH["per_layer"]}
    for out in (first, second):
        assert out["correct"], out
        assert set(out["metrics"]) == names
        assert out["metrics"]["trace.coverage"]["value"] >= 0.95
    counts = [n for n, m in first["metrics"].items() if m["unit"] == "count"]
    assert "descent.steps" in counts
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_fails_without_plgd_sources(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("rf_certified", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
