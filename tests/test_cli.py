import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from plgd import cli, descent, problems, rowfmt
from plgd.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VIOLATION,
    build_problem,
    check_experiment,
    execute,
    main,
    normalize_config,
    run_experiment,
    sweep,
)
from plgd.descent import (
    ConstantsLedger,
    DescentTrace,
    build_ledger,
    closest_optimum,
    minimal_ledger,
    monitor_rows,
    monitor_size,
    run,
    verify,
)
from plgd.errors import InvalidConfig, MissingCertificate, NumericFailure
from plgd.integrand import least_squares
from plgd.model import induce
from plgd.problems import analytic_certificates, check_gradients, make_certificates, supervised
from plgd.space import weighted_solve

from oracles import MONITORED, reference_verdict, symmetrize


def tight_config(outdir, alpha=0.5):
    return {
        "problem": {
            "family": "supervised",
            "model": {"kind": "linear", "in_dim": 2},
            "dataset": {"inline": {"inputs": [[1.0, 1.0]], "targets": [[4.0]]}},
            "integrand": {"kind": "least_squares"},
        },
        "certificates": {"mode": "analytic"},
        "descent": {"alpha": alpha, "max_iter": 100},
        "output": {"dir": str(outdir)},
    }


def rf_config(outdir, width=32, max_iter=100000, mode="analytic"):
    return {
        "problem": {
            "family": "supervised",
            "model": {"kind": "random_features", "in_dim": 3, "width": width, "seed": 1},
            "dataset": {
                "synthetic": {"kind": "gaussian", "d": 4, "in_dim": 3, "target_dim": 1, "seed": 3}
            },
            "integrand": {"kind": "least_squares"},
        },
        "certificates": {"mode": mode, "n_samples": 8, "seed": 0},
        "descent": {"alpha": "auto", "max_iter": max_iter},
        "output": {"dir": str(outdir)},
    }


def classes_config(outdir):
    cfg = rf_config(outdir)
    cfg["problem"]["dataset"]["synthetic"] = {"kind": "classes", "d": 4, "in_dim": 3,
                                              "classes": 2, "seed": 3}
    cfg["problem"]["integrand"] = {"kind": "softmax", "classes": 2}
    return cfg


def r1_unsquashed_config(outdir, alpha=3.0):
    """An unsquashed r1 critic whose initial scores lie in the r1 domain
    (real-side y > 0, generated-side y < 1); at alpha 3 the second step
    pushes a real-side score to y <= 0."""
    return {
        "problem": {
            "family": "gan",
            "disc": {"kind": "shallow", "width": 6, "seed": 2, "squash": False},
            "gan_kind": "r1",
            "beta": 1.0,
            "dataset": {
                "synthetic": {"kind": "two_gaussians", "n_real": 2, "n_gen": 2,
                              "in_dim": 2, "seed": 0}
            },
        },
        "certificates": {"mode": "sampled", "n_samples": 8, "seed": 0},
        "descent": {"alpha": alpha, "max_iter": 200},
        "output": {"dir": str(outdir)},
    }


def gan_config(outdir):
    return {
        "problem": {
            "family": "gan",
            "disc": {"kind": "shallow", "width": 6, "seed": 4, "squash": True},
            "gan_kind": "r1",
            "beta": 5.0,
            "dataset": {
                "synthetic": {"kind": "two_gaussians", "n_real": 2, "n_gen": 2,
                              "in_dim": 2, "seed": 0}
            },
        },
        "certificates": {"mode": "sampled", "n_samples": 8, "seed": 0},
        "descent": {"alpha": 0.05, "max_iter": 20},
        "output": {"dir": str(outdir)},
    }


def vae_config(outdir):
    return {
        "problem": {
            "family": "vae",
            "encoder": {"width": 4, "seed": 2},
            "decoder": {"width": 4, "seed": 3},
            "latent_dim": 1,
            "beta": 1.0,
            "noise": {"count": 2, "seed": 5},
            "dataset": {"synthetic": {"kind": "gaussian", "d": 3, "in_dim": 2, "seed": 1}},
        },
        "certificates": {"mode": "sampled", "n_samples": 8, "seed": 0},
        "descent": {"alpha": 0.1, "max_iter": 20},
        "output": {"dir": str(outdir)},
    }


def gate_too_large_config(outdir):
    """A shallow net of width 10**6 on 10**5 samples: the problem builds (2·10**6
    parameters), but the gradient gate's Jacobian, (10**5, 10**6) doubles, is
    refused by numpy without being allocated."""
    return {
        "problem": {
            "family": "supervised",
            "model": {"kind": "shallow", "in_dim": 1, "width": 10**6, "seed": 1},
            "dataset": {"synthetic": {"kind": "gaussian", "d": 10**5, "in_dim": 1,
                                      "target_dim": 1, "seed": 3}},
            "integrand": {"kind": "least_squares"},
        },
        "descent": {"max_iter": 10},
        "output": {"dir": str(outdir)},
    }


def put(cfg, path, value):
    """Set the nested key ``path`` of ``cfg``, making the sections it lacks."""
    *parents, key = path
    for part in parents:
        cfg = cfg.setdefault(part, {})
    cfg[key] = value


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestRunCommand:
    def test_tight_case_reports_and_files(self, tmp_path):
        out = tmp_path / "out"
        code = run_experiment(write_config(tmp_path, tight_config(out)))
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["ledger"]["q"] == 0.0
        assert report["iterations"]["actual"] == 1
        dist = next(v for v in report["verdicts"] if v["name"] == "dist_init")
        assert abs(dist["measured"] - dist["bound"]) <= 1e-12
        assert (out / "trace.csv").exists() and (out / "bounds.csv").exists()
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == (
            "iter,loss,gap,q_bound,grad_norm,step_norm,step_bound,dist_init,dist_bound"
        )

    def test_narrow_model_runs_above_the_dense_cap(self, tmp_path):
        # d l = 5000 > 4096 but p = 16: the spectra come from the 16 x 16
        # side, J J* has a kernel, and the run goes on without a q
        out = tmp_path / "out"
        cfg = rf_config(out, width=16, max_iter=10)
        cfg["problem"]["model"]["in_dim"] = 4
        cfg["problem"]["dataset"]["synthetic"].update(d=5000, in_dim=4)
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["ledger"]["mode"] == "no-uc"
        assert report["ledger"]["lambda_F"] is None

    def test_run_that_takes_no_step_reports_its_step_bounds_unchecked(self, tmp_path):
        # a stopping gap above the initial one: the full ledger holds q, K and L,
        # so the step inequalities are unchecked for want of a step, not of constants
        out = tmp_path / "out"
        cfg = rf_config(out, max_iter=10)
        cfg["descent"]["stop_gap"] = 1e6
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["ledger"]["mode"] == "full" and report["iterations"]["actual"] == 0
        ball = verdict(report, "q_decay")["hypothesis_met"]
        assert ball is True and verdict(report, "q_decay")["n_checked"] == 1
        for name in ("per_step_decay", "step_norm", "path_length", "taylor_bound"):
            v = verdict(report, name)
            assert (v["passed"], v["hypothesis_met"], v["detail"]) == (None, ball, "no step taken")
            assert (v["n_checked"], v["worst_iter"]) == (0, None), name

    def test_alpha_at_boundary_is_config_error(self, tmp_path):
        cfg = tight_config(tmp_path / "out", alpha=1.0)  # 2/L for this problem
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG

    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        cfg = tight_config(tmp_path / "out")
        cfg["problem"]["typo"] = 1
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        assert "config.problem" in capsys.readouterr().err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"problem": \n  oops}', encoding="utf-8")
        assert run_experiment(str(path)) == EXIT_CONFIG
        assert "line 2" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert run_experiment(str(tmp_path / "nope.json")) == EXIT_CONFIG

    def test_non_finite_input_is_dataset_error(self, tmp_path, capsys):
        # Python's json reads NaN, so it can arrive in an inline dataset
        cfg = tight_config(tmp_path / "out")
        cfg["problem"]["dataset"]["inline"]["inputs"] = [[float("nan"), 1.0]]
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        assert "error: sample inputs must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dataset, match",
        [
            ({"inline": {"inputs": [[1.0, 1.0], [1.0]], "targets": [[4.0], [1.0]]}},
             "rectangular"),
            ({"inline": {"inputs": [1.0, 1.0], "targets": [[4.0]]}}, r"\(d, in_dim\)"),
            ({"inline": {"inputs": [[1.0, 1.0], [0.0, 1.0]], "targets": [[4.0], [1.0, 2.0]]}},
             "rectangular"),
            ({"inline": {"inputs": [[1.0, 1.0], [0.0, 1.0]], "targets": [[4.0], 2]}},
             "rectangular"),
            ({"inline": {"inputs": [[1.0, 1.0, 1.0]], "targets": [[4.0]]}}, "width 2"),
            ({"synthetic": {"kind": "orthonormal", "d": 2, "in_dim": 2,
                            "targets": [[1.0], [1.0, 2.0]]}}, "rectangular"),
        ],
        ids=["ragged_inputs", "flat_inputs", "ragged_targets", "mixed_targets", "in_dim",
             "ragged_orthonormal_targets"],
    )
    def test_malformed_dataset_shape_is_config_error(self, tmp_path, capsys, dataset, match):
        cfg = tight_config(tmp_path / "out")
        cfg["problem"]["dataset"] = dataset
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(match, err), err

    @pytest.mark.parametrize("side", [["real", "generated"], ["real", "generated", "fake"]])
    def test_gan_side_labels_must_cover_inputs(self, tmp_path, capsys, side):
        cfg = {
            "problem": {
                "family": "gan",
                "disc": {"kind": "linear"},
                "gan_kind": "wgan_gp",
                "beta": 1.0,
                "dataset": {"inline": {"inputs": [[1.0], [-1.0], [0.5]], "side": side}},
            },
            "output": {"dir": str(tmp_path / "out")},
        }
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error: side must label each of the 3 inputs real or generated" in err

    def test_bounds_csv_rows_in_documented_order(self, tmp_path):
        out = tmp_path / "out"
        assert run_experiment(write_config(tmp_path, tight_config(out, alpha=0.125))) == EXIT_OK
        n = len((out / "trace.csv").read_text().splitlines()) - 1
        assert n > 2
        lines = (out / "bounds.csv").read_text().splitlines()
        assert lines[0] == "inequality,iter,measured,bound,holds"
        steps = range(n - 1)
        expected = (
            [("q_decay", i) for i in range(n)]
            + [(name, i) for i in steps for name in ("per_step_decay", "step_norm", "path_length")]
            + [("composition_pl", i) for i in range(n)]
            + [("composition_lg_bound", i) for i in range(n)]
            + [("taylor_bound", i) for i in steps]
        )
        cells = [line.split(",") for line in lines[1:]]
        assert [(c[0], int(c[1])) for c in cells] == expected
        assert all(c[4] == "True" for c in cells)

    def test_dataset_from_file(self, tmp_path):
        data_path = tmp_path / "data.json"
        data_path.write_text(
            json.dumps({"inputs": [[1.0, 1.0]], "targets": [[4.0]]}), encoding="utf-8"
        )
        cfg = tight_config(tmp_path / "out")
        cfg["problem"]["dataset"] = {"path": str(data_path)}
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_OK

    def test_planted_wrong_gradient_exits_two_with_diagnostic(self, tmp_path):
        cfg = normalize_config(rf_config(tmp_path / "out", max_iter=10))
        problem = build_problem(cfg)
        buggy_model = dataclasses.replace(
            problem.model,
            jacobian=lambda x, th, f=problem.model.jacobian: 2.0 * f(x, th),
        )
        from plgd.problems import supervised
        from plgd.integrand import least_squares

        bad = supervised(buggy_model, problem.data, least_squares(k=1))
        report = execute(bad, cfg, tmp_path / "out")
        assert report["exit_code"] == EXIT_VIOLATION
        assert not report["gradient_check"]["passed"]
        assert report["gradient_check"]["max_fd_error"] > 1e-3

    def test_planted_doubled_stacked_forward_exits_two(self, tmp_path):
        # right on one readout, doubled on a stack of them: the gate's
        # stacked differences then disagree with the Jacobian
        cfg = rf_config(tmp_path / "out", max_iter=10)
        cfg["problem"]["dataset"]["synthetic"]["d"] = 32  # chunks of 4 columns
        cfg = normalize_config(cfg)
        problem = build_problem(cfg)
        model = problem.model

        def forward(x, theta, f=model.forward):
            return (2.0 if theta.size > model.param_dim else 1.0) * f(x, theta)

        buggy = dataclasses.replace(model, forward=forward)
        bad = dataclasses.replace(problem, model=buggy, F=induce(buggy, problem.data))
        report = execute(bad, cfg, tmp_path / "out")
        assert report["exit_code"] == EXIT_VIOLATION
        assert report["gradient_check"]["max_fd_error"] == pytest.approx(0.5, rel=1e-6)

    @pytest.mark.parametrize("c", [1.25, 4.0])
    def test_planted_integrand_gradient_scores_one_minus_inverse_factor(self, tmp_path, c):
        cfg = normalize_config(rf_config(tmp_path / "out", max_iter=10))
        problem = build_problem(cfg)
        iota = least_squares(k=1)

        def planted(data, z, joint=iota.value_and_grad_fn):
            value, grad = joint(data, z)
            return value, c * grad

        buggy = dataclasses.replace(iota, value_and_grad_fn=planted)
        report = execute(supervised(problem.model, problem.data, buggy), cfg, tmp_path / "out")
        assert report["exit_code"] == EXIT_VIOLATION
        assert report["gradient_check"]["max_fd_error"] == pytest.approx(1.0 - 1.0 / c, rel=1e-6)

    def test_functional_with_doubled_weights_fails_the_directional_check(self, tmp_path):
        # the per-sample rows see only the integrand, so the masses are the
        # directional check's to catch
        cfg = normalize_config(rf_config(tmp_path / "out", max_iter=10))
        problem = build_problem(cfg)
        f = problem.f
        doubled = dataclasses.replace(f, value_fn=lambda h, value=f.value_fn: 2.0 * value(h))
        report = execute(dataclasses.replace(problem, f=doubled), cfg, tmp_path / "out")
        assert report["exit_code"] == EXIT_VIOLATION
        assert report["gradient_check"]["max_fd_error"] == pytest.approx(0.5, rel=1e-6)

    def test_lying_certificates_exit_two(self, tmp_path):
        cfg = tight_config(tmp_path / "out", alpha="auto")
        cfg["certificates"]["overrides"] = {"K_F": 0.5, "lambda_F": 0.25}
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_VIOLATION
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["iterations"]["diverged"]

    def test_sampled_mode_refines_ball_and_passes(self, tmp_path):
        out = tmp_path / "out"
        code = run_experiment(write_config(tmp_path, rf_config(out, mode="sampled")))
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["ledger"]["provenance"] == "sampled"
        assert report["declared_ball_radius"] != 1e3  # refined from the default

    def test_gan_and_vae_families_run(self, tmp_path):
        gan_cfg = gan_config(tmp_path / "gan_out")
        assert run_experiment(write_config(tmp_path, gan_cfg, "gan.json")) == EXIT_OK
        vae_cfg = vae_config(tmp_path / "vae_out")
        assert run_experiment(write_config(tmp_path, vae_cfg, "vae.json")) == EXIT_OK
        report = json.loads((tmp_path / "vae_out" / "report.json").read_text())
        assert report["ledger"]["mode"] in ("no-uc", "minimal")

    def test_planted_wrong_vjp_exits_two_with_correct_jacobian(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        path = write_config(tmp_path, gan_config(out))
        problem = build_problem(normalize_config(gan_config(out)))
        model = problem.model

        def doubled(x, th, f=model.forward_vjp):
            z, pull = f(x, th)
            return z, lambda g: 2.0 * pull(g)

        buggy = dataclasses.replace(model, forward_vjp=doubled)
        bad = dataclasses.replace(problem, model=buggy, F=induce(buggy, problem.data))
        assert check_gradients(problem) <= 1e-5
        assert check_gradients(bad) > 1e-5
        monkeypatch.setattr(cli, "build_problem", lambda cfg: bad)
        assert main(["run", path]) == EXIT_VIOLATION
        report = json.loads((out / "report.json").read_text())
        assert not report["gradient_check"]["passed"]
        assert report["gradient_check"]["max_fd_error"] == pytest.approx(0.5)


class TestNumericFailure:
    def test_mid_run_failure_exits_three_with_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="r1 critic score"):
            code = run_experiment(write_config(tmp_path, r1_unsquashed_config(out)))
        assert code == EXIT_NUMERIC
        message = "r1 real-side score must satisfy y > 0 at iteration 2"
        assert f"error: {message}" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == EXIT_NUMERIC
        assert report["numeric_failure"] == {"message": message, "iteration": 2}
        assert "ledger" in report and "verdicts" not in report
        assert not (out / "trace.csv").exists()

    def test_sweep_reports_worst_code_and_keeps_every_row(self, tmp_path):
        out = tmp_path / "sweep"
        path = write_config(tmp_path, r1_unsquashed_config(out))
        with pytest.warns(RuntimeWarning, match="r1 critic score"):
            assert sweep(path, "alpha", [1.0, 3.0]) == EXIT_NUMERIC
        codes = [json.loads((out / sub / "report.json").read_text())["exit_code"]
                 for sub in ("alpha=1", "alpha=3")]
        assert codes == [EXIT_OK, EXIT_NUMERIC]
        rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[3]) for r in rows] == [("1", "200"), ("3", "")]

    def test_gate_failure_exits_three_with_report(self, tmp_path, capsys):
        # disc seed 6 puts a real-side initial score at y < 0, outside the r1
        # domain, so the gradient gate's first objective evaluation fails
        out = tmp_path / "out"
        cfg = r1_unsquashed_config(out, alpha=0.01)
        cfg["problem"]["disc"]["seed"] = 6
        path = write_config(tmp_path, cfg)
        with pytest.warns(RuntimeWarning, match="outside"):
            assert main(["run", path]) == EXIT_NUMERIC
        message = "r1 real-side score must satisfy y > 0"
        assert f"error: {message}" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == EXIT_NUMERIC
        assert report["numeric_failure"] == {"message": message, "iteration": None}
        assert "gradient_check" not in report and "ledger" not in report
        assert not (out / "trace.csv").exists()
        with pytest.warns(RuntimeWarning, match="outside"):
            assert sweep(path, "alpha", [0.01]) == EXIT_NUMERIC
        report = json.loads((out / "alpha=0.01" / "report.json").read_text())
        assert report["exit_code"] == EXIT_NUMERIC

    def test_non_finite_map_value_exits_three_with_report(self, tmp_path, monkeypatch, capsys):
        # a model whose outputs are NaN fails in the gradient gate's first
        # objective evaluation: a numeric failure, not a raw traceback
        out = tmp_path / "out"
        path = write_config(tmp_path, rf_config(out, max_iter=10))
        problem = build_problem(normalize_config(rf_config(out, max_iter=10)))
        model = problem.model

        def nan_forward(x, th):
            return np.full((len(x), model.out_dim), np.nan)

        broken = dataclasses.replace(model, forward=nan_forward)
        bad = dataclasses.replace(problem, model=broken, F=induce(broken, problem.data))
        monkeypatch.setattr(cli, "build_problem", lambda cfg: bad)
        assert run_experiment(path) == EXIT_NUMERIC
        assert "error: non-finite integrand" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == EXIT_NUMERIC
        assert report["numeric_failure"]["iteration"] is None
        assert not (out / "trace.csv").exists()

    def test_objective_overflowing_in_the_gate_exits_three_with_report(self, tmp_path, capsys):
        # a beta at the float maximum makes the VAE objective's gradient
        # overflow: a numeric failure, not a gradient scored wrong
        out = tmp_path / "out"
        cfg = {"problem": {"family": "vae", "encoder": {"width": 3}, "decoder": {"width": 1},
                           "latent_dim": 3, "beta": 1.7976931348623157e308, "noise": {"count": 1},
                           "dataset": {"synthetic": {"kind": "gaussian", "d": 1, "in_dim": 1,
                                                     "target_dim": 0}}},
               "output": {"dir": str(out)}}
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_NUMERIC
        message = "gradient gate: non-finite finite-difference score inf"
        assert capsys.readouterr().err == f"error: {message}\n"
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == EXIT_NUMERIC
        assert report["numeric_failure"] == {"message": message, "iteration": None}
        assert "gradient_check" not in report

    def test_certificate_failure_exits_three_with_report(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        path = write_config(tmp_path, rf_config(out, max_iter=10))

        def failing(*args, **kwargs):
            raise NumericFailure("non-finite certificate")

        monkeypatch.setattr(cli, "make_certificates", failing)
        assert check_experiment(path) == EXIT_NUMERIC
        report = json.loads((out / "report.json").read_text())
        assert report["gradient_check"]["passed"]
        assert report["numeric_failure"] == {"message": "non-finite certificate",
                                             "iteration": None}


def shallow_ball_config(outdir, radius):
    """A shallow net on 4 samples with sampled certificates on a declared ball."""
    return {
        "problem": {
            "family": "supervised",
            "model": {"kind": "shallow", "in_dim": 2, "width": 4, "seed": 1},
            "dataset": {
                "synthetic": {"kind": "gaussian", "d": 4, "in_dim": 2, "target_dim": 1, "seed": 3}
            },
            "integrand": {"kind": "least_squares"},
            "ball_radius": radius,
        },
        "certificates": {"mode": "sampled", "n_samples": 4},
        "output": {"dir": str(outdir)},
    }


def vae_ball_config(outdir, radius):
    """A two-noise-draw VAE on 4 samples with sampled certificates on a declared ball."""
    return {
        "problem": {
            "family": "vae",
            "encoder": {"width": 2}, "decoder": {"width": 3}, "latent_dim": 1, "beta": 1,
            "noise": {"count": 2},
            "dataset": {
                "synthetic": {"kind": "gaussian", "d": 4, "in_dim": 2, "target_dim": 0, "seed": 3}
            },
            "ball_radius": radius,
        },
        "certificates": {"mode": "sampled", "n_samples": 4},
        "output": {"dir": str(outdir)},
    }


def plgd_process(*args, **variables):
    """``python -m plgd.cli *args`` in a fresh interpreter with its default
    warning filters and the environment ``variables`` set, killed after 60 s."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"} | variables
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "plgd.cli", *args], capture_output=True,
                          text=True, timeout=60, env=env)


class TestSampledBallEdges:
    """Schema-valid declared balls that once hung or ended in a traceback."""

    @pytest.mark.parametrize("make, radius",
                             [(shallow_ball_config, 1e-13), (vae_ball_config, 1e-300)],
                             ids=["shallow", "vae"])
    def test_ball_below_the_pair_floor_exits_one_in_time(self, tmp_path, make, radius):
        out = tmp_path / "out"
        proc = plgd_process("check", write_config(tmp_path, make(out, radius)))
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == (f"error: sampled certificates need a ball radius of 0 or at "
                               f"least 1e-09; got {radius:g}\n")
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("radius", [0, 1e-9])
    def test_ball_at_zero_or_the_floor_still_runs(self, tmp_path, radius):
        out = tmp_path / "out"
        path = write_config(tmp_path, shallow_ball_config(out, radius))
        assert check_experiment(path) == EXIT_OK
        assert json.loads((out / "report.json").read_text())["declared_ball_radius"] == radius

    def test_non_finite_jacobian_on_a_wide_ball_exits_three_with_report(self, tmp_path):
        # the VAE's exp overflows far from theta0, so 3 of its 4 sampled
        # Jacobians hold non-finite entries; a fresh interpreter keeps the
        # overflow warnings from being raised as errors
        out = tmp_path / "out"
        proc = plgd_process("check", write_config(tmp_path, vae_ball_config(out, 1e4)))
        assert proc.returncode == EXIT_NUMERIC
        assert "Traceback" not in proc.stderr
        assert "error: non-finite entries in a 17 x 17 weighted Gram\n" in proc.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == EXIT_NUMERIC
        assert report["numeric_failure"] == {
            "message": "non-finite entries in a 17 x 17 weighted Gram", "iteration": None}


TRACE_HEADER = "iter,loss,gap,q_bound,grad_norm,step_norm,step_bound,dist_init,dist_bound"


def reference_csvs(trace, ledger) -> tuple[str, str]:
    """trace.csv and bounds.csv built one cell at a time with ``cli._fmt``:
    the byte oracle for the column-wise writers."""
    f_star, q, K = ledger.f_star, ledger.q, ledger.K
    gap0 = None if f_star is None else float(trace.losses[0]) - f_star
    lines = [TRACE_HEADER]
    for i in range(len(trace.losses)):
        stepped = i < trace.n_steps
        row = (
            i,
            float(trace.losses[i]),
            None if f_star is None else float(trace.losses[i]) - f_star,
            None if q is None or gap0 is None else (q**i) * gap0,
            float(trace.grad_norms[i]),
            float(trace.step_norms[i]) if stepped else None,
            (None if q is None or K is None or not stepped
             else ledger.alpha * math.sqrt(q) ** i * K),
            float(trace.dist_from_init[i]),
            ledger.dist_bound(),
        )
        lines.append(",".join(cli._fmt(c) for c in row))
    t = monitor_rows(trace, ledger)
    rows = zip(t.name, t.iteration, t.measured, t.bound, t.holds)
    bounds = ["inequality,iter,measured,bound,holds"] + [
        f"{name},{i},{cli._fmt(measured)},{cli._fmt(bound)},{holds}"
        for name, i, measured, bound, holds in rows
    ]
    return "\n".join(lines) + "\n", "\n".join(bounds) + "\n"


def pipeline(cfg):
    """The trace, ledger and verdicts of a run of ``cfg``, made as ``plgd run``
    makes them."""
    cfg = normalize_config(cfg)
    prob = build_problem(cfg)
    cert, obj, _, radius = make_certificates(prob, **cfg["certificates"],
                                             ball_radius=cfg["problem"]["ball_radius"])
    alpha = cfg["descent"]["alpha"]
    try:
        ledger = build_ledger(prob.F, obj, prob.theta0, cert, alpha=alpha)
    except MissingCertificate:
        ledger = minimal_ledger(alpha)
    trace, verdicts = run(prob.F, obj, prob.theta0, ledger, max_iter=cfg["descent"]["max_iter"],
                          declared_radius=radius)
    return trace, ledger, verdicts


def with_k_f(cfg, k_f):
    cfg["certificates"]["overrides"] = {"K_F": k_f}
    return cfg


def export_cases():
    """(trace, ledger, verdicts) triples: runs with a full analytic, a full
    sampled, a no-uc and a minimal ledger, a run that starts at its optimum,
    one that diverges and one whose lowered K_F breaks its bounds; plus the
    analytic run's trace under a no-uc and a minimal ledger, and its first
    iterate alone under the full ledger."""
    sampled = rf_config("unused", max_iter=300, mode="sampled")
    sampled["problem"]["model"] = {"kind": "shallow", "in_dim": 3, "width": 16, "seed": 1}
    at_optimum = tight_config("unused")
    at_optimum["problem"]["dataset"]["inline"]["targets"] = [[0.0]]  # F(theta0) = 0
    cases = {
        "full": pipeline(rf_config("unused", max_iter=300)),
        "sampled": pipeline(sampled),
        "no-uc run": pipeline(rf_config("unused", width=2, max_iter=300)),  # p < d·l
        "critic": pipeline(gan_config("unused")),
        "at-optimum": pipeline(at_optimum),
        "diverged": pipeline(with_k_f(rf_config("unused", max_iter=300), 0.4)),
        "low-K_F": pipeline(with_k_f(rf_config("unused", max_iter=300), 0.45)),
    }
    modes = {case: (ledger.mode, ledger.provenance, trace.n_steps, trace.diverged)
             for case, (trace, ledger, _) in cases.items()}
    assert modes == {
        "full": ("full", "analytic", 300, False),
        "sampled": ("full", "sampled", 300, False),
        "no-uc run": ("no-uc", "analytic", 300, False),
        "critic": ("minimal", "analytic", 20, False),
        "at-optimum": ("full", "analytic", 0, False),
        "diverged": ("full", "analytic", 6, True),
        "low-K_F": ("full", "analytic", 300, False),
    }
    assert cases["low-K_F"][2].violations()

    trace, full, _ = cases["full"]
    prob = build_problem(normalize_config(rf_config("unused")))
    no_uc = dataclasses.replace(full, lam_F=None, lam=None, q=None, radius_required=None)
    still = DescentTrace(
        iterates=trace.iterates[:1], losses=trace.losses[:1], grad_norms=trace.grad_norms[:1],
        step_norms=trace.step_norms[:0], dist_from_init=trace.dist_from_init[:1],
        stop_gap=1.0, predicted_iters=0,
    )
    swapped = {"no-uc": (trace, no_uc), "minimal": (trace, minimal_ledger(full.alpha)),
               "no-steps": (still, full)}
    for case, (t, ledger) in swapped.items():
        cases[case] = (t, ledger, verify(t, ledger, prob.F, prob.f))
    return cases


class TestExports:
    def test_csv_bytes_match_per_cell_reference(self, tmp_path):
        for case, (trace, ledger, _) in export_cases().items():
            assert_exports_match(tmp_path / case, trace, ledger)

    def test_verdicts_match_the_whole_run_table(self):
        for case, (trace, ledger, verdicts) in export_cases().items():
            table = monitor_rows(trace, ledger)
            # the inequalities whose constants the ledger holds
            grouped = {name for _, names, _ in descent._groups(trace, ledger) for name in names}
            for name in MONITORED:
                got, want = verdicts.get(name).as_dict(), reference_verdict(table, name)
                if want is None and name in grouped:
                    assert (got["passed"], got["detail"]) == (None, "no step taken"), (case, name)
                elif want is None:
                    assert got["passed"] is None, (case, name)
                    assert got["detail"].startswith("constants unavailable"), (case, name)
                else:
                    assert {k: got[k] for k in want} == want, (case, name)

    def test_run_builds_no_whole_run_table(self, monkeypatch):
        want = {case: v.as_list() for case, (_, _, v) in export_cases().items()}

        def whole_table(*args):
            raise AssertionError("a whole-run monitor table was built")

        monkeypatch.setattr(descent, "monitor_rows", whole_table)
        monkeypatch.setattr(descent, "_table", whole_table)
        got = {case: v.as_list() for case, (_, _, v) in export_cases().items()}
        assert got == want

    def test_rows_span_several_write_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rowfmt, "_BLOCK", 7)
        for case, (trace, ledger, _) in export_cases().items():
            assert_exports_match(tmp_path / case, trace, ledger)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_traced_monitor_rows_count_every_row(self, tmp_path, monkeypatch, cpus):
        # perfbench/spans.py wraps cli.monitor_rows and sums len() of its results
        monkeypatch.setattr(rowfmt, "_BLOCK", 7)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        counted, monitor = [], cli.monitor_rows

        def count_rows(*args, **kwargs):
            rows = monitor(*args, **kwargs)
            counted.append(len(rows))
            return rows

        monkeypatch.setattr(cli, "monitor_rows", count_rows)
        trace, ledger, _ = export_cases()["full"]
        cli._write_bounds_csv(tmp_path / "bounds.csv", trace, ledger)
        assert len(counted) > 1 and sum(counted) == monitor_size(trace, ledger)

    @pytest.mark.parametrize("do_descent", [True, False], ids=["run", "check"])
    def test_run_and_check_fork_no_process(self, tmp_path, monkeypatch, do_descent):
        # tables of several blocks, two usable CPUs
        monkeypatch.setattr(rowfmt, "_BLOCK", 7)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        forks = count_forks(monkeypatch)
        report, lines, warned = cli._run_config(
            normalize_config(rf_config(tmp_path, max_iter=30)), tmp_path, "", do_descent)
        assert (report["exit_code"], lines, warned) == (EXIT_OK, [], [])
        assert (tmp_path / "bounds.csv").exists() == do_descent
        assert forks == []

    def test_trace_writer_holds_one_chunk(self, tmp_path):
        # a synthetic trace of n steps under a full ledger: the writer's peak
        # does not grow with n
        ledger = ConstantsLedger(alpha=0.5, f_star=0.0, L=1.0, lam=0.5, q=0.75, K=1.0)

        def peak(n):
            series = np.linspace(2.0, 1.0, n + 1)
            trace = DescentTrace(iterates=np.zeros((2, 1)), losses=series, grad_norms=series,
                                 step_norms=series[:n], dist_from_init=series,
                                 stop_gap=0.0, predicted_iters=None)
            tracemalloc.start()
            try:
                cli._write_trace_csv(tmp_path / "trace.csv", trace, ledger)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(10**4), peak(10**5)
        assert large - small < 65536  # whole-run columns would add ~4 MB


    def test_bounds_writer_holds_one_chunk(self, tmp_path):
        # the same synthetic traces: the bounds.csv writer's peak does not grow with n
        ledger = ConstantsLedger(alpha=0.5, f_star=0.0, L=1.0, lam=0.5, q=0.75, K=1.0)

        def peak(n):
            series = np.linspace(2.0, 1.0, n + 1)
            trace = DescentTrace(iterates=np.zeros((2, 1)), losses=series, grad_norms=series,
                                 step_norms=series[:n], dist_from_init=series,
                                 stop_gap=0.0, predicted_iters=None)
            # the trace's derived series, which the verdicts compute before any export
            trace.sq_grad_norms, trace.sq_step_norms, trace.path_lengths
            tracemalloc.start()
            try:
                cli._write_bounds_csv(tmp_path / "bounds.csv", trace, ledger)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(10**4), peak(10**5)
        assert large - small < 65536  # a whole-run table would add ~20 MB

    def test_report_writes_non_finite_numbers_as_strings(self, tmp_path):
        report = {"a": math.inf, "b": [-math.inf, np.float64("nan"), 1.5],
                  "c": {"d": np.array([np.inf, 2.0])}, "e": None}
        cli._write_report(report, {"output": {"formats": ["json"]}}, tmp_path)

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        got = json.loads((tmp_path / "report.json").read_text(), parse_constant=refuse)
        assert got == {"a": "inf", "b": ["-inf", "nan", 1.5], "c": {"d": ["inf", 2.0]},
                       "e": None}


def count_forks(monkeypatch) -> list:
    """The pids of the children forked by this process from now on, as the
    list returned."""
    forks = []

    class Counted(cli._Child):
        def __init__(self, work):
            super().__init__(work)
            forks.append(self.pid)

    monkeypatch.setattr(cli, "_Child", Counted)
    return forks


def assert_exports_match(outdir, trace, ledger):
    cli._write_trace_csv(outdir / "trace.csv", trace, ledger)
    cli._write_bounds_csv(outdir / "bounds.csv", trace, ledger)
    want_trace, want_bounds = reference_csvs(trace, ledger)
    assert (outdir / "trace.csv").read_bytes() == want_trace.encode(), outdir
    assert (outdir / "bounds.csv").read_bytes() == want_bounds.encode(), outdir


def test_closest_optimum_adjoint_matches_probed_adjoint():
    # closest_optimum derives A* from the matrix; the reference probes A*
    # with unit vectors and steps with the probed matrix, after solving with
    # the Gram symmetrize(A A*) formed as B B^T, B = D_cod^1/2 M D_dom^-1/2
    prob = build_problem(normalize_config(rf_config("unused", width=256)))
    a = prob.F.linear_op
    mat_a, w = a.mat, a.codomain.weights
    probed = np.stack([a.adjoint_apply(e) for e in np.eye(a.codomain.dim)], axis=1)
    np.testing.assert_allclose((mat_a.T * w) / a.domain.weights[:, None], probed, rtol=0, atol=0)
    x0 = a.domain._coords(prob.theta0)
    b = (np.sqrt(w)[:, None] * mat_a) / np.sqrt(a.domain.weights)[None, :]
    np.testing.assert_allclose(b @ b.T, symmetrize(mat_a @ probed, w), rtol=1e-12, atol=0)
    y = weighted_solve(b @ b.T, w, prob.f.minimizer - a.apply(x0))
    x_hat = closest_optimum(prob.F, prob.f, prob.theta0)
    np.testing.assert_allclose(x_hat, x0 + probed @ y, rtol=0, atol=0)


class TestCheckCommand:
    def test_ledger_only_no_trace(self, tmp_path):
        out = tmp_path / "out"
        code = check_experiment(write_config(tmp_path, tight_config(out)))
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert "ledger" in report and "verdicts" not in report
        assert not (out / "trace.csv").exists()

    def test_warnings_reach_stderr_as_in_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert check_experiment(write_config(tmp_path, gan_config(out))) == EXIT_OK
        err = capsys.readouterr().err
        warnings = json.loads((out / "report.json").read_text())["warnings"]
        assert any(w.startswith("minimal ledger: ") for w in warnings)
        for w in warnings:
            assert f"warning: {w}" in err


MINIMAL_WARNING = (
    "minimal ledger: full ledger requires the objective's L and f_star; "
    "use minimal_ledger with an explicit alpha otherwise"
)


def forbidden(*args, **kwargs):
    raise AssertionError("a run computed what its ledger cannot use")


def verdict(report, name):
    return next(v for v in report["verdicts"] if v["name"] == name)


class TestSkippedWork:
    """A run computes only the certificates and solves its ledger can use."""

    @pytest.mark.parametrize("command", [run_experiment, check_experiment])
    def test_gan_estimates_no_constant(self, tmp_path, monkeypatch, capsys, command):
        # no GAN integrand has an infimum, so its ledger is minimal whatever
        # the certificates say, and none is estimated
        for name in ("sampled_certificates", "analytic_certificates",
                     "objective_with_estimated_lg"):
            monkeypatch.setattr(cli, name, forbidden)
        out = tmp_path / "out"
        assert command(write_config(tmp_path, gan_config(out))) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["ledger"]["mode"] == "minimal"
        assert report["warnings"] == [MINIMAL_WARNING]
        assert f"warning: {MINIMAL_WARNING}" in capsys.readouterr().err

    def test_supervised_gaussian_nll_runs_on_a_minimal_ledger(self, tmp_path, monkeypatch):
        # gaussian_nll has no infimum either: no constant is estimated, and
        # the run descends with the given alpha and exits 0
        for name in ("sampled_certificates", "objective_with_estimated_lg"):
            monkeypatch.setattr(cli, name, forbidden)
        out = tmp_path / "out"
        cfg = self.gaussian_nll_config(out)
        cfg["certificates"]["mode"] = "sampled"
        cfg["descent"]["max_iter"] = 50
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["ledger"]["mode"] == "minimal"
        assert report["warnings"] == [MINIMAL_WARNING]
        assert report["iterations"]["actual"] == 50

    def test_gan_with_auto_alpha_is_still_refused(self, tmp_path, capsys):
        cfg = gan_config(tmp_path / "out")
        cfg["descent"]["alpha"] = "auto"
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        reason = MINIMAL_WARNING.removeprefix("minimal ledger: ")
        assert f"error: alpha='auto' needs a full ledger but: {reason}" in capsys.readouterr().err

    @staticmethod
    def gaussian_nll_config(out):
        cfg = rf_config(out, mode="analytic")
        cfg["problem"]["model"] = {"kind": "shallow", "in_dim": 3, "width": 4, "seed": 1}
        cfg["problem"]["integrand"] = {"kind": "gaussian_nll"}
        cfg["descent"]["alpha"] = 0.05
        return cfg

    @pytest.mark.parametrize("family", ["gan", "gaussian_nll"])
    def test_analytic_mode_on_nonlinear_model_is_still_refused(self, tmp_path, capsys, family):
        # neither objective has an infimum, so no constant is estimated, but
        # analytic mode on a model not linear in theta stays a config error
        out = tmp_path / "out"
        if family == "gan":
            cfg = gan_config(out)
            cfg["certificates"]["mode"] = "analytic"
        else:
            cfg = self.gaussian_nll_config(out)
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        assert "analytic certificates unavailable for nonlinear model" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("family", ["gan", "gaussian_nll"])
    def test_analytic_mode_on_nonlinear_model_is_refused_before_the_gate(
        self, tmp_path, monkeypatch, capsys, family
    ):
        monkeypatch.setattr(cli, "check_gradients", forbidden)
        out = tmp_path / "out"
        cfg = gan_config(out) if family == "gan" else self.gaussian_nll_config(out)
        cfg["certificates"]["mode"] = "analytic"
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        assert "analytic certificates unavailable for nonlinear model" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_no_uc_run_solves_no_optimum_set(self, tmp_path, monkeypatch):
        # p = 2 < d = 4: no coercivity, so no q and no closest_opt bound
        monkeypatch.setattr(descent, "closest_optimum", forbidden)
        out = tmp_path / "out"
        path = write_config(tmp_path, rf_config(out, width=2, max_iter=10))
        assert run_experiment(path) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["ledger"]["mode"] == "no-uc"
        v = verdict(report, "closest_opt")
        assert v["passed"] is None and not v["hypothesis_met"]
        assert v["detail"] == "constants unavailable"

    def test_full_ledger_run_solves_the_optimum_set_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, real=descent.closest_optimum):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(descent, "closest_optimum", counted)
        out = tmp_path / "out"
        assert run_experiment(write_config(tmp_path, rf_config(out, max_iter=100))) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["ledger"]["mode"] == "full" and len(calls) == 1
        assert verdict(report, "closest_opt")["detail"].startswith("distance to nearest optimum")

    def test_theta_linear_analytic_run_makes_one_gram(self, tmp_path, monkeypatch):
        # the Jacobian does not move with theta: the certificates and both
        # kernel summaries share one Gram
        calls = []

        def counted(*args, real=problems.ntk_gram):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(problems, "ntk_gram", counted)
        out = tmp_path / "out"
        assert run_experiment(write_config(tmp_path, rf_config(out, max_iter=100))) == EXIT_OK
        assert len(calls) == 1
        ntk = json.loads((out / "report.json").read_text())["ntk"]
        assert ntk["theta_star"] == ntk["theta0"]


class TestOutputDirectory:
    """A run first removes the files an earlier run left in its directory."""

    OUTPUTS = ["bounds.csv", "report.json", "theta_star.json", "timings.json", "trace.csv"]

    @classmethod
    def full_run(cls, tmp_path, out):
        path = write_config(tmp_path, rf_config(out, max_iter=10))
        assert run_experiment(path) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == cls.OUTPUTS
        return path

    def test_a_config_error_leaves_no_earlier_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        self.full_run(tmp_path, out)
        cfg = rf_config(out, max_iter=10)
        cfg["descent"]["alpha"] = 1e6
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        assert "error: alpha must lie in (0, 2/L)" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_a_dataset_error_leaves_no_earlier_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        self.full_run(tmp_path, out)
        cfg = rf_config(out, max_iter=10)
        cfg["problem"]["dataset"] = {"path": str(tmp_path / "missing.json")}
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        assert "error: dataset file not found" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_a_failing_sweep_value_leaves_no_earlier_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        cfg = rf_config(tmp_path / "sweep", max_iter=10)
        assert sweep(write_config(tmp_path, cfg), "width", [8.0, 16.0]) == EXIT_OK
        for width in (8, 16):
            assert sorted(p.name for p in (tmp_path / "sweep" / f"width={width}").iterdir()) == (
                self.OUTPUTS
            )
        # two sigmas for a one-column target: no value's problem can be built
        cfg["problem"]["integrand"]["sigma"] = [1.0, 1.0]
        assert sweep(write_config(tmp_path, cfg), "width", [8.0, 16.0]) == EXIT_CONFIG
        assert capsys.readouterr().err.count("integrand.sigma length must match") == 2
        for width in (8, 16):
            assert list((tmp_path / "sweep" / f"width={width}").iterdir()) == []

    @pytest.mark.parametrize("ending", ["gate", "numeric", "check"])
    def test_a_run_without_descent_leaves_only_its_own_files(
        self, tmp_path, monkeypatch, ending
    ):
        out = tmp_path / "out"
        path = self.full_run(tmp_path, out)

        def numeric_failure(*args, **kwargs):
            raise NumericFailure("non-finite loss", iteration=1)

        if ending == "gate":
            monkeypatch.setattr(cli, "check_gradients", lambda *args, **kwargs: 1.0)
            code, expected = run_experiment(path), EXIT_VIOLATION
        elif ending == "numeric":
            monkeypatch.setattr(cli, "run", numeric_failure)
            code, expected = run_experiment(path), EXIT_NUMERIC
        else:
            code, expected = check_experiment(path), EXIT_OK
        assert code == expected
        assert json.loads((out / "report.json").read_text())["exit_code"] == expected
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "timings.json"]


class TestUnreadableFiles:
    """A config or dataset file that is not readable UTF-8 text ends in one
    error line and exit 1, never a traceback."""

    NOT_UTF8 = b"\xff\xfe{}"
    DECODE = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    @pytest.mark.parametrize("command", ["run", "check", "sweep"])
    def test_config_exits_one_with_one_error_line(self, tmp_path, capsys, command, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(self.NOT_UTF8)
        axis = ["--axis", "width", "--values", "4,8"] if command == "sweep" else []
        assert main([command, str(path), "--out", str(tmp_path / "out"), *axis]) == EXIT_CONFIG
        err = capsys.readouterr().err
        if kind == "directory":
            assert err.startswith("io error: ") and str(path) in err, err
        else:
            assert err.startswith(f"error: config {path}: {self.DECODE}"), err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def dataset_config(self, tmp_path, out):
        data = tmp_path / "data.json"
        data.write_bytes(self.NOT_UTF8)
        cfg = rf_config(out, max_iter=10)
        cfg["problem"]["dataset"] = {"path": str(data)}
        return write_config(tmp_path, cfg), data

    def test_dataset_in_a_run_exits_one(self, tmp_path, capsys):
        path, data = self.dataset_config(tmp_path, tmp_path / "out")
        assert run_experiment(path) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: dataset file {data}: {self.DECODE}\n"

    def test_dataset_in_a_sweep_keeps_every_row(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        path, data = self.dataset_config(tmp_path, out)
        assert sweep(path, "width", [4.0, 8.0]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "".join(f"error: width={v}: dataset file {data}: {self.DECODE}\n"
                              for v in (4, 8))
        assert (out / "summary.csv").read_text().splitlines()[1:] == ["4,,,,", "8,,,,"]


class TestTimings:
    PHASES = ["gate", "certificates", "ledger", "descent", "export"]

    @staticmethod
    def timings(out):
        t = json.loads((out / "timings.json").read_text())
        phases = t["phase_seconds"]
        assert all(s >= 0.0 for s in phases.values())
        assert sum(phases.values()) == pytest.approx(t["wall_seconds"], rel=1e-9)
        return list(phases)

    def test_run_times_every_phase(self, tmp_path):
        out = tmp_path / "out"
        assert run_experiment(write_config(tmp_path, rf_config(out, max_iter=100))) == EXIT_OK
        assert self.timings(out) == self.PHASES

    def test_check_has_no_descent_phase(self, tmp_path):
        out = tmp_path / "out"
        assert check_experiment(write_config(tmp_path, rf_config(out))) == EXIT_OK
        assert self.timings(out) == ["gate", "certificates", "ledger", "export"]

    def test_thread_env_is_recorded_in_timings_not_in_the_report(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        path = write_config(tmp_path, rf_config(out, max_iter=100))
        reports = []
        for value in ("1", "2"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
            monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
            monkeypatch.setenv("MKL_NUM_THREADS", "")
            assert run_experiment(path) == EXIT_OK
            t = json.loads((out / "timings.json").read_text())
            assert t["thread_env"] == {"OPENBLAS_NUM_THREADS": value, "OMP_NUM_THREADS": None,
                                       "MKL_NUM_THREADS": ""}
            assert list(t) == ["wall_seconds", "phase_seconds", "thread_env"]
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert b"NUM_THREADS" not in reports[0]

    def test_failed_descent_is_timed_up_to_the_failure(self, tmp_path):
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="outside"):
            code = run_experiment(write_config(tmp_path, r1_unsquashed_config(out)))
        assert code == EXIT_NUMERIC
        assert self.timings(out) == self.PHASES


class TestDeterminism:
    def test_identical_config_and_seed_reproduce_report_bytes(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, rf_config(out, max_iter=500, mode="sampled"))
        assert run_experiment(path) == EXIT_OK
        first = (out / "report.json").read_bytes()
        assert run_experiment(path) == EXIT_OK
        assert (out / "report.json").read_bytes() == first

    def test_seed_override_changes_sampled_report(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, rf_config(out, max_iter=500, mode="sampled"))
        run_experiment(path, seed=0)
        first = (out / "report.json").read_bytes()
        run_experiment(path, seed=1)
        assert (out / "report.json").read_bytes() != first

    @pytest.mark.parametrize("kind, in_dim, width, d, certificates", [
        ("random_features", 8, 256, 64, {"mode": "analytic"}),
        ("shallow", 4, 64, 16, {"mode": "sampled", "n_samples": 32, "seed": 0}),
    ], ids=["rf_certified", "shallow_sampled"])
    def test_one_and_two_blas_threads_give_the_same_bytes(self, tmp_path, kind, in_dim, width,
                                                          d, certificates):
        # the scope README states: at these sizes the BLAS thread count
        # does not reach the output bytes
        cfg = rf_config("unused", max_iter=10000)
        cfg["problem"]["model"].update(kind=kind, in_dim=in_dim, width=width)
        cfg["problem"]["dataset"]["synthetic"].update(d=d, in_dim=in_dim)
        cfg["certificates"] = certificates
        path = write_config(tmp_path, cfg)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads={threads}"
            proc = plgd_process("run", path, "--out", str(out), OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == EXIT_OK, proc.stderr
            echo = json.dumps(str(out)).encode()  # the report's echo of its output dir
            report = (out / "report.json").read_bytes().replace(echo, b'"out"')
            outputs.append([report] + [(out / name).read_bytes()
                                       for name in ("trace.csv", "bounds.csv", "theta_star.json")])
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["iterations"]["actual"] > 2048

    @staticmethod
    def written_bytes(out):
        """Every file a run or sweep wrote under ``out`` but timings.json, each
        report's echo of its output directory normalized."""
        files = {}
        for f in sorted(out.rglob("*")):
            if f.is_file() and f.name != "timings.json":
                data = f.read_bytes()
                if f.name == "report.json":
                    data = data.replace(json.dumps(str(f.parent)).encode(), b'"out"')
                files[str(f.relative_to(out))] = data
        return files

    @pytest.mark.parametrize("workload", ["gate_wide", "gan_sweep"])
    def test_a_wide_gate_and_a_sweep_give_the_same_bytes_under_two_blas_threads(self, tmp_path,
                                                                                 workload):
        if workload == "gate_wide":  # p = 16 < d = 400, ten steps
            cfg = rf_config("unused", max_iter=10)
            cfg["problem"]["model"].update(in_dim=4, width=16)
            cfg["problem"]["dataset"]["synthetic"].update(d=400, in_dim=4)
            args = ["run"]
        else:  # the benchmark's wgan_gp critic sweep, 1000 steps per value
            cfg = gan_config("unused")
            cfg["problem"].update(gan_kind="wgan_gp", beta=1.0)
            cfg["problem"]["disc"].update(width=16, squash=False)
            cfg["problem"]["dataset"]["synthetic"].update(n_real=16, n_gen=16)
            cfg["certificates"]["n_samples"] = 32
            cfg["descent"] = {"alpha": 0.01, "max_iter": 1000}
            args = ["sweep", "--axis", "width", "--values", "8,16"]
        path = write_config(tmp_path, cfg)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads={threads}"
            proc = plgd_process(*args, path, "--out", str(out), OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == EXIT_OK, proc.stderr
            outputs.append(self.written_bytes(out))
        names = {"trace.csv", "bounds.csv", "theta_star.json", "report.json"}
        if workload == "gan_sweep":
            names = {f"width={w}/{n}" for w in (8, 16) for n in names} | {"summary.csv"}
        assert set(outputs[0]) == names
        assert outputs[0] == outputs[1]

    def test_reported_contraction_factor_traceable(self, tmp_path):
        # q in the report must equal its defining formula bit for bit
        out = tmp_path / "out"
        run_experiment(write_config(tmp_path, rf_config(out, max_iter=100)))
        led = json.loads((out / "report.json").read_text())["ledger"]
        q = 1.0 + led["L"] * led["lambda"] * led["alpha"] ** 2 - 2.0 * led["lambda"] * led["alpha"]
        assert abs(q - led["q"]) <= 1e-15 * max(abs(q), 1.0)


class TestSweep:
    def test_width_sweep_summary_and_trend(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = rf_config(out, max_iter=300)
        path = write_config(tmp_path, cfg)
        assert sweep(path, "width", [2, 8, 32]) == EXIT_OK
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "value,lambda_N,q,iterations,dist_from_init"
        rows = {float(l.split(",")[0]): l.split(",") for l in lines[1:]}
        assert len(rows) == 3
        lam_small = float(rows[2.0][1])
        lam_large = float(rows[32.0][1])
        assert lam_large > lam_small
        assert (out / "width=8" / "report.json").exists()

    def test_single_value_sweep_matches_run(self, tmp_path):
        cfg = rf_config(tmp_path / "single")
        path = write_config(tmp_path, cfg)
        assert sweep(path, "width", [32]) == EXIT_OK
        swept = json.loads((tmp_path / "single" / "width=32" / "report.json").read_text())
        cfg_run = rf_config(tmp_path / "direct")
        run_experiment(write_config(tmp_path, cfg_run, "direct.json"))
        direct = json.loads((tmp_path / "direct" / "report.json").read_text())
        assert swept["ledger"] == direct["ledger"]
        assert swept["iterations"] == direct["iterations"]
        assert swept["verdicts"] == direct["verdicts"]

    def test_alpha_sweep_contraction_minimized_near_inverse_l(self, tmp_path):
        base = rf_config(tmp_path / "pre", max_iter=50)
        check_experiment(write_config(tmp_path, base, "pre.json"))
        l_total = json.loads((tmp_path / "pre" / "report.json").read_text())["ledger"]["L"]
        inv = 1.0 / l_total
        values = [0.5 * inv, 0.75 * inv, inv, 1.25 * inv, 1.5 * inv]
        out = tmp_path / "asweep"
        cfg = rf_config(out, max_iter=50)
        assert sweep(write_config(tmp_path, cfg, "a.json"), "alpha", values) == EXIT_OK
        lines = (out / "summary.csv").read_text().splitlines()[1:]
        qs = [(float(l.split(",")[0]), float(l.split(",")[2])) for l in lines]
        best_alpha = min(qs, key=lambda t: t[1])[0]
        assert best_alpha == pytest.approx(inv, rel=1e-9)

    def test_bad_values_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, rf_config(tmp_path / "x"))
        for values, message in (
            ("abc", "error: --values: could not convert string to float: 'abc'"),
            ("8,nan", "error: sweep requires at least one value, all finite; got [8.0, nan]"),
        ):
            assert main(["sweep", path, "--axis", "width", "--values", values]) == EXIT_CONFIG
            assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_values_sharing_a_directory_are_refused_before_any_run(self, tmp_path, capsys):
        # directories are named {axis}={v:g}; two runs into one would mix their files
        path = write_config(tmp_path, rf_config(tmp_path / "x"))
        for axis, values, message in (
            ("alpha", "0.1,0.1000001", "sweep values 0.1 and 0.1000001 share the output "
                                       "directory alpha=0.1"),
            ("width", "8,2,8", "sweep values 8.0 and 8.0 share the output directory width=8"),
        ):
            assert main(["sweep", path, "--axis", axis, "--values", values]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_one_bad_value_keeps_its_row_and_the_sweep_goes_on(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        path = write_config(tmp_path, tight_config(out))
        assert sweep(path, "alpha", [-1.0, 0.5]) == EXIT_CONFIG
        assert ("error: alpha=-1: config.descent.alpha: must be 'auto' or a finite positive "
                "number; got -1.0") in capsys.readouterr().err
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "value,lambda_N,q,iterations,dist_from_init"
        assert lines[1] == "-1,,,,"
        assert lines[2].split(",")[0::3] == ["0.5", "1"]  # value, one step
        assert (out / "alpha=0.5" / "report.json").exists()

    def test_integer_axes_reject_fractional_values(self, tmp_path, capsys):
        path = write_config(tmp_path, rf_config(tmp_path / "x"))
        for axis in ("width", "datasize"):
            assert main(["sweep", path, "--axis", axis, "--values", "8,8.5"]) == EXIT_CONFIG
            message = f"error: sweep axis {axis}: values must be integers >= 1; got 8.5"
            assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("make, name, keys", [
        (tight_config, "model", {"kind": "linear", "in_dim": 2}),
        (gan_config, "disc", {"kind": "linear"}),
    ])
    def test_width_sweep_of_a_linear_model_or_critic_is_refused_before_any_run(
        self, tmp_path, capsys, make, name, keys
    ):
        cfg = make(tmp_path / "x")
        cfg["problem"][name] = keys
        path = write_config(tmp_path, cfg)
        assert main(["sweep", path, "--axis", "width", "--values", "2,4"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: config.problem.{name}.width: kind 'linear' takes none; got 2\n"
        assert not (tmp_path / "x").exists()

    def test_width_sweep_of_a_vae_sets_the_encoder_and_the_decoder(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = vae_config(out)
        cfg["descent"]["alpha"] = "auto"  # alpha 0.1 is above 2/L at width 3
        assert sweep(write_config(tmp_path, cfg), "width", [3]) == EXIT_OK
        report = json.loads((out / "width=3" / "report.json").read_text())
        problem = report["config"]["problem"]
        assert problem["encoder"]["width"] == problem["decoder"]["width"] == 3
        # encoder 2 -> 3 -> 2 and decoder 1 -> 3 -> 2 shallow nets
        assert report["problem"]["param_dim"] == (3 * 2 + 2 * 3) + (3 * 1 + 2 * 3)

    def test_unknown_axis_rejected(self, tmp_path):
        path = write_config(tmp_path, rf_config(tmp_path / "x"))
        assert sweep(path, "depth", [1.0]) == EXIT_CONFIG

    def test_datasize_requires_synthetic(self, tmp_path):
        cfg = tight_config(tmp_path / "x")
        path = write_config(tmp_path, cfg)
        assert sweep(path, "datasize", [4.0]) == EXIT_CONFIG


class TestConfigValidation:
    @pytest.mark.parametrize(
        "make, field, value",
        [
            (rf_config, "problem.model.width", -3),
            (rf_config, "problem.model.width", 2.5),
            (rf_config, "problem.model.width", 0),
            (rf_config, "problem.model.width", True),
            (rf_config, "problem.model.in_dim", 0),
            (rf_config, "problem.model.out_dim", 1.0),
            (rf_config, "problem.integrand.classes", 0),
            (vae_config, "problem.encoder.width", 0),
            (vae_config, "problem.decoder.width", 2.5),
            (vae_config, "problem.latent_dim", -1),
            (vae_config, "problem.noise.count", 0),
            (gan_config, "problem.disc.width", 0),
            (gan_config, "problem.disc.width", "8"),
            (tight_config, "certificates.n_samples", "8"),
            (tight_config, "descent.max_iter", 2.5),
        ],
    )
    def test_sizes_must_be_positive_ints(self, tmp_path, capsys, make, field, value):
        cfg = make(tmp_path / "out")
        *parents, key = field.split(".")
        section = cfg
        for part in parents:
            section = section[part]
        section[key] = value
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: config.{field}: must be an integer >= 1; got {value!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, rule",
        [
            ("stop_gap", "abc", "must be null or a finite number >= 0"),
            ("stop_gap", float("nan"), "must be null or a finite number >= 0"),
            ("stop_gap", float("inf"), "must be null or a finite number >= 0"),
            ("stop_gap", -1.0, "must be null or a finite number >= 0"),
            ("stop_gap", True, "must be null or a finite number >= 0"),
            ("alpha", True, "must be 'auto' or a finite positive number"),
            ("alpha", float("nan"), "must be 'auto' or a finite positive number"),
            ("alpha", float("inf"), "must be 'auto' or a finite positive number"),
            ("alpha", 10**400, "must be 'auto' or a finite positive number"),
            ("alpha", "0.5", "must be 'auto' or a finite positive number"),
        ],
        ids=["stop_gap_str", "stop_gap_nan", "stop_gap_inf", "stop_gap_negative",
             "stop_gap_bool", "alpha_bool", "alpha_nan", "alpha_inf", "alpha_huge_int",
             "alpha_str"],
    )
    def test_descent_numbers_are_validated(self, tmp_path, capsys, key, value, rule):
        cfg = tight_config(tmp_path / "out")
        cfg["descent"][key] = value
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: config.descent.{key}: {rule}; got {value!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("stop_gap", 0), ("stop_gap", None),
                                            ("alpha", 1), ("alpha", "auto")])
    def test_descent_numbers_accepted(self, tmp_path, key, value):
        cfg = tight_config(tmp_path / "out", alpha=0.25)
        cfg["descent"][key] = value
        assert normalize_config(cfg)["descent"][key] == value

    @pytest.mark.parametrize(
        "make, key, value, least",
        [
            (rf_config, "d", 2.5, 1),
            (rf_config, "d", 0, 1),
            (rf_config, "in_dim", "3", 1),
            (rf_config, "target_dim", -1, 0),
            (rf_config, "target_dim", 1.0, 0),
            (rf_config, "classes", True, 1),
            (gan_config, "n_real", 0, 1),
            (gan_config, "n_gen", 1.5, 1),
        ],
    )
    def test_synthetic_sizes_must_be_ints(self, tmp_path, capsys, make, key, value, least):
        cfg = make(tmp_path / "out")
        spec = cfg["problem"]["dataset"]["synthetic"]
        if key == "classes":
            del spec["target_dim"]
            spec["kind"] = "classes"
        spec[key] = value
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: dataset.synthetic.{key}: must be an integer >= {least}; got {value!r}\n"
        assert not (tmp_path / "out").exists()

    def test_family_specific_keys(self):
        with pytest.raises(InvalidConfig):
            normalize_config({"problem": {"family": "mystery"}})
        with pytest.raises(InvalidConfig):
            normalize_config({"problem": {"family": "supervised"}})  # missing keys

    def test_dataset_choice_exclusive(self, tmp_path):
        cfg = tight_config(tmp_path)
        cfg["problem"]["dataset"]["synthetic"] = {"kind": "gaussian", "d": 1, "in_dim": 1}
        with pytest.raises(InvalidConfig):
            normalize_config(cfg)

    def test_defaults_applied(self, tmp_path):
        cfg = normalize_config(tight_config(tmp_path))
        assert cfg["certificates"]["mode"] == "analytic"
        assert cfg["certificates"]["n_samples"] == 32
        assert cfg["descent"]["max_iter"] == 100
        assert cfg["output"]["formats"] == ["csv", "json"]

    @pytest.mark.parametrize(
        "make, field, value, rule",
        [
            (tight_config, "problem.ball_radius", -1, "must be null or a finite number >= 0"),
            (tight_config, "problem.ball_radius", "x", "must be null or a finite number >= 0"),
            (tight_config, "problem.integrand.sigma", [-1], None),
            (tight_config, "problem.integrand.sigma", ["a"], None),
            (tight_config, "certificates.overrides", {"K_F": "a"}, None),
            (tight_config, "certificates.overrides", {"K_F": -1}, None),
            (tight_config, "certificates.seed", "a", "must be an integer >= 0"),
            (tight_config, "certificates.seed", -1, "must be an integer >= 0"),
            (rf_config, "problem.model.seed", "a", "must be an integer >= 0"),
            (gan_config, "problem.beta", -1, "must be a finite positive number"),
            (gan_config, "problem.beta", "abc", "must be a finite positive number"),
            (vae_config, "problem.beta", "abc", "must be a finite positive number"),
            (gan_config, "problem.disc.squash", "yes", "must be True or False"),
            (tight_config, "output.dir", 5, "must be a string"),
            (tight_config, "output.formats", "csv", "must be a list"),
        ],
    )
    def test_values_are_checked_against_the_table(self, tmp_path, capsys, make, field, value,
                                                  rule):
        cfg = make(tmp_path / "out")
        put(cfg, field.split("."), value)
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        err = capsys.readouterr().err
        if rule is None:  # a section or a list: the message names the entry
            assert re.fullmatch(rf"error: config\.{re.escape(field)}[.\[][^\n]*\n", err), err
        else:
            assert err == f"error: config.{field}: {rule}; got {value!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, rule",
        [
            ("seed", 1.5, "must be an integer >= 0"),
            ("separation", "far", "must be a finite number"),
        ],
    )
    def test_synthetic_values_are_checked(self, tmp_path, capsys, key, value, rule):
        cfg = gan_config(tmp_path / "out")
        cfg["problem"]["dataset"]["synthetic"][key] = value
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: dataset.synthetic.{key}: {rule}; got {value!r}\n"

    @pytest.mark.parametrize(
        "make, name, keys, key",
        [
            (rf_config, "integrand", {"kind": "gaussian_nll", "sigma": [1.0]}, "sigma"),
            (classes_config, "integrand", {"kind": "softmax", "classes": 2, "sigma": [1.0]},
             "sigma"),
            (rf_config, "integrand", {"kind": "least_squares", "classes": 2}, "classes"),
            (tight_config, "model", {"kind": "linear", "in_dim": 2, "width": 4}, "width"),
            (gan_config, "disc", {"kind": "linear", "width": 6}, "width"),
            (gan_config, "disc", {"kind": "linear", "squash": True}, "squash"),
            (tight_config, "model", {"kind": "linear", "in_dim": 2, "seed": 5}, "seed"),
            (tight_config, "model", {"kind": "linear", "in_dim": 2, "seed": 0}, "seed"),
            (gan_config, "disc", {"kind": "linear", "seed": 7}, "seed"),
            (gan_config, "disc", {"kind": "linear", "seed": 0}, "seed"),
        ],
    )
    def test_keys_the_kind_ignores_are_refused(self, tmp_path, capsys, make, name, keys, key):
        cfg = make(tmp_path / "out")
        cfg["problem"][name] = keys
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"error: config.problem.{name}.{key}: kind {keys['kind']!r} takes none; "
                       f"got {keys[key]!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "make, name, keys, seed",
        [
            (tight_config, "model", {"kind": "linear", "in_dim": 2}, None),
            (rf_config, "model", {"kind": "random_features", "in_dim": 3, "width": 8}, 0),
            (rf_config, "model", {"kind": "shallow", "in_dim": 3, "width": 8, "seed": 5}, 5),
            (gan_config, "disc", {"kind": "linear"}, None),
            (gan_config, "disc", {"kind": "shallow", "width": 6}, 0),
        ],
    )
    def test_seed_is_echoed_null_for_a_linear_kind_and_defaults_to_zero(self, tmp_path, make,
                                                                         name, keys, seed):
        cfg = make(tmp_path / "out")
        cfg["problem"][name] = keys
        echo = normalize_config(cfg)
        got = echo["problem"][name]["seed"]
        assert (got, type(got)) == (seed, type(seed))
        assert normalize_config(echo) == echo  # a run checks its echo again

    @pytest.mark.parametrize(
        "make, name, keys, key",
        [
            (rf_config, "model", {"kind": "shallow", "in_dim": 3}, "width"),
            (classes_config, "integrand", {"kind": "softmax"}, "classes"),
            (gan_config, "disc", {"kind": "shallow"}, "width"),
        ],
    )
    def test_keys_the_kind_requires_are_refused_when_null(self, tmp_path, capsys, make, name,
                                                          keys, key):
        cfg = make(tmp_path / "out")
        cfg["problem"][name] = keys
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"error: config.problem.{name}.{key}: required key missing for kind "
                       f"{keys['kind']!r}\n")
        assert not (tmp_path / "out").exists()

    def test_model_out_dim_conflicting_with_the_integrand_exits_one(self, tmp_path, capsys):
        cfg = rf_config(tmp_path / "out")
        cfg["problem"]["model"]["out_dim"] = 2
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: model.out_dim 2 conflicts with integrand dimension 1\n"
        assert not (tmp_path / "out").exists()


class TestOverrideConsistency:
    """User-given constants that break lambda_F <= K_F^2 are a config error."""

    @pytest.mark.parametrize(
        "overrides",
        [{"lambda_F": 100}, {"K_F": 0}, {"K_F": 0.5, "lambda_F": 1.0}],
        ids=["lambda_above_analytic_K2", "K_zero_under_analytic_lambda", "both_given"],
    )
    def test_inconsistent_overrides_exit_one(self, tmp_path, capsys, overrides):
        cfg = tight_config(tmp_path / "out", alpha="auto")
        cfg["certificates"]["overrides"] = overrides
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: config\.certificates\.overrides: inconsistent certificate: "
            r"lam=\S+ exceeds K\^2=\S+\n", err
        ), err

    def test_zero_lambda_is_refused_by_the_table(self, tmp_path, capsys):
        cfg = tight_config(tmp_path / "out")
        cfg["certificates"]["overrides"] = {"lambda_F": 0}
        assert run_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: config.certificates.overrides.lambda_F: "
            "must be null or a finite positive number; got 0\n"
        )

    @pytest.mark.parametrize("key", ["K_F", "L_F"])
    def test_override_whose_square_overflows_exits_one(self, tmp_path, capsys, key):
        cfg = tight_config(tmp_path / "out", alpha="auto")
        cfg["certificates"]["overrides"] = {key: 1e308}
        assert check_experiment(write_config(tmp_path, cfg)) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: config.certificates.overrides.{key}: "
            "must be null or a finite number >= 0 with a finite square; got 1e+308\n"
        )

    def test_override_whose_ledger_overflows_exits_three(self, tmp_path, capsys):
        # K_F^2 = 1e308 is finite, but K = sqrt(2 L gap0) at gap0 = 8 is not
        cfg = tight_config(tmp_path / "out", alpha="auto")
        cfg["certificates"]["overrides"] = {"K_F": 1e154}
        message = "non-finite ledger constants: L = 1e+308, K = inf"
        for command in (check_experiment, run_experiment):
            assert command(write_config(tmp_path, cfg)) == EXIT_NUMERIC
            assert capsys.readouterr().err == f"error: {message}\n"
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            assert report["numeric_failure"] == {"message": message, "iteration": None}

    def test_consistent_overrides_still_run(self, tmp_path):
        cfg = tight_config(tmp_path / "out", alpha="auto")
        cfg["certificates"]["overrides"] = {"K_F": 2.0, "lambda_F": 1.0}
        assert check_experiment(write_config(tmp_path, cfg)) == EXIT_OK


class TestSweepChecksEachValue:
    def test_bad_beta_keeps_its_row_and_the_sweep_goes_on(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        cfg = gan_config(out)
        cfg["problem"]["gan_kind"] = "wgan_gp"
        assert sweep(write_config(tmp_path, cfg), "beta", [-1.0, 1.0]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert ("error: beta=-1: config.problem.beta: must be a finite positive number; "
                "got -1.0\n") in err
        assert "Traceback" not in err
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[1] == "-1,,,,"
        assert lines[2].split(",")[0::3] == ["1", "20"]  # value, its 20 steps
        assert not (out / "beta=-1").exists()

    def test_each_value_prints_its_warnings_and_numeric_failure(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        path = write_config(tmp_path, gan_config(out))
        assert sweep(path, "alpha", [0.05]) == EXIT_OK
        assert f"warning: alpha=0.05: {MINIMAL_WARNING}\n" in capsys.readouterr().err
        path = write_config(tmp_path, r1_unsquashed_config(out))
        with pytest.warns(RuntimeWarning, match="outside"):
            assert sweep(path, "alpha", [1.0, 3.0]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "error: alpha=3: r1 real-side score must satisfy y > 0 at iteration 2\n" in err
        assert "error: alpha=1:" not in err

    def test_unallocatable_dataset_exits_one_naming_its_size(self, tmp_path, capsys):
        # numpy refuses 10**12 x 3 doubles (21.8 TiB) without allocating them
        out = tmp_path / "sweep"
        cfg = rf_config(out, max_iter=10)
        cfg["problem"]["dataset"]["synthetic"]["d"] = 10**12
        path = write_config(tmp_path, cfg)
        assert run_experiment(path) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: dataset\.synthetic: Unable to allocate .* "
                            r"shape \(1000000000000, 3\).*\n", err), err
        assert sweep(path, "datasize", [1e12, 4.0]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: datasize=1e+12: dataset.synthetic: Unable to allocate")
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[1] == "1000000000000,,,,"
        assert lines[2].split(",")[0::3] == ["4", "10"]  # value, its 10 steps

    def test_unallocatable_model_exits_one_naming_its_shape(self, tmp_path, capsys):
        # numpy refuses 10**12 x 3 random-feature weights without allocating them
        out = tmp_path / "out"
        assert run_experiment(write_config(tmp_path, rf_config(out, width=10**12))) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: problem: Unable to allocate .* "
                            r"shape \(1000000000000, 3\).*\n", err), err
        assert not (out / "report.json").exists()

    def test_unallocatable_critic_in_a_forked_share_keeps_every_row(self, tmp_path,
                                                                    monkeypatch, capsys):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)  # width 10**12 runs in a child
        out = tmp_path / "sweep"
        assert sweep(write_config(tmp_path, gan_config(out)), "width", [4.0, 1e12]) == EXIT_CONFIG
        assert_no_child_left()
        err = capsys.readouterr().err
        assert "error: width=1e+12: problem: Unable to allocate" in err
        assert "Traceback" not in err
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[1].split(",")[0::3] == ["4", "20"]  # value, its 20 steps
        assert lines[2] == "1000000000000,,,,"

    def test_problem_whose_gate_cannot_allocate_exits_one_naming_its_shape(self, tmp_path,
                                                                           capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, gate_too_large_config(out))
        for command in (run_experiment, check_experiment):
            assert command(path) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert re.fullmatch(r"error: problem: Unable to allocate .* "
                                r"shape \(100000, 1000000\).*\n", err), err
            assert not (out / "report.json").exists()

    # width 10**6 first runs in this process, second in a forked child
    @pytest.mark.parametrize("values", [[1e6, 4.0], [4.0, 1e6]])
    def test_sweep_value_whose_gate_cannot_allocate_keeps_every_row(self, tmp_path, monkeypatch,
                                                                    capsys, values):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        out = tmp_path / "sweep"
        assert sweep(write_config(tmp_path, gate_too_large_config(out)), "width",
                     values) == EXIT_CONFIG
        assert_no_child_left()
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: width=1e\+06: problem: Unable to allocate .* "
                            r"shape \(100000, 1000000\).*\n", err), err
        rows = {line.split(",")[0]: line for line in
                (out / "summary.csv").read_text().splitlines()[1:]}
        assert rows["1000000"] == "1000000,,,,"
        assert rows["4"].split(",")[0::3] == ["4", "10"]  # value, its 10 steps

    def test_seed_override_is_checked_like_the_file(self, tmp_path, capsys):
        path = write_config(tmp_path, tight_config(tmp_path / "out"))
        assert main(["run", path, "--seed", "-1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: config.certificates.seed: must be an integer >= 0; got -1\n"


R1_WARNING = ("r1 critic score -0.3104839263715663 outside (0, 1) at init on a probe point; "
              "use a squashed critic")


def gan_width_sweep(tmp_path, cpus, monkeypatch):
    """A three-value GAN width sweep dealt into ``cpus`` shares: its exit code."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    path = write_config(tmp_path, gan_config(tmp_path / "sweep"))
    return sweep(path, "width", [4.0, 8.0, 16.0])


def plant_in_child(monkeypatch, width, act):
    """``execute`` that calls ``act()`` for the value ``width`` in a forked
    child only (the child inherits the patch); the parent's values run."""
    parent = os.getpid()

    def planted(problem, cfg, outdir, do_descent=True):
        if cfg["problem"]["disc"]["width"] == width and os.getpid() != parent:
            act()
        return execute(problem, cfg, outdir, do_descent)

    monkeypatch.setattr(cli, "execute", planted)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelSweep:
    """Values 4, 8, 16 in two shares: this process runs 4 and 16, a child runs 8."""

    def test_shares_give_the_bytes_of_one_share(self, tmp_path, monkeypatch, capsys):
        seen = []
        for cpus in (1, 2):
            code = gan_width_sweep(tmp_path, cpus, monkeypatch)
            files = {p.relative_to(tmp_path): p.read_bytes()
                     for p in sorted((tmp_path / "sweep").rglob("*"))
                     if p.is_file() and p.name != "timings.json"}
            seen.append((code, files, capsys.readouterr().err))
            for p in sorted((tmp_path / "sweep").rglob("*"), reverse=True):
                p.unlink() if p.is_file() else p.rmdir()
        assert seen[0] == seen[1]
        code, files, err = seen[0]
        assert code == EXIT_OK and len(files) == 1 + 3 * 4 and err.count("warning: ") == 3
        assert_no_child_left()

    def test_killed_child_keeps_its_row_and_the_others_complete(self, tmp_path, monkeypatch,
                                                               capsys):
        plant_in_child(monkeypatch, 8, lambda: os.kill(os.getpid(), signal.SIGKILL))
        assert gan_width_sweep(tmp_path, 2, monkeypatch) == EXIT_CONFIG
        assert_no_child_left()
        err = capsys.readouterr().err
        assert f"error: width=8: sweep worker ended by signal {signal.SIGKILL}\n" in err
        lines = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
        assert lines[2] == "8,,,,"
        assert [l.split(",")[0::3] for l in lines[1::2]] == [["4", "20"], ["16", "20"]]

    def test_unexpected_exception_in_a_child_is_raised_here(self, tmp_path, monkeypatch):
        def fail():
            raise ZeroDivisionError("planted")

        plant_in_child(monkeypatch, 8, fail)
        with pytest.raises(ZeroDivisionError, match="planted") as info:
            gan_width_sweep(tmp_path, 2, monkeypatch)
        assert_no_child_left()
        assert "in fail\n" in str(info.value.__cause__)  # the child's traceback
        assert not (tmp_path / "sweep" / "summary.csv").exists()

    def test_interrupt_ends_every_child(self, tmp_path, monkeypatch):
        # the child sleeps in value 8 while this process is interrupted in value 16
        plant_in_child(monkeypatch, 8, lambda: time.sleep(30))
        planted = cli.execute

        def interrupted(problem, cfg, outdir, do_descent=True):
            if cfg["problem"]["disc"]["width"] == 16:
                raise KeyboardInterrupt
            return planted(problem, cfg, outdir, do_descent)

        monkeypatch.setattr(cli, "execute", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            gan_width_sweep(tmp_path, 2, monkeypatch)
        assert_no_child_left()
        assert time.monotonic() - started < 10

    def test_values_write_their_csv_files_in_one_share(self, tmp_path, monkeypatch):
        # trace.csv of 21 rows, one per block
        monkeypatch.setattr(rowfmt, "_BLOCK", 7)
        real_fork, log = os.fork, tmp_path / "forks.log"

        def logged_fork():
            with log.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real_fork()

        monkeypatch.setattr(os, "fork", logged_fork)
        assert gan_width_sweep(tmp_path, 2, monkeypatch) == EXIT_OK
        assert log.read_text() == f"{os.getpid()}\n"  # the sweep's child, nothing more
        assert_no_child_left()
        trace = (tmp_path / "sweep" / "width=8" / "trace.csv").read_text()
        assert len(trace.splitlines()) == 22

    def test_a_forked_share_records_no_fork_warning(self, tmp_path, monkeypatch):
        # Python >= 3.12 warns on each fork of a process with BLAS threads
        real_fork = os.fork

        def warning_fork():
            pid = real_fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                              "fork() may lead to deadlocks in the child.", DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        forks = count_forks(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            assert gan_width_sweep(tmp_path, 2, monkeypatch) == EXIT_OK
        assert caught == []
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("action, count", [("default", 1), ("always", 2)])
    def test_warnings_as_a_sweep_in_sequence(self, tmp_path, monkeypatch, action, count):
        # alpha=1 runs here and alpha=3 in a child; both warn at the same line,
        # which the default action shows once
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        path = write_config(tmp_path, r1_unsquashed_config(tmp_path / "sweep"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert sweep(path, "alpha", [1.0, 3.0]) == EXIT_NUMERIC
        assert [(w.category, str(w.message), Path(w.filename).name) for w in caught] == (
            [(RuntimeWarning, R1_WARNING, "problems.py")] * count
        )
        assert_no_child_left()


def orthonormal_config(outdir):
    cfg = rf_config(outdir)
    cfg["problem"]["dataset"]["synthetic"] = {"kind": "orthonormal", "d": 2, "in_dim": 3,
                                              "targets": [[1.0], [-1.0]], "seed": 0}
    return cfg


def leaves(cfg, path=()):
    """The key paths of the non-object values of a nested config."""
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)


WRONG_VALUES = ("x", -1, 1.5, True, [], {})
LEAF_CASES = [
    (make, leaf)
    for make in (rf_config, vae_config, gan_config, classes_config, orthonormal_config)
    for leaf in leaves(make("out"))
]


@pytest.mark.parametrize(
    "make, leaf", LEAF_CASES, ids=[f"{m.__name__}:{'.'.join(l)}" for m, l in LEAF_CASES]
)
def test_wrong_leaf_values_exit_cleanly(tmp_path, monkeypatch, capsys, make, leaf):
    """Any wrong value at any leaf: an exit code, and on exit 1 error lines only."""
    monkeypatch.chdir(tmp_path)  # an accepted output.dir lands here
    for value in WRONG_VALUES:
        cfg = make("out")
        put(cfg, leaf, value)
        code = run_experiment(write_config(tmp_path, cfg), do_descent=False)
        err = capsys.readouterr().err
        assert isinstance(code, int) and "Traceback" not in err
        if code == EXIT_CONFIG:
            assert err and all(line.startswith("error: ") for line in err.splitlines()), err


def test_benchmark_hooks_find_every_name_they_rebind(tmp_path):
    """perfbench/spans.py rebinds plgd functions by name; renaming one fails
    here.  A random-features run and a one-value gan sweep then go through
    the rebound names and the problem's traced map and objective callables."""
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "perfbench"), str(root / "src")]
    commands = [
        ["run", write_config(tmp_path, rf_config(tmp_path / "rf", max_iter=50), "rf.json")],
        ["sweep", write_config(tmp_path, gan_config(tmp_path / "gan"), "gan.json"),
         "--axis", "width", "--values", "6"],
    ]
    code = (f"import sys; sys.path[:0] = {paths!r}; import json, spans; from plgd import cli\n"
            "rec = spans.Recorder(); spans.install(rec)\n"
            f"for argv in {commands!r}:\n"
            "    code = cli.main(argv)\n"
            "    print(json.dumps([code, rec.summary()['totals']]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    before = {}
    for line in proc.stdout.splitlines():
        code, totals = json.loads(line)
        assert code == EXIT_OK, proc.stderr
        for name in ("model.forward", "integrand.grad", "descent.run"):
            calls = totals[name][0]
            assert calls > before.get(name, 0), (name, totals)
            before[name] = calls
    assert len(before) == 3 and proc.stdout.count("\n") == len(commands)
