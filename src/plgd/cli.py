"""Config-driven experiment harness: build, certify, descend, verify, report.

Commands
--------
``plgd run <config.json>``
    Build the problem, certify it (``problems.make_certificates`` holds
    the certificate policy, the sampled trust-ball refinement included),
    run descent and write ``trace.csv``, ``bounds.csv``, ``report.json``
    (plus wall-clock ``timings.json``) and ``theta_star.json`` into the
    output directory, after removing those five files as an earlier run
    left them there (before the problem is built, so also when building
    it fails).  Each CSV file is formatted in contiguous row shares, one
    per usable CPU and each of at least ``CSV_CHUNK`` rows: this process
    formats the first and a forked child each other, with the bytes of
    one process.
    ``timings.json``'s ``export`` phase is therefore wall time with the
    children's shares overlapped.
``plgd check <config.json>``
    Certificates and ledger only, no descent.
``plgd sweep <config.json> --axis width --values 2,8,32``
    One run per value, in parallel shares (one per usable CPU; this
    process runs one, a forked child each other), each in its own
    subdirectory, plus a ``summary.csv``.  The shares already take the
    CPUs, so each value writes its CSV files in one share.

``run``, ``check`` and each sweep value share one runner.  Exit codes: 0
when every evaluated verdict passes or is hypothesis-unmet; 1 on
configuration or I/O errors, which write no report, or for a sweep
worker that ended without a result; 2 on a gradient-oracle failure or a
bound violation under analytic certificates (violations under sampled
certificates are reported as warnings); 3 when the gradient gate, the
certificates, the ledger or descent hit a non-finite or out-of-domain
value (``report.json`` then records the message and the failing descent
iteration, null before descent, under ``numeric_failure``).  Exits 0, 2
and 3, and every ``check``, write ``report.json`` and ``timings.json``.
A sweep exits with the worst code of its runs.  Each value's config is checked
like a run's; a value whose config, problem or certificates cannot be
built prints ``error: <axis>=<value>: <message>``, counts as code 1 and
gets a ``summary.csv`` row with empty cells, and the sweep goes on.  A
value's warnings and numeric failure print as ``warning: <axis>=<value>:
...`` and ``error: <axis>=<value>: ...``, in value order once every share
is done.  Width and datasize values must be integers >= 1.

Config schema (JSON; unknown keys are rejected)
-----------------------------------------------
The table ``CONFIG`` states each key's rule and default once.  A value
that breaks its rule prints ``error: config.<key>: must be ...; got ...``
(``dataset.<key>`` for a dataset's own keys) and exits 1.  Below, ``int``
is an integer >= 1 (not a bool), ``seed`` an integer >= 0, ``pos`` a
finite number > 0 and ``num0`` a finite number >= 0::

    {
      "problem": {
        "family": "supervised" | "vae" | "gan",
        "ball_radius": num0 | null,          # optional declared trust radius
        # supervised
        "model": {"kind": "linear"|"random_features"|"shallow",
                  "in_dim": int, "out_dim": int, "width": int, "seed": seed},
        "dataset": {...},                    # see below
        "integrand": {"kind": "least_squares", "sigma": [pos, ...]}
                   | {"kind": "gaussian_nll"}
                   | {"kind": "softmax", "classes": int},
        # vae
        "encoder": {"width": int, "seed": seed},
        "decoder": {"width": int, "seed": seed},
        "latent_dim": int, "beta": pos,
        "noise": {"count": int, "seed": seed},
        "recon_sigma": [pos, ...],           # optional fixed variances
        # gan
        "disc": {"kind": "shallow"|"linear", "width": int, "seed": seed,
                 "squash": true | false},
        "gan_kind": "wgan_gp" | "r1", "beta": pos,
        "direction": "max" | "min"
      },
      "certificates": {"mode": "analytic"|"sampled", "n_samples": int,
                       "seed": seed,
                       "overrides": {"K_F": num0 | null, "L_F": num0 | null,
                                     "lambda_F": pos | null}},
      "descent": {"alpha": "auto" | pos, "max_iter": int,
                  "stop_gap": num0 | null},
      "output": {"dir": str, "formats": ["csv" | "json", ...]}
    }

A numeric ``alpha`` must also lie below 2/L, which the ledger checks;
``K_F`` and ``L_F`` must have a finite square; and overrides must keep
lambda_F <= K_F^2 together with the constants they leave to the
certificates.  Sampled certificates refuse a ``ball_radius`` above 0 and
below ``smoothmap.MIN_PAIR_RADIUS`` (1e-9).  A synthetic dataset or a
model too large to allocate is refused with numpy's message, which names
its size.

Dataset schema
--------------
Exactly one of:

* ``{"path": "file.json"}`` -- a JSON file with the inline schema below;
* ``{"inline": {"inputs": [[...], ...], "targets": [[...]...] | [int...],
  "weights": [...], "side": ["real"|"generated", ...]}}`` -- targets,
  weights (default uniform) and side labels (adversarial datasets only)
  are optional;
* ``{"synthetic": {"kind": "gaussian", "d": int, "in_dim": int,
  "target_dim": int >= 0, "seed": seed}}``, ``{"kind": "classes", ...,
  "classes": int}``, ``{"kind": "orthonormal", "d": int, "in_dim": int,
  "targets": [...]}``, or for adversarial data ``{"kind":
  "two_gaussians", "n_real": int, "n_gen": int, "in_dim": int,
  "separation": number, "seed": seed}``.

Report schema
-------------
``report.json`` carries: the normalized config echo, the gradient-oracle
result, the full constants ledger with provenance, the tangent-kernel
spectral range at the initial and final parameters, predicted vs actual
iteration counts, every verdict (measured value, bound value, hypothesis
status, provenance) and collected warnings.  Identical config and seed
reproduce the file byte for byte; wall-clock timings therefore live in
the separate ``timings.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import shutil
import sys
import tempfile
import time
import warnings
from contextlib import contextmanager
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import descent as descent_mod
from .descent import (
    TRACE_COLUMNS,
    build_ledger,
    minimal_ledger,
    monitor_rows,
    monitor_size,
    run,
    trace_columns,
)
from .errors import InvalidConfig, InvalidDataset, MissingCertificate, NumericFailure, PlgdError
from .integrand import Dataset, gaussian_nll, least_squares, softmax_ce
from .model import (
    linear_disc,
    linear_model,
    random_features,
    save_theta,
    shallow_disc,
    shallow_net,
)
from .problems import (
    PrototypeProblem,
    check_gradients,
    gan_discriminator,
    make_certificates,
    require_analytic,
    supervised,
    vae,
    # not called here: perfbench/spans.py rebinds these three names on this module
    analytic_certificates,
    objective_with_estimated_lg,
    sampled_certificates,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2
EXIT_NUMERIC = 3

FD_GATE = 1e-5
#: rows formatted per write of the CSV writers, and the fewest rows of a
#: share formatted in parallel; a chunk of trace.csv holds nine Python
#: objects per row, so 1024 rows keep it near 0.3 MB
CSV_CHUNK = 1024


def _fmt(x) -> str:
    """CSV cell: '.'-decimal, 17 significant digits, empty for missing."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _to_py(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# config schema
#
# A rule is a function ``(value, path) -> value`` that returns the value,
# with the defaults of its sections filled in, or raises InvalidConfig
# naming ``path``.


def _finite_number(v) -> bool:
    """A JSON number that is not a bool and is a finite float."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an integer beyond float range
        return False


def _is_one_of(v, options) -> bool:
    """Whether ``v`` equals one of ``options`` and has its type (1 is not True)."""
    return any(type(v) is type(o) and v == o for o in options)


def _rule(ok, what: str):
    """The rule that keeps a value passing ``ok`` and refuses any other as not ``what``."""

    def check(v, path):
        if not ok(v):
            raise InvalidConfig(f"{path}: must be {what}; got {v!r}")
        return v

    return check


def integer(least: int):
    """An integer >= ``least`` (not a bool)."""
    return _rule(lambda v: type(v) is int and v >= least, f"an integer >= {least}")


#: bound -> (what a number meeting it is, its test)
_BOUNDS = {
    "": ("a finite number", lambda v: True),
    ">0": ("a finite positive number", lambda v: v > 0),
    ">=0": ("a finite number >= 0", lambda v: v >= 0),
    # the ledger squares a certificate constant, so its square must be finite too
    ">=0 squared": ("a finite number >= 0 with a finite square",
                    lambda v: v >= 0 and math.isfinite(v * float(v))),
    # a step size's range (0, 2/L) needs L: build_ledger and minimal_ledger
    # refuse a number outside it, a swept one included
    "(0,2/L)": ("a finite positive number", lambda v: True),
}


def number(bound: str = "", *literals):
    """A finite number meeting ``bound`` (a key of ``_BOUNDS``), or one of ``literals``."""
    what, ok = _BOUNDS[bound]
    return _rule(
        lambda v: _is_one_of(v, literals) or (_finite_number(v) and ok(v)),
        " or ".join(["null" if o is None else repr(o) for o in literals] + [what]),
    )


def choice(*options):
    """One of ``options``."""
    return _rule(lambda v: _is_one_of(v, options), " or ".join(map(repr, options)))


_object = _rule(lambda v: isinstance(v, dict), "an object")
_list = _rule(lambda v: isinstance(v, list), "a list")
_string = _rule(lambda v: isinstance(v, str), "a string")
_given = _rule(lambda v: True, "anything")  # kept as given; checked where it is used


def list_of(rule):
    """A list whose every entry passes ``rule``."""
    return lambda v, path: [rule(x, f"{path}[{i}]") for i, x in enumerate(_list(v, path))]


def section(**fields):
    """An object of the keys in ``fields``, each given as ``key=(rule, default)``.

    An absent key takes its default (``...`` marks a required key) and a
    null one whose default is null stays null; every other value must pass
    its rule, and a key not in ``fields`` is refused.
    """

    def check(v, path):
        unknown = set(_object(v, path)) - set(fields)
        if unknown:
            raise InvalidConfig(f"{path}: unknown keys {sorted(unknown)}")
        out = {}
        for key, (rule, default) in fields.items():
            value = v.get(key, default)
            if value is ...:
                raise InvalidConfig(f"{path}.{key}: required key missing")
            out[key] = (
                None if value is None and default is None else rule(value, f"{path}.{key}")
            )
        return out

    return check


def tagged(tag: str, **variants):
    """A section whose ``tag`` key picks its other keys: ``variants`` maps
    each value of the tag to those keys, given as to :func:`section`."""
    pick = choice(*variants)
    sections = {name: section(**{tag: (pick, ...)}, **keys) for name, keys in variants.items()}

    def check(v, path):
        if tag not in _object(v, path):
            raise InvalidConfig(f"{path}.{tag}: required key missing")
        return sections[pick(v[tag], f"{path}.{tag}")](v, path)

    return check


#: where a dataset comes from; an inline or a synthetic one is checked where it is built
_SOURCES = section(path=(_string, None), inline=(_object, None), synthetic=(_object, None))


def _one_source(v, path):
    """A dataset section with exactly one of its sources given."""
    ds = _SOURCES(v, path)
    if sum(source is not None for source in ds.values()) != 1:
        raise InvalidConfig(f"{path}: exactly one of path/inline/synthetic required")
    return ds


SIZE, SEED = integer(1), integer(0)
DATASET = (_one_source, ...)
RADIUS = (number(">=0", None), None)
SIGMA = (list_of(number(">0")), None)  # its length is checked against the data

#: the config: every key with its rule and default
CONFIG = section(
    problem=(tagged(
        "family",
        supervised=dict(
            model=(section(kind=(choice("linear", "random_features", "shallow"), ...),
                           in_dim=(SIZE, ...), out_dim=(SIZE, 1), width=(SIZE, None),
                           seed=(SEED, 0)), ...),
            dataset=DATASET,
            integrand=(section(kind=(choice("least_squares", "gaussian_nll", "softmax"), ...),
                               sigma=SIGMA, classes=(SIZE, None)), ...),
            ball_radius=RADIUS,
        ),
        vae=dict(
            encoder=(section(width=(SIZE, ...), seed=(SEED, 0)), ...),
            decoder=(section(width=(SIZE, ...), seed=(SEED, 1)), ...),
            latent_dim=(SIZE, ...), beta=(number(">0"), ...),
            noise=(section(count=(SIZE, ...), seed=(SEED, 2)), ...),
            dataset=DATASET, recon_sigma=SIGMA, ball_radius=RADIUS,
        ),
        gan=dict(
            disc=(section(kind=(choice("shallow", "linear"), ...), width=(SIZE, None),
                          seed=(SEED, 0), squash=(choice(True, False), False)), ...),
            gan_kind=(choice("wgan_gp", "r1"), ...), beta=(number(">0"), ...),
            direction=(choice("max", "min"), "max"), dataset=DATASET, ball_radius=RADIUS,
        ),
    ), ...),
    certificates=(section(
        mode=(choice("analytic", "sampled"), "sampled"), n_samples=(SIZE, 32), seed=(SEED, 0),
        overrides=(section(K_F=(number(">=0 squared", None), None),
                           L_F=(number(">=0 squared", None), None),
                           lambda_F=(number(">0", None), None)), {}),
    ), {}),
    descent=(section(alpha=(number("(0,2/L)", "auto"), "auto"), max_iter=(SIZE, 10000),
                     stop_gap=(number(">=0", None), None)), {}),
    output=(section(dir=(_string, "out"),
                    formats=(list_of(choice("csv", "json")), ["csv", "json"])), {}),
)

#: an inline dataset, in the config or in a dataset file
INLINE = section(
    inputs=(_given, ...), targets=(_given, None), weights=(_given, None), side=(_given, None)
)

_POINTS = dict(d=(SIZE, ...), in_dim=(SIZE, ...))
#: a synthetic dataset
SYNTHETIC = tagged(
    "kind",
    gaussian=dict(**_POINTS, target_dim=(integer(0), 0), seed=(SEED, 0)),
    classes=dict(**_POINTS, classes=(SIZE, ...), seed=(SEED, 0)),
    orthonormal=dict(**_POINTS, targets=(_given, None), seed=(SEED, 0)),
    two_gaussians=dict(n_real=(SIZE, ...), n_gen=(SIZE, ...), in_dim=(SIZE, ...),
                       separation=(number(), 2.0), seed=(SEED, 0)),
)


def normalize_config(raw: dict) -> dict:
    """Validate a raw config dict and fill in documented defaults."""
    return CONFIG(raw, "config")


# ---------------------------------------------------------------------------
# dataset and problem construction


def load_dataset_file(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidConfig(f"dataset file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"dataset file {path}: invalid JSON at line {exc.lineno}")


def _dataset_from_inline(spec: dict) -> tuple[Dataset, list | None]:
    spec = INLINE(spec, "dataset")
    data = Dataset(spec["inputs"], targets=spec["targets"], weights=spec["weights"])
    return data, spec["side"]


def _dataset_synthetic(spec: dict) -> tuple[Dataset, list | None]:
    spec = SYNTHETIC(spec, "dataset.synthetic")
    kind, rng = spec["kind"], np.random.default_rng(spec["seed"])
    if kind == "gaussian":
        inputs = rng.standard_normal((spec["d"], spec["in_dim"]))
        targets = (
            None
            if spec["target_dim"] == 0
            else rng.standard_normal((spec["d"], spec["target_dim"]))
        )
        return Dataset(inputs, targets), None
    if kind == "classes":
        inputs = rng.standard_normal((spec["d"], spec["in_dim"]))
        return Dataset(inputs, rng.integers(1, spec["classes"] + 1, size=spec["d"])), None
    if kind == "orthonormal":
        if spec["d"] > spec["in_dim"]:
            raise InvalidConfig("dataset.synthetic: orthonormal needs d <= in_dim")
        inputs = np.eye(spec["in_dim"])[: spec["d"]]
        targets = spec["targets"]
        if targets is None:
            targets = rng.standard_normal((spec["d"], 1))
        return Dataset(inputs, targets), None
    half = 0.5 * spec["separation"]  # two_gaussians
    real = rng.standard_normal((spec["n_real"], spec["in_dim"])) + half
    gen = rng.standard_normal((spec["n_gen"], spec["in_dim"])) - half
    side = ["real"] * spec["n_real"] + ["generated"] * spec["n_gen"]
    return Dataset(np.concatenate([real, gen])), side


def build_dataset(ds_cfg: dict) -> tuple[Dataset, list | None]:
    if ds_cfg["path"] is not None:
        return _dataset_from_inline(load_dataset_file(ds_cfg["path"]))
    if ds_cfg["inline"] is not None:
        return _dataset_from_inline(ds_cfg["inline"])
    try:
        return _dataset_synthetic(ds_cfg["synthetic"])
    except MemoryError as exc:  # a size the table accepts but memory cannot hold
        raise InvalidDataset(f"dataset.synthetic: {exc}")


def _target_dim(data: Dataset) -> int:
    if data.targets is None:
        raise InvalidConfig("dataset provides no targets for a supervised problem")
    if data.targets.ndim == 1:
        raise InvalidConfig("integer class targets need the softmax integrand")
    return data.targets.shape[1]


def _least_squares(sigma, k: int, key: str):
    if sigma is not None and len(sigma) != k:
        raise InvalidConfig(f"{key} length must match the target dim")
    return least_squares(sigma=sigma, k=k)


def _build_supervised(prob: dict) -> PrototypeProblem:
    data, _side = build_dataset(prob["dataset"])
    icfg = prob["integrand"]
    if icfg["kind"] == "least_squares":
        out_dim = _target_dim(data)
        iota = _least_squares(icfg["sigma"], out_dim, "integrand.sigma")
    elif icfg["kind"] == "gaussian_nll":
        k = _target_dim(data)
        iota = gaussian_nll(k=k)
        out_dim = 2 * k
    else:  # softmax
        if icfg["classes"] is None:
            raise InvalidConfig("integrand.classes is required for softmax")
        iota = softmax_ce(icfg["classes"])
        out_dim = icfg["classes"]

    mcfg = prob["model"]
    in_dim = mcfg["in_dim"]
    if mcfg["kind"] == "linear":
        model = linear_model(in_dim, out_dim=out_dim)
    elif mcfg["kind"] == "random_features":
        if mcfg["width"] is None:
            raise InvalidConfig("model.width is required for random_features")
        model = random_features(in_dim, mcfg["width"], out_dim=out_dim, seed=mcfg["seed"])
    else:
        if mcfg["width"] is None:
            raise InvalidConfig("model.width is required for shallow")
        model = shallow_net(in_dim, mcfg["width"], out_dim=out_dim, seed=mcfg["seed"])
    if mcfg["out_dim"] not in (1, out_dim):
        raise InvalidConfig(
            f"model.out_dim {mcfg['out_dim']} conflicts with integrand dimension {out_dim}"
        )
    return supervised(model, data, iota, ball_radius=prob["ball_radius"])


def _build_vae(prob: dict) -> PrototypeProblem:
    data, _side = build_dataset(prob["dataset"])
    ys = data.inputs
    y_dim = ys.shape[1]
    l_z = prob["latent_dim"]
    encoder = shallow_net(y_dim, prob["encoder"]["width"], out_dim=2 * l_z, seed=prob["encoder"]["seed"])
    decoder = shallow_net(l_z, prob["decoder"]["width"], out_dim=y_dim, seed=prob["decoder"]["seed"])
    rng = np.random.default_rng(prob["noise"]["seed"])
    noise = rng.standard_normal((prob["noise"]["count"], l_z))
    ell = _least_squares(prob["recon_sigma"], y_dim, "recon_sigma")
    return vae(encoder, decoder, ys, noise, ell, prob["beta"], ball_radius=prob["ball_radius"])


def _build_gan(prob: dict) -> PrototypeProblem:
    data, side = build_dataset(prob["dataset"])
    if side is None:
        raise InvalidConfig("adversarial datasets must label points real/generated")
    side = np.asarray(side)
    if side.shape != (len(data),) or not np.isin(side, ("real", "generated")).all():
        raise InvalidDataset(f"side must label each of the {len(data)} inputs real or generated")
    real, gen = data.inputs[side == "real"], data.inputs[side == "generated"]
    in_dim = data.inputs.shape[1]
    dcfg = prob["disc"]
    if dcfg["kind"] == "linear":
        disc = linear_disc(in_dim)
    else:
        if dcfg["width"] is None:
            raise InvalidConfig("disc.width is required for shallow critics")
        disc = shallow_disc(in_dim, dcfg["width"], seed=dcfg["seed"], squash=dcfg["squash"])
    return gan_discriminator(
        disc,
        real,
        gen,
        prob["gan_kind"],
        prob["beta"],
        direction=prob["direction"],
        ball_radius=prob["ball_radius"],
    )


def build_problem(cfg: dict) -> PrototypeProblem:
    """The problem ``cfg`` describes.  A model or dataset too large to
    allocate is refused with numpy's message, which names its shape."""
    build = {"supervised": _build_supervised, "vae": _build_vae, "gan": _build_gan}
    try:
        return build[cfg["problem"]["family"]](cfg["problem"])
    except MemoryError as exc:  # a size the schema accepts but memory cannot hold
        raise InvalidConfig(f"problem: {exc}")


# ---------------------------------------------------------------------------
# certificates and execution


def _ntk_summary(problem: PrototypeProblem, theta) -> dict:
    g = problem.gram(theta)
    return {"lambda_min": g.lambda_min, "lambda_max": g.lambda_max}


class _PhaseClock:
    """Wall-clock seconds of the consecutive phases of one run.

    Each phase runs from the end of the previous one (the first from the
    clock's start), so the phases add up to the time from the start to the
    end of the last one.
    """

    def __init__(self):
        self.start = self.last = time.perf_counter()
        self.seconds = {}

    def lap(self, name: str) -> None:
        """Close phase ``name``: it ran from the end of the previous one to now."""
        now = time.perf_counter()
        self.seconds[name] = now - self.last
        self.last = now

    @contextmanager
    def phase(self, name: str):
        """Close phase ``name`` when the block ends, also on an exception."""
        try:
            yield
        finally:
            self.lap(name)


#: the files a run writes into its output directory
OUTPUTS = ("report.json", "timings.json", "trace.csv", "bounds.csv", "theta_star.json")


def _remove_outputs(outdir: Path) -> None:
    """Remove the files an earlier run left in ``outdir``."""
    for name in OUTPUTS:
        (outdir / name).unlink(missing_ok=True)


def execute(problem: PrototypeProblem, cfg: dict, outdir: Path, do_descent: bool = True) -> dict:
    """Run the full pipeline on an assembled problem; returns the report.

    The files an earlier run left in ``outdir`` are removed first, so what
    is there afterwards belongs to this run.  A run that ends with exit 0
    or 2 from its phases, or 3 for a NumericFailure in any of them, then
    writes ``report.json`` and ``timings.json`` here; any other error
    escapes and writes nothing, a MemoryError as an InvalidConfig with
    numpy's message, which names the shape it could not allocate.
    """
    _remove_outputs(outdir)
    if cfg["certificates"]["mode"] == "analytic":
        require_analytic(problem)
    clock = _PhaseClock()
    report = {"config": cfg, "problem": {"name": problem.name, "family": problem.family,
                                         "param_dim": problem.model.param_dim,
                                         "function_dim": problem.f.space.dim},
              "warnings": []}
    try:
        report["exit_code"] = _phases(problem, cfg, outdir, do_descent, report, clock)
    except NumericFailure as exc:
        report["numeric_failure"] = {"message": str(exc), "iteration": exc.iteration}
        report["exit_code"] = EXIT_NUMERIC
    except MemoryError as exc:  # a problem that builds but whose phases cannot allocate
        raise InvalidConfig(f"problem: {exc}")
    _write_report(report, cfg, outdir)
    _write_timings(outdir, clock)
    return report


def _phases(problem: PrototypeProblem, cfg: dict, outdir: Path, do_descent: bool,
            report: dict, clock: _PhaseClock) -> int:
    """The gate, certificates, ledger and descent of :func:`execute`, each
    filling in its part of ``report``; returns the exit code.  A full run
    also writes the trajectory files and the final parameters."""
    with clock.phase("gate"):
        fd_err = check_gradients(problem, n_probes=3, seed=cfg["certificates"]["seed"])
    report["gradient_check"] = {
        "max_fd_error": fd_err,
        "threshold": FD_GATE,
        "passed": fd_err <= FD_GATE,
    }
    if fd_err > FD_GATE:
        report["warnings"].append(
            f"gradient oracle failed: finite-difference error {fd_err:.3e} exceeds {FD_GATE}"
        )
        return EXIT_VIOLATION

    with clock.phase("certificates"):
        problem, cert, obj, radius = make_certificates(
            problem, **cfg["certificates"], ball_pinned=cfg["problem"]["ball_radius"] is not None)
    report["declared_ball_radius"] = problem.declared_ball.radius

    with clock.phase("ledger"):
        alpha = cfg["descent"]["alpha"]
        try:
            ledger = build_ledger(problem.F, obj, problem.theta0, cert, alpha=alpha)
        except MissingCertificate as exc:
            if alpha == "auto":
                raise InvalidConfig(f"alpha='auto' needs a full ledger but: {exc}")
            report["warnings"].append(f"minimal ledger: {exc}")
            ledger = minimal_ledger(float(alpha))
        report["ledger"] = ledger.as_dict()
        report["ntk"] = {"theta0": _ntk_summary(problem, None)}
    if not do_descent:
        return EXIT_OK

    with clock.phase("descent"):
        trace, verdicts = run(
            problem.F,
            obj,
            problem.theta0,
            ledger,
            max_iter=cfg["descent"]["max_iter"],
            stop_gap=cfg["descent"]["stop_gap"],
            declared_radius=radius,
        )
        report["ntk"]["theta_star"] = _ntk_summary(problem, trace.iterates[-1])
    f_star = ledger.f_star
    report["iterations"] = {
        "predicted": trace.predicted_iters,
        "actual": trace.n_steps,
        "initial_gap": None if f_star is None else float(trace.losses[0]) - f_star,
        "final_gap": None if f_star is None else float(trace.losses[-1]) - f_star,
        "stop_gap": trace.stop_gap,
        "diverged": trace.diverged,
    }
    report["verdicts"] = verdicts.as_list()
    for v in verdicts.violations():
        if v.certified != "analytic":
            report["warnings"].append(
                f"bound {v.name} violated under sampled certificates "
                f"(measured {v.measured}, bound {v.bound})"
            )

    if "csv" in cfg["output"]["formats"]:
        _write_trace_csv(outdir / "trace.csv", trace, ledger)
        _write_bounds_csv(outdir / "bounds.csv", trace, ledger)
    outdir.mkdir(parents=True, exist_ok=True)
    save_theta(outdir / "theta_star.json", trace.iterates[-1], problem.model.param_shapes)
    return EXIT_VIOLATION if verdicts.violations(analytic_only=True) else EXIT_OK


# ---------------------------------------------------------------------------
# forked children


def _usable_cpus() -> int:
    """The CPUs this process may run on, counted on Linux only; elsewhere 1,
    since a forked child of a process that has loaded numpy is not safe
    there (macOS's Accelerate) or there is no fork at all."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


#: True inside a :func:`_forked` block and in the children it forks: the
#: CPUs are then taken, so a block nested in it forks nothing
_forking = False


class _Child:
    """A forked child that runs ``work(out)``, writing into ``out``, an
    unlinked temporary file that this process reads once the child is reaped.

    A file, unlike a pipe, never makes the child wait while this process is
    busy, and the child need not hold its output in memory.  The child
    always leaves by ``os._exit``: status 0 once ``work`` has returned and
    its bytes are flushed, 1 when anything raised.  Raises OSError when no
    file or process can be had.
    """

    def __init__(self, work):
        self.out = tempfile.TemporaryFile()
        try:
            with warnings.catch_warnings():  # Python >= 3.12, numpy's BLAS threads
                warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                        DeprecationWarning)
                self.pid = os.fork()
        except OSError:
            self.out.close()
            raise
        if self.pid:
            return
        status = 1
        try:
            work(self.out)
            self.out.flush()
            status = 0
        finally:
            os._exit(status)

    def wait(self) -> int:
        """Reap the child and rewind ``out``: the child's exit code, negative
        for the signal that ended it."""
        pid, self.pid = self.pid, None
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        self.out.seek(0)
        return code


@contextmanager
def _forked(works: list):
    """A :class:`_Child` per callable of ``works``, or None for one that
    could not be forked, which the caller then runs itself.  Inside another
    such block, or in a child forked by one, every entry is None.

    The standard streams are flushed first, so no child holds output of
    this process.  Leaving the block kills and reaps every child not yet
    reaped and closes every child's file, also when the block raised or
    was interrupted.
    """
    global _forking
    if _forking:
        yield [None] * len(works)
        return
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    _forking = True
    try:
        for work in works:
            try:
                children.append(_Child(work))
            except OSError:  # no process to spare
                children.append(None)
        yield children
    finally:
        _forking = False
        for child in children:
            if child is None:
                continue
            if child.pid is not None:
                import signal

                os.kill(child.pid, signal.SIGKILL)
                child.wait()
            child.out.close()


# ---------------------------------------------------------------------------
# writers


def _write_report(report: dict, cfg: dict, outdir: Path) -> None:
    if "json" not in cfg["output"]["formats"]:
        return
    outdir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report, indent=2, sort_keys=True, default=_to_py) + "\n"
    (outdir / "report.json").write_text(text, encoding="utf-8")


def _write_timings(outdir: Path, clock: _PhaseClock) -> None:
    """timings.json: the run's wall-clock seconds and those of each phase it
    reached; the time since the last phase closed is the ``export`` phase."""
    clock.lap("export")
    timings = {"wall_seconds": clock.last - clock.start, "phase_seconds": clock.seconds}
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "timings.json").write_text(json.dumps(timings) + "\n", encoding="utf-8")


def _format_rows(fmt: str, columns: list) -> bytes:
    """``fmt % row`` for every row of parallel array columns, encoded.

    One ``%`` formats all the rows, with ``fmt`` repeated once per row,
    which costs less than a ``%`` per row.  ``%``-formatting is cheaper
    than ``str.format`` and gives the same cells: ``%.17g`` and
    ``{:.17g}`` render a float alike, and ``%d`` and ``%s`` an int and a
    str or bool as ``{}`` does.
    """
    cells = chain.from_iterable(zip(*(c.tolist() for c in columns)))
    return ((fmt * len(columns[0])) % tuple(cells)).encode()


def _write_share(fh, fmt: str, rows, start: int, stop: int) -> None:
    """Write :func:`_format_rows` of rows ``start:stop`` to the binary file
    ``fh``, ``CSV_CHUNK`` rows at a time, each chunk's columns from
    ``rows(lo, hi)``."""
    for lo in range(start, stop, CSV_CHUNK):
        fh.write(_format_rows(fmt, rows(lo, min(lo + CSV_CHUNK, stop))))


def _write_rows(fh, fmt: str, n: int, rows) -> None:
    """Write :func:`_format_rows` of rows 0..n-1 to the binary file ``fh``,
    formatting contiguous shares of the rows in parallel.

    ``rows(start, stop)`` returns the parallel columns of rows
    ``start:stop``, so each share evaluates only its own rows, a chunk at
    a time.  There is one share per usable CPU, each of at least
    ``CSV_CHUNK`` rows, so a shorter table is one share.  This process
    writes the first share while a forked child writes each other one
    into its own file; those files are then copied into ``fh`` in share
    order, a block at a time.  A share whose child fails, or cannot be
    forked, is written here in its place.
    """
    k = max(1, min(_usable_cpus(), n // CSV_CHUNK))
    cuts = [n * s // k for s in range(k + 1)]
    shares = list(zip(cuts, cuts[1:]))
    works = [partial(_write_share, fmt=fmt, rows=rows, start=start, stop=stop)
             for start, stop in shares[1:]]
    with _forked(works) as children:
        for (start, stop), child in zip(shares, [None, *children]):
            if child is not None and child.wait() == 0:
                shutil.copyfileobj(child.out, fh)
            else:
                _write_share(fh, fmt, rows, start, stop)


def _write_trace_csv(path: Path, trace, ledger) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = trace_columns(trace, ledger)
    n_steps = trace.n_steps
    with path.open("wb") as fh:
        fh.write((",".join(TRACE_COLUMNS) + "\n").encode())
        # the last iterate takes no step, so its step cells are empty
        for part in (slice(0, n_steps), slice(n_steps, n_steps + 1)):
            present = {k: c[part] for k, c in cols.items() if c is not None and len(c[part])}
            if present:
                cells = ("%.17g" if k in present else "" for k in TRACE_COLUMNS[1:])
                columns = list(present.values())
                _write_rows(fh, ",".join(("%d", *cells)) + "\n", len(columns[0]),
                            lambda lo, hi: [c[lo:hi] for c in columns])


def _write_bounds_csv(path: Path, trace, ledger) -> None:
    """bounds.csv, each chunk of rows evaluated by :func:`monitor_rows` as
    it is written, so no process holds the whole table."""
    path.parent.mkdir(parents=True, exist_ok=True)

    def rows(start, stop):
        t = monitor_rows(trace, ledger, start, stop)
        return [t.name, t.iteration, t.measured, t.bound, t.holds]

    with path.open("wb") as fh:
        fh.write(b"inequality,iter,measured,bound,holds\n")
        _write_rows(fh, "%s,%d,%.17g,%.17g,%s\n", monitor_size(trace, ledger), rows)


# ---------------------------------------------------------------------------
# commands


def _load_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidConfig(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config {path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    return normalize_config(raw)


def _apply_cli_overrides(cfg: dict, out: str | None, seed: int | None) -> dict:
    """``cfg`` with the command line's output dir and seed, checked like the file's."""
    if out is not None:
        cfg["output"]["dir"] = out
    if seed is not None:
        cfg["certificates"]["seed"] = seed
    return normalize_config(cfg)


def _run_config(cfg: dict, outdir: Path, prefix: str, do_descent: bool) -> tuple:
    """One run of ``cfg`` into ``outdir``: its report, its stderr lines (the
    report's warnings and numeric failure, or the error that ended it), each
    led by ``prefix``, and its Python warnings.

    It first removes the files an earlier run left in ``outdir``, so a
    config, library or I/O error leaves none of them there and returns a
    report of exit code 1 only.
    The warnings that pass the filters are recorded, not shown, as
    (message, category, filename, lineno), so that the caller can issue
    them with :func:`_replay` where they belong among its output.
    """
    lines = []
    with warnings.catch_warnings(record=True) as caught:
        try:
            _remove_outputs(outdir)
            cfg = normalize_config(cfg)
            report = execute(build_problem(cfg), cfg, outdir, do_descent=do_descent)
        except PlgdError as exc:
            lines, report = [f"error: {prefix}{exc}"], {"exit_code": EXIT_CONFIG}
        except OSError as exc:
            lines, report = [f"io error: {prefix}{exc}"], {"exit_code": EXIT_CONFIG}
    warned = [(w.message, w.category, w.filename, w.lineno) for w in caught]
    lines += [f"warning: {prefix}{w}" for w in report.get("warnings", [])]
    if "numeric_failure" in report:
        lines.append(f"error: {prefix}{report['numeric_failure']['message']}")
    return report, lines, warned


def _replay(warned: list) -> None:
    """Issue recorded warnings as ``warnings.warn`` first issued them: through
    the current filters and the registry of the module that raised them, so
    a warning shown once per location is still shown once."""
    if not warned:
        return
    by_file = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in warned:
        m = by_file.get(filename)
        warnings.warn_explicit(
            message, category, filename, lineno, module=m and m.__name__,
            registry=m and vars(m).setdefault("__warningregistry__", {}),
        )


def _finish(result: tuple) -> int:
    """Issue a run's warnings and stderr lines; returns its exit code."""
    report, lines, warned = result
    _replay(warned)
    for line in lines:
        print(line, file=sys.stderr)
    return int(report["exit_code"])


def run_experiment(
    config_path: str, out: str | None = None, seed: int | None = None, do_descent: bool = True
) -> int:
    """Load config, run the pipeline, write artifacts; returns the exit code.

    ``do_descent=False`` stops after the certificates and the ledger.
    """
    try:
        cfg = _apply_cli_overrides(_load_config(config_path), out, seed)
    except PlgdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return _finish(_run_config(cfg, Path(cfg["output"]["dir"]), "", do_descent))


def check_experiment(config_path: str, out: str | None = None, seed: int | None = None) -> int:
    """Certificates and ledger only (no descent); returns the exit code."""
    return run_experiment(config_path, out, seed, do_descent=False)


SWEEP_AXES = ("width", "alpha", "beta", "datasize")


def _set_axis(cfg: dict, axis: str, value: float) -> dict:
    cfg = json.loads(json.dumps(cfg))  # deep copy, keeps plain types
    prob = cfg["problem"]
    if axis in ("width", "datasize") and not (value == int(value) and value >= 1):
        raise InvalidConfig(f"sweep axis {axis}: values must be integers >= 1; got {value:g}")
    if axis == "alpha":
        cfg["descent"]["alpha"] = float(value)
    elif axis == "beta":
        if "beta" not in prob:
            raise InvalidConfig(f"family {prob['family']} has no beta to sweep")
        prob["beta"] = float(value)
    elif axis == "width":
        if prob["family"] == "supervised":
            prob["model"]["width"] = int(value)
        elif prob["family"] == "gan":
            prob["disc"]["width"] = int(value)
        else:
            prob["encoder"]["width"] = int(value)
            prob["decoder"]["width"] = int(value)
    else:  # datasize
        ds = prob["dataset"]
        if ds.get("synthetic") is None:
            raise InvalidConfig("datasize sweeps require a synthetic dataset")
        key = "n_real" if ds["synthetic"].get("kind") == "two_gaussians" else "d"
        ds["synthetic"][key] = int(value)
    return cfg


def _run_share(out, share: list) -> None:
    """Run ``share``, (index, config, directory) triples, as a forked sweep
    child does, and pickle ``(done, escaped)`` into the binary file
    ``out``: an (index, :func:`_run_config` result) pair per value and, for
    an exception that escaped a value, a list of one (index, exception,
    traceback text)."""
    done, escaped = [], []
    for i, cfg, sub in share:
        try:
            done.append((i, _run_config(cfg, sub, f"{sub.name}: ", True)))
        except BaseException as exc:  # the caller raises it again
            import traceback

            escaped.append((i, exc, traceback.format_exc()))
            break
    pickle.dump((done, escaped), out)


def sweep(
    config_path: str,
    axis: str,
    values: list[float],
    out: str | None = None,
    seed: int | None = None,
) -> int:
    """Run one experiment per value, in parallel shares, and write a summary table.

    The values are dealt round-robin into one share per usable CPU.  This
    process runs the first share and a forked child runs each other one;
    as the shares take the CPUs, no value forks its CSV writers' shares.
    Once every share is done, each value's warnings and stderr lines are
    issued in value order, as a sweep of one share issues them.

    Each value's config is checked like a run's.  A value that fails with
    a config, library or I/O error, or whose child ends without a result,
    keeps its row (empty cells) and exit code 1; the sweep returns the
    worst code of its values.  Any other exception escapes once no child
    is left; one raised in a child carries the child's traceback.
    """
    try:
        base = _apply_cli_overrides(_load_config(config_path), out, seed)
        if axis not in SWEEP_AXES:
            raise InvalidConfig(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")
        if not values or not all(map(math.isfinite, values)):
            raise InvalidConfig(f"sweep requires at least one value, all finite; got {values}")
        root = Path(base["output"]["dir"])
        jobs = []
        for i, v in enumerate(values):
            cfg = _set_axis(base, axis, v)
            sub = root / f"{axis}={v:g}"
            cfg["output"]["dir"] = str(sub)
            jobs.append((i, cfg, sub))
    except PlgdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    k = min(len(jobs), _usable_cpus())
    shares, results = [jobs[s::k] for s in range(k)], {}
    with _forked([partial(_run_share, share=share) for share in shares[1:]]) as children:
        for share, child in zip(shares, [None, *children]):
            if child is None:
                for i, cfg, sub in share:
                    results[i] = _run_config(cfg, sub, f"{sub.name}: ", True)
                continue
            code = child.wait()
            if code == 0:
                done, escaped = pickle.load(child.out)
                results.update(done)
                for i, exc, tb in escaped:  # raised below, in value order
                    exc.__cause__ = RuntimeError(f"in the sweep worker:\n{tb}")
                    results[i] = exc
                continue
            why = f"signal {-code}" if code < 0 else f"exit status {code}"
            for i, _cfg, sub in share:
                message = f"error: {sub.name}: sweep worker ended by {why}"
                results[i] = ({"exit_code": EXIT_CONFIG}, [message], [])

    lines = ["value,lambda_N,q,iterations,dist_from_init"]
    worst = EXIT_OK
    for i, v in enumerate(values):
        if isinstance(results[i], BaseException):
            raise results[i]
        worst = max(worst, _finish(results[i]))
        report = results[i][0]
        lam_n = report.get("ntk", {}).get("theta0", {}).get("lambda_min")
        q = report.get("ledger", {}).get("q")
        iters = report.get("iterations", {}).get("actual")
        dist = None
        for verd in report.get("verdicts", []):
            if verd["name"] == "dist_init":
                dist = verd["measured"]
        lines.append(
            f"{_fmt(v)},{_fmt(lam_n)},{_fmt(q)},{_fmt(iters)},{_fmt(dist)}"
        )
    root.mkdir(parents=True, exist_ok=True)
    (root / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plgd",
        description="certified gradient descent experiments: run, check, sweep",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full experiment: certify, descend, verify")
    p_check = sub.add_parser("check", help="certificates and ledger only")
    p_sweep = sub.add_parser("sweep", help="run one experiment per axis value")
    for p in (p_run, p_check, p_sweep):
        p.add_argument("config", help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--seed", type=int, default=None, help="override the certificate seed")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated numeric values for the axis"
    )

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_experiment(args.config, out=args.out, seed=args.seed)
    if args.command == "check":
        return check_experiment(args.config, out=args.out, seed=args.seed)
    try:
        values = [float(v) for v in args.values.split(",") if v != ""]
    except ValueError as exc:
        print(f"error: --values: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return sweep(args.config, args.axis, values, out=args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
