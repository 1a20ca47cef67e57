"""Every schema-valid config ends in a documented exit.

The configs are drawn from the ``cli.CONFIG`` table itself: each rule is
read back from the closure its constructor made (a section's fields, a
tagged section's variants, a leaf's options, least value or bound), so a
key added to the table is drawn without a change here.  Numbers come from
a pool of extremes kept only where the rule accepts them, plus any finite
float it accepts; sizes are capped so nothing large is allocated, and
``descent.max_iter``, a size, is set to the cap where the draw leaves it
out, so each run is short.

Each drawn config runs ``check`` and then ``run`` in this process, each
under a time limit.  Both must exit 0-3 and print no traceback; an exit of
0, 2 or 3 writes ``report.json`` carrying that code (when ``output.formats``
lists ``json``), and an exit of 1 writes none.

``PLGD_PROPERTY_EXAMPLES`` sets the number of examples (default 100, drawn
from a fixed seed).
"""

import contextlib
import inspect
import io
import json
import math
import os
import signal
import sys
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from plgd import cli

EXAMPLES = int(os.environ.get("PLGD_PROPERTY_EXAMPLES", "100"))
#: seconds each of ``check`` and ``run`` may take on one drawn config
TIME_LIMIT = 30
#: the largest size (an integer rule with least 1) drawn
SIZE_CAP = 3

_MAX = sys.float_info.max
#: the numbers a number rule may draw as they are, where it accepts them
EXTREMES = [
    v
    for x in (0, 1, 2, 0.0, 5e-324, 1e-300, 1e-13, 1e-9, 1e-6, 0.5, 1.0, 10.0, 1e6, 1e154,
              math.sqrt(_MAX), 1e300, _MAX)
    for v in (x, -x)
]
#: seeds beyond any size, to the edge of numpy's seed range and past it
LARGE_SEEDS = [2**32 - 1, 2**63, 2**128]


def _closure(fn) -> dict:
    return inspect.getclosurevars(fn).nonlocals


def _accepts(rule, v) -> bool:
    try:
        rule(v, "config")
    except cli.InvalidConfig:
        return False
    return True


def _sizes(least: int, key: str):
    """Sizes from ``least`` up to the cap; a key's draws are often shared, so
    that a model's and a dataset's ``in_dim`` agree as often as not."""
    own = st.integers(least, max(least, SIZE_CAP))
    return st.one_of(st.shared(own, key=f"size:{key}"), own)


def _section(fields: dict, given: dict):
    """A section's keys, drawn from ``given`` or else from their rules: the
    required ones always, each other one now and then; a key whose default
    is null is sometimes null."""
    required, optional = {}, {}
    for key, (rule, default) in fields.items():
        values = given[key] if key in given else rule_values(rule, key)
        if default is None:
            values = st.one_of(st.none(), values)
        (required if default is ... else optional)[key] = values
    return st.fixed_dictionaries(required, optional=optional)


def _matrix(rows: int, cols: int):
    entries = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, 1e-300, -1e300, 1e300]))
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def _inline(draw):
    """An inline dataset: one entry per key of ``cli.INLINE``, sized from the
    shared ``d`` and ``in_dim`` draws."""
    d, in_dim = draw(_sizes(1, "d")), draw(_sizes(1, "in_dim"))
    keys = {
        "inputs": _matrix(d, in_dim),
        "targets": st.one_of(
            st.integers(0, SIZE_CAP).flatmap(lambda k: _matrix(d, k)),
            st.lists(st.integers(1, SIZE_CAP), min_size=d, max_size=d),
        ),
        "weights": st.lists(st.floats(1e-6, 1.0), min_size=d, max_size=d).map(
            lambda w: [x / math.fsum(w) for x in w]),
        "side": st.lists(st.sampled_from(["real", "generated"]), min_size=d, max_size=d),
    }
    fields = _closure(cli.INLINE)["fields"]
    assert set(keys) == set(fields), "a key of cli.INLINE without a strategy"
    return draw(_section(fields, keys))


def _dataset():
    """One of the dataset sources; ``path`` carries the inline dataset that
    the test writes to a file."""
    sources = {"synthetic": rule_values(cli.SYNTHETIC, "synthetic"), "inline": _inline(),
               "path": _inline()}
    assert set(sources) == set(_closure(cli._SOURCES)["fields"]), "a dataset source not drawn"
    return st.one_of(*(values.map(lambda v, k=k: {k: v}) for k, values in sources.items()))


def rule_values(rule, key: str):
    """A strategy for the values ``rule`` accepts at key ``key``."""
    if rule is cli._one_source:
        return _dataset()
    if rule is cli._string:  # output.dir; the test points it at a scratch directory
        return st.just("out")
    if rule is cli._given:  # an orthonormal dataset's targets
        return st.integers(0, SIZE_CAP).flatmap(lambda k: _matrix(SIZE_CAP, k))
    name = rule.__qualname__
    if name == "section.<locals>.check":
        return _section(_closure(rule)["fields"], {})
    if name == "tagged.<locals>.check":
        tagged = _closure(rule)
        return st.one_of(*(_section(_closure(variant)["fields"],
                                    {tagged["tag"]: st.just(value)})
                           for value, variant in tagged["sections"].items()))
    if name == "list_of.<locals>.<lambda>":
        return st.lists(rule_values(_closure(rule)["rule"], key), max_size=SIZE_CAP)
    assert name == "_rule.<locals>.check", f"no strategy for the rule at {key}"
    ok = _closure(rule)["ok"]
    kind, values = ok.__qualname__.split(".")[0], _closure(ok)
    if kind == "choice":
        return st.sampled_from(values["options"])
    if kind == "integer":
        if key == "seed":
            return st.one_of(st.integers(values["least"], 3), st.sampled_from(LARGE_SEEDS))
        return _sizes(values["least"], key)
    assert kind == "number", f"no strategy for the rule at {key}"
    return st.one_of(
        st.sampled_from(values["literals"] + tuple(v for v in EXTREMES if _accepts(rule, v))),
        st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: _accepts(rule, v)),
    )


CONFIGS = rule_values(cli.CONFIG, "config")


class Overtime(BaseException):
    """A command that ran past ``TIME_LIMIT`` (a BaseException, so that no
    handler in plgd takes it for one of its own errors)."""


def _raise_overtime(signum, frame):
    raise Overtime(f"no exit within {TIME_LIMIT} s")


def _command(path: Path, do_descent: bool) -> tuple[int, str]:
    """``run`` (or ``check``) of the config file: its exit code and output."""
    out = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_overtime)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.run_experiment(str(path), do_descent=do_descent)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue()


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None, database=None)
@given(cfg=CONFIGS)
def test_every_drawn_config_ends_in_a_documented_exit(cfg):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numeric warnings of extreme values are not exits
        tmp, cfg = Path(tmp), json.loads(json.dumps(cfg))  # hypothesis keeps the drawn one
        outdir = tmp / "out"
        cfg.setdefault("output", {})["dir"] = str(outdir)
        cfg.setdefault("descent", {}).setdefault("max_iter", SIZE_CAP)  # not the default 10000
        dataset = cfg["problem"]["dataset"]
        if "path" in dataset:
            (tmp / "data.json").write_text(json.dumps(dataset["path"]), encoding="utf-8")
            dataset["path"] = str(tmp / "data.json")
        path = tmp / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        for do_descent in (False, True):
            code, output = _command(path, do_descent)
            assert code in (0, 1, 2, 3), (code, output)
            assert "Traceback" not in output, output
            report = outdir / "report.json"
            if code == cli.EXIT_CONFIG:
                assert not report.exists(), output
            elif "json" in cfg["output"].get("formats", ["json"]):
                assert json.loads(report.read_text())["exit_code"] == code, output
