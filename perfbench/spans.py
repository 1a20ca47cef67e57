"""Layer spans recorded from outside plgd, for the traced benchmark run.

``install`` rebinds plgd's public functions (and the assembled problem's
map and objective callables) to wrappers that time each call.  Nothing in
plgd knows about them.  A name that another module imported with
``from .x import name`` is rebound in the importing module, because that
is where the call looks it up.

Each closed span adds one call, its inclusive time and its self time
(inclusive minus the spans it called) to a per-name total kept in memory.
The totals are kept rather than a log of every span because the finest
layers close up to ~10^6 times in one run.  Stacks are per thread, so the
sweep's worker threads each attribute their own time.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from time import perf_counter

#: the pipeline call whose time the other spans must account for
ROOT = "cli.execute"

#: the private writers that make up the export phase of ``cli.execute``
EXPORT_WRITERS = ("_write_trace_csv", "_write_bounds_csv", "_write_report", "_write_timings", "save_theta")


class Recorder:
    """Per-name span totals plus counters filled from span results."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counters: dict[str, int] = {}
        self.covered_s = 0.0  # self time of spans nested inside a ROOT span

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as span ``name``; ``on_result(result)`` runs after it."""

        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            inside_root = bool(stack) and stack[-1][1]
            frame = [0.0, inside_root or name == ROOT]  # [child time, children inside root]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                own = elapsed - frame[0]
                with self._lock:
                    tot = self.totals.setdefault(name, [0, 0.0, 0.0])
                    tot[0] += 1
                    tot[1] += elapsed
                    tot[2] += own
                    if inside_root:
                        self.covered_s += own
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def summary(self) -> dict:
        with self._lock:
            return {
                "totals": {k: list(v) for k, v in self.totals.items()},
                "counters": dict(self.counters),
                "covered_s": self.covered_s,
            }


def install(rec: Recorder) -> None:
    """Wrap plgd's layers in spans recorded by ``rec``."""
    from plgd import cli, descent, problems, smoothmap, space

    def rebind(module, attr, name, on_result=None):
        setattr(module, attr, rec.wrap(name, getattr(module, attr), on_result))

    def count_steps(result):
        rec.count("descent.steps", result[0].n_steps)

    def count_rows(rows):
        rec.count("descent.monitor_rows_count", len(rows))

    rebind(cli, "execute", ROOT)
    rebind(cli, "check_gradients", "problems.check_gradients")
    rebind(cli, "make_certificates", "cli.make_certificates")
    rebind(cli, "analytic_certificates", "problems.analytic_certificates")
    rebind(cli, "sampled_certificates", "problems.sampled_certificates")
    rebind(cli, "objective_with_estimated_lg", "problems.objective_with_estimated_lg")
    rebind(cli, "build_ledger", "descent.build_ledger")
    rebind(cli, "run", "descent.run", count_steps)
    rebind(cli, "monitor_rows", "descent.monitor_rows", count_rows)
    for writer in EXPORT_WRITERS:
        rebind(cli, writer, "cli.export")
    rebind(descent, "verify", "descent.verify")
    rebind(descent, "monitor_rows", "descent.monitor_rows", count_rows)
    rebind(descent, "closest_optimum", "descent.closest_optimum")
    rebind(problems, "fd_check", "smoothmap.fd_check")
    rebind(problems, "certify", "smoothmap.certify")
    rebind(problems, "ntk_gram", "model.ntk_gram")
    rebind(smoothmap, "op_norm", "space.op_norm")
    rebind(smoothmap, "coercivity", "space.coercivity")
    rebind(space.LinOp, "adjoint_apply", "space.adjoint")

    build = cli.build_problem

    def build_problem(cfg):
        problem = build(cfg)
        f_map, obj = problem.F, problem.f
        return replace(
            problem,
            F=replace(
                f_map,
                value_fn=rec.wrap("model.forward", f_map.value_fn),
                jac_fn=rec.wrap("model.jacobian", f_map.jac_fn),
            ),
            f=replace(
                obj,
                value_fn=rec.wrap("integrand.value", obj.value_fn),
                grad_fn=rec.wrap("integrand.grad", obj.grad_fn),
            ),
        )

    cli.build_problem = rec.wrap("cli.build_problem", build_problem)
