"""Fixed-step gradient descent on compositions with bound verification.

Runs ``x <- x - alpha * J_F(x)* grad_f(F(x))`` and checks the recorded
trajectory against the quantitative guarantees that the certified
constants imply:

* geometric decay of the optimality gap with factor
  ``q = 1 + L lam alpha^2 - 2 lam alpha``,
* per-step decay, step-norm decay ``alpha q^(i/2) K``, bounded path length
  and final distance from initialization ``alpha K / (1 - sqrt(q))``,
* the per-iterate composition inequalities (PL lower bound, quadratic
  upper bound on the gradient, Taylor bound on consecutive iterates),
* the closest-optimum distance bound when the optimum set is computable.

Each verdict distinguishes hypothesis failures (missing constants, ball
too small, sampled rather than analytic provenance) from genuine bound
violations.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Optional

import numpy as np

from .errors import InvalidConfig, MissingCertificate, NumericFailure, SolverCapExceeded
from .objective import ScalarObjective
from .smoothmap import CertValue, MapCertificate, SmoothMap
from .space import gram_factor, require_dense, weighted_pinv_solve, weighted_solve

#: relative slack granted to every monitored inequality
REL_TOL = 1e-9
#: absolute slack floor for norm-scale inequalities
ABS_TOL = 1e-12
#: iterations per block in which :func:`verify` evaluates each monitored
#: inequality, so that its memory does not grow with the run
VERIFY_BLOCK = 2048
#: bytes of :func:`run`'s buffer of iterates, which stays below glibc's
#: mmap threshold; it holds at least one row
STEP_BUFFER_BYTES = 65536
#: abort when the gap exceeds this multiple of the initial gap
DIVERGENCE_FACTOR = 10.0
#: why :func:`build_ledger` refuses an objective without L or f_star
FULL_LEDGER_NEEDS = (
    "full ledger requires the objective's L and f_star; "
    "use minimal_ledger with an explicit alpha otherwise"
)


@dataclass(frozen=True)
class ConstantsLedger:
    """All constants entering the convergence guarantees, with provenance.

    ``K_F``, ``L_F``, ``lam_F`` certify the map; ``L_f``, ``lam_f`` the
    objective.  Derived fields follow the fixed formulas

        K_f    = sqrt(2 L_f (f(F(x0)) - f_star))
        L      = K_F^2 L_f + K_f L_F
        lam    = lam_F lam_f            (<= L)
        q      = 1 + L lam alpha^2 - 2 lam alpha     (in [0, 1))
        K      = sqrt(2 L (f(F(x0)) - f_star))
        radius_required = max(alpha K / (1 - sqrt q) + (1/L + alpha) K,
                              ||grad (f o F)(x0)|| / L)

    ``lam``-dependent fields are None when no coercivity certificate is
    available (descent still runs, gap-decay verdicts are then reported
    as hypothesis-unmet).  In minimal mode (no ``L_f`` or no ``f_star``,
    e.g. adversarial integrands) only ``alpha`` is populated.
    """

    alpha: float
    K_F: Optional[CertValue] = None
    L_F: Optional[CertValue] = None
    lam_F: Optional[CertValue] = None
    L_f: Optional[CertValue] = None
    lam_f: Optional[CertValue] = None
    f_star: Optional[float] = None
    K_f: Optional[float] = None
    L: Optional[float] = None
    lam: Optional[float] = None
    q: Optional[float] = None
    K: Optional[float] = None
    radius_required: Optional[float] = None
    initial_gap: Optional[float] = None
    grad0_norm: Optional[float] = None

    @property
    def mode(self) -> str:
        if self.q is not None:
            return "full"
        if self.L is not None:
            return "no-uc"
        return "minimal"

    @property
    def provenance(self) -> str:
        certs = [c for c in (self.K_F, self.L_F, self.lam_F, self.L_f, self.lam_f) if c is not None]
        return "analytic" if all(c.provenance == "analytic" for c in certs) else "sampled"

    def dist_bound(self) -> Optional[float]:
        """``alpha K / (1 - sqrt q)``, the distance-from-init guarantee."""
        if self.q is None or self.K is None:
            return None
        return self.alpha * self.K / (1.0 - math.sqrt(self.q))

    def as_dict(self) -> dict:
        def cert(c):
            return None if c is None else c.as_dict()

        return {
            "alpha": self.alpha,
            "K_F": cert(self.K_F),
            "L_F": cert(self.L_F),
            "lambda_F": cert(self.lam_F),
            "L_f": cert(self.L_f),
            "lambda_f": cert(self.lam_f),
            "f_star": self.f_star,
            "K_f": self.K_f,
            "L": self.L,
            "lambda": self.lam,
            "q": self.q,
            "K": self.K,
            "radius_required": self.radius_required,
            "initial_gap": self.initial_gap,
            "grad0_norm": self.grad0_norm,
            "mode": self.mode,
            "provenance": self.provenance,
        }


def composite_gradient(f_map: SmoothMap, obj: ScalarObjective, x) -> np.ndarray:
    """Coordinates of ``grad (obj o f_map)(x) = J(x)* grad obj(F(x))``."""
    fx, pull = f_map.value_and_vjp_fn(f_map.domain._coords(x))
    return pull(obj.grad_fn(np.asarray(fx, dtype=float)))


def build_ledger(
    f_map: SmoothMap,
    obj: ScalarObjective,
    x0,
    cert: MapCertificate,
    alpha="auto",
) -> ConstantsLedger:
    """Populate the ledger from certificates, the initial point and alpha.

    ``alpha="auto"`` selects 1/L (the optimal contraction).  Raises
    :class:`MissingCertificate` when the objective lacks the Lipschitz
    constant or infimum needed to size a step (pass a numeric alpha and a
    minimal ledger is produced instead via :func:`minimal_ledger`).  Raises
    :class:`NumericFailure` when L or K is not finite.
    """
    x0c = f_map.domain._coords(x0)
    if obj.L is None or obj.f_star is None:
        raise MissingCertificate(FULL_LEDGER_NEEDS)
    l_f = obj.L.value
    gap0 = float(obj.value_fn(f_map.value(x0c)) - obj.f_star)
    if gap0 < 0 and gap0 > -1e-12:
        gap0 = 0.0
    if gap0 < 0:
        raise InvalidConfig(f"f(F(x0)) is below the declared infimum by {-gap0}")

    k_f = math.sqrt(2.0 * l_f * gap0)
    l_total = cert.K.value**2 * l_f + k_f * cert.L.value
    if l_total <= 0:
        raise InvalidConfig("composite Lipschitz constant is zero; nothing to descend")
    k_total = math.sqrt(2.0 * l_total * gap0)
    if not math.isfinite(k_total):  # L, or 2 L times the initial gap, overflowed
        raise NumericFailure(f"non-finite ledger constants: L = {l_total}, K = {k_total}")

    if alpha == "auto":
        alpha_val = 1.0 / l_total
    else:
        alpha_val = float(alpha)
        if not (0.0 < alpha_val < 2.0 / l_total):
            raise InvalidConfig(
                f"alpha must lie in (0, 2/L) = (0, {2.0 / l_total}); got {alpha_val}"
            )

    lam = None
    q = None
    if cert.lam is not None and obj.lam is not None:
        lam = cert.lam.value * obj.lam.value
        if lam > l_total * (1 + 1e-9):
            raise InvalidConfig(
                f"inconsistent constants: lambda={lam} exceeds L={l_total}"
            )
        lam = min(lam, l_total)
        q = 1.0 + l_total * lam * alpha_val**2 - 2.0 * lam * alpha_val
        q = min(max(q, 0.0), 1.0 - 1e-16)

    g0 = composite_gradient(f_map, obj, x0c)
    g0_norm = f_map.domain.norm(g0)

    radius = None
    if q is not None:
        radius = max(
            alpha_val * k_total / (1.0 - math.sqrt(q))
            + (1.0 / l_total + alpha_val) * k_total,
            g0_norm / l_total,
        )

    return ConstantsLedger(
        alpha=alpha_val,
        K_F=cert.K,
        L_F=cert.L,
        lam_F=cert.lam,
        L_f=obj.L,
        lam_f=obj.lam,
        f_star=obj.f_star,
        K_f=k_f,
        L=l_total,
        lam=lam,
        q=q,
        K=k_total,
        radius_required=radius,
        initial_gap=gap0,
        grad0_norm=g0_norm,
    )


def minimal_ledger(alpha: float) -> ConstantsLedger:
    """A ledger carrying only the step size (no guarantees monitored)."""
    if not alpha > 0:
        raise InvalidConfig("minimal ledger requires a positive numeric alpha")
    return ConstantsLedger(alpha=float(alpha))


@dataclass(eq=False)
class DescentTrace:
    """Recorded trajectory of one descent run.

    ``losses``, ``grad_norms`` and ``dist_from_init`` have one entry per
    iterate (including the last); ``step_norms`` has one entry per step.
    ``iterates`` is a read-only ``(m, p)`` array of the kept iterates:
    ``iterates[0]`` is the initial point and ``iterates[-1]`` the last
    iterate (one row for a run that takes no step).
    """

    iterates: np.ndarray
    losses: np.ndarray
    grad_norms: np.ndarray
    step_norms: np.ndarray
    dist_from_init: np.ndarray
    stop_gap: float
    predicted_iters: Optional[int]
    diverged: bool = False

    @property
    def n_steps(self) -> int:
        return len(self.step_norms)

    # The monitored inequalities read these derived series a block at a
    # time, for the verdicts and again for the bounds.csv export.  Each is
    # computed once, on first use, and kept for every later block; a block
    # could not start the running sum of path_lengths on its own.

    @cached_property
    def path_lengths(self) -> np.ndarray:
        """``path_lengths[i]``, the summed norms of steps 0..i."""
        return np.cumsum(self.step_norms)

    @cached_property
    def sq_grad_norms(self) -> np.ndarray:
        """The squared gradient norms, one per iterate."""
        return _squares(self.grad_norms)

    @cached_property
    def sq_step_norms(self) -> np.ndarray:
        """The squared step norms, one per step."""
        return _squares(self.step_norms)


@dataclass
class Verdict:
    """Outcome of one monitored bound.

    ``passed`` is None when the bound could not be evaluated.  ``measured``
    and ``bound`` record the worst comparison (largest violation if any,
    else the tightest margin).  ``hypothesis_met`` is False when the
    theorem's preconditions were not established for this run, in which
    case a failure is reported but does not indicate a broken guarantee.
    """

    name: str
    passed: Optional[bool]
    measured: Optional[float] = None
    bound: Optional[float] = None
    hypothesis_met: bool = True
    certified: str = "analytic"
    n_checked: int = 0
    n_violations: int = 0
    worst_iter: Optional[int] = None
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "measured": self.measured,
            "bound": self.bound,
            "hypothesis_met": self.hypothesis_met,
            "certified": self.certified,
            "n_checked": self.n_checked,
            "n_violations": self.n_violations,
            "worst_iter": self.worst_iter,
            "detail": self.detail,
        }


@dataclass(eq=False)
class BoundVerdicts:
    """All verdicts of a run, addressable by name."""

    verdicts: dict = field(default_factory=dict)

    def add(self, v: Verdict):
        self.verdicts[v.name] = v

    def get(self, name: str) -> Verdict:
        return self.verdicts[name]

    def violations(self, analytic_only: bool = False) -> list:
        """Failed verdicts whose hypotheses were met (genuine violations)."""
        out = [
            v
            for v in self.verdicts.values()
            if v.passed is False and v.hypothesis_met
        ]
        if analytic_only:
            out = [v for v in out if v.certified == "analytic"]
        return out

    def as_list(self) -> list:
        return [v.as_dict() for v in self.verdicts.values()]


#: the monitored inequalities that bound the measured value from below;
#: every other one bounds it from above
LOWER_BOUNDS = ("composition_pl",)


@dataclass(frozen=True, eq=False)
class MonitorTable:
    """Every evaluated inequality along a trajectory, one row per check.

    The columns are parallel arrays.  Row r compares ``measured[r]`` with
    ``bound[r]`` for inequality ``name[r]`` at iteration ``iteration[r]``:
    ``holds[r]`` is ``measured <= bound + tol`` for an upper bound and
    ``measured >= bound - tol`` for the names in :data:`LOWER_BOUNDS`, with
    tol the inequality's tolerance.
    Rows are in bounds.csv order.
    """

    name: np.ndarray
    iteration: np.ndarray
    measured: np.ndarray
    bound: np.ndarray
    holds: np.ndarray

    def __len__(self) -> int:
        return self.iteration.size


def _holds(name: str, measured, bound, tol) -> np.ndarray:
    """Whether each row of inequality ``name`` holds within its tolerance."""
    return measured >= bound - tol if name in LOWER_BOUNDS else measured <= bound + tol


def _table(groups: list) -> MonitorTable:
    """The table of ``groups``, each ``(iteration, inequalities)`` with
    inequalities ``(name, measured, bound, tol)``, scalars broadcast.

    A group's rows run by iteration and interleave its inequalities within
    an iteration.  Each column is allocated once and filled in place.
    """
    size = sum(len(iteration) * len(inequalities) for iteration, inequalities in groups)
    width = max((len(ineq[0]) for _, inequalities in groups for ineq in inequalities), default=1)
    t = MonitorTable(
        name=np.empty(size, dtype=f"U{width}"),
        iteration=np.empty(size, dtype=int),
        measured=np.empty(size),
        bound=np.empty(size),
        holds=np.empty(size, dtype=bool),
    )
    start = 0
    for iteration, inequalities in groups:
        stop = start + len(iteration) * len(inequalities)
        for j, (name, measured, bound, tol) in enumerate(inequalities):
            rows = slice(start + j, stop, len(inequalities))
            t.name[rows], t.iteration[rows] = name, iteration
            t.measured[rows], t.bound[rows] = measured, bound
            t.holds[rows] = _holds(name, t.measured[rows], t.bound[rows], tol)
        start = stop
    return t


def _scalar_pow(bases, exponents) -> np.ndarray:
    """Elementwise power of Python floats through Python's ``**``.

    numpy's vectorized power and square round differently in the last bit
    for a few elements; the scalar keeps the 17-digit bounds.csv cells and
    the verdicts stable.
    """
    return np.fromiter(map(pow, bases, exponents), dtype=float)


def _squares(a: np.ndarray) -> np.ndarray:
    """``a ** 2`` by :func:`_scalar_pow`, filled :data:`VERIFY_BLOCK`
    elements at a time, so only one block of Python floats is alive."""
    out = np.empty_like(a)
    for lo in range(0, a.size, VERIFY_BLOCK):
        block = a[lo:lo + VERIFY_BLOCK]
        out[lo:lo + block.size] = _scalar_pow(block.tolist(), repeat(2))
    return out


def row_norms(m: np.ndarray, weights: Optional[np.ndarray] = None) -> np.ndarray:
    """The norms of the rows c of the 2-d array ``m``, bit for bit
    ``math.sqrt((weights * c).dot(c))``, or ``math.sqrt(c.dot(c))`` without
    weights.

    One stacked ``np.matmul`` of (1, p) rows by (p, 1) columns makes the
    same BLAS ddot call per row as ``ndarray.dot`` of two vectors, and
    ``np.sqrt`` rounds as ``math.sqrt`` does.  (numpy 1.24 has no
    ``np.vecdot``.)
    """
    left = m if weights is None else weights * m
    sq = np.matmul(left[:, None, :], m[:, :, None]).reshape(-1)
    return np.sqrt(sq, out=sq)


def _q_bound(q: float, gap0: float, iterations: range) -> np.ndarray:
    """The gap-decay bounds ``q^i gap0`` of the given iterations."""
    return _scalar_pow(repeat(q), iterations) * gap0


def _step_bound(ledger: ConstantsLedger, steps: range) -> np.ndarray:
    """The step-norm bounds ``alpha sqrt(q)^i K`` of the given steps."""
    return ledger.alpha * _scalar_pow(repeat(math.sqrt(ledger.q)), steps) * ledger.K


def predicted_iterations(ledger: ConstantsLedger, gap0: float, stop_gap: float) -> Optional[int]:
    """Iterations the ledger's q predicts to reach the stopping gap."""
    if ledger.q is None or gap0 <= 0:
        return None if ledger.q is None else 0
    if gap0 <= stop_gap:
        return 0
    if ledger.q == 0.0:
        return 1
    if stop_gap <= 0.0:
        return None  # a positive-q contraction never reaches an exact zero
    return int(math.ceil(math.log(stop_gap / gap0) / math.log(ledger.q)))


def _groups(trace: DescentTrace, ledger: ConstantsLedger) -> list:
    """The monitorable inequalities of the trajectory, in bounds.csv order.

    Each group is ``(n, names, evaluate)``: it checks the inequalities
    ``names`` at iterations 0..n-1, and ``evaluate(lo, hi)`` returns each
    one's ``(measured, bound, tol)`` at iterations lo..hi-1, a scalar
    standing for every iteration.  Every entry is computed from its own
    iteration's values (the running path length is read from the trace),
    so any range gives the bits of the whole run.  This is the
    single source for the verdicts and the bounds.csv export; nothing
    downstream recomputes a bound differently.
    """
    if ledger.f_star is None:
        return []
    f_star, alpha = ledger.f_star, ledger.alpha
    losses, step_norms = trace.losses, trace.step_norms
    gap0 = float(losses[0] - f_star)
    n, n_steps = losses.size, trace.n_steps
    loss_tol = REL_TOL * max(gap0, 0.0) + ABS_TOL

    def gaps(lo, hi):
        return losses[lo:hi] - f_star

    groups = []
    if ledger.q is not None and ledger.K is not None:
        q = ledger.q
        dist_bound = ledger.dist_bound()
        dist_tol = REL_TOL * dist_bound + ABS_TOL

        def q_decay(lo, hi):
            return [(gaps(lo, hi), _q_bound(q, gap0, range(lo, hi)), loss_tol)]

        def per_step(lo, hi):
            step_bound = _step_bound(ledger, range(lo, hi))
            return [
                (gaps(lo + 1, hi + 1), q * gaps(lo, hi), loss_tol),
                (step_norms[lo:hi], step_bound, REL_TOL * step_bound + ABS_TOL),
                (trace.path_lengths[lo:hi], dist_bound, dist_tol),
            ]

        groups.append((n, ("q_decay",), q_decay))
        # bounds.csv lists the three inequalities of each step together
        groups.append((n_steps, ("per_step_decay", "step_norm", "path_length"), per_step))

    if ledger.lam is not None:
        pl_tol = REL_TOL * ledger.lam * max(gap0, 0.0) + ABS_TOL

        def pl(lo, hi):
            return [(0.5 * trace.sq_grad_norms[lo:hi], ledger.lam * gaps(lo, hi), pl_tol)]

        groups.append((n, ("composition_pl",), pl))
    if ledger.L is not None:
        lg_tol = REL_TOL * ledger.L * max(gap0, 0.0) + ABS_TOL

        def lg(lo, hi):
            return [(0.5 * trace.sq_grad_norms[lo:hi], ledger.L * gaps(lo, hi), lg_tol)]

        def taylor(lo, hi):
            # Taylor remainder on consecutive iterates; the descent direction
            # makes <grad_i, x_{i+1} - x_i> = -alpha ||grad_i||^2.
            sq_grad = trace.sq_grad_norms[lo:hi]
            remainder = np.abs(losses[lo + 1:hi + 1] - losses[lo:hi] + alpha * sq_grad)
            bound = 0.5 * ledger.L * trace.sq_step_norms[lo:hi]
            return [(remainder, bound, loss_tol)]

        groups.append((n, ("composition_lg_bound",), lg))
        groups.append((n_steps, ("taylor_bound",), taylor))
    return groups


def monitor_size(trace: DescentTrace, ledger: ConstantsLedger) -> int:
    """The number of rows of :func:`monitor_rows`, found without evaluating any."""
    return sum(n * len(names) for n, names, _ in _groups(trace, ledger))


def monitor_rows(
    trace: DescentTrace, ledger: ConstantsLedger, start: int = 0, stop: Optional[int] = None
) -> MonitorTable:
    """Rows ``start:stop`` of the table of every monitorable inequality
    along the recorded trajectory (all rows by default), in bounds.csv
    order.  Only the iterations those rows check are evaluated, so a CSV
    writer holds one block of the table at a time.
    """
    stop = monitor_size(trace, ledger) if stop is None else stop
    parts, lead, offset = [], 0, 0
    for n, names, evaluate in _groups(trace, ledger):
        k = len(names)
        lo, hi = max(start - offset, 0), min(stop - offset, n * k)  # rows of this group
        offset += n * k
        if lo >= hi:
            continue
        first, last = lo // k, -(-hi // k)  # the iterations of those rows
        if not parts:
            lead = lo - first * k
        inequalities = [(name, *ineq) for name, ineq in zip(names, evaluate(first, last))]
        parts.append((np.arange(first, last), inequalities))
    t = _table(parts)
    rows = slice(lead, lead + stop - start)
    return MonitorTable(**{column: values[rows] for column, values in vars(t).items()})


def _fold(v: Verdict, lo: int, measured, bound, tol) -> None:
    """Fold the rows of ``v``'s inequality at iterations lo, lo + 1, ...
    into ``v``: its worst row is the largest violation if any, else the
    tightest margin, the first on ties (an earlier block keeps a tie)."""

    def margins(measured, bound):
        return bound - measured if v.name in LOWER_BOUNDS else measured - bound

    bound = np.broadcast_to(bound, measured.shape)
    margin = margins(measured, bound)
    violated = ~_holds(v.name, measured, bound, tol)
    n_violations = int(violated.sum())
    candidates = np.flatnonzero(violated) if n_violations else np.arange(measured.size)
    worst = int(candidates[np.argmax(margin[candidates])])
    if v.worst_iter is None or (n_violations > 0, margin[worst]) > (
        v.n_violations > 0, margins(v.measured, v.bound)
    ):
        v.measured, v.bound = float(measured[worst]), float(bound[worst])
        v.worst_iter = lo + worst
    v.n_checked += measured.size
    v.n_violations += n_violations
    v.passed, v.detail = v.n_violations == 0, ""


def closest_optimum(f_map: SmoothMap, obj: ScalarObjective, x0) -> Optional[np.ndarray]:
    """Minimum-distance point of the optimum set, for computable families.

    Supported when the map is linear and the objective has a unique known
    minimizer h*: the optimum set is the affine solution set of
    ``A x = h*`` and the closest point is ``x0 + A*(A A*)^+ (h* - A x0)``
    in the weighted metrics.  Returns None otherwise, when the optimum set
    is empty (h* not attainable), or when the codomain is above the dense
    solver cap.
    """
    if f_map.linear_op is None or obj.minimizer is None:
        return None
    a = f_map.linear_op
    try:
        require_dense(a.codomain.dim)
    except SolverCapExceeded:
        return None
    x0c = f_map.domain._coords(x0)
    r = obj.minimizer - a.apply(x0c)
    mat_a = a.mat
    weights = a.codomain.weights
    # A* = D_dom^-1 M^T D_cod, in C order: BLAS rounds ``mat_adj @ y`` by layout
    mat_adj = np.ascontiguousarray(mat_a.T * weights) / a.domain.weights[:, None]
    # D^1/2 (A A*) D^-1/2 as B B^T: numpy forms it with syrk, single-threaded
    # at these sizes, so OpenBLAS's thread pool stays asleep after the loop
    b = gram_factor(mat_a, a.domain.weights, weights)
    gram = b @ b.T
    # verify calls this only under a full ledger, whose Gram clears the
    # rank floor, so one LU solve suffices there; the SVD pseudo-inverse,
    # far costlier at large d, is the fallback when that solve fails the
    # residual test, so None means h* is not attainable, never a poor solve
    for solve in (weighted_solve, weighted_pinv_solve):
        y = solve(gram, weights, r)
        if y is None:
            continue
        delta = mat_adj @ y
        if a.codomain.norm(mat_a @ delta - r) <= 1e-8 * (1.0 + a.codomain.norm(r)):
            return x0c + delta
    return None  # optimum set empty: h* is not attainable by the map


def _at(i: int) -> str:
    return "the initial point" if i == 0 else f"iteration {i}"


def run(
    f_map: SmoothMap,
    obj: ScalarObjective,
    x0,
    ledger: ConstantsLedger,
    max_iter: int = 10000,
    stop_gap: Optional[float] = None,
    declared_radius: Optional[float] = None,
    keep_every: Optional[int] = None,
) -> tuple[DescentTrace, BoundVerdicts]:
    """Run descent and verify every applicable bound on the trajectory.

    Stops when the optimality gap falls to ``stop_gap`` (default
    1e-10 x initial gap), when ``max_iter`` steps were taken, or when the
    gap has grown past ten times its initial value (divergence guard;
    without a known infimum the guard watches the raw loss instead).

    The verdicts need only per-step scalars, so the trace keeps the
    initial and the last iterate; ``keep_every=k`` also keeps copies of
    iterations k, 2k, ...  Each step writes its iterate ``x - alpha * g``
    into the next row of a fixed buffer of :data:`STEP_BUFFER_BYTES` (at
    least one row); the map sees that row, which a later step overwrites,
    so a map that keeps its argument must copy it.  A step takes only what
    its checks need: the loss and the squared gradient norm, whose
    finiteness is the gradient's.  When the buffer is full, and at the
    end, the block's step norms and distances from the initial point come
    from one :func:`row_norms` call each; the gradient norms' square
    roots are taken once, after the loop.  Every value has the bits of a
    per-step ``math.sqrt(c.dot(c))``.  The four per-step series are 8-byte
    floats, which the trace's arrays view without a copy, and
    :func:`verify` evaluates the monitored inequalities a block of
    iterations at a time.  Peak memory is then O(p) plus about 70 bytes
    per step (a random-features run of 10^5 steps, verification and export
    included), not O(p * steps).
    """
    if max_iter < 1:
        raise InvalidConfig("max_iter must be >= 1")
    if keep_every is not None and not (
        isinstance(keep_every, (int, np.integer)) and keep_every >= 1
    ):
        raise InvalidConfig(f"keep_every must be an integer >= 1; got {keep_every!r}")
    # The loop works on raw coordinates: every vector it makes has the
    # domain's shape by construction, so only finiteness is checked.
    weights = f_map.domain.weights
    if (weights == 1.0).all():
        weights = None  # 1.0 * c == c: the weighted norm, bit for bit
    value_and_vjp, value_and_grad = f_map.value_and_vjp_fn, obj.value_and_grad_fn

    def evaluate(x, i):
        """Loss, gradient and squared gradient norm at iterate i from one
        objective call; a failure names the iteration."""
        try:
            fx, pull = value_and_vjp(x)
            loss, grad_f = value_and_grad(fx)
            g = pull(grad_f)
        except NumericFailure as exc:
            raise NumericFailure(f"{exc} at {_at(i)}", iteration=i) from exc
        # WeightedSpace.norm's arithmetic, squared
        sq_norm = g.dot(g) if weights is None else (weights * g).dot(g)
        # a non-finite entry makes the norm non-finite, so g is scanned only then
        if not (math.isfinite(loss) and (math.isfinite(sq_norm) or np.isfinite(g).all())):
            raise NumericFailure(f"non-finite loss or gradient at {_at(i)}", iteration=i)
        return loss, g, sq_norm

    x_init = f_map.domain._coords(x0).copy()
    alpha = ledger.alpha
    rows = np.empty((max(1, STEP_BUFFER_BYTES // x_init.nbytes), x_init.size))
    before = x_init.copy()  # the iterate before the buffer's first row

    f_star = ledger.f_star
    losses, sq_grad_norms, step_norms, dists = (array("d") for _ in range(4))
    kept = [x_init]  # stacked once after the loop: max_iter may be far above the steps taken
    diverged = False

    def flush(n):
        """Record the distances and step norms of the buffer's first n rows."""
        block = rows[:n]
        diffs = block - x_init
        dists.frombytes(row_norms(diffs, weights).tobytes())
        np.subtract(block[0], before, out=diffs[0])
        np.subtract(block[1:], block[:-1], out=diffs[1:])
        step_norms.frombytes(row_norms(diffs, weights).tobytes())
        before[:] = block[-1]

    loss, g, sq_norm = evaluate(x_init, 0)
    losses.append(loss)
    sq_grad_norms.append(sq_norm)
    dists.append(0.0)

    gap0 = None if f_star is None else max(loss - f_star, 0.0)
    if stop_gap is None:
        stop_gap = 1e-10 * gap0 if gap0 is not None else 0.0

    x, j = x_init, 0  # the iterate and its buffer rows in use
    for i in range(1, max_iter + 1):
        if gap0 is not None:
            gap = loss - f_star
            if gap <= stop_gap:
                break
            if gap0 > 0 and gap > DIVERGENCE_FACTOR * gap0:
                diverged = True
                break
        elif abs(loss) > DIVERGENCE_FACTOR * (abs(losses[0]) + 1.0):
            diverged = True
            break

        x = np.subtract(x, alpha * g, rows[j])
        j += 1
        if keep_every is not None and i % keep_every == 0:
            kept.append(x.copy())

        loss, g, sq_norm = evaluate(x, i)
        losses.append(loss)
        sq_grad_norms.append(sq_norm)
        if j == len(rows):
            flush(j)
            j = 0
    if j:
        flush(j)

    n_steps = len(step_norms)
    if n_steps and (keep_every is None or n_steps % keep_every):
        kept.append(x.copy())
    iterates = np.stack(kept)
    iterates.setflags(write=False)
    grad_norms = np.frombuffer(sq_grad_norms)
    np.sqrt(grad_norms, out=grad_norms)
    trace = DescentTrace(
        iterates=iterates,
        losses=np.frombuffer(losses),
        grad_norms=grad_norms,
        step_norms=np.frombuffer(step_norms),
        dist_from_init=np.frombuffer(dists),
        stop_gap=stop_gap,
        predicted_iters=(
            None if gap0 is None else predicted_iterations(ledger, gap0, stop_gap)
        ),
        diverged=diverged,
    )
    verdicts = verify(trace, ledger, f_map, obj, declared_radius=declared_radius)
    return trace, verdicts


def verify(
    trace: DescentTrace,
    ledger: ConstantsLedger,
    f_map: SmoothMap,
    obj: ScalarObjective,
    declared_radius: Optional[float] = None,
) -> BoundVerdicts:
    """Verdicts of the final bounds and of each monitored inequality, its
    rows folded :data:`VERIFY_BLOCK` iterations at a time: "constants
    unavailable" when the ledger lacks its constants, "no step taken" when
    it has no rows (a run that takes no step)."""
    out = BoundVerdicts()
    certified = ledger.provenance

    # ball hypothesis: the required radius exists, is covered by the
    # declared region (when one was declared) and contained the trajectory
    radius = ledger.radius_required
    max_dist = float(trace.dist_from_init.max()) if len(trace.dist_from_init) else 0.0
    ball_ok = None
    if radius is not None:
        ball_ok = max_dist <= radius * (1 + REL_TOL) + ABS_TOL
    declared_ok = (
        True
        if declared_radius is None or radius is None
        else radius <= declared_radius * (1 + REL_TOL)
    )
    hyp_ball = bool(ball_ok) and declared_ok

    out.add(
        Verdict(
            name="ball",
            passed=ball_ok,
            measured=max_dist,
            bound=radius,
            hypothesis_met=radius is not None and declared_ok,
            certified=certified,
            n_checked=len(trace.dist_from_init),
            detail="trajectory distance from init vs required trust radius",
        )
    )

    # each inequality is folded over blocks of its iterations; _groups
    # gives an inequality exactly when the ledger holds its constants
    found = {}
    for n, names, evaluate in _groups(trace, ledger):
        for name in names:
            found[name] = Verdict(name=name, passed=None, detail="no step taken")
        for lo in range(0, n, VERIFY_BLOCK):
            for name, ineq in zip(names, evaluate(lo, min(lo + VERIFY_BLOCK, n))):
                _fold(found[name], lo, *ineq)
    for name in ("q_decay", "per_step_decay", "step_norm", "path_length",
                 "composition_pl", "composition_lg_bound", "taylor_bound"):
        v = found.get(name)
        if v is None:
            v = Verdict(name, None, hypothesis_met=False, detail="constants unavailable")
        else:
            v.hypothesis_met = hyp_ball
        v.certified = certified
        if trace.diverged:
            v.detail = (v.detail + " (run diverged)").strip()
        out.add(v)

    # final distance from initialization
    dist_bound = ledger.dist_bound()
    final_dist = float(trace.dist_from_init[-1]) if len(trace.dist_from_init) else 0.0
    out.add(
        Verdict(
            name="dist_init",
            passed=(
                None
                if dist_bound is None
                else final_dist <= dist_bound * (1 + REL_TOL) + ABS_TOL
            ),
            measured=final_dist,
            bound=dist_bound,
            hypothesis_met=dist_bound is not None and hyp_ball,
            certified=certified,
            n_checked=1,
        )
    )

    # closest-optimum bound: the optimum set is solved for only when the
    # ledger holds every constant of the bound, and then only for
    # computable families
    has_constants = dist_bound is not None and all(
        c is not None for c in (ledger.K_F, ledger.L, ledger.L_f, ledger.q)
    )
    x_hat = closest_optimum(f_map, obj, trace.iterates[0]) if has_constants else None
    if x_hat is not None:
        d_hat = f_map.domain.norm(x_hat - trace.iterates[0])
        bound = (
            ledger.alpha
            * ledger.K_F.value
            * math.sqrt(ledger.L * ledger.L_f.value)
            * d_hat
            / (1.0 - math.sqrt(ledger.q))
        )
        out.add(
            Verdict(
                name="closest_opt",
                passed=final_dist <= bound * (1 + REL_TOL) + ABS_TOL,
                measured=final_dist,
                bound=bound,
                hypothesis_met=hyp_ball,
                certified=certified,
                n_checked=1,
                detail=f"distance to nearest optimum {d_hat}",
            )
        )
    else:
        out.add(
            Verdict(
                name="closest_opt",
                passed=None,
                hypothesis_met=False,
                certified=certified,
                detail=(
                    "optimum set not computable for this family"
                    if has_constants
                    else "constants unavailable"
                ),
            )
        )

    # reaching the stopping gap is itself guaranteed on certified runs,
    # provided the iteration budget covered the predicted count
    if ledger.f_star is not None:
        final_gap = float(trace.losses[-1]) - ledger.f_star
        reached = final_gap <= trace.stop_gap * (1 + REL_TOL) + ABS_TOL
        budget_covered = (
            trace.predicted_iters is not None
            and trace.n_steps >= trace.predicted_iters
        )
        out.add(
            Verdict(
                name="converged",
                passed=bool(reached and not trace.diverged),
                measured=final_gap,
                bound=trace.stop_gap,
                hypothesis_met=ledger.q is not None
                and hyp_ball
                and (reached or budget_covered),
                certified=certified,
                n_checked=1,
                detail="final optimality gap vs stopping gap",
            )
        )
    return out


#: the trace.csv columns, in file order
TRACE_COLUMNS = (
    "iter", "loss", "gap", "q_bound", "grad_norm",
    "step_norm", "step_bound", "dist_init", "dist_bound",
)


def trace_columns(
    trace: DescentTrace, ledger: ConstantsLedger, start: int = 0, stop: Optional[int] = None
) -> dict:
    """Rows ``start:stop`` of the trace export (all rows by default), one
    row per iterate, as arrays keyed by :data:`TRACE_COLUMNS`.

    ``step_norm`` and ``step_bound`` hold the steps among those rows (the
    last iterate takes none), every other column one entry per row; a
    column the ledger cannot fill is None.  Only those rows are evaluated,
    so a CSV writer holds one block of the table at a time.
    """
    stop = len(trace.losses) if stop is None else stop
    rows, steps = range(start, stop), range(start, min(stop, trace.n_steps))
    q, losses = ledger.q, trace.losses[start:stop]
    gap = None if ledger.f_star is None else losses - ledger.f_star
    has_steps = q is not None and ledger.K is not None
    dist_bound = ledger.dist_bound()
    return {
        "iter": np.arange(start, stop),
        "loss": losses,
        "gap": gap,
        "q_bound": (None if q is None or gap is None
                    else _q_bound(q, float(trace.losses[0] - ledger.f_star), rows)),
        "grad_norm": trace.grad_norms[start:stop],
        "step_norm": trace.step_norms[start:steps.stop],
        "step_bound": _step_bound(ledger, steps) if has_steps else None,
        "dist_init": trace.dist_from_init[start:stop],
        "dist_bound": None if dist_bound is None else np.full(len(rows), dist_bound),
    }
