"""Reference implementations that several test modules check plgd against."""

import math

import numpy as np

from plgd.descent import LOWER_BOUNDS

MONITORED = ("q_decay", "per_step_decay", "step_norm", "path_length",
             "composition_pl", "composition_lg_bound", "taylor_bound")


def reference_verdict(table, name):
    """The aggregated fields of inequality ``name`` from the whole-run table,
    one row at a time: the largest violation if any, else the tightest
    margin, the first on ties; None for an inequality without rows."""
    worst = None
    n_checked = n_violations = 0
    for row in np.flatnonzero(table.name == name):
        measured, bound = float(table.measured[row]), float(table.bound[row])
        margin = bound - measured if name in LOWER_BOUNDS else measured - bound
        violated = not table.holds[row]
        n_checked += 1
        n_violations += violated
        key = (violated, margin)
        if worst is None or key > worst[0]:
            worst = (key, measured, bound, int(table.iteration[row]))
    if worst is None:
        return None
    return {"passed": n_violations == 0, "measured": worst[1], "bound": worst[2],
            "n_checked": n_checked, "n_violations": n_violations, "worst_iter": worst[3]}


def reference_run(f_map, obj, x0, alpha, n_steps, keep_every=None):
    """``descent.run``'s four series and kept iterates for ``n_steps``
    steps, one step at a time with the per-step formulas
    ``x - alpha * g`` and ``math.sqrt((weights * c).dot(c))``."""
    weights = f_map.domain.weights
    unit = bool((weights == 1.0).all())

    def norm(c):
        return math.sqrt(c.dot(c) if unit else (weights * c).dot(c))

    def evaluate(x):
        fx, pull = f_map.value_and_vjp(x)
        loss, grad_f = obj.value_and_grad(fx)
        g = pull(grad_f)
        return loss, g

    x = x_init = np.array(x0, dtype=float)
    loss, g = evaluate(x)
    losses, grad_norms, step_norms, dists, kept = [loss], [norm(g)], [], [0.0], [x]
    for i in range(1, n_steps + 1):
        x_next = x - alpha * g
        step_norms.append(norm(x_next - x))
        x = x_next
        if keep_every is not None and i % keep_every == 0:
            kept.append(x)
        dists.append(norm(x - x_init))
        loss, g = evaluate(x)
        losses.append(loss)
        grad_norms.append(norm(g))
    if kept[-1] is not x:
        kept.append(x)
    return {"losses": np.array(losses), "grad_norms": np.array(grad_norms),
            "step_norms": np.array(step_norms), "dist_from_init": np.array(dists),
            "iterates": np.stack(kept)}
