"""Reference implementations that several test modules check plgd against."""

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
