"""Scalar objectives with gradients and certified constants.

A :class:`ScalarObjective` is a differentiable ``f: H -> R`` on a weighted
space.  Its gradient is stored as the metric representer: the coordinate
array g with ``f(h + d) ~ f(h) + <g, d>_H`` in the weighted inner product.
Objectives optionally carry an analytic Lipschitz-gradient constant, a
Polyak-Lojasiewicz constant, the infimum ``f_star`` and (when unique and
known) the minimizer, which downstream bound checks consume.
:func:`~plgd.integrand.integral_functional` builds the objectives plgd
runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .smoothmap import CertValue
from .space import WeightedSpace


@dataclass(frozen=True, eq=False)
class ScalarObjective:
    """A differentiable scalar function on a weighted space.

    ``value_and_grad_fn(h)`` returns ``(value_fn(h), grad_fn(h))`` from
    one evaluation; the descent loop calls only it.  ``dataclasses.replace``
    of ``value_fn`` or ``grad_fn`` keeps it, so an objective whose math
    changes replaces all three.  Fields beyond the callables are metadata:
    ``L`` and ``lam`` are certified Lipschitz-gradient and PL constants
    (None when unknown), ``f_star`` the infimum over the whole space (None
    when unknown) and ``minimizer`` the unique minimizer's coordinates
    when available.
    """

    space: WeightedSpace
    value_fn: Callable[[np.ndarray], float]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    value_and_grad_fn: Callable[[np.ndarray], tuple[float, np.ndarray]]
    f_star: Optional[float] = None
    L: Optional[CertValue] = None
    lam: Optional[CertValue] = None
    minimizer: Optional[np.ndarray] = None
    name: str = ""
