"""Polytope oracles: vertex enumeration of simplex cross-sections and one
dense LP entry point.

Both the volume solvers and the cone checks optimize over cross-sections
``{y : b y >= 0, a . y = 1}``.  When the number of (r-1)-row subsets is
small, ``cross_section_vertices`` lists every vertex once and each linear
objective becomes an argmax over them.  Every other linear program in the
package goes through ``linprog_dense``, a single call to scipy's HiGHS,
which is deterministic for a fixed input.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import NamedTuple, Optional

import numpy as np
from scipy.optimize import linprog

from .errors import SolverError

_VERTEX_BATCH = 4096


class LpResult(NamedTuple):
    status: str  # "optimal" | "unbounded" | "infeasible"
    x: Optional[np.ndarray]
    value: Optional[float]


def linprog_dense(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                  bounds=None, maximize=False) -> LpResult:
    """Solve a small dense LP with free variables by default.

    ``bounds`` is either None (every variable free) or a list of
    ``(lo, hi)`` pairs with None meaning unbounded on that side.  HiGHS
    statuses other than optimal, infeasible and unbounded raise
    ``SolverError``.
    """
    c = np.asarray(c, dtype=float)
    if bounds is None:
        bounds = [(None, None)] * c.size
    sign = -1.0 if maximize else 1.0
    res = linprog(sign * c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status == 0:
        return LpResult("optimal", res.x, float(c @ res.x))
    if res.status == 2:
        return LpResult("infeasible", None, None)
    if res.status == 3:
        return LpResult("unbounded", None, None)
    raise SolverError(f"HiGHS failed: {res.message}")


def _subset_batches(n, k):
    """All k-subsets of range(n) in lexicographic order, as index arrays of
    at most ``_VERTEX_BATCH`` rows; no Python list of tuples is built."""
    if k == 0:
        yield np.zeros((1, 0), dtype=np.intp)
        return
    subsets = combinations(range(n), k)
    dtype = np.dtype((np.intp, k))
    while True:
        idx = np.fromiter(islice(subsets, _VERTEX_BATCH), dtype=dtype)
        if not len(idx):
            return
        yield idx


def cross_section_vertices(b, a, tol=1e-9):
    """Feasible basic solutions of ``{y : b y >= 0, a . y = 1}``.

    Each candidate activates the normalization and r-1 rows of ``b``; all
    C(n, r-1) square systems are solved in fixed-size batches, in subset
    order.  Near-singular systems and points violating ``b y >= 0`` by more
    than ``tol * max(1, |b|)`` are dropped; duplicates (degenerate vertices
    hit by several subsets) are kept.  Returns a ``(k, r)`` array.
    """
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    n, r = b.shape
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    rhs = np.zeros(r)
    rhs[-1] = 1.0
    found = [np.zeros((0, r))]
    for idx in _subset_batches(n, r - 1):
        m = np.empty((len(idx), r, r))
        m[:, :r - 1] = b[idx]
        m[:, r - 1] = a
        good = np.abs(np.linalg.det(m)) > 1e-12 * scale ** (r - 1)
        if not good.any():
            continue
        ys = np.linalg.solve(m[good], rhs)
        feas = (b @ ys.T).min(axis=0) >= -tol * scale
        found.append(ys[feas])
    return np.concatenate(found)
