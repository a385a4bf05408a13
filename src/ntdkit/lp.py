"""Polytope oracles: vertex enumeration of simplex cross-sections and a
dense two-phase simplex with Bland's rule.

Both the volume solvers and the cone checks optimize over cross-sections
``{y : b y >= 0, a . y = 1}``.  When the number of (r-1)-row subsets is
small, ``cross_section_vertices`` lists every vertex once and each linear
objective becomes an argmax over them.  Otherwise the small dense linear
programs go to a textbook tableau simplex: Bland's rule (smallest eligible
index enters, smallest basic index breaks ratio ties) guarantees finite
termination and makes every solve bit-deterministic.  Problems with many
rows (refutation searches on large Kronecker products) are routed to
scipy's HiGHS instead: the tableau's O(rows^2) pivots are too slow there,
and HiGHS is equally deterministic for a fixed input.  An "optimal" tableau
point that fails the original constraints is re-solved by HiGHS too.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import NamedTuple, Optional

import numpy as np

from .errors import SolverError

_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-9
_MAX_PIVOTS = 100000
_HIGHS_ROW_THRESHOLD = 128
_CHECK_TOL = 1e-7
_VERTEX_BATCH = 4096


class LpResult(NamedTuple):
    status: str  # "optimal" | "unbounded" | "infeasible"
    x: Optional[np.ndarray]
    value: Optional[float]
    ray: Optional[np.ndarray]  # feasible recession direction when unbounded


def _pivot(T, basis, row, col):
    T[row] = T[row] / T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def _bland_iterate(T, basis, ncols):
    """Run simplex pivots on tableau T until optimal or unbounded.

    Returns ("optimal", None) or ("unbounded", entering_col).
    """
    m = T.shape[0] - 1
    for _ in range(_MAX_PIVOTS):
        red = T[m, :ncols]
        negative = np.flatnonzero(red < -_PIVOT_TOL)
        if negative.size == 0:
            return "optimal", None
        col = int(negative[0])  # Bland: smallest eligible index enters
        colvals = T[:m, col]
        rows = np.flatnonzero(colvals > _PIVOT_TOL)
        if rows.size == 0:
            return "unbounded", col
        ratios = T[rows, -1] / colvals[rows]
        best = ratios.min()
        ties = rows[ratios <= best + _PIVOT_TOL * (1.0 + abs(best))]
        row = int(ties[np.argmin(basis[ties])])  # Bland tie-break
        _pivot(T, basis, row, col)
    raise SolverError("simplex exceeded the pivot budget")


def _solve_standard(c, A, b):
    """min c'x s.t. Ax = b, x >= 0 (b >= 0 is arranged internally).

    Returns (status, x, ray) where ray is a recession direction of the
    feasible set along which the objective decreases without bound.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    A = A.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # Phase 1: artificial basis.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = np.arange(n, n + m)
    status, _ = _bland_iterate(T, basis, n + m)
    if status != "optimal":  # phase 1 is bounded below by zero
        raise SolverError("phase-1 simplex reported unbounded")
    if -T[m, -1] > _FEAS_TOL * (1.0 + abs(b).max(initial=0.0)):
        return "infeasible", None, None

    # Drive leftover artificials out of the basis, dropping redundant rows.
    keep = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        pivots = np.flatnonzero(np.abs(T[i, :n]) > _PIVOT_TOL)
        if pivots.size:
            _pivot(T, basis, i, int(pivots[0]))
            keep.append(i)
        # else: redundant row, drop it
    rows = np.array(keep, dtype=int)
    T2 = np.zeros((rows.size + 1, n + 1))
    T2[:-1, :n] = T[rows, :n]
    T2[:-1, -1] = T[rows, -1]
    basis = basis[rows]

    # Phase 2 objective row, reduced against the current basis.
    T2[-1, :n] = c
    for i, bi in enumerate(basis):
        T2[-1, :n] -= T2[-1, bi] * T2[i, :n]
        # note: pivot columns are unit vectors, so -=, row by row, is exact
    T2[-1, -1] = -float(c[basis] @ T2[:-1, -1])
    status, col = _bland_iterate(T2, basis, n)

    # Tableau row operations accumulate error over (often highly
    # degenerate) pivots; recompute the basic solution from the original
    # data so the returned point solves its active system exactly.
    x = np.zeros(n)
    B = A[rows][:, basis]
    try:
        xb = np.linalg.solve(B, b[rows])
    except np.linalg.LinAlgError:
        xb = T2[:-1, -1]
    if np.abs(B @ xb - b[rows]).max() > \
            np.abs(B @ T2[:-1, -1] - b[rows]).max():
        xb = T2[:-1, -1]
    x[basis] = xb
    if status == "optimal":
        return "optimal", x, None
    ray = np.zeros(n)
    ray[col] = 1.0
    try:
        ray[basis] = -np.linalg.solve(B, A[rows][:, col])
    except np.linalg.LinAlgError:
        ray[basis] = -T2[:-1, col]
    return "unbounded", x, ray


def linprog_dense(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                  bounds=None, maximize=False) -> LpResult:
    """Solve a small dense LP with free variables by default.

    ``bounds`` is either None (every variable free) or a list of
    ``(lo, hi)`` pairs with None meaning unbounded on that side.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.atleast_2d(
        np.asarray(a_ub, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(
        np.asarray(b_ub, dtype=float))
    a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(
        np.asarray(a_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(
        np.asarray(b_eq, dtype=float))
    if bounds is None:
        bounds = [(None, None)] * n

    if a_ub.shape[0] + a_eq.shape[0] >= _HIGHS_ROW_THRESHOLD:
        res = _solve_highs(c, a_ub, b_ub, a_eq, b_eq, bounds, maximize)
        if res is not None:
            return res

    # Column transform: x_j = shift_j + sum_k scale_{jk} u_k with u >= 0.
    cols = []          # list of (var index, sign) per standard column
    shift = np.zeros(n)
    extra_ub = []      # (std col, cap) rows for two-sided bounds
    for j, (lo, hi) in enumerate(bounds):
        if lo is None and hi is None:
            cols.append((j, 1.0))
            cols.append((j, -1.0))
        elif lo is not None and hi is None:
            shift[j] = lo
            cols.append((j, 1.0))
        elif lo is None and hi is not None:
            shift[j] = hi
            cols.append((j, -1.0))
        else:
            if hi < lo:
                return LpResult("infeasible", None, None, None)
            shift[j] = lo
            cols.append((j, 1.0))
            extra_ub.append((len(cols) - 1, hi - lo))

    nstd = len(cols)
    M = np.zeros((n, nstd))
    for k, (j, s) in enumerate(cols):
        M[j, k] = s

    A_ub = np.vstack([a_ub @ M] + (
        [np.eye(nstd)[[k for k, _ in extra_ub]]] if extra_ub else []))
    bub = np.concatenate([
        b_ub - a_ub @ shift,
        np.array([cap for _, cap in extra_ub]),
    ])
    A_eq = a_eq @ M
    beq = b_eq - a_eq @ shift

    mu = A_ub.shape[0]
    A = np.block([
        [A_ub, np.eye(mu)],
        [A_eq, np.zeros((A_eq.shape[0], mu))],
    ]) if mu else np.hstack([A_eq, np.zeros((A_eq.shape[0], 0))])
    bvec = np.concatenate([bub, beq])
    cstd = np.concatenate([c @ M, np.zeros(mu)])
    sign = -1.0 if maximize else 1.0

    status, xstd, raystd = _solve_standard(sign * cstd, A, bvec)
    if status == "infeasible":
        return LpResult("infeasible", None, None, None)
    x = shift + M @ xstd[:nstd]
    if status == "optimal":
        if _satisfies(x, a_ub, b_ub, a_eq, b_eq, bounds):
            return LpResult("optimal", x, float(c @ x), None)
        # Degenerate pivots can leave the tableau at a point outside the
        # feasible set; HiGHS decides such programs instead.
        res = _solve_highs(c, a_ub, b_ub, a_eq, b_eq, bounds, maximize)
        if res is None:
            raise SolverError("simplex point violates the constraints and "
                              "HiGHS found no optimum")
        return res
    ray = M @ raystd[:nstd]
    return LpResult("unbounded", x, None, ray)


def _satisfies(x, a_ub, b_ub, a_eq, b_eq, bounds):
    """Does x meet every original constraint to a relative tolerance?"""
    ax = np.abs(x)
    if np.any(a_ub @ x - b_ub > _CHECK_TOL * (1.0 + np.abs(a_ub) @ ax
                                              + np.abs(b_ub))):
        return False
    if np.any(np.abs(a_eq @ x - b_eq) > _CHECK_TOL * (
            1.0 + np.abs(a_eq) @ ax + np.abs(b_eq))):
        return False
    for xj, (lo, hi) in zip(x, bounds):
        if lo is not None and xj < lo - _CHECK_TOL * (1.0 + abs(lo)):
            return False
        if hi is not None and xj > hi + _CHECK_TOL * (1.0 + abs(hi)):
            return False
    return True


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


def _solve_highs(c, a_ub, b_ub, a_eq, b_eq, bounds, maximize):
    """Large-row path; returns None to fall back (ray extraction on
    unbounded problems stays with the tableau solver)."""
    from scipy.optimize import linprog as _scipy_linprog
    sign = -1.0 if maximize else 1.0
    res = _scipy_linprog(
        sign * c,
        A_ub=a_ub if a_ub.size else None,
        b_ub=b_ub if a_ub.size else None,
        A_eq=a_eq if a_eq.size else None,
        b_eq=b_eq if a_eq.size else None,
        bounds=bounds, method="highs")
    if res.status == 0:
        return LpResult("optimal", res.x, float(c @ res.x), None)
    if res.status == 2:
        return LpResult("infeasible", None, None, None)
    return None  # unbounded or numerical trouble: tableau handles it
