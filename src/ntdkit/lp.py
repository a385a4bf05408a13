"""Polytope oracles: vertex enumeration of simplex cross-sections, the
one linear-optimization oracle over them, and one dense LP entry point.

Both the volume solvers and the cone checks optimize over cross-sections
``{y : b y >= 0, a . y = 1}``.  ``cross_section_vertices`` lists every
vertex once by the double description method (Motzkin et al. 1953, as in
Fukuda & Prodon 1996) in numpy alone: the extreme rays of the cone
``{y : [b; a] y >= 0}`` with ``a . y > 0``, each scaled to ``a . y = 1``,
kept if feasible and sorted lexicographically.  No subset of rows is
solved.  ``CrossSection``, the package's one oracle for linear objectives
over a cross-section, takes an argmax over those vertices, or solves an LP
per query past the ray budget.  Every linear program in the package goes
through ``linprog_dense``, a single call to scipy's HiGHS, which is
deterministic for a fixed input; scipy is imported on that first call.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import EnumerationCapError, SolverError

# Budget on the double description's intermediate rays.  Past it
# ``CrossSection`` answers each query with an LP and the cone checks report
# the enumeration cap.
_VERTEX_ENUM_CAP = 2048

# Entries per block of the pair test in ``_adjacent_pairs``.
_PAIR_CHUNK = 1 << 20

# Rows and rays are unit vectors in the double description; a row whose
# value on a ray is within this is active there.
_ZERO_TOL = 1e-9


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
    from scipy.optimize import linprog

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


def _adjacent_pairs(zeros, pos, neg, r):
    """Rays ``p`` of ``pos`` and ``q`` of ``neg`` that span a 2-face, by
    the combinatorial test: at least r-2 rows are active at both (``zeros``
    marks each ray's active rows) and no third ray is active on all of
    them.  The counts of shared rows are built one block of ``pos`` at a
    time and the candidate pairs tested in chunks, each of about
    ``_PAIR_CHUNK`` entries, so memory stays bounded; pairs come in
    row-major order of (``pos``, ``neg``)."""
    zf = zeros.astype(float)
    zneg = zf[neg].T
    rows = max(1, _PAIR_CHUNK // max(1, len(neg)))
    step = max(1, _PAIR_CHUNK // max(zeros.shape))
    ps, qs = [pos[:0]], [neg[:0]]
    for lo in range(0, len(pos), rows):
        block = pos[lo:lo + rows]
        shared = zf[block] @ zneg
        pi, qi = np.nonzero(shared >= r - 2)
        for at in range(0, len(pi), step):
            bi, qj = pi[at:at + step], qi[at:at + step]
            common = zeros[block[bi]] & zeros[neg[qj]]
            holders = common @ zf.T >= shared[bi, qj, None] - 0.5
            adjacent = holders.sum(axis=1) == 2
            ps.append(block[bi[adjacent]])
            qs.append(neg[qj[adjacent]])
    return np.concatenate(ps), np.concatenate(qs)


def _extreme_rays(u, max_rays):
    """Unit extreme rays of ``{y : u y >= 0}``; None when ``u`` has rank
    below its width.

    Pivoted Gram-Schmidt picks r independent rows, whose simplicial cone
    starts the double description.  The row cutting off the most rays is
    added next; the rays it cuts off are replaced by one new ray per
    adjacent pair across its hyperplane.  Once no row cuts off a ray, the
    rest are redundant.
    """
    r = u.shape[1]
    if len(u) < r:
        return None
    res, basis = u.copy(), []
    for _ in range(r):
        norms = np.einsum("ij,ij->i", res, res)
        k = int(np.argmax(norms))
        if norms[k] <= 1e-20:
            return None
        res -= np.outer(res @ res[k], res[k] / norms[k])
        basis.append(k)
    rays = np.linalg.inv(u[basis]).T
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    vals = rays @ u.T
    done = np.zeros(len(u), dtype=bool)
    done[basis] = True
    while True:
        cut = (vals < -_ZERO_TOL).sum(axis=0) * ~done
        i = int(np.argmax(cut))
        if not cut[i]:
            return rays
        s = vals[:, i]
        neg = s < -_ZERO_TOL
        p, q = _adjacent_pairs(np.abs(vals[:, done]) <= _ZERO_TOL,
                               np.flatnonzero(s > _ZERO_TOL),
                               np.flatnonzero(neg), r)
        new = s[p, None] * rays[q] - s[q, None] * rays[p]
        new /= np.linalg.norm(new, axis=1, keepdims=True)
        rays = np.concatenate([rays[~neg], new])
        vals = np.concatenate([vals[~neg], new @ u.T])
        done[i] = True
        if len(rays) > max_rays:
            raise EnumerationCapError(
                f"vertex enumeration passed {max_rays} intermediate rays")


def cross_section_vertices(b, a, max_rays, tol=1e-9):
    """Vertices of ``{y : b y >= 0, a . y = 1}`` and whether it is
    unbounded.

    The vertices are the extreme rays of ``{y : [b; a] y >= 0}`` with
    ``a . y > 0``, each scaled to ``a . y = 1``; a ray with ``a . y = 0``
    proves the cross-section unbounded.  Rows below 1e-12 of the largest
    row norm constrain nothing and are dropped.  A rank-deficient
    ``[b; a]`` gives no vertices and the flag set, as the cross-section is
    then unbounded or empty.  A vertex that violates ``b y >= 0`` by more
    than ``tol * max(1, |b|)`` is dropped.  The ``(k, r)`` result lists
    each vertex once, in lexicographic order of its rows.  Raises
    ``EnumerationCapError`` past ``max_rays`` intermediate rays.
    """
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    r = b.shape[1]
    m = np.vstack([b, a])
    norms = np.linalg.norm(m, axis=1)
    keep = np.flatnonzero(norms > 1e-12 * norms.max(initial=0.0))
    rays = _extreme_rays(m[keep] / norms[keep, None], max_rays)
    if rays is None:
        return np.zeros((0, r)), True
    height = rays @ a
    at_infinity = height <= _ZERO_TOL * np.linalg.norm(a)
    v = rays[~at_infinity] / height[~at_infinity, None]
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    v = v[(v @ b.T).min(axis=1, initial=np.inf) >= -tol * scale]
    return v[np.lexsort(v.T[::-1])], bool(at_infinity.any())


class CrossSection:
    """Linear optimization over the polytope ``{y : b y >= 0, a . y = 1}``.

    An argmax over its vertices (ties to the lowest index) when it is
    bounded and its double description stays within ``max_rays``
    intermediate rays; otherwise an LP per query, and ``extreme`` raises
    ``SolverError`` when that LP is not optimal.
    """

    def __init__(self, b, a, max_rays):
        self.b = np.asarray(b, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.n, self.r = self.b.shape
        try:
            v, unbounded = cross_section_vertices(self.b, self.a, max_rays)
        except EnumerationCapError:
            v, unbounded = None, True
        self.vertices = None if unbounded or not len(v) else v

    def extreme(self, c, maximize=True):
        """The optimal point and value of ``c . y``."""
        if self.vertices is not None:
            vals = self.vertices @ c
            i = int(np.argmax(vals) if maximize else np.argmin(vals))
            return self.vertices[i].copy(), float(vals[i])
        res = linprog_dense(c, a_ub=-self.b, b_ub=np.zeros(self.n),
                            a_eq=self.a.reshape(1, -1), b_eq=[1.0],
                            maximize=maximize)
        if res.status != "optimal":
            raise SolverError(f"{res.status} cross-section LP")
        return res.x, res.value
