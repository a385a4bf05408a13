"""Polytope oracles: vertex enumeration of simplex cross-sections and one
dense LP entry point.

Both the volume solvers and the cone checks optimize over cross-sections
``{y : b y >= 0, a . y = 1}``.  ``cross_section_vertices`` lists every
vertex once by the double description method (Motzkin et al. 1953, as in
Fukuda & Prodon 1996) in numpy alone, so each linear objective becomes an
argmax over the vertices.  Every other linear program in the package goes
through ``linprog_dense``, a single call to scipy's HiGHS, which is
deterministic for a fixed input; scipy is imported on that first call.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import EnumerationCapError, SolverError

# Budget on the double description's intermediate rays.  Past it the
# volume solvers answer each query with an LP and the cone checks report
# the enumeration cap.
_VERTEX_ENUM_CAP = 2048

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
    them.  Pairs go in chunks, so memory stays bounded."""
    zf = zeros.astype(float)
    shared = zf[pos] @ zf[neg].T
    pi, qi = np.nonzero(shared >= r - 2)
    adjacent = np.zeros(len(pi), dtype=bool)
    step = max(1, (1 << 20) // max(zeros.shape))
    for lo in range(0, len(pi), step):
        part = slice(lo, lo + step)
        common = zeros[pos[pi[part]]] & zeros[neg[qi[part]]]
        holders = common @ zf.T >= shared[pi[part], qi[part], None] - 0.5
        adjacent[part] = holders.sum(axis=1) == 2
    return pos[pi[adjacent]], neg[qi[adjacent]]


def _extreme_rays(u, max_rays):
    """Unit extreme rays of ``{y : u y >= 0}`` and their values on the
    rows, ``rays @ u.T``; None when ``u`` has rank below its width.

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
            return rays, vals
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


def _first_subset(b, a, active, thr, floor):
    """``(subset, y)`` for the first (r-1)-subset of the rows ``active``,
    in combinations order, whose system ``[b_S; a] y = e_r`` has
    ``|det| > thr`` and ``b y >= floor``; None if there is none.

    The first subset is tried alone, then a depth-first search goes
    through all of them in order.  Any completion of a prefix has
    ``|det|`` at most the volume spanned by ``a`` and the prefix times the
    largest row norm per row still to pick, so a prefix whose bound is
    1000 times below ``thr`` is skipped whole: a vertex with hundreds of
    active rows costs a few subsets, not C(hundreds, r-1).
    """
    r = b.shape[1]
    cap = max(1.0, float(np.linalg.norm(b[active], axis=1).max(initial=0)))

    def solve(subset):
        system = np.vstack([b[subset].reshape(r - 1, r), a])
        if abs(np.linalg.det(system)) <= thr:
            return None
        y = np.linalg.solve(system, np.eye(r)[-1])
        return (tuple(subset), y) if (b @ y).min() >= floor else None

    def search(start, basis, vol, subset):
        if len(subset) == r - 1:
            return solve(subset)
        left = r - 2 - len(subset)
        for k in range(start, len(active) - left):
            row = b[active[k]]
            row = row - basis.T @ (basis @ row)
            row -= basis.T @ (basis @ row)
            size = np.linalg.norm(row)
            if vol * size * cap ** left > 1e-3 * thr:
                hit = search(k + 1, np.vstack([basis, row / size]),
                             vol * size, subset + [int(active[k])])
                if hit is not None:
                    return hit
        return None

    if len(active) >= r - 1:
        hit = solve([int(i) for i in active[:r - 1]])
        if hit is not None:
            return hit
    norm_a = np.linalg.norm(a)
    return search(0, a[None] / norm_a, norm_a, [])


def cross_section_vertices(b, a, max_rays, tol=1e-9):
    """Vertices of ``{y : b y >= 0, a . y = 1}`` and whether it is
    unbounded.

    The vertices are the extreme rays of ``{y : [b; a] y >= 0}`` with
    ``a . y > 0``; a ray with ``a . y = 0`` proves the cross-section
    unbounded.  Rows below 1e-12 of the largest row norm constrain
    nothing and are dropped.  A rank-deficient ``[b; a]`` gives no
    vertices and the flag set, as the cross-section is then unbounded or
    empty.  Each vertex is solved from the first (r-1)-subset of its
    active rows, in combinations order, whose system has ``|det| > 1e-12
    * max(1, |b|)^(r-1)`` and whose solution violates ``b y >= 0`` by at
    most ``tol * max(1, |b|)``: the point and the order (that of those
    subsets) of the ``(k, r)`` result are the ones a scan of all C(n, r-1)
    subsets with these filters finds first.  Raises
    ``EnumerationCapError`` past ``max_rays`` intermediate rays.
    """
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    n, r = b.shape
    m = np.vstack([b, a])
    norms = np.linalg.norm(m, axis=1)
    keep = np.flatnonzero(norms > 1e-12 * norms.max(initial=0.0))
    cone = _extreme_rays(m[keep] / norms[keep, None], max_rays)
    if cone is None:
        return np.zeros((0, r)), True
    rays, vals = cone
    at_infinity = rays @ a <= _ZERO_TOL * np.linalg.norm(a)
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    found = {}
    for k in np.flatnonzero(~at_infinity):
        active = keep[(np.abs(vals[k]) <= _ZERO_TOL) & (keep < n)]
        hit = _first_subset(b, a, active, 1e-12 * scale ** (r - 1),
                            -tol * scale)
        if hit is not None:
            found.setdefault(*hit)
    vertices = [found[s] for s in sorted(found)]
    return (np.array(vertices).reshape(len(vertices), r),
            bool(at_infinity.any()))
