"""Polytope tools: vertex enumeration of simplex cross-sections and one
dense LP entry point.

Both the volume solvers and the cone checks optimize over cross-sections
``{y : b y >= 0, a . y = 1}``.  ``cross_section_vertices`` lists every
vertex once by the double description method (Motzkin et al. 1953, as in
Fukuda & Prodon 1996) in numpy alone: the extreme rays of the cone
``{y : [b; a] y >= 0}`` with ``a . y > 0``, each scaled to ``a . y = 1``,
kept if feasible and sorted lexicographically.  No subset of rows is
solved, and each cut masks rows instead of gathering them.  Each cut's
adjacency test runs on integer bitsets, one Python int per ray's zero
mask, when the step is small enough that numpy's per-call cost would
dominate, and on float 0/1 blocks otherwise; both give the same pairs in
the same order, so the rays do not depend on the path.  The same
description hands back a recession ray of an unbounded cross-section.
The objectives the package maximizes over a bounded cross-section (a
norm, a determinant linear in each column) peak at vertices, so within
the ray budget callers solve no LP.  Past it the SSC1 refutation search
solves LPs instead.  Every linear program in the package goes through
``linprog_dense``, a single call to scipy's HiGHS, which is deterministic
for a fixed input; scipy is imported on that first call.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import EnumerationCapError, SolverError

# Budget on the double description's intermediate rays.  Past it the cone
# checks report the enumeration cap, the SSC1 refutation steps by LP and
# ``maxdet_simplex`` fails.
_VERTEX_ENUM_CAP = 2048

# Entries per block of the float pair test, ``_block_pairs``.
_PAIR_CHUNK = 1 << 20

# Largest |pos| * |neg| * |rays| of a double-description step whose pair
# test runs on integer bitsets.  Up to about this size a step costs more in
# numpy calls than in arithmetic; on larger ones (dense 60x8 inputs) the
# bitset loop is about 10x slower than the float blocks.
_BITSET_WORK = 4096

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
    the combinatorial test: at least r-2 rows are active at both and no
    third ray is active on all of them; ``zeros`` is one activity mask over
    all rows, False on the unprocessed ones.  Pairs come in row-major order
    of (``pos``, ``neg``).  The test runs on integer bitsets when it checks
    at most ``_BITSET_WORK`` (pair, ray) combinations, else on float blocks;
    both give the same pairs."""
    if len(pos) * len(neg) * len(zeros) <= _BITSET_WORK:
        return _bitset_pairs(zeros, pos, neg, r)
    return _block_pairs(zeros, pos, neg, r)


def _bitset_pairs(zeros, pos, neg, r):
    """The pair test with each ray's zero mask packed into one Python int,
    for small candidate sets, where numpy's per-call cost dominates."""
    packed = np.packbits(zeros, axis=1)
    width, data = packed.shape[1], packed.tobytes()
    masks = [int.from_bytes(data[at:at + width], "big")
             for at in range(0, len(data), width)]
    ps, qs, negs = [], [], neg.tolist()
    for p in pos.tolist():
        mp = masks[p]
        for q in negs:
            common = mp & masks[q]
            if common.bit_count() < r - 2:
                continue
            holders = 0
            for m in masks:
                if m & common == common:
                    holders += 1
                    if holders > 2:
                        break
            if holders == 2:
                ps.append(p)
                qs.append(q)
    return np.array(ps, dtype=pos.dtype), np.array(qs, dtype=neg.dtype)


def _block_pairs(zeros, pos, neg, r):
    """The pair test on float 0/1 blocks: shared-row counts are built one
    block of ``pos`` at a time and the candidate pairs tested in chunks of
    about ``_PAIR_CHUNK`` entries, so memory stays bounded."""
    zf = zeros.astype(float)
    zneg = zf.take(neg, 0)
    rows = max(1, _PAIR_CHUNK // max(1, len(neg)))
    step = max(1, _PAIR_CHUNK // max(zeros.shape))
    ps, qs = [], []
    for lo in range(0, len(pos), rows):
        block = pos[lo:lo + rows]
        zpos = zf.take(block, 0)
        pi, qi = (zpos @ zneg.T >= r - 2).nonzero()
        for at in range(0, len(pi), step):
            bi, qj = pi[at:at + step], qi[at:at + step]
            common = zpos.take(bi, 0) * zneg.take(qj, 0)
            holders = common @ zf.T >= common.sum(axis=1, keepdims=True)
            adjacent = holders.sum(axis=1) == 2
            ps.append(block[bi[adjacent]])
            qs.append(neg[qj[adjacent]])
    if len(ps) == 1:
        return ps[0], qs[0]
    return np.concatenate([pos[:0], *ps]), np.concatenate([neg[:0], *qs])


def _extreme_rays(u, max_rays):
    """Unit extreme rays of ``{y : u y >= 0}``; None when ``u`` has rank
    below its width, ``(0, r)`` when its rows positively span R^r.

    Pivoted Gram-Schmidt picks r independent rows, whose simplicial cone
    starts the double description.  The deepest cut is added next: the
    unprocessed row with the most negative value on a current ray (rows
    and rays are unit vectors; processed rows count as +inf), ties to the
    lowest index.  The rays it cuts off are replaced by one new ray per
    adjacent pair across its hyperplane.  Once no unprocessed row is below
    ``-_ZERO_TOL`` on a ray, the rest are redundant.
    """
    r = u.shape[1]
    if len(u) < r:
        return None
    res, basis = u.copy(), []
    for _ in range(r):
        norms = np.einsum("ij,ij->i", res, res)
        k = int(norms.argmax())
        if norms[k] <= 1e-20:
            return None
        res -= (res @ res[k])[:, None] * (res[k] / norms[k])
        basis.append(k)
    rays = np.linalg.inv(u[basis]).T
    rays /= np.sqrt(np.add.reduce(rays * rays, axis=1, keepdims=True))
    vals = rays @ u.T
    done = np.zeros(len(u))
    done[basis] = np.inf
    while True:
        depth = vals.min(axis=0, initial=np.inf) + done
        i = int(depth.argmin())
        if depth[i] >= -_ZERO_TOL:
            return rays
        s = vals[:, i]
        neg = s < -_ZERO_TOL
        p, q = _adjacent_pairs((np.abs(vals) <= _ZERO_TOL) & (done > 0),
                               (s > _ZERO_TOL).nonzero()[0],
                               neg.nonzero()[0], r)
        new = s[p][:, None] * rays.take(q, 0) - s[q][:, None] * rays.take(p, 0)
        new /= np.sqrt(np.add.reduce(new * new, axis=1, keepdims=True))
        rays = np.concatenate([rays.compress(~neg, 0), new])
        vals = np.concatenate([vals.compress(~neg, 0), new @ u.T])
        done[i] = np.inf
        if len(rays) > max_rays:
            raise EnumerationCapError(
                f"vertex enumeration passed {max_rays} intermediate rays")


def cross_section_vertices(b, a, max_rays, tol=1e-9):
    """Vertices of ``{y : b y >= 0, a . y = 1}`` and a recession ray, None
    when it is bounded.

    The vertices are the extreme rays of ``{y : [b; a] y >= 0}`` with
    ``a . y > 0``, each scaled to ``a . y = 1``; the first ray with
    ``a . y = 0``, projected onto that plane, is the recession ray.  Rows
    below 1e-12 of the largest row norm constrain nothing and are dropped.
    A rank-deficient ``[b; a]`` gives no vertices and a null vector of the
    kept rows as the ray, as the cross-section is then unbounded or empty.
    A vertex that violates ``b y >= 0`` by more than ``tol * max(1, |b|)``
    is dropped.  The ``(k, r)`` result lists each vertex once, in
    lexicographic order of its rows.  Raises ``EnumerationCapError`` past
    ``max_rays`` intermediate rays.
    """
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    m = np.concatenate([b, a[None]])
    norms = np.sqrt(np.add.reduce(m * m, axis=1))
    keep = norms > 1e-12 * norms.max(initial=0.0)
    if not keep.all():
        m, norms = m[keep], norms[keep]
    # C order, as a gather gives it: the rays' bits follow the layout
    rays = _extreme_rays(np.divide(m, norms[:, None], order="C"), max_rays)
    if rays is None:
        return np.zeros((0, b.shape[1])), np.linalg.svd(m)[2][-1]
    height = rays @ a
    # math.sqrt(a @ a) is what np.linalg.norm computes for a real vector
    at_infinity = height <= _ZERO_TOL * math.sqrt(a @ a)
    ray = None
    if at_infinity.any():
        ray = rays[int(at_infinity.argmax())]
        ray = ray - (a @ ray) / (a @ a or 1.0) * a  # onto a . y = 0
        rays, height = rays[~at_infinity], height[~at_infinity]
    v = np.divide(rays, height[:, None], order="C")
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    vals = v @ b.T
    if not vals.min(initial=np.inf) >= -tol * scale:  # nan drops its row too
        v = v[vals.min(axis=1, initial=np.inf) >= -tol * scale]
    return v.take(np.lexsort(v.T[::-1]), 0), ray
