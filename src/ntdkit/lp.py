"""Polytope tools: vertex enumeration of simplex cross-sections and one
dense LP entry point.

Both the volume solvers and the cone checks optimize over cross-sections
``{y : b y >= 0, a . y = 1}``.  ``cross_section_vertices`` lists every
vertex once by the double description method (Motzkin et al. 1953, as in
Fukuda & Prodon 1996) in numpy alone: the extreme rays of the cone
``{y : [b; a] y >= 0}`` with ``a . y > 0``, each scaled to ``a . y = 1``,
kept if feasible and sorted lexicographically.  No subset of rows is
solved.  A step small enough that numpy's per-call cost would dominate
tests adjacency on zero masks held as Python ints and builds its new rays
in Python floats; from the first such step on the rays are held as Python
lists until one larger step, on float 0/1 blocks, or the return turns
them back into an array.  Both kinds of step give the same rays bit for
bit.  The same description hands back a recession ray of an unbounded
cross-section.
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

# Bound on |rays|**3 >= |pos| * |neg| * |rays| of a double-description
# step run in Python ints and floats; past it (16 rays) numpy is faster.
# Only steps at r <= 7 qualify: numpy's add.reduce sums up to 7 squares in
# order, as a Python loop does, but 8 or more with 8 accumulators.
_BITSET_WORK = 4096

# Rows and rays are unit vectors in the double description; a row whose
# value on a ray is within this is active there.
_ZERO_TOL = 1e-9


def _nonzero(norms):
    """Which ``norms`` count as nonzero: above 1e-12 of the largest, the
    package's one zero rule, relative so that it holds at any scale."""
    return norms > 1e-12 * norms.max(initial=0.0)


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


def _adjacent_pairs(u, rays, vals, rows, masks, i):
    """One cut by row ``i``, on which the rays have values ``s``: rays
    below ``-_ZERO_TOL`` give way, after the kept ones, to a unit ray
    ``s[p] rays[q] - s[q] rays[p]`` per pair (``p`` above ``_ZERO_TOL``,
    ``q`` below, row-major) that is adjacent: at least r-2 processed
    ``rows`` are active at both and no third ray on all of them.  Returns
    the rays, their values on the rows of ``u`` (an array) and their zero
    masks.

    A step within ``_BITSET_WORK`` at r <= 7 runs in Python: it takes the
    rays as an array or as a list of rows and returns a list, and carries
    one zero mask per ray as a Python int (bit k for row k), so the next
    small step converts neither.  Other steps run on float 0/1 blocks and
    return the rays as an array and no masks.  Both give the same rays and
    values bit for bit.
    """
    r = u.shape[1]
    if r <= 7 and len(rays) ** 3 <= _BITSET_WORK:
        if not isinstance(rays, list):
            rays = rays.tolist()
        if masks is None:
            masks = _zero_masks(vals, rows)
        s = vals[:, i].tolist()
        pos, neg, keep, kept = [], [], [], []
        for j, x in enumerate(s):
            if x < -_ZERO_TOL:
                neg.append(j)
                continue
            if x > _ZERO_TOL:
                pos.append(j)
            keep.append(j)
            kept.append(masks[j] | 1 << i if x <= _ZERO_TOL else masks[j])
        new = []
        for p in pos:
            mp, sp, rp = masks[p], s[p], rays[p]
            for q in neg:
                common = mp & masks[q]
                if common.bit_count() < r - 2:
                    continue
                holders = 0
                for m in masks:
                    if m & common == common:
                        holders += 1
                        if holders > 2:
                            break
                if holders != 2:
                    continue
                sq = s[q]
                ray = [sp * y - sq * x for x, y in zip(rp, rays[q])]
                norm = 0.0
                for x in ray:  # add.reduce's order for up to 7 terms
                    norm += x * x
                norm = math.sqrt(norm)
                new.append([x / norm for x in ray])
        rays = [rays[j] for j in keep]
        vals = vals.take(keep, 0)
        if new:
            added = np.array(new) @ u.T
            kept += _zero_masks(added, rows + [i])
            rays += new
            vals = np.concatenate([vals, added])
        return rays, vals, kept
    rays = np.asarray(rays)
    s = vals[:, i]
    keep = ~(s < -_ZERO_TOL)
    processed = np.bincount(rows, minlength=len(u)) > 0
    p, q = _block_pairs((np.abs(vals) <= _ZERO_TOL) & processed,
                        (s > _ZERO_TOL).nonzero()[0], (~keep).nonzero()[0], r)
    new = s[p][:, None] * rays.take(q, 0) - s[q][:, None] * rays.take(p, 0)
    new /= np.sqrt(np.add.reduce(new * new, axis=1, keepdims=True))
    return (np.concatenate([rays.compress(keep, 0), new]),
            np.concatenate([vals.compress(keep, 0), new @ u.T]), None)


def _zero_masks(vals, rows):
    """Each ray's zero mask over ``rows`` as a Python int: bit k is set
    where its value on row k is within ``_ZERO_TOL``."""
    masks = []
    for row in vals.tolist():
        mask = 0
        for k in rows:
            if -_ZERO_TOL <= row[k] <= _ZERO_TOL:
                mask |= 1 << k
        masks.append(mask)
    return masks


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
    adjacent pair across its hyperplane (``_adjacent_pairs``).  Once no
    unprocessed row is below ``-_ZERO_TOL`` on a ray, the rest are
    redundant.  The rays come back laid out as the last step left them:
    the inverse's transpose when no row cuts, else in C order.
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
        basis.append(k)
        if len(basis) < r:
            res -= (res @ res[k])[:, None] * (res[k] / norms[k])
    rays = np.linalg.inv(u[basis]).T
    rays /= np.sqrt(np.add.reduce(rays * rays, axis=1, keepdims=True))
    vals = rays @ u.T
    done = np.zeros(len(u))
    done[basis] = np.inf
    rows, masks = basis, None
    while True:
        depth = np.minimum.reduce(vals, axis=0, initial=np.inf)
        depth += done
        i = int(depth.argmin())
        if depth[i] >= -_ZERO_TOL:
            break
        rays, vals, masks = _adjacent_pairs(u, rays, vals, rows, masks, i)
        done[i] = np.inf
        rows.append(i)
        if len(rays) > max_rays:
            raise EnumerationCapError(
                f"vertex enumeration passed {max_rays} intermediate rays")
    # a list of rays comes back in C order, as concatenating gave it
    return np.array(rays).reshape(-1, r) if isinstance(rays, list) else rays


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
    m = np.concatenate([b, a[None]])
    norms = np.sqrt(np.add.reduce(m * m, axis=1))
    keep = _nonzero(norms)
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
