"""Determinant maximization over simplex cross-sections and the min-vol /
separable factorization solvers built on it.

The reduction used throughout: if ``W`` spans the column space of ``x`` and
``Z`` its row space, exact factorizations ``x = u1 g u2'`` with stochastic
nonnegative ``u_i`` are parametrized by invertible ``q_i`` via ``u1 = W q1``,
``u2 = Z q2``, ``g = q1^-1 (W' x Z) q2^-T``; minimizing ``|det g|`` then
decouples into maximizing ``|det q1|`` and ``|det q2|`` over the polytopes
``{q : W q >= 0, sum(W q) = 1}`` columnwise.  The determinant is linear in
each column, so the maximum sits at vertices of that polytope:
``maxdet_simplex`` lists them by the double description
(``lp.cross_section_vertices``) and takes the largest |det| over their
r-subsets, which is the global optimum: by one batched determinant over a
cached table of the subsets while it is small, past that by an exact
branch and bound (a greedy max-volume incumbent, Hadamard bounds) under a
node budget.  The separable anchor pass runs the
same double description on the unit directions of the columns: their cone
is simplicial exactly when it has r facets, its anchors are the first
columns on each extreme ray (off one facet, on all others), and one r x r
solve against the anchors fits every column.  Each solver factors its
input once in the one rank gate, ``_rank_r_svd``, whose singular values
also decide that ``x`` has numerical rank exactly r and a norm that does
not overflow (else no fit to it could be certified).  ``minvol_order2_ntd``
needs both bases and takes ``W`` and ``Z`` from one thin SVD of ``x``.
``minvol_nmf`` and the separable solver need only the row space, which
the gate takes for a tall ``x`` from the SVD of the square R factor of its
QR (the R-SVD of Chan 1982), so the m x n left factor is never built.
Every solver ends in the one fit check, ``_check_fit``, which a nan
residual fails; its measure, ``_relative_residual``, is also
``evaluate.model_error``'s.  The min-vol solvers return through private
cores (``_minvol_order2``, ``_minvol_nmf``) that also give each factor as
``(W, q)`` with ``u = W q``: ``W`` has orthonormal columns, so
``_left_inverse`` takes ``pinv(u) = q^-1 W'`` by one r x r solve, which
the procedures' slice routes use in place of an SVD.  The procedures'
slice scan, ``_scan_slices``, sits beside the gate.  This module does not
import scipy.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import (EnumerationCapError, NotSeparable, RankError,
                     ShapeError, SolverError)
from .lp import (_VERTEX_ENUM_CAP, _ZERO_TOL, _extreme_rays, _nonzero,
                 cross_section_vertices)
from .tensor import _integers, _reals, _tolerances

# ``maxdet_simplex`` scores every vertex r-subset from one cached index
# table while it holds at most ``_TABLE_ENTRIES`` indices (C(V, r) * r) and
# runs the branch and bound past that.  The bound is the measured crossover
# on one core of a Xeon with one BLAS thread: the table costs about 0.75 us
# a subset at r = 5-6, the branch and bound 0.3-0.8 ms on two-nonzero
# factors at any C(V, r) and 0.8-2 ms on small dense ones; at r = 5 they
# break even near 650 subsets (3250 indices).  A table takes at most 32 KB
# (8-byte indices), so the ``_TABLE_CACHE`` tables kept take at most 1 MB.
# The branch and bound gives up past ``_NODE_BUDGET`` nodes, about 50 us
# each (1.6 s in all).
_TABLE_ENTRIES = 1 << 12
_TABLE_CACHE = 32
_NODE_BUDGET = 1 << 15
# A partial subset is pruned only when its Hadamard bound is below the
# incumbent by this relative margin, and only when the incumbent's
# coordinates are conditioned within ``_COND_LIMIT`` (1-norm).
_PRUNE_MARGIN = 1e-9
_COND_LIMIT = 1e6


@dataclass(frozen=True)
class SolverConfig:
    """Feasibility tolerance of the volume solvers and the seed of the
    randomized procedures; the solvers themselves draw nothing."""

    feas_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        feas_tol, = _tolerances([self.feas_tol], "solver config feas_tol")
        seed = _integers([self.seed], "solver seed must be an integer")[0]
        # derive_seed reads 64 bits, so any other seed would alias one
        if not 0 <= seed < 1 << 64:
            raise ShapeError(f"solver config seed must be in [0, 2**64), "
                             f"got {seed}")
        object.__setattr__(self, "feas_tol", feas_tol)
        object.__setattr__(self, "seed", seed)


def derive_seed(base, *tags) -> int:
    """Stable sub-seed from a base seed and string tags."""
    entropy = [int(base) & 0xFFFFFFFF, (int(base) >> 32) & 0xFFFFFFFF]
    entropy += [zlib.crc32(str(t).encode()) for t in tags]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _rank_from_values(s, shape) -> int:
    """How many singular values ``s`` of a ``shape`` matrix lie above
    ``max(shape) * eps * smax * 1e3``."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > max(shape) * np.finfo(float).eps * s[0] * 1e3).sum())


def numerical_rank(a) -> int:
    """Singular values above ``max(m,n) * eps * smax * 1e3``."""
    a = _reals(a, "numerical_rank a must be a finite real matrix", 2)
    return _rank_from_values(np.linalg.svd(a, compute_uv=False), a.shape)


def _rank_r_svd(x, r, left=False):
    """``(u, s, vt)``: the leading r singular triplets of ``x``, the rank
    gate of every solver; ``RankError`` unless its numerical rank is
    exactly ``r``, ``ShapeError`` unless ``r`` is an integer >= 1 (and,
    without ``left``, at most ``x``'s row count), ``SolverError`` when the
    norm of ``x`` overflows (no fit to it would pass ``_check_fit``, and
    the solver's products could overflow).  Without ``left`` a tall ``x``
    is factored through the R factor of its QR, the others directly, and
    ``u`` is None; with it one thin SVD of ``x`` gives all three."""
    r, = _integers([r], "rank must be an integer")
    if r < 1:
        raise ShapeError(f"rank must be positive, got {r}")
    if not left and len(x) < r:  # the row-space solvers' w is m x r
        raise ShapeError(f"need at least r={r} rows, got {len(x)}")
    qr = not left and x.shape[0] > x.shape[1]
    u, s, vt = np.linalg.svd(np.linalg.qr(x, mode="r") if qr else x,
                             full_matrices=False)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(s)  # the Frobenius norm of x
    if norm == np.inf:
        raise SolverError("the input's norm overflows, so no fit to it can "
                          "be certified")
    k = _rank_from_values(s, x.shape)
    if k != r:
        raise RankError(f"input has numerical rank {k}, expected {r}")
    return u[:, :r] if left else None, s[:r], vt[:r]


def _scan_slices(stack, rows, cols, target):
    """First flat index of a rank-``target`` slice in the ``rows x cols``
    ``stack``, in index order.

    A slice's rank never exceeds ``target`` when the core fits the ranks,
    so this is the first max-rank slice whenever a full-rank one exists;
    generic instances stop at index 0.  Raises ``RankError`` naming the
    slice count and the best rank seen when no slice reaches ``target``.
    """
    best = 0
    for flat in range(stack.shape[2]):
        rank = numerical_rank(stack[:, :, flat])
        if rank == target:
            return flat
        best = max(best, rank)
    name = ",".join(str(g[0]) if len(g) == 1 else str(list(g))
                    for g in (rows, cols))
    raise RankError(
        f"none of the {stack.shape[2]} [{name}]-slices has rank {target} "
        f"(best was {best})"
    )


def _relative_residual(x, fit):
    """``(||x - fit|| / ||x||, ||x||)``, the residual ``||fit||`` for a
    zero ``x``; the package's one residual measure, warning-free.  Below a
    norm of 1e-100, where squared entries underflow, both are first scaled
    exactly by the power of two that brings ``x``'s largest |entry| into
    [0.5, 1)."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = unit = np.linalg.norm(x)
        if scale < 1e-100:
            k = -np.frexp(np.abs(x).max(initial=0.0))[1]
            x, fit = np.ldexp(x, k), np.ldexp(fit, k)
            unit = np.linalg.norm(x)
        return float(np.linalg.norm(x - fit) / (unit or 1.0)), scale


def _check_fit(x, fit, tol, error=SolverError, what="reconstruction"):
    """The fit check of every solver and procedure: ``error("<what>
    residual ...")`` unless the ``_relative_residual`` is within ``tol``
    and ``||x||`` is finite."""
    resid, scale = _relative_residual(x, fit)
    if not resid <= tol or scale == np.inf:  # also for overflowed norms
        raise error(f"{what} residual {resid:.3e} of an input of norm "
                    f"{scale:.3e}")
    return resid


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _subset_table(n, r):
    """Every r-subset of ``range(n)``, one per row in lexicographic order,
    as a read-only index array shared by every caller."""
    table = np.array(list(combinations(range(n), r)),
                     dtype=np.intp).reshape(-1, r)
    table.flags.writeable = False
    return table


def _scan_table(v, r):
    """``(subset, |det|)`` of the largest |det| over every r-subset of the
    rows of ``v``, ties to the lowest subset, from one batched
    determinant; ``(None, 0.0)`` when ``v`` has fewer than r rows."""
    table = _subset_table(len(v), r)
    if not len(table):
        return None, 0.0
    dets = np.abs(np.linalg.det(v.take(table, 0)))
    k = int(dets.argmax())  # the first maximum: the lowest subset
    return table[k], float(dets[k])


def _branch_and_bound(v, r, count):
    """``_scan_table``'s answer by an exact depth-first search over the
    r-subsets in lexicographic order.

    The incumbent starts at the greedy pivoted subset S0 (Civril &
    Magdon-Ismail 2009).  Bounds are taken in the coordinates
    ``w = v inv(v[S0])``, where |det w[S]| = |det v[S]| / |det v[S0]|: a
    partial subset with k rows whose Gram-Schmidt residual volume is
    ``vol`` has no completion above ``vol`` times the r - k largest
    residual norms of the later rows (Hadamard's inequality), and it is
    pruned when that bound is below the incumbent by ``_PRUNE_MARGIN``,
    far above the rounding of either side.  Leaves are scored by
    ``np.linalg.det`` on ``v``, as in the table, and a leaf replaces the
    incumbent when it is larger, or equal and lower.  When S0 is singular
    or ill-conditioned nothing is pruned.  Raises ``SolverError`` past
    ``_NODE_BUDGET`` nodes (subsets expanded plus leaves scored)."""
    n = len(v)
    res, s0 = v.copy(), []
    for _ in range(r):
        sq = np.einsum("ij,ij->i", res, res)
        k = int(sq.argmax())
        if sq[k] == 0.0:
            break
        res -= (res @ res[k])[:, None] * (res[k] / sq[k])
        s0.append(k)
    if len(s0) < r:  # the rows span fewer than r dimensions
        s0 = list(range(r))
    s0.sort()
    best, best_val = tuple(s0), abs(float(np.linalg.det(v[s0])))
    # a bound below best_val * floor prunes; floor 0 prunes nothing
    floor, w = 0.0, v
    if best_val > 0.0:
        inv = np.linalg.inv(v[s0])
        cond = np.abs(v[s0]).sum(axis=0).max() * np.abs(inv).sum(axis=0).max()
        if cond <= _COND_LIMIT:
            floor, w = (1.0 - _PRUNE_MARGIN) / best_val, v @ inv
    nodes = 0

    def spend(k):
        nonlocal nodes
        nodes += k
        if nodes > _NODE_BUDGET:
            raise SolverError(
                f"{n} cross-section vertices give {count} vertex "
                f"{r}-subsets; the search passed its budget of "
                f"{_NODE_BUDGET} nodes")

    def visit(prefix, res, vol):
        nonlocal best, best_val
        spend(1)
        lo, m = (prefix[-1] + 1 if prefix else 0), r - len(prefix)
        norms = np.sqrt(np.einsum("ij,ij->i", res, res))
        if m == 1:
            keep = np.flatnonzero(vol * norms >= best_val * floor)
            spend(len(keep))
            if not len(keep):
                return
            idx = np.empty((len(keep), r), dtype=np.intp)
            idx[:, :-1] = prefix
            idx[:, -1] = lo + keep
            dets = np.abs(np.linalg.det(v.take(idx, 0)))
            k = int(dets.argmax())
            leaf = tuple(idx[k].tolist())
            if dets[k] > best_val or (dets[k] == best_val and leaf < best):
                best, best_val = leaf, float(dets[k])
            return
        size = len(norms)
        # the product of the m - 1 largest norms after each position
        later = np.sort(np.triu(np.broadcast_to(norms, (size, size)), 1),
                        axis=1)[:, size - m + 1:].prod(axis=1)
        bounds = (vol * norms * later).tolist()
        for i in range(size - m + 1):
            if bounds[i] < best_val * floor:
                continue
            e, rest = res[i], res[i + 1:]
            if norms[i] > 0.0:
                rest = rest - np.outer(rest @ e / norms[i] ** 2, e)
            visit(prefix + (lo + i,), rest, vol * norms[i])

    visit((), w, 1.0)
    return best, best_val


def maxdet_simplex(b, cfg: SolverConfig, return_history=False):
    """Maximize |det q| with every column of ``b q`` in the cross-section
    ``{y : b y >= 0, sum(b y) = 1}``; exact.

    With the other columns fixed, |det q| is the absolute value of a linear
    function of one column, so some global maximizer has every column at a
    vertex.  The vertices come from one double description; the largest
    |det| over their r-subsets is taken, ties to the lowest subset in
    lexicographic order, and the columns of ``q`` are its vertices in
    order.  Up to ``_TABLE_ENTRIES`` subset indices (and at most
    ``_NODE_BUDGET`` subsets) every subset is scored by one batched
    determinant over a cached index table; past that
    ``_branch_and_bound`` returns the same subset.  Raises
    ``SolverError`` past the ray budget, and past ``_NODE_BUDGET`` nodes
    of the branch and bound, as maximum-volume subset selection is
    NP-hard in general.  ``return_history`` adds the list ``[|det q|]``.
    """
    b = _reals(b, "maxdet_simplex b must be a finite real matrix", 2)
    r = b.shape[1]
    try:
        v, ray = cross_section_vertices(b, b.sum(axis=0), _VERTEX_ENUM_CAP)
    except EnumerationCapError as exc:
        raise SolverError(f"maxdet cross-section: {exc}") from exc
    if ray is not None:
        raise SolverError("maxdet cross-section is unbounded")
    count = comb(len(v), r)
    if count * r <= _TABLE_ENTRIES and count <= _NODE_BUDGET:
        best, best_val = _scan_table(v, r)
    else:
        best, best_val = _branch_and_bound(v, r, count)
    if not best_val > 0.0:  # also when nan
        raise SolverError("determinant maximization collapsed to zero")
    q = v.take(best, 0).T
    y = b @ q
    if y.min() < -cfg.feas_tol or np.abs(y.sum(axis=0) - 1).max() \
            > cfg.feas_tol:
        raise SolverError("maxdet solution violates feasibility")
    if return_history:
        return q, [best_val]
    return q


class Order2Ntd(NamedTuple):
    """x = u1 @ g @ u2.T with nonnegative column-stochastic u1, u2."""

    u1: np.ndarray
    g: np.ndarray
    u2: np.ndarray

    @property
    def absdet(self):
        """``|det g|``, or None when it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(abs(np.linalg.det(self.g)))
        return value if np.isfinite(value) else None

    def reconstruct(self) -> np.ndarray:
        return self.u1 @ self.g @ self.u2.T


def minvol_order2_ntd(x, r, cfg: SolverConfig) -> Order2Ntd:
    """Minimum-|det| exact tri-factorization of a rank-r matrix.

    Decouples into two determinant maximizations through the column/row
    space parametrization; exact fit holds by construction.
    """
    x = _reals(x, "minvol_order2_ntd x must be a finite real matrix", 2)
    return _minvol_order2(x, r, cfg)[0]


def _minvol_order2(x, r, cfg):
    """``minvol_order2_ntd`` with the parametrizations of its outer
    factors: ``(fac, (w, q1), (z, q2))`` with ``u1 = w q1`` and
    ``u2 = z q2``, for ``_left_inverse``."""
    w, _, vt = _rank_r_svd(x, r, left=True)
    z = vt.T
    q1 = maxdet_simplex(w, cfg)
    q2 = maxdet_simplex(z, cfg)
    u1, u2 = w @ q1, z @ q2
    m = w.T @ x @ z
    g = np.linalg.solve(q1, m)
    g = np.linalg.solve(q2, g.T).T
    _check_fit(x, u1 @ g @ u2.T, cfg.feas_tol)
    return Order2Ntd(u1, g, u2), (w, q1), (z, q2)


def minvol_nmf(x, r, cfg: SolverConfig):
    """min det(w'w) exact NMF with stochastic nonnegative ``h`` only.

    ``w`` is unconstrained (rectangular, m >= r); the row-space reduction
    turns the problem into one determinant maximization.
    Returns ``(w, h)`` with ``x = w @ h.T``.
    """
    x = _reals(x, "minvol_nmf x must be a finite real matrix", 2)
    return _minvol_nmf(x, r, cfg)[:2]


def _minvol_nmf(x, r, cfg):
    """``minvol_nmf`` with the parametrization of ``h``: ``(w, h, (z, q))``
    with ``h = z q``, for ``_left_inverse``."""
    x = np.asfortranarray(x)  # BLAS bits follow layout
    z = _rank_r_svd(x, r)[2].T
    q = maxdet_simplex(z, cfg)
    h = z @ q
    w = np.linalg.solve(q, (x @ z).T).T
    _check_fit(x, w @ h.T, cfg.feas_tol)
    return w, h, (z, q)


def _left_inverse(basis, q):
    """The pseudo-inverse ``q^-1 basis'`` of ``basis @ q`` for a
    ``(basis, q)`` pair from the min-vol solvers: ``basis`` has orthonormal
    columns (from the rank gate's SVD) and ``q`` is invertible, so one
    r x r solve replaces an SVD."""
    return np.linalg.solve(q, basis.T)


def spa_separable_nmf(x, r, feas_tol=1e-9):
    """Anchor extraction for a separable factorization of exact data.

    Works on the columns' coordinates ``y = s vt = U' x`` in the rank-r
    range, taken from ``_rank_r_svd`` without building ``U``.  The double
    description gives the facet normals of the cone of the columns' unit
    directions; a separable ``x`` gives a simplicial cone, so anything but
    exactly r normals raises ``NotSeparable``.  Anchor k is the lowest-index
    column off facet k and on every other facet, within ``_ZERO_TOL``: the
    first column of extreme direction k, whatever repeats it has.  ``h``
    solves ``y`` against the anchors' coordinates once for all columns and
    is clipped at 0; the residual check on ``x`` certifies the fit.  Raises
    ``SolverError`` when the double description passes the ray budget.
    Returns ``(anchors, w, h)`` with ``x = w @ h.T``, ``h >= 0``.
    """
    feas_tol, = _tolerances([feas_tol], "spa_separable_nmf feas_tol")
    x = _reals(x, "spa_separable_nmf x must be a finite real matrix", 2)
    _, s, vt = _rank_r_svd(x, r)
    y = s[:, None] * vt
    norms = np.linalg.norm(y, axis=0)
    left = np.flatnonzero(_nonzero(norms))
    dirs = (y[:, left] / norms[left]).T
    try:
        normals = _extreme_rays(dirs, _VERTEX_ENUM_CAP)
    except EnumerationCapError as exc:
        raise SolverError(f"separable anchor cone: {exc}") from exc
    facets = 0 if normals is None else len(normals)
    if facets != r:
        raise NotSeparable(f"column cone has {facets} facets, expected {r}")
    off = np.abs(dirs @ normals.T) > _ZERO_TOL
    on_ray = off.sum(axis=1) == 1
    anchors = []
    for k in range(r):
        hits = np.flatnonzero(off[:, k] & on_ray)
        if hits.size == 0:
            raise NotSeparable(f"no column spans extreme direction {k}")
        anchors.append(int(left[hits[0]]))
    anchors.sort()
    scale = np.linalg.norm(x[:, anchors], axis=0)
    w = x[:, anchors] / scale
    h = np.maximum(np.linalg.solve(y[:, anchors] / scale, y), 0.0).T
    fit = (h @ w.T).T if x.flags.f_contiguous else w @ h.T  # x's layout
    _check_fit(x, fit, feas_tol, NotSeparable, "separable")
    return anchors, w, h


def separable_order2_ntd(x, r, feas_tol=1e-9) -> Order2Ntd:
    """Polynomial-time exact tri-factorization when both outer factors are
    separable: anchor pass on the columns recovers the right factor, the
    same argument transposed recovers the left one."""
    feas_tol, = _tolerances([feas_tol], "separable_order2_ntd feas_tol")
    x = _reals(x, "separable_order2_ntd x must be a finite real matrix", 2)
    _, _, h_right = spa_separable_nmf(x, r, feas_tol)
    _, _, h_left = spa_separable_nmf(x.T, r, feas_tol)
    u2 = h_right / h_right.sum(axis=0)
    u1 = h_left / h_left.sum(axis=0)
    g = np.linalg.pinv(u1) @ x @ np.linalg.pinv(u2).T
    _check_fit(x, u1 @ g @ u2.T, feas_tol)
    return Order2Ntd(u1, g, u2)

