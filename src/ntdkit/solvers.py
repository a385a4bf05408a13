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
r-subsets, which is the global optimum.  The separable anchor pass runs the
same double description on the unit directions of the columns: their cone
is simplicial exactly when it has r facets, its anchors are the first
columns on each extreme ray (off one facet, on all others), and one r x r
solve against the anchors fits every column.  Each solver factors its
input once in the one rank gate, ``_rank_r_svd``, whose singular values
also decide that ``x`` has numerical rank exactly r.  ``minvol_order2_ntd``
needs both bases and takes ``W`` and ``Z`` from one thin SVD of ``x``.
``minvol_nmf`` and the separable solver need only the row space, which
the gate takes for a tall ``x`` from the SVD of the square R factor of its
QR (the R-SVD of Chan 1982), so the m x n left factor is never built.
Every solver ends in the one fit check, ``_check_fit``.  The min-vol
solvers return through private cores (``_minvol_order2``, ``_minvol_nmf``)
that also give each factor as ``(W, q)`` with ``u = W q``: ``W`` has
orthonormal columns, so ``_left_inverse`` takes ``pinv(u) = q^-1 W'`` by
one r x r solve, which the procedures' slice routes use in place of an
SVD.  The procedures' slice scan, ``_scan_slices``, sits beside the gate.
This module does not import scipy.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import (EnumerationCapError, NotSeparable, RankError,
                     ShapeError, SolverError)
from .lp import (_VERTEX_ENUM_CAP, _ZERO_TOL, _extreme_rays,
                 cross_section_vertices)

# Budget on the vertex r-subsets ``maxdet_simplex`` evaluates, in chunks of
# ``_SUBSET_CHUNK``; the full budget takes 1.1-2 s at r = 5-8 on one core
# of a Xeon with one BLAS thread.
_SUBSET_CAP = 1 << 20
_SUBSET_CHUNK = 1 << 14


@dataclass(frozen=True)
class SolverConfig:
    """Feasibility tolerance of the volume solvers and the seed of the
    randomized procedures; the solvers themselves draw nothing."""

    feas_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.feas_tol < np.inf:  # also refuses nan
            raise ShapeError("solver config feas_tol must be positive and "
                             "finite")


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
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0
    return _rank_from_values(np.linalg.svd(a, compute_uv=False), a.shape)


def _rank_r_svd(x, r, left=False):
    """``(u, s, vt)``: the leading r singular triplets of ``x``, the rank
    gate of every solver; ``RankError`` unless its numerical rank is
    exactly ``r``, ``ShapeError`` unless ``r >= 1``.  Without ``left`` a
    tall ``x`` is factored through the R factor of its QR, the others
    directly, and ``u`` is None; with it one thin SVD of ``x`` gives all
    three."""
    if r < 1:
        raise ShapeError(f"rank must be positive, got {r}")
    qr = not left and x.shape[0] > x.shape[1]
    u, s, vt = np.linalg.svd(np.linalg.qr(x, mode="r") if qr else x,
                             full_matrices=False)
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


def _check_fit(x, fit, tol, error=SolverError, what="reconstruction"):
    """Raise ``error("<what> residual ...")`` when ``fit`` misses ``x`` by
    more than ``tol`` relative to ``||x||``, the fit check of every
    solver."""
    resid = np.linalg.norm(x - fit) / max(np.linalg.norm(x), 1e-300)
    if resid > tol:
        raise error(f"{what} residual {resid:.3e}")


def maxdet_simplex(b, cfg: SolverConfig, return_history=False):
    """Maximize |det q| with every column of ``b q`` in the cross-section
    ``{y : b y >= 0, sum(b y) = 1}``; exact.

    With the other columns fixed, |det q| is the absolute value of a linear
    function of one column, so some global maximizer has every column at a
    vertex.  The vertices come from one double description; the largest
    |det| over their r-subsets is taken, ties to the lowest subset in
    lexicographic order, and the columns of ``q`` are its vertices in
    order.  Raises ``SolverError`` past the ray budget or past
    ``_SUBSET_CAP`` subsets, as maximum-volume subset selection is NP-hard
    in general.  ``return_history`` adds the list ``[|det q|]``.
    """
    b = np.asarray(b, dtype=float)
    r = b.shape[1]
    try:
        v, unbounded = cross_section_vertices(b, b.sum(axis=0),
                                              _VERTEX_ENUM_CAP)
    except EnumerationCapError as exc:
        raise SolverError(f"maxdet cross-section: {exc}") from exc
    if unbounded:
        raise SolverError("maxdet cross-section is unbounded")
    count = comb(len(v), r)
    if count > _SUBSET_CAP:
        raise SolverError(
            f"{len(v)} cross-section vertices give {count} vertex "
            f"{r}-subsets, past the budget of {_SUBSET_CAP}")
    subsets = combinations(range(len(v)), r)
    best, best_val = None, 0.0
    for _ in range(0, count, _SUBSET_CHUNK):
        idx = np.fromiter(chain.from_iterable(islice(subsets, _SUBSET_CHUNK)),
                          dtype=np.intp).reshape(-1, r)
        dets = np.abs(np.linalg.det(v[idx]))
        k = int(np.argmax(dets))
        if dets[k] > best_val:
            best, best_val = idx[k], float(dets[k])
    if best is None:
        raise SolverError("determinant maximization collapsed to zero")
    q = v[best].T
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
    def absdet(self) -> float:
        return float(abs(np.linalg.det(self.g)))

    def reconstruct(self) -> np.ndarray:
        return self.u1 @ self.g @ self.u2.T


def minvol_order2_ntd(x, r, cfg: SolverConfig) -> Order2Ntd:
    """Minimum-|det| exact tri-factorization of a rank-r matrix.

    Decouples into two determinant maximizations through the column/row
    space parametrization; exact fit holds by construction.
    """
    return _minvol_order2(x, r, cfg)[0]


def _minvol_order2(x, r, cfg):
    """``minvol_order2_ntd`` with the parametrizations of its outer
    factors: ``(fac, (w, q1), (z, q2))`` with ``u1 = w q1`` and
    ``u2 = z q2``, for ``_left_inverse``."""
    x = np.asarray(x, dtype=float)
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
    return _minvol_nmf(x, r, cfg)[:2]


def _minvol_nmf(x, r, cfg):
    """``minvol_nmf`` with the parametrization of ``h``: ``(w, h, (z, q))``
    with ``h = z q``, for ``_left_inverse``."""
    x = np.asarray(x, dtype=float, order="F")  # BLAS bits follow layout
    m, n = x.shape
    if m < r:
        raise ShapeError(f"need at least r={r} rows, got {m}")
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
    x = np.asarray(x, dtype=float)
    _, s, vt = _rank_r_svd(x, r)
    y = s[:, None] * vt
    norms = np.linalg.norm(y, axis=0)
    left = np.flatnonzero(norms > 1e-12 * max(norms.max(initial=0.0), 1.0))
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
    x = np.asarray(x, dtype=float)
    _, _, h_right = spa_separable_nmf(x, r, feas_tol)
    _, _, h_left = spa_separable_nmf(x.T, r, feas_tol)
    u2 = h_right / h_right.sum(axis=0)
    u1 = h_left / h_left.sum(axis=0)
    g = np.linalg.pinv(u1) @ x @ np.linalg.pinv(u2).T
    _check_fit(x, u1 @ g @ u2.T, feas_tol)
    return Order2Ntd(u1, g, u2)

