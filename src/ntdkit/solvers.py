"""Determinant maximization over simplex cross-sections and the min-vol /
separable factorization solvers built on it.

The reduction used throughout: if ``W`` spans the column space of ``x`` and
``Z`` its row space, exact factorizations ``x = u1 g u2'`` with stochastic
nonnegative ``u_i`` are parametrized by invertible ``q_i`` via ``u1 = W q1``,
``u2 = Z q2``, ``g = q1^-1 (W' x Z) q2^-T``; minimizing ``|det g|`` then
decouples into maximizing ``|det q1|`` and ``|det q2|`` over the polytopes
``{q : W q >= 0, sum(W q) = 1}`` columnwise.  The column updates are exact
linear optimizations (the determinant is linear in one column), answered
from the polytope's vertices, enumerated once per call by the double
description in ``lp.cross_section_vertices``, or by an LP when that passes
its ray budget.  So the sweep objective is monotone; global optimality is
heuristic and the best of several restarts is returned.  scipy's NNLS is
imported by the separable solver only when it runs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (EnumerationCapError, NotSeparable, RankError,
                     ShapeError, SolverError)
from .lp import _VERTEX_ENUM_CAP, cross_section_vertices, linprog_dense


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the volume solvers; everything is deterministic per seed."""

    max_sweeps: int = 200
    det_rel_tol: float = 1e-10
    feas_tol: float = 1e-9
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.max_sweeps < 1 or self.restarts < 1 \
                or self.det_rel_tol <= 0 or self.feas_tol <= 0:
            raise ShapeError("solver config fields must be positive")

    def with_seed(self, seed) -> "SolverConfig":
        return replace(self, seed=int(seed))


def derive_seed(base, *tags) -> int:
    """Stable sub-seed from a base seed and string tags."""
    entropy = [int(base) & 0xFFFFFFFF, (int(base) >> 32) & 0xFFFFFFFF]
    entropy += [zlib.crc32(str(t).encode()) for t in tags]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def numerical_rank(a, tol=None) -> int:
    """Singular values above ``max(m,n) * eps * smax * 1e3`` (overridable)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    if tol is None:
        tol = max(a.shape) * np.finfo(float).eps * s[0] * 1e3
    return int((s > tol).sum())


def orthonormal_range(x, r, tol=None) -> np.ndarray:
    """Orthonormal basis of the leading r-dimensional column space."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if numerical_rank(x, tol) < r:
        raise RankError(
            f"matrix of numerical rank {numerical_rank(x, tol)} cannot "
            f"provide a rank-{r} range basis"
        )
    u, _, _ = np.linalg.svd(x, full_matrices=False)
    return u[:, :r]


def _cofactor_col(q, j):
    """Cofactor vector of column j: det(q) == cof . q[:, j]."""
    r = q.shape[0]
    if r == 1:
        return np.ones(1)
    det = np.linalg.det(q)
    if abs(det) > 1e-200:
        return det * np.linalg.inv(q)[j]
    sub = np.delete(q, j, axis=1)
    minors = np.array([np.delete(sub, i, axis=0) for i in range(r)])
    dets = np.linalg.det(minors)
    signs = np.where((np.arange(r) + j) % 2 == 0, 1.0, -1.0)
    return signs * dets


class _CrossSection:
    """Linear optimization over the polytope {v : b v >= 0, sum(b v) = 1}.

    When ``b`` has full column rank the polytope is bounded, and unless the
    vertex enumeration passes ``_VERTEX_ENUM_CAP`` intermediate rays its
    vertices are listed once; each query is then an argmax over them (ties
    to the lowest index).  Otherwise every query solves an LP.
    """

    def __init__(self, b):
        self.b = np.asarray(b, dtype=float)
        self.n, self.r = self.b.shape
        self._a_ub = -self.b
        self._b_ub = np.zeros(self.n)
        self._a_eq = self.b.sum(axis=0).reshape(1, -1)
        self.vertices = None
        try:
            v, unbounded = cross_section_vertices(
                self.b, self._a_eq[0], _VERTEX_ENUM_CAP)
        except EnumerationCapError:
            return
        if len(v) and not unbounded:
            self.vertices = v

    def extreme(self, c, maximize=True):
        if self.vertices is not None:
            vals = self.vertices @ c
            i = int(np.argmax(vals) if maximize else np.argmin(vals))
            return self.vertices[i].copy(), float(vals[i])
        res = linprog_dense(c, a_ub=self._a_ub, b_ub=self._b_ub,
                            a_eq=self._a_eq, b_eq=[1.0], maximize=maximize)
        if res.status == "infeasible":
            raise SolverError("infeasible column subproblem")
        if res.status == "unbounded":
            raise SolverError("degenerate cross-section (unbounded)")
        return res.x, res.value


def maxdet_simplex(b, cfg: SolverConfig, return_history=False):
    """Heuristically maximize |det q| with every column of ``b q`` feasible.

    Initialization is a greedy extreme-direction selection (successive
    projections away from the affine hull of the chosen vertices) plus
    ``restarts - 1`` random-direction starts; each column update moves to the
    cross-section vertex with the largest absolute cofactor inner product
    (the larger of the maximum and the minimum of a linear objective), so
    the sweep objective never decreases.
    """
    cs = _CrossSection(b)
    r = cs.r
    root = np.random.SeedSequence(derive_seed(cfg.seed, "maxdet"))
    streams = [np.random.default_rng(s) for s in root.spawn(cfg.restarts)]

    def random_vertex(rng):
        v, _ = cs.extreme(rng.standard_normal(r))
        return v

    def greedy_start(rng):
        c0 = cs.b.mean(axis=0)
        if np.linalg.norm(c0) < 1e-12:
            c0 = rng.standard_normal(r)
        cols = [cs.extreme(c0)[0]]
        while len(cols) < r:
            base = cols[0]
            diffs = np.array([c - base for c in cols[1:]]).T
            if diffs.size:
                qbasis, _ = np.linalg.qr(diffs.reshape(r, -1))
            else:
                qbasis = np.zeros((r, 0))
            best = None
            for _ in range(8):
                g = rng.standard_normal(r)
                g -= qbasis @ (qbasis.T @ g)
                if np.linalg.norm(g) < 1e-12:
                    continue
                for sign in (1.0, -1.0):
                    v, _ = cs.extreme(sign * g)
                    dist = abs(g @ (v - base)) / np.linalg.norm(g)
                    if best is None or dist > best[0]:
                        best = (dist, v)
                if best is not None and best[0] > 1e-12:
                    break
            if best is None:
                best = (0.0, random_vertex(rng))
            cols.append(best[1])
        return np.stack(cols, axis=1)

    best_q, best_val, history = None, -1.0, []
    for restart, rng in enumerate(streams):
        q = greedy_start(rng) if restart == 0 else \
            np.stack([random_vertex(rng) for _ in range(r)], axis=1)
        val = abs(np.linalg.det(q))
        trace = [val]
        for _ in range(cfg.max_sweeps):
            prev = val
            for j in range(r):
                cof = _cofactor_col(q, j)
                if np.linalg.norm(cof) < 1e-300:
                    q[:, j] = random_vertex(rng)
                    continue
                cur = abs(cof @ q[:, j])
                vhi, hi = cs.extreme(cof, maximize=True)
                vlo, lo = cs.extreme(cof, maximize=False)
                cand_v, cand = (vhi, abs(hi)) if abs(hi) >= abs(lo) \
                    else (vlo, abs(lo))
                if cand > cur * (1 + 1e-15) + 1e-300:
                    q[:, j] = cand_v
            val = abs(np.linalg.det(q))
            trace.append(val)
            if val - prev <= cfg.det_rel_tol * max(prev, 1e-300):
                break
        if val > best_val:
            best_q, best_val, history = q, val, trace

    if best_q is None or best_val <= 0.0:
        raise SolverError("determinant maximization collapsed to zero")
    y = cs.b @ best_q
    if y.min() < -cfg.feas_tol or np.abs(y.sum(axis=0) - 1).max() \
            > cfg.feas_tol:
        raise SolverError("maxdet solution violates feasibility")
    if return_history:
        return best_q, history
    return best_q


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


def _check_exact_rank(x, r, what="input"):
    k = numerical_rank(x)
    if k != r:
        raise RankError(f"{what} has numerical rank {k}, expected {r}")


def minvol_order2_ntd(x, r, cfg: SolverConfig) -> Order2Ntd:
    """Minimum-|det| exact tri-factorization of a rank-r matrix.

    Decouples into two determinant maximizations through the column/row
    space parametrization; exact fit holds by construction.
    """
    x = np.asarray(x, dtype=float)
    _check_exact_rank(x, r)
    w = orthonormal_range(x, r)
    z = orthonormal_range(x.T, r)
    q1 = maxdet_simplex(w, cfg.with_seed(derive_seed(cfg.seed, "mv2-left")))
    q2 = maxdet_simplex(z, cfg.with_seed(derive_seed(cfg.seed, "mv2-right")))
    u1, u2 = w @ q1, z @ q2
    m = w.T @ x @ z
    g = np.linalg.solve(q1, m)
    g = np.linalg.solve(q2, g.T).T
    resid = np.linalg.norm(x - u1 @ g @ u2.T) / max(np.linalg.norm(x), 1e-300)
    if resid > cfg.feas_tol:
        raise SolverError(f"reconstruction residual {resid:.3e}")
    return Order2Ntd(u1, g, u2)


def minvol_nmf(x, r, cfg: SolverConfig):
    """min det(w'w) exact NMF with stochastic nonnegative ``h`` only.

    ``w`` is unconstrained (rectangular, m >= r); the row-space reduction
    turns the problem into one determinant maximization.
    Returns ``(w, h)`` with ``x = w @ h.T``.
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    if m < r:
        raise ShapeError(f"need at least r={r} rows, got {m}")
    _check_exact_rank(x, r)
    z = orthonormal_range(x.T, r)
    q = maxdet_simplex(z, cfg.with_seed(derive_seed(cfg.seed, "mvnmf")))
    h = z @ q
    w = np.linalg.solve(q, (x @ z).T).T
    resid = np.linalg.norm(x - w @ h.T) / max(np.linalg.norm(x), 1e-300)
    if resid > cfg.feas_tol:
        raise SolverError(f"reconstruction residual {resid:.3e}")
    return w, h


def spa_separable_nmf(x, r, feas_tol=1e-9, extreme_tol=1e-6):
    """Anchor extraction for a separable factorization of exact data.

    A column is an anchor candidate iff its direction is an extreme ray of
    the cone of all columns, certified by a nonnegative least squares fit
    against the other directions (exact data leaves interior directions
    with zero residual).  Returns ``(anchors, w, h)`` with ``x = w @ h.T``,
    ``h >= 0``.
    """
    from scipy.optimize import nnls

    x = np.asarray(x, dtype=float)
    m, n = x.shape
    _check_exact_rank(x, r)
    norms = np.linalg.norm(x, axis=0)
    scale = norms.max(initial=0.0)
    kept = [j for j in range(n) if norms[j] > 1e-12 * max(scale, 1.0)]
    reps, rep_cols = [], []
    for j in kept:
        d = x[:, j] / norms[j]
        if not any(np.linalg.norm(d - q) <= 1e-8 for q in reps):
            reps.append(d)
            rep_cols.append(j)
    dirs = np.stack(reps, axis=1)
    anchors = []
    for k in range(dirs.shape[1]):
        others = np.delete(dirs, k, axis=1)
        _, resid = nnls(others, dirs[:, k])
        if resid > extreme_tol:
            anchors.append(rep_cols[k])
    if len(anchors) != r:
        raise NotSeparable(
            f"found {len(anchors)} extreme directions, expected {r}"
        )
    anchors = sorted(anchors)
    w = x[:, anchors] / np.linalg.norm(x[:, anchors], axis=0)
    h = np.empty((n, r))
    for j in range(n):
        h[j], _ = nnls(w, x[:, j])
    resid = np.linalg.norm(x - w @ h.T) / max(np.linalg.norm(x), 1e-300)
    if resid > feas_tol:
        raise NotSeparable(f"separable residual {resid:.3e}")
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
    resid = np.linalg.norm(x - u1 @ g @ u2.T) / max(np.linalg.norm(x), 1e-300)
    if resid > feas_tol:
        raise SolverError(f"reconstruction residual {resid:.3e}")
    return Order2Ntd(u1, g, u2)

