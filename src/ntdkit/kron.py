"""Kronecker products and their exact, permutation-robust splitting.

Convention: ``kron(a, b)`` is the column-major Kronecker product.  Column
``(i, j)`` (``i`` over a's columns, varying fastest) holds the column-wise
vectorization of the outer product ``a[:, i] @ b[:, j].T``, so row indices
also have a's row varying fastest.  This is the product for which
``unfold(multilinear_transform(g, us), axes)`` factors through
``kron`` of the grouped factors under the package's first-index-fastest
layout, and it equals ``numpy.kron`` with the arguments swapped.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

import numpy as np

from .errors import NotAKroneckerProduct, NotPermutedKronecker, ShapeError
from .tensor import _integers, _reals, _tolerances


def kron(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.kron(b, a)


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a list of matrices, first factor fastest."""
    mats = list(mats)
    out = np.asarray(mats[0], dtype=float)
    for m in mats[1:]:
        out = kron(out, m)
    return out


class KronSplit(NamedTuple):
    u1: np.ndarray
    u2: np.ndarray
    residual: float


class PermutedKronSplit(NamedTuple):
    u1: np.ndarray
    u2: np.ndarray
    perm: np.ndarray  # kron(u1, u2)[:, q] == x[:, perm[q]]
    residual: float


class MultiKronSplit(NamedTuple):
    factors: list
    perm: np.ndarray
    residual: float


def _check_shape(x, shape):
    """``(n1, r1, n2, r2)``: two integer pairs that ``x``'s shape fits."""
    rule = "kron shape must be two (n, r) pairs of integers"
    try:
        (n1, r1), (n2, r2) = shape
    except (TypeError, ValueError):  # not two pairs
        raise ShapeError(f"{rule}, got {shape!r}") from None
    n1, r1, n2, r2 = _integers((n1, r1, n2, r2), rule)
    if x.shape != (n1 * n2, r1 * r2):
        raise ShapeError(f"matrix shape {x.shape} does not match kron shape "
                         f"({n1}x{r1}) o ({n2}x{r2})")
    return n1, r1, n2, r2


def _column_mats(x, n1, n2):
    """Reshape every column to its n1 x n2 outer-product matrix."""
    return x.reshape((n1, n2, x.shape[1]), order="F")


def kron_split(x, shape, feas_tol=1e-9) -> KronSplit:
    """Split an exact Kronecker product of column-stochastic factors.

    Column ``(i, j)`` reshapes to ``u1[:, i] @ u2[:, j].T``; summing it
    against the all-ones vector recovers ``u1[:, i]`` (and transposed,
    ``u2[:, j]``) because the true factor columns sum to one.
    """
    feas_tol, = _tolerances([feas_tol], "kron_split feas_tol")
    x = _reals(x, "kron_split x must be a finite real matrix", 2)
    n1, r1, n2, r2 = _check_shape(x, shape)
    mats = _column_mats(x, n1, n2)
    scale = max(1.0, float(np.linalg.norm(x)))
    colnorms = np.linalg.norm(x, axis=0)
    if np.any(colnorms <= feas_tol * scale):
        raise NotAKroneckerProduct("degenerate input: zero column")
    u1 = np.empty((n1, r1))
    u2 = np.empty((n2, r2))
    for i in range(r1):
        u1[:, i] = mats[:, :, i] @ np.ones(n2)  # column (i, j=0)
    for j in range(r2):
        u2[:, j] = mats[:, :, j * r1].T @ np.ones(n1)  # column (i=0, j)
    residual = float(np.linalg.norm(x - kron(u1, u2)))
    if residual > feas_tol * scale:
        raise NotAKroneckerProduct(
            f"split residual {residual:.3e} exceeds tolerance")
    return KronSplit(u1, u2, residual)


def kron_split_permuted(x, shape, tol=1e-8) -> PermutedKronSplit:
    """Split ``x = kron(u1, u2) @ Pi`` for an unknown column permutation Pi.

    Greedy agglomeration of the per-column left-factor candidates groups the
    columns by which u1 column they carry; exact data makes the clusters
    separated and the threshold only absorbs floating-point noise.
    """
    tol, = _tolerances([tol], "kron_split_permuted tol")
    x = _reals(x, "kron_split_permuted x must be a finite real matrix", 2)
    return _split_permuted(x, *_check_shape(x, shape), tol)


def _split_permuted(x, n1, r1, n2, r2, tol):
    """``kron_split_permuted`` of a float ``(n1 n2) x (r1 r2)`` matrix."""
    mats = _column_mats(x, n1, n2)
    lefts = np.einsum("ijp->ip", mats)   # mat_p @ e
    rights = np.einsum("ijp->jp", mats)  # mat_p.T @ e
    scale = max(float(np.abs(lefts).max(initial=0.0)),
                float(np.abs(rights).max(initial=0.0)))
    if scale <= 0.0:
        raise NotPermutedKronecker("degenerate input: zero matrix")
    thresh = tol * scale

    clusters = []  # representative left columns, order of first appearance
    members = []
    for p in range(x.shape[1]):
        cand = lefts[:, p]
        hits = [k for k, rep in enumerate(clusters)
                if np.linalg.norm(cand - rep) <= thresh]
        if len(hits) > 1:
            raise NotPermutedKronecker("ambiguous left-factor grouping")
        if hits:
            members[hits[0]].append(p)
        else:
            clusters.append(cand)
            members.append([p])
    if len(clusters) != r1 or any(len(m) != r2 for m in members):
        raise NotPermutedKronecker(
            f"grouping found {len(clusters)} left factors with sizes "
            f"{[len(m) for m in members]}, expected {r1} of size {r2}")

    u1 = np.stack(clusters, axis=1)
    u2 = rights[:, members[0]]
    # Every cluster must contain the same right factors, matched one-to-one.
    perm = np.empty(r1 * r2, dtype=int)
    for i, cols in enumerate(members):
        taken = np.zeros(r2, dtype=bool)
        for p in cols:
            dists = np.linalg.norm(u2 - rights[:, p][:, None], axis=0)
            dists[taken] = np.inf
            j = int(np.argmin(dists))
            if dists[j] > thresh:
                raise NotPermutedKronecker(
                    "right factors differ between left-factor groups")
            taken[j] = True
            perm[i + j * r1] = p
    residual = float(np.linalg.norm(kron(u1, u2) - x[:, perm]))
    if residual > thresh * np.sqrt(x.size):
        raise NotPermutedKronecker(
            f"permuted split residual {residual:.3e} exceeds tolerance")
    return PermutedKronSplit(u1, u2, perm, residual)


def kron_split_multi(x, shapes, tol=1e-8) -> MultiKronSplit:
    """Recursively split a column-permuted Kronecker product of d factors.

    Peels the last factor: the product of the leading d-1 factors is again
    full column rank and column-stochastic, so the two-factor split applies
    at every level.  Each level's column permutation composes with the
    permutation inside its leading block; the rebuilt product is then
    checked column by column against ``x``.
    """
    tol, = _tolerances([tol], "kron_split_multi tol")
    x = _reals(x, "kron_split_multi x must be a finite real matrix", 2)
    shapes = [_integers(s, "factor shapes must be integers") for s in shapes]
    if x.shape != (prod(n for n, _ in shapes), prod(r for _, r in shapes)):
        raise ShapeError(
            f"matrix shape {x.shape} does not match factor shapes {shapes}")
    return _split_multi(x, shapes, tol)


def _split_multi(x, shapes, tol=1e-8):
    """``kron_split_multi`` of a float matrix that fits the int ``shapes``."""
    nrow, ncol = x.shape
    if len(shapes) == 1:
        return MultiKronSplit([x.copy()], np.arange(ncol), 0.0)

    def peel(mat, shps):
        """``(factors, perm)`` with ``kron_all(factors) == mat[:, perm]``."""
        if len(shps) == 1:
            return [mat], np.arange(mat.shape[1])
        lead = (prod(n for n, _ in shps[:-1]), prod(r for _, r in shps[:-1]))
        head, last, perm, _ = _split_permuted(mat, *lead, *shps[-1], tol)
        factors, inner = peel(head, shps[:-1])
        # column (i, j) of kron_all(factors) is column inner[i] + R1*j of
        # kron(head, last)
        cols = inner[:, None] + lead[1] * np.arange(shps[-1][1])
        return factors + [last], perm[cols.ravel(order="F")]

    factors, perm = peel(x, shapes)
    diff = kron_all(factors) - x[:, perm]
    scale = max(1.0, float(np.abs(x).max()))
    if (np.linalg.norm(diff, axis=0) > tol * scale * np.sqrt(nrow)).any():
        raise NotPermutedKronecker("a rebuilt column does not match x")
    return MultiKronSplit(factors, perm, float(np.linalg.norm(diff)))
