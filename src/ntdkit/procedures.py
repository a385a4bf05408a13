"""Identification pipelines for order-3 and order-d nonnegative Tucker
decompositions.

Each procedure reduces the tensor to matrix subproblems, solves them with
the volume solvers, and reassembles a model that reconstructs the input
within the feasibility tolerance.  It runs one of three routes: the
unfolding route (0, d0, ``allatonce_penalized``; one unfolding, then
Kronecker splits), the slice-pair route (1, 2, d1; one slice for two modes,
one projected slice per further mode) or the slice-stack route (3, 4, d3;
one slice, then the projected stack of all slices).  Procedures 1, 3, d1
and d3 take the first full-rank slice in flat index order unless told
which (``_scan_slices``, from ``solvers`` beside its rank gate; no
randomness).  The slice routes take each factor's left inverse from the
solver that built it (``solvers._left_inverse``) and compute no
pseudo-inverse; procedures 2 and 4 are 1 and 3 with Gaussian slice
combinations as the matrices they factor first, 4 keeping 3's stack.  The
d-prefixed ones are the order-d versions.  Every procedure checks its rank
list in ``_mode_ranks``.  Slices and unfoldings come from ``tensor``,
which alone flattens modes; 3, 4 and d3 read every slice from one stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import NotPermutedKronecker, ShapeError, SolverError
from .kron import kron_all, kron_split_multi, nearest_kron
from .model import NtdModel
from .solvers import (SolverConfig, _left_inverse, _minvol_nmf,
                      _minvol_order2, _scan_slices, derive_seed, minvol_nmf,
                      minvol_order2_ntd, spa_separable_nmf)
from .tensor import (DenseTensor, SliceSpec, _flatten, _partition,
                     _slice_stack, _unflatten, _unfolding_groups, fold,
                     mode_slice, multilinear_transform, slice_combination,
                     slice_matrix, unfold)


@dataclass(frozen=True)
class ModePartition:
    """Disjoint non-empty row/fixed/column mode sets covering all modes."""

    row_modes: tuple
    fixed_modes: tuple
    col_modes: tuple

    def validate(self, d):
        return _partition(d, self.row_modes, self.fixed_modes,
                          self.col_modes)


def _finalize(t, factors, core, ranks, cfg, diagnostics) -> NtdModel:
    model = NtdModel(list(factors), core, tuple(ranks), diagnostics)
    err = model._residual_norm(t) / max(t.norm(), 1e-300)
    if err > cfg.feas_tol:
        raise SolverError(f"model reconstruction error {err:.3e}")
    diagnostics["recon_error"] = float(err)
    diagnostics["core_nonnegative"] = model.core_is_nonnegative(cfg.feas_tol)
    return model


def _mode_ranks(t, ranks, name, low=1, high=None):
    """``ranks`` as ints, one per mode of ``t``, whose order must lie in
    ``[low, high]`` (no upper bound when ``high`` is None); ``ShapeError``
    naming procedure ``name`` otherwise."""
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != t.order or not low <= t.order <= (high or t.order):
        orders = low if low == high else f">= {low}"
        raise ShapeError(f"procedure {name} runs on tensors of order "
                         f"{orders} with one rank per mode, got "
                         f"{len(ranks)} ranks for order {t.order}")
    return ranks


def _split_group(u, modes, dims, ranks):
    """``(factors, perm, residual)`` of a grouped factor's Kronecker split."""
    if len(modes) == 1:
        return [u], np.arange(u.shape[1]), 0.0
    return kron_split_multi(u, [(dims[m], ranks[m]) for m in modes])


def _unfolding_route(t, ranks, axes, cfg, split=_split_group):
    """Min-vol order-2 nTD of the unfolding along ``axes``, then
    ``split(u, modes, dims, ranks)`` of both grouped factors.  Returns the
    unfolding's factorization, the per-mode factors, the core unfolding
    permuted to match them, the sorted axes and the sum of the squared
    split residuals."""
    rest, axes = _unfolding_groups(axes, t.order)
    r = prod(ranks[k] for k in axes)
    if r != prod(ranks[k] for k in rest):
        raise ShapeError(
            f"rank products differ across the unfolding "
            f"({prod(ranks[k] for k in rest)} vs {r})"
        )
    fac = minvol_order2_ntd(unfold(t, axes), r, cfg)
    left, perm_left, res_left = split(fac.u1, rest, t.dims, ranks)
    right, perm_right, res_right = split(fac.u2, axes, t.dims, ranks)
    factors = [None] * t.order
    for mode, u in zip(rest + axes, [*left, *right]):
        factors[mode] = u
    return (fac, factors, fac.g[np.ix_(perm_left, perm_right)], axes,
            res_left**2 + res_right**2)


def _slice_pair_route(t, ranks, first, mats, cfg, diagnostics):
    """Min-vol order-2 nTD of ``first`` gives U1 and U2; each further
    matrix, projected by the left inverse of U1, gives the next factor by
    min-vol NMF; the core is ``t`` times every factor's left inverse, each
    taken from its solver's parametrization."""
    fac, left, right = _minvol_order2(first, ranks[0], cfg)
    p1 = _left_inverse(*left)
    factors, inverses = [fac.u1, fac.u2], [p1, _left_inverse(*right)]
    for mat, r in zip(mats, ranks[2:]):
        _, h, param = _minvol_nmf(p1 @ mat, r, cfg)
        factors.append(h)
        inverses.append(_left_inverse(*param))
    diagnostics.update(absdet=fac.absdet, seed=cfg.seed)
    return _finalize(t, factors, multilinear_transform(t, inverses), ranks,
                     cfg, diagnostics)


def _slice_stack_route(t, ranks, groups, first, slices, cfg, diagnostics):
    """Min-vol order-2 nTD of ``first`` over the ``(rows, fixed, cols)``
    groups; the ``(R, C, F)`` ``slices``, projected on both sides by the
    left inverses of U1 and U2, factor as core unfolding times the
    fixed-group factor."""
    rows, fixed, cols = groups
    r = prod(ranks[m] for m in rows)
    fac, left, right = _minvol_order2(first, r, cfg)
    p1 = _left_inverse(*left)
    p2t = _left_inverse(*right).T
    stack = _flatten(p1 @ np.moveaxis(slices, -1, 0) @ p2t, ((1, 2), (0,)))
    g, u_fixed = minvol_nmf(stack, prod(ranks[m] for m in fixed), cfg)

    left, perm_left, _ = _split_group(fac.u1, rows, t.dims, ranks)
    right, perm_right, _ = _split_group(fac.u2, cols, t.dims, ranks)
    mids, perm_mid, _ = _split_group(u_fixed, fixed, t.dims, ranks)
    row_gather = (perm_left[:, None] + perm_right[None, :] * r) \
        .ravel(order="F")
    core = _unflatten(g[np.ix_(row_gather, perm_mid)], rows + cols + fixed,
                      ranks)
    factors = [None] * t.order
    for mode, u in zip(rows + cols + fixed, [*left, *right, *mids]):
        factors[mode] = u
    diagnostics.update(absdet=fac.absdet, seed=cfg.seed)
    return _finalize(t, factors, core, ranks, cfg, diagnostics)


def procedure_d0(t: DenseTensor, ranks, axes, cfg: SolverConfig,
                 _name="d0") -> NtdModel:
    """Unfolding route: min-vol order-2 nTD of one unfolding, then
    Kronecker splits of both grouped factors."""
    ranks = _mode_ranks(t, ranks, _name, 3)
    fac, factors, core_mat, axes, _ = _unfolding_route(t, ranks, axes, cfg)
    diagnostics = {"procedure": _name, "axes": list(axes),
                   "absdet": fac.absdet, "seed": cfg.seed}
    return _finalize(t, factors, fold(core_mat, axes, ranks), ranks, cfg,
                     diagnostics)


def allatonce_penalized(t: DenseTensor, ranks, lam, cfg: SolverConfig,
                        axes=None) -> NtdModel:
    """Penalized all-at-once variant of the unfolding route.

    Minimizes ``|det g| + lam * ||u_group - kron(factors)||_F^2`` with the
    exact fit enforced structurally through the min-vol parametrization of
    the unfolding.  When the min-vol step lands on an exactly permuted
    Kronecker product (the identifiable regime) the split drives the
    penalty to zero; otherwise factors fall back to alternating
    nearest-Kronecker fits and the result is flagged heuristic.
    """
    ranks = _mode_ranks(t, ranks, "all-at-once")
    heuristic = []

    def split(u, modes, dims, ranks):
        try:
            return _split_group(u, modes, dims, ranks)
        except NotPermutedKronecker:
            heuristic.append(modes)
        # Peel nearest Kronecker factors left to right.
        factors, remaining = [], u
        for k in modes[:-1]:
            fit = nearest_kron(
                remaining, ((dims[k], ranks[k]),
                            (remaining.shape[0] // dims[k],
                             remaining.shape[1] // ranks[k])),
                stochastic=True)
            factors.append(fit.u1)
            remaining = fit.u2
        factors.append(remaining)
        return (factors, np.arange(u.shape[1]),
                float(np.linalg.norm(u - kron_all(factors))))

    fac, factors, core_mat, axes, penalty = _unfolding_route(
        t, ranks, (t.order - 1,) if axes is None else axes, cfg, split)
    diagnostics = {
        "lambda": lam, "axes": list(axes), "unfold_absdet": fac.absdet,
        "penalty": penalty,
        "objective": abs(np.linalg.det(core_mat)) + lam * penalty,
        "method": "nearest-kron-heuristic" if heuristic else "split-exact",
    }
    model = NtdModel(factors, fold(core_mat, axes, ranks), ranks,
                     diagnostics)
    err = model._residual_norm(t) / max(t.norm(), 1e-300)
    if not heuristic and err > cfg.feas_tol:
        raise SolverError(f"reconstruction residual {err:.3e}")
    diagnostics["recon_error"] = float(err)
    return model


def procedure0(t: DenseTensor, ranks, cfg: SolverConfig) -> NtdModel:
    """Order-3 unfolding route; needs r3 == r1*r2."""
    r1, r2, r3 = _mode_ranks(t, ranks, "0", 3, 3)
    if r3 != r1 * r2:
        raise ShapeError(f"r3={r3} must equal r1*r2={r1 * r2}")
    return procedure_d0(t, ranks, (2,), cfg, _name="0")


def procedure1(t: DenseTensor, ranks, cfg: SolverConfig,
               i2=None, i3=None) -> NtdModel:
    """Two full-rank slices, the first of each mode unless given: one
    mode-3 slice gives U1, U2 by min-vol order-2 nTD, one projected mode-2
    slice gives U3 by min-vol NMF."""
    r1, r2, r3 = _mode_ranks(t, ranks, "1", 3, 3)
    if r1 != r2:
        raise ShapeError("procedure 1 needs r1 == r2")
    if r3 > r1:
        raise ShapeError("procedure 1 needs r3 <= r1")
    i3 = _scan_slices(_slice_stack(t, (0,), (2,), (1,)), (0,), (1,), r1) \
        if i3 is None else int(i3)
    i2 = _scan_slices(_slice_stack(t, (0,), (1,), (2,)), (0,), (2,), r3) \
        if i2 is None else int(i2)
    return _slice_pair_route(t, (r1, r2, r3), mode_slice(t, 2, i3),
                             [mode_slice(t, 1, i2)], cfg,
                             {"procedure": "1", "i3": i3, "i2": i2})


def procedure2(t: DenseTensor, ranks, cfg: SolverConfig, rng=None,
               alpha=None, beta=None) -> NtdModel:
    """Randomized procedure 1 on Gaussian slice combinations; succeeds with
    probability one whenever the slice spans have maximal rank."""
    r1, r2, r3 = _mode_ranks(t, ranks, "2", 3, 3)
    if r1 != r2 or r3 > r1:
        raise ShapeError("procedure 2 needs r3 <= r1 == r2")
    rng = np.random.default_rng(
        derive_seed(cfg.seed, "procedure2") if rng is None else rng)
    alpha = rng.standard_normal(t.dims[2]) if alpha is None \
        else np.asarray(alpha, dtype=float)
    beta = rng.standard_normal(t.dims[1]) if beta is None \
        else np.asarray(beta, dtype=float)
    return _slice_pair_route(t, (r1, r2, r3), slice_combination(t, 2, alpha),
                             [slice_combination(t, 1, beta)], cfg,
                             {"procedure": "2", "alpha": alpha.tolist(),
                              "beta": beta.tolist()})


def procedure3(t: DenseTensor, ranks, cfg: SolverConfig,
               slice_index=None) -> NtdModel:
    """One full-rank slice, the first unless given, gives U1, U2; the
    projected stack of all mode-3 slices factors as core-unfolding times
    U3' and min-vol NMF finishes."""
    r1, r2, r3 = _mode_ranks(t, ranks, "3", 3, 3)
    if r1 != r2:
        raise ShapeError("procedure 3 needs r1 == r2")
    if r3 > r1 * r1:
        raise ShapeError(f"procedure 3 needs r3 <= r^2 = {r1 * r1}")
    stack = _slice_stack(t, (0,), (2,), (1,))
    i = _scan_slices(stack, (0,), (1,), r1) if slice_index is None else \
        int(slice_index)
    return _slice_stack_route(t, (r1, r2, r3), ((0,), (2,), (1,)),
                              mode_slice(t, 2, i), stack, cfg,
                              {"procedure": "3", "slice_index": i})


def procedure4(t: DenseTensor, ranks, cfg: SolverConfig, rng=None,
               alpha=None) -> NtdModel:
    """Randomized procedure 3: the first matrix is one Gaussian combination
    ``alpha`` of the mode-3 slices, which has full rank with probability
    one whenever the slices span maximal rank; the projected stack is
    procedure 3's.  ``diagnostics["mix"]`` holds ``alpha`` as one column."""
    r1, r2, r3 = _mode_ranks(t, ranks, "4", 3, 3)
    if r1 != r2 or r3 > r1 * r1:
        raise ShapeError("procedure 4 needs r3 <= r^2 with r1 == r2")
    rng = np.random.default_rng(
        derive_seed(cfg.seed, "procedure4") if rng is None else rng)
    alpha = rng.standard_normal(t.dims[2]) if alpha is None \
        else np.asarray(alpha, dtype=float)
    return _slice_stack_route(t, (r1, r2, r3), ((0,), (2,), (1,)),
                              slice_combination(t, 2, alpha),
                              _slice_stack(t, (0,), (2,), (1,)), cfg,
                              {"procedure": "4",
                               "mix": alpha[:, None].tolist()})


def procedure_d1(t: DenseTensor, ranks, cfg: SolverConfig,
                 slice_indices=None) -> NtdModel:
    """Order-d slice route: a [0,1]-slice gives U0, U1; for every further
    mode one projected [0,i]-slice gives U_i by min-vol NMF.

    ``slice_indices`` optionally maps a column mode (1..d-1, else
    ``ShapeError``) to the fixed-index dict of its slice; for a missing
    mode the first full-rank [0,i]-slice in flat index order is used (no
    randomness).
    """
    ranks, d = _mode_ranks(t, ranks, "d1", 3), t.order
    r = ranks[0]
    if ranks[1] != r:
        raise ShapeError("procedure d.1 needs r1 == r2")
    if any(ranks[i] > r for i in range(2, d)):
        raise ShapeError("procedure d.1 needs r_i <= r1 for i >= 3")
    slice_indices = dict(slice_indices or {})
    stray = [k for k in slice_indices if k not in range(1, d)]
    if stray:
        raise ShapeError(f"slice_indices keys {stray} are not column modes "
                         f"1..{d - 1}")
    used = {}
    for i in range(1, d):
        if i in slice_indices:
            used[i] = dict(slice_indices[i])
        else:
            others = tuple(m for m in range(d) if m not in (0, i))
            flat = _scan_slices(_slice_stack(t, (0,), others, (i,)), (0,),
                                (i,), ranks[i])
            index = np.unravel_index(flat, [t.dims[m] for m in others],
                                     order="F")
            used[i] = dict(zip(others, map(int, index)))
    mats = {i: slice_matrix(t, SliceSpec((0,), fixed, (i,)))
            for i, fixed in used.items()}
    diagnostics = {"procedure": "d1",
                   "slice_indices": {str(k): {str(m): int(v)
                                              for m, v in f.items()}
                                     for k, f in used.items()}}
    return _slice_pair_route(t, ranks, mats[1],
                             [mats[i] for i in range(2, d)], cfg, diagnostics)


def procedure_d3(t: DenseTensor, ranks, partition: ModePartition,
                 cfg: SolverConfig, fixed_index=None) -> NtdModel:
    """Fully generalized slice route over a row/fixed/column mode
    partition, with Kronecker splits of all three grouped factors.  The
    first matrix is the slice at ``fixed_index`` or, when that is not
    given, the first full-rank slice in flat index order."""
    ranks = _mode_ranks(t, ranks, "d3")
    rows, fixed_modes, cols = partition.validate(t.order)
    r = prod(ranks[m] for m in rows)
    if r != prod(ranks[m] for m in cols):
        raise ShapeError(
            "row and column rank products must match "
            f"({r} vs {prod(ranks[m] for m in cols)})"
        )
    r_fixed = prod(ranks[m] for m in fixed_modes)
    if r_fixed > r * r:
        raise ShapeError(f"fixed-mode rank product {r_fixed} exceeds r^2")

    stack = _slice_stack(t, rows, fixed_modes, cols)
    sizes = [t.dims[m] for m in fixed_modes]
    if fixed_index is None:
        start = _scan_slices(stack, rows, cols, r)
    else:
        fixed_index = tuple(int(i) for i in fixed_index)
        try:
            start = int(np.ravel_multi_index(fixed_index, sizes, order="F"))
        except ValueError:
            raise ShapeError(f"fixed_index {fixed_index} outside the "
                             f"fixed-mode dims {tuple(sizes)}") from None
    diagnostics = {"procedure": "d3", "fixed_flat_index": start,
                   "partition": {"rows": list(rows),
                                 "fixed": list(fixed_modes),
                                 "cols": list(cols)}}
    return _slice_stack_route(t, ranks, (rows, fixed_modes, cols),
                              stack[:, :, start], stack, cfg, diagnostics)


def separable_orderd(t: DenseTensor, ranks, feas_tol=1e-9) -> NtdModel:
    """Polynomial-time route when every factor is separable: one anchor
    pass per single-mode unfolding, smallest ``n_k`` first (ties in mode
    order) so that the one full-size pass factors the narrowest unfolding.
    Each unfolding times ``pinv(U_k).T`` folds back into the working
    tensor: ``pinv(U_k)`` is injective on the range of ``U_k``, so later
    unfoldings have r_k rows instead of n_k, their columns move by one
    invertible map that keeps the anchors and the normalized ``h``, and
    the last contraction is the core.  The reconstruction check against
    ``t`` certifies the model."""
    ranks, d = _mode_ranks(t, ranks, "sep-d"), t.order
    factors, anchor_sets, work = [None] * d, [None] * d, t
    for k in sorted(range(d), key=lambda m: t.dims[m]):
        x = unfold(work, (k,))
        anchor_sets[k], _, h = spa_separable_nmf(x, ranks[k], feas_tol)
        factors[k] = h / h.sum(axis=0)
        work = fold(x @ np.linalg.pinv(factors[k]).T, (k,),
                    work.dims[:k] + (ranks[k],) + work.dims[k + 1:])
    cfg = SolverConfig(feas_tol=feas_tol)
    diagnostics = {"procedure": "sep-d",
                   "anchors": [list(map(int, a)) for a in anchor_sets]}
    return _finalize(t, factors, work, ranks, cfg, diagnostics)
