"""Identification pipelines for order-3 and order-d nonnegative Tucker
decompositions.

Each procedure reduces the tensor to matrix subproblems, solves them with
the volume solvers, and reassembles a model that reconstructs the input
within the feasibility tolerance.  There are three order-d routes, each
checking its own rank rule: unfolding (d0), slice pair (d1) and slice stack
(d3).  Their matrices are slices, the first full-rank one in flat index
order unless told which (``_scan_slices``; no randomness), or, given
``weights``, slice combinations: procedures d.2 and d.4.  Every procedure
checks its order, ranks and tensor once, in ``_mode_ranks``.  Procedures
0-4 are the order-3 cases of d0, d1, d1, d3 and d3: each runs the route's
private body (``_d0``, ``_d1``, ``_d3``) and names its diagnostics; 2 and 4
draw the weights not given from ``cfg.seed``.  The slice routes take each
factor's left inverse from the solver that built it
(``solvers._left_inverse``).  Slices and unfoldings come from ``tensor``,
which alone flattens modes; d3 reads every slice from one stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import ShapeError
from .kron import _split_multi
from .model import NtdModel
from .solvers import (SolverConfig, _check_fit, _left_inverse, _minvol_nmf,
                      _minvol_order2, _scan_slices, _spa, derive_seed)
from .tensor import (DenseTensor, SliceSpec, _flatten, _integers,
                     _partition, _reals, _slice_stack, _unflatten,
                     _unfolding_groups, fold, multilinear_transform,
                     slice_combination, slice_matrix, unfold)


@dataclass(frozen=True)
class ModePartition:
    """Disjoint non-empty row/fixed/column mode sets covering all modes."""

    row_modes: tuple
    fixed_modes: tuple
    col_modes: tuple

    def validate(self, d):
        return _partition(d, self.row_modes, self.fixed_modes,
                          self.col_modes)


_ORDER3 = ((0,), (2,), (1,))  # rows, fixed, cols of procedures 3 and 4


def _finalize(t, factors, core, ranks, cfg, diagnostics) -> NtdModel:
    model = NtdModel(list(factors), core, tuple(ranks), diagnostics)
    diagnostics["recon_error"] = _check_fit(
        t.data, model.reconstruct().data, cfg.feas_tol, what="model")
    diagnostics["core_nonnegative"] = model.core_is_nonnegative(cfg.feas_tol)
    return model


def _mode_ranks(t, ranks, name, low=1, high=None):
    """``ranks`` as positive ints, one per mode of ``t`` (finite real data
    of an order in ``[low, high]``, ``high`` None for no upper bound);
    ``ShapeError`` naming procedure ``name`` otherwise."""
    ranks = _integers(ranks, f"procedure {name}'s ranks must be integers")
    if len(ranks) != t.order or not low <= t.order <= (high or t.order):
        orders = low if low == high else f">= {low}"
        raise ShapeError(f"procedure {name} runs on tensors of order "
                         f"{orders} with one rank per mode, got "
                         f"{len(ranks)} ranks for order {t.order}")
    if min(ranks) < 1:
        raise ShapeError(f"procedure {name} needs ranks >= 1, got {ranks}")
    _reals(t.data, f"procedure {name}'s tensor must be finite real numbers")
    return ranks


def _order3(model, name, **indices):
    """``model`` of an order-d route relabelled as order-3 procedure
    ``name``: ``indices`` replace the route's slice and weight keys."""
    kept = {k: v for k, v in model.diagnostics.items() if k not in
            ("procedure", "slice_indices", "fixed_flat_index", "partition",
             "weights")}
    model.diagnostics = {"procedure": name, **indices, **kept}
    return model


def _split_groups(t, ranks, groups):
    """Per-mode factors from the Kronecker splits of grouped factors:
    ``groups`` pairs each grouped factor with its modes.  Also returns
    each group's column permutation, in the order of ``groups``."""
    factors, perms = [None] * t.order, []
    for u, modes in groups:
        parts, perm = ([u], np.arange(u.shape[1])) if len(modes) == 1 else \
            _split_multi(u, [(t.dims[m], ranks[m]) for m in modes])[:2]
        for mode, part in zip(modes, parts):
            factors[mode] = part
        perms.append(perm)
    return factors, perms


def procedure_d0(t: DenseTensor, ranks, axes, cfg: SolverConfig) -> NtdModel:
    """Unfolding route: min-vol order-2 nTD of the unfolding along
    ``axes``, then Kronecker splits of both grouped factors."""
    return _d0(t, _mode_ranks(t, ranks, "d0", 3), axes, cfg)


def _d0(t, ranks, axes, cfg):
    """``procedure_d0`` with checked ranks."""
    rest, axes = _unfolding_groups(axes, t.order)
    r = prod(ranks[k] for k in axes)
    if r != prod(ranks[k] for k in rest):
        raise ShapeError(f"the unfolding route needs equal rank products "
                         f"on both sides, got {prod(ranks[k] for k in rest)} "
                         f"and {r}")
    fac = _minvol_order2(unfold(t, axes), r, cfg)[0]
    factors, (perm_left, perm_right) = _split_groups(
        t, ranks, ((fac.u1, rest), (fac.u2, axes)))
    diagnostics = {"procedure": "d0", "axes": list(axes),
                   "absdet": fac.absdet, "seed": cfg.seed}
    return _finalize(t, factors,
                     fold(fac.g[np.ix_(perm_left, perm_right)], axes, ranks),
                     ranks, cfg, diagnostics)


def procedure0(t: DenseTensor, ranks, cfg: SolverConfig) -> NtdModel:
    """Procedure d0 at order 3 on the mode-3 unfolding (r3 == r1*r2)."""
    ranks = _mode_ranks(t, ranks, "0", 3, 3)
    return _order3(_d0(t, ranks, (2,), cfg), "0")


def procedure1(t: DenseTensor, ranks, cfg: SolverConfig,
               i2=None, i3=None) -> NtdModel:
    """Procedure d1 at order 3: one mode-3 slice, the first full-rank one
    unless ``i3`` is given, gives U1, U2 by min-vol order-2 nTD; one
    projected mode-2 slice (``i2``) gives U3 by min-vol NMF."""
    ranks = _mode_ranks(t, ranks, "1", 3, 3)
    given = {col: {mode: i} for col, mode, i in ((1, 2, i3), (2, 1, i2))
             if i is not None}
    model = _d1(t, ranks, cfg, given, None)
    used = model.diagnostics["slice_indices"]
    return _order3(model, "1", i3=used["1"]["2"], i2=used["2"]["1"])


def procedure2(t: DenseTensor, ranks, cfg: SolverConfig, alpha=None,
               beta=None) -> NtdModel:
    """Procedure d1 at order 3 on slice combinations (procedure d.2):
    ``alpha`` weighs the mode-3 slices into the matrix that gives U1, U2,
    ``beta`` the mode-2 slices into the one that gives U3; those not given
    are Gaussian, drawn in that order from ``cfg.seed``.  Succeeds with
    probability one whenever the slice spans have maximal rank."""
    ranks = _mode_ranks(t, ranks, "2", 3, 3)
    rng = np.random.default_rng(derive_seed(cfg.seed, "procedure2"))
    if alpha is None:
        alpha = rng.standard_normal(t.dims[2])
    if beta is None:
        beta = rng.standard_normal(t.dims[1])
    model = _d1(t, ranks, cfg, None, {1: alpha, 2: beta})
    used = model.diagnostics["weights"]
    return _order3(model, "2", alpha=used["1"], beta=used["2"])


def procedure3(t: DenseTensor, ranks, cfg: SolverConfig,
               slice_index=None) -> NtdModel:
    """Procedure d3 at order 3 over rows (0,), fixed (2,), columns (1,):
    one mode-3 slice, the first full-rank one unless ``slice_index`` is
    given, gives U1, U2; the projected stack of all mode-3 slices factors
    as core-unfolding times U3' and min-vol NMF finishes."""
    ranks = _mode_ranks(t, ranks, "3", 3, 3)
    fixed = None if slice_index is None else (slice_index,)
    model = _d3(t, ranks, _ORDER3, cfg, fixed, None)
    return _order3(model, "3",
                   slice_index=model.diagnostics["fixed_flat_index"])


def procedure4(t: DenseTensor, ranks, cfg: SolverConfig,
               alpha=None) -> NtdModel:
    """Procedure 3 with its first matrix the combination of the mode-3
    slices by ``alpha`` (procedure d.4), Gaussian from ``cfg.seed`` when
    not given: of full rank with probability one whenever the slices span
    maximal rank.  ``diagnostics["mix"]`` holds ``alpha`` as one column."""
    ranks = _mode_ranks(t, ranks, "4", 3, 3)
    if alpha is None:
        alpha = np.random.default_rng(derive_seed(cfg.seed, "procedure4")) \
            .standard_normal(t.dims[2])
    model = _d3(t, ranks, _ORDER3, cfg, None, alpha)
    return _order3(model, "4",
                   mix=[[a] for a in model.diagnostics["weights"]])


def procedure_d1(t: DenseTensor, ranks, cfg: SolverConfig,
                 slice_indices=None, weights=None) -> NtdModel:
    """Order-d slice-pair route (d.1, and d.2 with ``weights``), for ranks
    r1 == r2 >= r_i: the [0,1]-matrix gives U0, U1 by min-vol order-2 nTD,
    each further [0,i]-matrix projected by U0's left inverse gives U_i by
    min-vol NMF, and the core is ``t`` times every factor's left inverse.

    The [0,i]-matrix of column mode i (1..d-1) is the slice at the
    fixed-index dict ``slice_indices[i]``, or the combination of the
    [0,i]-slices by the vector ``weights[i]`` (over the other modes' flat
    index, first mode fastest), or else the first full-rank [0,i]-slice in
    flat index order.  Keys must be distinct column modes (``ShapeError``).
    """
    return _d1(t, _mode_ranks(t, ranks, "d1", 3), cfg, slice_indices, weights)


def _d1(t, ranks, cfg, slice_indices, weights):
    """``procedure_d1`` with checked ranks."""
    d = t.order
    if ranks[1] != ranks[0] or max(ranks[2:]) > ranks[0]:
        raise ShapeError(f"the slice-pair route needs r1 == r2 >= r_i for "
                         f"every further mode i, got ranks {ranks}")
    slice_indices, weights = dict(slice_indices or {}), dict(weights or {})
    keys = [*slice_indices, *weights]
    if len(set(keys)) < len(keys) or not set(keys) <= set(range(1, d)):
        raise ShapeError(f"slice_indices and weights keys {keys} must be "
                         f"distinct column modes 1..{d - 1}")
    mats, used = {}, {}
    for i in range(1, d):
        others = tuple(m for m in range(d) if m not in (0, i))
        if i in weights:
            mats[i] = slice_combination(t, others, weights[i], (0,), (i,))
            continue
        if i in slice_indices:
            fixed = dict(slice_indices[i])  # slice_matrix checks the indices
        else:
            flat = _scan_slices(_slice_stack(t, (0,), others, (i,)), (0,),
                                (i,), ranks[i])
            index = np.unravel_index(flat, [t.dims[m] for m in others],
                                     order="F")
            fixed = dict(zip(others, map(int, index)))
        used[i] = fixed
        mats[i] = slice_matrix(t, SliceSpec((0,), fixed, (i,)))
    diagnostics = {"procedure": "d1",
                   "slice_indices": {str(k): {str(m): v for m, v in f.items()}
                                     for k, f in used.items()}}
    if weights:
        diagnostics["weights"] = {str(i): np.asarray(w, dtype=float).tolist()
                                  for i, w in sorted(weights.items())}
    fac, left, right = _minvol_order2(mats[1], ranks[0], cfg)
    p1 = _left_inverse(*left)
    factors, inverses = [fac.u1, fac.u2], [p1, _left_inverse(*right)]
    for i in range(2, d):
        _, h, param = _minvol_nmf(p1 @ mats[i], ranks[i], cfg)
        factors.append(h)
        inverses.append(_left_inverse(*param))
    diagnostics.update(absdet=fac.absdet, seed=cfg.seed)
    return _finalize(t, factors, multilinear_transform(t, inverses), ranks,
                     cfg, diagnostics)


def procedure_d3(t: DenseTensor, ranks, partition: ModePartition,
                 cfg: SolverConfig, fixed_index=None,
                 weights=None) -> NtdModel:
    """Slice-stack route over a row/fixed/column mode partition (d.3, and
    d.4 with ``weights``), for equal row and column rank products r and a
    fixed-mode rank product of at most r^2: the first matrix gives the
    grouped row and column factors by min-vol order-2 nTD, the stack of
    all slices projected by their left inverses factors as core unfolding
    times the fixed-group factor by min-vol NMF, and Kronecker splits of
    all three grouped factors finish.  The first matrix is the slice at
    ``fixed_index``, or the combination of all slices by the vector
    ``weights`` (over the fixed modes' flat index, first mode fastest), or
    else the first full-rank slice in flat index order; not both."""
    return _d3(t, _mode_ranks(t, ranks, "d3"), partition.validate(t.order),
               cfg, fixed_index, weights)


def _d3(t, ranks, groups, cfg, fixed_index, weights):
    """``procedure_d3`` with checked ranks and a partition's mode groups."""
    rows, fixed_modes, cols = groups
    r, r_cols, r_fixed = (prod(ranks[m] for m in group)
                          for group in (rows, cols, fixed_modes))
    if r != r_cols or r_fixed > r * r:
        raise ShapeError(f"the slice-stack route needs equal row and column "
                         f"rank products r and a fixed-mode rank product of "
                         f"at most r^2, got row and column rank products {r} "
                         f"and {r_cols}, fixed-mode rank product {r_fixed}")
    if fixed_index is not None and weights is not None:
        raise ShapeError("procedure d3 takes fixed_index or weights, not both")

    stack = _slice_stack(t, rows, fixed_modes, cols)
    diagnostics = {"procedure": "d3"}
    if weights is not None:
        first = slice_combination(t, fixed_modes, weights, rows, cols)
        diagnostics["weights"] = np.asarray(weights, dtype=float).tolist()
    else:
        if fixed_index is None:
            start = _scan_slices(stack, rows, cols, r)
        else:
            index = _integers(fixed_index, "fixed_index must be integers")
            sizes = [t.dims[m] for m in fixed_modes]
            try:
                start = int(np.ravel_multi_index(index, sizes, order="F"))
            except ValueError:
                raise ShapeError(f"fixed_index {index} outside the "
                                 f"fixed-mode dims {tuple(sizes)}") from None
        first, diagnostics["fixed_flat_index"] = stack[:, :, start], start
    diagnostics["partition"] = {"rows": list(rows), "fixed": list(fixed_modes),
                                "cols": list(cols)}
    fac, left, right = _minvol_order2(first, r, cfg)
    p1 = _left_inverse(*left)
    p2t = _left_inverse(*right).T
    projected = _flatten(p1 @ np.moveaxis(stack, -1, 0) @ p2t,
                         ((1, 2), (0,)))
    g, u_fixed = _minvol_nmf(projected, r_fixed, cfg)[:2]
    factors, (perm_left, perm_right, perm_mid) = _split_groups(
        t, ranks, ((fac.u1, rows), (fac.u2, cols), (u_fixed, fixed_modes)))
    row_gather = (perm_left[:, None] + perm_right[None, :] * r) \
        .ravel(order="F")
    core = _unflatten(g[np.ix_(row_gather, perm_mid)],
                      rows + cols + fixed_modes, ranks)
    diagnostics.update(absdet=fac.absdet, seed=cfg.seed)
    return _finalize(t, factors, core, ranks, cfg, diagnostics)


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
    cfg = SolverConfig(feas_tol=feas_tol)
    ranks, d = _mode_ranks(t, ranks, "sep-d"), t.order
    factors, anchor_sets, work = [None] * d, [None] * d, t
    for k in sorted(range(d), key=lambda m: t.dims[m]):
        x = unfold(work, (k,))
        anchor_sets[k], _, h = _spa(x, ranks[k], cfg.feas_tol)
        factors[k] = h / h.sum(axis=0)
        work = fold(x @ np.linalg.pinv(factors[k]).T, (k,),
                    work.dims[:k] + (ranks[k],) + work.dims[k + 1:])
    diagnostics = {"procedure": "sep-d",
                   "anchors": [list(map(int, a)) for a in anchor_sets]}
    return _finalize(t, factors, work, ranks, cfg, diagnostics)
