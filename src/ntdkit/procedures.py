"""Identification pipelines for order-3 and order-d nonnegative Tucker
decompositions.

Each procedure reduces the tensor to matrix subproblems, solves them with
the volume solvers, and reassembles a model that reconstructs the input
within the feasibility tolerance.  It runs one of three routes: the
unfolding route (0, d0, ``allatonce_penalized``; one unfolding, then
Kronecker splits), the slice-pair route (1, 2, d1; one slice for two modes,
one projected slice per further mode) or the slice-stack route (3, 4, d3;
one slice, then the projected stack of all slices).  Procedures 2 and 4
randomize 1 and 3 with Gaussian slice combinations; the d-prefixed ones
are the order-d versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import (NotPermutedKronecker, PartitionError, RankError,
                     ShapeError, SolverError)
from .kron import kron_all, kron_split_multi, nearest_kron
from .model import NtdModel
from .solvers import (SolverConfig, derive_seed, minvol_nmf,
                      minvol_order2_ntd, numerical_rank, spa_separable_nmf)
from .tensor import (DenseTensor, SliceSpec, fold, mode_slice,
                     multilinear_transform, slice_combination, slice_matrix,
                     unfold)


@dataclass(frozen=True)
class ModePartition:
    """Disjoint non-empty row/fixed/column mode sets covering all modes."""

    row_modes: tuple
    fixed_modes: tuple
    col_modes: tuple

    def validate(self, d):
        groups = (tuple(self.row_modes), tuple(self.fixed_modes),
                  tuple(self.col_modes))
        merged = sorted(m for g in groups for m in g)
        if any(len(g) == 0 for g in groups) or merged != list(range(d)):
            raise PartitionError(
                f"mode sets {groups} do not partition the {d} modes"
            )
        return groups


def _core_via_pinv(t, factors):
    pinvs = [np.linalg.pinv(u) for u in factors]
    return multilinear_transform(t, pinvs)


def _finalize(t, factors, core, ranks, cfg, diagnostics) -> NtdModel:
    model = NtdModel(list(factors), core, tuple(ranks), diagnostics)
    err = np.linalg.norm(model.reconstruct().data - t.data) \
        / max(t.norm(), 1e-300)
    if err > cfg.feas_tol:
        raise SolverError(f"model reconstruction error {err:.3e}")
    diagnostics["recon_error"] = float(err)
    diagnostics["core_nonnegative"] = model.core_is_nonnegative(cfg.feas_tol)
    return model


def select_max_rank_slice(t: DenseTensor, mode, tol=None) -> int:
    """First slice index attaining the maximum numerical rank (order 3)."""
    if t.order != 3:
        raise ShapeError("slice selection is defined for order-3 tensors")
    ranks = [numerical_rank(mode_slice(t, mode, j), tol)
             for j in range(t.dims[mode])]
    return int(np.argmax(ranks))


def _fold_sequence(mat, modes_seq, dims) -> DenseTensor:
    """Fold a matrix whose overall column-major flattening runs through
    ``modes_seq`` (first listed fastest) back into a tensor."""
    shaped = mat.ravel(order="F").reshape(
        [dims[m] for m in modes_seq], order="F")
    return DenseTensor.from_array(np.transpose(shaped, np.argsort(modes_seq)))


def _split_group(u, modes, dims, ranks):
    """``(factors, perm, residual)`` of a grouped factor's Kronecker split."""
    if len(modes) == 1:
        return [u], np.arange(u.shape[1]), 0.0
    return kron_split_multi(u, [(dims[m], ranks[m]) for m in modes])


def _fixed_at(t, fixed_modes, flat):
    """Fixed-index dict at a flat index, first fixed mode fastest."""
    idx = np.unravel_index(flat, [t.dims[m] for m in fixed_modes], order="F")
    return dict(zip(fixed_modes, (int(i) for i in idx)))


def _scan_slices(t, rows, fixed_modes, cols, target, rng, budget):
    """Flat index of a ``rows x cols`` slice of numerical rank ``target``.

    Tries index 0, then ``budget`` indices drawn from ``rng``; generic
    instances succeed at once, so the scan is a probability-one surrogate
    for the existence assumption.  Raises ``RankError`` with the best rank
    seen when no candidate reaches ``target``.
    """
    nfixed = prod(t.dims[m] for m in fixed_modes)
    best, seen = 0, set()
    for flat in [0, *rng.integers(nfixed, size=budget)]:
        flat = int(flat)
        if flat in seen:
            continue
        seen.add(flat)
        rank = numerical_rank(slice_matrix(
            t, SliceSpec(rows, _fixed_at(t, fixed_modes, flat), cols)))
        if rank == target:
            return flat
        best = max(best, rank)
    name = ",".join(str(g[0]) if len(g) == 1 else str(list(g))
                    for g in (rows, cols))
    raise RankError(
        f"no [{name}]-slice of rank {target} found in {len(seen)} "
        f"candidates (best was {best})"
    )


def _unfolding_route(t, ranks, axes, cfg, split=_split_group):
    """Min-vol order-2 nTD of the unfolding along ``axes``, then
    ``split(u, modes, dims, ranks)`` of both grouped factors.  Returns the
    unfolding's factorization, the per-mode factors, the core unfolding
    permuted to match them, the sorted axes and the sum of the squared
    split residuals."""
    d = t.order
    if len(ranks) != d:
        raise ShapeError("ranks length must match tensor order")
    axes = tuple(sorted(int(a) for a in axes))
    rest = tuple(k for k in range(d) if k not in axes)
    # Out-of-range or repeated axes leave more than d modes in total.
    if not axes or not rest or len(axes) + len(rest) != d:
        raise PartitionError("axes must be a proper non-empty mode subset")
    r = prod(ranks[k] for k in axes)
    if r != prod(ranks[k] for k in rest):
        raise ShapeError(
            f"rank products differ across the unfolding "
            f"({prod(ranks[k] for k in rest)} vs {r})"
        )
    fac = minvol_order2_ntd(unfold(t, axes), r, cfg)
    left, perm_left, res_left = split(fac.u1, rest, t.dims, ranks)
    right, perm_right, res_right = split(fac.u2, axes, t.dims, ranks)
    factors = [None] * d
    for mode, u in zip(rest + axes, [*left, *right]):
        factors[mode] = u
    return (fac, factors, fac.g[np.ix_(perm_left, perm_right)], axes,
            res_left**2 + res_right**2)


def _slice_pair_route(t, ranks, first, pairs, cfg, diagnostics):
    """Min-vol order-2 nTD of ``first`` gives U1 and U2; each further
    ``(matrix, cfg)`` pair, projected by the pseudo-inverse of U1, gives
    the next factor by min-vol NMF; the core follows by pseudo-inverses."""
    fac = minvol_order2_ntd(first, ranks[0], cfg)
    p1 = np.linalg.pinv(fac.u1)
    factors = [fac.u1, fac.u2]
    for (mat, mode_cfg), r in zip(pairs, ranks[2:]):
        factors.append(minvol_nmf(p1 @ mat, r, mode_cfg)[1])
    diagnostics.update(absdet=fac.absdet, seed=cfg.seed)
    return _finalize(t, factors, _core_via_pinv(t, factors), ranks, cfg,
                     diagnostics)


def _slice_stack_route(t, ranks, groups, first, slices, cfg, diagnostics,
                       unmix=None):
    """Min-vol order-2 nTD of ``first`` over the ``(rows, fixed, cols)``
    groups; the stack of all ``slices``, projected on both sides, factors
    as core unfolding times the fixed-group factor.  ``unmix`` undoes a
    mixing of the slices (the stack is multiplied by its inverse)."""
    rows, fixed, cols = groups
    r = prod(ranks[m] for m in rows)
    fac = minvol_order2_ntd(first, r, cfg)
    p1 = np.linalg.pinv(fac.u1)
    p2t = np.linalg.pinv(fac.u2).T
    stack = np.stack([(p1 @ m @ p2t).ravel(order="F") for m in slices],
                     axis=1)
    if unmix is not None:
        stack = np.linalg.solve(unmix.T, stack.T).T
    g, u_fixed = minvol_nmf(stack, prod(ranks[m] for m in fixed), cfg)

    left, perm_left, _ = _split_group(fac.u1, rows, t.dims, ranks)
    right, perm_right, _ = _split_group(fac.u2, cols, t.dims, ranks)
    mids, perm_mid, _ = _split_group(u_fixed, fixed, t.dims, ranks)
    row_gather = (perm_left[:, None] + perm_right[None, :] * r) \
        .ravel(order="F")
    core = _fold_sequence(g[np.ix_(row_gather, perm_mid)],
                          rows + cols + fixed, ranks)
    factors = [None] * t.order
    for mode, u in zip(rows + cols + fixed, [*left, *right, *mids]):
        factors[mode] = u
    diagnostics.update(absdet=fac.absdet, seed=cfg.seed)
    return _finalize(t, factors, core, ranks, cfg, diagnostics)


def procedure_d0(t: DenseTensor, ranks, axes, cfg: SolverConfig,
                 _name="d0") -> NtdModel:
    """Unfolding route: min-vol order-2 nTD of one unfolding, then
    Kronecker splits of both grouped factors."""
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != t.order or t.order < 3:
        raise ShapeError("need an order >= 3 tensor and one rank per mode")
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
    ranks = tuple(int(r) for r in ranks)
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
    err = np.linalg.norm(model.reconstruct().data - t.data) \
        / max(t.norm(), 1e-300)
    if not heuristic and err > cfg.feas_tol:
        raise SolverError(f"reconstruction residual {err:.3e}")
    diagnostics["recon_error"] = float(err)
    return model


def _order3_ranks(t, ranks, name):
    """The three ranks of an order-3 procedure, checked against the tensor."""
    ranks = tuple(int(r) for r in ranks)
    if t.order != 3 or len(ranks) != 3:
        raise ShapeError(f"procedure {name} runs on order-3 tensors with "
                         f"three ranks")
    return ranks


def procedure0(t: DenseTensor, ranks, cfg: SolverConfig) -> NtdModel:
    """Order-3 unfolding route; needs r3 == r1*r2."""
    r1, r2, r3 = _order3_ranks(t, ranks, "0")
    if r3 != r1 * r2:
        raise ShapeError(f"r3={r3} must equal r1*r2={r1 * r2}")
    return procedure_d0(t, ranks, (2,), cfg, _name="0")


def procedure1(t: DenseTensor, ranks, cfg: SolverConfig,
               i2=None, i3=None) -> NtdModel:
    """Two max-rank slices: one mode-3 slice gives U1, U2 by min-vol
    order-2 nTD, one projected mode-2 slice gives U3 by min-vol NMF."""
    r1, r2, r3 = _order3_ranks(t, ranks, "1")
    if r1 != r2:
        raise ShapeError("procedure 1 needs r1 == r2")
    if r3 > r1:
        raise ShapeError("procedure 1 needs r3 <= r1")
    i3 = select_max_rank_slice(t, 2) if i3 is None else int(i3)
    i2 = select_max_rank_slice(t, 1) if i2 is None else int(i2)
    return _slice_pair_route(t, (r1, r2, r3), mode_slice(t, 2, i3),
                             [(mode_slice(t, 1, i2), cfg)], cfg,
                             {"procedure": "1", "i3": i3, "i2": i2})


def procedure2(t: DenseTensor, ranks, cfg: SolverConfig, rng=None,
               alpha=None, beta=None) -> NtdModel:
    """Randomized procedure 1 on Gaussian slice combinations; succeeds with
    probability one whenever the slice spans have maximal rank."""
    r1, r2, r3 = _order3_ranks(t, ranks, "2")
    if r1 != r2 or r3 > r1:
        raise ShapeError("procedure 2 needs r3 <= r1 == r2")
    rng = np.random.default_rng(
        derive_seed(cfg.seed, "procedure2") if rng is None else rng)
    alpha = rng.standard_normal(t.dims[2]) if alpha is None \
        else np.asarray(alpha, dtype=float)
    beta = rng.standard_normal(t.dims[1]) if beta is None \
        else np.asarray(beta, dtype=float)
    return _slice_pair_route(t, (r1, r2, r3), slice_combination(t, 2, alpha),
                             [(slice_combination(t, 1, beta), cfg)], cfg,
                             {"procedure": "2", "alpha": alpha.tolist(),
                              "beta": beta.tolist()})


def procedure3(t: DenseTensor, ranks, cfg: SolverConfig,
               slice_index=None) -> NtdModel:
    """One max-rank slice gives U1, U2; the projected stack of all mode-3
    slices factors as core-unfolding times U3' and min-vol NMF finishes."""
    r1, r2, r3 = _order3_ranks(t, ranks, "3")
    if r1 != r2:
        raise ShapeError("procedure 3 needs r1 == r2")
    if r3 > r1 * r1:
        raise ShapeError(f"procedure 3 needs r3 <= r^2 = {r1 * r1}")
    i = select_max_rank_slice(t, 2) if slice_index is None else \
        int(slice_index)
    slices = [mode_slice(t, 2, j) for j in range(t.dims[2])]
    return _slice_stack_route(t, (r1, r2, r3), ((0,), (2,), (1,)),
                              mode_slice(t, 2, i), slices, cfg,
                              {"procedure": "3", "slice_index": i})


def procedure4(t: DenseTensor, ranks, cfg: SolverConfig, rng=None,
               mix=None, max_cond=1e8, max_attempts=10) -> NtdModel:
    """Randomized procedure 3: all slices are replaced by n3 Gaussian
    combinations, undone afterwards by the inverse mixing matrix."""
    r1, r2, r3 = _order3_ranks(t, ranks, "4")
    if r1 != r2 or r3 > r1 * r1:
        raise ShapeError("procedure 4 needs r3 <= r^2 with r1 == r2")
    n3 = t.dims[2]
    rng = np.random.default_rng(
        derive_seed(cfg.seed, "procedure4") if rng is None else rng)
    if mix is None:
        for _ in range(max_attempts):
            mix = rng.standard_normal((n3, n3))
            if np.linalg.cond(mix) <= max_cond:
                break
        else:
            raise SolverError("could not draw a well-conditioned mix")
    else:
        mix = np.asarray(mix, dtype=float)
    combos = [slice_combination(t, 2, mix[:, i]) for i in range(n3)]
    return _slice_stack_route(t, (r1, r2, r3), ((0,), (2,), (1,)),
                              combos[0], combos, cfg,
                              {"procedure": "4", "mix": mix.tolist(),
                               "mix_cond": float(np.linalg.cond(mix))},
                              unmix=mix)


def procedure_d1(t: DenseTensor, ranks, cfg: SolverConfig,
                 slice_indices=None, scan_budget=200) -> NtdModel:
    """Order-d slice route: a [0,1]-slice gives U0, U1; for every further
    mode one projected [0,i]-slice gives U_i by min-vol NMF.

    ``slice_indices`` optionally maps a column mode to the fixed-index
    dict of its slice; missing entries are auto-searched.
    """
    ranks = tuple(int(r) for r in ranks)
    d = t.order
    if len(ranks) != d or d < 3:
        raise ShapeError("need an order >= 3 tensor and one rank per mode")
    r = ranks[0]
    if ranks[1] != r:
        raise ShapeError("procedure d.1 needs r1 == r2")
    if any(ranks[i] > r for i in range(2, d)):
        raise ShapeError("procedure d.1 needs r_i <= r1 for i >= 3")
    slice_indices = dict(slice_indices or {})
    rng = np.random.default_rng(derive_seed(cfg.seed, "d1-scan"))
    used = {}
    for i in range(1, d):
        if i in slice_indices:
            used[i] = dict(slice_indices[i])
        else:
            others = tuple(m for m in range(d) if m not in (0, i))
            used[i] = _fixed_at(t, others, _scan_slices(
                t, (0,), others, (i,), ranks[i], rng, scan_budget))
    mats = {i: slice_matrix(t, SliceSpec((0,), fixed, (i,)))
            for i, fixed in used.items()}
    pairs = [(mats[i], cfg.with_seed(derive_seed(cfg.seed, "d1-mode", i)))
             for i in range(2, d)]
    diagnostics = {"procedure": "d1",
                   "slice_indices": {str(k): {str(m): int(v)
                                              for m, v in f.items()}
                                     for k, f in used.items()}}
    return _slice_pair_route(t, ranks, mats[1], pairs, cfg, diagnostics)


def procedure_d3(t: DenseTensor, ranks, partition: ModePartition,
                 cfg: SolverConfig, fixed_index=None,
                 scan_budget=200) -> NtdModel:
    """Fully generalized slice route over a row/fixed/column mode
    partition, with Kronecker splits of all three grouped factors."""
    ranks = tuple(int(r) for r in ranks)
    d = t.order
    if len(ranks) != d:
        raise ShapeError("one rank per mode required")
    rows, fixed_modes, cols = partition.validate(d)
    r = prod(ranks[m] for m in rows)
    if r != prod(ranks[m] for m in cols):
        raise ShapeError(
            "row and column rank products must match "
            f"({r} vs {prod(ranks[m] for m in cols)})"
        )
    r_fixed = prod(ranks[m] for m in fixed_modes)
    if r_fixed > r * r:
        raise ShapeError(f"fixed-mode rank product {r_fixed} exceeds r^2")

    sizes = [t.dims[m] for m in fixed_modes]
    if fixed_index is None:
        rng = np.random.default_rng(derive_seed(cfg.seed, "d3-scan"))
        start = _scan_slices(t, rows, fixed_modes, cols, r, rng, scan_budget)
    else:
        fixed_index = tuple(int(i) for i in fixed_index)
        if len(fixed_index) != len(sizes) or not all(
                0 <= i < n for i, n in zip(fixed_index, sizes)):
            raise ShapeError(f"fixed_index {fixed_index} outside the "
                             f"fixed-mode dims {tuple(sizes)}")
        start = int(np.ravel_multi_index(fixed_index, sizes, order="F"))
    slices = [slice_matrix(t, SliceSpec(rows, _fixed_at(t, fixed_modes, j),
                                        cols))
              for j in range(prod(sizes))]
    diagnostics = {"procedure": "d3", "fixed_flat_index": start,
                   "partition": {"rows": list(rows),
                                 "fixed": list(fixed_modes),
                                 "cols": list(cols)}}
    return _slice_stack_route(t, ranks, (rows, fixed_modes, cols),
                              slices[start], slices, cfg, diagnostics)


def separable_orderd(t: DenseTensor, ranks, feas_tol=1e-9) -> NtdModel:
    """Polynomial-time route when every factor is separable: one anchor
    pass per single-mode unfolding."""
    ranks = tuple(int(r) for r in ranks)
    d = t.order
    if len(ranks) != d:
        raise ShapeError("one rank per mode required")
    factors = []
    anchor_sets = []
    for k in range(d):
        x = unfold(t, (k,))
        anchors, _, h = spa_separable_nmf(x, ranks[k], feas_tol)
        factors.append(h / h.sum(axis=0))
        anchor_sets.append(anchors)
    core = _core_via_pinv(t, factors)
    cfg = SolverConfig(feas_tol=feas_tol)
    diagnostics = {"procedure": "sep-d",
                   "anchors": [list(map(int, a)) for a in anchor_sets]}
    return _finalize(t, factors, core, ranks, cfg, diagnostics)
