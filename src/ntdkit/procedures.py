"""Identification pipelines for order-3 and order-d nonnegative Tucker
decompositions.

Each procedure reduces the tensor to matrix subproblems (one unfolding, or
one/two slices, or slice stacks), solves them with the volume solvers, and
reassembles a model that reconstructs the input within the feasibility
tolerance.  Numbering: 0 is the unfolding route (needs one rank equal to
the product of the others), 1 uses one max-rank slice along each of two
modes, 2 is its randomized version on slice combinations, 3 uses a single
max-rank slice plus a full-column-rank core unfolding, 4 randomizes 3.
The d-prefixed variants generalize 0, 1 and 3 to arbitrary order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import PartitionError, RankError, ShapeError, SolverError
from .kron import kron_split_multi
from .model import NtdModel
from .solvers import (SolverConfig, derive_seed, minvol_nmf,
                      minvol_order2_ntd, numerical_rank, spa_separable_nmf)
from .tensor import (DenseTensor, SliceSpec, fold, mode_slice, slice_matrix,
                     slice_combination, unfold)


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
    from .tensor import multilinear_transform
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


def _split_group(u, modes, dims, ranks, tol=1e-8):
    """Kronecker-split a grouped factor into per-mode factors."""
    shapes = [(dims[m], ranks[m]) for m in modes]
    if len(shapes) == 1:
        return [u], np.arange(u.shape[1])
    factors, perm, _ = kron_split_multi(u, shapes, tol)
    return factors, perm


def procedure_d0(t: DenseTensor, ranks, axes, cfg: SolverConfig,
                 _name="d0") -> NtdModel:
    """Unfolding route: min-vol order-2 nTD of one unfolding, then
    Kronecker splits of both grouped factors."""
    ranks = tuple(int(r) for r in ranks)
    d = t.order
    if len(ranks) != d or d < 3:
        raise ShapeError("need an order >= 3 tensor and one rank per mode")
    axes = tuple(sorted(int(a) for a in axes))
    rest = tuple(k for k in range(d) if k not in axes)
    if not axes or not rest:
        raise PartitionError("axes must be a proper non-empty mode subset")
    r = prod(ranks[k] for k in axes)
    if r != prod(ranks[k] for k in rest):
        raise ShapeError(
            f"rank products differ across the unfolding "
            f"({prod(ranks[k] for k in rest)} vs {r})"
        )
    fac = minvol_order2_ntd(unfold(t, axes), r, cfg)
    left, perm_left = _split_group(fac.u1, rest, t.dims, ranks)
    right, perm_right = _split_group(fac.u2, axes, t.dims, ranks)
    core = fold(fac.g[np.ix_(perm_left, perm_right)], axes, ranks)
    factors = [None] * d
    for mode, u in zip(rest, left):
        factors[mode] = u
    for mode, u in zip(axes, right):
        factors[mode] = u
    diagnostics = {"procedure": _name, "axes": list(axes),
                   "absdet": fac.absdet, "seed": cfg.seed}
    return _finalize(t, factors, core, ranks, cfg, diagnostics)


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
    fac = minvol_order2_ntd(mode_slice(t, 2, i3), r1, cfg)
    proj = np.linalg.pinv(fac.u1) @ mode_slice(t, 1, i2)
    _, u3 = minvol_nmf(proj, r3, cfg)
    factors = [fac.u1, fac.u2, u3]
    core = _core_via_pinv(t, factors)
    diagnostics = {"procedure": "1", "i3": i3, "i2": i2,
                   "absdet": fac.absdet, "seed": cfg.seed}
    return _finalize(t, factors, core, ranks, cfg, diagnostics)


def _as_rng(rng, default_seed):
    if rng is None:
        return np.random.default_rng(default_seed)
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    return rng


def procedure2(t: DenseTensor, ranks, cfg: SolverConfig, rng=None,
               alpha=None, beta=None) -> NtdModel:
    """Randomized procedure 1 on Gaussian slice combinations; succeeds with
    probability one whenever the slice spans have maximal rank."""
    r1, r2, r3 = _order3_ranks(t, ranks, "2")
    if r1 != r2 or r3 > r1:
        raise ShapeError("procedure 2 needs r3 <= r1 == r2")
    rng = _as_rng(rng, derive_seed(cfg.seed, "procedure2"))
    alpha = rng.standard_normal(t.dims[2]) if alpha is None \
        else np.asarray(alpha, dtype=float)
    beta = rng.standard_normal(t.dims[1]) if beta is None \
        else np.asarray(beta, dtype=float)
    t_alpha = slice_combination(t, 2, alpha)
    t_beta = slice_combination(t, 1, beta)
    fac = minvol_order2_ntd(t_alpha, r1, cfg)
    proj = np.linalg.pinv(fac.u1) @ t_beta
    _, u3 = minvol_nmf(proj, r3, cfg)
    factors = [fac.u1, fac.u2, u3]
    core = _core_via_pinv(t, factors)
    diagnostics = {"procedure": "2", "alpha": alpha.tolist(),
                   "beta": beta.tolist(), "absdet": fac.absdet,
                   "seed": cfg.seed}
    return _finalize(t, factors, core, ranks, cfg, diagnostics)


def _slice_stack_columns(t, u1, u2, mats):
    p1 = np.linalg.pinv(u1)
    p2t = np.linalg.pinv(u2).T
    cols = [(p1 @ m @ p2t).ravel(order="F") for m in mats]
    return np.stack(cols, axis=1)


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
    fac = minvol_order2_ntd(mode_slice(t, 2, i), r1, cfg)
    stack = _slice_stack_columns(
        t, fac.u1, fac.u2,
        [mode_slice(t, 2, j) for j in range(t.dims[2])])
    g3, u3 = minvol_nmf(stack, r3, cfg)
    core = fold(g3, (2,), ranks)
    factors = [fac.u1, fac.u2, u3]
    diagnostics = {"procedure": "3", "slice_index": i,
                   "absdet": fac.absdet, "seed": cfg.seed}
    return _finalize(t, factors, core, ranks, cfg, diagnostics)


def procedure4(t: DenseTensor, ranks, cfg: SolverConfig, rng=None,
               mix=None, max_cond=1e8, max_attempts=10) -> NtdModel:
    """Randomized procedure 3: all slices are replaced by n3 Gaussian
    combinations, undone afterwards by the inverse mixing matrix."""
    r1, r2, r3 = _order3_ranks(t, ranks, "4")
    if r1 != r2 or r3 > r1 * r1:
        raise ShapeError("procedure 4 needs r3 <= r^2 with r1 == r2")
    n3 = t.dims[2]
    rng = _as_rng(rng, derive_seed(cfg.seed, "procedure4"))
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
    fac = minvol_order2_ntd(combos[0], r1, cfg)
    stack = _slice_stack_columns(t, fac.u1, fac.u2, combos)
    sprime = np.linalg.solve(mix.T, stack.T).T  # stack @ inv(mix)
    g3, u3 = minvol_nmf(sprime, r3, cfg)
    core = fold(g3, (2,), ranks)
    factors = [fac.u1, fac.u2, u3]
    diagnostics = {"procedure": "4", "mix": mix.tolist(),
                   "mix_cond": float(np.linalg.cond(mix)),
                   "absdet": fac.absdet, "seed": cfg.seed}
    return _finalize(t, factors, core, ranks, cfg, diagnostics)


def _pair_slice(t, row_mode, col_mode, fixed):
    return slice_matrix(t, SliceSpec((row_mode,), dict(fixed), (col_mode,)))


def _scan_pair_slice(t, row_mode, col_mode, target, rng, budget=200):
    """Find fixed indices making the [row, col]-slice reach rank ``target``.

    Tries the all-zeros tuple plus up to ``budget`` random tuples; generic
    instances succeed immediately, the scan is a probability-one surrogate
    for the existence assumption.
    """
    other = [m for m in range(t.order) if m not in (row_mode, col_mode)]
    best = None
    candidates = [tuple(0 for _ in other)]
    sizes = [t.dims[m] for m in other]
    for _ in range(budget):
        candidates.append(tuple(int(rng.integers(s)) for s in sizes))
    seen = set()
    for cand in candidates:
        if cand in seen:
            continue
        seen.add(cand)
        fixed = dict(zip(other, cand))
        rank = numerical_rank(_pair_slice(t, row_mode, col_mode, fixed))
        if rank == target:
            return fixed
        if best is None or rank > best[0]:
            best = (rank, fixed)
    raise RankError(
        f"no [{row_mode},{col_mode}]-slice of rank {target} found in "
        f"{len(seen)} candidates (best was {best[0]})"
    )


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
    rng = _as_rng(None, derive_seed(cfg.seed, "d1-scan"))

    def fixed_for(col_mode, target):
        if col_mode in slice_indices:
            return dict(slice_indices[col_mode])
        return _scan_pair_slice(t, 0, col_mode, target, rng, scan_budget)

    fixed12 = fixed_for(1, r)
    fac = minvol_order2_ntd(_pair_slice(t, 0, 1, fixed12), r, cfg)
    factors = [fac.u1, fac.u2] + [None] * (d - 2)
    used = {1: fixed12}
    p1 = np.linalg.pinv(fac.u1)
    for i in range(2, d):
        fixed = fixed_for(i, ranks[i])
        used[i] = fixed
        proj = p1 @ _pair_slice(t, 0, i, fixed)
        _, ui = minvol_nmf(proj, ranks[i], cfg.with_seed(
            derive_seed(cfg.seed, "d1-mode", i)))
        factors[i] = ui
    core = _core_via_pinv(t, factors)
    diagnostics = {"procedure": "d1", "absdet": fac.absdet,
                   "slice_indices": {str(k): {str(m): int(v)
                                              for m, v in f.items()}
                                     for k, f in used.items()},
                   "seed": cfg.seed}
    return _finalize(t, factors, core, ranks, cfg, diagnostics)


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
    nfixed = prod(sizes)

    def fixed_at(flat):
        idx = np.unravel_index(flat, sizes, order="F")
        return dict(zip(fixed_modes, (int(i) for i in idx)))

    def big_slice(fixed):
        return slice_matrix(t, SliceSpec(rows, fixed, cols))

    if fixed_index is None:
        rng = _as_rng(None, derive_seed(cfg.seed, "d3-scan"))
        start = None
        for cand in [0] + list(rng.integers(nfixed, size=scan_budget)):
            if numerical_rank(big_slice(fixed_at(int(cand)))) == r:
                start = int(cand)
                break
        if start is None:
            raise RankError("no full-rank generalized slice found")
    else:
        start = int(np.ravel_multi_index(
            tuple(fixed_index), sizes, order="F"))
    fac = minvol_order2_ntd(big_slice(fixed_at(start)), r, cfg)
    stack = _slice_stack_columns(
        t, fac.u1, fac.u2, [big_slice(fixed_at(j)) for j in range(nfixed)])
    g, u_fixed = minvol_nmf(stack, r_fixed, cfg)

    left, perm_left = _split_group(fac.u1, rows, t.dims, ranks)
    right, perm_right = _split_group(fac.u2, cols, t.dims, ranks)
    mids, perm_mid = _split_group(u_fixed, fixed_modes,
                                  t.dims, ranks)
    r_rows = prod(ranks[m] for m in rows)
    row_gather = (perm_left[:, None] + perm_right[None, :] * r_rows) \
        .ravel(order="F")
    core_mat = g[np.ix_(row_gather, perm_mid)]
    core = _fold_sequence(core_mat, list(rows) + list(cols) +
                          list(fixed_modes), ranks)
    factors = [None] * d
    for mode, u in zip(rows, left):
        factors[mode] = u
    for mode, u in zip(cols, right):
        factors[mode] = u
    for mode, u in zip(fixed_modes, mids):
        factors[mode] = u
    diagnostics = {"procedure": "d3", "fixed_flat_index": start,
                   "partition": {"rows": list(rows),
                                 "fixed": list(fixed_modes),
                                 "cols": list(cols)},
                   "absdet": fac.absdet, "seed": cfg.seed}
    return _finalize(t, factors, core, ranks, cfg, diagnostics)


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
