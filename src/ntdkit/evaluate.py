"""Permutation-invariant scoring and assumption validators.

Essential uniqueness allows per-mode column permutations and positive
diagonal rescalings (absorbed by the core), so models are compared after
normalizing factor columns to unit sum (core compensated exactly) and
matching the columns mode by mode with an exact min-cost assignment by
shortest augmenting paths, without scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod, sqrt
from typing import NamedTuple

import numpy as np

from .cones import (ENUM_CAP_N, ENUM_CAP_R, check_separable, check_ssc,
                    estimate_min_p, kron_ssc_sufficient)
from .errors import (EnumerationCapError, InputError, RankError,
                     ShapeError, UsageError)
from .kron import kron_all
from .model import NtdModel, _jsonable
from .solvers import _scan_slices, numerical_rank
from .tensor import DenseTensor, _mode_groups, _partition, _slice_stack, unfold


def _assignment(cost):
    """Exact min-cost assignment of the square ``cost``: ``cols`` with row
    ``i`` matched to column ``cols[i]`` at the least total cost.

    Each row first takes its row-minimum column while that column is free.
    With the row minima as row potentials this matching is tight and dual
    feasible, so it is optimal when the minima fall in distinct columns.
    Every row still free is then matched along a Dijkstra shortest
    augmenting path on the reduced costs (Kuhn 1955; Jonker & Volgenant
    1987), O(r^3) at worst, in scalar loops, which beat array calls at
    these sizes.  Ties go to the lowest column index.
    """
    if not np.isfinite(cost).all():
        raise ShapeError("assignment cost must be finite")
    if not cost.size:
        return np.arange(0)
    cols = cost.argmin(axis=1)
    best = cols.tolist()
    if len(set(best)) == len(best):
        return cols
    c, n = cost.tolist(), len(best)
    u = [row[j] for row, j in zip(c, best)]  # row potentials
    v = [0.0] * n  # column potentials; every reduced cost stays >= 0
    col_of, row_of = [-1] * n, [-1] * n
    for i, j in enumerate(best):
        if row_of[j] < 0:
            row_of[j], col_of[i] = i, j
    for free in [i for i in range(n) if col_of[i] < 0]:
        dist = [a - u[free] - b for a, b in zip(c[free], v)]
        prev = [free] * n  # the row each column is reached from
        todo = list(range(n))  # columns not yet reached, in index order
        while True:
            j = min(todo, key=dist.__getitem__)
            todo.remove(j)
            i = row_of[j]
            if i < 0:
                break
            for k in todo:
                step = dist[j] + c[i][k] - u[i] - v[k]
                if step < dist[k]:
                    dist[k], prev[k] = step, i
        # Shift the potentials so that the path's edges become tight.
        u[free] += dist[j]
        for k in set(range(n)).difference(todo):
            if row_of[k] >= 0:
                u[row_of[k]] += dist[j] - dist[k]
            v[k] -= dist[j] - dist[k]
        while True:  # augment: flip the path back to ``free``
            i = prev[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == free:
                break
    return np.array(col_of)


def align_columns(u_est, u_ref):
    """Min-cost column matching of ``u_est`` onto ``u_ref`` by
    :func:`_assignment` on the pairwise column distances.

    Returns ``(perm, err)`` with ``u_est[:, perm[k]]`` matched to
    ``u_ref[:, k]`` and ``err`` the worst relative column distance.
    """
    u_est = np.asarray(u_est, dtype=float)
    u_ref = np.asarray(u_ref, dtype=float)
    if u_est.shape != u_ref.shape:
        raise ShapeError(f"shapes {u_est.shape} != {u_ref.shape}")
    cost = np.linalg.norm(u_ref[:, :, None] - u_est[:, None, :], axis=0)
    perm = _assignment(cost)
    denom = np.maximum(np.linalg.norm(u_ref, axis=0), 1e-300)
    err = float((cost[np.arange(len(perm)), perm] / denom).max(initial=0.0))
    return perm, err


def _unit_sums(model: NtdModel):
    """Unit-column-sum factors (zero sums kept) and the compensated core."""
    factors, core = [], model.core.array
    for k, u in enumerate(model.factors):
        s = u.sum(axis=0)
        s = np.where(np.abs(s) > 1e-300, s, 1.0)
        factors.append(u / s)
        core = core * s.reshape((-1,) + (1,) * (core.ndim - 1 - k))
    return factors, core


@dataclass
class AlignmentResult:
    perms: list
    factor_errors: list
    core_error: float
    matched: bool

    def to_json(self) -> dict:
        return _jsonable(vars(self))


def essential_match(model_a: NtdModel, model_b: NtdModel,
                    tol=1e-6) -> AlignmentResult:
    """Do two models agree up to per-mode permutation and scaling?
    ``InputError`` when their finite entries overflow float64 on the way
    to a score."""
    if not 0 < tol < np.inf:  # also refuses nan
        raise ShapeError("essential_match tol must be positive and finite")
    if model_a.dims != model_b.dims or model_a.ranks != model_b.ranks:
        raise ShapeError("models have different dims or ranks")
    with np.errstate(over="ignore", invalid="ignore"):
        factors_a, core_a = _unit_sums(model_a)
        factors_b, core_b = _unit_sums(model_b)
        perms, errs = map(list, zip(*map(align_columns, factors_a,
                                         factors_b)))
        permuted = core_a[np.ix_(*perms)]
        denom = max(np.linalg.norm(permuted), 1e-300)
        core_error = float(np.linalg.norm(core_b - permuted) / denom)
    if not np.isfinite([core_error, *errs]).all():
        raise InputError("model entries overflow float64 when the models "
                         "are normalized and compared")
    matched = bool(core_error <= tol and max(errs, default=0.0) <= tol)
    return AlignmentResult(perms, errs, core_error, matched)


class ModelError(NamedTuple):
    value: float
    absolute: bool  # True when the reference tensor is zero


def model_error(model: NtdModel, t: DenseTensor) -> ModelError:
    if model.dims != t.dims:
        raise ShapeError(f"model dims {model.dims} != tensor dims {t.dims}")
    ref = t.norm()  # a zero tensor gives the absolute error
    return ModelError(model._residual_norm(t) / (ref or 1.0), ref == 0.0)


@dataclass
class AssumptionReport:
    assumption_id: str
    checks: list = field(default_factory=list)  # (name, status, detail)
    overall: str = "pass"

    def add(self, name, status, detail=""):
        self.checks.append((name, status, detail))

    def finish(self):
        statuses = [s for _, s, _ in self.checks]
        if "fail" in statuses:
            self.overall = "fail"
        elif "undetermined" in statuses:
            self.overall = "undetermined"
        else:
            self.overall = "pass"
        return self

    def to_json(self) -> dict:
        return _jsonable({
            "assumption_id": self.assumption_id,
            "checks": [{"name": n, "status": s, "detail": d}
                       for n, s, d in self.checks],
            "overall": self.overall,
        })


_KNOWN_ASSUMPTIONS = ("A4.1", "A4.x-unfold", "A4.2", "A4.3", "A4.4", "A4.5",
                      "A5.1", "A5.2", "A5.3", "A5.4", "A-sep")


def _base_factor_checks(rep, truth, tol=1e-9):
    ok_sum = all(np.abs(u.sum(axis=0) - 1.0).max() <= 1e-7
                 for u in truth.factors)
    rep.add("factor-column-sums", "pass" if ok_sum else "fail")
    ok_nn = all(u.min() >= -tol for u in truth.factors)
    rep.add("factor-nonnegativity", "pass" if ok_nn else "fail")
    ok_cols = all((np.abs(u).max(axis=0) > tol).all() for u in truth.factors)
    rep.add("no-zero-columns", "pass" if ok_cols else "fail")


def _factor_ssc_status(u):
    report = check_ssc(u)
    if report.ssc is None:
        return "undetermined", "enumeration over cap, no refutation found"
    return ("pass" if report.ssc else "fail"), \
        f"ssc1={report.ssc1} ssc2={report.ssc2}"


def _group_ssc_status(factors, ranks):
    """SSC status of a Kronecker group of factors.

    Exact enumeration when the product fits the cap; otherwise the
    separable-closure rules (a product of separables is separable, and one
    SSC factor times separables keeps the SSC); otherwise the two-factor
    sufficient condition on the members' expansion levels, when both fit
    the cap; else undetermined.
    """
    if len(factors) == 1:
        return _factor_ssc_status(factors[0])
    n = prod(u.shape[0] for u in factors)
    r = prod(ranks)
    if r <= ENUM_CAP_R and n <= ENUM_CAP_N:
        return _factor_ssc_status(kron_all(factors))
    sep_flags = [check_separable(u)[0] for u in factors]
    nonsep = [i for i, s in enumerate(sep_flags) if not s]
    if not nonsep:
        return "pass", "all group members separable"
    if len(nonsep) == 1:
        status, detail = _factor_ssc_status(factors[nonsep[0]])
        if status == "pass":
            return "pass", "one SSC member, the rest separable"
        return status, detail
    if len(factors) == 2:
        try:
            p1 = estimate_min_p(factors[0])
            p2 = estimate_min_p(factors[1])
        except EnumerationCapError:
            return "undetermined", "expansion level over the enumeration cap"
        if np.isfinite(p1) and np.isfinite(p2) and \
                kron_ssc_sufficient(ranks[0], p1, ranks[1], p2):
            return "pass", f"sufficient condition holds (p=({p1:.4f}," \
                           f"{p2:.4f}))"
        return "undetermined", "sufficient condition not conclusive"
    return "undetermined", "group too large for certification"


def _full_slice_status(t, groups, target):
    """``(status, detail)``: does a slice of ``t`` over the ``(rows, fixed,
    cols)`` ``groups`` reach rank ``target``?  The first full-rank slice
    of ``_scan_slices`` decides, as no slice of a tensor of these ranks
    exceeds it; a pass names its flat index, a fail the ``RankError``."""
    rows, _, cols = groups
    try:
        flat = _scan_slices(_slice_stack(t, *groups), rows, cols, target)
    except RankError as exc:
        return "fail", str(exc)
    return "pass", f"slice {flat} has rank {target}"


def _combination_rank(t, mode, target, rng, trials=20):
    """Rank of the first of ``trials`` Gaussian combinations of the slices
    along ``mode`` to reach ``target``, else the best rank seen."""
    stack = _slice_stack(t, *_mode_groups(mode, t.order))
    best = 0
    for _ in range(trials):
        rank = numerical_rank(stack @ rng.standard_normal(stack.shape[2]))
        if rank == target:
            return rank
        best = max(best, rank)
    return best


def _span_maximal(core, mode, target, seed):
    """Probability-one surrogate for maximal rank of the slice span along
    ``mode``; the span dimension is reported alongside."""
    span_dim = numerical_rank(unfold(core, (mode,)))
    best = _combination_rank(core, mode, target, np.random.default_rng(seed))
    status = "pass" if best == target else "fail"
    return status, f"best combo rank {best}, span dimension {span_dim}"


def validate_assumptions(instance, assumption_id=None) -> AssumptionReport:
    """Run the itemized checks of one assumption set on an instance.

    The instance must carry the ground truth (``truth`` model) beside the
    tensor; SSC checks run exactly within the enumeration cap and fall
    back to certified sufficient conditions beyond it.
    """
    aid = assumption_id or instance.assumption_id
    if aid not in _KNOWN_ASSUMPTIONS:
        raise UsageError(f"unknown assumption id {aid!r}")
    t = instance.tensor
    truth = instance.truth
    ranks = truth.ranks
    d = t.order
    rep = AssumptionReport(aid)
    _base_factor_checks(rep, truth)
    core = truth.core
    seed = getattr(instance, "seed", 0)

    def ssc_each(modes=None):
        for i in modes if modes is not None else range(d):
            status, detail = _factor_ssc_status(truth.factors[i])
            rep.add(f"ssc-factor-{i}", status, detail)

    if aid in ("A4.1", "A5.1"):
        pass
    elif aid == "A4.x-unfold":
        r1, r2, r3 = ranks
        rep.add("rank-product", "pass" if r3 == r1 * r2 else "fail",
                f"r3={r3}, r1*r2={r1 * r2}")
        k = numerical_rank(unfold(core, (2,)))
        rep.add("core-unfolding-rank", "pass" if k == r3 else "fail",
                f"rank {k}")
        status, detail = _group_ssc_status(truth.factors[:2], ranks[:2])
        rep.add("ssc-kron-group-0x1", status, detail)
        ssc_each(modes=[2])
    elif aid == "A4.2":
        r = ranks[0]
        rep.add("rank-shape", "pass" if ranks[1] == r and ranks[2] <= r
                else "fail", f"ranks {ranks}")
        ssc_each()
        for mode, target in ((2, r), (1, ranks[2])):
            rep.add(f"exists-full-mode{mode + 1}-slice",
                    *_full_slice_status(t, _mode_groups(mode, d), target))
    elif aid == "A4.3":
        r = ranks[0]
        rep.add("rank-shape", "pass" if ranks[1] == r and ranks[2] <= r
                else "fail", f"ranks {ranks}")
        ssc_each()
        rep.add("span-mode3-maximal", *_span_maximal(core, 2, r, seed + 31))
        rep.add("span-mode2-maximal",
                *_span_maximal(core, 1, ranks[2], seed + 37))
    elif aid in ("A4.4", "A4.5"):
        r = ranks[0]
        ok = ranks[1] == r and sqrt(ranks[2]) <= r + 1e-12
        rep.add("rank-shape", "pass" if ok else "fail", f"ranks {ranks}")
        ssc_each()
        k = numerical_rank(unfold(core, (2,)))
        rep.add("core-unfolding-rank", "pass" if k == ranks[2] else "fail",
                f"rank {k}")
        if aid == "A4.4":
            rep.add("exists-full-mode3-slice",
                    *_full_slice_status(t, _mode_groups(2, d), r))
        else:
            rep.add("span-mode3-maximal",
                    *_span_maximal(core, 2, r, seed + 31))
    elif aid == "A5.2":
        axes = tuple(instance.meta.get("axes", (d - 1,)))
        rest = tuple(k for k in range(d) if k not in axes)
        ra = prod(ranks[k] for k in axes)
        rb = prod(ranks[k] for k in rest)
        rep.add("rank-product", "pass" if ra == rb else "fail",
                f"{rb} vs {ra}")
        k = numerical_rank(unfold(core, axes))
        rep.add("core-unfolding-rank", "pass" if k == ra else "fail",
                f"rank {k}")
        for name, modes in (("rest", rest), ("axes", axes)):
            status, detail = _group_ssc_status(
                [truth.factors[m] for m in modes],
                [ranks[m] for m in modes])
            rep.add(f"ssc-kron-group-{name}", status, detail)
    elif aid == "A5.3":
        r = ranks[0]
        ok = ranks[1] == r and all(ranks[i] <= r for i in range(2, d))
        rep.add("rank-shape", "pass" if ok else "fail", f"ranks {ranks}")
        ssc_each()
        for i in range(1, d):
            target = r if i == 1 else ranks[i]
            others = tuple(m for m in range(d) if m not in (0, i))
            rep.add(f"exists-full-[0,{i}]-slice", *_full_slice_status(
                t, ((0,), others, (i,)), target))
    elif aid == "A5.4":
        part = instance.meta.get("partition")
        if part is None:
            rep.add("partition-present", "fail", "no partition in meta")
        else:
            rows, fixed_modes, cols = _partition(d, part["rows"],
                                                 part["fixed"], part["cols"])
            r = prod(ranks[m] for m in rows)
            rep.add("rank-product",
                    "pass" if r == prod(ranks[m] for m in cols) else "fail")
            rj = prod(ranks[m] for m in fixed_modes)
            rep.add("fixed-rank-bound", "pass" if rj <= r * r else "fail",
                    f"{rj} vs r^2={r * r}")
            k = numerical_rank(unfold(core, fixed_modes))
            rep.add("core-unfolding-rank", "pass" if k == rj else "fail",
                    f"rank {k}")
            for name, modes in (("rows", rows), ("fixed", fixed_modes),
                                ("cols", cols)):
                status, detail = _group_ssc_status(
                    [truth.factors[m] for m in modes],
                    [ranks[m] for m in modes])
                rep.add(f"ssc-kron-group-{name}", status, detail)
            rep.add("exists-full-generalized-slice", *_full_slice_status(
                t, (rows, fixed_modes, cols), r))
    elif aid == "A-sep":
        for i, u in enumerate(truth.factors):
            sep, _ = check_separable(u)
            rep.add(f"separable-factor-{i}", "pass" if sep else "fail")
        for k in range(d):
            rk = numerical_rank(unfold(t, (k,)))
            rep.add(f"unfolding-rank-{k}",
                    "pass" if rk == ranks[k] else "fail", f"rank {rk}")
    return rep.finish()
