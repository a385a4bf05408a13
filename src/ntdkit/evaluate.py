"""Permutation-invariant scoring and assumption validators.

Essential uniqueness allows per-mode column permutations and positive
diagonal rescalings (absorbed by the core), so models are compared after
normalizing factor columns to unit sum (core compensated exactly) and
matching the columns mode by mode with an exact min-cost assignment by
shortest augmenting paths, without scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import NamedTuple

import numpy as np

from .cones import (ENUM_CAP_N, ENUM_CAP_R, check_separable, check_ssc,
                    estimate_min_p, kron_ssc_sufficient)
from .errors import (EnumerationCapError, InputError, RankError, ShapeError,
                     UsageError)
from .kron import kron_all
from .model import NtdModel, _jsonable
from .solvers import _scan_slices, numerical_rank
from .tensor import (DenseTensor, _integers, _mode_groups, _partition,
                     _slice_stack, _tolerances, unfold)


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
    tol, = _tolerances([tol], "essential_match tol")
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


def _core_status(c, x, rng=None):
    """``(status, detail)`` of the ``_Core`` condition ``c`` on the tensor
    ``x``; ``rng`` draws the combinations of a "span" condition."""
    if c.kind == "unfold":
        k = numerical_rank(unfold(x, c.key))
        return ("pass" if k == c.target else "fail"), f"rank {k}"
    if c.kind == "slice":
        return _full_slice_status(x, c.key, c.target)
    if c.kind == "deficient":  # no slice exceeds full rank
        full = min(n for k, n in enumerate(x.dims) if k != c.key)
        status, detail = _full_slice_status(
            x, _mode_groups(c.key, x.order), full)
        return ("fail" if status == "pass" else "pass"), detail
    # a probability-one surrogate for a maximal-rank span
    best = _combination_rank(x, c.key, c.target, rng)
    return ("pass" if best == c.target else "fail"), \
        f"best combo rank {best}, span dimension " \
        f"{numerical_rank(unfold(x, (c.key,)))}"


class _Shape(NamedTuple):
    """A shape rule, checked as ``name``; when it fails, ``gen_instance``
    raises ``error`` as a ``ShapeError``, unless ``error`` is None."""

    name: str
    ok: bool
    detail: str = ""
    error: str = None


class _Group(NamedTuple):
    """Factors of ``modes``, checked as ``name``: "ssc" (an SSC lead and
    separable rest), "anchor" (SSC too), "sep" or "generic" (unchecked)."""

    kind: str
    modes: tuple
    name: str = None


class _Core(NamedTuple):
    """A core condition, tested by ``_core_status`` on the drawn core and
    on the true core, or the tensor if ``on_tensor``, as ``name``; drawn
    to unless ``report_only``: "unfold" (the unfolding along axes ``key``
    has rank ``target``), "slice" (so has a slice over the (rows, fixed,
    cols) ``key``), "span" (so has a Gaussian combination of the slices
    along mode ``key``, validated from the instance seed plus ``seed``) or
    "deficient" (no slice along mode ``key`` has full rank)."""

    kind: str
    key: object
    target: int = None
    name: str = None
    on_tensor: bool = False
    seed: int = 0
    report_only: bool = False


def _ssc_each(modes, kind="ssc"):
    return [_Group(kind, (k,), f"ssc-factor-{k}") for k in modes]


def _generic_row(d, ranks, meta):  # A4.1, A5.1
    return [_Group("generic", (k,)) for k in range(d)]


def _unfolding_row(d, ranks, meta):  # A5.2
    axes = tuple(meta.get("axes", (d - 1,)))
    rest = tuple(k for k in range(d) if k not in axes)
    ra, rb = prod(ranks[k] for k in axes), prod(ranks[k] for k in rest)
    return [_Shape("rank-product", ra == rb, f"{rb} vs {ra}",
                   "A5.2 needs equal rank products"),
            _Core("unfold", axes, ra, "core-unfolding-rank"),
            _Group("ssc", rest, "ssc-kron-group-rest"),
            _Group("ssc", axes, "ssc-kron-group-axes")]


def _slices_row(d, ranks, meta):  # A5.3
    if d < 3:
        return [_Shape("rank-shape", False, f"order {d}, ranks {ranks}",
                       f"A5.3 needs order d >= 3, got order {d}")]
    r = ranks[0]
    ok = ranks[1] == r and all(q <= r for q in ranks[2:])
    return [_Shape("rank-shape", ok, f"ranks {ranks}",
                   "A5.3 needs r_i <= r1 == r2"), *_ssc_each(range(d)),
            *(_Core("slice", ((0,), tuple(m for m in range(1, d) if m != i),
                              (i,)), r if i == 1 else ranks[i],
                    f"exists-full-[0,{i}]-slice", on_tensor=True)
              for i in range(1, d))]


def _partition_row(d, ranks, meta):  # A5.4; the slice is not drawn to
    part = meta.get("partition")
    if part is None:
        return [_Shape("partition-present", False, "no partition in meta",
                       "A5.4 needs an explicit partition in meta")]
    groups = _partition(d, part["rows"], part["fixed"], part["cols"])
    r, rj, rc = (prod(ranks[m] for m in g) for g in groups)
    return [_Shape("rank-product", r == rc, error=f"A5.4 needs equal row "
                   f"and column rank products, got {r} vs {rc}"),
            _Shape("fixed-rank-bound", rj <= r * r, f"{rj} vs r^2={r * r}",
                   f"A5.4 needs the fixed modes' rank product at most "
                   f"r^2={r * r}, got {rj}"),
            _Core("unfold", groups[1], rj, "core-unfolding-rank"),
            *(_Group("ssc", g, f"ssc-kron-group-{name}")
              for name, g in zip(("rows", "fixed", "cols"), groups)),
            _Core("slice", groups, r, "exists-full-generalized-slice",
                  on_tensor=True, report_only=True)]


def _separable_row(d, ranks, meta):  # A-sep
    return [*(_Group("sep", (k,), f"separable-factor-{k}") for k in range(d)),
            *(_Core("unfold", (k,), ranks[k], f"unfolding-rank-{k}",
                    on_tensor=True) for k in range(d))]


def _a43_row(d, ranks, meta):
    r, r2, r3 = ranks
    return [_Shape("rank-shape", r2 == r and r3 <= r, f"ranks {ranks}"),
            *_ssc_each((0, 1)), *_ssc_each((2,), "anchor"),
            _Core("span", 2, r, "span-mode3-maximal", seed=31),
            _Core("span", 1, r3, "span-mode2-maximal", seed=37),
            _Core("deficient", 2)]


def _a44_row(d, ranks, meta):
    r, r2, r3 = ranks
    return [_Shape("rank-shape", r2 == r and r3 <= r * r, f"ranks {ranks}"),
            *_ssc_each((0, 1, 2)),
            _Core("unfold", (2,), r3, "core-unfolding-rank"),
            _Core("slice", ((0,), (2,), (1,)), r, "exists-full-mode3-slice",
                  on_tensor=True)]


def _a45_row(d, ranks, meta):
    r, r2, r3 = ranks
    return [_Shape("rank-shape", r2 == r and r3 <= r * r, f"ranks {ranks}"),
            *_ssc_each((0, 1)), *_ssc_each((2,), "anchor"),
            _Core("unfold", (2,), r3, "core-unfolding-rank"),
            _Core("span", 2, r, "span-mode3-maximal", seed=31),
            _Core("deficient", 2)]


def _order3(row, shape, error, names=None):
    """``row`` as an order-3 tag at its defaults: its leading ``shape``
    check also fails at any other order and raises ``error``; ``names``
    relabel its other checks, as ``procedures._order3`` relabels routes."""
    def conditions(d, ranks, meta):
        if d != 3:
            return [_Shape(shape, False, f"order {d}, ranks {ranks}", error)]
        first, *rest = row(d, ranks, {})
        return [first._replace(error=error), *(c._replace(
            name=(names or {}).get(c.name, c.name)) for c in rest)]
    return conditions


# Each tag's conditions at order d, ranks and meta, in draw and check
# order; A4.x-unfold and A4.2 are the order-3 rows of A5.2 and A5.3.
_ROWS = {
    "A4.1": _generic_row,
    "A4.x-unfold": _order3(_unfolding_row, "rank-product",
                           "A4.x-unfold needs order 3 and r3 == r1*r2",
                           {"ssc-kron-group-rest": "ssc-kron-group-0x1",
                            "ssc-kron-group-axes": "ssc-factor-2"}),
    "A4.2": _order3(_slices_row, "rank-shape",
                    "A4.2 needs order 3 with r3 <= r1 == r2",
                    {"exists-full-[0,1]-slice": "exists-full-mode3-slice",
                     "exists-full-[0,2]-slice": "exists-full-mode2-slice"}),
    "A4.3": _order3(_a43_row, "rank-shape",
                    "A4.3 needs order 3 with r3 <= r1 == r2"),
    "A4.4": _order3(_a44_row, "rank-shape",
                    "A4.4 needs order 3 with r3 <= r^2, r1 == r2"),
    "A4.5": _order3(_a45_row, "rank-shape",
                    "A4.5 needs order 3 with r3 <= r^2, r1 == r2"),
    "A5.1": _generic_row,
    "A5.2": _unfolding_row,
    "A5.3": _slices_row,
    "A5.4": _partition_row,
    "A-sep": _separable_row,
}


def _conditions(assumption_id, d, ranks, meta):
    """The row of ``assumption_id``; ShapeError for an unknown tag."""
    row = _ROWS.get(assumption_id) if isinstance(assumption_id, str) else None
    if row is None:
        raise ShapeError(f"unknown assumption id {assumption_id!r}")
    return row(d, ranks, meta)


def _checked_seed(seed) -> int:
    """``seed`` as an int; ``UsageError`` unless a nonnegative integer."""
    seed = _integers([seed], "seed must be an integer")[0]
    if seed < 0:
        raise UsageError(f"seed must be nonnegative, got {seed}")
    return seed


def validate_assumptions(instance, assumption_id=None) -> AssumptionReport:
    """Run the base factor checks and the ``_ROWS`` row of one assumption
    set on an instance.

    The instance must carry the ground truth (``truth`` model) beside the
    tensor; SSC checks run exactly within the enumeration cap and fall
    back to certified sufficient conditions beyond it.  The span checks
    draw from the instance ``seed``, which must then be a nonnegative
    integer (``UsageError`` otherwise).
    """
    aid = assumption_id or instance.assumption_id
    t, truth = instance.tensor, instance.truth
    conditions = _conditions(aid, t.order, truth.ranks, instance.meta)
    rep = AssumptionReport(aid)
    _base_factor_checks(rep, truth)
    for c in (c for c in conditions if c.name is not None):
        if isinstance(c, _Shape):
            rep.add(c.name, "pass" if c.ok else "fail", c.detail)
        elif isinstance(c, _Group) and c.kind == "sep":
            ok = all(check_separable(truth.factors[m])[0] for m in c.modes)
            rep.add(c.name, "pass" if ok else "fail")
        elif isinstance(c, _Group):
            rep.add(c.name, *_group_ssc_status(
                [truth.factors[m] for m in c.modes],
                [truth.ranks[m] for m in c.modes]))
        else:
            rep.add(c.name, *_core_status(
                c, t if c.on_tensor else truth.core,
                np.random.default_rng(
                    _checked_seed(getattr(instance, "seed", 0)) + c.seed)
                if c.kind == "span" else None))
    return rep.finish()
