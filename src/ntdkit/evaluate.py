"""Permutation-invariant scoring and assumption validators.

Essential uniqueness allows per-mode column permutations and positive
diagonal rescalings (absorbed by the core), so models are compared after
normalizing factor columns to unit sum (core compensated exactly) and
Hungarian-matching the columns mode by mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod, sqrt
from typing import NamedTuple

import numpy as np

from .cones import (ENUM_CAP_N, ENUM_CAP_R, check_separable, check_ssc,
                    estimate_min_p, kron_ssc_sufficient)
from .errors import EnumerationCapError, RankError, ShapeError, UsageError
from .kron import kron_all
from .model import NtdModel, _jsonable
from .procedures import _scan_slices
from .solvers import numerical_rank
from .tensor import DenseTensor, mode_slice, multilinear_transform, unfold


def align_columns(u_est, u_ref):
    """Hungarian column matching of ``u_est`` onto ``u_ref``.

    Returns ``(perm, err)`` with ``u_est[:, perm[k]]`` matched to
    ``u_ref[:, k]`` and ``err`` the worst relative column distance.
    """
    from scipy.optimize import linear_sum_assignment

    u_est = np.asarray(u_est, dtype=float)
    u_ref = np.asarray(u_ref, dtype=float)
    if u_est.shape != u_ref.shape:
        raise ShapeError(f"shapes {u_est.shape} != {u_ref.shape}")
    cost = np.linalg.norm(u_ref[:, :, None] - u_est[:, None, :], axis=0)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(u_ref.shape[1], dtype=int)
    perm[rows] = cols
    denom = np.maximum(np.linalg.norm(u_ref, axis=0), 1e-300)
    err = float((cost[rows, cols] / denom[rows]).max(initial=0.0))
    return perm, err


def normalize_model(model: NtdModel) -> NtdModel:
    """Equivalent model with unit factor column sums (core compensated)."""
    scales = []
    factors = []
    for u in model.factors:
        s = u.sum(axis=0)
        s = np.where(np.abs(s) > 1e-300, s, 1.0)
        factors.append(u / s)
        scales.append(np.diag(s))
    core = multilinear_transform(model.core, scales)
    return NtdModel(factors, core, model.ranks, dict(model.diagnostics))


@dataclass
class AlignmentResult:
    perms: list
    factor_errors: list
    core_error: float
    matched: bool

    def to_json(self) -> dict:
        return {
            "perms": [p.tolist() for p in self.perms],
            "factor_errors": self.factor_errors,
            "core_error": self.core_error,
            "matched": self.matched,
        }


def essential_match(model_a: NtdModel, model_b: NtdModel,
                    tol=1e-6) -> AlignmentResult:
    """Do two models agree up to per-mode permutation and scaling?"""
    if model_a.dims != model_b.dims or model_a.ranks != model_b.ranks:
        raise ShapeError("models have different dims or ranks")
    a = normalize_model(model_a)
    b = normalize_model(model_b)
    perms, errs = [], []
    for ua, ub in zip(a.factors, b.factors):
        perm, err = align_columns(ua, ub)
        perms.append(perm)
        errs.append(err)
    permuted = a.core.array[np.ix_(*perms)]
    denom = max(np.linalg.norm(permuted), 1e-300)
    core_error = float(
        np.linalg.norm(b.core.array - permuted) / denom)
    matched = bool(core_error <= tol and max(errs, default=0.0) <= tol)
    return AlignmentResult(perms, [float(e) for e in errs],
                           core_error, matched)


class ModelError(NamedTuple):
    value: float
    absolute: bool  # True when the reference tensor is zero


def model_error(model: NtdModel, t: DenseTensor) -> ModelError:
    if model.dims != t.dims:
        raise ShapeError(f"model dims {model.dims} != tensor dims {t.dims}")
    diff = float(np.linalg.norm(model.reconstruct().data - t.data))
    ref = t.norm()
    if ref == 0.0:
        return ModelError(diff, True)
    return ModelError(diff / ref, False)


def rank_profile(t: DenseTensor) -> dict:
    """Numerical ranks of all single-mode unfoldings, plus per-mode slice
    rank lists for order-3 tensors."""
    out = {"unfolding_ranks": {k: numerical_rank(unfold(t, (k,)))
                               for k in range(t.order)}}
    if t.order == 3:
        out["slice_ranks"] = {
            k: [numerical_rank(mode_slice(t, k, j))
                for j in range(t.dims[k])]
            for k in range(3)
        }
    return out


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


def _exists_full_slice(t, mode, target):
    best = max(numerical_rank(mode_slice(t, mode, j))
               for j in range(t.dims[mode]))
    return ("pass" if best == target else "fail"), f"best slice rank {best}"


def _span_maximal(slices, target, seed, trials=20):
    """Probability-one surrogate for maximal rank of a slice span: any of
    ``trials`` Gaussian combinations attaining it is a certificate.  The
    deterministic span dimension is reported alongside."""
    rng = np.random.default_rng(seed)
    stack = np.stack([s.ravel() for s in slices], axis=1)
    span_dim = numerical_rank(stack)
    best = 0
    for _ in range(trials):
        w = rng.standard_normal(len(slices))
        combo = sum(wi * s for wi, s in zip(w, slices))
        best = max(best, numerical_rank(combo))
        if best == target:
            break
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
        status, detail = _exists_full_slice(t, 2, r)
        rep.add("exists-full-mode3-slice", status, detail)
        status, detail = _exists_full_slice(t, 1, ranks[2])
        rep.add("exists-full-mode2-slice", status, detail)
    elif aid == "A4.3":
        r = ranks[0]
        rep.add("rank-shape", "pass" if ranks[1] == r and ranks[2] <= r
                else "fail", f"ranks {ranks}")
        ssc_each()
        s3 = [mode_slice(core, 2, j) for j in range(ranks[2])]
        rep.add("span-mode3-maximal", *_span_maximal(s3, r, seed + 31))
        s2 = [mode_slice(core, 1, j) for j in range(ranks[1])]
        rep.add("span-mode2-maximal", *_span_maximal(s2, ranks[2], seed + 37))
    elif aid in ("A4.4", "A4.5"):
        r = ranks[0]
        ok = ranks[1] == r and sqrt(ranks[2]) <= r + 1e-12
        rep.add("rank-shape", "pass" if ok else "fail", f"ranks {ranks}")
        ssc_each()
        k = numerical_rank(unfold(core, (2,)))
        rep.add("core-unfolding-rank", "pass" if k == ranks[2] else "fail",
                f"rank {k}")
        if aid == "A4.4":
            status, detail = _exists_full_slice(t, 2, r)
            rep.add("exists-full-mode3-slice", status, detail)
        else:
            s3 = [mode_slice(core, 2, j) for j in range(ranks[2])]
            rep.add("span-mode3-maximal", *_span_maximal(s3, r, seed + 31))
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
        rng = np.random.default_rng(seed + 41)
        for i in range(1, d):
            target = r if i == 1 else ranks[i]
            others = tuple(m for m in range(d) if m not in (0, i))
            try:
                _scan_slices(t, (0,), others, (i,), target, rng, 200)
                rep.add(f"exists-full-[0,{i}]-slice", "pass")
            except RankError as exc:
                rep.add(f"exists-full-[0,{i}]-slice", "fail", str(exc))
    elif aid == "A5.4":
        part = instance.meta.get("partition")
        if part is None:
            rep.add("partition-present", "fail", "no partition in meta")
        else:
            rows, fixed_modes, cols = (tuple(part["rows"]),
                                       tuple(part["fixed"]),
                                       tuple(part["cols"]))
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
            nfixed = prod(t.dims[m] for m in fixed_modes)
            rng = np.random.default_rng(seed + 43)
            try:
                _scan_slices(t, rows, fixed_modes, cols, r, rng,
                             min(200, nfixed) - 1)
                rep.add("exists-full-generalized-slice", "pass",
                        f"best rank {r}")
            except RankError as exc:
                rep.add("exists-full-generalized-slice", "fail", str(exc))
    elif aid == "A-sep":
        for i, u in enumerate(truth.factors):
            sep, _ = check_separable(u)
            rep.add(f"separable-factor-{i}", "pass" if sep else "fail")
        for k in range(d):
            rk = numerical_rank(unfold(t, (k,)))
            rep.add(f"unfolding-rank-{k}",
                    "pass" if rk == ranks[k] else "fail", f"rank {rk}")
    return rep.finish()
