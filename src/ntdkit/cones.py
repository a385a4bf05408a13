"""Separability, SSC and p-SSC verifiers with certificates.

The dual cone of the rows of a nonnegative matrix ``h`` is
``{y : h @ y >= 0}``; its cross-section against ``sum(y) == 1`` is a
polytope whose vertices decide SSC1 (all norms at most one), SSC2 (norm-one
vertices sit at unit vectors) and p-SSC (all vertices inside the dual of
the expanded cone ``C_p = {x >= 0 : sum(x) >= p*||x||}``, by each vertex's
exact p-level, ``_p_level``, with no search over p).  One oracle,
``_vertices``, gives the vertices and, for an unbounded cross-section, a
recession ray: in closed form when every column has an exact anchor row,
else from one double description (``lp.cross_section_vertices``).  Exact SSC
checking is NP-hard in general, so the reports are capped (``ENUM_CAP_R``,
``ENUM_CAP_N`` and the intermediate-ray budget); past the ray budget SSC1
can only be refuted, by LP (``ssc1_refute``).  Each public check passes its
arguments through ``tensor``'s gates and calls one private body, as
``evaluate`` and ``synth`` do, and each reads its matrix through
``_validate_nonneg`` once.  ``check_ssc`` reports are reused only inside
``synth.gen_instance`` (``_ssc_memo``).
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (EnumerationCapError, InputError, SolverError,
                     UsageError, WitnessError)
from .lp import (_VERTEX_ENUM_CAP, _nonzero, cross_section_vertices,
                 linprog_dense)
from .model import _jsonable
from .tensor import _integers, _reals, _tolerances

ENUM_CAP_R = 8
ENUM_CAP_N = 60
_H_RULE = "h must be a finite real matrix"

# SSC reports keyed by (shape, float64 bytes, tol, feas_tol); None when no
# memo is open.
_SSC_REPORTS: ContextVar[Optional[dict]] = ContextVar("_SSC_REPORTS",
                                                      default=None)


@contextmanager
def _ssc_memo():
    """Reuse ``check_ssc`` reports inside the block, and drop them after."""
    token = _SSC_REPORTS.set({})
    try:
        yield
    finally:
        _SSC_REPORTS.reset(token)


def _validate_nonneg(h, check=None, name="h"):
    """``h``, a float matrix from ``_reals``, clipped at 0: ``UsageError`` for
    an entry below -1e-12, ``InputError`` for a column sum that overflows
    and, when ``check`` names the caller, ``UsageError`` for fewer than two
    columns, as every SSC notion needs r >= 2; each message calls the
    matrix ``name``.  Past an entry of 1e100 each row is scaled exactly
    into [0.5, 1), which leaves ``cone(h.T)`` and so every verdict and dual
    vertex as they are."""
    if h.min(initial=0.0) < -1e-12:
        raise UsageError(f"{name} has negative entries")
    if float(h.max(initial=0.0)) * len(h) >= 1e300:  # a sum may overflow
        with np.errstate(over="ignore"):
            if not np.isfinite(h.sum(axis=0)).all():
                raise InputError(f"{name} has non-finite column sums")
    if check is not None and h.shape[1] < 2:
        raise UsageError(f"{check} needs r >= 2")
    h = np.maximum(h, 0.0)
    if h.max(initial=0.0) > 1e100:  # squared entries would overflow
        h = np.ldexp(h, -np.frexp(h.max(axis=1, keepdims=True))[1])
    return h


def check_separable(h, tol=1e-9):
    """Anchor-row test: one row proportional to each unit vector.

    Returns ``(flag, anchors)`` with one anchor row index per column when
    separable, else ``(False, None)``.
    """
    tol, = _tolerances([tol], "check_separable tol")
    return _separable(_validate_nonneg(_reals(h, _H_RULE, 2)), tol)


def _separable(h, tol=1e-9):
    """``check_separable`` on a ``_validate_nonneg`` matrix."""
    qualifies = (h > 0) & (h.sum(axis=1, keepdims=True) - h
                           <= tol * h.max(axis=1, keepdims=True, initial=0.0))
    if not qualifies.any(axis=0).all():
        return False, None
    return True, qualifies.argmax(axis=0).tolist()


def enumerate_dual_vertices(h, tol=1e-9):
    """Vertices of ``{y : h y >= 0, sum(y) = 1}`` plus an unboundedness flag.

    When every column has an exact anchor row (``_anchored``) the answer is
    the unit simplex, bounded, its vertices e_r, ..., e_1.  Otherwise
    ``lp.cross_section_vertices`` finds both by the double description
    method, each vertex once, in lexicographic order, within its budget on
    intermediate rays.  Past ``ENUM_CAP_R`` or ``ENUM_CAP_N`` (which the
    benchmark's guard and ``evaluate``'s group certification also read), or
    past the ray budget, ``EnumerationCapError`` is raised.
    """
    tol, = _tolerances([tol], "enumerate_dual_vertices tol")
    h = _validate_nonneg(_reals(h, _H_RULE, 2), "dual-vertex enumeration")
    return _dual_vertices(h, tol)


def _dual_vertices(h, tol=1e-9):
    """``enumerate_dual_vertices`` on a ``_validate_nonneg`` matrix."""
    n, r = h.shape
    if r > ENUM_CAP_R or n > ENUM_CAP_N:
        raise EnumerationCapError(f"enumeration cap exceeded (r={r} > "
                                  f"{ENUM_CAP_R} or n={n} > {ENUM_CAP_N})")
    vertices, ray = _vertices(h, tol)
    return vertices, ray is not None


def _vertices(h, tol, separable=True):
    """``lp.cross_section_vertices`` for a validated ``h`` and ``a = 1``, in
    closed form when ``h`` is ``_anchored``; no cap but the ray budget.
    An anchored ``h`` is separable, so a caller that found ``h`` not
    separable says so and skips the anchor test."""
    r = h.shape[1]
    if separable and _anchored(h):
        # the unit simplex, its vertices in the double description's order
        return np.eye(r)[::-1].copy(), None
    return cross_section_vertices(h, np.ones(r), _VERTEX_ENUM_CAP, tol)


def _anchored(h):
    """Does every column ``j`` of ``h`` have an exact anchor: a row whose
    only positive entry is in column ``j``, and that survives the double
    description's row filter (``lp._nonzero`` of the row norms of
    ``[h; 1']``, as in ``lp.cross_section_vertices``)?

    Then ``h y >= 0`` holds iff ``y >= 0``, so the dual cross-section is the
    unit simplex.
    """
    pos = h > 0
    single = pos.sum(axis=1) == 1
    if not single.any() or not pos[single].any(axis=0).all():
        return False
    m = np.concatenate([h, np.ones((1, h.shape[1]))])
    norms = np.sqrt(np.add.reduce(m * m, axis=1))
    return bool(pos[single & _nonzero(norms)[:-1]].any(axis=0).all())


# A vertex entry, or a p-level, within this of its bound is on it.
_P_TOL = 1e-9

# Entries of the block in which ``_p_level`` tests its candidate points.
_P_BLOCK = 1 << 16


@functools.lru_cache(maxsize=ENUM_CAP_R)
def _supports(r):
    """Every nonempty support of r coordinates, one 0/1 float row each, and
    the row sizes; read-only arrays shared by every caller."""
    table = ((np.arange(1, 1 << r)[:, None] >> np.arange(r)) & 1) * 1.0
    sizes = table.sum(axis=1)
    table.flags.writeable = sizes.flags.writeable = False
    return table, sizes


def _p_level(vertices, unbounded=False):
    """The least p >= 1 with every row ``v`` of ``vertices`` in the dual of
    ``C_p`` (inf for an ``unbounded`` cross-section, as ``_dual_vertices``
    reports it), all rows at once: a row with ``v >= 0`` needs 1, another
    ``1 / ||x*||`` for the minimum-norm point ``x*`` of
    ``{x >= 0, sum(x) = 1, v . x <= 0}``.

    As ``sum(v) = 1`` the uniform point is cut off, so ``v . x* = 0`` and,
    on its support S, ``x*`` is the combination of ``1`` and ``v_S`` that
    meets both equations: with ``s = |S|``, ``m = sum(v_S)`` and
    ``q = ||v_S||^2`` it is ``(q - m v_S) / (s q - m^2)``, of level squared
    ``s - m^2/q``.  Each such point that is nonnegative is feasible, so
    the largest level among them, over all 2**r - 1 supports, is exact.
    (A support on which ``v`` vanishes is never that of ``x*``.)  The
    supports come from one table per r (``_supports``).  The rows are
    scored in blocks of at most ``_P_BLOCK`` entries, and each sum runs
    over one row's entries in order, so a row's level does not depend on
    the rows beside it.
    """
    if unbounded:
        return math.inf
    v = vertices[vertices.min(axis=1) < -_P_TOL]
    if not len(v):
        return 1.0
    supports, sizes = _supports(v.shape[1])
    best = 1.0
    step = max(1, _P_BLOCK // supports.size)
    for lo in range(0, len(v), step):
        block = v[lo:lo + step]
        masked = supports[:, None] * block  # (support, vertex, entry)
        m = np.add.reduce(masked, axis=2)
        q = np.add.reduce(masked * block, axis=2)
        det = sizes[:, None] * q - m * m
        ok = det > 0.0
        ok &= ((q[:, :, None] - m[:, :, None] * block) * supports[:, None]
               >= -1e-12 * q[:, :, None]).all(axis=2)
        best = max(best, float((det[ok] / q[ok]).max(initial=1.0)))
    return math.sqrt(best)


def check_pssc(h, p):
    """Does ``cone(h.T)`` contain ``C_p``?  Decided on the dual side.

    It does iff the dual cross-section is bounded and every vertex's exact
    p-level is at most ``p``.  p = 1 is separability, p = sqrt(r-1) is SSC1.
    """
    h = _validate_nonneg(_reals(h, _H_RULE, 2), "p-SSC")
    r = h.shape[1]
    p, = _tolerances([p], "check_pssc p")
    if not 1.0 - 1e-12 <= p <= math.sqrt(r) + 1e-12:
        raise UsageError(f"p={p} outside [1, sqrt(r)] for r={r}")
    return _p_level(*_dual_vertices(h)) <= p + _P_TOL


def estimate_min_p(h):
    """Smallest p with the p-SSC: the largest vertex p-level, exact with
    no search; inf when SSC1 fails (an unbounded cross-section or a level
    above sqrt(r-1))."""
    return _min_p(_reals(h, _H_RULE, 2))


def _min_p(h):
    """``estimate_min_p`` on a float matrix."""
    h = _validate_nonneg(h, "p-SSC")
    p, hi = _p_level(*_dual_vertices(h)), math.sqrt(h.shape[1] - 1.0)
    return min(p, hi) if p <= hi + _P_TOL else math.inf


@dataclass
class SscReport:
    """Verdicts and certificates for one matrix.

    ``ssc1``/``ssc2`` are None when undetermined (enumeration over the cap
    and no refutation found).  A ``refutation`` vector certifies an SSC1
    failure: ``h y >= -tol``, ``sum(y) = 1`` and ``||y|| > 1 + tol``.
    """

    separable: bool
    anchors: Optional[list]
    ssc1: Optional[bool]
    ssc2: Optional[bool]
    dual_vertices: Optional[np.ndarray]
    max_vertex_norm: Optional[float]
    unbounded: Optional[bool]
    refutation: Optional[np.ndarray]
    method: str  # "exact-enumeration" | "refutation-search-only"

    @property
    def ssc(self) -> Optional[bool]:
        if self.ssc1 is False or self.ssc2 is False:
            return False
        if self.ssc1 is None or self.ssc2 is None:
            return None
        return bool(self.ssc1 and self.ssc2)

    @property
    def undetermined(self) -> bool:
        return self.ssc is None

    def to_json(self) -> dict:
        return _jsonable({**vars(self), "ssc": self.ssc})


def check_ssc(h, tol=1e-7, feas_tol=1e-9, rng=None) -> SscReport:
    """Full SSC report via dual-vertex enumeration when feasible.

    SSC1 holds iff the cross-section is bounded and every vertex has norm
    at most one (the maximum of a convex function over a polytope sits at a
    vertex); SSC2 additionally pins every norm-one vertex to a unit vector.
    An exact anchor row per column gives the unit simplex in closed form,
    so such an ``h`` is SSC with no enumeration.  Otherwise the double
    description runs once, and its vertices and recession ray refute with
    no LP; past the ray budget the refutation search steps by LP, and past
    ``ENUM_CAP_R`` or ``ENUM_CAP_N`` the report keeps the refutation alone.
    Inside ``gen_instance`` (and only there) a matrix already checked with
    the same tolerances and no ``rng`` returns its earlier report instead.
    """
    tol, feas_tol = _tolerances((tol, feas_tol),
                                "check_ssc tol and feas_tol")
    return _ssc(_reals(h, _H_RULE, 2), tol, feas_tol, rng)


def _ssc(h, tol=1e-7, feas_tol=1e-9, rng=None):
    """``check_ssc`` on a float matrix, through the one report memo."""
    h = _validate_nonneg(h, "the SSC")
    if (h.sum(axis=0) <= 0).any():
        raise UsageError("zero column in h")
    memo = _SSC_REPORTS.get() if rng is None else None
    if memo is None:
        return _ssc_report(h, tol, feas_tol, rng)
    key = (h.shape, h.tobytes(), tol, feas_tol)
    if key not in memo:
        memo[key] = _ssc_report(h, tol, feas_tol, rng)
    return memo[key]


def _ssc_report(h, tol, feas_tol, rng):
    n, r = h.shape
    separable, anchors = _separable(h)
    try:
        vertices, ray = _vertices(h, feas_tol, separable)
    except EnumerationCapError:
        vertices, y = None, _lp_refute(h, rng, tol, feas_tol)
    else:
        norms = np.linalg.norm(vertices, axis=1)
        y = _listed_refutation(h, vertices, norms, ray, tol, feas_tol)
    if vertices is None or r > ENUM_CAP_R or n > ENUM_CAP_N:
        return SscReport(
            separable=separable, anchors=anchors,
            ssc1=False if y is not None else None, ssc2=None,
            dual_vertices=None, max_vertex_norm=None, unbounded=None,
            refutation=y, method="refutation-search-only")
    max_norm = float(norms.max(initial=0.0))
    ssc1 = ray is None and max_norm <= 1.0 + tol
    top = vertices[norms >= 1.0 - tol]
    dist = np.linalg.norm(top[:, None, :] - np.eye(r), axis=2).min(axis=1)
    return SscReport(
        separable=separable, anchors=anchors, ssc1=ssc1,
        ssc2=bool((dist <= tol).all()), dual_vertices=vertices,
        max_vertex_norm=max_norm, unbounded=ray is not None, refutation=y,
        method="exact-enumeration")


def ssc1_refute(h, rng=None, starts=10, iters=60, tol=1e-7,
                feas_tol=1e-9):
    """A certificate that SSC1 fails, or None.

    Within the ray budget ``_vertices`` decides it exactly, with no LP
    (``_listed_refutation``).  Past the budget ``_lp_refute`` searches by
    LP from ``starts`` random and 2r unit directions, ``iters`` steps
    each; there None proves nothing.
    """
    tol, feas_tol = _tolerances((tol, feas_tol),
                                "ssc1_refute tol and feas_tol")
    starts, iters = _integers((starts, iters),
                              "ssc1_refute starts and iters must be integers")
    h = _validate_nonneg(_reals(h, _H_RULE, 2), "SSC1 refutation")
    try:
        vertices, ray = _vertices(h, feas_tol)
    except EnumerationCapError:
        return _lp_refute(h, rng, tol, feas_tol, starts, iters)
    return _listed_refutation(h, vertices, np.linalg.norm(vertices, axis=1),
                              ray, tol, feas_tol)


def _feasible(h, y, feas_tol):
    scale = max(1.0, float(np.abs(h).max(initial=0.0)))
    return (h @ y).min() >= -feas_tol * scale and abs(y.sum() - 1) <= 1e-7


def _certified(h, y, tol, feas_tol):
    """``y`` when it proves SSC1 fails for ``h``, else None."""
    if np.linalg.norm(y) > 1.0 + tol and _feasible(h, y, feas_tol):
        return y
    return None


def _far_point(h, ray, tol, feas_tol):
    """The uniform point walked far along the recession direction ``ray``,
    when that certifies."""
    y = np.full(h.shape[1], 1.0 / h.shape[1])
    return _certified(h, y + (10.0 + np.linalg.norm(y))
                      / np.linalg.norm(ray) * ray, tol, feas_tol)


def _listed_refutation(h, vertices, norms, ray, tol, feas_tol):
    """The SSC1 certificate from ``_vertices``' ``vertices``, their
    ``norms``, and recession ``ray``: a far point along the ray when the
    cross-section is unbounded, else the largest-norm vertex when that norm
    passes ``1 + tol``, else None."""
    if ray is not None:
        return _far_point(h, ray, tol, feas_tol)
    if norms.size and norms.max() > 1.0 + tol:
        return vertices[int(np.argmax(norms))]
    return None


def _lp_refute(h, rng, tol, feas_tol, starts=10, iters=60):
    """Search by LP for an SSC1 certificate, for use past the ray budget.

    A double description past the budget found r independent rows, so
    by Stiemke's alternative the cross-section is bounded when every column
    of ``h`` sums to one (``lam = 1``); else one LP maximizes ``sum(h z)``
    over the recession directions in the unit box, positive iff one exists,
    and a far point along it certifies.  Otherwise Frank-Wolfe steps
    maximize the norm: each start is the LP optimum along one of 2r signed
    unit directions or ``starts`` seeded random ones, and each step moves
    to the LP optimum of the linearized norm ``y . z``, which can only
    increase it.  A step whose LP is not optimal, or fails, ends that start.
    """
    n, r = h.shape
    col_sums = h.sum(axis=0)
    if np.abs(col_sums - 1.0).max() > 1e-12:
        # z = 0 is feasible and the box bounds the LP, so it is optimal
        res = linprog_dense(col_sums, a_ub=-h, b_ub=np.zeros(n),
                            a_eq=np.ones((1, r)), b_eq=[0.0],
                            bounds=[(-1.0, 1.0)] * r, maximize=True)
        if res.value > 1e-7:
            return _far_point(h, res.x, tol, feas_tol)
    rng = np.random.default_rng(0 if rng is None else rng)

    def extreme(c):
        try:
            res = linprog_dense(c, a_ub=-h, b_ub=np.zeros(n),
                                a_eq=np.ones((1, r)), b_eq=[1.0],
                                maximize=True)
        except SolverError:
            return None
        return res.x if res.status == "optimal" else None

    # No start at e/r: every point ties for its step, so a tie-break picks.
    directions = [sgn * np.eye(r)[k] for k in range(r) for sgn in (1., -1.)]
    directions += [rng.standard_normal(r) for _ in range(starts)]
    cands = [z for z in map(extreme, directions) if z is not None]

    best = None
    for y0 in cands:
        if not _feasible(h, y0, feas_tol):
            continue
        y = y0.copy()
        for _ in range(iters):
            z = extreme(y)
            if z is None or \
                    np.linalg.norm(z) <= np.linalg.norm(y) * (1 + 1e-12):
                break
            y = z
        if best is None or np.linalg.norm(y) > np.linalg.norm(best):
            best = y
    return None if best is None else _certified(h, best, tol, feas_tol)


def kron_ssc_margin(r1, p1_sq, r2, p2_sq) -> float:
    """Left side of the Kronecker-SSC sufficient condition.

    The product of an SSC + p1-SSC factor with an SSC + p2-SSC factor
    satisfies the SSC when this quantity is at least one.
    """
    r1, r2 = _integers((r1, r2), "r1 and r2 must be integers")
    p1_sq, p2_sq = _tolerances((p1_sq, p2_sq),
                               "kron_ssc_margin p1_sq and p2_sq")
    return _margin(r1, p1_sq, r2, p2_sq)


def _margin(r1, p1_sq, r2, p2_sq):
    """``kron_ssc_margin`` of int ranks and float squares."""
    for r, psq in ((r1, p1_sq), (r2, p2_sq)):
        if r < 2:
            raise UsageError("factors need r >= 2")
        if not 1.0 - 1e-12 <= psq <= r - 1.0 + 1e-9:
            raise UsageError(f"p^2={psq} outside [1, r-1] for r={r}")
    t1 = math.sqrt((r1 - p1_sq) / (p1_sq * (r1 - 1.0)))
    t2 = math.sqrt((r2 - p2_sq) / (p2_sq * (r2 - 1.0)))
    return t1 + t2


def kron_ssc_sufficient(r1, p1, r2, p2) -> bool:
    p1, p2 = _tolerances((p1, p2), "kron_ssc_sufficient p1 and p2")
    r1, r2 = _integers((r1, r2), "r1 and r2 must be integers")
    return _margin(r1, p1 * p1, r2, p2 * p2) >= 1.0


def counterexample_dims_ok(r1, r2) -> bool:
    """Dimension condition under which SSC factors with a non-SSC Kronecker
    product exist: r1*r2 - 1 < (r1-1)^2 (r2-1), with r1 <= r2.  Raises
    ``UsageError`` unless both ranks are at least 2, as the SSC needs."""
    r1, r2 = _integers((r1, r2), "r1 and r2 must be integers")
    if min(r1, r2) < 2:
        raise UsageError("factors need r >= 2")
    if r1 > r2:
        r1, r2 = r2, r1
    return r1 * r2 - 1 < (r1 - 1) ** 2 * (r2 - 1)


def _ones_complement_basis(r, k):
    """k orthonormal columns orthogonal to the all-ones vector.

    Deterministic: the Householder reflection mapping e_1 to e/sqrt(r) has
    the remaining columns orthogonal to e; keep the first k of them.
    """
    target = np.full(r, 1.0 / math.sqrt(r))
    w = np.eye(r)[0] - target
    nw = np.linalg.norm(w)
    H = np.eye(r) if nw < 1e-15 else np.eye(r) - 2.0 * np.outer(w, w) / nw**2
    return H[:, 1:k + 1]


def ssc1_violation_witness(u1, u2, feas_tol=1e-12):
    """Analytic SSC1 refutation for a Kronecker product of row-stochastic
    factors whose rows cluster around the simplex center.

    With ``c_i`` the largest squared row distance to ``e/r_i`` and
    ``c1*c2 < (r1-1) / (r1*r2*(r1*r2-1))``, the matrix
    ``V = lam*E/sqrt(r1*r2) + B`` (``lam = sqrt(c1*c2*r1*r2)``, ``B`` a
    norm-one bilinear form vanishing on the ones vectors with
    ``||B||_F^2 = r1-1``) satisfies ``u1 V u2' >= 0`` while
    ``sum(V) < ||V||_F``; its vectorization refutes SSC1 of the product.
    Returns None when the bound does not hold.  Each factor passes
    ``_validate_nonneg`` and needs rows, each summing to one (``UsageError``).
    """
    feas_tol, = _tolerances([feas_tol], "ssc1_violation_witness feas_tol")
    u1 = _reals(u1, "u1 must be a finite real matrix", 2)
    u2 = _reals(u2, "u2 must be a finite real matrix", 2)
    for u, name in ((u1, "u1"), (u2, "u2")):  # before any row is scaled
        if not len(u):
            raise UsageError(f"{name} has no rows")
        if np.abs(u.sum(axis=1) - 1.0).max() > 1e-9:
            raise UsageError(f"{name} is not row-stochastic")
    u1, u2 = _validate_nonneg(u1, "u1", "u1"), _validate_nonneg(u2, "u2", "u2")
    swap = u1.shape[1] > u2.shape[1]  # the bound is taken with r1 <= r2
    u1, u2 = (u2, u1) if swap else (u1, u2)
    r1, r2 = u1.shape[1], u2.shape[1]
    c1 = float((np.linalg.norm(u1 - 1.0 / r1, axis=1) ** 2).max())
    c2 = float((np.linalg.norm(u2 - 1.0 / r2, axis=1) ** 2).max())
    bound = (r1 - 1.0) / (r1 * r2 * (r1 * r2 - 1.0))
    if not c1 * c2 < bound:
        return None
    lam = math.sqrt(c1 * c2 * r1 * r2)
    if not lam**2 < (r1 - 1.0) / (r1 * r2 - 1.0):
        raise WitnessError("lambda bound failed despite c1*c2 < bound")
    B = _ones_complement_basis(r1, r1 - 1) @ _ones_complement_basis(
        r2, r1 - 1).T
    V = lam * np.ones((r1, r2)) / math.sqrt(r1 * r2) + B
    if (u1 @ V @ u2.T).min() < -feas_tol:
        raise WitnessError("constructed V is not nonnegative on the factors")
    if not V.sum() < np.linalg.norm(V):
        raise WitnessError("constructed V does not violate the norm bound")
    return V.T if swap else V
