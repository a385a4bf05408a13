"""Separability, SSC and p-SSC verifiers with certificates.

The dual cone of the rows of a nonnegative matrix ``h`` is
``{y : h @ y >= 0}``; its cross-section against ``sum(y) == 1`` is a
polytope whose vertices decide SSC1 (all norms at most one), SSC2 (norm-one
vertices sit at unit vectors) and p-SSC (all vertices inside the dual of the
expanded cone ``C_p = {x >= 0 : sum(x) >= p*||x||}``).  Each vertex has one
exact p-level, the least p that admits it, found by enumerating supports;
``check_pssc`` and ``estimate_min_p`` compare and report the largest one,
with no search over p.  The vertices and the boundedness of the
cross-section come from one double description
(``lp.cross_section_vertices``).  Exact SSC checking is NP-hard in
general, so enumeration is capped (``ENUM_CAP_R``, ``ENUM_CAP_N`` and the
intermediate-ray budget) and a refutation search takes over beyond the
cap: a returned certificate proves SSC1 fails, but absence of one proves
nothing.  Its linear steps go through the oracle ``lp.CrossSection``,
which answers from the vertices when the ray budget allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (EnumerationCapError, InputError, SolverError,
                     UsageError, WitnessError)
from .lp import (_VERTEX_ENUM_CAP, CrossSection, cross_section_vertices,
                 linprog_dense)

ENUM_CAP_R = 8
ENUM_CAP_N = 60


def _validate_nonneg(h, name="h"):
    h = np.asarray(h, dtype=float)
    if h.ndim != 2:
        raise UsageError(f"{name} must be a matrix")
    if h.size and h.min() < -1e-12:
        raise UsageError(f"{name} has negative entries")
    with np.errstate(over="ignore"):
        if not np.isfinite(h.sum(axis=0)).all():
            raise InputError(f"{name} has non-finite column sums")
    return np.maximum(h, 0.0)


def check_separable(h, tol=1e-9):
    """Anchor-row test: one row proportional to each unit vector.

    Returns ``(flag, anchors)`` with one anchor row index per column when
    separable, else ``(False, None)``.
    """
    h = _validate_nonneg(h)
    n, r = h.shape
    anchors = []
    for k in range(r):
        rows = None
        for i in range(n):
            m = h[i].max()
            if h[i, k] > 0 and h[i].sum() - h[i, k] <= tol * m:
                rows = i
                break
        if rows is None:
            return False, None
        anchors.append(rows)
    return True, anchors


def _recession_direction(h):
    """A nonzero ``z`` with ``h z >= 0`` and ``sum(z) = 0``, or None.

    Such a direction exists iff ``{y : h y >= 0, sum(y) = 1}`` is unbounded.
    A null vector of ``[h; 1']`` is one.  Otherwise, by Stiemke's
    alternative, the cross-section is bounded iff ``h' lam = 1`` has a
    solution ``lam > 0``; ``lam = 1`` is one when every column of ``h``
    sums to one.  In the remaining case one LP maximizes ``sum(h z)`` over
    the directions in the unit box, which is positive iff one exists.
    """
    n, r = h.shape
    m = np.vstack([h, np.ones((1, r))])
    _, s, vt = np.linalg.svd(m)
    rank_tol = max(m.shape) * np.finfo(float).eps * s[0] * 1e3
    if s.size < r or s[-1] <= rank_tol:  # as in solvers.numerical_rank
        return vt[-1]
    col_sums = h.sum(axis=0)
    if np.abs(col_sums - 1.0).max() <= 1e-12:
        return None
    # z = 0 is feasible and the box bounds the LP, so it is always optimal.
    res = linprog_dense(col_sums, a_ub=-h, b_ub=np.zeros(n),
                        a_eq=np.ones((1, r)), b_eq=[0.0],
                        bounds=[(-1.0, 1.0)] * r, maximize=True)
    return res.x if res.value > 1e-7 else None


def enumerate_dual_vertices(h, tol=1e-9):
    """Vertices of ``{y : h y >= 0, sum(y) = 1}`` plus an unboundedness flag.

    ``lp.cross_section_vertices`` finds both by the double description
    method, which lists each vertex once, in lexicographic order.  Its
    budget on intermediate rays, not the C(n, r-1) subset count, bounds the
    work.  ``ENUM_CAP_N`` stays all the same: the benchmark's input guard
    reads it as a subset count and ``evaluate`` uses it to choose exact
    group certification, so raising it changes both.  Past either cap, or
    past the ray budget, ``EnumerationCapError`` is raised.
    """
    h = np.asarray(h, dtype=float)
    n, r = h.shape
    if r < 2:
        raise UsageError("dual-vertex enumeration needs r >= 2")
    if r > ENUM_CAP_R or n > ENUM_CAP_N:
        raise EnumerationCapError(
            f"enumeration cap exceeded (r={r} > {ENUM_CAP_R} or "
            f"n={n} > {ENUM_CAP_N})"
        )
    return cross_section_vertices(h, np.ones(r), _VERTEX_ENUM_CAP, tol)


# A vertex entry, or a p-level, within this of its bound is on it.
_P_TOL = 1e-9


def _vertex_p_level(v):
    """The least p >= 1 with ``v`` in the dual of ``C_p``: 1 when
    ``v >= 0``, else ``1 / ||x*||`` for the minimum-norm point ``x*`` of
    ``{x >= 0, sum(x) = 1, v . x <= 0}``.

    As ``sum(v) = 1`` the uniform point is cut off, so ``v . x* = 0`` and,
    on its support S, ``x*`` is the combination of ``1`` and ``v_S`` that
    meets both equations: with ``s = |S|``, ``m = sum(v_S)`` and
    ``q = ||v_S||^2`` it is ``(q - m v_S) / (s q - m^2)``, of level squared
    ``s - m^2/q``.  Each such point that is nonnegative is feasible, so
    the largest level among them, over all 2**r - 1 supports, is exact.
    (A support on which ``v`` vanishes is never that of ``x*``.)
    """
    if v.min() >= -_P_TOL:
        return 1.0
    r = v.size
    supports = ((np.arange(1, 1 << r)[:, None] >> np.arange(r)) & 1) * 1.0
    s = supports.sum(axis=1)
    m = supports @ v
    q = supports @ (v * v)
    det = s * q - m * m
    ok = det > 0.0
    ok &= ((q[:, None] - m[:, None] * v) * supports
           >= -1e-12 * q[:, None]).all(axis=1)
    return math.sqrt((det[ok] / q[ok]).max(initial=1.0))


def _max_p_level(h):
    """The largest vertex p-level of ``h``'s dual cross-section (1 with no
    vertex), or inf when the cross-section is unbounded."""
    vertices, unbounded = enumerate_dual_vertices(h)
    if unbounded:
        return math.inf
    return max(map(_vertex_p_level, vertices), default=1.0)


def check_pssc(h, p):
    """Does ``cone(h.T)`` contain ``C_p``?  Decided on the dual side.

    It does iff the dual cross-section is bounded and every vertex's exact
    p-level is at most ``p``.  p = 1 is separability, p = sqrt(r-1) is SSC1.
    """
    h = _validate_nonneg(h)
    r = h.shape[1]
    if r < 2:
        raise UsageError("p-SSC needs r >= 2")
    if not 1.0 - 1e-12 <= p <= math.sqrt(r) + 1e-12:
        raise UsageError(f"p={p} outside [1, sqrt(r)] for r={r}")
    return _max_p_level(h) <= p + _P_TOL


def estimate_min_p(h):
    """Smallest p with the p-SSC: the largest vertex p-level, exact with
    no search; inf when SSC1 fails (an unbounded cross-section or a level
    above sqrt(r-1))."""
    h = _validate_nonneg(h)
    r = h.shape[1]
    if r < 2:
        raise UsageError("p-SSC needs r >= 2")
    p, hi = _max_p_level(h), math.sqrt(r - 1.0)
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
        return {
            "separable": self.separable,
            "anchors": self.anchors,
            "ssc1": self.ssc1,
            "ssc2": self.ssc2,
            "ssc": self.ssc,
            "dual_vertices": None if self.dual_vertices is None
            else self.dual_vertices.tolist(),
            "max_vertex_norm": self.max_vertex_norm,
            "unbounded": self.unbounded,
            "refutation": None if self.refutation is None
            else self.refutation.tolist(),
            "method": self.method,
        }


def check_ssc(h, tol=1e-7, feas_tol=1e-9, rng=None) -> SscReport:
    """Full SSC report via dual-vertex enumeration when feasible.

    SSC1 holds iff the cross-section is bounded and every vertex has norm
    at most one (the maximum of a convex function over a polytope sits at a
    vertex); SSC2 additionally pins every norm-one vertex to a unit vector.
    """
    h = _validate_nonneg(h)
    n, r = h.shape
    if r < 2:
        raise UsageError("the SSC is defined for r >= 2")
    if np.any(h.sum(axis=0) <= 0):
        raise UsageError("zero column in h")
    separable, anchors = check_separable(h)
    try:
        vertices, unbounded = enumerate_dual_vertices(h, tol=feas_tol)
    except EnumerationCapError:
        y = ssc1_refute(h, rng=rng, tol=tol, feas_tol=feas_tol)
        return SscReport(
            separable=separable, anchors=anchors,
            ssc1=False if y is not None else None, ssc2=None,
            dual_vertices=None, max_vertex_norm=None, unbounded=None,
            refutation=y, method="refutation-search-only",
        )
    norms = np.linalg.norm(vertices, axis=1) if vertices.size else np.zeros(0)
    max_norm = float(norms.max()) if norms.size else 0.0
    ssc1 = (not unbounded) and max_norm <= 1.0 + tol
    ssc2 = True
    for v, nv in zip(vertices, norms):
        if nv >= 1.0 - tol:
            dist = min(np.linalg.norm(v - np.eye(r)[k]) for k in range(r))
            if dist > tol:
                ssc2 = False
                break
    refutation = None
    if not ssc1:
        if norms.size and max_norm > 1.0 + tol:
            refutation = vertices[int(np.argmax(norms))]
        else:
            refutation = ssc1_refute(h, rng=rng, tol=tol, feas_tol=feas_tol)
    return SscReport(
        separable=separable, anchors=anchors, ssc1=ssc1, ssc2=ssc2,
        dual_vertices=vertices, max_vertex_norm=max_norm,
        unbounded=unbounded, refutation=refutation,
        method="exact-enumeration",
    )


def ssc1_refute(h, rng=None, starts=10, iters=60, tol=1e-7,
                feas_tol=1e-9):
    """Search for a certificate that SSC1 fails.

    When the dual cross-section is unbounded, the uniform point walked far
    along a recession direction is the certificate.  Otherwise Frank-Wolfe
    steps maximize the norm over the (bounded) cross-section: from the
    current point, the oracle ``lp.CrossSection`` moves to the vertex
    maximizing the linearized objective, which can only increase the norm;
    a step whose fallback LP is not optimal ends that start.  Returning
    None proves nothing.
    """
    h = np.asarray(h, dtype=float)
    r = h.shape[1]
    if rng is None:
        rng = np.random.default_rng(0)
    elif isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    scale = max(1.0, float(np.abs(h).max(initial=0.0)))

    def feasible(y):
        return (h @ y).min() >= -feas_tol * scale and abs(y.sum() - 1) <= 1e-7

    def certificate(y):
        return y if np.linalg.norm(y) > 1.0 + tol and feasible(y) else None

    ray = _recession_direction(h)
    if ray is not None:
        y = np.full(r, 1.0 / r)
        return certificate(y + (10.0 + np.linalg.norm(y))
                           / np.linalg.norm(ray) * ray)

    cs = CrossSection(h, np.ones(r), _VERTEX_ENUM_CAP)

    def extreme(c):
        try:
            return cs.extreme(c)[0]
        except SolverError:
            return None

    # No start at e/r: every point ties for its step, so a tie-break picks.
    directions = [sgn * np.eye(r)[k] for k in range(r) for sgn in (1., -1.)]
    directions += [rng.standard_normal(r) for _ in range(starts)]
    cands = [z for z in map(extreme, directions) if z is not None]

    best = None
    for y0 in cands:
        if not feasible(y0):
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
    return None if best is None else certificate(best)


def kron_ssc_margin(r1, p1_sq, r2, p2_sq) -> float:
    """Left side of the Kronecker-SSC sufficient condition.

    The product of an SSC + p1-SSC factor with an SSC + p2-SSC factor
    satisfies the SSC when this quantity is at least one.
    """
    for r, psq in ((r1, p1_sq), (r2, p2_sq)):
        if r < 2:
            raise UsageError("factors need r >= 2")
        if not 1.0 - 1e-12 <= psq <= r - 1.0 + 1e-9:
            raise UsageError(f"p^2={psq} outside [1, r-1] for r={r}")
    t1 = math.sqrt((r1 - p1_sq) / (p1_sq * (r1 - 1.0)))
    t2 = math.sqrt((r2 - p2_sq) / (p2_sq * (r2 - 1.0)))
    return t1 + t2


def kron_ssc_sufficient(r1, p1, r2, p2) -> bool:
    return kron_ssc_margin(r1, p1 * p1, r2, p2 * p2) >= 1.0


def counterexample_dims_ok(r1, r2) -> bool:
    """Dimension condition under which SSC factors with a non-SSC Kronecker
    product exist: r1*r2 - 1 < (r1-1)^2 (r2-1), with r1 <= r2."""
    r1, r2 = int(r1), int(r2)
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
    Returns None when the bound does not hold.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    for u, name in ((u1, "u1"), (u2, "u2")):
        if u.ndim != 2 or u.shape[1] < 2:
            raise UsageError(f"{name} must be a matrix with r >= 2")
        if u.min() < -1e-12:
            raise UsageError(f"{name} has negative entries")
        if np.abs(u.sum(axis=1) - 1.0).max() > 1e-9:
            raise UsageError(f"{name} is not row-stochastic")
    r1, r2 = u1.shape[1], u2.shape[1]
    if r1 > r2:
        W = ssc1_violation_witness(u2, u1, feas_tol)
        return None if W is None else W.T
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
    return V
