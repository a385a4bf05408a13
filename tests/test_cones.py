import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog, minimize

from ntdkit import cones, lp
from ntdkit.cones import (_recession_direction, _vertex_p_level,
                          check_pssc, check_separable, check_ssc,
                          counterexample_dims_ok, enumerate_dual_vertices,
                          estimate_min_p, kron_ssc_margin,
                          kron_ssc_sufficient, ssc1_refute,
                          ssc1_violation_witness)
from ntdkit.errors import EnumerationCapError, UsageError
from ntdkit.kron import kron
from ntdkit.lp import (_VERTEX_ENUM_CAP, CrossSection,
                       cross_section_vertices)
from ntdkit.solvers import numerical_rank
from ntdkit.synth import gen_separable_factor
from tests.conftest import same_vertices, two_nonzero, two_nonzero_ssc


def naive_dual_vertices(h, tol=1e-9):
    """Per-subset solve, feasibility filter, dedup and sort, in a loop."""
    n, r = h.shape
    scale = max(1.0, float(np.abs(h).max(initial=0.0)))
    rhs = np.zeros(r)
    rhs[-1] = 1.0
    vertices = []
    for combo in itertools.combinations(range(n), r - 1):
        m = np.vstack([h[list(combo)], np.ones(r)])
        if abs(np.linalg.det(m)) <= 1e-12 * scale ** (r - 1):
            continue
        y = np.linalg.solve(m, rhs)
        if (h @ y).min() < -tol * scale:
            continue
        if not any(np.abs(y - v).max() <= 1e-9 * max(1.0, np.abs(v).max())
                   for v in vertices):
            vertices.append(y)
    vertices.sort(key=tuple)
    return np.array(vertices).reshape(len(vertices), r)


def box_lp_unbounded(h):
    """Reference flag: 2r box-bounded LPs maximize +-z_k over the recession
    directions {h z >= 0, sum(z) = 0, -1 <= z <= 1}."""
    n, r = h.shape
    for k in range(r):
        for sgn in (1.0, -1.0):
            c = np.zeros(r)
            c[k] = -sgn
            res = linprog(c, A_ub=-h, b_ub=np.zeros(n), A_eq=np.ones((1, r)),
                          b_eq=[0.0], bounds=[(-1.0, 1.0)] * r,
                          method="highs")
            if res.status == 0 and -res.fun > 1e-7:
                return True
    return False


def boundedness_corpus(count=240):
    """Seeded (kind, h): column-stochastic, non-stochastic, rank-deficient,
    and non-stochastic with the last column zeroed in most rows."""
    rng = np.random.default_rng(2024)
    for i in range(count):
        n, r = int(rng.integers(3, 21)), int(rng.integers(2, 7))
        h = rng.random((n, r)) * (rng.random((n, r)) < 0.6)
        h[0, h.sum(axis=0) == 0] = 1.0
        kind = ("stochastic", "scaled", "low-rank", "sparse-last")[i % 4]
        if kind == "stochastic":
            h = h / h.sum(axis=0)
        elif kind == "scaled":
            h = h * rng.uniform(0.1, 10.0, r)
        elif kind == "low-rank":
            k = int(rng.integers(1, r))
            h = rng.random((n, k)) @ rng.random((k, r))
            if rng.random() < 0.5:
                h = h / h.sum(axis=0)
        else:
            h[int(rng.integers(1, 3)):, -1] = 0.0
            h = h * rng.uniform(0.1, 10.0, r)
        yield kind, h


def refutation_corpus(count=104):
    """Seeded h on both sides of the n <= 60 enumeration cap: two- and
    three-nonzero rows, dense rows away from zero, and random sparse."""
    rng = np.random.default_rng(2025)
    for i in range(count):
        n, r = int(rng.integers(8, 121)), int(rng.integers(3, 7))
        kind = ("two", "three", "dense", "sparse")[i % 4]
        if kind in ("two", "three"):
            h = np.zeros((n, r))
            for row in h:
                cols = rng.choice(r, size=2 + (kind == "three"),
                                  replace=False)
                row[cols] = rng.random(cols.size)
        elif kind == "dense":
            h = rng.random((n, r)) + 0.5
        else:
            h = rng.random((n, r)) * (rng.random((n, r)) < 0.4)
        h[0, h.sum(axis=0) == 0] = 1.0
        yield h / h.sum(axis=0)


def rows_near_center(n, r, c, rng, shrink=0.9):
    """Row-stochastic matrix with every row within sqrt(c)*shrink of e/r."""
    u = np.full((n, r), 1.0 / r)
    for i in range(n):
        d = rng.standard_normal(r)
        d -= d.mean()
        d /= np.linalg.norm(d)
        u[i] += math.sqrt(c) * shrink * d
    u = np.maximum(u, 0.0)
    return u / u.sum(axis=1, keepdims=True)


class TestSeparable:
    def test_identity(self):
        flag, anchors = check_separable(np.eye(4))
        assert flag and anchors == [0, 1, 2, 3]

    def test_uniform_rows(self):
        flag, anchors = check_separable(np.full((5, 4), 0.25))
        assert not flag and anchors is None

    def test_column_rescaling_preserves_anchors(self, rng):
        h = np.vstack([np.eye(4), rng.random((6, 4))])
        h = h / h.sum(axis=0)
        flag, anchors = check_separable(h)
        assert flag and all(a < 4 for a in anchors)

    def test_negative_entries(self):
        with pytest.raises(UsageError):
            check_separable(np.array([[1.0, -0.1], [0.0, 1.0]]))


class TestDualVertices:
    def test_identity_gives_simplex_vertices(self):
        verts, unbounded = enumerate_dual_vertices(np.eye(4))
        assert not unbounded
        assert sorted(map(tuple, verts)) == sorted(map(tuple, np.eye(4)))

    def test_r1_rejected(self):
        with pytest.raises(UsageError):
            enumerate_dual_vertices(np.ones((3, 1)))

    def test_random_two_nonzero_vertices_feasible(self, rng):
        # Brute-force subset enumeration is the oracle: check the output
        # satisfies its own definition.
        h = two_nonzero(20, 4, rng)
        verts, unbounded = enumerate_dual_vertices(h)
        assert not unbounded
        assert len(verts) > 0
        for v in verts:
            assert (h @ v).min() >= -1e-9
            assert v.sum() == pytest.approx(1.0, abs=1e-9)
            # a vertex activates at least r-1 rows
            assert (np.abs(h @ v) <= 1e-7).sum() >= 3

    def test_cap(self, rng):
        with pytest.raises(EnumerationCapError):
            enumerate_dual_vertices(rng.random((10, 9)))
        with pytest.raises(EnumerationCapError):
            enumerate_dual_vertices(rng.random((61, 4)))

    @pytest.mark.parametrize("n,r", [(20, 4), (14, 5), (9, 3)])
    def test_matches_naive_enumeration(self, n, r):
        rng = np.random.default_rng(300 + n + r)
        for h in (two_nonzero(n, r, rng), rng.random((n, r)),
                  gen_separable_factor(n, r, rng)):
            verts, _ = enumerate_dual_vertices(h)
            assert same_vertices(verts, naive_dual_vertices(h))

    def test_vertices_come_sorted_from_the_cross_section(self, rng):
        h = two_nonzero(20, 4, rng)
        verts, _ = enumerate_dual_vertices(h)
        assert np.array_equal(
            verts, cross_section_vertices(h, np.ones(4), _VERTEX_ENUM_CAP)[0])
        assert np.array_equal(verts, np.array(sorted(map(tuple, verts))))

    def test_unbounded_halfspace(self):
        h = np.full((4, 4), 0.25)
        verts, unbounded = enumerate_dual_vertices(h)
        assert unbounded and len(verts) == 0

    def test_boundedness_matches_box_lps(self):
        seen = set()
        for kind, h in boundedness_corpus():
            r = h.shape[1]
            z = _recession_direction(h)
            assert (z is not None) == box_lp_unbounded(h)
            assert enumerate_dual_vertices(h)[1] == (z is not None)
            full_rank = numerical_rank(np.vstack([h, np.ones(r)])) == r
            seen.add((kind, z is not None, full_rank))
            if z is None:
                continue
            assert np.abs(z).max() > 0 and (h @ z).min() >= -1e-9
            y = ssc1_refute(h)
            scale = max(1.0, float(h.max()))
            assert y is not None
            assert (h @ y).min() >= -1e-9 * scale
            assert y.sum() == pytest.approx(1.0, abs=1e-7)
            assert np.linalg.norm(y) > 1.0 + 1e-7
        # bounded by Stiemke's lam = 1, bounded after one LP, unbounded by
        # a null vector, and unbounded by one LP at full rank
        assert {("stochastic", False, True), ("scaled", False, True),
                ("low-rank", True, False),
                ("sparse-last", True, True)} <= seen


class TestCheckSsc:
    @pytest.mark.parametrize("r", range(2, 7))
    def test_identity_ssc(self, r):
        rep = check_ssc(np.eye(r))
        assert rep.separable and rep.ssc1 and rep.ssc2 and rep.ssc
        assert rep.max_vertex_norm == pytest.approx(1.0)
        assert rep.method == "exact-enumeration"

    def test_single_ray_fails(self):
        rep = check_ssc(np.full((4, 4), 0.25))
        assert rep.ssc1 is False and rep.unbounded
        assert rep.refutation is not None
        assert np.linalg.norm(rep.refutation) > 1.0 + 1e-7

    def test_separable_implies_ssc(self, rng):
        for _ in range(10):
            h = gen_separable_factor(20, 4, rng)
            rep = check_ssc(h)
            assert rep.separable and rep.ssc

    def test_ssc_implies_full_rank(self, rng):
        for _ in range(5):
            h = two_nonzero_ssc(20, 4, rng)
            assert numerical_rank(h) == 4

    def test_preconditions(self):
        with pytest.raises(UsageError):
            check_ssc(np.ones((3, 1)))
        h = np.eye(3)
        h[:, 2] = 0.0
        with pytest.raises(UsageError):
            check_ssc(h)

    def test_over_cap_falls_back_to_refutation_search(self, rng):
        # r = 9 exceeds the enumeration cap: refutation-only reporting
        rep = check_ssc(np.eye(9))
        assert rep.method == "refutation-search-only"
        assert rep.ssc1 is None and rep.ssc is None and rep.undetermined
        # a 70-row single-ray matrix: the search certifies the failure
        ray = np.full((70, 4), 0.25)
        rep = check_ssc(ray)
        assert rep.method == "refutation-search-only"
        assert rep.ssc1 is False and rep.refutation is not None

    def test_over_cap_search_solves_no_lp(self, rng, monkeypatch):
        real, calls = lp.linprog_dense, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(lp, "linprog_dense", counted)
        monkeypatch.setattr(cones, "linprog_dense", counted)
        rep = check_ssc(two_nonzero(150, 4, rng))
        assert rep.method == "refutation-search-only"
        assert calls == []

    def test_ray_budget_falls_back_to_refutation_search(self, monkeypatch):
        h = np.random.default_rng(3).random((30, 5))
        assert check_ssc(h).method == "exact-enumeration"
        monkeypatch.setattr(cones, "_VERTEX_ENUM_CAP", 5)
        with pytest.raises(EnumerationCapError):
            enumerate_dual_vertices(h)
        assert check_ssc(h).method == "refutation-search-only"

    def test_pssc_cap(self, rng):
        with pytest.raises(EnumerationCapError):
            check_pssc(rng.random((10, 9)), 2.0)


class TestRefutation:
    def test_identity_no_refutation(self):
        assert ssc1_refute(np.eye(4)) is None

    def test_single_ray_refuted(self):
        y = ssc1_refute(np.full((4, 4), 0.25))
        assert y is not None
        assert np.linalg.norm(y) > 1 + 1e-7
        assert y.sum() == pytest.approx(1.0, abs=1e-7)

    def test_certificates_agree_with_enumeration(self, rng):
        # Wherever enumeration is feasible, a returned refutation must
        # coincide with an SSC1=false verdict; absence proves nothing.
        found, false_cases = 0, 0
        for seed in range(12):
            r2 = np.random.default_rng(seed)
            h = two_nonzero(12, 4, r2)
            y = ssc1_refute(h, rng=0)
            rep = check_ssc(h)
            false_cases += rep.ssc1 is False
            if y is not None:
                found += 1
                assert rep.ssc1 is False
                assert (h @ y).min() >= -1e-9
                assert np.linalg.norm(y) > 1 + 1e-7
        assert found > 0 and false_cases > 0
        # the search: good enough to catch every violation at these sizes
        assert found == false_cases

    def test_vertex_oracle_agrees_with_lp_fallback(self, monkeypatch):
        # With no ray budget the same search answers every step by an LP.
        cases = list(refutation_corpus())
        listed = sum(CrossSection(h, np.ones(h.shape[1]), _VERTEX_ENUM_CAP)
                     .vertices is not None for h in cases)
        fast = [ssc1_refute(h, rng=i) for i, h in enumerate(cases)]
        monkeypatch.setattr(cones, "_VERTEX_ENUM_CAP", 0)
        found = 0
        for i, (h, y) in enumerate(zip(cases, fast)):
            y_lp = ssc1_refute(h, rng=i)
            assert (y is None) == (y_lp is None)
            if y is None:
                continue
            found += 1
            for v in (y, y_lp):
                assert (h @ v).min() >= -1e-9 * max(1.0, h.max())
                assert v.sum() == pytest.approx(1.0, abs=1e-7)
                assert np.linalg.norm(v) > 1.0 + 1e-7
            assert np.abs(y - y_lp).max() <= 1e-9 * np.abs(y_lp).max()
        assert listed >= 90 and 20 <= found <= 90


class TestPssc:
    def test_matches_separability_at_p1(self, rng):
        for seed in range(8):
            r2 = np.random.default_rng(seed)
            h = two_nonzero(20, 4, r2) if seed % 2 else \
                gen_separable_factor(20, 4, r2)
            assert check_pssc(h, 1.0) == check_separable(h)[0]

    def test_matches_ssc1_at_sqrt_r_minus_1(self, rng):
        for seed in range(8):
            r2 = np.random.default_rng(seed)
            h = two_nonzero(20, 4, r2)
            assert check_pssc(h, math.sqrt(3.0)) == check_ssc(h).ssc1

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_identity_all_p(self, r):
        for p in np.linspace(1.0, math.sqrt(r - 1), 7):
            assert check_pssc(np.eye(r), p)

    def test_monotone_in_p(self, rng):
        h = two_nonzero(20, 4, rng)
        grid = np.linspace(1.0, math.sqrt(3.0), 12)
        flags = [check_pssc(h, p) for p in grid]
        assert flags == sorted(flags), "p-SSC must be monotone in p"

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            check_pssc(np.eye(4), 0.5)
        with pytest.raises(UsageError):
            check_pssc(np.eye(4), 2.5)


def slsqp_p_level(v):
    """1 / min ||x|| over {x >= 0, sum(x) = 1, v . x <= 0} by SLSQP."""
    r = v.size
    res = minimize(lambda x: x @ x, np.full(r, 1.0 / r),
                   jac=lambda x: 2.0 * x, method="SLSQP",
                   bounds=[(0.0, None)] * r,
                   constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1,
                                 "jac": lambda x: np.ones(r)},
                                {"type": "ineq", "fun": lambda x: -v @ x,
                                 "jac": lambda x: -v}],
                   options={"ftol": 1e-15, "maxiter": 500})
    assert res.success, res.message
    return 1.0 / math.sqrt(res.fun)


class TestVertexPLevel:
    def test_matches_slsqp(self, rng):
        # Vertices of the dual cross-section sum to one; only those with a
        # negative entry have a level above 1.  Every third draw is put on
        # a random support and is exactly zero off it, as vertices on
        # several facets are.
        checked = 0
        while checked < 120:
            r = int(rng.integers(2, 9))
            k = int(rng.integers(2, r + 1)) if checked % 3 == 0 else r
            w = rng.standard_normal(k) * rng.uniform(0.2, 3.0)
            w += (1.0 - w.sum()) / k
            if w.min() >= -1e-3:
                continue
            v = np.zeros(r)
            v[rng.permutation(r)[:k]] = w
            level = _vertex_p_level(v)
            assert 1.0 < level <= math.sqrt(r)
            assert level == pytest.approx(slsqp_p_level(v), rel=1e-6)
            checked += 1

    def test_nonnegative_vertex_is_one(self):
        for v in ([0.5, 0.5, 0.0], [-1e-12, 0.5, 0.5 + 1e-12], [1.0, 0.0]):
            assert _vertex_p_level(np.array(v)) == 1.0

    def test_norm_one_vertex_sits_at_sqrt_r_minus_1(self):
        # Full support: level^2 = r - 1/||v||^2, so sqrt(r-1) at norm one.
        v = np.array([2.0, 2.0, -1.0]) / 3.0
        assert _vertex_p_level(v) == pytest.approx(math.sqrt(2))


class TestEstimateMinP:
    def test_identity_is_one(self):
        assert estimate_min_p(np.eye(4)) == 1.0

    def test_ssc1_failure_is_inf(self):
        assert estimate_min_p(np.full((4, 4), 0.25)) == math.inf

    def test_threshold_self_consistency(self, rng):
        h = two_nonzero_ssc(20, 4, rng)
        p = estimate_min_p(h)
        assert 1.0 < p <= math.sqrt(3.0)
        assert check_pssc(h, p)
        assert not check_pssc(h, p - 1e-7)


class TestKronSufficient:
    def test_boundary_exact(self):
        assert kron_ssc_margin(3, 2.0, 3, 2.0) == 1.0
        assert kron_ssc_sufficient(3, 1.4142, 3, 1.4142)

    def test_separable_second_factor(self):
        for r1, p1 in [(3, 1.2), (4, 1.5), (6, 2.1)]:
            assert kron_ssc_sufficient(r1, p1, 5, 1.0)

    def test_fails_past_threshold(self):
        # sqrt(1/4) + sqrt(1/9) = 5/6 < 1
        assert kron_ssc_margin(3, 2.0, 4, 3.0) == pytest.approx(5.0 / 6.0)
        assert not kron_ssc_sufficient(3, math.sqrt(2), 4, math.sqrt(3))

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            kron_ssc_margin(3, 2.5, 3, 2.0)
        with pytest.raises(UsageError):
            kron_ssc_margin(3, 0.8, 3, 2.0)


class TestDimsCondition:
    def test_values(self):
        assert counterexample_dims_ok(3, 4)
        assert counterexample_dims_ok(4, 3)  # swapped internally
        assert not counterexample_dims_ok(3, 3)
        for k in range(2, 13):
            assert not counterexample_dims_ok(2, k)


class TestWitness:
    def test_identity_factors_give_none(self):
        assert ssc1_violation_witness(np.eye(3), np.eye(4)) is None

    def test_constructed_pair(self, rng):
        r1, r2 = 3, 4
        bound = (r1 - 1) / (r1 * r2 * (r1 * r2 - 1))
        c = 0.5 * math.sqrt(bound)
        u1 = rows_near_center(6, r1, c, rng)
        u2 = rows_near_center(7, r2, c, rng)
        v = ssc1_violation_witness(u1, u2)
        assert v is not None
        assert (u1 @ v @ u2.T).min() >= -1e-12
        assert v.sum() < np.linalg.norm(v)
        c1 = (np.linalg.norm(u1 - 1 / r1, axis=1) ** 2).max()
        c2 = (np.linalg.norm(u2 - 1 / r2, axis=1) ** 2).max()
        lam = math.sqrt(c1 * c2 * r1 * r2)
        assert np.linalg.norm(v) ** 2 == pytest.approx(lam**2 + r1 - 1,
                                                       abs=1e-10)

    def test_swapped_ranks(self, rng):
        r1, r2 = 4, 3  # forces the internal transpose path
        bound = (r2 - 1) / (r1 * r2 * (r1 * r2 - 1))
        c = 0.5 * math.sqrt(bound)
        u1 = rows_near_center(7, r1, c, rng)
        u2 = rows_near_center(6, r2, c, rng)
        v = ssc1_violation_witness(u1, u2)
        assert v is not None and v.shape == (4, 3)
        assert (u1 @ v @ u2.T).min() >= -1e-12
        assert v.sum() < np.linalg.norm(v)

    def test_witness_seeds_refutation(self, rng):
        r1 = r2 = 3
        bound = (r1 - 1) / (r1 * r2 * (r1 * r2 - 1))
        c = 0.5 * math.sqrt(bound)
        u1 = rows_near_center(6, r1, c, rng)
        u2 = rows_near_center(6, r2, c, rng)
        v = ssc1_violation_witness(u1, u2)
        assert v is not None
        # The witness is itself a certificate, and the search finds one.
        h = kron(u1, u2)
        w = v.ravel(order="F") / v.sum()
        assert (h @ w).min() >= -1e-12 and np.linalg.norm(w) > 1 + 1e-7
        y = ssc1_refute(h)
        assert y is not None
        assert np.linalg.norm(y) > 1 + 1e-7

    def test_row_distance_bound_inside_cp(self, rng):
        # Rows inside C_p obey the squared-distance bound 1/p^2 - 1/r.
        r, p = 4, 1.6
        for _ in range(20):
            row = rng.random(r)
            row /= row.sum()
            if np.linalg.norm(row) <= 1 / p:  # row in C_p
                assert np.linalg.norm(row - 1 / r) ** 2 <= \
                    1 / p**2 - 1 / r + 1e-12

    def test_invalid_rows(self):
        with pytest.raises(UsageError):
            ssc1_violation_witness(np.array([[0.7, 0.7]]), np.eye(2))
