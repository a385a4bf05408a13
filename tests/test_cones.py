import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from ntdkit import cones
from ntdkit.cones import (_cp_dual_margin, _polish_feasible,
                          _recession_direction, check_pssc,
                          check_separable, check_ssc,
                          counterexample_dims_ok, enumerate_dual_vertices,
                          estimate_min_p, kron_ssc_margin,
                          kron_ssc_sufficient, ssc1_refute,
                          ssc1_violation_witness)
from ntdkit.errors import EnumerationCapError, UsageError
from ntdkit.kron import kron
from ntdkit.solvers import numerical_rank
from ntdkit.synth import gen_separable_factor
from tests.conftest import two_nonzero, two_nonzero_ssc


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
        if not any(np.abs(y - v).max() <= 1e-9 for v in vertices):
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
            assert np.array_equal(verts, naive_dual_vertices(h))

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


class TestCpDualMargin:
    def test_exact_vs_socp_oracle(self, rng):
        # Independent oracle: solve the membership program with a real
        # second-order-cone solver and compare.
        cp = pytest.importorskip("cvxpy")
        for _ in range(40):
            r = int(rng.integers(2, 8))
            p = float(rng.uniform(1.0, math.sqrt(r)))
            v = rng.standard_normal(r)
            x = cp.Variable(r)
            prob = cp.Problem(
                cp.Minimize(v @ x),
                [x >= 0, cp.sum(x) == 1, cp.norm(x) <= 1 / p])
            prob.solve()
            exact = _cp_dual_margin(v, p, tol=-np.inf)
            assert exact == pytest.approx(prob.value, abs=2e-6)

    def test_exact_below_projected_gradient(self, rng):
        # Projected subgradient descent evaluates feasible points only, so
        # it can never go below the exact minimum.
        for _ in range(25):
            r = int(rng.integers(2, 7))
            p = float(rng.uniform(1.0, math.sqrt(r)))
            v = rng.standard_normal(r)
            exact = _cp_dual_margin(v, p, tol=-np.inf)
            best = float("inf")
            x = _polish_feasible(rng.random(r), p)
            step0 = (2.0 / p) / max(np.linalg.norm(v), 1e-300)
            for t in range(300):
                best = min(best, float(v @ x))
                x = _polish_feasible(x - step0 / math.sqrt(t + 1) * v, p)
            assert exact <= best + 1e-9


class TestEstimateMinP:
    def test_identity_is_one(self):
        assert estimate_min_p(np.eye(4)) == 1.0

    def test_ssc1_failure_is_inf(self):
        assert estimate_min_p(np.full((4, 4), 0.25)) == math.inf

    def test_bisection_self_consistency(self, rng):
        h = two_nonzero_ssc(20, 4, rng)
        tol = 1e-6
        p = estimate_min_p(h, tol=tol)
        assert 1.0 < p <= math.sqrt(3.0) + tol
        assert check_pssc(h, p + tol)
        assert not check_pssc(h, p - 10 * tol)


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
        y = ssc1_refute(kron(u1.T / u1.sum(0), u2.T / u2.sum(0)).T
                        if False else kron(u1, u2),
                        seeds=[v.ravel(order="F")])
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
