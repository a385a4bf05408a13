from math import comb

import numpy as np
import pytest

from ntdkit import solvers
from ntdkit.errors import NotSeparable, RankError, ShapeError
from ntdkit.lp import linprog_dense
from ntdkit.solvers import (SolverConfig, derive_seed, maxdet_simplex,
                            minvol_nmf, minvol_order2_ntd, numerical_rank,
                            orthonormal_range, separable_order2_ntd,
                            spa_separable_nmf)
from ntdkit.synth import gen_separable_factor
from tests.conftest import align_error, two_nonzero, two_nonzero_ssc

CFG = SolverConfig(seed=7)


class TestRankTools:
    def test_numerical_rank(self, rng):
        a = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 8))
        assert numerical_rank(a) == 3
        assert numerical_rank(np.zeros((4, 4))) == 0

    def test_orthonormal_range_projector(self, rng):
        x = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 10))
        b = orthonormal_range(x, 2)
        assert np.allclose(b.T @ b, np.eye(2), atol=1e-12)
        assert np.linalg.norm(b @ (b.T @ x) - x) <= 1e-12

    def test_identity_basis(self):
        b = orthonormal_range(np.eye(3), 3)
        assert np.allclose(b @ b.T, np.eye(3), atol=1e-12)

    def test_rank_deficient_rejected(self, rng):
        x = np.outer(rng.random(6), rng.random(5))
        with pytest.raises(RankError):
            orthonormal_range(x, 2)


class TestMaxdetSimplex:
    def test_identity_cross_section(self):
        q = maxdet_simplex(np.eye(4), CFG)
        assert abs(np.linalg.det(q)) == pytest.approx(1.0, abs=1e-12)
        # columns are simplex vertices: a permutation of the identity
        assert np.allclose(np.sort(q, axis=0)[-1], 1.0, atol=1e-12)
        assert np.allclose(q.sum(axis=0), 1.0, atol=1e-12)

    def test_separable_recovery(self, rng):
        u = gen_separable_factor(20, 4, rng)
        b = orthonormal_range(u, 4)
        q = maxdet_simplex(b, CFG)
        assert align_error(b @ q, u) <= 1e-8

    def test_monotone_sweeps(self, rng):
        u = two_nonzero_ssc(20, 4, rng)
        b = orthonormal_range(u, 4)
        _, history = maxdet_simplex(b, CFG, return_history=True)
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(history, history[1:]))

    def test_ssc_recovery_rate(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            u = two_nonzero_ssc(20, 4, rng)
            b = orthonormal_range(u, 4)
            q = maxdet_simplex(b, SolverConfig(seed=seed))
            gt = abs(np.linalg.det(np.linalg.lstsq(b, u, rcond=None)[0]))
            val = abs(np.linalg.det(q))
            assert val >= gt - 1e-8  # never below the ground-truth volume
            hits += align_error(b @ q, u) <= 1e-8
        assert hits >= 8


    def test_lp_fallback_agrees_with_vertex_oracle(self, rng, monkeypatch):
        u = two_nonzero_ssc(20, 4, rng)
        b = orthonormal_range(u, 4)
        q_vertex = maxdet_simplex(b, CFG)
        monkeypatch.setattr(solvers, "_VERTEX_ENUM_CAP", 0)
        assert solvers._CrossSection(b).vertices is None
        q_lp = maxdet_simplex(b, CFG)
        assert abs(np.linalg.det(q_lp)) == pytest.approx(
            abs(np.linalg.det(q_vertex)), rel=1e-10)
        assert align_error(b @ q_lp, u) <= 1e-8


class TestVertexOracle:
    def test_optimum_equals_highs(self):
        rng = np.random.default_rng(77)
        cases = 0
        while cases < 60:
            n, r = int(rng.integers(6, 41)), int(rng.integers(2, 6))
            if comb(n, r - 1) > 50_000:
                continue
            x = rng.random((n, r)) * (rng.random((n, r)) < 0.7)
            try:
                b = orthonormal_range(x, r)
            except RankError:
                continue
            cs = solvers._CrossSection(b)
            assert cs.vertices is not None
            for _ in range(3):
                c = rng.standard_normal(r)
                for maximize in (True, False):
                    v, val = cs.extreme(c, maximize)
                    ref = linprog_dense(c, a_ub=-b, b_ub=np.zeros(n),
                                        a_eq=b.sum(axis=0).reshape(1, -1),
                                        b_eq=np.ones(1), maximize=maximize)
                    assert ref.status == "optimal"
                    assert abs(val - ref.value) <= 1e-12 * max(
                        abs(ref.value), np.linalg.norm(c))
                    assert (b @ v).min() >= -1e-9
            cases += 1

    @pytest.mark.parametrize("n,r", [(150, 4), (150, 6), (300, 8)])
    def test_beyond_the_subset_cap_equals_highs(self, n, r):
        # C(300, 7) subsets are out of reach; the cross-section of a
        # two-nonzero factor's range has few vertices all the same.
        rng = np.random.default_rng(n + r)
        b = orthonormal_range(two_nonzero(n, r, rng), r)
        cs = solvers._CrossSection(b)
        assert cs.vertices is not None
        for _ in range(20):
            c = rng.standard_normal(r)
            for maximize in (True, False):
                v, val = cs.extreme(c, maximize)
                ref = linprog_dense(c, a_ub=-b, b_ub=np.zeros(n),
                                    a_eq=b.sum(axis=0).reshape(1, -1),
                                    b_eq=np.ones(1), maximize=maximize)
                assert abs(val - ref.value) <= 1e-12 * max(
                    abs(ref.value), np.linalg.norm(c))
                assert (b @ v).min() >= -1e-9

    def test_ties_go_to_lowest_index(self):
        cs = solvers._CrossSection(np.eye(3))
        # vertices in subset order: e2, e1, e0; c ties e0 and e1
        v, val = cs.extreme(np.array([1.0, 1.0, 0.0]))
        assert np.array_equal(v, np.eye(3)[1]) and val == 1.0
        v, val = cs.extreme(np.array([1.0, 1.0, 0.0]), maximize=False)
        assert np.array_equal(v, np.eye(3)[2]) and val == 0.0

    def test_rank_deficient_stays_on_lp_path(self):
        b = np.array([[1.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
        assert solvers._CrossSection(b).vertices is None

    def test_cofactor_from_inverse_and_minors(self, rng):
        for q in (rng.standard_normal((4, 4)),
                  np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0],
                            [1.0, 0.0, 1.0]])):
            det = np.linalg.det(q)
            for j in range(q.shape[0]):
                cof = solvers._cofactor_col(q, j)
                assert cof @ q[:, j] == pytest.approx(det, abs=1e-12)
                moved = q.copy()
                moved[:, j] += 1.0
                assert cof @ moved[:, j] == pytest.approx(
                    np.linalg.det(moved), abs=1e-10)


class TestMinvolOrder2:
    def test_identity(self):
        fac = minvol_order2_ntd(np.eye(4), 4, CFG)
        assert fac.absdet == pytest.approx(1.0, abs=1e-10)
        assert align_error(fac.u1, np.eye(4)) <= 1e-10

    def test_synthetic_ssc_instance(self, rng):
        u1 = two_nonzero_ssc(20, 4, rng)
        u2 = two_nonzero_ssc(20, 4, rng)
        g = rng.standard_normal((4, 4))
        x = u1 @ g @ u2.T
        fac = minvol_order2_ntd(x, 4, CFG)
        assert align_error(fac.u1, u1) <= 1e-6
        assert align_error(fac.u2, u2) <= 1e-6
        assert np.linalg.norm(x - fac.reconstruct()) <= 1e-9 * \
            np.linalg.norm(x)

    def test_rank_mismatch(self, rng):
        x = np.outer(rng.random(6), rng.random(7))
        with pytest.raises(RankError):
            minvol_order2_ntd(x, 3, CFG)

    def test_determinism(self, rng):
        u1 = two_nonzero_ssc(15, 3, rng)
        u2 = two_nonzero_ssc(14, 3, rng)
        x = u1 @ rng.standard_normal((3, 3)) @ u2.T
        a = minvol_order2_ntd(x, 3, CFG)
        b = minvol_order2_ntd(x, 3, CFG)
        assert np.array_equal(a.u1, b.u1) and np.array_equal(a.g, b.g)


class TestMinvolNmf:
    def test_identity(self):
        w, h = minvol_nmf(np.eye(4), 4, CFG)
        assert align_error(h, np.eye(4)) <= 1e-10

    def test_synthetic(self, rng):
        u3 = two_nonzero_ssc(15, 3, rng)
        s = rng.standard_normal((9, 3))
        x = s @ u3.T
        w, h = minvol_nmf(x, 3, CFG)
        assert align_error(h, u3) <= 1e-6
        assert np.abs(h.sum(axis=0) - 1.0).max() <= 1e-9
        assert h.min() >= -1e-9

    def test_needs_enough_rows(self, rng):
        with pytest.raises(ShapeError):
            minvol_nmf(rng.random((2, 5)), 3, CFG)


class TestSpa:
    def test_identity(self):
        anchors, w, h = spa_separable_nmf(np.eye(4), 4)
        assert anchors == [0, 1, 2, 3]

    def test_synthetic_separable(self, rng):
        w_true = rng.standard_normal((30, 5))
        h_true = gen_separable_factor(25, 5, rng)
        x = w_true @ h_true.T
        anchors, w, h = spa_separable_nmf(x, 5)
        # anchors are exactly the identity-block rows of the separable side
        assert sorted(anchors) == list(range(5))
        assert np.linalg.norm(x - w @ h.T) <= 1e-9 * np.linalg.norm(x)

    def test_non_separable_rejected(self, rng):
        u = two_nonzero_ssc(20, 4, rng)  # SSC but not separable
        x = rng.standard_normal((12, 4)) @ u.T
        with pytest.raises(NotSeparable):
            spa_separable_nmf(x, 4)


class TestSeparableOrder2:
    def test_identity(self):
        fac = separable_order2_ntd(np.eye(4), 4)
        assert align_error(fac.u1, np.eye(4)) <= 1e-12
        assert align_error(fac.u2, np.eye(4)) <= 1e-12

    def test_synthetic(self, rng):
        u1 = gen_separable_factor(30, 4, rng)
        u2 = gen_separable_factor(25, 4, rng)
        g = rng.standard_normal((4, 4))
        x = u1 @ g @ u2.T
        fac = separable_order2_ntd(x, 4)
        assert align_error(fac.u1, u1) <= 1e-8
        assert align_error(fac.u2, u2) <= 1e-8

    def test_core_relation_after_alignment(self, rng):
        from ntdkit.evaluate import align_columns
        u1 = gen_separable_factor(20, 3, rng)
        u2 = gen_separable_factor(18, 3, rng)
        g = rng.standard_normal((3, 3))
        x = u1 @ g @ u2.T
        fac = separable_order2_ntd(x, 3)
        p1, _ = align_columns(fac.u1, u1)
        p2, _ = align_columns(fac.u2, u2)
        assert np.abs(fac.g[np.ix_(p1, p2)] - g).max() <= 1e-8


class TestRankDeficientCaveat:
    def test_counterexample_numbers(self):
        # det(G'G) is invariant under this non-permutation basis change,
        # which is why the square-determinant objective is not used for
        # unequal inner ranks.
        a = np.array([[1.0, 0.5], [0.0, 0.5]])
        g = np.array([[1.0], [0.0]])
        c = np.linalg.solve(a, g)
        assert np.linalg.det(c.T @ c) == 1.0
        assert np.linalg.det(g.T @ g) == 1.0
        assert np.linalg.det(a) ** 2 == 0.25
        assert np.array_equal(a.T @ np.ones(2), np.ones(2))


class TestSuboptimalityImplication:
    def test_det_match_implies_recovery(self, rng):
        # A feasible point whose volume does not exceed the ground truth
        # must be the ground truth up to permutation.
        for seed in range(5):
            r2 = np.random.default_rng(2000 + seed)
            u1 = two_nonzero_ssc(18, 4, r2)
            u2 = two_nonzero_ssc(18, 4, r2)
            g = r2.standard_normal((4, 4))
            x = u1 @ g @ u2.T
            fac = minvol_order2_ntd(x, 4, SolverConfig(seed=seed))
            if fac.absdet <= abs(np.linalg.det(g)) * (1 + 1e-8):
                assert align_error(fac.u1, u1) <= 1e-6
                assert align_error(fac.u2, u2) <= 1e-6


class TestConfig:
    def test_invalid_config(self):
        with pytest.raises(ShapeError):
            SolverConfig(max_sweeps=0)

    def test_derive_seed_stable(self):
        assert derive_seed(5, "a", 1) == derive_seed(5, "a", 1)
        assert derive_seed(5, "a") != derive_seed(5, "b")
