import re
from itertools import combinations
from math import comb

import numpy as np
import pytest

from ntdkit import solvers
from ntdkit.errors import NotSeparable, RankError, ShapeError, SolverError
from ntdkit.lp import _VERTEX_ENUM_CAP, cross_section_vertices
from ntdkit.solvers import (SolverConfig, derive_seed, maxdet_simplex,
                            minvol_nmf, minvol_order2_ntd, numerical_rank,
                            separable_order2_ntd, spa_separable_nmf)
from ntdkit.synth import gen_separable_factor
from tests.conftest import (align_error, range_basis, stochastic,
                            two_nonzero, two_nonzero_ssc)

CFG = SolverConfig(seed=7)


def hexagon_columns(rng):
    """Rank-2 data whose columns point along 0, 60, ..., 300 degrees and so
    positively span their range."""
    angles = np.arange(6) * np.pi / 3
    return rng.random((5, 2)) @ np.array([np.cos(angles), np.sin(angles)])


class TestRankTools:
    def test_numerical_rank(self, rng):
        a = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 8))
        assert numerical_rank(a) == 3
        assert numerical_rank(np.zeros((4, 4))) == 0

    @pytest.mark.parametrize("r", [0, -1])
    def test_non_positive_rank_rejected(self, r):
        # A rank-0 request on a zero matrix once reached scipy's nnls with
        # a 0 x 0 system, which aborts the interpreter.
        x = np.zeros((3, 4))
        for left in (True, False):
            with pytest.raises(ShapeError):
                solvers._rank_r_svd(x, r, left)
        with pytest.raises(ShapeError):
            spa_separable_nmf(x, r)

    def test_exact_rank_bases_agree_with_two_step(self):
        # rank-k products of random shapes, k one below, at or above r
        agreed = 0
        for seed in range(60):
            rng = np.random.default_rng(3000 + seed)
            m, n = rng.integers(3, 12, size=2)
            r = int(rng.integers(1, min(m, n) + 1))
            k = int(np.clip(r + rng.integers(-1, 2), 0, min(m, n)))
            x = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
            if numerical_rank(x) != r:
                with pytest.raises(RankError):
                    solvers._rank_r_svd(x, r, left=True)
                continue
            w, _, vt = solvers._rank_r_svd(x, r, left=True)
            z = vt.T
            assert np.array_equal(w, range_basis(x, r))
            b = range_basis(x.T, r)
            assert np.abs(z @ z.T - b @ b.T).max() <= 1e-12
            agreed += 1
        assert 20 <= agreed < 60


def row_space_case(seed):
    """A seeded tall, wide or square (by ``seed % 3``) rank-k product of
    random scale, with r one below, at or above k."""
    rng = np.random.default_rng(5000 + seed)
    small = int(rng.integers(2, 10))
    big = small + int(rng.integers(1, 40))
    m, n = [(big, small), (small, big), (small, small)][seed % 3]
    r = int(rng.integers(1, small + 1))
    k = int(np.clip(r + rng.integers(-1, 2), 0, small))
    x = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
    return x * 10.0 ** rng.uniform(-3, 3), r


def test_row_space_agrees_with_svd():
    decided = 0
    for seed in range(90):
        x, r = row_space_case(seed)
        u, s, vt = np.linalg.svd(x, full_matrices=False)
        if solvers._rank_from_values(s, x.shape) != r:
            with pytest.raises(RankError):
                solvers._rank_r_svd(x, r)
            continue
        u_r, s_r, vt_r = solvers._rank_r_svd(x, r)
        assert u_r is None
        assert s_r.shape == (r,) and vt_r.shape == (r, x.shape[1])
        assert np.abs(s_r - s[:r]).max() <= 1e-12 * s[0]
        sign = np.sign(np.einsum("ij,ij->i", vt_r, vt[:r]))
        assert np.abs(sign[:, None] * vt_r - vt[:r]).max() <= 1e-12
        decided += 1
    assert 30 <= decided < 90


@pytest.mark.parametrize("solve", [
    lambda x, r: spa_separable_nmf(x, r),
    lambda x, r: minvol_order2_ntd(x, r, CFG),
    lambda x, r: minvol_nmf(x, r, CFG),
], ids=["spa_separable_nmf", "minvol_order2_ntd", "minvol_nmf"])
def test_one_svd_per_solve(solve, monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    solve(np.eye(4), 4)
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(RankError):
        solve(np.diag([1.0, 1.0, 1.0, 0.0]), 4)
    assert len(calls) == 1


def test_unmet_fit_keeps_class_and_message(rng, monkeypatch):
    # A tolerance no floating-point fit meets stands in for an input the
    # solver cannot fit; the inner steps keep the default tolerance.
    maxdet, spa = solvers.maxdet_simplex, solvers.spa_separable_nmf
    monkeypatch.setattr(solvers, "maxdet_simplex", lambda b, _: maxdet(b, CFG))
    tiny = SolverConfig(feas_tol=1e-300)
    x = two_nonzero_ssc(12, 4, rng) @ rng.random((4, 4)) \
        @ two_nonzero_ssc(14, 4, rng).T
    for solve in (minvol_order2_ntd, minvol_nmf):
        with pytest.raises(SolverError,
                           match=r"^reconstruction residual \d") as info:
            solve(x, 4, tiny)
        assert type(info.value) is SolverError
    xs = gen_separable_factor(10, 3, rng) @ rng.random((3, 3)) \
        @ gen_separable_factor(12, 3, rng).T
    with pytest.raises(NotSeparable, match=r"^separable residual \d"):
        spa_separable_nmf(xs, 3, tiny.feas_tol)
    monkeypatch.setattr(solvers, "spa_separable_nmf",
                        lambda a, r, _: spa(a, r))
    with pytest.raises(SolverError,
                       match=r"^reconstruction residual \d") as info:
        separable_order2_ntd(xs, 3, tiny.feas_tol)
    assert type(info.value) is SolverError


class TestMaxdetSimplex:
    def test_identity_cross_section(self):
        q = maxdet_simplex(np.eye(4), CFG)
        assert abs(np.linalg.det(q)) == pytest.approx(1.0, abs=1e-12)
        # columns are simplex vertices: a permutation of the identity
        assert np.allclose(np.sort(q, axis=0)[-1], 1.0, atol=1e-12)
        assert np.allclose(q.sum(axis=0), 1.0, atol=1e-12)

    def test_separable_recovery(self, rng):
        u = gen_separable_factor(20, 4, rng)
        b = range_basis(u, 4)
        q = maxdet_simplex(b, CFG)
        assert align_error(b @ q, u) <= 1e-8

    def test_ssc_recovery_rate(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            u = two_nonzero_ssc(20, 4, rng)
            b = range_basis(u, 4)
            q = maxdet_simplex(b, SolverConfig(seed=seed))
            gt = abs(np.linalg.det(np.linalg.lstsq(b, u, rcond=None)[0]))
            val = abs(np.linalg.det(q))
            assert val >= gt - 1e-8  # never below the ground-truth volume
            hits += align_error(b @ q, u) <= 1e-8
        assert hits >= 8

    def test_exact_beats_ascent_and_truth(self):
        for seed in range(120):
            rng = np.random.default_rng(3000 + seed)
            r = int(rng.integers(2, 6))
            if seed % 3 == 2:  # dense: more vertices per row, so few rows
                u = stochastic(int(rng.integers(r, 2 * r + 1)), r, rng)
            else:
                draw = (two_nonzero, gen_separable_factor)[seed % 3]
                u = draw(int(rng.integers(2 * r, 17)), r, rng)
            b = range_basis(u, r)
            v = cross_section_vertices(b, b.sum(axis=0),
                                       _VERTEX_ENUM_CAP)[0]
            q, history = maxdet_simplex(b, CFG, return_history=True)
            val = abs(np.linalg.det(q))
            assert history == pytest.approx([val], rel=1e-12)
            assert all((v == col).all(axis=1).any() for col in q.T)
            assert val >= ascent_value(v, r, rng) * (1 - 1e-12)
            gt = abs(np.linalg.det(np.linalg.lstsq(b, u, rcond=None)[0]))
            assert val >= gt * (1 - 1e-9)

    def test_dense_factor_solved_past_the_old_budget(self):
        # A dense positive factor is not SSC; its 20x5 cross-section has 49
        # vertices and 1.9 M 5-subsets, which the branch and bound solves.
        rng = np.random.default_rng(0)
        h = rng.random((20, 5)) + 0.05
        x = rng.random((8, 5)) @ h.T
        b = range_basis(x.T, 5)
        v = cross_section_vertices(b, b.sum(axis=0), _VERTEX_ENUM_CAP)[0]
        assert comb(len(v), 5) > 1 << 20
        q = maxdet_simplex(b, CFG)
        y = b @ q
        assert y.min() >= -CFG.feas_tol
        assert np.abs(y.sum(axis=0) - 1).max() <= CFG.feas_tol
        assert abs(np.linalg.det(q)) >= ascent_value(v, 5, rng) * (1 - 1e-12)

    def test_over_budget_names_counts(self, monkeypatch):
        rng = np.random.default_rng(0)
        h = rng.random((20, 5)) + 0.05
        x = rng.random((8, 5)) @ h.T
        monkeypatch.setattr(solvers, "_NODE_BUDGET", 100)
        with pytest.raises(SolverError) as exc:
            minvol_nmf(x, 5, CFG)
        # The counts alone: certified SSC factors can be hard to search
        # too, so the message does not guess at the cause.
        m = re.fullmatch(r"(\d+) cross-section vertices give (\d+) vertex "
                         r"5-subsets; the search passed its budget of 100 "
                         r"nodes", str(exc.value))
        assert m and int(m[2]) == comb(int(m[1]), 5)

    @pytest.mark.parametrize("cap", ["_VERTEX_ENUM_CAP", "_NODE_BUDGET"])
    def test_over_budget_raises(self, cap, rng, monkeypatch):
        b = range_basis(two_nonzero_ssc(20, 4, rng), 4)
        monkeypatch.setattr(solvers, cap, 0)
        with pytest.raises(SolverError):
            maxdet_simplex(b, CFG)

    def test_rank_deficient_cross_section_is_unbounded(self):
        # sum(b q) = 1 with b q >= 0 pins b q, so only a rank-deficient b
        # leaves the cross-section a recession ray: a null vector of b.
        b = np.random.default_rng(4).random((6, 2)) @ np.array(
            [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        v, ray = cross_section_vertices(b, b.sum(axis=0), _VERTEX_ENUM_CAP)
        assert len(v) == 0 and np.abs(b @ ray).max() <= 1e-12
        with pytest.raises(SolverError,
                           match="^maxdet cross-section is unbounded$"):
            maxdet_simplex(b, CFG)

    def test_rank_8_ssc_recovered(self):
        # Certified SSC 40x8 factors have 31-42 cross-section vertices and
        # 7.9-118 M 8-subsets; the branch and bound needs a few nodes.
        for seed in range(3):
            rng = np.random.default_rng(seed)
            h = two_nonzero_ssc(40, 8, rng)
            x = rng.random((12, 8)) @ h.T
            assert align_error(minvol_nmf(x, 8, CFG)[1], h) <= 1e-6


def ascent_value(v, r, rng):
    """The largest |det| a coordinate ascent over the rows of ``v`` reaches
    from the first nonsingular r-subset and two random ones: each row of
    the subset moves to the row of largest |det| with the others fixed."""
    best = 0.0
    starts = [next(s for s in combinations(range(len(v)), r)
                   if abs(np.linalg.det(v[list(s)])) > 1e-12)]
    starts += [rng.choice(len(v), r, replace=False) for _ in "ab"]
    for start in starts:
        q = v[list(start)].copy()
        val = abs(np.linalg.det(q))
        while True:
            prev = val
            for j in range(r):
                trial = np.repeat(q[None], len(v), axis=0)
                trial[:, j] = v
                dets = np.abs(np.linalg.det(trial))
                if dets.max() > val:
                    q[j], val = v[int(np.argmax(dets))], dets.max()
            if val <= prev:
                break
        best = max(best, val)
    return best


def subset_search_cases():
    """``(v, r)`` vertex lists of seeded cross-sections for the agreement of
    the two subset searches: two-nonzero (SSC from r = 3), dense positive
    and separable factors at r = 2-6, then symmetric constraint sets whose
    vertices tie in |det|, with seeded row orders and power-of-two row
    scales (which leave the cross-section as it is)."""
    draws = (lambda n, r, rng: two_nonzero_ssc(n, r, rng) if r > 2
             else two_nonzero(n, r, rng),
             lambda n, r, rng: stochastic(n, r, rng),
             gen_separable_factor)
    for seed in range(120):
        rng = np.random.default_rng(7000 + seed)
        r, kind = 2 + seed % 5, seed // 5 % 3
        n = int(rng.integers(r + 1, r + 3)) if kind == 1 \
            else int(rng.integers(3 * r, 4 * r + 1))
        b = range_basis(draws[kind](n, r, rng), r)
        yield cross_section_vertices(b, b.sum(axis=0),
                                     _VERTEX_ENUM_CAP)[0], r
    for seed in range(24):
        rng = np.random.default_rng(8000 + seed)
        r = 3 + seed % 2
        eye = np.eye(r)
        b = np.array([eye[i] - eye[j] + 1 for i in range(r)
                      for j in range(r) if i != j])
        a = b.sum(axis=0)
        if seed >= 2:
            b = b[rng.permutation(len(b))] \
                * 2.0 ** rng.integers(-3, 4, (len(b), 1))
        yield cross_section_vertices(b, a, _VERTEX_ENUM_CAP)[0], r


def test_table_and_branch_and_bound_agree():
    # The table scores every subset; the branch and bound must return the
    # same subset and |det| bit for bit, ties to the lowest subset.
    searched = tied = 0
    for v, r in subset_search_cases():
        count = comb(len(v), r)
        if len(v) < r or count > 3000:
            continue
        best, val = solvers._scan_table(v, r)
        assert solvers._branch_and_bound(v, r, count) == (tuple(best), val)
        dets = np.abs(np.linalg.det(v[solvers._subset_table(len(v), r)]))
        searched += 1
        tied += int((dets == val).sum() > 1)
    assert searched >= 100 and tied >= 10


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

    def test_positively_spanning_columns_collapse(self, rng):
        # Columns along 0, 60, ..., 300 degrees: the cross-section holds
        # y = 0 alone, so there is no vertex and no simplex.
        with pytest.raises(SolverError,
                           match="determinant maximization collapsed"):
            minvol_nmf(hexagon_columns(rng), 2, CFG)


@pytest.mark.parametrize("m,n,r", [(9, 64, 3), (16, 64, 4), (64, 16, 4),
                                   (40, 12, 3)])
def test_minvol_nmf_bits_ignore_layout(m, n, r):
    # Wide and tall inputs stored row-major, column-major and as the
    # transpose of a row-major copy.
    rng = np.random.default_rng(m * n)
    for _ in range(3):
        x = rng.random((m, r)) @ two_nonzero(n, r, rng).T
        outs = {(w.tobytes(), h.tobytes()) for w, h in (
            minvol_nmf(v, r, CFG) for v in (
                np.ascontiguousarray(x), np.asfortranarray(x),
                np.ascontiguousarray(x.T).T))}
        assert len(outs) == 1


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

    def test_positively_spanning_columns_have_no_facets(self, rng):
        with pytest.raises(NotSeparable,
                           match="column cone has 0 facets, expected 2"):
            spa_separable_nmf(hexagon_columns(rng), 2)

    def test_non_separable_rejected(self, rng):
        u = two_nonzero_ssc(20, 4, rng)  # SSC but not separable
        x = rng.standard_normal((12, 4)) @ u.T
        with pytest.raises(NotSeparable):
            spa_separable_nmf(x, 4)

    def test_ray_budget_is_a_solver_error(self, monkeypatch):
        # Past the budget the cone is unknown, not proved non-separable.
        # A draw whose first r pivoted rows are its anchors needs no cut
        # and so never meets the budget.
        monkeypatch.setattr(solvers, "_VERTEX_ENUM_CAP", 3)
        raised = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.random((30, 4)) @ gen_separable_factor(200, 4, rng).T
            try:
                spa_separable_nmf(x, 4)
            except SolverError as exc:  # NotSeparable is not one
                assert "passed 3 intermediate rays" in str(exc)
                raised += 1
        assert raised >= 3


def reference_spa(x, r, feas_tol=1e-9, extreme_tol=1e-6):
    """The anchor pass through an explicit basis: coordinates ``U_r' x``
    from a thin SVD, and representatives by a shrinking loop, in which the
    first column left is a new direction and every column within 1e-8 of
    it is dropped."""
    from scipy.optimize import nnls

    u, s, _ = np.linalg.svd(x, full_matrices=False)
    if solvers._rank_from_values(s, x.shape) != r:
        raise RankError("rank")
    basis = u[:, :r]
    y = basis.T @ x
    norms = np.linalg.norm(y, axis=0)
    left = np.flatnonzero(norms > 1e-12 * max(norms.max(initial=0.0), 1.0))
    dirs = y / np.where(norms > 0, norms, 1.0)
    rep_cols = []
    while left.size:
        rep_cols.append(int(left[0]))
        dist = np.linalg.norm(dirs[:, left] - dirs[:, left[:1]], axis=0)
        left = left[dist > 1e-8]
    dirs = dirs[:, rep_cols]
    anchors = sorted(rep_cols[k] for k in range(dirs.shape[1])
                     if nnls(np.delete(dirs, k, axis=1), dirs[:, k])[1]
                     > extreme_tol)
    if len(anchors) != r:
        raise NotSeparable("anchors")
    w = x[:, anchors] / np.linalg.norm(x[:, anchors], axis=0)
    h = np.array([nnls(basis.T @ w, col)[0] for col in y.T])
    if np.linalg.norm(x - w @ h.T) > feas_tol * np.linalg.norm(x):
        raise NotSeparable("residual")
    return anchors, w, h


def separable_case(seed):
    """A seeded tall (even seed) or wide separable ``x = w h'`` whose
    columns are shuffled and include rescaled repeats of some columns."""
    rng = np.random.default_rng(6000 + seed)
    r = int(rng.integers(2, 7))
    n = r + int(rng.integers(0, 20))
    m = n + int(rng.integers(1, 60)) if seed % 2 == 0 else \
        int(rng.integers(r, n + 1))
    h = gen_separable_factor(n, r, rng)
    x = rng.random((m, r)) @ h.T
    repeats = rng.integers(0, n, size=int(rng.integers(0, 5)))
    x = np.hstack([x, x[:, repeats] * rng.uniform(0.5, 2.0, len(repeats))])
    return x[:, rng.permutation(x.shape[1])], r


def test_spa_matches_reference_route():
    shapes = set()
    for seed in range(40):
        x, r = separable_case(seed)
        anchors, w, h = spa_separable_nmf(x, r)
        ref_anchors, ref_w, ref_h = reference_spa(x, r)
        assert anchors == ref_anchors
        assert np.array_equal(w, ref_w)
        assert np.abs(h - ref_h).max() <= 1e-12 * max(1.0, np.abs(h).max())
        shapes.add(x.shape[0] > x.shape[1])
    assert shapes == {True, False}


@pytest.mark.parametrize("make,error", [
    (lambda rng: rng.random((30, 4)) @ two_nonzero_ssc(20, 4, rng).T,
     NotSeparable),
    (lambda rng: rng.random((8, 4)) @ two_nonzero_ssc(20, 4, rng).T,
     NotSeparable),
    (lambda rng: rng.random((30, 3)) @ gen_separable_factor(20, 3, rng).T,
     RankError),
    (lambda rng: rng.random((30, 5)) @ gen_separable_factor(20, 5, rng).T,
     RankError),
], ids=["ssc-tall", "ssc-wide", "rank-below", "rank-above"])
def test_spa_fails_like_reference_route(make, error):
    for seed in range(3):
        x = make(np.random.default_rng(seed))
        with pytest.raises(error):
            spa_separable_nmf(x, 4)
        with pytest.raises(error):
            reference_spa(x, 4)


@pytest.mark.parametrize("solve", [
    lambda x, r: spa_separable_nmf(x, r),
    lambda x, r: minvol_nmf(x, r, CFG),
], ids=["spa_separable_nmf", "minvol_nmf"])
def test_tall_input_factored_through_r(solve, monkeypatch):
    # A 2000x60 input: the SVD sees the 60x60 R factor, never the input.
    rng = np.random.default_rng(8)
    x = rng.random((2000, 4)) @ gen_separable_factor(60, 4, rng).T
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    solve(x, 4)
    assert shapes == [(60, 60)]


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
            SolverConfig(feas_tol=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 5 + 2**64])
    def test_seed_outside_64_bits_refused(self, seed):
        # derive_seed keeps the low 64 bits, so these would alias 2**64 - 1,
        # 0 and 5
        with pytest.raises(ShapeError, match="seed"):
            SolverConfig(seed=seed)

    def test_seed_range_ends(self):
        assert SolverConfig(seed=2**64 - 1).seed == 2**64 - 1
        assert SolverConfig(seed=0).seed == 0

    def test_derive_seed_stable(self):
        assert derive_seed(5, "a", 1) == derive_seed(5, "a", 1)
        assert derive_seed(5, "a") != derive_seed(5, "b")


class TestFitCheckScale:
    # np.linalg.norm squares the entries, so below about 1e-154 both norms
    # lost their bits and any fit read as residual 0

    X = np.random.default_rng(0).random((12, 8))

    @pytest.mark.parametrize("x,fit", [
        (1e-170 * X, np.zeros_like(X)),
        (1e-160 * X, 1e-160 * X * (1 + 1e-5)),
        (1e-150 * X, 1e-150 * X * (1 + 1e-5)),
    ])
    def test_tiny_misfit_refused(self, x, fit):
        with pytest.raises(SolverError, match="residual 1.000e"):
            solvers._check_fit(x, fit, 1e-9)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-100, 1.0, 1e100])
    def test_relative_residual_independent_of_scale(self, scale):
        fit = self.X * (1 + 2.0 ** -20)
        expected = solvers._check_fit(self.X, fit, 1e-3)
        got = solvers._check_fit(scale * self.X, scale * fit, 1e-3)
        assert got == pytest.approx(expected, rel=1e-6, abs=0)
