import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog, minimize

from ntdkit import cones, lp
from ntdkit.cones import (_p_level, check_pssc, check_separable,
                          check_ssc, counterexample_dims_ok,
                          enumerate_dual_vertices, estimate_min_p,
                          kron_ssc_margin, kron_ssc_sufficient, ssc1_refute,
                          ssc1_violation_witness)
from ntdkit.errors import (EnumerationCapError, InputError, ShapeError,
                           UsageError)
from ntdkit.kron import kron, kron_all
from ntdkit.lp import _VERTEX_ENUM_CAP, cross_section_vertices
from ntdkit.solvers import numerical_rank
from ntdkit.synth import (gen_anchor_factor, gen_separable_factor,
                          gen_ssc_factor)
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


# Kronecker rank pairs of anchored products within r <= 8
_KRON_RANKS = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2))


def anchored_corpus(count=100):
    """Seeded matrices in which every column has an exact anchor row:
    separable, all-anchor and one-nonzero r = 2 factors (the generator's
    r = 2 SSC draw), and Kronecker products of these, each with extra
    nonnegative rows (some of them zero or one-nonzero) added and its rows
    shuffled; r = 2..8, n <= 60."""

    def factor(kind, n, r, rng):
        if kind == 0:
            return gen_separable_factor(n, r, rng)
        if kind == 1:
            return gen_anchor_factor(n, r, rng)
        return gen_ssc_factor(n, 2, rng, nnz_per_row=1)

    out = []
    for seed in range(count):
        rng = np.random.default_rng(7100 + seed)
        kind = seed % 4
        if kind < 3:
            r = 2 if kind == 2 else int(rng.integers(2, 9))
            h = factor(kind, int(rng.integers(r, 50)), r, rng)
        else:
            mats = []
            for r in _KRON_RANKS[int(rng.integers(len(_KRON_RANKS)))]:
                kinds = 3 if r == 2 else 2  # one-nonzero draws are r = 2
                mats.append(factor(int(rng.integers(kinds)),
                                   int(rng.integers(r, 8)), r, rng))
            h = kron_all(mats)
        extra = rng.random((int(rng.integers(0, min(8, 61 - len(h)))),
                            h.shape[1]))
        extra *= rng.random(extra.shape) < 0.5
        h = np.vstack([h, extra])
        out.append(h[rng.permutation(len(h))])
    return out


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

    def test_matches_row_scan(self):
        def row_scan(h, tol=1e-9):
            anchors = []
            for k in range(h.shape[1]):
                for i, row in enumerate(h):
                    if row[k] > 0 and row.sum() - row[k] <= tol * row.max():
                        anchors.append(i)
                        break
                else:
                    return False, None
            return True, anchors

        rng = np.random.default_rng(11)
        separable = 0
        for i in range(200):
            n, r = int(rng.integers(2, 40)), int(rng.integers(1, 9))
            h = rng.random((n, r)) * (rng.random((n, r)) < 0.5)
            # anchor rows, some repeated, some off by less than the tolerance
            rows = rng.integers(0, n, size=int(rng.integers(0, 2 * r)))
            cols = rng.integers(0, r, size=rows.size)
            h[rows] = 0.0
            h[rows, cols] = rng.random(rows.size) + 0.1
            h[rows, (cols + 1) % r] += rng.choice([0.0, 1e-12, 1e-8],
                                                  size=rows.size)
            if i % 2:
                h = np.asfortranarray(h)
            flag, anchors = check_separable(h)
            assert (flag, anchors) == row_scan(np.maximum(h, 0.0))
            assert anchors is None or all(type(a) is int for a in anchors)
            separable += flag
        assert 20 <= separable <= 180


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
        # The double description gives a recession ray exactly when the box
        # LPs find the cross-section unbounded, and the ray refutes SSC1.
        seen = set()
        for kind, h in boundedness_corpus():
            r = h.shape[1]
            _, ray = cross_section_vertices(h, np.ones(r), _VERTEX_ENUM_CAP)
            assert (ray is not None) == box_lp_unbounded(h)
            assert enumerate_dual_vertices(h)[1] == (ray is not None)
            full_rank = numerical_rank(np.vstack([h, np.ones(r)])) == r
            seen.add((kind, "bounded" if ray is None else
                      "dd-ray" if full_rank else "null-vector"))
            if ray is None:
                continue
            norm = np.linalg.norm(ray)
            assert norm > 0 and abs(ray.sum()) <= 1e-12 * norm
            scale = max(1.0, float(h.max()))
            assert (h @ ray).min() >= -1e-9 * scale
            y = ssc1_refute(h)
            assert y is not None
            assert (h @ y).min() >= -1e-9 * scale
            assert y.sum() == pytest.approx(1.0, abs=1e-7)
            assert np.linalg.norm(y) > 1.0 + 1e-7
        # bounded with columns summing to one and not, unbounded by a null
        # vector, and unbounded by a ray of the description at full rank
        assert {("stochastic", "bounded"), ("scaled", "bounded"),
                ("low-rank", "null-vector"),
                ("sparse-last", "dd-ray")} <= seen

    def test_no_lp_within_the_ray_budget(self, monkeypatch):
        # Within the ray budget the reports and refutations read the
        # recession ray off the double description and solve no LP.
        calls = []
        real = lp.linprog_dense

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(lp, "linprog_dense", counted)
        monkeypatch.setattr(cones, "linprog_dense", counted)
        checked = 0
        for _, h in boundedness_corpus():
            if h.sum(axis=0).min() > 0:  # check_ssc refuses a zero column
                checked += check_ssc(h).method == "exact-enumeration"
            ssc1_refute(h)
        assert checked >= 200 and calls == []

    def test_lp_search_refutes_every_unbounded_input(self, monkeypatch):
        # Past the ray budget the one unboundedness test (Stiemke's lam = 1,
        # then the box LP) still finds a certificate wherever the double
        # description finds a ray at full rank.
        cases = [h for _, h in boundedness_corpus()
                 if cross_section_vertices(h, np.ones(h.shape[1]),
                                           _VERTEX_ENUM_CAP)[1] is not None
                 and numerical_rank(np.vstack([h, np.ones(h.shape[1])]))
                 == h.shape[1]]
        searched = []
        lp_refute = cones._lp_refute
        monkeypatch.setattr(cones, "_VERTEX_ENUM_CAP", 0)
        monkeypatch.setattr(cones, "_lp_refute",
                            lambda *a: searched.append(1) or lp_refute(*a))
        for h in cases:
            y = ssc1_refute(h)
            assert y is not None
            assert (h @ y).min() >= -1e-9 * max(1.0, float(h.max()))
            assert y.sum() == pytest.approx(1.0, abs=1e-7)
            assert np.linalg.norm(y) > 1.0 + 1e-7
        # 80 of the 89 pass a budget of 0 rays; the rest need no cut
        assert len(cases) == 89 and len(searched) == 80


class TestAnchoredClosedForm:
    """An exact anchor row per column makes the dual cross-section the unit
    simplex, which ``_vertices`` returns without a double description;
    it must agree with the double description it replaces."""

    def test_enumeration_agrees_with_double_description(self):
        shapes = set()
        for h in anchored_corpus():
            n, r = h.shape
            shapes.add((r, n > 30))
            v, unbounded = enumerate_dual_vertices(h)
            assert np.array_equal(v, np.eye(r)[::-1]) and not unbounded
            assert v.flags.c_contiguous and v.flags.writeable
            w, ray = cross_section_vertices(h, np.ones(r),
                                            _VERTEX_ENUM_CAP, 1e-9)
            assert (ray is not None) == unbounded
            assert np.array_equal(w, v)
        assert shapes == {(r, big) for r in range(2, 9)
                          for big in (False, True)}

    def test_reports_agree_with_double_description(self, monkeypatch):
        cases = anchored_corpus()

        def outputs():
            return [(check_ssc(h).to_json(), check_pssc(h, 1.0),
                     check_pssc(h, math.sqrt(h.shape[1] - 1)),
                     estimate_min_p(h)) for h in cases]

        closed = outputs()
        monkeypatch.setattr(cones, "_anchored", lambda h: False)
        for got, ref in zip(closed, outputs()):
            assert got == ref
            assert got[0]["ssc"] and got[1:] == (True, True, 1.0)

    def test_anchor_test_skipped_only_when_not_separable(self, monkeypatch):
        # An exact anchor row qualifies as a separability anchor, so
        # check_ssc skips the anchor test on a matrix it found not
        # separable; reports stay as when every matrix takes the test.
        rng = np.random.default_rng(33)
        cases = anchored_corpus(40)
        cases += [two_nonzero(int(rng.integers(r + 2, 30)), r, rng)
                  for r in range(2, 8) for _ in range(4)]
        for h in anchored_corpus(20):  # an anchor entry moved off
            h = h.copy()
            h[int(np.flatnonzero((h > 0).sum(axis=1) == 1)[0]),
              int(rng.integers(h.shape[1]))] += 1e-13
            cases.append(h)
        for h in cases:
            valid = cones._validate_nonneg(h)
            assert cones._separable(valid)[0] or not cones._anchored(valid)
        tested = []
        anchored, vertices = cones._anchored, cones._vertices
        reports = [check_ssc(h).to_json() for h in cases]
        monkeypatch.setattr(cones, "_anchored",
                            lambda h: tested.append(1) or anchored(h))
        monkeypatch.setattr(cones, "_vertices",
                            lambda h, tol, separable=True: vertices(h, tol))
        assert [check_ssc(h).to_json() for h in cases] == reports
        assert len(tested) == len(cases)
        assert sum(not check_separable(h)[0] for h in cases) >= 20

    def test_double_description_rounding_is_not_kept(self, monkeypatch):
        # The 20x8 product of separable 5x4 and 4x2 factors, with three
        # positive rows: the double description lists e_5 with a -1e-16
        # first entry, which sorts it first.  The closed form lists the
        # exact simplex, and every verdict stays.
        rng = np.random.default_rng(11)
        h = kron_all([gen_separable_factor(5, 4, rng),
                      gen_separable_factor(4, 2, rng)])
        h = np.vstack([h, rng.random((3, 8))])[rng.permutation(23)]
        w, ray = cross_section_vertices(h, np.ones(8), _VERTEX_ENUM_CAP, 1e-9)
        assert ray is None and not np.array_equal(w, np.eye(8)[::-1])
        assert same_vertices(w, np.eye(8))
        assert np.array_equal(enumerate_dual_vertices(h)[0],
                              np.eye(8)[::-1])
        verdicts = ("separable", "anchors", "ssc", "ssc1", "ssc2",
                    "unbounded", "refutation", "method")
        got = check_ssc(h).to_json()
        monkeypatch.setattr(cones, "_anchored", lambda h: False)
        ref = check_ssc(h).to_json()
        assert {k: got[k] for k in verdicts} == {k: ref[k] for k in verdicts}
        assert got["max_vertex_norm"] == 1.0
        assert ref["max_vertex_norm"] == pytest.approx(1.0, abs=1e-15)

    def test_near_and_filtered_anchors_still_enumerate(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            cones, "cross_section_vertices",
            lambda *a: calls.append(1) or cross_section_vertices(*a))
        exact = gen_separable_factor(12, 4, np.random.default_rng(5))
        assert np.array_equal(enumerate_dual_vertices(exact)[0],
                              np.eye(4)[::-1])
        assert check_ssc(exact).ssc and calls == []
        # an anchor with a 1e-13 off entry: separable within tolerance,
        # yet column 0 has no exact anchor
        near = exact.copy()
        near[0, 1] = 1e-13
        assert check_separable(near)[0]
        v, unbounded = enumerate_dual_vertices(near)
        assert len(calls) == 1 and not unbounded and len(v) >= 4
        # an anchor below the row filter constrains nothing, so the
        # cross-section is unbounded, not the simplex
        low = np.array([[1e-14, 0.0], [0.0, 1.0]])
        v, unbounded = enumerate_dual_vertices(low)
        assert len(calls) == 2 and unbounded
        assert np.array_equal(v, [[1.0, 0.0]])
        # past the caps, as before, and in the public refutation, which
        # takes the closed form too
        with pytest.raises(EnumerationCapError):
            enumerate_dual_vertices(gen_anchor_factor(61, 2))
        assert ssc1_refute(exact) is None and len(calls) == 2


class TestCheckSsc:
    @pytest.mark.parametrize("r", range(2, 7))
    def test_identity_ssc(self, r):
        rep = check_ssc(np.eye(r))
        assert rep.separable and rep.ssc1 and rep.ssc2 and rep.ssc
        assert rep.max_vertex_norm == pytest.approx(1.0)
        assert rep.method == "exact-enumeration"

    def test_no_reuse_outside_generation(self, rng, monkeypatch):
        h = two_nonzero_ssc(20, 4, rng)
        runs = []
        extreme_rays = lp._extreme_rays
        monkeypatch.setattr(lp, "_extreme_rays",
                            lambda *a: runs.append(1) or extreme_rays(*a))
        first, second = check_ssc(h), check_ssc(h)
        assert len(runs) == 2
        assert first is not second
        assert first.to_json() == second.to_json()

    def test_input_validated_once(self, rng, monkeypatch):
        # The report's separability test and enumeration read the array
        # check_ssc validated.
        h = two_nonzero_ssc(24, 5, rng)
        calls = []
        validate = cones._validate_nonneg
        monkeypatch.setattr(cones, "_validate_nonneg",
                            lambda *a: calls.append(1) or validate(*a))
        rep = check_ssc(h)
        assert rep.method == "exact-enumeration" and len(calls) == 1

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

    def test_ssc2_matches_vertex_loop(self, rng):
        def vertex_loop(vertices, r, tol=1e-7):
            for v in vertices:
                if np.linalg.norm(v) >= 1.0 - tol and min(
                        np.linalg.norm(v - np.eye(r)[k])
                        for k in range(r)) > tol:
                    return False
            return True

        cases = [two_nonzero_ssc(20, 4, rng) for _ in range(4)]
        cases += [gen_separable_factor(20, 4, rng) for _ in range(4)]
        cases += [h for h in refutation_corpus(40) if len(h) <= 60]
        seen = set()
        for h in cases:
            rep = check_ssc(h)
            assert rep.ssc2 == vertex_loop(rep.dual_vertices, h.shape[1])
            seen.add(rep.ssc2)
        assert seen == {True, False}

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


@pytest.mark.parametrize("check", [check_ssc, ssc1_refute,
                                   enumerate_dual_vertices])
def test_input_checked_as_check_ssc(check):
    # a nan or an infinite entry is refused like a nan tolerance
    nan = np.eye(3)
    nan[0, 1] = np.nan
    for bad in (nan, np.array([[np.inf, 1.0], [0.0, 1.0], [1.0, 0.0]])):
        with pytest.raises(ShapeError, match="finite"):
            check(bad)
    # finite entries whose column sum overflows
    with pytest.raises(InputError, match="non-finite"):
        check(np.array([[1e308, 1.0], [1e308, 0.0], [0.0, 1.0]]))
    # large entries with finite column sums pass, on either side of the
    # bound past which the sums are checked
    for scale in (1e299, 1e307):
        cones._validate_nonneg(np.vstack([np.eye(3), np.ones(3)]) * scale,
                               "the SSC")
    for h in (-np.eye(3), np.ones(3), np.ones((3, 1))):
        with pytest.raises(UsageError):
            check(h)


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

    def test_exact_within_budget_and_lp_search_sound(self, monkeypatch):
        # Within the ray budget the refutation is exact; with no budget the
        # LP search finds only certificates, none longer than the exact one.
        cases = list(refutation_corpus())
        exact, kinds = [], []
        for i, h in enumerate(cases):
            # every cross-section here is bounded and within the budget
            assert cross_section_vertices(h, np.ones(h.shape[1]),
                                          _VERTEX_ENUM_CAP)[1] is None
            y = ssc1_refute(h, rng=i)
            rep = check_ssc(h, rng=i)
            assert (y is not None) == (rep.ssc1 is False)
            if rep.method == "exact-enumeration" and y is not None:
                assert np.array_equal(y, rep.refutation)
                assert np.linalg.norm(y) == pytest.approx(
                    rep.max_vertex_norm, rel=1e-15)
            exact.append(y)
            kinds.append((rep.method, y is not None))
        monkeypatch.setattr(cones, "_VERTEX_ENUM_CAP", 0)
        found = 0
        for i, (h, y) in enumerate(zip(cases, exact)):
            y_lp = ssc1_refute(h, rng=i)
            if y_lp is None:
                continue
            found += 1
            assert (h @ y_lp).min() >= -1e-9 * max(1.0, h.max())
            assert y_lp.sum() == pytest.approx(1.0, abs=1e-7)
            assert np.linalg.norm(y_lp) > 1.0 + 1e-7
            assert y is not None
            assert np.linalg.norm(y_lp) <= np.linalg.norm(y) * (1 + 1e-9)
        # refuted and unrefuted inputs on both sides of the n cap
        assert len(set(kinds)) == 4
        assert 30 <= found <= sum(refuted for _, refuted in kinds)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_check_ssc_runs_one_double_description(self, seed,
                                                   monkeypatch):
        # A dense 60x8 input passes the ray budget; the refutation search
        # then steps by LP instead of repeating the double description.
        h = np.random.default_rng(seed).random((60, 8))
        runs = []
        extreme_rays = lp._extreme_rays
        monkeypatch.setattr(lp, "_extreme_rays",
                            lambda *a: runs.append(1) or extreme_rays(*a))
        report = check_ssc(h)
        assert len(runs) == 1
        assert report.method == "refutation-search-only"
        assert report.ssc1 is False
        # the public search runs its own double description, to no avail
        assert np.array_equal(report.refutation, ssc1_refute(h))
        assert len(runs) == 2


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


def per_vertex_p_level(v):
    """The closed form of ``cones._p_level`` for one vertex, support table
    built afresh: the per-vertex computation the batched one replaced."""
    if v.min() >= -cones._P_TOL:
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


def random_vertex(rng, r, on_support):
    """A point summing to one with a negative entry below -1e-3; when
    ``on_support``, nonzero on a random support of 2..r entries only, as
    vertices on several facets are."""
    while True:
        k = int(rng.integers(2, r + 1)) if on_support else r
        w = rng.standard_normal(k) * rng.uniform(0.2, 3.0)
        w += (1.0 - w.sum()) / k
        if w.min() < -1e-3:
            v = np.zeros(r)
            v[rng.permutation(r)[:k]] = w
            return v


class TestVertexPLevel:
    def test_matches_slsqp(self, rng):
        # Vertices of the dual cross-section sum to one; only those with a
        # negative entry have a level above 1.  Every third draw is put on
        # a random support and is exactly zero off it.  One vertex at a
        # time, the batched level is SLSQP's and the per-vertex closed
        # form's.
        for checked in range(120):
            r = int(rng.integers(2, 9))
            v = random_vertex(rng, r, checked % 3 == 0)
            level = _p_level(v[None])
            assert 1.0 < level <= math.sqrt(r)
            assert level == pytest.approx(slsqp_p_level(v), rel=1e-6)
            assert level == pytest.approx(per_vertex_p_level(v), rel=1e-12,
                                          abs=0.0)

    @pytest.mark.parametrize("block", [cones._P_BLOCK, 1])
    def test_rows_give_their_maximum(self, rng, block, monkeypatch):
        # Several vertices, some nonnegative, give the largest of their
        # one-row levels, also when each block holds a single vertex.
        monkeypatch.setattr(cones, "_P_BLOCK", block)
        for trial in range(70):
            r = 2 + trial % 7
            rows = [random_vertex(rng, r, trial % 2 == 0)
                    for _ in range(int(rng.integers(1, 12)))]
            rows += [np.eye(r)[k] for k in range(trial % 3)]
            vertices = np.array(rows)[rng.permutation(len(rows))]
            assert _p_level(vertices) == max(_p_level(v[None])
                                             for v in vertices)
        assert _p_level(np.zeros((0, 3))) == 1.0

    def test_support_table_is_cached_read_only(self):
        table, sizes = cones._supports(4)
        assert cones._supports(4)[0] is table
        assert table.shape == (15, 4) and set(table.ravel()) == {0.0, 1.0}
        assert np.array_equal(sizes, table.sum(axis=1))
        for array in (table, sizes):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 2.0

    def test_nonnegative_vertex_is_one(self):
        for v in ([0.5, 0.5, 0.0], [-1e-12, 0.5, 0.5 + 1e-12], [1.0, 0.0]):
            assert _p_level(np.array([v])) == 1.0

    def test_norm_one_vertex_sits_at_sqrt_r_minus_1(self):
        # Full support: level^2 = r - 1/||v||^2, so sqrt(r-1) at norm one.
        v = np.array([[2.0, 2.0, -1.0]]) / 3.0
        assert _p_level(v) == pytest.approx(math.sqrt(2))


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

    @pytest.mark.parametrize("r1,r2", [(-1, 2), (1, 5), (4, 0)])
    def test_ranks_below_two_refused(self, r1, r2):
        with pytest.raises(UsageError, match="r >= 2"):
            counterexample_dims_ok(r1, r2)


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

    def test_factor_without_rows_refused(self):
        # was: a raw ValueError from a reduction over no rows
        empty = np.zeros((0, 2))
        with pytest.raises(UsageError, match="u1 has no rows"):
            ssc1_violation_witness(empty, np.eye(2))
        with pytest.raises(UsageError, match="u2 has no rows"):
            ssc1_violation_witness(np.eye(3), empty)

    def test_factors_read_as_the_cone_checks_read_them(self):
        # the factors pass the cone checks' one nonnegativity rule, with
        # each message naming its factor
        with pytest.raises(UsageError, match="u2 has negative entries"):
            ssc1_violation_witness(np.eye(2), np.array([[1.5, -0.5],
                                                        [0.0, 1.0]]))
        with pytest.raises(UsageError, match="u1 needs r >= 2"):
            ssc1_violation_witness(np.ones((3, 1)), np.eye(2))
        tiny = np.array([[1.0 + 1e-13, -1e-13], [0.0, 1.0]])
        assert ssc1_violation_witness(tiny, np.eye(3)) is None
        # rows are summed as given: a row past 1e100 is not rescaled into
        # a stochastic one
        huge = np.array([[2.0 ** 400, 2.0 ** 400], [0.5, 0.5]])
        with pytest.raises(UsageError, match="u1 is not row-stochastic"):
            ssc1_violation_witness(huge, np.eye(2))



@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_huge_entries_keep_every_verdict(scale):
    # squared entries past 1e154 overflowed inside the checks (a
    # RuntimeWarning); rows are now scaled, which leaves the cone as it is
    for h in (gen_ssc_factor(12, 4, 0), np.vstack([np.eye(3), np.ones(3)]),
              np.random.default_rng(2).random((10, 3))):
        want = check_ssc(h)
        for m in (h * scale, np.vstack([h[:1] * scale, h[1:]])):
            got = check_ssc(m)
            for name in ("separable", "anchors", "ssc1", "ssc2", "unbounded"):
                assert getattr(got, name) == getattr(want, name)
            assert estimate_min_p(m) == pytest.approx(estimate_min_p(h))
