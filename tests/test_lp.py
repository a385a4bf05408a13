import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import ntdkit
from ntdkit import lp
from ntdkit.errors import EnumerationCapError
from ntdkit.lp import (_VERTEX_ENUM_CAP, cross_section_vertices,
                       linprog_dense)
from ntdkit.solvers import orthonormal_range
from ntdkit.synth import gen_instance
from ntdkit.tensor import SliceSpec, slice_matrix, unfold
from tests.conftest import same_vertices


def test_bounded_max():
    res = linprog_dense([1, 1], a_ub=[[1, 0], [0, 1], [1, 1]], b_ub=[2, 3, 4],
                        bounds=[(0, None)] * 2, maximize=True)
    assert res.status == "optimal"
    assert res.value == pytest.approx(4.0)


def test_free_variables():
    res = linprog_dense([1, 0], a_eq=[[1, 1]], b_eq=[1],
                        bounds=[(None, None), (0, None)], maximize=True)
    assert res.status == "optimal" and res.x[0] == pytest.approx(1.0)


def test_unbounded_with_ray():
    res = linprog_dense([1, 0], a_ub=[[0, 1]], b_ub=[1], maximize=True)
    assert res.status == "unbounded"


def test_infeasible():
    res = linprog_dense([1], a_ub=[[-1], [1]], b_ub=[-1, 0])
    assert res.status == "infeasible"


def test_two_sided_bounds():
    res = linprog_dense([-1, -2], bounds=[(-1, 2), (0, 3)])
    assert res.status == "optimal"
    assert np.allclose(res.x, [2, 3]) and res.value == pytest.approx(-8.0)


def test_beale_degenerate_cycle_guard():
    # Classic cycling example for naive pivoting.
    a = [[0.25, -60, -1 / 25, 9], [0.5, -90, -1 / 50, 3], [0, 0, 1, 0]]
    res = linprog_dense([-0.75, 150, -1 / 50, 6], a_ub=a, b_ub=[0, 0, 1],
                        bounds=[(0, None)] * 4)
    assert res.status == "optimal"
    assert res.value == pytest.approx(-0.05)


def test_simplex_polytope_vertex():
    b = np.eye(3)
    res = linprog_dense([0.3, 0.9, 0.1], a_ub=-b, b_ub=np.zeros(3),
                        a_eq=b.sum(axis=0).reshape(1, -1), b_eq=[1.0],
                        maximize=True)
    assert res.status == "optimal"
    assert np.allclose(res.x, [0, 1, 0]) and res.value == pytest.approx(0.9)


def test_determinism(rng):
    a_ub = rng.standard_normal((8, 4))
    b_ub = rng.random(8) + 0.5
    c = rng.standard_normal(4)
    r1 = linprog_dense(c, a_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * 4,
                       maximize=True)
    r2 = linprog_dense(c, a_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * 4,
                       maximize=True)
    assert r1.status == r2.status
    if r1.x is not None:
        assert np.array_equal(r1.x, r2.x)


def test_optimal_point_is_feasible_on_degenerate_cross_section():
    # A highly degenerate cross-section, where a simplex can reach the
    # optimal value at an infeasible point; the returned point must
    # satisfy the constraints.
    inst = gen_instance("A4.x-unfold", (6, 5, 40), (2, 2, 4),
                        seed=3653893888)
    w = orthonormal_range(unfold(inst.tensor, (2,)).T, 4)
    c = [0.12538095184834225, -0.07189494381006764, -0.003828875152560655,
         0.008843046882808346]
    res = linprog_dense(c, a_ub=-w, b_ub=np.zeros(w.shape[0]),
                        a_eq=w.sum(axis=0).reshape(1, -1), b_eq=[1.0],
                        maximize=True)
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.025, abs=1e-12)
    assert (w @ res.x).min() >= -1e-9
    assert (w @ res.x).sum() == pytest.approx(1.0, abs=1e-9)


def naive_cross_section_vertices(b, a, tol=1e-9):
    """One subset at a time, with the same filters; a solution within
    1e-9 max(1, |v|) of an earlier one ``v`` is a copy and is dropped."""
    n, r = b.shape
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    rhs = np.zeros(r)
    rhs[-1] = 1.0
    out = []
    for combo in itertools.combinations(range(n), r - 1):
        m = np.vstack([b[list(combo)].reshape(r - 1, r), a])
        if abs(np.linalg.det(m)) <= 1e-12 * scale ** (r - 1):
            continue
        y = np.linalg.solve(m, rhs)
        if (b @ y).min() < -tol * scale:
            continue
        if not any(np.abs(y - v).max() <= 1e-9 * max(1.0, np.abs(v).max())
                   for v in out):
            out.append(y)
    return np.array(out).reshape(len(out), r)


def vertices(b, a):
    return cross_section_vertices(b, a, _VERTEX_ENUM_CAP)[0]


@pytest.mark.parametrize("n,r", [(28, 5), (12, 3), (7, 2), (5, 1), (2, 4)])
def test_cross_section_vertices_match_naive(n, r):
    rng = np.random.default_rng(1000 * n + r)
    b = rng.random((n, r)) * (rng.random((n, r)) < 0.7)
    for a in (np.ones(r), b.sum(axis=0)):
        assert same_vertices(vertices(b, a),
                             naive_cross_section_vertices(b, a))


def test_cross_section_vertices_each_vertex_once():
    # The identity's cross-section is the simplex; with r = 3 each vertex
    # e_k is hit by the single subset of rows that vanish there.
    v, unbounded = cross_section_vertices(np.eye(3), np.ones(3),
                                          _VERTEX_ENUM_CAP)
    assert np.array_equal(v, np.eye(3)[::-1]) and not unbounded
    # Two copies of a row make every vertex on it degenerate; each is still
    # listed once.
    b = np.vstack([np.eye(3), np.eye(3)[:1]])
    assert np.array_equal(vertices(b, np.ones(3)), np.eye(3)[::-1])


def test_cross_section_near_zero_rows_constrain_nothing():
    # The range basis of data with all-zero rows has rows of norm ~1e-17
    # there; scaled up to unit length they would cut off true vertices.
    rng = np.random.default_rng(11)
    for r in (2, 4):
        x = rng.random((16, r))
        x[::3] = 0.0
        b = orthonormal_range(x, r)
        assert np.linalg.norm(b[::3], axis=1).max() < 1e-12
        a = b.sum(axis=0)
        v = vertices(b, a)
        assert len(v) and same_vertices(v, naive_cross_section_vertices(b, a))


def test_cross_section_grouped_rows():
    # Procedure d3's first slice on a grouped-row A5.4 instance: 240
    # feasible subsets of rows hit its 4 vertices.
    inst = gen_instance("A5.4", (5, 4, 14, 6), (2, 2, 4, 2), seed=52,
                        partition={"rows": [0, 1], "fixed": [3],
                                   "cols": [2]})
    b = orthonormal_range(
        slice_matrix(inst.tensor, SliceSpec((0, 1), {3: 0}, (2,))), 4)
    a = b.sum(axis=0)
    v = vertices(b, a)
    assert len(v) == 4
    assert same_vertices(v, naive_cross_section_vertices(b, a))


@pytest.mark.parametrize("k", [0, 1, 4])
def test_cross_section_far_vertices_counted_once(k):
    # Slices 0, 1 and 4 of a seed-50 grouped-row A5.4 instance with a = ones:
    # the cross-section is unbounded, and solves of different subsets give
    # its two vertices (entries up to 189) 1-2e-8 apart.
    inst = gen_instance("A5.4", (5, 4, 14, 6), (2, 2, 4, 2), seed=50,
                        partition={"rows": [0, 1], "fixed": [3],
                                   "cols": [2]})
    b = orthonormal_range(
        slice_matrix(inst.tensor, SliceSpec((0, 1), {3: k}, (2,))), 4)
    v, unbounded = cross_section_vertices(b, np.ones(4), _VERTEX_ENUM_CAP)
    assert unbounded and len(v) == 2
    assert same_vertices(v, naive_cross_section_vertices(b, np.ones(4)))


def test_same_vertices_is_strict():
    v = np.array([[0.5, 0.5], [1.0, 0.0]])
    assert same_vertices(v[::-1], v)
    assert not same_vertices(v[:1], v)
    assert not same_vertices(v + [[0.0, 1e-9], [0.0, 0.0]], v)
    assert not same_vertices(v[[0, 0]], v)


def test_cross_section_unbounded_and_rank_deficient():
    # y1 >= 0 alone: the cross-section y1 + y2 = 1 is a ray from e2.
    v, unbounded = cross_section_vertices(np.array([[1.0, 0.0]]),
                                          np.ones(2), _VERTEX_ENUM_CAP)
    assert unbounded and np.array_equal(v, [[0.0, 1.0]])
    v, unbounded = cross_section_vertices(np.full((4, 3), 0.5), np.ones(3),
                                          _VERTEX_ENUM_CAP)
    assert unbounded and v.shape == (0, 3)


def test_cross_section_ray_budget():
    b = np.random.default_rng(3).random((30, 5))
    with pytest.raises(EnumerationCapError):
        cross_section_vertices(b, np.ones(5), 5)


def unchunked_adjacent_pairs(zeros, pos, neg, r):
    """The pair test on the whole |pos| x |neg| count matrix at once."""
    zf = zeros.astype(float)
    shared = zf[pos] @ zf[neg].T
    pi, qi = np.nonzero(shared >= r - 2)
    common = zeros[pos[pi]] & zeros[neg[qi]]
    holders = common @ zf.T >= shared[pi, qi, None] - 0.5
    adjacent = holders.sum(axis=1) == 2
    return pos[pi[adjacent]], neg[qi[adjacent]]


def test_adjacent_pairs_chunks_match_unchunked(monkeypatch):
    # Record every pair test of the double description on a dense 40x6
    # input, then replay each with chunks of 64 entries: pairs, their order
    # and the vertices must not change.
    b = np.random.default_rng(5).random((40, 6))
    calls = []
    adjacent_pairs = lp._adjacent_pairs

    def record(zeros, pos, neg, r):
        calls.append((zeros, pos, neg, r))
        return adjacent_pairs(zeros, pos, neg, r)

    monkeypatch.setattr(lp, "_adjacent_pairs", record)
    v, unbounded = cross_section_vertices(b, np.ones(6), _VERTEX_ENUM_CAP)
    monkeypatch.setattr(lp, "_adjacent_pairs", adjacent_pairs)
    monkeypatch.setattr(lp, "_PAIR_CHUNK", 64)
    assert max(len(pos) * len(neg) for _, pos, neg, _ in calls) > 20 * 64
    for zeros, pos, neg, r in calls:
        p, q = lp._adjacent_pairs(zeros, pos, neg, r)
        p0, q0 = unchunked_adjacent_pairs(zeros, pos, neg, r)
        assert np.array_equal(p, p0) and np.array_equal(q, q0)
    v_small, unbounded_small = cross_section_vertices(b, np.ones(6),
                                                      _VERTEX_ENUM_CAP)
    assert np.array_equal(v_small, v) and unbounded_small == unbounded
    assert len(v) > 20


def test_vertex_path_leaves_scipy_unloaded():
    # scipy.optimize alone costs ~50 MB of RSS; only LPs, NNLS and column
    # matching load it.
    code = ("import sys; import numpy as np; import ntdkit; "
            "ntdkit.check_ssc(np.eye(4)); "
            "print('scipy.optimize' in sys.modules)")
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(ntdkit.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
