import itertools

import numpy as np
import pytest

from ntdkit.lp import cross_section_vertices, linprog_dense
from ntdkit.solvers import orthonormal_range
from ntdkit.synth import gen_instance
from ntdkit.tensor import unfold


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
    """One subset at a time, in the same order and with the same filters."""
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
        if (b @ y).min() >= -tol * scale:
            out.append(y)
    return np.array(out).reshape(len(out), r)


@pytest.mark.parametrize("n,r", [(28, 5), (12, 3), (7, 2), (5, 1), (2, 4)])
def test_cross_section_vertices_match_naive(n, r):
    rng = np.random.default_rng(1000 * n + r)
    b = rng.random((n, r)) * (rng.random((n, r)) < 0.7)
    for a in (np.ones(r), b.sum(axis=0)):
        fast = cross_section_vertices(b, a)
        assert np.array_equal(fast, naive_cross_section_vertices(b, a))


def test_cross_section_vertices_keep_duplicates():
    # The identity's cross-section is the simplex; with r = 3 each vertex
    # e_k is hit by the single subset of rows that vanish there.
    v = cross_section_vertices(np.eye(3), np.ones(3))
    assert np.array_equal(v, np.eye(3)[::-1])
    # Two copies of a row make every vertex on it degenerate.
    b = np.vstack([np.eye(3), np.eye(3)[:1]])
    v = cross_section_vertices(b, np.ones(3))
    assert len(v) > len(np.unique(v, axis=0))
