import itertools
from math import comb
import os
import subprocess
import sys

import numpy as np
import pytest

import ntdkit
from ntdkit import lp, solvers
from ntdkit.errors import EnumerationCapError
from ntdkit.lp import (_VERTEX_ENUM_CAP, cross_section_vertices,
                       linprog_dense)
from ntdkit.procedures import procedure1, procedure3, procedure_d1
from ntdkit.solvers import SolverConfig, _rank_r_svd, numerical_rank
from ntdkit.synth import gen_instance
from ntdkit.tensor import SliceSpec, slice_matrix, unfold
from tests.conftest import (range_basis, same_vertices, two_nonzero,
                            two_nonzero_ssc)


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
    w = range_basis(unfold(inst.tensor, (2,)).T, 4)
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
    v, ray = cross_section_vertices(np.eye(3), np.ones(3), _VERTEX_ENUM_CAP)
    assert np.array_equal(v, np.eye(3)[::-1]) and ray is None
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
        b = range_basis(x, r)
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
    b = range_basis(
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
    b = range_basis(
        slice_matrix(inst.tensor, SliceSpec((0, 1), {3: k}, (2,))), 4)
    v, ray = cross_section_vertices(b, np.ones(4), _VERTEX_ENUM_CAP)
    assert ray is not None and len(v) == 2
    assert same_vertices(v, naive_cross_section_vertices(b, np.ones(4)))


def test_same_vertices_is_strict():
    v = np.array([[0.5, 0.5], [1.0, 0.0]])
    assert same_vertices(v[::-1], v)
    assert not same_vertices(v[:1], v)
    assert not same_vertices(v + [[0.0, 1e-9], [0.0, 0.0]], v)
    assert not same_vertices(v[[0, 0]], v)


def test_cross_section_unbounded_and_rank_deficient():
    # y1 >= 0 alone: the cross-section y1 + y2 = 1 is a ray from e2.
    v, ray = cross_section_vertices(np.array([[1.0, 0.0]]), np.ones(2),
                                    _VERTEX_ENUM_CAP)
    assert ray is not None and np.array_equal(v, [[0.0, 1.0]])
    v, ray = cross_section_vertices(np.full((4, 3), 0.5), np.ones(3),
                                    _VERTEX_ENUM_CAP)
    assert ray is not None and v.shape == (0, 3)


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
    # Record every block pair test of the double description on a dense
    # 40x6 input, then replay each with chunks of 64 entries: pairs, their
    # order and the vertices must not change.
    b = np.random.default_rng(5).random((40, 6))
    calls = []
    block_pairs = lp._block_pairs

    def record(zeros, pos, neg, r):
        calls.append((zeros, pos, neg, r))
        return block_pairs(zeros, pos, neg, r)

    monkeypatch.setattr(lp, "_block_pairs", record)
    v, ray = cross_section_vertices(b, np.ones(6), _VERTEX_ENUM_CAP)
    monkeypatch.setattr(lp, "_block_pairs", block_pairs)
    monkeypatch.setattr(lp, "_PAIR_CHUNK", 64)
    assert max(len(pos) * len(neg) for _, pos, neg, _ in calls) > 20 * 64
    for zeros, pos, neg, r in calls:
        p, q = lp._block_pairs(zeros, pos, neg, r)
        p0, q0 = unchunked_adjacent_pairs(zeros, pos, neg, r)
        assert np.array_equal(p, p0) and np.array_equal(q, q0)
    v_small, ray_small = cross_section_vertices(b, np.ones(6),
                                                _VERTEX_ENUM_CAP)
    assert np.array_equal(v_small, v) and (ray_small is None) == (ray is None)
    assert len(v) > 20


def random_zero_masks(rng, r):
    """A pair-test input: a ray-by-row zero mask, random or degenerate
    (repeated rays, rays active everywhere or nowhere, dense or sparse
    masks), and disjoint increasing ``pos`` and ``neg`` ray lists."""
    rays, rows = int(rng.integers(2, 30)), int(rng.integers(r, 80))
    zeros = rng.random((rays, rows)) < rng.choice([0.1, 0.5, 0.9])
    kind = int(rng.integers(4))
    if kind == 1:  # repeated rays
        zeros[rng.integers(rays, size=rays // 2)] = zeros[0]
    elif kind == 2:  # a ray active on every row and one on none
        zeros[0], zeros[-1] = True, False
    elif kind == 3:  # unprocessed rows are False for every ray
        zeros[:, rng.random(rows) < 0.5] = False
    side = rng.integers(3, size=rays)
    return (zeros, np.flatnonzero(side == 0), np.flatnonzero(side == 1))


def random_step(rng, r):
    """A double-description step on random rays: values of 0 on the
    processed rows where ``random_zero_masks`` marks a ray active, positive
    elsewhere, and the cut row last, above zero on ``pos``, below on
    ``neg`` and 0 on the other rays."""
    zeros, pos, neg = random_zero_masks(rng, r)
    rays, rows = zeros.shape
    s = np.zeros(rays)
    s[pos] = rng.random(len(pos)) + 0.1
    s[neg] = -rng.random(len(neg)) - 0.1
    vals = np.column_stack([np.where(zeros, 0.0, rng.random(zeros.shape)
                                     + 0.1), s])
    return (rng.standard_normal((rows + 1, r)),
            rng.standard_normal((rays, r)), vals, list(range(rows)), rows)


def step_on_both_paths(monkeypatch, u, rays, vals, rows, masks, i):
    """``lp._adjacent_pairs`` on the block and on the scalar path, rays as
    arrays: the block path returns an array, the scalar path a list."""
    out = []
    for bound, kind in ((0, np.ndarray), (np.inf, list)):
        monkeypatch.setattr(lp, "_BITSET_WORK", bound)
        rays1, vals1, masks1 = lp._adjacent_pairs(u, rays, vals, rows, masks,
                                                  i)
        assert isinstance(rays1, kind)
        out.append((np.array(rays1).reshape(-1, u.shape[1]), vals1, masks1))
    return out


def test_bitset_pairs_equal_block_pairs(monkeypatch):
    # The same new rays, so the same pairs in the same order, and the same
    # values bit for bit from the scalar and the block step at every rank
    # the scalar step takes; the scalar step's masks are its rays' zero
    # masks.
    rng = np.random.default_rng(26)
    adjacent = 0
    for trial in range(600):
        r = 2 + trial % 6
        u, rays, vals, rows, i = random_step(rng, r)
        (rays0, vals0, none), (rays1, vals1, masks) = step_on_both_paths(
            monkeypatch, u, rays, vals, rows, None, i)
        assert np.array_equal(rays1, rays0) and np.array_equal(vals1, vals0)
        assert none is None and masks == lp._zero_masks(vals1, rows + [i])
        adjacent += len(rays1) - np.count_nonzero(vals[:, i] >= 0)
    assert adjacent > 600


def test_scalar_steps_equal_block_steps(monkeypatch):
    # Random small cones at r = 2..7: each recorded step gives the same new
    # rays, so the same pairs in the same order, and the same values bit
    # for bit on the scalar and on the block path, from carried masks and
    # from masks read afresh; the rays at the end do not depend on the
    # path the steps take.  Steps fall on both sides of _BITSET_WORK.
    rng = np.random.default_rng(31)
    step = lp._adjacent_pairs
    steps = []

    def record(u, rays, vals, rows, masks, i):
        steps.append((u, rays, vals, list(rows), masks, i))
        return step(u, rays, vals, rows, masks, i)

    for trial in range(36):
        r = 2 + trial % 6
        n = int(rng.integers(r + 1, 30))
        b = rng.random((n, r)) if trial % 2 else two_nonzero(n, r, rng)
        u = dd_input(b, np.ones(r))
        monkeypatch.setattr(lp, "_adjacent_pairs", record)
        rays = lp._extreme_rays(u, _VERTEX_ENUM_CAP)
        monkeypatch.setattr(lp, "_adjacent_pairs", step)
        for bound in (0, np.inf):
            monkeypatch.setattr(lp, "_BITSET_WORK", bound)
            assert np.array_equal(lp._extreme_rays(u, _VERTEX_ENUM_CAP),
                                  rays)
        monkeypatch.undo()
    small = {len(rays) ** 3 <= lp._BITSET_WORK for _, rays, *_ in steps}
    assert small == {True, False}
    # Rays stay Python lists from a DD's first small step on; only a block
    # step hands on an array.
    for (u, rays, *_), (w, after, *_) in zip(steps, steps[1:]):
        if w is u:
            assert isinstance(after, list) == \
                (len(rays) ** 3 <= lp._BITSET_WORK)
    for u, rays, vals, rows, masks, i in steps:
        out = step_on_both_paths(monkeypatch, u, rays, vals, rows, masks, i)
        if masks is not None:
            out += step_on_both_paths(monkeypatch, u, rays, vals, rows,
                                      None, i)
        for got in out[1:]:
            assert np.array_equal(got[0], out[0][0])
            assert np.array_equal(got[1], out[0][1])
        assert out[-1][2] == out[1][2]


def test_rank_8_steps_take_the_block_path(monkeypatch):
    # numpy sums rows of 8 or more squares in another order than a loop
    # does, so no step at r = 8 runs on the scalar path, however small.
    u = dd_input(np.random.default_rng(8).random((14, 8)), np.ones(8))
    counts = {"_adjacent_pairs": 0, "_block_pairs": 0}
    for name in counts:
        def counted(*args, real=getattr(lp, name), name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(lp, name, counted)
    monkeypatch.setattr(lp, "_BITSET_WORK", np.inf)
    rays = lp._extreme_rays(u, _VERTEX_ENUM_CAP)
    assert counts["_block_pairs"] == counts["_adjacent_pairs"] > 0
    assert np.array_equal(rays, reference_extreme_rays(u, _VERTEX_ENUM_CAP))


@pytest.mark.parametrize("kind", ["two-nonzero", "dense", "kron"])
def test_cross_section_vertices_equal_on_both_pair_tests(kind, monkeypatch):
    rng = np.random.default_rng(len(kind))
    for _ in range(8):
        if kind == "two-nonzero":
            r = int(rng.integers(3, 8))
            b = two_nonzero(int(rng.integers(2 * r, 40)), r, rng)
        elif kind == "dense":
            r = int(rng.integers(2, 6))
            b = rng.random((int(rng.integers(r + 1, 25)), r))
        else:
            b = np.kron(two_nonzero(int(rng.integers(4, 8)), 2, rng),
                        two_nonzero(int(rng.integers(6, 10)), 3, rng))
        b = range_basis(b, b.shape[1])
        out = []
        for bound in (0, lp._BITSET_WORK, np.inf):
            monkeypatch.setattr(lp, "_BITSET_WORK", bound)
            out.append(cross_section_vertices(b, b.sum(axis=0),
                                              _VERTEX_ENUM_CAP))
        for v, ray in out[1:]:
            assert np.array_equal(v, out[0][0])
            assert (ray is None) == (out[0][1] is None)


@pytest.mark.parametrize("case,rows_added,count", [
    ("80x4", 10, 8), ("64x9", 29, 1594)])
def test_deepest_cut_first(case, rows_added, count, monkeypatch):
    # One pair test per row the double description adds, on the bitset and
    # on the block path alike.  Taking the row that cuts most rays first
    # added 26 rows on this 80x4 two-nonzero factor and 30 on this product
    # of two 8x3 SSC factors.
    rng = np.random.default_rng(0)
    if case == "80x4":
        b = two_nonzero(80, 4, rng)
    else:
        b = np.kron(two_nonzero_ssc(8, 3, rng), two_nonzero_ssc(8, 3, rng))
    adjacent_pairs = lp._adjacent_pairs
    for bound in (0, np.inf):
        calls = []

        def counted(*args):
            calls.append(args)
            return adjacent_pairs(*args)

        monkeypatch.setattr(lp, "_BITSET_WORK", bound)
        monkeypatch.setattr(lp, "_adjacent_pairs", counted)
        v, ray = cross_section_vertices(b, np.ones(b.shape[1]),
                                        _VERTEX_ENUM_CAP)
        assert len(calls) == rows_added
        assert len(v) == count and ray is None


def assert_best_vertex_is_highs_optimum(b, v, c):
    """The best of the vertices ``v`` for ``c . y``, up and down, is HiGHS'
    optimum over ``{y : b y >= 0, sum(b y) = 1}``."""
    vals = v @ c
    for best, maximize in ((vals.max(), True), (vals.min(), False)):
        ref = linprog_dense(c, a_ub=-b, b_ub=np.zeros(len(b)),
                            a_eq=b.sum(axis=0).reshape(1, -1),
                            b_eq=np.ones(1), maximize=maximize)
        assert ref.status == "optimal"
        assert abs(best - ref.value) <= 1e-12 * max(abs(ref.value),
                                                    np.linalg.norm(c))


def test_best_vertex_equals_highs():
    rng = np.random.default_rng(77)
    cases = 0
    while cases < 60:
        n, r = int(rng.integers(6, 41)), int(rng.integers(2, 6))
        if comb(n, r - 1) > 50_000:
            continue
        x = rng.random((n, r)) * (rng.random((n, r)) < 0.7)
        if numerical_rank(x) < r:
            continue
        b = range_basis(x, r)
        v, ray = cross_section_vertices(b, b.sum(axis=0), _VERTEX_ENUM_CAP)
        assert len(v) and ray is None
        assert (b @ v.T).min() >= -1e-9
        for _ in range(3):
            assert_best_vertex_is_highs_optimum(b, v, rng.standard_normal(r))
        cases += 1


@pytest.mark.parametrize("n,r", [(150, 4), (150, 6), (300, 8)])
def test_best_vertex_beyond_the_subset_cap_equals_highs(n, r):
    # C(300, 7) subsets are out of reach; the cross-section of a
    # two-nonzero factor's range has few vertices all the same.
    rng = np.random.default_rng(n + r)
    b = range_basis(two_nonzero(n, r, rng), r)
    v, ray = cross_section_vertices(b, b.sum(axis=0), _VERTEX_ENUM_CAP)
    assert len(v) and ray is None
    assert (b @ v.T).min() >= -1e-9
    for _ in range(20):
        assert_best_vertex_is_highs_optimum(b, v, rng.standard_normal(r))


# Run in a fresh interpreter: essential_match, one procedure and the CLI's
# gen -> decompose (bundle) -> eval -> check ssc, all in process, the last
# also on an unbounded, non-stochastic, full-rank matrix, refuted by the
# double description's ray.
_SCIPY_FREE_PATH = """
import os, sys
import numpy as np
import ntdkit
from ntdkit import cli
from ntdkit.tensor import DenseTensor, write_tensor_json
work = sys.argv[1]
inst = ntdkit.gen_instance("A4.2", (12, 12, 8), (3, 3, 2), seed=5)
model = ntdkit.procedure1(inst.tensor, (3, 3, 2), ntdkit.SolverConfig(seed=5))
assert ntdkit.essential_match(model, inst.truth).matched
bundle, out = os.path.join(work, "inst"), os.path.join(work, "model.json")
matrix = os.path.join(work, "h.json")
write_tensor_json(DenseTensor.from_array(inst.truth.factors[0]), matrix)
unbounded = os.path.join(work, "unbounded.json")
write_tensor_json(DenseTensor.from_array(np.array([[2.0, 0.0], [1.0, 1.0]])),
                  unbounded)
for argv in (["gen", "--assumption", "A4.2", "--dims", "12,12,8",
              "--ranks", "3,3,2", "--seed", "5", "--out", bundle],
             ["decompose", "--procedure", "1", "--input", bundle,
              "--ranks", "3,3,2", "--out", out],
             ["eval", "--model", out, "--truth",
              os.path.join(bundle, "truth.json")],
             ["check", "ssc", matrix], ["check", "ssc", unbounded]):
    assert cli.main(argv) == 0, argv
print("scipy.optimize" in sys.modules)
"""


def test_vertex_path_leaves_scipy_unloaded(tmp_path):
    # scipy.optimize alone costs ~50 MB of RSS; only the HiGHS LPs of
    # lp.linprog_dense load it, and none of these calls reaches one.
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(ntdkit.__file__))}
    out = subprocess.run([sys.executable, "-c", _SCIPY_FREE_PATH,
                          str(tmp_path)], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip().splitlines()[-1] == "False"


# Reference double description: the plain per-cut loop, which gathers the
# processed columns and masks the depth afresh on every cut.  The package's
# loop must give the same rays bit for bit.

def reference_adjacent_pairs(zeros, pos, neg, r):
    zf = zeros.astype(float)
    zneg = zf[neg].T
    rows = max(1, lp._PAIR_CHUNK // max(1, len(neg)))
    step = max(1, lp._PAIR_CHUNK // max(zeros.shape))
    ps, qs = [pos[:0]], [neg[:0]]
    for lo in range(0, len(pos), rows):
        block = pos[lo:lo + rows]
        shared = zf[block] @ zneg
        pi, qi = np.nonzero(shared >= r - 2)
        for at in range(0, len(pi), step):
            bi, qj = pi[at:at + step], qi[at:at + step]
            common = zeros[block[bi]] & zeros[neg[qj]]
            holders = common @ zf.T >= shared[bi, qj, None] - 0.5
            adjacent = holders.sum(axis=1) == 2
            ps.append(block[bi[adjacent]])
            qs.append(neg[qj[adjacent]])
    return np.concatenate(ps), np.concatenate(qs)


def reference_extreme_rays(u, max_rays):
    r = u.shape[1]
    if len(u) < r:
        return None
    res, basis = u.copy(), []
    for _ in range(r):
        norms = np.einsum("ij,ij->i", res, res)
        k = int(np.argmax(norms))
        if norms[k] <= 1e-20:
            return None
        res -= np.outer(res @ res[k], res[k] / norms[k])
        basis.append(k)
    rays = np.linalg.inv(u[basis]).T
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    vals = rays @ u.T
    done = np.zeros(len(u), dtype=bool)
    done[basis] = True
    while True:
        depth = np.where(done, 0.0, vals.min(axis=0, initial=0.0))
        i = int(np.argmin(depth))
        if depth[i] >= -lp._ZERO_TOL:
            return rays
        s = vals[:, i]
        neg = s < -lp._ZERO_TOL
        p, q = reference_adjacent_pairs(np.abs(vals[:, done]) <= lp._ZERO_TOL,
                                        np.flatnonzero(s > lp._ZERO_TOL),
                                        np.flatnonzero(neg), r)
        new = s[p, None] * rays[q] - s[q, None] * rays[p]
        new /= np.linalg.norm(new, axis=1, keepdims=True)
        rays = np.concatenate([rays[~neg], new])
        vals = np.concatenate([vals[~neg], new @ u.T])
        done[i] = True
        if len(rays) > max_rays:
            raise EnumerationCapError(
                f"vertex enumeration passed {max_rays} intermediate rays")


def reference_cross_section_vertices(b, a, max_rays, tol=1e-9):
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    rays = reference_extreme_rays(dd_input(b, a), max_rays)
    if rays is None:
        return np.zeros((0, b.shape[1])), True
    height = rays @ a
    at_infinity = height <= lp._ZERO_TOL * np.linalg.norm(a)
    v = rays[~at_infinity] / height[~at_infinity, None]
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    v = v[(v @ b.T).min(axis=1, initial=np.inf) >= -tol * scale]
    return v[np.lexsort(v.T[::-1])], bool(at_infinity.any())


def dd_input(b, a):
    """The rows ``cross_section_vertices`` hands the double description:
    those of ``[b; a]`` at unit length, rows below 1e-12 of the longest
    dropped."""
    m = np.vstack([b, a])
    norms = np.linalg.norm(m, axis=1)
    keep = np.flatnonzero(norms > 1e-12 * norms.max(initial=0.0))
    return m[keep] / norms[keep, None]


def column_directions(x, r):
    """Unit directions of the columns' rank-r coordinates, the input of
    ``spa_separable_nmf``'s double description."""
    _, s, vt = _rank_r_svd(x, r)
    y = s[:, None] * vt
    return (y / np.linalg.norm(y, axis=0)).T


def build_dd_corpus():
    """Seeded cross-sections ``(b, a)`` and cones ``u`` shaped like the
    benchmark's double descriptions: two-nonzero factors with a = 1 (the
    SSC checks), their orthonormal ranges with a = b.sum(0) (maxdet), unit
    column directions of separable data (the anchor search), a product of
    two 8x3 SSC factors, duplicate rows, integer rows whose depths tie
    exactly (so the tie order shows), a rank-deficient b and rows that
    positively span the space."""
    rng = np.random.default_rng(19)
    sections = {}
    for n, r in [(17, 4), (21, 5), (25, 5), (31, 5), (81, 4), (151, 4)]:
        for k in range(2):
            h = two_nonzero(n, r, rng)
            sections[f"two-nonzero-{n}x{r}-{k}"] = (h, np.ones(r))
            b = range_basis(h, r)
            sections[f"range-{n}x{r}-{k}"] = (b, b.sum(axis=0))
    sections["kron-8x3-8x3"] = (
        np.kron(two_nonzero_ssc(8, 3, rng), two_nonzero_ssc(8, 3, rng)),
        np.ones(9))
    h = two_nonzero(21, 5, rng)
    sections["duplicate-rows-21x5"] = (np.vstack([h, h[:6]]), np.ones(5))
    sections["exact-ties-8x4"] = (np.vstack([np.eye(4), 1 - 2 * np.eye(4)]),
                                  np.ones(4))
    grid = np.array(list(itertools.product([-1.0, 0.0, 1.0, 2.0], repeat=3)))
    sections["exact-ties-44x3"] = (grid[grid.sum(axis=1) > 0], np.ones(3))
    sections["rank-deficient"] = (rng.random((10, 2)) @ rng.random((2, 4)),
                                  np.ones(4))
    sections["positive-span"] = (np.vstack([np.eye(3), -np.eye(3)]),
                                 np.ones(3))
    cones = {name: dd_input(b, a) for name, (b, a) in sections.items()}
    for n, r in [(40, 4), (50, 5), (60, 5)]:
        h = np.vstack([np.eye(r), two_nonzero(n - r, r, rng), np.eye(r)[:1]])
        x = (rng.random((30, r)) + 0.1) @ h.T
        cones[f"columns-{n + 1}x{r}"] = column_directions(x, r)
    return sections, cones


def criterion_7_sections():
    """Cross-sections of instances at the criterion-7 shapes, r = 2..5:
    each generated factor ``h`` with a = 1 (``check_ssc``) and each ``b``
    that the procedure hands ``solvers._maxdet``, the body of
    ``maxdet_simplex``, with a = b.sum(0)."""
    sections = {}
    maxdet = solvers._maxdet
    for proc, assumption, dims, ranks in [
            (procedure1, "A4.2", (20, 20, 15), (4, 4, 3)),
            (procedure3, "A4.4", (18, 18, 20), (3, 3, 5)),
            (procedure_d1, "A5.3", (15, 15, 12, 12), (3, 3, 2, 2))]:
        inst = gen_instance(assumption, dims, ranks, seed=0)
        for k, h in enumerate(inst.truth.factors):
            sections[f"criterion-7-{assumption}-h{k}-{h.shape[0]}x"
                     f"{h.shape[1]}"] = (h, np.ones(h.shape[1]))
        seen = []

        def record(b, cfg):
            seen.append(b)
            return maxdet(b, cfg)

        solvers._maxdet = record
        try:
            proc(inst.tensor, ranks, SolverConfig())
        finally:
            solvers._maxdet = maxdet
        for k, b in enumerate(seen):
            sections[f"criterion-7-{assumption}-maxdet{k}-{b.shape[0]}x"
                     f"{b.shape[1]}"] = (b, b.sum(axis=0))
    return sections


DD_SECTIONS, DD_CONES = build_dd_corpus()
CRITERION_7 = criterion_7_sections()
DD_SECTIONS.update(CRITERION_7)
DD_CONES.update({name: dd_input(b, a) for name, (b, a) in
                 CRITERION_7.items()})


def dd_outcome(extreme_rays, u, max_rays):
    try:
        return extreme_rays(u, max_rays)
    except EnumerationCapError as exc:
        return str(exc)


@pytest.mark.parametrize("chunk", [lp._PAIR_CHUNK, 64])
@pytest.mark.parametrize("name", sorted(DD_CONES))
def test_extreme_rays_match_reference(name, chunk, monkeypatch):
    # The same rays, bit for bit, and the same over-budget message, with
    # the pair test in one block and in chunks of 64 entries.
    monkeypatch.setattr(lp, "_PAIR_CHUNK", chunk)
    u = DD_CONES[name]
    for max_rays in (_VERTEX_ENUM_CAP, u.shape[1] + 1):
        got = dd_outcome(lp._extreme_rays, u, max_rays)
        ref = dd_outcome(reference_extreme_rays, u, max_rays)
        if isinstance(ref, np.ndarray):
            assert isinstance(got, np.ndarray) and got.shape == ref.shape
            assert np.array_equal(got, ref)
        else:
            assert got == ref


@pytest.mark.parametrize("name", sorted(DD_CONES))
def test_extreme_rays_keep_the_reference_layout(name):
    # A product with the rays rounds by their memory layout, so they come
    # back laid out as the reference's: the inverse's transpose when no
    # row cuts, else C order, as a concatenation gives it.
    u = DD_CONES[name]
    got = dd_outcome(lp._extreme_rays, u, _VERTEX_ENUM_CAP)
    ref = dd_outcome(reference_extreme_rays, u, _VERTEX_ENUM_CAP)
    if isinstance(ref, np.ndarray):
        assert (got.flags.c_contiguous, got.flags.f_contiguous) == \
            (ref.flags.c_contiguous, ref.flags.f_contiguous)
    else:
        assert got is ref or got == ref


@pytest.mark.parametrize("chunk", [lp._PAIR_CHUNK, 64])
@pytest.mark.parametrize("name", sorted(DD_SECTIONS))
def test_cross_section_vertices_contract(name, chunk, monkeypatch):
    # Each vertex once, rows in strictly increasing lexicographic order,
    # feasible within the tolerance and on a . y = 1; a ray exactly when the
    # reference is unbounded, on a . y = 0 and receding, and the vertices
    # are the reference's.
    monkeypatch.setattr(lp, "_PAIR_CHUNK", chunk)
    b, a = DD_SECTIONS[name]
    v, ray = cross_section_vertices(b, a, _VERTEX_ENUM_CAP)
    ref, ref_unbounded = reference_cross_section_vertices(b, a,
                                                          _VERTEX_ENUM_CAP)
    assert v.shape[1] == b.shape[1]
    assert all(tuple(x) < tuple(y) for x, y in zip(v, v[1:]))
    if len(v):
        scale = max(1.0, np.abs(b).max())
        assert (v @ b.T).min() >= -1e-9 * scale
        assert np.abs(v @ a - 1.0).max() <= 1e-9
    assert (ray is not None) == ref_unbounded
    if ray is not None:
        norm = np.linalg.norm(ray)
        assert norm > 0 and abs(a @ ray) <= 1e-12 * np.linalg.norm(a) * norm
        assert (b @ ray).min() >= -1e-9 * max(1.0, np.abs(b).max()) * norm
    assert np.array_equal(v, ref)


def test_criterion_7_cross_sections_take_the_scalar_path(monkeypatch):
    # Every cut of these double descriptions is a small step: none falls
    # back to the float blocks, whose numpy calls would dominate.
    steps = []
    step = lp._adjacent_pairs

    def counted(*args):
        steps.append(args)
        return step(*args)

    def refused(*args):
        raise AssertionError("a small step took the block path")

    monkeypatch.setattr(lp, "_adjacent_pairs", counted)
    monkeypatch.setattr(lp, "_block_pairs", refused)
    for b, a in CRITERION_7.values():
        cross_section_vertices(b, a, _VERTEX_ENUM_CAP)
    assert {u.shape[1] for u, *_ in steps} >= {3, 4, 5}


@pytest.mark.parametrize("r", [2, 3, 5])
def test_positively_spanning_rows_cut_every_ray(r):
    # Rows that positively span R^r leave only y = 0: the double
    # description cuts every ray and returns none, and the cross-section is
    # empty, not unbounded.
    u = np.vstack([np.eye(r), -np.eye(r)])
    rays = lp._extreme_rays(u, _VERTEX_ENUM_CAP)
    assert rays.shape == (0, r)
    v, ray = cross_section_vertices(u, np.ones(r), _VERTEX_ENUM_CAP)
    assert v.shape == (0, r) and ray is None
