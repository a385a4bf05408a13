import importlib
from math import prod

import numpy as np
import pytest

from ntdkit.errors import (NotAKroneckerProduct, NotPermutedKronecker,
                           ShapeError)
from ntdkit.kron import (kron, kron_all, kron_split, kron_split_multi,
                         kron_split_permuted, nearest_kron,
                         rearrange_to_rank_one)
from ntdkit.solvers import numerical_rank
from tests.conftest import align_error, stochastic


def kron_oracle(a, b):
    """Column (i, j) with i fastest = column-wise vec of the outer
    product of column i of a and column j of b, per the definition."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    m, M = a.shape
    n, N = b.shape
    out = np.zeros((m * n, M * N))
    for i in range(M):
        for j in range(N):
            out[:, i + j * M] = np.outer(a[:, i], b[:, j]).ravel(order="F")
    return out


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_definition_exhaustive_small_shapes(self, rng):
        for shapes in [((2, 2), (2, 2)), ((3, 2), (2, 3)), ((1, 4), (5, 1)),
                       ((4, 1), (1, 3))]:
            a = rng.standard_normal(shapes[0])
            b = rng.standard_normal(shapes[1])
            assert np.allclose(kron(a, b), kron_oracle(a, b), atol=1e-14)

    def test_vector_stacking_rule(self):
        # Applying the definition's stacking rule by hand:
        # vec([1;2][3;4]') column-wise is [3;6;4;8].
        v = kron(np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))
        assert np.array_equal(v.ravel(), [3, 6, 4, 8])
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        # vec(e1 e2') puts the nonzero in the second column block: e3.
        assert np.array_equal(kron(e1, e2).ravel(), [0, 0, 1, 0])

    def test_rank_multiplicativity(self, rng):
        a = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))
        assert numerical_rank(kron(a, b)) == \
            numerical_rank(a) * numerical_rank(b)

    def test_stochastic_sums_propagate(self, rng):
        us = [stochastic(4, 2, rng), stochastic(3, 3, rng),
              stochastic(5, 2, rng)]
        k = kron_all(us)
        assert np.abs(k.sum(axis=0) - 1.0).max() < 1e-12

    def test_unfolding_consistency(self, rng):
        # kron must match the grouped-factor matrix under the package's
        # first-index-fastest flattening (the load-bearing property).
        from ntdkit.tensor import DenseTensor, multilinear_transform, unfold
        u1, u2, u3 = (rng.standard_normal((4, 2)),
                      rng.standard_normal((3, 2)),
                      rng.standard_normal((5, 3)))
        core = DenseTensor.from_array(rng.standard_normal((2, 2, 3)))
        t = multilinear_transform(core, [u1, u2, u3])
        rhs = kron(u1, u2) @ unfold(core, (2,)) @ u3.T
        assert np.abs(unfold(t, (2,)) - rhs).max() <= 1e-12 * t.norm()


class TestKronSplit:
    def test_roundtrip(self, rng):
        u1, u2 = stochastic(8, 4, rng), stochastic(7, 3, rng)
        got = kron_split(kron(u1, u2), ((8, 4), (7, 3)))
        assert np.abs(got.u1 - u1).max() < 1e-12
        assert np.abs(got.u2 - u2).max() < 1e-12
        assert got.residual < 1e-12

    def test_single_column(self, rng):
        u = stochastic(5, 1, rng)
        v = stochastic(4, 1, rng)
        x = np.outer(u, v).ravel(order="F").reshape(-1, 1)
        got = kron_split(x, ((5, 1), (4, 1)))
        assert np.allclose(got.u1, u, atol=1e-12)
        assert np.allclose(got.u2, v, atol=1e-12)

    def test_perturbation_rejected(self, rng):
        u1, u2 = stochastic(6, 2, rng), stochastic(5, 2, rng)
        x = kron(u1, u2) + 1e-6 * rng.standard_normal((30, 4))
        with pytest.raises(NotAKroneckerProduct):
            kron_split(x, ((6, 2), (5, 2)), feas_tol=1e-9)

    def test_zero_column(self, rng):
        x = kron(stochastic(4, 2, rng), stochastic(3, 2, rng))
        x[:, 1] = 0.0
        with pytest.raises(NotAKroneckerProduct):
            kron_split(x, ((4, 2), (3, 2)))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            kron_split(np.zeros((6, 4)), ((2, 2), (2, 2)))


class TestKronSplitPermuted:
    def test_identity_permutation_matches_plain_split(self, rng):
        u1, u2 = stochastic(6, 3, rng), stochastic(5, 2, rng)
        x = kron(u1, u2)
        got = kron_split_permuted(x, ((6, 3), (5, 2)))
        assert np.array_equal(got.perm, np.arange(6))
        assert np.abs(got.u1 - u1).max() < 1e-12
        assert np.abs(got.u2 - u2).max() < 1e-12

    def test_random_permutation_recovery(self, rng):
        u1, u2 = stochastic(6, 3, rng), stochastic(5, 2, rng)
        perm = rng.permutation(6)
        x = kron(u1, u2)[:, perm]
        got = kron_split_permuted(x, ((6, 3), (5, 2)))
        assert got.residual <= 1e-10
        assert align_error(got.u1, u1) <= 1e-10
        assert align_error(got.u2, u2) <= 1e-10
        assert np.abs(kron(got.u1, got.u2) - x[:, got.perm]).max() <= 1e-10

    def test_rank_deficient_left_factor_rejected(self, rng):
        # Two equal stochastic columns make the grouping ambiguous.
        u1 = stochastic(6, 1, rng)
        u1 = np.hstack([u1, u1])
        u2 = stochastic(5, 2, rng)
        with pytest.raises(NotPermutedKronecker):
            kron_split_permuted(kron(u1, u2), ((6, 2), (5, 2)))


class TestKronSplitMulti:
    def test_two_factors_delegates(self, rng):
        u1, u2 = stochastic(4, 2, rng), stochastic(3, 2, rng)
        perm = rng.permutation(4)
        x = kron(u1, u2)[:, perm]
        got = kron_split_multi(x, [(4, 2), (3, 2)])
        assert align_error(got.factors[0], u1) <= 1e-10
        assert align_error(got.factors[1], u2) <= 1e-10

    def test_three_factors(self, rng):
        us = [stochastic(4, 2, rng), stochastic(3, 2, rng),
              stochastic(5, 2, rng)]
        perm = rng.permutation(8)
        x = kron_all(us)[:, perm]
        got = kron_split_multi(x, [(4, 2), (3, 2), (5, 2)])
        assert got.residual <= 1e-10
        for u_est, u_true in zip(got.factors, us):
            assert align_error(u_est, u_true) <= 1e-10
        assert np.abs(kron_all(got.factors) - x[:, got.perm]).max() <= 1e-10

    def test_shape_product_mismatch(self, rng):
        with pytest.raises(ShapeError):
            kron_split_multi(np.zeros((10, 4)), [(2, 2), (2, 2)])

    def test_equals_value_matching(self):
        # the composed level permutations give the factors, permutation
        # and residual of the nearest-column matching they replaced
        rng = np.random.default_rng(23)
        for _ in range(120):
            shapes = [(int(r + rng.integers(0, 3)), int(r))
                      for r in rng.integers(1, 4, size=rng.integers(2, 5))]
            x, _ = permuted_product(shapes, rng)
            got = kron_split_multi(x, shapes)
            factors, perm, residual = value_matched_split(x, shapes)
            assert [f.shape for f in got.factors] == \
                [f.shape for f in factors]
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(got.factors, factors))
            assert np.array_equal(got.perm, perm)
            assert got.residual == residual

    def test_tampered_column_raises(self, rng):
        shapes = [(4, 2), (3, 2), (3, 3)]
        x, _ = permuted_product(shapes, rng)
        x[:, 5] = x[:, 5] * 0.9 + 0.1 * x[:, 7]
        with pytest.raises(NotPermutedKronecker):
            kron_split_multi(x, shapes)

    def test_wrong_level_permutation_raises(self, rng, monkeypatch):
        # the final column check catches a level that misreports its
        # permutation, whatever the level checks saw
        kron_module = importlib.import_module("ntdkit.kron")  # not kron()
        split = kron_module.kron_split_permuted

        def swapped(*args):
            u1, u2, perm, residual = split(*args)
            perm[[0, 1]] = perm[[1, 0]]
            return u1, u2, perm, residual

        x, _ = permuted_product([(4, 2), (3, 2), (5, 2)], rng)
        monkeypatch.setattr(kron_module, "kron_split_permuted", swapped)
        with pytest.raises(NotPermutedKronecker, match="rebuilt column"):
            kron_split_multi(x, [(4, 2), (3, 2), (5, 2)])


def permuted_product(shapes, rng):
    """``(x, perm)``: the Kronecker product of random column-stochastic
    factors of ``shapes``, with its columns in random order."""
    x = kron_all(stochastic(n, r, rng) for n, r in shapes)
    perm = rng.permutation(x.shape[1])
    return x[:, perm], perm


def value_matched_split(x, shapes, tol=1e-8):
    """The earlier ``kron_split_multi``: peel the factors level by level,
    then give every rebuilt column the nearest unused column of ``x``."""
    def peel(mat, shps):
        if len(shps) == 1:
            return [mat]
        lead = (prod(n for n, _ in shps[:-1]), prod(r for _, r in shps[:-1]))
        head, last, _, _ = kron_split_permuted(mat, (lead, shps[-1]), tol)
        return peel(head, shps[:-1]) + [last]

    factors = peel(x, shapes)
    rebuilt = kron_all(factors)
    nrow, ncol = x.shape
    scale = max(1.0, float(np.abs(x).max()))
    perm = np.empty(ncol, dtype=int)
    used = np.zeros(ncol, dtype=bool)
    for q in range(ncol):
        dists = np.linalg.norm(x - rebuilt[:, q][:, None], axis=0)
        dists[used] = np.inf
        p = int(np.argmin(dists))
        assert dists[p] <= tol * scale * np.sqrt(nrow)
        used[p] = True
        perm[q] = p
    return factors, perm, float(np.linalg.norm(rebuilt - x[:, perm]))


class TestNearestKron:
    def test_exact_input(self, rng):
        u1, u2 = rng.standard_normal((4, 3)), rng.standard_normal((5, 2))
        got = nearest_kron(kron(u1, u2), ((4, 3), (5, 2)))
        assert got.residual <= 1e-12 * np.linalg.norm(kron(u1, u2))
        assert not got.stochastic

    def test_noise_bound(self, rng):
        u1, u2 = stochastic(8, 4, rng), stochastic(7, 3, rng)
        sigma = 1e-3
        x = kron(u1, u2) + sigma * rng.standard_normal((56, 12))
        got = nearest_kron(x, ((8, 4), (7, 3)))
        assert got.residual <= 2 * sigma * np.sqrt(x.size)

    def test_zero_input(self):
        got = nearest_kron(np.zeros((6, 4)), ((2, 2), (3, 2)))
        assert got.residual == 0.0
        assert np.all(got.u1 == 0) and np.all(got.u2 == 0)

    def test_rearrangement_is_isometry(self, rng):
        x = rng.standard_normal((6, 6))
        r = rearrange_to_rank_one(x, ((2, 3), (3, 2)))
        assert np.linalg.norm(r) == pytest.approx(np.linalg.norm(x))

    def test_stochastic_projection_flagged(self, rng):
        u1, u2 = stochastic(4, 2, rng), stochastic(3, 2, rng)
        x = kron(u1, u2) + 1e-4 * rng.standard_normal((12, 4))
        got = nearest_kron(x, ((4, 2), (3, 2)), stochastic=True)
        assert got.stochastic
        assert np.abs(got.u1.sum(axis=0) - 1).max() < 1e-12
        assert np.abs(got.u2.sum(axis=0) - 1).max() < 1e-12
