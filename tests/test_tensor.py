import json

import numpy as np
import pytest

from ntdkit.errors import InputError, PartitionError, ShapeError
from ntdkit.procedures import ModePartition
from ntdkit.tensor import (DenseTensor, SliceSpec, _slice_stack, fold,
                           mode_slice, multilinear_transform, read_tensor,
                           slice_combination, slice_matrix, unfold,
                           write_tensor_binary, write_tensor_json)


def random_model(rng, dims, ranks):
    core = DenseTensor.from_array(rng.standard_normal(ranks))
    factors = [rng.standard_normal((n, r)) for n, r in zip(dims, ranks)]
    return core, factors, multilinear_transform(core, factors)


def kron_first_fastest(a, b):
    """Definition oracle: column (i, j), i fastest, holds vec(a_i b_j')."""
    m, M = a.shape
    n, N = b.shape
    out = np.zeros((m * n, M * N))
    for i in range(M):
        for j in range(N):
            out[:, i + j * M] = np.outer(a[:, i], b[:, j]).ravel(order="F")
    return out


class TestDenseTensor:
    def test_layout_first_index_fastest(self):
        t = DenseTensor((2, 3), np.arange(6.0))
        assert t.array[1, 0] == 1.0 and t.array[0, 1] == 2.0

    def test_invariants(self):
        with pytest.raises(ShapeError):
            DenseTensor((2, 3), np.zeros(5))
        with pytest.raises(ShapeError):
            DenseTensor((2, 0), np.zeros(0))
        with pytest.raises(ShapeError):
            DenseTensor((), np.zeros(0))

    def test_roundtrip_from_array(self, rng):
        arr = rng.standard_normal((3, 4, 2))
        t = DenseTensor.from_array(arr)
        assert np.array_equal(t.array, arr)


class TestMultilinearTransform:
    def test_rank_one_case(self, rng):
        c = 2.5
        u, v, w = rng.random(4), rng.random(3), rng.random(5)
        core = DenseTensor((1, 1, 1), np.array([c]))
        t = multilinear_transform(
            core, [u.reshape(-1, 1), v.reshape(-1, 1), w.reshape(-1, 1)])
        expect = c * np.einsum("i,j,k->ijk", u, v, w)
        assert np.allclose(t.array, expect, atol=1e-14)

    def test_identity_case(self, rng):
        core = DenseTensor.from_array(rng.standard_normal((2, 3, 4)))
        t = multilinear_transform(core, [np.eye(2), np.eye(3), np.eye(4)])
        assert np.array_equal(t.array, core.array)

    def test_hand_summed_entry(self):
        # 2x2x1 all-ones core, both tall factors mixing the two columns
        # evenly in their third row: the (3,3,1) entry sums to one.
        core = DenseTensor((2, 2, 1), np.ones(4))
        u = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        t = multilinear_transform(core, [u, u, np.ones((1, 1))])

        def oracle(j1, j2, j3):
            total = 0.0
            for i1 in range(2):
                for i2 in range(2):
                    total += u[j1, i1] * u[j2, i2] * 1.0
            return total

        assert t.array[2, 2, 0] == pytest.approx(oracle(2, 2, 0))
        assert t.array[2, 2, 0] == pytest.approx(1.0)

    def test_shape_mismatch(self, rng):
        core = DenseTensor.from_array(rng.standard_normal((2, 2)))
        with pytest.raises(ShapeError):
            multilinear_transform(core, [np.eye(2), np.eye(3)])


def einsum_reference(core, factors):
    """One ``np.einsum`` per mode product, on the dims-shaped array."""
    arr, d = core.array, core.order
    for k, u in enumerate(factors):
        axes = list(range(d))
        arr = np.einsum(u, [d, k], arr, axes, axes[:k] + [d] + axes[k + 1:])
    return arr


LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "transposed-view": lambda u: np.ascontiguousarray(u.T).T,
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_multilinear_transform_matches_einsum(layout):
    # Orders 1-5 with size-1 modes, results that grow, shrink or mix.
    rng = np.random.default_rng(11)
    for case in range(60):
        d = 1 + case % 5
        ranks = tuple(int(r) for r in rng.integers(1, 5, size=d))
        dims = tuple(int(n) for n in rng.integers(1, 7, size=d))
        core = DenseTensor.from_array(rng.standard_normal(ranks))
        factors = [LAYOUTS[layout](rng.standard_normal((n, r)))
                   for n, r in zip(dims, ranks)]
        t = multilinear_transform(core, factors)
        expect = einsum_reference(core, factors)
        assert t.dims == dims
        scale = max(np.linalg.norm(expect), 1e-300)
        assert np.linalg.norm(t.array - expect) <= 1e-13 * scale


class TestUnfold:
    def test_order2_mode1_is_itself(self, rng):
        m = rng.standard_normal((4, 5))
        t = DenseTensor.from_array(m)
        assert np.array_equal(unfold(t, (1,)), m)

    def test_enumerated_2x2x2(self):
        # T[i,j,k] = i + 2j + 4k (zero-based): mode-3 unfolding column k
        # must read [4k, 1+4k, 2+4k, 3+4k].
        arr = np.fromfunction(lambda i, j, k: i + 2 * j + 4 * k, (2, 2, 2))
        t = DenseTensor.from_array(arr)
        m = unfold(t, (2,))
        for k in range(2):
            assert np.array_equal(m[:, k], 4 * k + np.arange(4.0))
        assert (fold(m, (2,), (2, 2, 2)).data == t.data).all()

    def test_kron_identity_order3(self, rng):
        core, (u1, u2, u3), t = random_model(rng, (4, 3, 5), (2, 2, 3))
        lhs = unfold(t, (2,))
        rhs = kron_first_fastest(u1, u2) @ unfold(core, (2,)) @ u3.T
        assert np.abs(lhs - rhs).max() <= 1e-12 * t.norm()

    @pytest.mark.parametrize("axes", [(0,), (1,), (0, 2), (1, 3), (2, 3)])
    def test_kron_identity_order4(self, rng, axes):
        dims, ranks = (4, 3, 5, 2), (2, 2, 3, 2)
        core, factors, t = random_model(rng, dims, ranks)
        rest = [k for k in range(4) if k not in axes]
        left = factors[rest[0]]
        for k in rest[1:]:
            left = kron_first_fastest(left, factors[k])
        right = factors[axes[0]]
        for k in axes[1:]:
            right = kron_first_fastest(right, factors[k])
        lhs = unfold(t, axes)
        rhs = left @ unfold(core, axes) @ right.T
        assert np.abs(lhs - rhs).max() <= 1e-12 * t.norm()

    def test_bad_axes(self, rng):
        t = DenseTensor.from_array(rng.standard_normal((2, 3, 4)))
        with pytest.raises(PartitionError):
            unfold(t, ())
        with pytest.raises(PartitionError):
            unfold(t, (0, 1, 2))
        with pytest.raises(PartitionError):
            unfold(t, (1, 1))


class TestFold:
    def test_roundtrip_bit_exact(self, rng):
        t = DenseTensor.from_array(rng.standard_normal((3, 4, 2, 3)))
        for axes in [(0,), (2,), (1, 3), (0, 2, 3)]:
            m = unfold(t, axes)
            assert (fold(m, axes, t.dims).data == t.data).all()

    def test_scalar(self):
        t = fold(np.array([[7.0]]), (1,), (1, 1))
        assert t.dims == (1, 1) and t.data[0] == 7.0

    def test_shape_inconsistency(self):
        with pytest.raises(ShapeError):
            fold(np.zeros((3, 4)), (1,), (2, 4))


class TestSlices:
    def test_definition_case(self, rng):
        t = DenseTensor.from_array(rng.standard_normal((3, 4, 5)))
        for k in range(5):
            expect = t.array[:, :, k]
            assert np.array_equal(mode_slice(t, 2, k), expect)

    def test_rank_one_outer_product(self, rng):
        c = 1.7
        u, v, w = rng.random(4), rng.random(3), rng.random(5)
        t = DenseTensor.from_array(c * np.einsum("i,j,k->ijk", u, v, w))
        k = 2
        assert np.allclose(mode_slice(t, 2, k), c * w[k] * np.outer(u, v),
                           atol=1e-14)

    def test_order4_pair_slice_identity(self, rng):
        # [0,1]-slices of a Tucker model factor through U1 S U2' with S the
        # weighted sum of core slices; oracle sums the definition directly.
        dims, ranks = (4, 3, 3, 2), (2, 2, 2, 2)
        core, factors, t = random_model(rng, dims, ranks)
        k3, k4 = 1, 0
        spec = SliceSpec((0,), {2: k3, 3: k4}, (1,))
        lhs = slice_matrix(t, spec)
        s = np.zeros((ranks[0], ranks[1]))
        for t3 in range(ranks[2]):
            for t4 in range(ranks[3]):
                s += factors[2][k3, t3] * factors[3][k4, t4] \
                    * core.array[:, :, t3, t4]
        rhs = factors[0] @ s @ factors[1].T
        assert np.abs(lhs - rhs).max() <= 1e-12 * t.norm()

    def test_generalized_slice_identity(self, rng):
        # (J,K)-slice with J={2,3}, K={1}: lhs picks the fixed indices.
        dims, ranks = (3, 4, 2, 3), (2, 2, 2, 2)
        core, factors, t = random_model(rng, dims, ranks)
        spec = SliceSpec((0,), {2: 1, 3: 2}, (1,))
        m = slice_matrix(t, spec)
        assert np.allclose(m, t.array[:, :, 1, 2], atol=1e-14)

    def test_bad_spec(self, rng):
        t = DenseTensor.from_array(rng.standard_normal((2, 3, 4)))
        with pytest.raises(PartitionError):
            slice_matrix(t, SliceSpec((0,), {2: 0}, (0,)))
        with pytest.raises(ShapeError):
            slice_matrix(t, SliceSpec((0,), {2: 9}, (1,)))

    def test_stack_of_grouped_non_adjacent_partition(self, rng):
        # rows (0, 2), fixed (1, 3), cols (4,): every slice of the stack is
        # direct indexing plus a column-major reshape of the row group
        arr = rng.standard_normal((2, 3, 4, 2, 3))
        t = DenseTensor.from_array(arr)
        stack = _slice_stack(t, (0, 2), (1, 3), (4,))
        assert stack.shape == (8, 3, 6)
        for flat in range(6):
            i1, i3 = flat % 3, flat // 3  # first fixed mode fastest
            expect = arr[:, i1, :, i3, :].reshape((8, 3), order="F")
            assert np.array_equal(stack[:, :, flat], expect)
            spec = SliceSpec((0, 2), {1: i1, 3: i3}, (4,))
            assert np.array_equal(slice_matrix(t, spec), expect)
            combo = slice_combination(t, (1, 3), np.eye(6)[flat],
                                      row_modes=(0, 2), col_modes=(4,))
            assert np.array_equal(combo, slice_matrix(t, spec))

    def test_unsorted_group_refused(self, rng):
        t = DenseTensor.from_array(rng.standard_normal((2, 3, 4, 2)))
        with pytest.raises(PartitionError):
            ModePartition((1, 0), (2,), (3,)).validate(4)
        with pytest.raises(PartitionError):
            _slice_stack(t, (1, 0), (2,), (3,))
        with pytest.raises(PartitionError):
            slice_matrix(t, SliceSpec((1, 0), {2: 0}, (3,)))


class TestSliceCombination:
    def test_unit_weight_reproduces_slice(self, rng):
        t = DenseTensor.from_array(rng.standard_normal((3, 4, 5)))
        w = np.zeros(5)
        w[3] = 1.0
        assert np.array_equal(slice_combination(t, 2, w), mode_slice(t, 2, 3))

    def test_ones_weight_sums(self, rng):
        t = DenseTensor.from_array(rng.standard_normal((3, 4, 2)))
        total = mode_slice(t, 2, 0) + mode_slice(t, 2, 1)
        assert np.allclose(slice_combination(t, 2, np.ones(2)), total,
                           atol=1e-14)

    def test_gaussian_combination_rank(self, rng):
        # On a generic Tucker model a random combination attains rank r.
        from ntdkit.solvers import numerical_rank
        for seed in range(20):
            r2 = np.random.default_rng(seed)
            core, factors, t = random_model(r2, (8, 8, 6), (3, 3, 2))
            w = r2.standard_normal(6)
            assert numerical_rank(slice_combination(t, 2, w)) == 3

    def test_length_mismatch(self, rng):
        t = DenseTensor.from_array(rng.standard_normal((3, 4, 5)))
        with pytest.raises(ShapeError):
            slice_combination(t, 2, np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
    def test_non_finite_weights(self, rng, bad):
        # entries of at least 2 carry a weight of 1e308 past the largest
        # double: finite weights, an overflowing combination
        t = DenseTensor.from_array(2 + np.abs(rng.standard_normal((3, 4, 5))))
        w = np.ones(5)
        w[2] = bad
        with pytest.raises(ShapeError, match="finite"):
            slice_combination(t, 2, w)

    def test_one_free_group_given(self, rng):
        t = DenseTensor.from_array(rng.standard_normal((3, 4, 5)))
        with pytest.raises(PartitionError):
            slice_combination(t, (2,), np.ones(5), row_modes=(0,))
        with pytest.raises(PartitionError):
            slice_combination(t, (2,), np.ones(5), col_modes=(1,))


class TestTensorIO:
    def test_json_roundtrip(self, rng, tmp_path):
        t = DenseTensor.from_array(rng.standard_normal((3, 2, 4)))
        path = tmp_path / "t.json"
        write_tensor_json(t, path)
        back = read_tensor(path)
        assert back.dims == t.dims and np.array_equal(back.data, t.data)

    def test_binary_roundtrip(self, rng, tmp_path):
        t = DenseTensor.from_array(rng.standard_normal((5, 3)))
        path = tmp_path / "t.bin"
        write_tensor_binary(t, path)
        back = read_tensor(path)
        assert back.dims == t.dims and np.array_equal(back.data, t.data)

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError):
            read_tensor(path)
        path2 = tmp_path / "bad2.json"
        json.dump({"dims": [2, 2], "layout": "row-major", "data": [1] * 4},
                  open(path2, "w"))
        with pytest.raises(InputError):
            read_tensor(path2)
