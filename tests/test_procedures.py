import json
from math import prod

import numpy as np
import pytest

from ntdkit.errors import (ComputationError, NotPermutedKronecker,
                           PartitionError, RankError, ShapeError, SolverError)
from ntdkit.evaluate import essential_match, model_error
from ntdkit.model import NtdModel
from ntdkit import procedures
from ntdkit.procedures import (ModePartition, _finalize, procedure0,
                               procedure1, procedure2, procedure3, procedure4,
                               procedure_d0, procedure_d1, procedure_d3,
                               separable_orderd)
from ntdkit.solvers import (SolverConfig, _left_inverse, _scan_slices,
                            derive_seed, numerical_rank)
from ntdkit.synth import gen_instance
from ntdkit.tensor import (DenseTensor, _mode_groups, _slice_stack, fold,
                           multilinear_transform, unfold)
from tests.conftest import max_rank_slice, slice_ranks, two_nonzero_ssc
from tests.test_solvers import reference_spa

CFG = SolverConfig(seed=3)


def identity_instance(rng, ranks, extra_core=None):
    core = DenseTensor.from_array(
        rng.standard_normal(ranks) if extra_core is None else extra_core)
    factors = [np.eye(r) for r in ranks]
    truth = NtdModel(factors, core, ranks)
    return truth.reconstruct(), truth


def leading_unit_rows_instance(seed, dims, ranks, deficient):
    """A tensor whose first [0,1]-slices, fixing modes 2 and 3 at
    ``deficient`` indices, are rank one: the factors' first rows are unit
    vectors, so those slices are core slices, made rank one here."""
    rng = np.random.default_rng(seed)
    core = rng.random(ranks)
    for j2, j3 in deficient:
        core[:, :, j2, j3] = np.outer(rng.random(ranks[0]),
                                      rng.random(ranks[1]))
    factors = [np.vstack([np.eye(r), rng.random((n - r, r))])
               for n, r in zip(dims, ranks)]
    return NtdModel(factors, DenseTensor.from_array(core), ranks).reconstruct()


def unit_row_slices_instance(seed):
    """An order-4 model, dims (4, 4, 3, 3) and ranks 2, whose every
    [0,1]-slice has rank one: the factors of modes 2 and 3 have scaled
    unit vectors as rows, so each slice is one scaled core slice, and each
    core slice is rank one.  Gaussian combinations of the slices have
    rank two."""
    rng = np.random.default_rng(seed)
    core = np.zeros((2, 2, 2, 2))
    for k in range(2):
        for m in range(2):
            core[:, :, k, m] = np.outer(rng.random(2), rng.random(2))
    lead = [np.vstack([np.eye(2), rng.random((2, 2))]) for _ in range(2)]
    unit = [np.eye(2)[np.arange(3) % 2] * rng.random((3, 1))
            for _ in range(2)]
    truth = NtdModel([u / u.sum(axis=0) for u in lead + unit],
                     DenseTensor.from_array(core), (2, 2, 2, 2))
    return truth.reconstruct(), truth


class TestScanSlices:
    """The scan takes the first full-rank slice: the first max-rank slice
    whenever one reaches the target, and no randomness."""

    @pytest.mark.parametrize("dims", [(5, 4, 3), (3, 4, 2, 5)])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_matches_first_max_rank_slice(self, dims, k):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            arr = rng.standard_normal(dims)
            for mode in range(len(dims)):
                rows, fixed, cols = _mode_groups(mode, len(dims))
                view = np.moveaxis(arr.copy(), mode, -1)
                shape = view.shape[:-1]
                target = min(prod(shape[:-1]), shape[-1])
                for j in range(min(k, dims[mode])):
                    view[..., j] = sum(
                        np.multiply.outer(rng.standard_normal(shape[:-1]),
                                          rng.standard_normal(shape[-1]))
                        for _ in range(target - 1))
                t = DenseTensor.from_array(np.moveaxis(view, -1, mode))
                stack = _slice_stack(t, rows, fixed, cols)
                ranks = slice_ranks(t, mode)
                if target in ranks:
                    index = _scan_slices(stack, rows, cols, target)
                    assert index == max_rank_slice(t, mode)
                    assert index == _scan_slices(stack, rows, cols, target)
                else:
                    with pytest.raises(RankError):
                        _scan_slices(stack, rows, cols, target)

    def test_prefers_full_rank_slice(self, rng):
        # slice 0 rank-deficient, slice 1 full: must pick index 1
        arr = np.zeros((4, 4, 2))
        arr[:, :, 0] = np.outer(rng.random(4), rng.random(4))
        arr[:, :, 1] = rng.standard_normal((4, 4))
        assert _scan_slices(arr, (0,), (1,), 4) == 1

    def test_tie_takes_first(self, rng):
        arr = rng.standard_normal((4, 4, 3))
        assert _scan_slices(arr, (0,), (1,), 4) == 0

    def test_rank_one_tensor(self, rng):
        arr = np.einsum("i,j,k->ijk", rng.random(3), rng.random(4),
                        rng.random(2))
        assert _scan_slices(arr, (0,), (1,), 1) == 0

    def test_all_deficient_names_slice_count(self, rng):
        stack = np.stack([np.outer(rng.random(4), rng.random(3))
                          for _ in range(7)], axis=2)
        with pytest.raises(RankError, match=r"none of the 7 \[0,1\]-slices "
                           r"has rank 3 \(best was 1\)"):
            _scan_slices(stack, (0,), (1,), 3)

    @pytest.mark.parametrize("seed", [40, 41])
    def test_procedure1_and_3_take_first_max_rank_slices(self, seed):
        inst = gen_instance("A4.2", (12, 12, 8), (3, 3, 2), seed=seed)
        t = inst.tensor
        auto = procedure1(t, (3, 3, 2), CFG)
        given = procedure1(t, (3, 3, 2), CFG, i2=max_rank_slice(t, 1),
                           i3=max_rank_slice(t, 2))
        inst = gen_instance("A4.4", (12, 12, 6), (3, 3, 2), seed=seed)
        t = inst.tensor
        auto3 = procedure3(t, (3, 3, 2), CFG)
        given3 = procedure3(t, (3, 3, 2), CFG,
                            slice_index=max_rank_slice(t, 2))
        for a, b in ((auto, given), (auto3, given3)):
            for ua, ub in zip(a.factors, b.factors):
                assert np.array_equal(ua, ub)
            assert np.array_equal(a.core.data, b.core.data)

    def test_d1_and_d3_skip_deficient_leading_slices(self):
        # slices (0, 0) and (1, 0) of modes (2, 3) are rank one, so the
        # first full-rank [0,1]-slice has flat index 2, whatever the seed
        t = leading_unit_rows_instance(0, (3, 3, 4, 4), (2, 2, 2, 2),
                                       [(0, 0), (1, 0)])
        stack = _slice_stack(t, (0,), (2, 3), (1,))
        assert [numerical_rank(stack[:, :, j]) for j in range(3)] == [1, 1, 2]
        part = ModePartition((0,), (2, 3), (1,))
        for seed in (3, 11):
            cfg = SolverConfig(seed=seed)
            d1 = procedure_d1(t, (2, 2, 2, 2), cfg)
            assert d1.diagnostics["slice_indices"]["1"] == {"2": 2, "3": 0}
            d3 = procedure_d3(t, (2, 2, 2, 2), part, cfg)
            assert d3.diagnostics["fixed_flat_index"] == 2


class TestProcedure0:
    def test_identity_recovery(self, rng):
        t, truth = identity_instance(rng, (2, 2, 4))
        model = procedure0(t, (2, 2, 4), CFG)
        assert essential_match(model, truth, tol=1e-8).matched

    def test_synthetic(self):
        inst = gen_instance("A4.x-unfold", (6, 5, 20), (2, 2, 4), seed=21)
        model = procedure0(inst.tensor, (2, 2, 4), CFG)
        res = essential_match(model, inst.truth, tol=1e-6)
        assert res.matched
        assert model.diagnostics["recon_error"] <= 1e-9

    def test_rank_precondition(self, rng):
        t, _ = identity_instance(rng, (2, 2, 4))
        with pytest.raises(ShapeError):
            procedure0(t, (2, 2, 3), CFG)

    @pytest.mark.parametrize("seed", range(3))
    def test_degenerate_cross_section_instance(self, seed):
        # Its right cross-section is so degenerate that a simplex can return
        # an infeasible "optimal" point there, which fails maxdet_simplex.
        inst = gen_instance("A4.x-unfold", (6, 5, 40), (2, 2, 4),
                            seed=3653893888)
        model = procedure0(inst.tensor, (2, 2, 4), SolverConfig(seed=seed))
        assert essential_match(model, inst.truth, tol=1e-6).matched


class TestProcedure1:
    def test_identity_recovery(self, rng):
        t, truth = identity_instance(rng, (3, 3, 2))
        model = procedure1(t, (3, 3, 2), CFG)
        assert essential_match(model, truth, tol=1e-8).matched

    def test_synthetic(self):
        inst = gen_instance("A4.2", (20, 20, 15), (4, 4, 3), seed=22)
        model = procedure1(inst.tensor, (4, 4, 3), CFG)
        assert essential_match(model, inst.truth, tol=1e-6).matched

    def test_all_slices_deficient_raises(self):
        inst = gen_instance("A4.3", (16, 16, 10), (4, 4, 2), seed=23)
        with pytest.raises(RankError):
            procedure1(inst.tensor, (4, 4, 2), CFG)

    def test_slice_index_out_of_range(self, rng):
        t, _ = identity_instance(rng, (3, 3, 2))
        with pytest.raises(ShapeError):
            procedure1(t, (3, 3, 2), CFG, i3=-1)

    def test_rank_preconditions(self, rng):
        t, _ = identity_instance(rng, (3, 3, 2))
        with pytest.raises(ShapeError):
            procedure1(t, (3, 2, 2), CFG)


class TestProcedure2:
    def test_succeeds_on_deficient_slices(self):
        inst = gen_instance("A4.3", (16, 16, 10), (4, 4, 2), seed=24)
        model = procedure2(inst.tensor, (4, 4, 2), CFG)
        assert essential_match(model, inst.truth, tol=1e-6).matched

    def test_unit_weights_reproduce_procedure1_first_step(self):
        inst = gen_instance("A4.2", (12, 12, 8), (3, 3, 2), seed=25)
        i3 = max_rank_slice(inst.tensor, 2)
        i2 = max_rank_slice(inst.tensor, 1)
        e3 = np.eye(inst.tensor.dims[2])[i3]
        e2 = np.eye(inst.tensor.dims[1])[i2]
        m1 = procedure1(inst.tensor, (3, 3, 2), CFG, i2=i2, i3=i3)
        m2 = procedure2(inst.tensor, (3, 3, 2), CFG, alpha=e3, beta=e2)
        assert np.array_equal(m1.factors[0], m2.factors[0])
        assert np.array_equal(m1.factors[1], m2.factors[1])
        assert np.array_equal(m1.factors[2], m2.factors[2])

    def test_seed_determinism(self):
        inst = gen_instance("A4.3", (12, 12, 8), (3, 3, 2), seed=26)
        a = procedure2(inst.tensor, (3, 3, 2), CFG)
        b = procedure2(inst.tensor, (3, 3, 2), CFG)
        for ua, ub in zip(a.factors, b.factors):
            assert np.array_equal(ua, ub)
        assert np.array_equal(a.core.data, b.core.data)


    @pytest.mark.parametrize("weights,scale", [
        ({"alpha": [np.nan] * 8}, 1), ({"beta": [np.inf] * 12}, 1),
        ({"alpha": [1e308] * 8}, 100), ({"beta": [1e308] * 12}, 100)],
        ids=["nan", "inf", "alpha-overflow", "beta-overflow"])
    def test_non_finite_weights_refused(self, weights, scale):
        # scaled by 100, the tensor's slice sums exceed 2: a weight of
        # 1e308 on each slice overflows the combination
        inst = gen_instance("A4.3", (12, 12, 8), (3, 3, 2), seed=26)
        t = DenseTensor(inst.tensor.dims, scale * inst.tensor.data)
        with pytest.raises(ShapeError, match="finite"):
            procedure2(t, (3, 3, 2), CFG, **weights)


class TestProcedure3:
    def test_identity_recovery(self, rng):
        t, truth = identity_instance(rng, (3, 3, 5))
        model = procedure3(t, (3, 3, 5), CFG)
        assert essential_match(model, truth, tol=1e-8).matched

    def test_synthetic(self):
        inst = gen_instance("A4.4", (18, 18, 20), (3, 3, 5), seed=27)
        model = procedure3(inst.tensor, (3, 3, 5), CFG)
        assert essential_match(model, inst.truth, tol=1e-6).matched

    def test_agrees_with_procedure1_when_r3_leq_r(self):
        # instance satisfying both assumption sets: the two routes land on
        # essentially the same model
        inst = gen_instance("A4.2", (14, 14, 10), (3, 3, 2), seed=28)
        m1 = procedure1(inst.tensor, (3, 3, 2), CFG)
        m3 = procedure3(inst.tensor, (3, 3, 2), CFG)
        assert essential_match(m1, m3, tol=1e-6).matched

    def test_r3_exceeds_r_squared(self, rng):
        t, _ = identity_instance(rng, (2, 2, 4))
        with pytest.raises(ShapeError):
            procedure3(t, (2, 2, 5), CFG)

    @pytest.mark.parametrize("index", [-1, 5])
    def test_slice_index_out_of_range(self, rng, index):
        t, _ = identity_instance(rng, (3, 3, 5))
        with pytest.raises(ShapeError):
            procedure3(t, (3, 3, 5), CFG, slice_index=index)


class TestProcedure4:
    def test_succeeds_where_procedure3_fails(self):
        inst = gen_instance("A4.5", (16, 16, 10), (4, 4, 2), seed=29)
        with pytest.raises(RankError):
            procedure3(inst.tensor, (4, 4, 2), CFG)
        model = procedure4(inst.tensor, (4, 4, 2), CFG)
        assert essential_match(model, inst.truth, tol=1e-6).matched

    def test_identity_mix_reproduces_procedure3(self):
        inst = gen_instance("A4.4", (12, 12, 6), (3, 3, 2), seed=30)
        m3 = procedure3(inst.tensor, (3, 3, 2), CFG, slice_index=0)
        m4 = procedure4(inst.tensor, (3, 3, 2), CFG,
                        alpha=np.eye(inst.tensor.dims[2])[0])
        for ua, ub in zip(m3.factors, m4.factors):
            assert np.array_equal(ua, ub)
        assert np.array_equal(m3.core.data, m4.core.data)

    def test_non_finite_weights_refused(self):
        inst = gen_instance("A4.5", (12, 12, 6), (3, 3, 2), seed=31)
        with pytest.raises(ShapeError, match="finite"):
            procedure4(inst.tensor, (3, 3, 2), CFG, alpha=[np.nan] * 6)

    def test_overflowing_weights_refused(self):
        inst = gen_instance("A4.5", (12, 12, 6), (3, 3, 2), seed=31)
        t = DenseTensor(inst.tensor.dims, 100 * inst.tensor.data)
        with pytest.raises(ShapeError, match="finite"):
            procedure4(t, (3, 3, 2), CFG, alpha=[1e308] * 6)

    def test_seed_determinism(self):
        inst = gen_instance("A4.5", (12, 12, 6), (3, 3, 2), seed=31)
        a = procedure4(inst.tensor, (3, 3, 2), CFG)
        b = procedure4(inst.tensor, (3, 3, 2), CFG)
        for ua, ub in zip(a.factors, b.factors):
            assert np.array_equal(ua, ub)


class TestProcedureD0:
    def test_order4(self):
        inst = gen_instance("A5.2", (6, 5, 4, 7), (2, 2, 2, 2), seed=32,
                            axes=(2, 3))
        model = procedure_d0(inst.tensor, (2, 2, 2, 2), (2, 3), CFG)
        assert essential_match(model, inst.truth, tol=1e-6).matched

    def test_d3_reduces_to_procedure0(self):
        inst = gen_instance("A4.x-unfold", (6, 5, 20), (2, 2, 4), seed=33)
        m0 = procedure0(inst.tensor, (2, 2, 4), CFG)
        md = procedure_d0(inst.tensor, (2, 2, 4), (2,), CFG)
        for ua, ub in zip(m0.factors, md.factors):
            assert np.array_equal(ua, ub)

    def test_rank_product_mismatch(self, rng):
        t, _ = identity_instance(rng, (2, 2, 2, 2))
        with pytest.raises(ShapeError):
            procedure_d0(t, (2, 2, 2, 2), (3,), CFG)

    def test_axes_outside_the_modes(self, rng):
        t, _ = identity_instance(rng, (2, 2, 4))
        for axes in ((5,), (-1,), (2, 2), (), (0, 1, 2)):
            with pytest.raises(PartitionError):
                procedure_d0(t, (2, 2, 4), axes, CFG)
        # procedure_d0 has no default axes
        with pytest.raises(PartitionError):
            procedure_d0(t, (2, 2, 4), None, CFG)

    @pytest.mark.parametrize("ranks,axes,same", [
        ((2, 2, 2, 2), (2, 3), (3, 2)), ((2, 1, 1, 2), (3,), 3)])
    def test_one_model_per_mode_set(self, ranks, axes, same):
        # the unfolding route sorts the axes; a lone mode may be a scalar
        inst = gen_instance("A5.2", (6, 5, 4, 7), ranks, seed=32, axes=axes)
        a, b = (procedure_d0(inst.tensor, ranks, x, CFG) for x in (axes, same))
        assert all(np.array_equal(ua, ub)
                   for ua, ub in zip(a.factors, b.factors))
        assert np.array_equal(a.core.data, b.core.data)
        assert a.diagnostics == b.diagnostics
        assert essential_match(a, inst.truth, tol=1e-6).matched

    def test_non_kronecker_unfolding_factor_raises(self, rng):
        # the unfolding's left factor is SSC but no Kronecker product
        w = two_nonzero_ssc(30, 4, rng)
        h = two_nonzero_ssc(20, 4, rng)
        t = fold(w @ h.T, (2,), (6, 5, 20))
        with pytest.raises(NotPermutedKronecker):
            procedure_d0(t, (2, 2, 4), (2,), SolverConfig(seed=7))


class TestProcedureD1:
    def test_order4(self):
        inst = gen_instance("A5.3", (15, 15, 12, 12), (3, 3, 2, 2), seed=34)
        model = procedure_d1(inst.tensor, (3, 3, 2, 2), CFG)
        assert essential_match(model, inst.truth, tol=1e-6).matched

    def test_d3_reduces_to_procedure1(self):
        inst = gen_instance("A4.2", (12, 12, 8), (3, 3, 2), seed=35)
        i3 = max_rank_slice(inst.tensor, 2)
        i2 = max_rank_slice(inst.tensor, 1)
        m1 = procedure1(inst.tensor, (3, 3, 2), CFG, i2=i2, i3=i3)
        md = procedure_d1(inst.tensor, (3, 3, 2), CFG,
                          slice_indices={1: {2: i3}, 2: {1: i2}})
        for ua, ub in zip(m1.factors, md.factors):
            assert np.array_equal(ua, ub)
        assert np.array_equal(m1.core.data, md.core.data)

    def test_deficient_slices_raise(self, rng):
        # a core whose every [0,2]-slice is singular in the first block
        core = np.zeros((2, 2, 2, 2))
        core[0, :, 0, :] = rng.standard_normal((2, 2))
        core[0, :, 1, :] = rng.standard_normal((2, 2))
        t, _ = identity_instance(rng, (2, 2, 2, 2), extra_core=core)
        with pytest.raises(RankError):
            procedure_d1(t, (2, 2, 2, 2), CFG)

    def test_stray_slice_index_key_raises(self):
        # mode 7 is no mode and mode 0 is the row mode: neither is a column
        # mode, so neither may be skipped over silently
        t = gen_instance("A5.3", (8, 8, 6, 6), (3, 3, 2, 2), seed=1).tensor
        for keys in ({7: {0: 0}, 0: {1: 2}}, {7: {0: 0}}, {0: {1: 2}}):
            with pytest.raises(ShapeError, match=r"column modes 1\.\.3"):
                procedure_d1(t, (3, 3, 2, 2), CFG, slice_indices=keys)


SLICE_ROUTE_CASES = [
    (procedure1, "A4.2", (12, 12, 8), (3, 3, 2)),
    (procedure2, "A4.2", (12, 12, 8), (3, 3, 2)),
    (procedure_d1, "A5.3", (8, 8, 6, 6), (3, 3, 2, 2)),
    (procedure3, "A4.4", (12, 12, 6), (3, 3, 2)),
    (procedure4, "A4.5", (12, 12, 6), (3, 3, 2)),
    (procedure_d3, "A5.4", (10, 10, 6, 6), (2, 2, 2, 2))]
SLICE_ROUTE_IDS = [case[0].__name__ for case in SLICE_ROUTE_CASES]


def run_slice_route(proc, tag, dims, ranks, seed):
    if proc is not procedure_d3:
        return proc(gen_instance(tag, dims, ranks, seed=seed).tensor, ranks,
                    CFG)
    part = {"rows": [0], "fixed": [2, 3], "cols": [1]}
    t = gen_instance(tag, dims, ranks, seed=seed, partition=part).tensor
    return proc(t, ranks, ModePartition((0,), (2, 3), (1,)), CFG)


@pytest.mark.parametrize("proc,tag,dims,ranks", SLICE_ROUTE_CASES,
                         ids=SLICE_ROUTE_IDS)
def test_slice_routes_call_no_pinv(proc, tag, dims, ranks, monkeypatch):
    # Every left inverse comes from its solver's parametrization.
    calls = 0
    pinv = np.linalg.pinv

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return pinv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counted)
    run_slice_route(proc, tag, dims, ranks, seed=25)
    assert calls == 0


@pytest.mark.parametrize("proc,tag,dims,ranks", SLICE_ROUTE_CASES,
                         ids=SLICE_ROUTE_IDS)
@pytest.mark.parametrize("seed", [25, 26])
def test_left_inverses_equal_pinv(proc, tag, dims, ranks, seed, monkeypatch):
    # q^-1 basis' against an SVD pseudo-inverse of the factor basis @ q,
    # for every factor a slice route inverts.
    pairs = []

    def recorded(basis, q):
        out = _left_inverse(basis, q)
        pairs.append((basis @ q, out))
        return out

    monkeypatch.setattr(procedures, "_left_inverse", recorded)
    model = run_slice_route(proc, tag, dims, ranks, seed)
    assert len(pairs) == (len(ranks) if proc in (procedure1, procedure2,
                                                 procedure_d1) else 2)
    for u, inverse in pairs:
        ref = np.linalg.pinv(u)
        assert np.linalg.norm(inverse - ref) <= 1e-12 * np.linalg.norm(ref)
    assert all(any(np.array_equal(u, f) for f in model.factors)
               for u, _ in pairs)


class TestProcedureD3:
    def test_order4_singleton_groups(self):
        part = {"rows": [0], "fixed": [2, 3], "cols": [1]}
        inst = gen_instance("A5.4", (12, 12, 6, 5), (3, 3, 2, 2), seed=36,
                            partition=part)
        model = procedure_d3(inst.tensor, (3, 3, 2, 2),
                             ModePartition((0,), (2, 3), (1,)), CFG)
        assert essential_match(model, inst.truth, tol=1e-6).matched

    def test_order4_grouped_rows(self):
        # non-singleton row group: the grouped slice factor is a permuted
        # Kronecker product that must be split
        part = {"rows": [0, 1], "fixed": [3], "cols": [2]}
        inst = gen_instance("A5.4", (5, 4, 14, 6), (2, 2, 4, 2), seed=52,
                            partition=part)
        model = procedure_d3(inst.tensor, (2, 2, 4, 2),
                             ModePartition((0, 1), (3,), (2,)), CFG)
        assert essential_match(model, inst.truth, tol=1e-6).matched

    def test_d3_reduces_to_procedure3(self):
        inst = gen_instance("A4.4", (12, 12, 6), (3, 3, 2), seed=37)
        m3 = procedure3(inst.tensor, (3, 3, 2), CFG, slice_index=0)
        md = procedure_d3(inst.tensor, (3, 3, 2),
                          ModePartition((0,), (2,), (1,)), CFG,
                          fixed_index=(0,))
        for ua, ub in zip(m3.factors, md.factors):
            assert np.array_equal(ua, ub)
        assert np.array_equal(m3.core.data, md.core.data)

    def test_fixed_index_outside_fixed_dims(self):
        inst = gen_instance("A4.2", (12, 12, 8), (3, 3, 2), seed=5)
        part = ModePartition((0,), (2,), (1,))
        for index in ((99,), (-1,), (0, 0)):
            with pytest.raises(ShapeError, match="fixed_index"):
                procedure_d3(inst.tensor, (3, 3, 2), part, CFG,
                             fixed_index=index)

    def test_fixed_rank_exceeds_r_squared(self, rng):
        t, _ = identity_instance(rng, (2, 2, 5))
        with pytest.raises(ShapeError, match="fixed-mode rank product 5"):
            procedure_d3(t, (2, 2, 5), ModePartition((0,), (2,), (1,)), CFG)

    def test_invalid_partition(self, rng):
        t, _ = identity_instance(rng, (2, 2, 2, 2))
        with pytest.raises(PartitionError):
            procedure_d3(t, (2, 2, 2, 2),
                         ModePartition((0,), (1,), (1, 2, 3)), CFG)
        with pytest.raises(ShapeError):
            # row rank product 4 vs column rank product 2
            procedure_d3(t, (2, 2, 2, 2),
                         ModePartition((0, 2), (3,), (1,)), CFG)


class TestCombinationRoutes:
    """Procedures d.2 and d.4: d1 and d3 on slice combinations, of which
    procedures 2 and 4 are the order-3 cases."""

    def test_d1_weights_recover_order4(self):
        inst = gen_instance("A5.3", (15, 15, 12, 12), (3, 3, 2, 2), seed=34)
        rng = np.random.default_rng(0)
        weights = {1: rng.standard_normal(144), 3: rng.standard_normal(180)}
        model = procedure_d1(inst.tensor, (3, 3, 2, 2), CFG, weights=weights)
        assert essential_match(model, inst.truth, tol=1e-6).matched
        diag = model.diagnostics
        assert list(diag["slice_indices"]) == ["2"]  # mode 2 was scanned
        assert diag["weights"] == {"1": weights[1].tolist(),
                                   "3": weights[3].tolist()}

    def test_d3_weights_recover_order4(self):
        part = {"rows": [0], "fixed": [2, 3], "cols": [1]}
        inst = gen_instance("A5.4", (12, 12, 6, 5), (3, 3, 2, 2), seed=36,
                            partition=part)
        w = np.random.default_rng(0).standard_normal(30)
        model = procedure_d3(inst.tensor, (3, 3, 2, 2),
                             ModePartition((0,), (2, 3), (1,)), CFG,
                             weights=w)
        assert essential_match(model, inst.truth, tol=1e-6).matched
        assert model.diagnostics["weights"] == w.tolist()
        assert "fixed_flat_index" not in model.diagnostics

    @pytest.mark.parametrize("seed", range(3))
    def test_weights_recover_where_every_slice_is_deficient(self, seed):
        t, truth = unit_row_slices_instance(seed)
        part = ModePartition((0,), (2, 3), (1,))
        with pytest.raises(RankError, match="none of the 9"):
            procedure_d1(t, (2, 2, 2, 2), CFG)
        with pytest.raises(RankError, match="none of the 9"):
            procedure_d3(t, (2, 2, 2, 2), part, CFG)
        w = np.random.default_rng(seed).standard_normal(9)
        for model in (procedure_d1(t, (2, 2, 2, 2), CFG, weights={1: w}),
                      procedure_d3(t, (2, 2, 2, 2), part, CFG, weights=w)):
            assert essential_match(model, truth, tol=1e-6).matched

    def test_procedure2_is_d1_on_weights(self):
        t = gen_instance("A4.3", (12, 12, 8), (3, 3, 2), seed=26).tensor
        m2 = procedure2(t, (3, 3, 2), CFG)
        rng = np.random.default_rng(derive_seed(CFG.seed, "procedure2"))
        alpha, beta = rng.standard_normal(8), rng.standard_normal(12)
        md = procedure_d1(t, (3, 3, 2), CFG, weights={1: alpha, 2: beta})
        for ua, ub in zip(m2.factors, md.factors):
            assert np.array_equal(ua, ub)
        assert np.array_equal(m2.core.data, md.core.data)
        diag = md.diagnostics
        assert list(m2.diagnostics) == ["procedure", "alpha", "beta", "absdet",
                                        "seed", "recon_error",
                                        "core_nonnegative"]
        assert m2.diagnostics == {
            "procedure": "2", "alpha": alpha.tolist(), "beta": beta.tolist(),
            **{k: v for k, v in diag.items()
               if k not in ("procedure", "slice_indices", "weights")}}
        assert diag["weights"] == {"1": alpha.tolist(), "2": beta.tolist()}
        # a given alpha leaves beta the first draw
        m2b = procedure2(t, (3, 3, 2), CFG, alpha=alpha[::-1])
        assert m2b.diagnostics["beta"] == np.random.default_rng(
            derive_seed(CFG.seed, "procedure2")).standard_normal(12).tolist()

    def test_procedure4_is_d3_on_weights(self):
        t = gen_instance("A4.5", (12, 12, 6), (3, 3, 2), seed=31).tensor
        m4 = procedure4(t, (3, 3, 2), CFG)
        alpha = np.random.default_rng(
            derive_seed(CFG.seed, "procedure4")).standard_normal(6)
        md = procedure_d3(t, (3, 3, 2), ModePartition((0,), (2,), (1,)), CFG,
                          weights=alpha)
        for ua, ub in zip(m4.factors, md.factors):
            assert np.array_equal(ua, ub)
        assert np.array_equal(m4.core.data, md.core.data)
        assert list(m4.diagnostics) == ["procedure", "mix", "absdet", "seed",
                                        "recon_error", "core_nonnegative"]
        assert m4.diagnostics["mix"] == alpha[:, None].tolist()

    @pytest.mark.parametrize("kwargs,match", [
        ({"slice_indices": {1: {2: 0, 3: 0}}, "weights": {1: np.ones(144)}},
         "distinct column modes"),
        ({"weights": {0: np.ones(144)}}, "distinct column modes"),
        ({"weights": {4: np.ones(144)}}, "distinct column modes"),
        ({"weights": {2: np.ones(179)}}, "real vector of 180 entries"),
        ({"weights": {1: np.ones((12, 12))}}, "real vector of 144 entries")])
    def test_d1_selectors_refused(self, kwargs, match):
        t = gen_instance("A5.3", (15, 15, 12, 12), (3, 3, 2, 2),
                         seed=34).tensor
        with pytest.raises(ShapeError, match=match):
            procedure_d1(t, (3, 3, 2, 2), CFG, **kwargs)

    @pytest.mark.parametrize("run,match", [
        (lambda t: procedure_d3(t, (3, 3, 2), ModePartition((0,), (2,), (1,)),
                                CFG, fixed_index=(0,), weights=np.ones(8)),
         "not both"),
        (lambda t: procedure_d3(t, (3, 3, 2), ModePartition((0,), (2,), (1,)),
                                CFG, weights=np.ones(7)), "of 8 entries"),
        (lambda t: procedure2(t, (3, 3, 2), CFG, alpha=np.ones(7)),
         "of 8 entries"),
        (lambda t: procedure2(t, (3, 3, 2), CFG, beta=np.ones(13)),
         "of 12 entries"),
        (lambda t: procedure4(t, (3, 3, 2), CFG, alpha=np.ones(9)),
         "of 8 entries")])
    def test_order3_selectors_refused(self, run, match):
        t = gen_instance("A4.2", (12, 12, 8), (3, 3, 2), seed=5).tensor
        with pytest.raises(ShapeError, match=match):
            run(t)


class TestSeparableOrderD:
    def test_synthetic(self):
        inst = gen_instance("A-sep", (25, 20, 15), (3, 3, 2), seed=38)
        model = separable_orderd(inst.tensor, (3, 3, 2))
        res = essential_match(model, inst.truth, tol=1e-8)
        assert res.matched

    def test_identity_factors(self, rng):
        t, truth = identity_instance(rng, (3, 2, 4))
        model = separable_orderd(t, (3, 2, 4))
        assert essential_match(model, truth, tol=1e-8).matched

    def test_ssc_but_not_separable_rejected(self):
        from ntdkit.errors import NotSeparable
        inst = gen_instance("A4.2", (14, 14, 10), (3, 3, 2), seed=39)
        with pytest.raises(NotSeparable):
            separable_orderd(inst.tensor, (3, 3, 2))


def reference_separable_orderd(t, ranks, feas_tol=1e-9):
    """The separable route without contractions: the reference anchor pass
    on each full single-mode unfolding, then the core by pinv."""
    factors, anchor_sets = [], []
    for k in range(t.order):
        anchors, _, h = reference_spa(unfold(t, (k,)), ranks[k], feas_tol)
        factors.append(h / h.sum(axis=0))
        anchor_sets.append(anchors)
    core = multilinear_transform(t, [np.linalg.pinv(u) for u in factors])
    return _finalize(t, factors, core, ranks, SolverConfig(feas_tol=feas_tol),
                     {"anchors": anchor_sets})


def separable_route_cases():
    """44 seeded A-sep instances of order 3 and 4, with their ranks."""
    cases = []
    for seed in range(44):
        rng = np.random.default_rng(7000 + seed)
        d = 3 + seed % 2
        ranks = tuple(int(r) for r in rng.integers(2, 5 if d == 3 else 4,
                                                   size=d))
        dims = tuple(r + int(rng.integers(1, 10 if d == 3 else 5))
                     for r in ranks)
        cases.append((gen_instance("A-sep", dims, ranks, seed=seed).tensor,
                      ranks))
    return cases


class TestSeparableRouteAgreement:
    def test_matches_uncontracted_route(self):
        for t, ranks in separable_route_cases():
            model = separable_orderd(t, ranks)
            ref = reference_separable_orderd(t, ranks)
            assert model.diagnostics["anchors"] == ref.diagnostics["anchors"]
            for u, v in zip(model.factors, ref.factors):
                assert np.abs(u - v).max() <= 1e-12
            core, ref_core = model.core.data, ref.core.data
            assert np.abs(core - ref_core).max() \
                <= 1e-10 * np.abs(ref_core).max()

    def test_fails_like_uncontracted_route(self):
        cases = [(gen_instance("A4.2", (14, 14, 10), (3, 3, 2),
                               seed=200 + seed).tensor, (3, 3, 2))
                 for seed in range(6)]
        for k, (t, ranks) in enumerate(separable_route_cases()[:12]):
            bad = list(ranks)
            bad[k % t.order] += 1 if k % 3 else -1
            if min(bad) >= 1:
                cases.append((t, tuple(bad)))
        errors = set()
        for t, ranks in cases:
            with pytest.raises(ComputationError) as ref:
                reference_separable_orderd(t, ranks)
            with pytest.raises(ComputationError) as got:
                separable_orderd(t, ranks)
            assert got.type is ref.type
            errors.add(ref.type.__name__)
        assert errors == {"NotSeparable", "RankError"}


class TestSeparableModeOrder:
    """The separable route factors the smallest unfolding first, and the
    order of the modes does not change the model."""

    def test_smallest_mode_first(self, monkeypatch):
        import ntdkit.procedures as procedures
        inst = gen_instance("A-sep", (9, 12, 6, 8), (3, 2, 2, 3), seed=4)
        shapes = []
        spa = procedures._spa
        monkeypatch.setattr(procedures, "_spa", lambda x, *a:
                            shapes.append(x.shape) or spa(x, *a))
        separable_orderd(inst.tensor, (3, 2, 2, 3))
        assert shapes[0] == (9 * 12 * 8, 6)
        assert [n for _, n in shapes] == [6, 8, 9, 12]

    @pytest.mark.parametrize("dims,ranks,perm", [
        ((12, 9, 7), (3, 3, 2), (2, 0, 1)),
        ((10, 10, 7), (3, 2, 3), (1, 0, 2)),  # equal dims swap places
        ((8, 6, 8, 5), (2, 3, 3, 2), (3, 2, 0, 1)),
    ])
    def test_permuted_modes_permute_the_model(self, dims, ranks, perm):
        for seed in range(3):
            t = gen_instance("A-sep", dims, ranks, seed=seed).tensor
            model = separable_orderd(t, ranks)
            moved = separable_orderd(
                DenseTensor.from_array(np.transpose(t.array, perm)),
                [ranks[m] for m in perm])
            anchors = model.diagnostics["anchors"]
            assert moved.diagnostics["anchors"] == [anchors[m] for m in perm]
            for k, m in enumerate(perm):
                assert np.abs(moved.factors[k] - model.factors[m]).max() \
                    <= 1e-12
            core = np.transpose(model.core.array, perm)
            assert np.abs(moved.core.array - core).max() \
                <= 1e-10 * np.abs(core).max()


class TestModelContract:
    def test_rank_list_checked_by_one_rule(self, rng):
        # every procedure refuses a rank list of the wrong length, or a
        # tensor of an order it does not run on, in the same words
        part = ModePartition((0,), (2,), (1,))
        runs = {
            "0": lambda t, r: procedure0(t, r, CFG),
            "1": lambda t, r: procedure1(t, r, CFG),
            "2": lambda t, r: procedure2(t, r, CFG),
            "3": lambda t, r: procedure3(t, r, CFG),
            "4": lambda t, r: procedure4(t, r, CFG),
            "d0": lambda t, r: procedure_d0(t, r, (2,), CFG),
            "d1": lambda t, r: procedure_d1(t, r, CFG),
            "d3": lambda t, r: procedure_d3(t, r, part, CFG),
            "sep-d": lambda t, r: separable_orderd(t, r),
        }
        tensors = {k: DenseTensor.from_array(rng.random((4,) * k))
                   for k in (2, 3, 4)}
        for name, run in runs.items():
            with pytest.raises(ShapeError, match=f"procedure {name} runs "
                               f"on tensors of order .* got 2 ranks for "
                               f"order 3"):
                run(tensors[3], (2, 2))
        for name in "01234":
            with pytest.raises(ShapeError, match="of order 3 with"):
                runs[name](tensors[4], (2, 2, 2, 2))
        for name in ("d0", "d1"):
            with pytest.raises(ShapeError, match="of order >= 3 with"):
                runs[name](tensors[2], (2, 2))

    def test_order3_slice_keys_name_the_order_d_slices(self):
        # procedures 1 and 3 report, under their own keys, the slices d1
        # and d3 take on the same tensor, scanned or given
        t1 = gen_instance("A4.2", (12, 12, 8), (3, 3, 2), seed=40).tensor
        t3 = gen_instance("A4.4", (12, 12, 6), (3, 3, 2), seed=40).tensor
        part = ModePartition((0,), (2,), (1,))
        for i3, i2, k in ((None, None, None), (7, 11, 5)):
            d1 = procedure_d1(t1, (3, 3, 2), CFG, slice_indices={
                col: {mode: i} for col, mode, i in ((1, 2, i3), (2, 1, i2))
                if i is not None})
            used = d1.diagnostics["slice_indices"]
            diag = procedure1(t1, (3, 3, 2), CFG, i2=i2, i3=i3).diagnostics
            assert diag["procedure"] == "1" and "slice_indices" not in diag
            assert (diag["i3"], diag["i2"]) == (used["1"]["2"],
                                                used["2"]["1"])
            d3 = procedure_d3(t3, (3, 3, 2), part, CFG,
                              fixed_index=None if k is None else (k,))
            diag = procedure3(t3, (3, 3, 2), CFG, slice_index=k).diagnostics
            assert diag["procedure"] == "3"
            assert "fixed_flat_index" not in diag and "partition" not in diag
            assert diag["slice_index"] == d3.diagnostics["fixed_flat_index"]
            if k is not None:
                assert (diag["slice_index"], used["1"]["2"],
                        used["2"]["1"]) == (k, i3, i2)

    def test_every_model_reconstructs(self):
        inst = gen_instance("A4.2", (12, 12, 8), (3, 3, 2), seed=40)
        model = procedure1(inst.tensor, (3, 3, 2), CFG)
        err = model_error(model, inst.tensor)
        assert not err.absolute and err.value <= 1e-9
        assert model.diagnostics["recon_error"] <= 1e-9
        assert "core_nonnegative" in model.diagnostics

    def test_slice_relabeling_invariance(self):
        # permuting the input's mode-3 slices only permutes U3's rows
        inst = gen_instance("A4.2", (12, 12, 8), (3, 3, 2), seed=41)
        t = inst.tensor
        perm = np.random.default_rng(0).permutation(t.dims[2])
        arr = t.array[:, :, perm]
        t_perm = DenseTensor.from_array(arr)
        i3 = max_rank_slice(t, 2)
        i2 = max_rank_slice(t, 1)
        i3p = int(np.flatnonzero(perm == i3)[0])
        m = procedure1(t, (3, 3, 2), CFG, i2=i2, i3=i3)
        mp = procedure1(t_perm, (3, 3, 2), CFG, i2=i2, i3=i3p)
        assert np.abs(m.factors[0] - mp.factors[0]).max() <= 1e-8
        assert np.abs(m.factors[1] - mp.factors[1]).max() <= 1e-8
        assert np.abs(m.factors[2][perm] - mp.factors[2]).max() <= 1e-8


ORDER3_RUNS = {
    "0": lambda t, r, **kw: procedure0(t, r, CFG),
    "1": lambda t, r, **kw: procedure1(t, r, CFG, **kw),
    "2": lambda t, r, **kw: procedure2(t, r, CFG, **kw),
    "3": lambda t, r, **kw: procedure3(t, r, CFG, **kw),
    "4": lambda t, r, **kw: procedure4(t, r, CFG, **kw),
    "d0": lambda t, r, **kw: procedure_d0(t, r, (2,), CFG),
    "d1": lambda t, r, **kw: procedure_d1(t, r, CFG, **kw),
    "d3": lambda t, r, **kw: procedure_d3(
        t, r, ModePartition((0,), (2,), (1,)), CFG, **kw),
    "sep-d": lambda t, r, **kw: separable_orderd(t, r),
}


@pytest.fixture
def no_solve(monkeypatch):
    """Every solver entry of the procedures fails the test when reached."""
    def reached(*args, **kwargs):
        raise AssertionError("a solver ran")
    for name in ("_minvol_order2", "_minvol_nmf", "_spa"):
        monkeypatch.setattr(procedures, name, reached)


class TestArgumentBoundary:
    """Ranks and indices are integers, taken without truncation, and ranks
    are positive; weights are one real vector.  Each refusal is a
    ``ShapeError`` raised before any solve."""

    @pytest.mark.parametrize("ranks", [(3.9, 3, 2), (3, 3, 2.0), ("3", 3, 2),
                                       (None, 3, 2), 3, (0, 0, 0),
                                       (-1, -1, 2), (3, 3, 0)])
    @pytest.mark.parametrize("name", list(ORDER3_RUNS))
    def test_ranks_refused(self, name, ranks, no_solve):
        t = gen_instance("A4.2", (12, 12, 8), (3, 3, 2), seed=3).tensor
        with pytest.raises(ShapeError, match="integers|ranks >= 1"):
            ORDER3_RUNS[name](t, ranks)

    @pytest.mark.parametrize("name,kwargs", [
        ("1", {"i3": 1.7}), ("1", {"i2": "3"}), ("1", {"i3": (0,)}),
        ("3", {"slice_index": 1.7}), ("3", {"slice_index": "3"}),
        ("3", {"slice_index": (0,)}), ("d3", {"fixed_index": (0.9,)}),
        ("d3", {"fixed_index": 3}), ("d3", {"fixed_index": "0"}),
        ("d1", {"slice_indices": {1: {2: 1.5}}})])
    def test_indices_refused(self, name, kwargs, no_solve):
        t = gen_instance("A4.2", (12, 12, 8), (3, 3, 2), seed=3).tensor
        with pytest.raises(ShapeError, match="must be integers"):
            ORDER3_RUNS[name](t, (3, 3, 2), **kwargs)

    @pytest.mark.parametrize("name,kwargs", [
        ("4", {"alpha": ["a"] * 8}), ("4", {"alpha": ["1"] * 8}),
        ("4", {"alpha": np.ones((2, 4))}), ("2", {"beta": [[1.0] * 12]}),
        ("2", {"alpha": [[1, 2], [3]]}), ("2", {"alpha": [1j] * 8}),
        ("d1", {"weights": {1: [None] * 8}}),
        ("d3", {"weights": np.ones((8, 1))})])
    def test_weights_refused(self, name, kwargs, no_solve):
        t = gen_instance("A4.2", (12, 12, 8), (3, 3, 2), seed=3).tensor
        with pytest.raises(ShapeError, match="one .*vector"):
            ORDER3_RUNS[name](t, (3, 3, 2), **kwargs)


def assert_certified_or_refused(run):
    """``run()`` returns a model with a finite reconstruction error within
    tolerance, a finite or null ``absdet`` and a strict-JSON document, or
    raises ``SolverError``; no RuntimeWarning either way."""
    try:
        model = run()
    except SolverError:
        return
    diag = model.diagnostics
    assert np.isfinite(diag["recon_error"])
    assert diag["recon_error"] <= CFG.feas_tol
    assert diag.get("absdet") is None or np.isfinite(diag["absdet"])
    json.dumps(model.to_json(), allow_nan=False)


class TestLargeScale:
    """A residual or determinant that overflows fails the fit or reads
    null; it never passes as nan."""

    @pytest.mark.parametrize("scale", [1e77, 1e104, 1e140, 1e154, 1e155,
                                       1e200, 1e308])
    @pytest.mark.parametrize("name", list(ORDER3_RUNS))
    def test_scaled_tensor(self, name, scale):
        tag, ranks = {"0": ("A4.x-unfold", (2, 2, 4)),
                      "d0": ("A4.x-unfold", (2, 2, 4)),
                      "sep-d": ("A-sep", (3, 3, 2))}.get(name,
                                                         ("A4.2", (3, 3, 2)))
        dims = (6, 5, 20) if tag == "A4.x-unfold" else (12, 12, 8)
        t = gen_instance(tag, dims, ranks, seed=3).tensor
        big = DenseTensor(t.dims, scale * t.data)
        assert_certified_or_refused(lambda: ORDER3_RUNS[name](big, ranks))

    def test_small_scales_certified(self):
        t = gen_instance("A4.2", (12, 12, 8), (3, 3, 2), seed=3).tensor
        for scale, absdet_null in ((1e100, False), (1e140, True)):
            model = procedure1(DenseTensor(t.dims, scale * t.data),
                               (3, 3, 2), CFG)
            assert (model.diagnostics["absdet"] is None) == absdet_null
        with pytest.raises(SolverError, match="norm overflows"):
            procedure1(DenseTensor(t.dims, 1e200 * t.data), (3, 3, 2), CFG)

    @pytest.mark.parametrize("exponent", [103, 140, 155, 200, 300, 308])
    def test_large_finite_weights(self, exponent):
        t2 = gen_instance("A4.3", (12, 12, 8), (3, 3, 2), seed=26).tensor
        t4 = gen_instance("A4.5", (12, 12, 6), (3, 3, 2), seed=31).tensor
        w = 10.0 ** exponent
        assert_certified_or_refused(
            lambda: procedure2(t2, (3, 3, 2), CFG, alpha=[w] * 8))
        assert_certified_or_refused(
            lambda: procedure2(t2, (3, 3, 2), CFG, beta=[w] * 12))
        assert_certified_or_refused(
            lambda: procedure4(t4, (3, 3, 2), CFG, alpha=[w] * 6))

    @pytest.mark.parametrize("scale", [1e-10, 1e-11, 1e-12, 1e-20, 1e-50,
                                       1e-100])
    def test_separable_small_scales(self, scale):
        # one relative zero rule in the anchor pass: no column of a small
        # tensor falls below an absolute floor
        inst = gen_instance("A-sep", (10, 9, 8), (3, 3, 2), seed=3)
        model = separable_orderd(DenseTensor(inst.tensor.dims,
                                             scale * inst.tensor.data),
                                 (3, 3, 2))
        truth = inst.truth
        scaled = NtdModel(truth.factors, DenseTensor(
            truth.core.dims, scale * truth.core.data), truth.ranks)
        assert essential_match(model, scaled).matched
