import numpy as np
import pytest

from ntdkit import solvers
from ntdkit.errors import (NotPermutedKronecker, PartitionError, RankError,
                           ShapeError)
from ntdkit.evaluate import essential_match, model_error
from ntdkit.model import NtdModel
from ntdkit.kron import kron
from ntdkit.procedures import (ModePartition, allatonce_penalized,
                               procedure0, procedure1, procedure2, procedure3,
                               procedure4, procedure_d0, procedure_d1,
                               procedure_d3, select_max_rank_slice,
                               separable_orderd)
from ntdkit.solvers import SolverConfig, minvol_order2_ntd
from ntdkit.synth import gen_instance
from ntdkit.tensor import DenseTensor, fold, unfold
from tests.conftest import align_error, two_nonzero_ssc

CFG = SolverConfig(seed=3)
AAO_CFG = SolverConfig(seed=7)


def identity_instance(rng, ranks, extra_core=None):
    core = DenseTensor.from_array(
        rng.standard_normal(ranks) if extra_core is None else extra_core)
    factors = [np.eye(r) for r in ranks]
    truth = NtdModel(factors, core, ranks)
    return truth.reconstruct(), truth


class TestSelectMaxRankSlice:
    def test_prefers_full_rank_slice(self, rng):
        # slice 0 rank-deficient, slice 1 full: must pick index 1
        arr = np.zeros((4, 4, 2))
        arr[:, :, 0] = np.outer(rng.random(4), rng.random(4))
        arr[:, :, 1] = rng.standard_normal((4, 4))
        assert select_max_rank_slice(DenseTensor.from_array(arr), 2) == 1

    def test_tie_takes_first(self, rng):
        arr = rng.standard_normal((4, 4, 3))
        assert select_max_rank_slice(DenseTensor.from_array(arr), 2) == 0

    def test_rank_one_tensor(self, rng):
        arr = np.einsum("i,j,k->ijk", rng.random(3), rng.random(4),
                        rng.random(2))
        assert select_max_rank_slice(DenseTensor.from_array(arr), 2) == 0


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

    @pytest.mark.parametrize("lp_only", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_degenerate_cross_section_instance(self, seed, lp_only,
                                               monkeypatch):
        # Its right cross-section is so degenerate that a simplex can return
        # an infeasible "optimal" point there, which fails maxdet_simplex.
        if lp_only:
            monkeypatch.setattr(solvers, "_VERTEX_ENUM_CAP", 0)
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
        i3 = select_max_rank_slice(inst.tensor, 2)
        i2 = select_max_rank_slice(inst.tensor, 1)
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
                        mix=np.eye(inst.tensor.dims[2]))
        for ua, ub in zip(m3.factors, m4.factors):
            assert np.abs(ua - ub).max() <= 1e-12
        assert np.abs(m3.core.data - m4.core.data).max() <= 1e-12

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
        for axes in ((5,), (-1,), (2, 2)):
            with pytest.raises(PartitionError):
                procedure_d0(t, (2, 2, 4), axes, CFG)


class TestAllAtOnce:
    def test_exact_instance_drives_penalty_to_zero(self):
        inst = gen_instance("A4.x-unfold", (6, 5, 20), (2, 2, 4), seed=11)
        model = allatonce_penalized(inst.tensor, (2, 2, 4), 1.0, AAO_CFG)
        assert model.diagnostics["penalty"] <= 1e-18
        assert model.diagnostics["method"] == "split-exact"
        from ntdkit.evaluate import essential_match
        assert essential_match(model, inst.truth, tol=1e-6).matched

    def test_lambda_zero_degenerates_to_minvol(self):
        inst = gen_instance("A4.x-unfold", (6, 5, 20), (2, 2, 4), seed=12)
        model = allatonce_penalized(inst.tensor, (2, 2, 4), 0.0, AAO_CFG)
        fac = minvol_order2_ntd(unfold(inst.tensor, (2,)), 4, AAO_CFG)
        # same unfolding-level solution: the grouped factor is the split
        # recombined, i.e. a column permutation of the min-vol factor
        k = kron(model.factors[0], model.factors[1])
        assert align_error(k, fac.u1) <= 1e-10
        assert model.diagnostics["unfold_absdet"] == pytest.approx(
            fac.absdet)

    def test_order4_declared_mode_set(self):
        inst = gen_instance("A5.2", (6, 5, 4, 7), (2, 2, 2, 2), seed=14,
                            axes=(2, 3))
        model = allatonce_penalized(inst.tensor, (2, 2, 2, 2), 1.0, AAO_CFG,
                                    axes=(2, 3))
        assert model.diagnostics["penalty"] <= 1e-16
        from ntdkit.evaluate import essential_match
        assert essential_match(model, inst.truth, tol=1e-6).matched

    def test_rank_product_precondition(self):
        inst = gen_instance("A4.2", (10, 10, 6), (3, 3, 2), seed=15)
        with pytest.raises(ShapeError):
            allatonce_penalized(inst.tensor, (3, 3, 2), 1.0, AAO_CFG)

    def test_nearest_kron_fallback_on_non_tucker_tensor(self, rng):
        # the unfolding's left factor is SSC but no Kronecker product
        w = two_nonzero_ssc(30, 4, rng)
        h = two_nonzero_ssc(20, 4, rng)
        t = fold(w @ h.T, (2,), (6, 5, 20))
        model = allatonce_penalized(t, (2, 2, 4), 1.0, AAO_CFG)
        assert model.diagnostics["method"] == "nearest-kron-heuristic"
        assert model.diagnostics["penalty"] > 0
        assert model.diagnostics["recon_error"] > 0
        with pytest.raises(NotPermutedKronecker):
            procedure_d0(t, (2, 2, 4), (2,), AAO_CFG)


class TestProcedureD1:
    def test_order4(self):
        inst = gen_instance("A5.3", (15, 15, 12, 12), (3, 3, 2, 2), seed=34)
        model = procedure_d1(inst.tensor, (3, 3, 2, 2), CFG)
        assert essential_match(model, inst.truth, tol=1e-6).matched

    def test_d3_reduces_to_procedure1(self):
        inst = gen_instance("A4.2", (12, 12, 8), (3, 3, 2), seed=35)
        i3 = select_max_rank_slice(inst.tensor, 2)
        i2 = select_max_rank_slice(inst.tensor, 1)
        m1 = procedure1(inst.tensor, (3, 3, 2), CFG, i2=i2, i3=i3)
        md = procedure_d1(inst.tensor, (3, 3, 2), CFG,
                          slice_indices={1: {2: i3}, 2: {1: i2}})
        assert np.array_equal(m1.factors[0], md.factors[0])
        assert np.array_equal(m1.factors[1], md.factors[1])
        assert essential_match(m1, md, tol=1e-9).matched

    def test_deficient_slices_raise(self, rng):
        # a core whose every [0,2]-slice is singular in the first block
        core = np.zeros((2, 2, 2, 2))
        core[0, :, 0, :] = rng.standard_normal((2, 2))
        core[0, :, 1, :] = rng.standard_normal((2, 2))
        t, _ = identity_instance(rng, (2, 2, 2, 2), extra_core=core)
        with pytest.raises(RankError):
            procedure_d1(t, (2, 2, 2, 2), CFG, scan_budget=20)


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


class TestModelContract:
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
        i3 = select_max_rank_slice(t, 2)
        i2 = select_max_rank_slice(t, 1)
        i3p = int(np.flatnonzero(perm == i3)[0])
        m = procedure1(t, (3, 3, 2), CFG, i2=i2, i3=i3)
        mp = procedure1(t_perm, (3, 3, 2), CFG, i2=i2, i3=i3p)
        assert np.abs(m.factors[0] - mp.factors[0]).max() <= 1e-8
        assert np.abs(m.factors[1] - mp.factors[1]).max() <= 1e-8
        assert np.abs(m.factors[2][perm] - mp.factors[2]).max() <= 1e-8
