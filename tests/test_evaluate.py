import itertools

import numpy as np
import pytest

from ntdkit.errors import ShapeError, UsageError
from ntdkit.evaluate import (align_columns, essential_match, model_error,
                             normalize_model, rank_profile,
                             validate_assumptions)
from ntdkit.model import NtdModel
from ntdkit.synth import Instance, gen_instance
from ntdkit.tensor import DenseTensor
from tests.conftest import stochastic


def permuted_model(model, rng, scale=False):
    """Essentially equal model: permuted columns, counter-permuted core,
    optionally with positive diagonal rescalings absorbed by the core."""
    perms = [rng.permutation(r) for r in model.ranks]
    factors, diags = [], []
    for u, perm in zip(model.factors, perms):
        d = rng.random(len(perm)) + 0.5 if scale else np.ones(len(perm))
        factors.append(u[:, perm] * d)
        diags.append(d)
    core = model.core.array[np.ix_(*perms)]
    core = core / np.einsum("i,j,k->ijk", *diags) if len(perms) == 3 \
        else core
    return NtdModel(factors, DenseTensor.from_array(core), model.ranks)


class TestAlignColumns:
    def test_exact_permutation(self, rng):
        u = rng.random((8, 4))
        perm = rng.permutation(4)
        got, err = align_columns(u[:, perm], u)
        assert err <= 1e-15
        assert np.array_equal(u[:, perm][:, got], u)

    def test_identity(self, rng):
        u = rng.random((6, 3))
        perm, err = align_columns(u, u)
        assert np.array_equal(perm, np.arange(3)) and err == 0.0

    def test_small_noise(self, rng):
        u = rng.random((10, 4))
        perm = rng.permutation(4)
        noisy = u[:, perm] + 1e-8 * rng.standard_normal((10, 4))
        _, err = align_columns(noisy, u)
        assert err < 1e-7

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_matches_bruteforce(self, rng, r):
        u_ref = rng.random((7, r))
        u_est = rng.random((7, r))
        perm, _ = align_columns(u_est, u_ref)
        got = sum(np.linalg.norm(u_est[:, perm[k]] - u_ref[:, k])
                  for k in range(r))
        best = min(
            sum(np.linalg.norm(u_est[:, p[k]] - u_ref[:, k])
                for k in range(r))
            for p in itertools.permutations(range(r)))
        assert got == pytest.approx(best, abs=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            align_columns(rng.random((4, 2)), rng.random((4, 3)))


class TestEssentialMatch:
    def make_model(self, rng, dims=(6, 5, 4), ranks=(2, 2, 3)):
        factors = [stochastic(n, r, rng) for n, r in zip(dims, ranks)]
        core = DenseTensor.from_array(rng.standard_normal(ranks))
        return NtdModel(factors, core, ranks)

    def test_self_match(self, rng):
        m = self.make_model(rng)
        res = essential_match(m, m)
        assert res.matched and res.core_error == 0.0
        assert max(res.factor_errors) == 0.0

    def test_permuted_and_scaled_copy(self, rng):
        m = self.make_model(rng)
        other = permuted_model(m, rng, scale=True)
        res = essential_match(m, other, tol=1e-10)
        assert res.matched

    def test_broken_core_not_matched(self, rng):
        m = self.make_model(rng)
        other = permuted_model(m, rng)
        other = NtdModel(
            other.factors,
            DenseTensor.from_array(
                other.core.array + rng.standard_normal(other.core.dims)),
            other.ranks)
        res = essential_match(m, other, tol=1e-6)
        assert not res.matched and res.core_error > 1e-6

    def test_symmetric_verdict(self, rng):
        m = self.make_model(rng)
        other = permuted_model(m, rng, scale=True)
        assert essential_match(m, other).matched \
            == essential_match(other, m).matched

    def test_shape_mismatch(self, rng):
        a = self.make_model(rng)
        b = self.make_model(rng, dims=(6, 5, 5))
        with pytest.raises(ShapeError):
            essential_match(a, b)

    def test_normalize_preserves_reconstruction(self, rng):
        m = self.make_model(rng)
        m2 = NtdModel([u * 3.0 for u in m.factors], m.core, m.ranks)
        norm = normalize_model(m2)
        assert np.allclose(norm.reconstruct().data, m2.reconstruct().data,
                           atol=1e-12)
        assert all(np.abs(u.sum(0) - 1).max() < 1e-12 for u in norm.factors)


class TestModelError:
    def test_exact(self, rng):
        inst = gen_instance("A4.1", (5, 4, 3), (2, 2, 2), seed=1)
        err = model_error(inst.truth, inst.tensor)
        assert err.value <= 1e-12 and not err.absolute

    def test_zeroed_core(self, rng):
        inst = gen_instance("A4.1", (5, 4, 3), (2, 2, 2), seed=2)
        zero = NtdModel(inst.truth.factors,
                        DenseTensor(inst.truth.core.dims,
                                    np.zeros(inst.truth.core.data.size)),
                        inst.truth.ranks)
        assert model_error(zero, inst.tensor).value == pytest.approx(1.0)

    def test_half_core_linear(self, rng):
        inst = gen_instance("A4.1", (5, 4, 3), (2, 2, 2), seed=3)
        half = NtdModel(inst.truth.factors,
                        DenseTensor(inst.truth.core.dims,
                                    0.5 * inst.truth.core.data),
                        inst.truth.ranks)
        assert model_error(half, inst.tensor).value == pytest.approx(0.5)

    def test_zero_tensor_flag(self, rng):
        inst = gen_instance("A4.1", (5, 4, 3), (2, 2, 2), seed=4)
        zero_t = DenseTensor(inst.tensor.dims,
                             np.zeros(inst.tensor.data.size))
        err = model_error(inst.truth, zero_t)
        assert err.absolute and err.value > 0


class TestValidateAssumptions:
    @pytest.mark.parametrize("aid,dims,ranks,extra", [
        ("A4.2", (14, 14, 10), (3, 3, 2), {}),
        ("A4.x-unfold", (6, 5, 15), (2, 2, 4), {}),
        ("A4.3", (14, 14, 8), (3, 3, 2), {}),
        ("A4.4", (12, 12, 8), (3, 3, 4), {}),
        ("A4.5", (12, 12, 8), (3, 3, 2), {}),
        ("A5.2", (6, 5, 4, 7), (2, 2, 2, 2), {"axes": (2, 3)}),
        ("A5.3", (10, 10, 8, 8), (3, 3, 2, 2), {}),
        ("A5.4", (10, 10, 6, 5), (3, 3, 2, 2),
         {"partition": {"rows": [0], "fixed": [2, 3], "cols": [1]}}),
        ("A-sep", (12, 10, 8), (3, 3, 2), {}),
    ])
    def test_generator_contract(self, aid, dims, ranks, extra):
        inst = gen_instance(aid, dims, ranks, seed=5, **extra)
        report = validate_assumptions(inst)
        assert report.overall == "pass", report.to_json()

    def test_zero_column_fails_base(self, rng):
        inst = gen_instance("A4.2", (10, 10, 8), (3, 3, 2), seed=6)
        bad = [u.copy() for u in inst.truth.factors]
        bad[0][:, 0] = 0.0
        broken = Instance(inst.tensor,
                          NtdModel(bad, inst.truth.core, inst.truth.ranks),
                          "A4.1", 0, {})
        report = validate_assumptions(broken, "A4.1")
        assert report.overall == "fail"
        names = {n: s for n, s, _ in report.checks}
        assert names["no-zero-columns"] == "fail"

    def test_unknown_id(self, rng):
        inst = gen_instance("A4.1", (5, 4, 3), (2, 2, 2), seed=7)
        with pytest.raises(UsageError):
            validate_assumptions(inst, "A9.9")

    def test_large_kron_group_mechanism(self, rng):
        # 400x16 group: exact enumeration infeasible; the sufficient
        # condition or the separable-closure rule must decide, else the
        # verdict stays undetermined.
        from ntdkit.evaluate import _group_ssc_status
        from tests.conftest import two_nonzero_ssc
        u1 = two_nonzero_ssc(20, 4, rng)
        u2 = two_nonzero_ssc(20, 4, rng)
        status, detail = _group_ssc_status([u1, u2], [4, 4])
        assert status in ("pass", "undetermined")
        from ntdkit.synth import gen_separable_factor
        sep = gen_separable_factor(20, 4, rng)
        status, _ = _group_ssc_status([u1, sep], [4, 4])
        assert status == "pass"

    def test_kron_group_over_cap_is_undetermined(self, rng):
        # Two non-separable 70x3 members: past ENUM_CAP_N neither level can
        # be computed, so the group is undetermined, not an error.
        from tests.conftest import two_nonzero
        u1, u2 = two_nonzero(70, 3, rng), two_nonzero(70, 3, rng)
        u3 = stochastic(5, 9, rng)
        core = DenseTensor.from_array(rng.random((3, 3, 9)))
        truth = NtdModel([u1, u2, u3], core, (3, 3, 9))
        inst = Instance(truth.reconstruct(), truth, "A4.x-unfold", 0)
        report = validate_assumptions(inst)
        names = {n: (s, d) for n, s, d in report.checks}
        assert names["ssc-kron-group-0x1"][0] == "undetermined"
        assert "enumeration cap" in names["ssc-kron-group-0x1"][1]


class TestRankProfile:
    def test_rank_one(self, rng):
        t = DenseTensor.from_array(np.einsum(
            "i,j,k->ijk", rng.random(4), rng.random(3), rng.random(5)))
        prof = rank_profile(t)
        assert all(r == 1 for r in prof["unfolding_ranks"].values())

    def test_identity_core_model(self, rng):
        inst = gen_instance("A4.2", (10, 10, 8), (3, 3, 2), seed=8)
        prof = rank_profile(inst.tensor)
        assert prof["unfolding_ranks"] == {0: 3, 1: 3, 2: 2}
        assert all(r <= 3 for r in prof["slice_ranks"][2])

    def test_zero_tensor(self):
        t = DenseTensor((3, 3, 3), np.zeros(27))
        prof = rank_profile(t)
        assert all(r == 0 for r in prof["unfolding_ranks"].values())
