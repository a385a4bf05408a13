import itertools
from functools import reduce

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from ntdkit import evaluate
from ntdkit.errors import ShapeError, UsageError
from ntdkit.evaluate import (_assignment, _combination_rank, _unit_sums,
                             align_columns, essential_match, model_error,
                             validate_assumptions)
from ntdkit.model import NtdModel
from ntdkit.procedures import (ModePartition, procedure0, procedure1,
                               procedure2, procedure3, procedure4,
                               procedure_d0, procedure_d1, procedure_d3,
                               separable_orderd)
from ntdkit.solvers import SolverConfig
from ntdkit.synth import Instance, gen_instance
from ntdkit.tensor import DenseTensor, multilinear_transform
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
    core = model.core.array[np.ix_(*perms)] / reduce(np.multiply.outer,
                                                      diags)
    return NtdModel(factors, DenseTensor.from_array(core), model.ranks)


def scipy_assignment(cost):
    """The oracle: scipy's assignment of the same cost."""
    return linear_sum_assignment(cost)[1]


class TestAssignment:
    @pytest.mark.parametrize("r", range(1, 10))
    def test_equals_scipy_on_uniform_costs(self, rng, r):
        # a continuous draw has one optimum, so the columns must agree
        for _ in range(40):
            cost = rng.random((r, r))
            assert np.array_equal(_assignment(cost), scipy_assignment(cost))

    def test_integer_costs_reach_the_least_total(self, rng):
        # ties: any optimal permutation, the same one on every call
        for _ in range(400):
            r = int(rng.integers(1, 10))
            cost = rng.integers(0, 4, (r, r)).astype(float)
            cols = _assignment(cost)
            rows = np.arange(r)
            assert np.array_equal(np.sort(cols), rows)
            assert cost[rows, cols].sum() \
                == cost[rows, scipy_assignment(cost)].sum()
            assert np.array_equal(_assignment(cost.copy()), cols)

    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_ties_go_to_the_lowest_column(self, r):
        assert np.array_equal(_assignment(np.zeros((r, r))), np.arange(r))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost(self, rng, bad):
        cost = rng.random((3, 3))
        cost[1, 2] = bad
        with pytest.raises(ShapeError, match="finite"):
            _assignment(cost)
        u = rng.random((4, 3))
        u[0, 1] = bad
        with pytest.raises(ShapeError, match="finite"):
            align_columns(u, rng.random((4, 3)))


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

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tol_must_be_positive_and_finite(self, rng, tol):
        m = self.make_model(rng)
        with pytest.raises(ShapeError, match="positive and finite"):
            essential_match(m, m, tol=tol)

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
        factors, core = _unit_sums(m2)
        norm = NtdModel(factors, DenseTensor.from_array(core), m2.ranks)
        assert np.allclose(norm.reconstruct().data, m2.reconstruct().data,
                           atol=1e-12)
        assert all(np.abs(u.sum(0) - 1).max() < 1e-12 for u in norm.factors)

    @pytest.mark.parametrize("dims,ranks,zero_column", [
        ((6, 5, 4), (2, 2, 3), False), ((5, 4, 3, 3), (2, 3, 2, 2), False),
        ((6, 5, 4), (2, 2, 3), True), ((5, 4, 3, 3), (2, 3, 2, 2), True)])
    def test_normalize_matches_diagonal_route(self, rng, dims, ranks,
                                              zero_column):
        # Scaling the core by broadcasting gives the bits of the product
        # with diagonal matrices, also for a zero column sum (kept as 1).
        m = self.make_model(rng, dims, ranks)
        if zero_column:
            m.factors[1][:, 0] = 0.0
        factors, core = _unit_sums(m)
        sums = [u.sum(axis=0) for u in m.factors]
        sums = [np.where(np.abs(s) > 1e-300, s, 1.0) for s in sums]
        ref = multilinear_transform(m.core, [np.diag(s) for s in sums])
        assert np.array_equal(core, ref.array)
        assert all(np.array_equal(u, f / s)
                   for u, f, s in zip(factors, m.factors, sums))


def composed_match(model_a, model_b):
    """``essential_match``'s numbers through the unit-sum factors and
    cores of both models: ``(perms, factor_errors, core_error)``."""
    (factors_a, core_a), (factors_b, core_b) = map(_unit_sums,
                                                   (model_a, model_b))
    perms, errs = zip(*map(align_columns, factors_a, factors_b))
    permuted = core_a[np.ix_(*perms)]
    core_error = float(np.linalg.norm(core_b - permuted)
                       / max(np.linalg.norm(permuted), 1e-300))
    return list(perms), list(errs), core_error


@pytest.mark.parametrize("dims,ranks", [((6, 5, 4), (2, 2, 3)),
                                        ((5, 4, 3, 3), (2, 3, 2, 2))])
def test_essential_match_equals_normalized_models(dims, ranks):
    rng = np.random.default_rng(5)
    for case in range(8):
        factors = [stochastic(n, r, rng) * (rng.random(r) + 0.5)
                   for n, r in zip(dims, ranks)]
        if case % 2:
            factors[1][:, 0] = 0.0  # a zero-sum column is kept as it is
        core = DenseTensor.from_array(rng.standard_normal(ranks))
        model = NtdModel(factors, core, ranks)
        other = permuted_model(model, rng, scale=True)
        if case % 4 == 3:
            other.core.data[0] += 1e-3
        for a, b in ((model, other), (other, model)):
            res = essential_match(a, b)
            perms, errs, core_error = composed_match(a, b)
            assert all(np.array_equal(p, q) for p, q in zip(res.perms, perms))
            assert res.factor_errors == errs
            assert res.core_error == core_error


A54_PARTITION = {"rows": [0], "fixed": [2, 3], "cols": [1]}
# (assumption, dims, ranks, generator keywords, decomposition); A4.1 and
# A5.1 name no identifying procedure, so the truth stands in for one.
RECOVERY_CASES = [
    ("A4.1", (5, 4, 3), (2, 2, 2), {}, None),
    ("A5.1", (5, 4, 3, 3), (2, 2, 2, 2), {}, None),
    ("A4.x-unfold", (6, 5, 20), (2, 2, 4), {},
     lambda t, cfg: procedure0(t, (2, 2, 4), cfg)),
    ("A4.2", (12, 12, 8), (3, 3, 2), {},
     lambda t, cfg: procedure1(t, (3, 3, 2), cfg)),
    ("A4.3", (12, 12, 8), (3, 3, 2), {},
     lambda t, cfg: procedure2(t, (3, 3, 2), cfg)),
    ("A4.4", (12, 12, 6), (3, 3, 2), {},
     lambda t, cfg: procedure3(t, (3, 3, 2), cfg)),
    ("A4.5", (12, 12, 6), (3, 3, 2), {},
     lambda t, cfg: procedure4(t, (3, 3, 2), cfg)),
    ("A5.2", (6, 5, 4, 7), (2, 2, 2, 2), {"axes": (2, 3)},
     lambda t, cfg: procedure_d0(t, (2, 2, 2, 2), (2, 3), cfg)),
    ("A5.3", (8, 8, 6, 6), (3, 3, 2, 2), {},
     lambda t, cfg: procedure_d1(t, (3, 3, 2, 2), cfg)),
    ("A5.4", (12, 12, 6, 5), (3, 3, 2, 2), {"partition": A54_PARTITION},
     lambda t, cfg: procedure_d3(t, (3, 3, 2, 2),
                                 ModePartition((0,), (2, 3), (1,)), cfg)),
    ("A-sep", (25, 20, 15), (3, 3, 2), {},
     lambda t, cfg: separable_orderd(t, (3, 3, 2))),
]


@pytest.mark.parametrize("aid,dims,ranks,gen_kw,decompose", RECOVERY_CASES,
                         ids=[case[0] for case in RECOVERY_CASES])
def test_essential_match_equals_scipy_oracle(monkeypatch, aid, dims, ranks,
                                             gen_kw, decompose):
    # A decomposition against its permuted and rescaled truth, and against
    # noisy copies of it (the larger noise makes row minima collide, so
    # augmenting paths run): every number of the verdict is the one that
    # scipy's assignment gives.
    rng = np.random.default_rng(11)
    for seed in (60, 61):
        inst = gen_instance(aid, dims, ranks, seed=seed, **gen_kw)
        model = inst.truth if decompose is None \
            else decompose(inst.tensor, SolverConfig(seed=seed))
        other = permuted_model(inst.truth, rng, scale=True)
        assert essential_match(model, other).matched
        pairs = [(model, other), (other, model)]
        for noise in (1e-3, 1.0):
            pairs.append((model, NtdModel(
                [u + noise * rng.random(u.shape) for u in other.factors],
                other.core, ranks)))
        for a, b in pairs:
            got = essential_match(a, b).to_json()
            with monkeypatch.context() as m:
                m.setattr(evaluate, "_assignment", scipy_assignment)
                assert got == essential_match(a, b).to_json()


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

    @pytest.mark.parametrize("aid", ["A4.x-unfold", "A4.2", "A4.3", "A4.4",
                                     "A4.5"])
    def test_order4_instance_fails_order3_shape(self, aid):
        inst = gen_instance("A5.3", (10, 10, 8, 8), (3, 3, 2, 2), seed=5)
        report = validate_assumptions(inst, aid)
        shape = "rank-product" if aid == "A4.x-unfold" else "rank-shape"
        assert (shape, "fail") in [(n, s) for n, s, _ in report.checks]
        assert report.overall == "fail"

    def test_order2_instance_fails_a53_shape(self):
        # A5.3 needs order d >= 3: an order-2 instance fails its shape
        # check instead of raising from the slice checks.
        inst = gen_instance("A5.1", (6, 6), (2, 2), seed=1)
        report = validate_assumptions(inst, "A5.3")
        assert report.checks[-1] == ("rank-shape", "fail",
                                     "order 2, ranks (2, 2)")
        assert report.overall == "fail"

    def test_no_partition_fails_a54(self):
        inst = gen_instance("A4.2", (10, 10, 8), (3, 3, 2), seed=6)
        report = validate_assumptions(inst, "A5.4")
        assert report.checks[-1][:2] == ("partition-present", "fail")
        assert report.overall == "fail"

    def test_unknown_id(self, rng):
        inst = gen_instance("A4.1", (5, 4, 3), (2, 2, 2), seed=7)
        with pytest.raises(UsageError):
            validate_assumptions(inst, "A9.9")

    @pytest.mark.parametrize("seed,message", [
        (2.5, "must be an integer"), ("4", "must be an integer"),
        (-100, "must be nonnegative")], ids=["float", "text", "negative"])
    def test_bad_instance_seed_refused(self, seed, message):
        # the span checks of A4.3 draw from the instance seed
        inst = gen_instance("A4.3", (12, 12, 8), (3, 3, 2), seed=26)
        inst.seed = seed
        with pytest.raises(UsageError, match=message):
            validate_assumptions(inst)

    def test_integer_like_instance_seed(self):
        inst = gen_instance("A4.3", (12, 12, 8), (3, 3, 2), seed=26)
        expected = validate_assumptions(inst).to_json()
        inst.seed = np.int64(26)
        assert validate_assumptions(inst).to_json() == expected

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


class TestCombinationRank:
    """The Gaussian span test shared by the A4.3/A4.5 validators and the
    core generator: one draw per trial, stopping at the first hit."""

    def test_stops_at_first_combination_reaching_target(self):
        core = DenseTensor.from_array(
            np.random.default_rng(0).standard_normal((3, 3, 4)))
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        assert _combination_rank(core, 2, 3, rng) == 3
        ref.standard_normal(4)
        assert rng.standard_normal() == ref.standard_normal()

    def test_unreachable_target_returns_best_after_all_trials(self):
        core = DenseTensor.from_array(
            np.random.default_rng(1).standard_normal((3, 3, 4)))
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        assert _combination_rank(core, 2, 4, rng, trials=7) == 3
        ref.standard_normal((7, 4))
        assert rng.standard_normal() == ref.standard_normal()
