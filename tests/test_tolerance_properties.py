"""Property tests of the tolerance arguments of the public API.

``CALLS`` holds one valid call for every public tolerance parameter, and
its keys must be exactly the ``tol``/``feas_tol`` parameters of the
signatures in ``ntdkit.__all__``.  Every parameter refuses the same bad
kinds with ``ShapeError`` (nan, infinities, zero, a negative, a bool, a
string, None, a config object, an int past float's range), and gives the
same result for an int, a numpy float32 or float64 as for the equal
Python float.  Hypothesis runs
derandomized with no example database, so every run tries the same
examples.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ntdkit
from ntdkit import (DenseTensor, NtdModel, SolverConfig, check_pssc,
                    check_separable, check_ssc, enumerate_dual_vertices,
                    essential_match, gen_ssc_factor, kron, kron_split,
                    kron_split_multi, kron_split_permuted, kron_ssc_margin,
                    kron_ssc_sufficient, separable_order2_ntd,
                    separable_orderd, spa_separable_nmf, ssc1_refute,
                    ssc1_violation_witness)
from ntdkit.errors import (NotAKroneckerProduct, NtdkitError, ShapeError,
                           UsageError)

RNG = np.random.default_rng(38)
H_SSC = gen_ssc_factor(12, 4, 0)  # certified SSC, not separable
H_WIDE = np.abs(RNG.standard_normal((10, 3))) + 0.05  # refutes SSC1
U1 = H_WIDE[:3] / H_WIDE[:3].sum(axis=0)
KRON = kron(U1, np.array([[0.6, 0.3], [0.4, 0.7]]))
W_SEP = np.vstack([np.eye(3), RNG.random((5, 3))])
X_SEP = W_SEP @ RNG.random((3, 3)) @ W_SEP.T
# row-stochastic factors near the simplex center, which the witness refutes
CENTERED = (np.array([[0.51, 0.49], [0.49, 0.51]]),
            np.array([[0.34, 0.33, 0.33], [0.33, 0.33, 0.34]]))
TENSOR = DenseTensor.from_array(np.einsum(
    "ia,jb,kc,abc->ijk", W_SEP, W_SEP[:6], W_SEP[:5, :2],
    RNG.random((3, 3, 2))))
MODEL = NtdModel([np.eye(2)] * 2, DenseTensor((2, 2), np.ones(4)), (2, 2))

# (function, parameter) -> one valid call with the tolerance set to ``v``
CALLS = {
    ("SolverConfig", "feas_tol"): lambda v: SolverConfig(feas_tol=v),
    ("check_separable", "tol"): lambda v: check_separable(W_SEP, tol=v),
    ("enumerate_dual_vertices", "tol"):
        lambda v: enumerate_dual_vertices(H_SSC, tol=v),
    ("check_ssc", "tol"): lambda v: check_ssc(H_WIDE, tol=v),
    ("check_ssc", "feas_tol"): lambda v: check_ssc(H_SSC, feas_tol=v),
    ("ssc1_refute", "tol"): lambda v: ssc1_refute(H_WIDE, tol=v),
    ("ssc1_refute", "feas_tol"): lambda v: ssc1_refute(H_WIDE, feas_tol=v),
    ("ssc1_violation_witness", "feas_tol"):
        lambda v: ssc1_violation_witness(*CENTERED, feas_tol=v),
    ("kron_split", "feas_tol"):
        lambda v: kron_split(KRON, ((3, 3), (2, 2)), feas_tol=v),
    ("kron_split_permuted", "tol"):
        lambda v: kron_split_permuted(KRON[:, ::-1], ((3, 3), (2, 2)),
                                      tol=v),
    ("kron_split_multi", "tol"):
        lambda v: kron_split_multi(KRON[:, ::-1], [(3, 3), (2, 2)], tol=v),
    ("spa_separable_nmf", "feas_tol"):
        lambda v: spa_separable_nmf(X_SEP, 3, feas_tol=v),
    ("separable_order2_ntd", "feas_tol"):
        lambda v: separable_order2_ntd(X_SEP, 3, feas_tol=v),
    ("separable_orderd", "feas_tol"):
        lambda v: separable_orderd(TENSOR, (3, 3, 2), feas_tol=v),
    ("essential_match", "tol"): lambda v: essential_match(MODEL, MODEL, v),
}
BAD = [math.nan, math.inf, -math.inf, 0, 0.0, -1, -1e-9, True, False,
       "1e-9", None, SolverConfig(), 10**400]
GOOD_KINDS = {"int": int, "float32": np.float32, "float64": np.float64}
property_settings = settings(max_examples=100)


def key(value):
    """A comparable, bit-exact image of what a call returned."""
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return type(value), [key(v) for v in value]
    if isinstance(value, dict):
        return {k: key(v) for k, v in value.items()}
    if hasattr(value, "to_json"):
        return key(value.to_json())
    if hasattr(value, "__dict__"):
        return type(value), key(vars(value))
    return type(value), value


def outcome(call):
    """``key`` of what ``call`` returns, or the type and text of the
    ``NtdkitError`` it raises; any other exception fails the test."""
    try:
        return key(call())
    except NtdkitError as exc:
        return type(exc), str(exc)


def test_table_lists_every_public_tolerance():
    found = {(name, p) for name in ntdkit.__all__
             for p in inspect.signature(getattr(ntdkit, name)).parameters
             if p in ("tol", "feas_tol")}
    assert set(CALLS) == found


def test_every_call_succeeds_at_its_default():
    for (name, param), call in CALLS.items():
        default = inspect.signature(getattr(ntdkit, name)).parameters[param]
        call(default.default)  # raises nothing


@pytest.mark.parametrize("where", sorted(CALLS))
def test_bad_kinds_refused(where):
    for bad in BAD:
        with pytest.raises(ShapeError, match="positive and finite"):
            CALLS[where](bad)


@property_settings
@given(where=st.sampled_from(sorted(CALLS)),
       kind=st.sampled_from(sorted(GOOD_KINDS)),
       exponent=st.integers(-12, 0), mantissa=st.integers(1, 9))
def test_numeric_kinds_match_python_float(where, kind, exponent, mantissa):
    value = GOOD_KINDS[kind](mantissa if kind == "int"
                             else mantissa * 10.0 ** exponent)
    call = CALLS[where]
    assert outcome(lambda: call(value)) == outcome(lambda: call(float(value)))


# Answers each tolerance parameter gave for nan before it was checked.

def test_nan_tol_no_longer_refutes_ssc_without_a_certificate():
    # was: ssc1=False, no refutation, method "exact-enumeration"
    assert check_ssc(H_SSC).ssc
    with pytest.raises(ShapeError, match="check_ssc tol"):
        check_ssc(H_SSC, tol=math.nan)


def test_nan_tol_no_longer_empties_the_dual_vertices():
    # was: no vertices and a bounded cross-section (8 vertices at default)
    assert len(enumerate_dual_vertices(H_SSC)[0]) == 8
    with pytest.raises(ShapeError, match="enumerate_dual_vertices tol"):
        enumerate_dual_vertices(H_SSC, tol=math.nan)


def test_nan_feas_tol_no_longer_accepts_any_kron_split():
    # was: a "split" with a residual of about 24
    x = np.random.default_rng(0).random((12, 4))
    with pytest.raises(NotAKroneckerProduct):
        kron_split(x, ((3, 2), (4, 2)))
    with pytest.raises(ShapeError, match="kron_split feas_tol"):
        kron_split(x, ((3, 2), (4, 2)), feas_tol=math.nan)


def test_nan_tol_no_longer_denies_separability():
    # was: (False, None) for the identity
    assert check_separable(np.eye(3)) == (True, [0, 1, 2])
    with pytest.raises(ShapeError, match="check_separable tol"):
        check_separable(np.eye(3), tol=math.nan)


def test_config_as_tolerance_refused_at_entry():
    # was: a raw TypeError from the fit check after every anchor pass
    with pytest.raises(ShapeError, match="feas_tol"):
        separable_orderd(TENSOR, (3, 3, 2), SolverConfig())
    with pytest.raises(ShapeError, match="feas_tol"):
        SolverConfig(feas_tol=True)


def test_config_stores_a_python_float():
    for tol in (1, np.float32(0.5), np.float64(1e-9), 1e-9):
        cfg = SolverConfig(feas_tol=tol)
        assert type(cfg.feas_tol) is float and cfg.feas_tol == float(tol)


# The p arguments of the cone checks pass the same rule before their range.
P_CALLS = {
    ("check_pssc", "p"): lambda v: check_pssc(np.eye(3), v),
    ("kron_ssc_margin", "p1_sq"): lambda v: kron_ssc_margin(3, v, 3, 2.0),
    ("kron_ssc_margin", "p2_sq"): lambda v: kron_ssc_margin(3, 2.0, 3, v),
    ("kron_ssc_sufficient", "p1"):
        lambda v: kron_ssc_sufficient(3, v, 3, 1.4),
    ("kron_ssc_sufficient", "p2"):
        lambda v: kron_ssc_sufficient(3, 1.4, 3, v),
}


@pytest.mark.parametrize("where", sorted(P_CALLS))
def test_p_arguments_refuse_bad_kinds(where):
    for bad in BAD + ["x", [1]]:
        with pytest.raises(ShapeError, match="positive and finite"):
            P_CALLS[where](bad)


def test_bool_p_no_longer_read_as_one():
    # was: check_pssc(h, True) False and kron_ssc_margin(3, True, 3, 2) 1.5
    assert check_pssc(np.eye(3), 1.0)
    with pytest.raises(ShapeError, match="check_pssc p"):
        check_pssc(np.eye(3), True)
    with pytest.raises(ShapeError, match="p1_sq and p2_sq"):
        kron_ssc_margin(3, True, 3, 2)


def test_p_out_of_range_keeps_its_wording():
    with pytest.raises(UsageError, match=r"outside \[1, sqrt\(r\)\]"):
        check_pssc(np.eye(4), 2.5)
    with pytest.raises(UsageError, match=r"outside \[1, r-1\]"):
        kron_ssc_margin(3, 2.5, 3, 2.0)
