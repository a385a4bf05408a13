"""Property tests of the array arguments of the public API.

``CALLS`` holds one valid call for every array parameter of a computing
function in ``ntdkit.__all__`` that takes the array itself.  Each one
refuses the same bad kinds with ``ShapeError`` (nan, infinities, numeric
strings, None, complex, a ragged list and the wrong number of axes), and
the same numbers as ints, float32 or a nested list give the result they
give as float64.  ``CARRIED`` holds the parameters whose array comes
inside a tensor, a model or an instance: those containers keep the
values they are given, so the function refuses a nan or an infinity
there.  A file whose data holds one of the faults exits 3.
"""

import contextlib
import functools
import inspect
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ntdkit
from ntdkit import (DenseTensor, ModePartition, NtdModel, SolverConfig,
                    align_columns, check_pssc, check_separable, check_ssc,
                    enumerate_dual_vertices, essential_match, estimate_min_p,
                    gen_instance, gen_ssc_factor, kron, kron_split,
                    kron_split_multi, kron_split_permuted, maxdet_simplex,
                    minvol_nmf, minvol_order2_ntd, model_error,
                    numerical_rank, procedure1, procedure2, procedure3,
                    procedure4, procedure_d0, procedure_d1, procedure_d3,
                    separable_order2_ntd, separable_orderd,
                    slice_combination, spa_separable_nmf, ssc1_refute,
                    ssc1_violation_witness, unfold, validate_assumptions)
from ntdkit.cli import main
from ntdkit.errors import NtdkitError, ShapeError

RNG = np.random.default_rng(40)
CFG = SolverConfig(seed=5)
H = gen_ssc_factor(8, 3, 0)  # certified SSC
W_SEP = np.vstack([np.eye(3), RNG.random((5, 3))])
X_SEP = W_SEP @ RNG.random((3, 3)) @ W_SEP.T
X_NMF = RNG.random((6, 3)) @ H.T
X_ORDER2 = H @ (np.eye(3) + 0.1) @ H[::-1].T
U1 = np.array([[0.7, 0.2], [0.3, 0.8]])
U2 = np.array([[0.6, 0.1, 0.3], [0.4, 0.9, 0.7]])
KRON = kron(U1, U2)
# row-stochastic factors near the simplex center, which the witness refutes
CENTERED = (np.array([[0.51, 0.49], [0.49, 0.51]]),
            np.array([[0.34, 0.33, 0.33], [0.33, 0.33, 0.34]]))
PART = ModePartition((0,), (2, 3), (1,))

# procedure -> (assumption, dims, ranks, extra gen_instance arguments)
SHAPES = {
    "procedure0": ("A4.x-unfold", (6, 5, 20), (2, 2, 4), {}),
    "procedure1": ("A4.2", (8, 8, 5), (3, 3, 2), {}),
    "procedure2": ("A4.3", (8, 8, 5), (3, 3, 2), {}),
    "procedure3": ("A4.4", (8, 8, 5), (3, 3, 2), {}),
    "procedure4": ("A4.5", (8, 8, 5), (3, 3, 2), {}),
    "procedure_d0": ("A5.2", (6, 5, 4, 7), (2, 2, 2, 2), {"axes": (2, 3)}),
    "procedure_d1": ("A5.3", (8, 8, 6, 6), (3, 3, 2, 2), {}),
    "procedure_d3": ("A5.4", (8, 8, 4, 4), (2, 2, 2, 2),
                     {"partition": {"rows": [0], "fixed": [2, 3],
                                    "cols": [1]}}),
    "separable_orderd": ("A-sep", (8, 7, 6), (3, 3, 2), {}),
}


@functools.lru_cache(maxsize=None)
def instance(name):
    tag, dims, ranks, kw = SHAPES[name]
    return gen_instance(tag, dims, ranks, seed=11, **kw)


def run(name, t, **kw):
    """Procedure ``name`` on ``t`` at its ``SHAPES`` ranks."""
    ranks = SHAPES[name][2]
    if name == "procedure_d0":
        return procedure_d0(t, ranks, (2, 3), CFG)
    if name == "procedure_d3":
        return procedure_d3(t, ranks, PART, CFG, **kw)
    if name == "separable_orderd":
        return separable_orderd(t, ranks)
    return getattr(ntdkit, name)(t, ranks, CFG, **kw)


def tensor(name):
    return instance(name).tensor


def truth(name):
    return instance(name).truth


def with_core(model, data):
    return NtdModel(model.factors, DenseTensor(model.core.dims, data),
                    model.ranks)


def with_tensor(name, data):
    inst = instance(name)
    return type(inst)(DenseTensor(inst.tensor.dims, data), inst.truth,
                      inst.assumption_id, inst.seed, inst.meta)


# (function, parameter) -> (a valid array, the call with it set to ``v``)
CALLS = {
    ("numerical_rank", "a"): (X_NMF, numerical_rank),
    ("maxdet_simplex", "b"): (H, lambda v: maxdet_simplex(v, CFG)),
    ("minvol_nmf", "x"): (X_NMF, lambda v: minvol_nmf(v, 3, CFG)),
    ("minvol_order2_ntd", "x"):
        (X_ORDER2, lambda v: minvol_order2_ntd(v, 3, CFG)),
    ("spa_separable_nmf", "x"): (X_SEP, lambda v: spa_separable_nmf(v, 3)),
    ("separable_order2_ntd", "x"):
        (X_SEP, lambda v: separable_order2_ntd(v, 3)),
    ("kron_split", "x"): (KRON, lambda v: kron_split(v, ((2, 2), (2, 3)))),
    ("kron_split_permuted", "x"):
        (KRON[:, ::-1], lambda v: kron_split_permuted(v, ((2, 2), (2, 3)))),
    ("kron_split_multi", "x"):
        (KRON[:, ::-1], lambda v: kron_split_multi(v, [(2, 2), (2, 3)])),
    ("check_separable", "h"): (W_SEP, check_separable),
    ("check_ssc", "h"): (H, check_ssc),
    ("check_pssc", "h"): (H, lambda v: check_pssc(v, 1.2)),
    ("estimate_min_p", "h"): (H, estimate_min_p),
    ("enumerate_dual_vertices", "h"): (H, enumerate_dual_vertices),
    ("ssc1_refute", "h"): (H, ssc1_refute),
    ("ssc1_violation_witness", "u1"):
        (CENTERED[0], lambda v: ssc1_violation_witness(v, CENTERED[1])),
    ("ssc1_violation_witness", "u2"):
        (CENTERED[1], lambda v: ssc1_violation_witness(CENTERED[0], v)),
    ("align_columns", "u_est"): (H[:, ::-1], lambda v: align_columns(v, H)),
    ("align_columns", "u_ref"): (H, lambda v: align_columns(H[:, ::-1], v)),
    ("slice_combination", "weights"):
        (np.ones(5), lambda v: slice_combination(tensor("procedure1"), 2, v)),
    ("procedure2", "alpha"):
        (np.ones(5), lambda v: run("procedure2", tensor("procedure2"),
                                   alpha=v)),
    ("procedure2", "beta"):
        (np.ones(8), lambda v: run("procedure2", tensor("procedure2"),
                                   beta=v)),
    ("procedure4", "alpha"):
        (np.ones(5), lambda v: run("procedure4", tensor("procedure4"),
                                   alpha=v)),
    ("procedure_d1", "weights"):
        (np.ones(36), lambda v: run("procedure_d1", tensor("procedure_d1"),
                                    weights={1: v})),
    ("procedure_d3", "weights"):
        (np.ones(16), lambda v: run("procedure_d3", tensor("procedure_d3"),
                                    weights=v)),
}
# parameters where None means "draw the weights"
OPTIONAL = {("procedure2", "alpha"), ("procedure2", "beta"),
            ("procedure4", "alpha"), ("procedure_d3", "weights")}

def carried_tensor(name):
    return (lambda: tensor(name).data,
            lambda v: run(name, DenseTensor(tensor(name).dims, v)))


# (function, parameter) -> (the valid flat data of its container, the call
# with that data set to ``v``)
CARRIED = {
    **{(name, "t"): carried_tensor(name) for name in SHAPES},
    ("model_error", "model"):
        (lambda: truth("procedure1").core.data,
         lambda v: model_error(with_core(truth("procedure1"), v),
                               tensor("procedure1"))),
    ("model_error", "t"):
        (lambda: tensor("procedure1").data,
         lambda v: model_error(truth("procedure1"),
                               DenseTensor(tensor("procedure1").dims, v))),
    ("essential_match", "model_a"):
        (lambda: truth("procedure1").core.data,
         lambda v: essential_match(with_core(truth("procedure1"), v),
                                   truth("procedure1"))),
    ("essential_match", "model_b"):
        (lambda: truth("procedure1").core.data,
         lambda v: essential_match(truth("procedure1"),
                                   with_core(truth("procedure1"), v))),
    ("validate_assumptions", "instance"):
        (lambda: tensor("procedure1").data,
         lambda v: validate_assumptions(with_tensor("procedure1", v))),
}

ARRAY_PARAMS = {"a", "b", "h", "x", "u1", "u2", "u_est", "u_ref", "alpha",
                "beta", "weights", "t", "model", "model_a", "model_b",
                "instance"}
# containers and transforms keep the values they are given
TRANSFORMS = {"kron", "mode_slice", "slice_matrix", "unfold",
              "write_tensor_binary", "write_tensor_json"}


def param_id(where):
    return ".".join(where)


def ragged(v):
    """``v`` as nested lists with its first entry wrapped in one more."""
    out = v.tolist()
    out[0] = [out[0]]
    return out


def bad_kinds(v, optional=False):
    """``(label, value)`` for every kind the array rule refuses."""
    for label, entry in (("nan", math.nan), ("inf", math.inf),
                         ("-inf", -math.inf)):
        w = v.astype(float)
        w.flat[0] = entry
        yield label, w
    yield "numeric strings", v.astype(str)
    yield "numeric string list", v.astype(str).tolist()
    if not optional:
        yield "None", None
    yield "complex", v.astype(complex)
    yield "ragged", ragged(v)
    yield "one more axis", v[None]
    if v.ndim > 1:
        yield "one axis less", v.ravel()


def key(value):
    """A comparable, bit-exact image of what a call returned."""
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    if isinstance(value, (list, tuple)):
        return type(value), [key(v) for v in value]
    if isinstance(value, dict):
        return {k: key(v) for k, v in value.items()}
    if hasattr(value, "to_json"):
        return key(value.to_json())
    return type(value), value


def outcome(call):
    """``key`` of what ``call`` returns, or the type and text of the
    ``NtdkitError`` it raises; any other exception fails the test."""
    try:
        return key(call())
    except NtdkitError as exc:
        return type(exc), str(exc)


def test_tables_list_every_array_parameter():
    found = {(name, p) for name in ntdkit.__all__
             if inspect.isfunction(getattr(ntdkit, name))
             and name not in TRANSFORMS
             for p in inspect.signature(getattr(ntdkit, name)).parameters
             if p in ARRAY_PARAMS}
    # slice_combination transforms its tensor and computes from its weights
    found.discard(("slice_combination", "t"))
    assert set(CALLS) | set(CARRIED) == found
    assert not set(CALLS) & set(CARRIED)


@pytest.mark.parametrize("where", sorted(CALLS) + sorted(CARRIED),
                         ids=param_id)
def test_every_call_accepts_its_valid_array(where):
    base, call = CALLS.get(where) or CARRIED[where]
    call(base() if callable(base) else base)  # raises nothing


@pytest.mark.parametrize("where", sorted(CALLS), ids=param_id)
def test_bad_kinds_refused(where):
    base, call = CALLS[where]
    for label, bad in bad_kinds(base, where in OPTIONAL):
        with pytest.raises(ShapeError, match="finite"):
            call(bad)
            pytest.fail(f"{where} accepted {label}")


@pytest.mark.parametrize("where", sorted(CARRIED), ids=param_id)
def test_carried_non_finite_entries_refused(where):
    base, call = CARRIED[where]
    data = base()
    for entry in (math.nan, math.inf, -math.inf):
        bad = data.copy()
        bad[len(bad) // 2] = entry
        with pytest.raises(ShapeError, match="finite"):
            call(bad)


KINDS = {
    "int": lambda v, scale: np.rint(v * scale).astype(int),
    "float32": lambda v, scale: (v * scale).astype(np.float32),
}


@settings(max_examples=60)
@given(where=st.sampled_from(sorted(CALLS)),
       kind=st.sampled_from(sorted(KINDS) + ["list"]),
       scale=st.sampled_from([1.0, 3.0, 10.0, 0.25]))
def test_numeric_kinds_match_float64(where, kind, scale):
    base, call = CALLS[where]
    if kind == "list":
        value, same = (base * scale).tolist(), base * scale
    else:
        value = KINDS[kind](base, scale)
        same = value.astype(np.float64)
    assert outcome(lambda: call(value)) == outcome(lambda: call(same))


RAGGED, AXIS = object(), object()
# The faults in a file's data, as JSON.
FILE_FAULTS = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
    "numeric string": "0.5", "null": None, "object": {"real": 1.0},
    "past 2**64": 2**65, "ragged": RAGGED, "one more axis": AXIS,
}


def faulty(values, fault):
    """The nested lists ``values`` with ``fault`` in place of their first
    number, or wrapped in one more list for ``AXIS``."""
    if fault is AXIS:
        return [values]
    values = json.loads(json.dumps(values))
    inner = values
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = [inner[0]] if fault is RAGGED else fault
    return values


def run_cli(*argv):
    """The exit code and stderr of ``main``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def model_doc(data_at, fault):
    doc = truth("procedure1").to_json()
    if data_at == "core":
        doc["core"]["data"] = faulty(doc["core"]["data"], fault)
    else:
        doc["factors"][0] = faulty(doc["factors"][0], fault)
    return doc


@pytest.mark.parametrize("fault", sorted(FILE_FAULTS))
def test_file_data_faults_exit_3(tmp_path, fault):
    value = FILE_FAULTS[fault]
    t = tensor("procedure1")
    files = {
        "tensor.json": {"dims": list(t.dims),
                        "data": faulty(t.data.tolist(), value)},
        "matrix.json": faulty(H.tolist(), value),
        "core.json": model_doc("core", value),
        "factor.json": model_doc("factor", value),
    }
    good = tmp_path / "truth.json"
    truth("procedure1").save(good)
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    runs = {
        "tensor.json": ("decompose", "--procedure", "1", "--ranks", "3,3,2",
                        "--input", tmp_path / "tensor.json", "--out",
                        tmp_path / "m.json"),
        "matrix.json": ("check", "ssc", tmp_path / "matrix.json"),
        "core.json": ("eval", "--model", tmp_path / "core.json", "--truth",
                      good),
        "factor.json": ("eval", "--model", good, "--truth",
                        tmp_path / "factor.json"),
    }
    for name, argv in runs.items():
        code, err = run_cli(*argv)
        assert code == 3 and err.startswith("input error: "), (name, err)


# The inputs that raised a raw exception or returned a result before every
# array passed the one array rule: a seeded A4.2 tensor with one bad entry.

A42 = gen_instance("A4.2", (10, 10, 8), (3, 3, 2), seed=5)


def with_entry(entry):
    data = A42.tensor.data.copy()
    data[7] = entry
    return DenseTensor(A42.tensor.dims, data)


NAN_T = with_entry(math.nan)
NAN_X = unfold(NAN_T, (2,))


@pytest.mark.parametrize("probe", [
    lambda: procedure1(NAN_T, (3, 3, 2), CFG),
    lambda: procedure3(NAN_T, (3, 3, 2), CFG),
    lambda: procedure_d1(NAN_T, (3, 3, 2), CFG),
    lambda: separable_orderd(NAN_T, (3, 3, 2)),
    lambda: numerical_rank(NAN_X),
    lambda: minvol_nmf(NAN_X, 2, CFG),
    lambda: minvol_order2_ntd(NAN_X, 2, CFG),
    lambda: spa_separable_nmf(NAN_X, 2),
    lambda: separable_order2_ntd(NAN_X, 2),
    lambda: validate_assumptions(
        type(A42)(NAN_T, A42.truth, "A4.2", 5, A42.meta)),
], ids=["procedure1", "procedure3", "procedure_d1", "separable_orderd",
        "numerical_rank", "minvol_nmf", "minvol_order2_ntd",
        "spa_separable_nmf", "separable_order2_ntd", "validate_assumptions"])
def test_nan_no_longer_stops_an_svd(probe):
    # was: a raw LinAlgError, "SVD did not converge"
    with pytest.raises(ShapeError, match="finite"):
        probe()


@pytest.mark.parametrize("proc", [procedure2, procedure4])
def test_nan_tensor_no_longer_blamed_on_the_weights(proc):
    # was: ShapeError "slice weights overflow" for Gaussian weights
    with pytest.raises(ShapeError, match="tensor must be finite"):
        proc(NAN_T, (3, 3, 2), CFG)


def test_infinite_entry_refused_before_any_product():
    # was: RuntimeWarning "invalid value encountered in matmul"
    with pytest.raises(ShapeError, match="tensor must be finite"):
        procedure1(with_entry(math.inf), (3, 3, 2), CFG)


def test_nan_no_longer_gives_a_result():
    # was: a KronSplit with a nan residual, None, and ModelError(nan)
    with pytest.raises(ShapeError, match="finite"):
        kron_split(np.full((4, 4), math.nan), ((2, 2), (2, 2)))
    u = CENTERED[0].copy()
    u[0, 0] = math.nan
    with pytest.raises(ShapeError, match="finite"):
        ssc1_violation_witness(u, CENTERED[1])
    core = A42.truth.core.data.copy()
    core[0] = math.nan
    with pytest.raises(ShapeError, match="finite"):
        model_error(with_core(A42.truth, core), A42.tensor)


def test_nan_core_no_longer_read_as_overflow():
    # was: InputError "model entries overflow float64"
    core = A42.truth.core.data.copy()
    core[0] = math.nan
    with pytest.raises(ShapeError, match="cores must be finite"):
        essential_match(with_core(A42.truth, core), A42.truth)


@pytest.mark.parametrize("shape", [(6,), (6, 2, 2)])
@pytest.mark.parametrize("probe", [
    lambda v: align_columns(v, v),
    lambda v: maxdet_simplex(v, CFG),
    lambda v: minvol_nmf(v, 1, CFG),
    lambda v: minvol_order2_ntd(v, 1, CFG),
    lambda v: spa_separable_nmf(v, 1),
    numerical_rank,
], ids=["align_columns", "maxdet_simplex", "minvol_nmf", "minvol_order2_ntd",
        "spa_separable_nmf", "numerical_rank"])
def test_wrong_axis_count_refused(probe, shape):
    # was: a raw IndexError, ValueError, TypeError or LinAlgError, and
    # numerical_rank read a vector as one row
    with pytest.raises(ShapeError, match="matri"):
        probe(np.ones(shape))


def test_text_matrix_refused():
    # was: an SSC report
    with pytest.raises(ShapeError, match="finite real matrix"):
        check_ssc([["1", "0"], ["0", "1"], ["1", "1"]])


def test_numeric_string_file_exits_3(tmp_path):
    # was: exit 0 and a separability verdict
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"dims": [2, 2], "data": ["1", "0", "0", "1"]}))
    assert run_cli("check", "separable", path)[0] == 3


def test_model_core_layout_read_as_in_a_tensor_file(tmp_path):
    # was: a row-major core loaded, and eval exited 0
    doc = A42.truth.to_json()
    doc["core"]["layout"] = "row-major"
    model, good = tmp_path / "model.json", tmp_path / "truth.json"
    model.write_text(json.dumps(doc))
    A42.truth.save(good)
    code, err = run_cli("eval", "--model", model, "--truth", good)
    assert code == 3 and "layout" in err
