"""Property tests of the integer arguments of the tensor and shape layer.

Each test draws a valid call, then gives one of its integers in one of
five kinds: a Python int, a numpy int64, an integral float, a
non-integral float or a numeric string.  The two integer kinds give equal
results; every other kind raises ``ShapeError``, never truncated to an
int; and nothing but ``NtdkitError`` escapes.  Hypothesis runs
derandomized with no example database, so every run tries the same
examples.
"""

import functools
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ntdkit.errors import NtdkitError, PartitionError, ShapeError
from ntdkit.evaluate import essential_match
from ntdkit.kron import kron_all, kron_split_multi
from ntdkit.model import NtdModel
from ntdkit.solvers import SolverConfig
from ntdkit.synth import gen_instance
from ntdkit.tensor import (DenseTensor, SliceSpec, fold, mode_slice,
                           slice_matrix, unfold)

KINDS = {
    "int": int,
    "numpy": np.int64,
    "integral float": float,
    "float": lambda v: v + 0.5,
    "text": str,
}
property_settings = settings(max_examples=25)


def outcome(call, key):
    """``key`` of what ``call`` returns, or the type and text of the
    ``NtdkitError`` it raises; any other exception fails the test."""
    try:
        return key(call())
    except NtdkitError as exc:
        return type(exc), str(exc)


def check_kind(kind, make_call, value, key):
    """``make_call(v)`` with ``v`` the integer ``value`` in ``kind``: the
    integer kinds agree with a Python int, the others raise
    ``ShapeError``."""
    got = KINDS[kind](value)
    if kind in ("int", "numpy"):
        assert outcome(lambda: make_call(got), key) == \
            outcome(lambda: make_call(value), key)
    else:
        with pytest.raises(ShapeError):
            make_call(got)


def replaced(values, at, value):
    """``values`` as a list with entry ``at`` set to ``value``."""
    values = list(values)
    values[at] = value
    return values


def array_key(arr):
    return arr.shape, arr.tobytes()


def tensor_key(t):
    return t.dims, t.data.tobytes()


kinds = st.sampled_from(list(KINDS))


@st.composite
def tensors(draw, min_order=1, max_order=4):
    dims = draw(st.lists(st.integers(1, 3), min_size=min_order,
                         max_size=max_order))
    return DenseTensor(dims, np.arange(prod(dims), dtype=float))


@property_settings
@given(data=st.data())
def test_dense_tensor_dims(data):
    dims = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    at = data.draw(st.integers(0, len(dims) - 1))
    check_kind(data.draw(kinds),
               lambda v: DenseTensor(replaced(dims, at, v),
                                     np.ones(prod(dims))),
               dims[at], tensor_key)


@property_settings
@given(data=st.data())
def test_unfold_and_fold(data):
    t = data.draw(tensors(min_order=2))
    axes = data.draw(st.lists(st.integers(0, t.order - 1), min_size=1,
                              max_size=t.order - 1, unique=True))
    at = data.draw(st.integers(0, len(axes) - 1))
    check_kind(data.draw(kinds),
               lambda v: unfold(t, replaced(axes, at, v)),
               axes[at], array_key)
    check_kind(data.draw(kinds), lambda v: unfold(t, v), axes[0], array_key)
    m = unfold(t, axes)
    k = data.draw(st.integers(0, t.order - 1))
    check_kind(data.draw(kinds),
               lambda v: fold(m, axes, replaced(t.dims, k, v)),
               t.dims[k], tensor_key)


@property_settings
@given(data=st.data())
def test_slice_matrix(data):
    t = data.draw(tensors(min_order=3))
    modes = data.draw(st.permutations(range(t.order)))
    cuts = sorted(data.draw(st.lists(st.integers(1, t.order - 1),
                                     min_size=2, max_size=2, unique=True)))
    rows, fixed, cols = (sorted(modes[:cuts[0]]),
                         sorted(modes[cuts[0]:cuts[1]]),
                         sorted(modes[cuts[1]:]))
    index = [data.draw(st.integers(0, t.dims[m] - 1)) for m in fixed]
    at = data.draw(st.integers(0, len(fixed) - 1))

    def with_index(v):
        pins = dict(zip(fixed, replaced(index, at, v)))
        return slice_matrix(t, SliceSpec(rows, pins, cols))

    def with_mode(v):
        pins = dict(zip(replaced(fixed, at, v), index))
        return slice_matrix(t, SliceSpec(rows, pins, cols))

    def with_row(v):
        return slice_matrix(t, SliceSpec(replaced(rows, 0, v),
                                         dict(zip(fixed, index)), cols))

    check_kind(data.draw(kinds), with_index, index[at], array_key)
    check_kind(data.draw(kinds), with_mode, fixed[at], array_key)
    check_kind(data.draw(kinds), with_row, rows[0], array_key)


@property_settings
@given(data=st.data())
def test_mode_slice(data):
    t = data.draw(tensors(min_order=3, max_order=3))
    mode = data.draw(st.integers(0, 2))
    index = data.draw(st.integers(0, t.dims[mode] - 1))
    check_kind(data.draw(kinds), lambda v: mode_slice(t, v, index), mode,
               array_key)
    check_kind(data.draw(kinds), lambda v: mode_slice(t, mode, v), index,
               array_key)


@property_settings
@given(data=st.data())
def test_model_ranks(data):
    ranks = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    factors = [np.full((r + 1, r), 1.0 / (r + 1)) for r in ranks]
    core = DenseTensor(ranks, np.ones(prod(ranks)))
    at = data.draw(st.integers(0, len(ranks) - 1))
    check_kind(data.draw(kinds),
               lambda v: NtdModel(factors, core, replaced(ranks, at, v)),
               ranks[at], lambda m: m.ranks)


@functools.lru_cache(maxsize=None)
def kron_input(shapes):
    rng = np.random.default_rng(len(shapes))
    factors = [rng.random(shape) + 0.1 for shape in shapes]
    return kron_all([u / u.sum(axis=0) for u in factors])


@property_settings
@given(data=st.data())
def test_kron_split_multi_shapes(data):
    shapes = data.draw(st.lists(st.tuples(st.integers(2, 3),
                                          st.integers(1, 2)),
                                min_size=1, max_size=3))
    x = kron_input(tuple(shapes))
    at, side = data.draw(st.integers(0, len(shapes) - 1)), \
        data.draw(st.integers(0, 1))

    def split(v):
        return kron_split_multi(x, replaced(
            shapes, at, tuple(replaced(shapes[at], side, v))))

    check_kind(data.draw(kinds), split, shapes[at][side],
               lambda s: [u.tobytes() for u in s.factors]
               + [s.perm.tobytes()])


# (assumption, dims, ranks, extra gen_instance arguments)
GEN_CASES = [
    ("A4.1", (4, 4, 3), (2, 2, 2), {}),
    ("A5.2", (4, 3, 3, 3), (2, 2, 2, 2), {"axes": [2, 3]}),
    ("A5.4", (4, 4, 3, 3), (2, 2, 2, 2),
     {"partition": {"rows": [0], "fixed": [2, 3], "cols": [1]}}),
]


def instance_key(inst):
    return (tensor_key(inst.tensor), inst.seed, repr(inst.meta),
            [u.tobytes() for u in inst.truth.factors])


@property_settings
@given(data=st.data())
def test_gen_instance_integers(data):
    tag, dims, ranks, kw = data.draw(st.sampled_from(GEN_CASES))
    field = data.draw(st.sampled_from(["dims", "ranks", "seed", *kw]))
    args = {"dims": list(dims), "ranks": list(ranks), "seed": 0, **kw}
    if field == "seed":
        value, put = 0, lambda v: {**args, "seed": v}
    elif field == "partition":
        group = data.draw(st.sampled_from(["rows", "fixed", "cols"]))
        value = kw["partition"][group][0]
        put = lambda v: {**args, "partition": {
            **kw["partition"], group: replaced(kw["partition"][group], 0, v)}}
    else:
        at = data.draw(st.integers(0, len(args[field]) - 1))
        value = args[field][at]
        put = lambda v: {**args, field: replaced(args[field], at, v)}
    check_kind(data.draw(kinds), lambda v: gen_instance(tag, **put(v)),
               value, instance_key)


@property_settings
@given(data=st.data())
def test_solver_config_seed(data):
    seed = data.draw(st.integers(0, 2**63 - 1))
    check_kind(data.draw(kinds), lambda v: SolverConfig(seed=v), seed,
               lambda cfg: (type(cfg.seed), cfg.seed))


@pytest.mark.parametrize("tol", ["1e-9", None, [1e-9], 1j])
def test_non_numeric_tolerance_refused(tol):
    model = NtdModel([np.eye(2)] * 2, DenseTensor((2, 2), np.ones(4)), (2, 2))
    with pytest.raises(ShapeError, match="positive and finite"):
        SolverConfig(feas_tol=tol)
    with pytest.raises(ShapeError, match="positive and finite"):
        essential_match(model, model, tol=tol)


@pytest.mark.parametrize("axes", [[0, None], [None], [1, "0"]])
def test_unsortable_axes_refused(axes):
    t = DenseTensor((2, 3, 4), np.arange(24.0))
    with pytest.raises(ShapeError, match="axes must be integers"):
        unfold(t, axes)


@pytest.mark.parametrize("extra", [[2.7], ["x"]])
def test_partition_with_another_key_refused(extra):
    # the meta records the validated modes, never a value cast by int()
    partition = {**GEN_CASES[2][3]["partition"], "note": extra}
    with pytest.raises(PartitionError, match="rows, fixed and cols only"):
        gen_instance("A5.4", (4, 4, 3, 3), (2, 2, 2, 2), partition=partition)
