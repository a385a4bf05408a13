"""Property tests of the procedures' argument boundary.

Whatever ranks, slice indices, weights and tensor scale a procedure is
given, it raises nothing but ``NtdkitError`` subclasses, raises no
RuntimeWarning (an error in this suite, see ``pyproject.toml``), and a
model it returns has a finite reconstruction error within the
feasibility tolerance and saves as strict JSON.  Hypothesis runs
derandomized with no example database, so every run tries the same
examples.
"""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ntdkit.errors import NtdkitError
from ntdkit.procedures import (ModePartition, procedure0, procedure1,
                               procedure2, procedure3, procedure4,
                               procedure_d0, procedure_d1, procedure_d3,
                               separable_orderd)
from ntdkit.solvers import SolverConfig
from ntdkit.synth import gen_instance
from ntdkit.tensor import DenseTensor

CFG = SolverConfig(seed=5)
PART = ModePartition((0,), (2, 3), (1,))

# procedure -> (assumption, dims, ranks, extra gen_instance arguments)
SHAPES = {
    "0": ("A4.x-unfold", (6, 5, 20), (2, 2, 4), {}),
    "1": ("A4.2", (10, 10, 6), (3, 3, 2), {}),
    "2": ("A4.3", (10, 10, 6), (3, 3, 2), {}),
    "3": ("A4.4", (10, 10, 6), (3, 3, 2), {}),
    "4": ("A4.5", (10, 10, 6), (3, 3, 2), {}),
    "d0": ("A5.2", (6, 5, 4, 7), (2, 2, 2, 2), {"axes": (2, 3)}),
    "d1": ("A5.3", (8, 8, 6, 6), (3, 3, 2, 2), {}),
    "d3": ("A5.4", (8, 8, 4, 4), (2, 2, 2, 2),
           {"partition": {"rows": [0], "fixed": [2, 3], "cols": [1]}}),
    "sep-d": ("A-sep", (8, 7, 6), (3, 3, 2), {}),
}


@functools.lru_cache(maxsize=None)
def instance(name):
    tag, dims, ranks, kw = SHAPES[name]
    return gen_instance(tag, dims, ranks, seed=11, **kw).tensor, ranks


def run(name, t, ranks, index, weights):
    """One call of procedure ``name``; ``index`` and ``weights`` go to the
    arguments that procedure takes."""
    if name == "0":
        return procedure0(t, ranks, CFG)
    if name == "1":
        return procedure1(t, ranks, CFG, i2=index, i3=index)
    if name == "2":
        return procedure2(t, ranks, CFG, alpha=weights)
    if name == "3":
        return procedure3(t, ranks, CFG, slice_index=index)
    if name == "4":
        return procedure4(t, ranks, CFG, alpha=weights)
    if name == "d0":
        return procedure_d0(t, ranks, (2, 3), CFG)
    if name == "d1":
        return procedure_d1(
            t, ranks, CFG,
            slice_indices=None if index is None else {3: {1: index, 2: 0}},
            weights=None if weights is None else {1: weights})
    if name == "d3":
        return procedure_d3(
            t, ranks, PART, CFG, weights=weights,
            fixed_index=None if index is None or weights is not None
            else (index, 0))
    return separable_orderd(t, ranks)


def check(name, t, ranks, index, weights):
    try:
        model = run(name, t, ranks, index, weights)
    except NtdkitError:
        return
    err = model.diagnostics["recon_error"]
    assert np.isfinite(err) and err <= CFG.feas_tol
    absdet = model.diagnostics.get("absdet")
    assert absdet is None or np.isfinite(absdet)
    json.dumps(model.to_json(), allow_nan=False)


rank_entries = st.one_of(st.integers(-2, 6), st.floats(-2, 6),
                         st.sampled_from(["3", None]))
indices = st.one_of(st.none(), st.integers(-2, 12), st.floats(-2, 12),
                    st.sampled_from(["1", (0,)]))
scales = st.one_of(st.just(1.0),
                   st.integers(-300, 308).map(lambda e: 10.0 ** e))


def weight_lists(n):
    """Weights of about the right length: ordinary, huge, or not finite,
    or not a vector of numbers at all."""
    values = st.one_of(st.floats(-3, 3), st.floats(allow_nan=True,
                                                   allow_infinity=True))
    return st.one_of(st.none(),
                     st.lists(values, min_size=n - 1, max_size=n + 1),
                     st.integers(100, 308).map(lambda e: [10.0 ** e] * n),
                     st.just([["1"] * n]), st.just([[1.0] * n]))


@pytest.mark.parametrize("name", list(SHAPES))
@settings(max_examples=30)
@given(data=st.data())
def test_only_ntdkit_errors_escape(name, data):
    t, ranks = instance(name)
    slices = {"2": t.dims[2], "4": t.dims[2], "d1": 36, "d3": 16}.get(name, 1)
    ranks = list(ranks)
    if data.draw(st.booleans(), label="bad rank"):
        k = data.draw(st.integers(0, len(ranks) - 1), label="at")
        ranks[k] = data.draw(rank_entries, label="rank")
    scale = data.draw(scales, label="scale")
    check(name, DenseTensor(t.dims, scale * t.data), ranks,
          data.draw(indices, label="index"),
          data.draw(weight_lists(slices), label="weights"))
