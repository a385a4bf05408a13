"""Dense order-d tensors, multilinear transforms, unfoldings and slices.

Layout convention (the only one supported): generalized column-major, the
first index varies fastest.  The flat offset of the zero-based index tuple
``(i_0, ..., i_{d-1})`` is ``i_0 + n_0*i_1 + n_0*n_1*i_2 + ...``, which is
numpy's Fortran order.  Only this module merges modes (``_flatten``), for
unfoldings and slices alike: grouped modes go in ascending mode order with
the first listed mode fastest, so that an order-2 tensor, its mode-1
unfolding and itself coincide.  Every slice is one of ``_slice_stack``'s,
which holds all ``rows x cols`` slices with the fixed index tuples first
fastest along its last axis; ``slice_combination`` weights that axis.

Modes are zero-based everywhere in this package.

This module also holds the package's two argument gates: ``_integers``
decides what an integer is (every rank, dim, mode, index and seed) and
``_tolerances`` what a tolerance is (a positive, finite real number).
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import struct
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import InputError, PartitionError, ShapeError

TENSOR_MAGIC = b"NTDTNSR1"


def _integers(values, what):
    """``values`` as Python ints by ``operator.index``, the package's one
    integer rule: a float, a numeric string or None is never truncated but
    a ``ShapeError`` saying ``what``, as is a ``values`` not iterable."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ShapeError(f"{what}, got {values!r}") from None


def _tolerances(values, what):
    """``values`` as Python floats, the package's one tolerance rule: each
    a real number, not a bool, whose float is positive and finite; any
    other value (nan, a string, None) is a ``ShapeError`` saying ``what``."""
    floats = []
    for v in values:
        try:
            f = float(v) if isinstance(v, numbers.Real) \
                and not isinstance(v, bool) else math.nan
        except OverflowError:  # an int or fraction past float's range
            f = math.inf
        if not 0 < f < math.inf:  # False for nan too
            raise ShapeError(f"{what} must be a positive and finite number, "
                             f"got {v!r}")
        floats.append(f)
    return tuple(floats)


def _as_mode_tuple(modes, d, *, name="modes"):
    """Validate a mode set: strictly increasing, within range, non-empty."""
    if modes is None:
        modes = ()
    elif np.isscalar(modes):
        modes = (modes,)
    modes = _integers(modes, f"{name} must be integers")
    if len(modes) == 0:
        raise PartitionError(f"{name} must be non-empty")
    if any(m < 0 or m >= d for m in modes):
        raise PartitionError(f"{name} {modes} out of range for order {d}")
    if any(b <= a for a, b in zip(modes, modes[1:])):
        raise PartitionError(f"{name} {modes} must be strictly increasing")
    return modes


def _partition(d, rows, fixed, cols):
    """The three mode groups as tuples; ``PartitionError`` unless each is
    non-empty and strictly increasing and they partition the ``d`` modes."""
    groups = (_as_mode_tuple(rows, d, name="row_modes"),
              _as_mode_tuple(fixed, d, name="fixed_modes"),
              _as_mode_tuple(cols, d, name="col_modes"))
    if sorted(m for g in groups for m in g) != list(range(d)):
        raise PartitionError(f"row/fixed/col modes {groups} do not "
                             f"partition the {d} modes")
    return groups


def _mode_groups(fixed, d):
    """``(rows, fixed, cols)`` of the slices that fix ``fixed``: the other
    modes, the largest one alone on the columns."""
    rest = tuple(m for m in range(d) if m not in np.atleast_1d(fixed))
    return rest[:-1], fixed, rest[-1:]


def _unfolding_groups(axes, d):
    """``(rest, axes)`` of the unfolding along the proper mode subset
    ``axes``, which may come unsorted or as one integer; the returned
    axes are sorted."""
    if axes is not None:
        axes = sorted(_integers(np.atleast_1d(axes), "axes must be integers"))
    axes = _as_mode_tuple(axes, d, name="axes")
    if len(axes) >= d:
        raise PartitionError("axes must be a proper subset of the modes")
    return tuple(m for m in range(d) if m not in axes), axes


def _flatten(arr, groups) -> np.ndarray:
    """``arr`` with each mode group merged into one axis, the groups in
    the order given, each flattened first mode fastest."""
    merged = np.transpose(arr, [m for g in groups for m in g])
    return merged.reshape([prod(arr.shape[m] for m in g) for g in groups],
                          order="F")


def _unflatten(arr, modes, dims) -> "DenseTensor":
    """Inverse of :func:`_flatten`: the tensor of ``dims`` whose modes,
    taken in the order ``modes``, run through ``arr`` column-major."""
    shaped = np.reshape(arr, [dims[m] for m in modes], order="F")
    return DenseTensor.from_array(np.transpose(shaped, np.argsort(modes)))


@dataclass(frozen=True)
class DenseTensor:
    """Order-d dense tensor: ``dims`` plus flat data, first index fastest."""

    dims: tuple
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = _integers(self.dims, "tensor dims must be integers")
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1 or any(n < 1 for n in dims):
            raise ShapeError(f"invalid dims {dims}")
        data = np.asarray(self.data, dtype=float).ravel()
        if data.size != prod(dims):
            raise ShapeError(
                f"data length {data.size} does not match dims {dims}"
            )
        object.__setattr__(self, "data", data)

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def array(self) -> np.ndarray:
        """The data as a ``dims``-shaped ndarray (no copy)."""
        return self.data.reshape(self.dims, order="F")

    @classmethod
    def from_array(cls, arr) -> "DenseTensor":
        arr = np.asarray(arr, dtype=float)
        return cls(arr.shape, arr.ravel(order="F"))

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def __getitem__(self, idx):
        return self.array[idx]


@dataclass(frozen=True)
class SliceSpec:
    """Partition of the modes into row modes, fixed modes and column modes.

    ``fixed`` maps each fixed mode to the index it is pinned at.  The three
    groups must partition ``range(d)``; the resulting slice is the
    ``prod(n_i, i in row_modes) x prod(n_k, k in col_modes)`` matrix with
    each group flattened in ascending mode order, first mode fastest.
    """

    row_modes: tuple
    fixed: dict
    col_modes: tuple


def multilinear_transform(core: DenseTensor, factors) -> DenseTensor:
    """Apply one matrix per mode to a core tensor.

    ``factors[k]`` has shape ``(n_k, r_k)`` with ``r_k = core.dims[k]``; the
    result has dims ``(n_0, ..., n_{d-1})`` and entries
    ``sum over (i_0..i_{d-1}) of prod_k U_k[j_k, i_k] * core[i_0..i_{d-1}]``.
    Each mode is one ``np.matmul`` on the data as a C-order stack
    ``(n_{>k}, n_k, n_{<k})``, the last mode first if the result shrinks.
    """
    factors = [np.asarray(u, dtype=float) for u in factors]
    if len(factors) != core.order:
        raise ShapeError(f"expected {core.order} factors, got "
                         f"{len(factors)}")
    for k, u in enumerate(factors):
        if u.ndim != 2 or u.shape[1] != core.dims[k]:
            raise ShapeError(f"factor {k} has shape {u.shape}, expected "
                             f"(*, {core.dims[k]})")
    data, dims = core.data, list(core.dims)
    shrinks = prod(u.shape[0] for u in factors) < data.size
    for k in sorted(range(core.order), reverse=shrinks):
        data = np.matmul(factors[k], data.reshape(
            prod(dims[k + 1:]), dims[k], prod(dims[:k])))
        dims[k] = factors[k].shape[0]
    return DenseTensor(tuple(dims), data)


def unfold(t: DenseTensor, axes) -> np.ndarray:
    """Unfold along the mode set ``axes``.

    Returns the ``prod(n_j, j not in axes) x prod(n_i, i in axes)`` matrix
    whose row index flattens the complement modes (ascending, first fastest)
    and whose column index flattens ``axes`` likewise.
    """
    return _flatten(t.array, _unfolding_groups(axes, t.order))


def fold(m, axes, dims) -> DenseTensor:
    """Inverse of :func:`unfold`: rebuild the tensor from its unfolding."""
    m = np.asarray(m, dtype=float)
    dims = _integers(dims, "fold dims must be integers")
    rows, axes = _unfolding_groups(axes, len(dims))
    expect = (prod(dims[k] for k in rows), prod(dims[k] for k in axes))
    if m.shape != expect:
        raise ShapeError(f"matrix shape {m.shape} inconsistent with {expect}")
    return _unflatten(m, rows + axes, dims)


def _slice_stack(t: DenseTensor, rows, fixed, cols) -> np.ndarray:
    """Every ``rows x cols`` slice of ``t`` as one ``(R, C, F)`` array,
    each group flattened first mode fastest as :func:`_flatten` does."""
    rows, fixed, cols = _partition(t.order, rows, fixed, cols)
    return _flatten(t.array, (rows, cols, fixed))


def slice_matrix(t: DenseTensor, spec: SliceSpec) -> np.ndarray:
    """Extract the matrix slice described by ``spec``."""
    modes = _integers(spec.fixed, "fixed modes must be integers")
    index = _integers(spec.fixed.values(), "fixed indices must be integers")
    rows, fixed, cols = _partition(t.order, spec.row_modes, sorted(modes),
                                   spec.col_modes)
    pinned = [slice(None)] * t.order
    for m, i in zip(modes, index):
        if not 0 <= i < t.dims[m]:
            raise ShapeError(f"fixed index {i} out of range for mode {m}")
        pinned[m] = slice(i, i + 1)
    # the stack of the one-slice sub-tensor, so only that slice is copied
    return _flatten(t.array[tuple(pinned)], (rows, cols, fixed))[:, :, 0]


def mode_slice(t: DenseTensor, mode, index) -> np.ndarray:
    """Order-3 convenience: the ``index``-th slice along ``mode``.

    Rows/columns are the remaining modes in ascending order, so fixing the
    last mode of an order-3 tensor gives the familiar frontal slices.
    """
    rows, _, cols = _mode_groups(mode, t.order)
    return slice_matrix(t, SliceSpec(rows, {mode: index}, cols))


def slice_combination(t: DenseTensor, fixed_modes, weights,
                      row_modes=None, col_modes=None) -> np.ndarray:
    """Weighted sum of the slices obtained by fixing ``fixed_modes``.

    ``weights`` is one numeric vector over all index tuples of the fixed
    modes (ascending, first fastest); a unit vector therefore reproduces a
    single slice.  Row and column modes default to the remaining modes with
    the largest one alone on the columns, matching the order-3 slice
    convention.  Weights of another shape or kind, a non-finite weight, or
    finite weights whose combination overflows raise ``ShapeError``.
    """
    if row_modes is None and col_modes is None:
        row_modes, _, col_modes = _mode_groups(fixed_modes, t.order)
    stack = _slice_stack(t, row_modes, fixed_modes, col_modes)
    try:
        weights = np.asarray(weights)
    except ValueError:  # a ragged nested list
        raise ShapeError("slice weights must be one vector") from None
    if weights.dtype.kind not in "buif" or weights.shape != stack.shape[2:]:
        raise ShapeError(f"slice weights must be one real vector of "
                         f"{stack.shape[2]} entries, got shape "
                         f"{weights.shape} and dtype {weights.dtype}")
    weights = weights.astype(float)
    if not np.isfinite(weights).all():
        raise ShapeError("slice weights must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        out = stack @ weights
    if not np.isfinite(out).all():
        raise ShapeError("slice weights overflow: their combination is not "
                         "finite")
    return out


def _finite_array(data, what) -> np.ndarray:
    """``data`` read from a file as floats; ``InputError`` unless finite."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} holds non-numeric data: {exc}") from exc
    if not np.isfinite(arr).all():
        raise InputError(f"{what} holds non-finite data")
    return arr


def write_tensor_json(t: DenseTensor, path):
    doc = {"dims": list(t.dims), "layout": "col-major",
           "data": t.data.tolist()}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def write_tensor_binary(t: DenseTensor, path):
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<I", t.order))
        fh.write(struct.pack(f"<{t.order}I", *t.dims))
        fh.write(t.data.astype("<f8").tobytes())


def read_tensor(path) -> DenseTensor:
    """Read a tensor file, auto-detecting the JSON and binary formats;
    ``InputError`` for a file that is unreadable, malformed or whose dims
    and data disagree."""
    try:
        return _read_tensor(path)
    except ShapeError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _read_tensor(path) -> DenseTensor:
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(TENSOR_MAGIC))
            if head == TENSOR_MAGIC:
                # The header's sizes are checked against the bytes the
                # file holds before anything is allocated for them.
                body = fh.read()
                (order,) = struct.unpack_from("<I", body)
                dims = struct.unpack_from(f"<{order}I", body, 4)
                n, start = prod(dims), 4 + 4 * order
                if 8 * n > len(body) - start:
                    raise InputError(
                        f"truncated tensor file {path}: dims {dims} need "
                        f"{8 * n} data bytes, {len(body) - start} left")
                data = np.frombuffer(body, dtype="<f8", count=n, offset=start)
                return DenseTensor(dims, _finite_array(data.copy(), path))
    except struct.error as exc:  # the header ends early
        raise InputError(f"truncated tensor file {path}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot parse {path}: {exc}") from exc
    if isinstance(doc, list):  # bare nested array, used for matrices
        return DenseTensor.from_array(_finite_array(doc, path))
    try:
        dims, data = doc["dims"], doc["data"]
        layout = doc.get("layout", "col-major")
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed tensor document {path}") from exc
    if layout != "col-major":
        raise InputError(f"unsupported layout {layout!r}")
    return DenseTensor(dims, _finite_array(data, path))
