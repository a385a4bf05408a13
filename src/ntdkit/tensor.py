"""Dense order-d tensors, multilinear transforms, unfoldings and slices.

Layout convention (the only one supported): generalized column-major, the
first index varies fastest.  The flat offset of the zero-based index tuple
``(i_0, ..., i_{d-1})`` is ``i_0 + n_0*i_1 + n_0*n_1*i_2 + ...``, which is
numpy's Fortran order.  All unfoldings and slices flatten grouped modes in
ascending mode order with the first listed mode fastest, so that an order-2
tensor, its mode-1 unfolding and itself coincide.

Modes are zero-based everywhere in this package.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import InputError, PartitionError, ShapeError

TENSOR_MAGIC = b"NTDTNSR1"


def _as_mode_tuple(modes, d, *, name="modes"):
    """Validate a mode set: strictly increasing, within range, non-empty."""
    if np.isscalar(modes):
        modes = (int(modes),)
    modes = tuple(int(m) for m in modes)
    if len(modes) == 0:
        raise PartitionError(f"{name} must be non-empty")
    if any(m < 0 or m >= d for m in modes):
        raise PartitionError(f"{name} {modes} out of range for order {d}")
    if any(b <= a for a, b in zip(modes, modes[1:])):
        raise PartitionError(f"{name} {modes} must be strictly increasing")
    return modes


@dataclass(frozen=True)
class DenseTensor:
    """Order-d dense tensor: ``dims`` plus flat data, first index fastest."""

    dims: tuple
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
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

    def validate(self, dims):
        d = len(dims)
        rows = _as_mode_tuple(self.row_modes, d, name="row_modes")
        cols = _as_mode_tuple(self.col_modes, d, name="col_modes")
        fixed_modes = _as_mode_tuple(sorted(self.fixed), d, name="fixed modes")
        all_modes = sorted(rows + cols + fixed_modes)
        if all_modes != list(range(d)):
            raise PartitionError(
                f"row/fixed/col modes {rows}/{fixed_modes}/{cols} do not "
                f"partition the {d} modes"
            )
        for m, i in self.fixed.items():
            if not 0 <= int(i) < dims[m]:
                raise ShapeError(f"fixed index {i} out of range for mode {m}")
        return rows, cols


def multilinear_transform(core: DenseTensor, factors) -> DenseTensor:
    """Apply one matrix per mode to a core tensor.

    ``factors[k]`` has shape ``(n_k, r_k)`` with ``r_k = core.dims[k]``; the
    result has dims ``(n_0, ..., n_{d-1})`` and entries
    ``sum over (i_0..i_{d-1}) of prod_k U_k[j_k, i_k] * core[i_0..i_{d-1}]``.
    """
    factors = [np.asarray(u, dtype=float) for u in factors]
    if len(factors) != core.order:
        raise ShapeError(
            f"expected {core.order} factors, got {len(factors)}"
        )
    for k, u in enumerate(factors):
        if u.ndim != 2 or u.shape[1] != core.dims[k]:
            raise ShapeError(
                f"factor {k} has shape {u.shape}, expected (*, {core.dims[k]})"
            )
    arr = core.array
    for k, u in enumerate(factors):
        arr = np.moveaxis(np.tensordot(u, arr, axes=(1, k)), 0, k)
    return DenseTensor.from_array(arr)


def unfold(t: DenseTensor, axes) -> np.ndarray:
    """Unfold along the mode set ``axes``.

    Returns the ``prod(n_j, j not in axes) x prod(n_i, i in axes)`` matrix
    whose row index flattens the complement modes (ascending, first fastest)
    and whose column index flattens ``axes`` likewise.
    """
    d = t.order
    axes = _as_mode_tuple(axes, d, name="axes")
    if len(axes) >= d:
        raise PartitionError("axes must be a proper subset of the modes")
    rows = tuple(m for m in range(d) if m not in axes)
    arr = np.transpose(t.array, rows + axes)
    return arr.reshape(
        (prod(t.dims[m] for m in rows), prod(t.dims[m] for m in axes)),
        order="F",
    )


def fold(m, axes, dims) -> DenseTensor:
    """Inverse of :func:`unfold`: rebuild the tensor from its unfolding."""
    m = np.asarray(m, dtype=float)
    dims = tuple(int(n) for n in dims)
    d = len(dims)
    axes = _as_mode_tuple(axes, d, name="axes")
    if len(axes) >= d:
        raise PartitionError("axes must be a proper subset of the modes")
    rows = tuple(k for k in range(d) if k not in axes)
    expect = (prod(dims[k] for k in rows), prod(dims[k] for k in axes))
    if m.shape != expect:
        raise ShapeError(f"matrix shape {m.shape} inconsistent with {expect}")
    arr = m.reshape(tuple(dims[k] for k in rows + axes), order="F")
    inv = np.argsort(rows + axes)
    return DenseTensor.from_array(np.transpose(arr, inv))


def slice_matrix(t: DenseTensor, spec: SliceSpec) -> np.ndarray:
    """Extract the matrix slice described by ``spec``."""
    rows, cols = spec.validate(t.dims)
    indexer = tuple(
        int(spec.fixed[m]) if m in spec.fixed else slice(None)
        for m in range(t.order)
    )
    sub = t.array[indexer]
    # Remaining axes of `sub` are rows+cols merged in ascending mode order.
    remaining = sorted(rows + cols)
    order = [remaining.index(m) for m in rows + cols]
    sub = np.transpose(sub, order)
    return sub.reshape(
        (prod(t.dims[m] for m in rows), prod(t.dims[m] for m in cols)),
        order="F",
    )


def mode_slice(t: DenseTensor, mode, index) -> np.ndarray:
    """Order-3 convenience: the ``index``-th slice along ``mode``.

    Rows/columns are the remaining modes in ascending order, so fixing the
    last mode of an order-3 tensor gives the familiar frontal slices.
    """
    d = t.order
    rest = tuple(m for m in range(d) if m != mode)
    spec = SliceSpec(rest[:-1], {mode: index}, rest[-1:])
    return slice_matrix(t, spec)


def slice_combination(t: DenseTensor, fixed_modes, weights,
                      row_modes=None, col_modes=None) -> np.ndarray:
    """Weighted sum of the slices obtained by fixing ``fixed_modes``.

    ``weights`` runs over all index tuples of the fixed modes (ascending,
    first fastest); a unit vector therefore reproduces a single slice.  Row
    and column modes default to the remaining modes with the largest one
    alone on the columns, matching the order-3 slice convention.
    """
    d = t.order
    fixed = _as_mode_tuple(fixed_modes, d, name="fixed_modes")
    rest = tuple(m for m in range(d) if m not in fixed)
    if not rest:
        raise PartitionError("fixed_modes must leave at least one free mode")
    if row_modes is None and col_modes is None:
        row_modes, col_modes = rest[:-1], rest[-1:]
    rows = _as_mode_tuple(row_modes, d, name="row_modes")
    cols = _as_mode_tuple(col_modes, d, name="col_modes")
    if tuple(sorted(rows + cols)) != rest:
        raise PartitionError("row/col modes must partition the free modes")
    weights = np.asarray(weights, dtype=float).ravel()
    nfixed = prod(t.dims[m] for m in fixed)
    if weights.size != nfixed:
        raise ShapeError(
            f"got {weights.size} weights for {nfixed} slices"
        )
    arr = np.transpose(t.array, rows + cols + fixed)
    arr = arr.reshape(
        (prod(t.dims[m] for m in rows), prod(t.dims[m] for m in cols), nfixed),
        order="F",
    )
    return arr @ weights


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
    """Read a tensor file, auto-detecting the JSON and binary formats."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(TENSOR_MAGIC))
            if head == TENSOR_MAGIC:
                (order,) = struct.unpack("<I", fh.read(4))
                dims = struct.unpack(f"<{order}I", fh.read(4 * order))
                n = prod(dims)
                data = np.frombuffer(fh.read(8 * n), dtype="<f8")
                if data.size != n:
                    raise InputError(f"truncated tensor file {path}")
                return DenseTensor(dims, _finite_array(data.copy(), path))
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
        dims = tuple(int(n) for n in doc["dims"])
        layout = doc.get("layout", "col-major")
        data = doc["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed tensor document {path}") from exc
    if layout != "col-major":
        raise InputError(f"unsupported layout {layout!r}")
    return DenseTensor(dims, _finite_array(data, path))
