"""The decomposition record every identification pipeline returns."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ShapeError
from .tensor import DenseTensor, _finite_array, multilinear_transform


@dataclass
class NtdModel:
    """Factor matrices plus core tensor of an nTD.

    Factors are nonnegative with unit column sums (within the solver
    feasibility tolerance); the core is unconstrained.  ``diagnostics``
    records run metadata: slice indices used, weights drawn, determinant
    values, whether the core happens to be nonnegative.
    """

    factors: list
    core: DenseTensor
    ranks: tuple
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.factors = [np.asarray(u, dtype=float) for u in self.factors]
        self.ranks = tuple(int(r) for r in self.ranks)
        if len(self.factors) != self.core.order:
            raise ShapeError("factor count does not match core order")
        for k, u in enumerate(self.factors):
            if u.ndim != 2 or u.shape[1] != self.ranks[k] \
                    or self.core.dims[k] != self.ranks[k]:
                raise ShapeError(
                    f"factor {k} shape {u.shape} inconsistent with rank "
                    f"{self.ranks[k]} and core dims {self.core.dims}"
                )

    @property
    def dims(self) -> tuple:
        return tuple(u.shape[0] for u in self.factors)

    @property
    def order(self) -> int:
        return len(self.factors)

    def reconstruct(self) -> DenseTensor:
        return multilinear_transform(self.core, self.factors)

    def core_is_nonnegative(self, tol=0.0) -> bool:
        return bool(self.core.data.min(initial=0.0) >= -tol)

    def to_json(self) -> dict:
        return {
            "factors": [u.tolist() for u in self.factors],
            "core": {"dims": list(self.core.dims), "layout": "col-major",
                     "data": self.core.data.tolist()},
            "ranks": list(self.ranks),
            "diagnostics": _jsonable(self.diagnostics),
        }

    @classmethod
    def from_json(cls, doc) -> "NtdModel":
        try:
            factors = [_finite_array(u, "model") for u in doc["factors"]]
            core = DenseTensor(tuple(doc["core"]["dims"]),
                               _finite_array(doc["core"]["data"], "model"))
            ranks = doc["ranks"]
            diagnostics = doc.get("diagnostics", {})
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed model document: {exc}") from exc
        # Own guard: ShapeError is a ValueError and must keep its exit code.
        try:
            ranks = tuple(int(r) for r in ranks)
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed model ranks: {exc}") from exc
        return cls(factors, core, ranks, diagnostics)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "NtdModel":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read model {path}: {exc}") from exc
        return cls.from_json(doc)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj
