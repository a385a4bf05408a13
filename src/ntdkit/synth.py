"""Synthetic ground-truth generators tailored to each assumption set.

Every generator is deterministic per seed, normalizes factor columns to
unit sum, and the composed instance is re-validated against its assumption
tag before being returned (rejection on failure).  ``gen_instance`` draws
the factor groups of the tag's ``evaluate._ROWS`` row in order, then a core
redrawn until each core condition passes the validator's ``_core_status``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .cones import ENUM_CAP_N, _ssc_memo, check_ssc
from .errors import GenerationError, InputError, PartitionError, ShapeError
from .evaluate import (_checked_seed, _conditions, _Core, _core_status,
                       _Group, _Shape, validate_assumptions)
from .model import NtdModel
from .procedures import ModePartition
from .tensor import (DenseTensor, _integers, _reading, _unfolding_groups,
                     read_tensor, write_tensor_binary, write_tensor_json)

# Largest rank of a factor that ``gen_ssc_factor`` draws.  It bounds the
# generator's SSC draws only: exact certification reaches cones.ENUM_CAP_R.
GEN_SSC_MAX_RANK = 6
_CORE_TRIES = 100


@dataclass
class Instance:
    """Ground-truth model plus the tensor it generates."""

    tensor: DenseTensor
    truth: NtdModel
    assumption_id: str
    seed: int
    meta: dict = field(default_factory=dict)


def _row_draws(rng, n, r, k):
    """Column indices and values of ``n`` rows, each as
    ``rng.choice(r, size=k, replace=False)`` then ``rng.random(k)`` give
    them (numpy's path for r <= 10000), read from the bit generator's
    words in one pass.

    numpy's 64-bit bit generators serve a 32-bit draw from the low half of
    a fresh word, keeping the high half in ``has_uint32``/``uinteger`` for
    the next one, and a double from a whole word's top 53 bits.  ``choice``
    draws Floyd's sample for bounds r-k ... r-1 (a value already taken
    takes the bound instead), then shuffles it for bounds k-1 ... 1, each
    draw from [0, j] by Lemire's rejection method.  Words are fetched no
    faster than they are certainly needed (the current one plus k doubles
    per later row), and the half-word buffer is written back, so the
    generator ends in the state the per-row calls leave.  Any other bit
    generator (e.g. MT19937, which draws 32-bit words natively) takes those
    per-row calls.
    """
    bg = rng.bit_generator
    if not isinstance(bg, (np.random.PCG64, np.random.PCG64DXSM,
                           np.random.SFC64, np.random.Philox)):
        cols, vals = np.empty((n, k), dtype=np.intp), np.empty((n, k))
        for i in range(n):
            cols[i] = rng.choice(r, size=k, replace=False)
            vals[i] = rng.random(k)
        return cols, vals
    state = bg.state
    has, half = state["has_uint32"], state["uinteger"]
    words, left = [], n

    def word():
        if not words:
            words.extend(reversed(bg.random_raw(1 + k * (left - 1)).tolist()))
        return words.pop()

    def bounded(j):
        nonlocal has, half
        while True:
            if has:
                has, u = 0, half
            else:
                w = word()
                has, half, u = 1, w >> 32, w & 0xFFFFFFFF
            m = u * (j + 1)
            if (m & 0xFFFFFFFF) >= 0x100000000 % (j + 1):
                return m >> 32

    cols, vals = [], []
    for left in range(n, 0, -1):
        idx = []
        for j in range(r - k, r):
            v = bounded(j) if j else 0
            idx.append(j if v in idx else v)
        for j in range(k - 1, 0, -1):
            t = bounded(j)
            idx[j], idx[t] = idx[t], idx[j]
        cols += idx
        vals += [(word() >> 11) * 2.0 ** -53 for _ in range(k)]
    state = bg.state
    state["has_uint32"], state["uinteger"] = has, half
    bg.state = state
    return (np.array(cols, dtype=np.intp).reshape(n, k),
            np.array(vals).reshape(n, k))


def gen_ssc_factor(n, r, rng=None, nnz_per_row=2, max_tries=100):
    """Sparse stochastic matrix certified to satisfy the SSC.

    Rows carry ``nnz_per_row`` uniform entries on random supports, every
    column is touched, columns are normalized to unit sum; draws are
    rejected until the exact SSC check passes, which it cannot past
    ``GEN_SSC_MAX_RANK`` or ``cones.ENUM_CAP_N`` rows: those raise
    ``GenerationError`` before any draw.  ``n``, ``r``, ``nnz_per_row``
    and ``max_tries`` must be integers (``ShapeError`` otherwise).

    Each row is read from the random stream exactly as
    ``rng.choice(r, size=nnz_per_row, replace=False)`` then
    ``rng.random(nnz_per_row)`` would read it (see ``_row_draws``), so the
    seeded bytes are those of that per-row loop; ``TestSeededBytes`` and
    the stream test in ``tests/test_synth.py`` pin them.
    """
    n, r, nnz_per_row, max_tries = _integers(
        (n, r, nnz_per_row, max_tries),
        "n, r, nnz_per_row and max_tries must be integers")
    if not 2 <= r <= n:
        raise ShapeError(f"r must be within 2..n, got n={n}, r={r}")
    if r > GEN_SSC_MAX_RANK:
        raise GenerationError(
            f"cannot certify SSC at r={r} (> {GEN_SSC_MAX_RANK})"
        )
    if n > ENUM_CAP_N:
        raise GenerationError(f"cannot certify SSC of a {n}x{r} factor: "
                              f"n={n} > ENUM_CAP_N={ENUM_CAP_N}")
    if not 1 <= nnz_per_row <= r:
        raise ShapeError(f"nnz_per_row={nnz_per_row} out of range")
    rng = np.random.default_rng(0 if rng is None else rng)
    for _ in range(max_tries):
        h = np.zeros((n, r))
        cols, vals = _row_draws(rng, n, r, nnz_per_row)
        h[np.arange(n)[:, None], cols] = vals
        if (h.sum(axis=0) == 0).any():
            continue
        h /= h.sum(axis=0)
        if check_ssc(h).ssc:
            return h
    raise GenerationError(f"no SSC draw accepted in {max_tries} tries")


def gen_separable_factor(n, r, rng=None):
    """Stochastic matrix with a scaled identity block on its first r rows."""
    n, r = _integers((n, r), "n and r must be integers")
    if not 1 <= r <= n:
        raise ShapeError(f"r must be within 1..n, got n={n}, r={r}")
    rng = np.random.default_rng(0 if rng is None else rng)
    top = np.diag(rng.random(r) + 0.5)
    rest = np.abs(rng.standard_normal((n - r, r)))
    h = np.vstack([top, rest])
    return h / h.sum(axis=0)


def gen_anchor_factor(n, r, rng=None):
    """Stochastic matrix whose rows are all scaled unit vectors.

    Separable (hence SSC), and any tensor slice weighted by one of its rows
    sees exactly one core slice: the stress shape for the randomized
    procedures.
    """
    n, r = _integers((n, r), "n and r must be integers")
    if not 1 <= r <= n:
        raise ShapeError(f"r must be within 1..n, got n={n}, r={r}")
    rng = np.random.default_rng(0 if rng is None else rng)
    cols = np.concatenate([rng.permutation(r),
                           rng.integers(r, size=n - r)])
    h = np.zeros((n, r))
    h[np.arange(n), cols] = rng.random(n) + 0.1
    return h / h.sum(axis=0)


def _structured_deficient_core(ranks, mode, rng):
    """Core whose every slice along ``mode`` is rank deficient while the
    slice span still reaches full rank: slice k only populates the k-th
    block of rows (round-robin split of the row indices)."""
    if len(ranks) != 3 or mode != 2:
        raise ShapeError("deficient-slice construction supports order-3 "
                         "cores along the last mode")
    r, r2, r3 = ranks
    if r2 != r or r3 < 2:
        raise ShapeError("deficient-slice construction needs square slices "
                         "and at least two of them")
    arr = np.zeros(ranks)
    groups = [list(range(k, r, r3)) for k in range(r3)]
    for k, rows in enumerate(groups):
        arr[rows, :, k] = rng.standard_normal((len(rows), r))
    return DenseTensor.from_array(arr)


def _draw_core(ranks, conditions, rng):
    """Gaussian core, structured along the mode of a "deficient" condition,
    redrawn until it passes each of the ``_Core`` ``conditions`` in turn."""
    mode = next((c.key for c in conditions if c.kind == "deficient"), None)
    for _ in range(_CORE_TRIES):
        core = DenseTensor(ranks, rng.standard_normal(prod(ranks))) \
            if mode is None else _structured_deficient_core(ranks, mode, rng)
        if all(_core_status(c, core, rng)[0] == "pass" for c in conditions):
            return core
    raise GenerationError(f"core conditions not met in {_CORE_TRIES} tries "
                          f"(likely infeasible for ranks {ranks})")


def gen_instance(assumption_id, dims, ranks, seed=0, axes=None,
                 partition=None, max_tries=50) -> Instance:
    """Draw factors and core for one assumption set, validate, retry.

    Kronecker-group SSC requirements are certified constructively: every
    group member after the first is drawn separable, so that the SSC of
    the first member carries over to the product.  ``axes`` must be a
    proper mode subset and ``partition`` must map exactly rows, fixed and
    cols to mode sets that partition the modes, else PartitionError.
    Dims, ranks, modes, the seed and ``max_tries`` must be integers
    (ShapeError otherwise), a rank below 1 raises ShapeError, and a
    negative ``seed`` UsageError, all before anything is drawn.

    Each certificate is computed once: the SSC reports of the generated
    factors are held for the length of this call, so validating a factor
    reuses the report its generator computed.  Nothing is kept after the
    call returns or raises.
    """
    dims = _integers(dims, "dims must be integers")
    ranks = _integers(ranks, "ranks must be integers")
    max_tries, = _integers([max_tries], "max_tries must be an integer")
    d = len(dims)
    if len(ranks) != d:
        raise ShapeError("dims and ranks must have equal length")
    if min(ranks, default=1) < 1:
        raise ShapeError(f"ranks must be positive, got {ranks}")
    if any(n < r for n, r in zip(dims, ranks)):
        raise ShapeError(f"dims {dims} smaller than ranks {ranks}")
    if axes is not None:
        _, axes = _unfolding_groups(axes, d)
    if partition is not None:
        if set(partition) != {"rows", "fixed", "cols"}:
            raise PartitionError("partition takes rows, fixed and cols only")
        named = dict(zip(("rows", "fixed", "cols"), ModePartition(
            partition["rows"], partition["fixed"],
            partition["cols"]).validate(d)))
        partition = {k: list(named[k]) for k in partition}
    seed = _checked_seed(seed)
    rng = np.random.default_rng(seed)
    meta = {"dims": list(dims), "ranks": list(ranks)}
    if axes is not None:
        meta["axes"] = list(axes)
    if partition is not None:
        meta["partition"] = partition

    last_report = None
    with _ssc_memo():
        for _ in range(max_tries):
            factors, core = _draw(assumption_id, dims, ranks, rng, meta)
            truth = NtdModel(factors, core, core.dims,
                             {"generator": assumption_id})
            inst = Instance(truth.reconstruct(), truth, assumption_id, seed,
                            meta)
            report = validate_assumptions(inst, assumption_id)
            if report.overall == "pass":
                inst.meta["validation"] = report.to_json()
                return inst
            last_report = report
    raise GenerationError(
        f"no valid {assumption_id} instance in {max_tries} tries; last "
        f"report: {None if last_report is None else last_report.to_json()}"
    )


def _draw(assumption_id, dims, ranks, rng, meta):
    """Factors and core of one draw from the row of ``assumption_id``: its
    leading shape rules raise, its factor groups are drawn in row order
    and the core to its core conditions."""
    factors, core = [None] * len(dims), []
    for c in _conditions(assumption_id, len(dims), ranks, meta):
        if isinstance(c, _Shape) and not c.ok and c.error:
            raise ShapeError(c.error)
        if isinstance(c, _Group):
            for pos, k in enumerate(c.modes):
                factors[k] = _draw_factor(c.kind if pos == 0 else "sep",
                                          dims[k], ranks[k], rng)
        elif isinstance(c, _Core) and not c.report_only:
            core.append(c)
    return factors, _draw_core(ranks, core, rng)


def _draw_factor(kind, n, r, rng):
    if kind == "ssc":
        # At r=2 the SSC equals separability, which two-nonzero rows can
        # never satisfy; fall back to one nonzero per row there.
        return gen_ssc_factor(n, r, rng, nnz_per_row=1 if r == 2 else 2)
    if kind == "sep":
        return gen_separable_factor(n, r, rng)
    if kind == "anchor":
        return gen_anchor_factor(n, r, rng)
    u = np.abs(rng.standard_normal((n, r))) + 0.05
    return u / u.sum(axis=0)


def save_instance(inst: Instance, path):
    """Write a bundle: the tensor as JSON and as its binary twin
    ``tensor.bin``, the truth model and the metadata."""
    os.makedirs(path, exist_ok=True)
    write_tensor_json(inst.tensor, os.path.join(path, "tensor.json"))
    write_tensor_binary(inst.tensor, os.path.join(path, "tensor.bin"))
    inst.truth.save(os.path.join(path, "truth.json"))
    with open(os.path.join(path, "meta.json"), "w") as fh:
        fh.write(json.dumps({"assumption_id": inst.assumption_id,
                             "seed": inst.seed, "meta": inst.meta}) + "\n")


def load_instance(path) -> Instance:
    """Read a bundle, taking the tensor from ``tensor.bin`` when the bundle
    has one and from ``tensor.json`` otherwise; ``InputError`` for a file
    that is malformed or a truth whose dims are not the tensor's."""
    binary = os.path.join(path, "tensor.bin")
    tensor = read_tensor(binary if os.path.exists(binary)
                         else os.path.join(path, "tensor.json"))
    truth = NtdModel.load(os.path.join(path, "truth.json"))
    if truth.dims != tensor.dims:
        raise InputError(f"bundle {path}: truth dims {truth.dims} differ "
                         f"from tensor dims {tensor.dims}")
    with _reading(f"instance metadata {path}"), \
            open(os.path.join(path, "meta.json")) as fh:
        doc = json.load(fh)
        meta = doc.get("meta", {})
        if not isinstance(meta, dict):
            raise TypeError("its meta is not a JSON object")
        return Instance(tensor, truth, doc.get("assumption_id", ""),
                        _checked_seed(doc.get("seed", 0)), meta)
