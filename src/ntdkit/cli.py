"""Command-line front end: generate, check, decompose, evaluate, bench.

Exit codes are a stable contract: 0 success, 2 usage or precondition
violation, 3 unreadable/unparsable input, 4 solver or assumption failure.
All randomness flows from ``--seed``; timings can be suppressed with
``--no-timing`` so that repeated seeded invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .cones import (check_pssc, check_separable, check_ssc,
                    counterexample_dims_ok, kron_ssc_margin,
                    kron_ssc_sufficient)
from .errors import (ComputationError, GenerationError, InputError,
                     NtdkitError, UsageError)
from .evaluate import essential_match
from .model import NtdModel
from .procedures import (ModePartition, procedure0, procedure1, procedure2,
                         procedure3, procedure4, procedure_d0, procedure_d1,
                         procedure_d3, separable_orderd)
from .solvers import SolverConfig
from .synth import gen_instance, load_instance, save_instance
from .tensor import _integers, _tolerances, read_tensor

EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_SOLVER = 0, 2, 3, 4

CSV_HEADER = ["command", "procedure", "seed", "matched", "max_factor_err",
              "core_err", "recon_err", "ms", "error"]


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _ints(text):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") \
            from exc


def _parse_partition(text) -> ModePartition:
    parts = text.split("|")
    if len(parts) != 3:
        raise UsageError(
            "partition must be 'rows|fixed|cols', e.g. '0|2,3|1'"
        )
    return ModePartition(_ints(parts[0]), _ints(parts[1]), _ints(parts[2]))


_SOLVER_FIELDS = {"feas_tol": float, "seed": int}


def _load_solver_config(args) -> SolverConfig:
    """The ``--solver-config`` file's ``name = value`` lines, each value's
    text parsed by its field's type, with the flags on top; InputError for
    an unknown name or a value that does not parse."""
    values = {}
    if args.solver_config:
        try:
            with open(args.solver_config) as fh:
                lines = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read solver config: {exc}") from exc
        for line in map(str.strip, lines):
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _SOLVER_FIELDS:
                raise InputError(f"unknown solver config field {key!r}")
            try:
                values[key] = _SOLVER_FIELDS[key](val.strip())
            except ValueError as exc:
                raise InputError(f"solver config {key}: {exc}") from exc
    flags = {name: getattr(args, name) for name in _SOLVER_FIELDS
             if getattr(args, name) is not None}
    return SolverConfig(**{**values, **flags})


def _read_matrix(path) -> np.ndarray:
    t = read_tensor(path)
    if t.order == 2:
        return t.array
    if t.order == 1:
        return t.array.reshape(-1, 1)
    raise InputError(f"{path} holds an order-{t.order} tensor, not a matrix")


def _emit(doc):
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def cmd_gen(args) -> int:
    partition = None
    if args.partition:
        p = _parse_partition(args.partition)
        partition = {"rows": list(p.row_modes), "fixed": list(p.fixed_modes),
                     "cols": list(p.col_modes)}
    inst = gen_instance(args.assumption, _ints(args.dims), _ints(args.ranks),
                        seed=args.seed,
                        axes=_ints(args.axes) if args.axes else None,
                        partition=partition)
    save_instance(inst, args.out)
    _emit({"written": args.out,
           "validation": inst.meta["validation"]["overall"]})
    return EXIT_OK


def cmd_check(args) -> int:
    sub = args.what
    flags = {"dims-ok": ("r1", "r2"),
             "kron-sufficient": ("r1", "r2", "p1", "p2")}.get(sub, ())
    missing = [f"--{f}" for f in flags if getattr(args, f) is None]
    if missing:
        raise UsageError(f"check {sub} needs {', '.join(missing)}")
    if sub == "dims-ok":
        _emit({"ok": counterexample_dims_ok(args.r1, args.r2)})
        return EXIT_OK
    if sub == "kron-sufficient":
        margin = kron_ssc_margin(args.r1, args.p1 * args.p1,
                                 args.r2, args.p2 * args.p2)
        _emit({"ok": kron_ssc_sufficient(args.r1, args.p1,
                                         args.r2, args.p2),
               "margin": margin})
        return EXIT_OK
    if not args.matrix:
        raise UsageError(f"check {sub} needs a matrix file")
    h = _read_matrix(args.matrix)
    if sub == "ssc":
        _emit(check_ssc(h).to_json())
    elif sub == "separable":
        flag, anchors = check_separable(h)
        _emit({"separable": flag, "anchors": anchors})
    elif sub == "pssc":
        if args.p is None:
            raise UsageError("check pssc needs --p")
        _emit({"pssc": check_pssc(h, args.p), "p": args.p})
    return EXIT_OK


def _run_procedure(proc, tensor, ranks, cfg, slice_index=None, axes=None,
                   partition=None):
    if proc == "0":
        return procedure0(tensor, ranks, cfg)
    if proc == "1":
        return procedure1(tensor, ranks, cfg, i3=slice_index)
    if proc == "2":
        return procedure2(tensor, ranks, cfg)
    if proc == "3":
        return procedure3(tensor, ranks, cfg, slice_index=slice_index)
    if proc == "4":
        return procedure4(tensor, ranks, cfg)
    if proc == "d0":
        return procedure_d0(tensor, ranks, axes or (tensor.order - 1,), cfg)
    if proc == "d1":
        return procedure_d1(tensor, ranks, cfg)
    if proc == "d3":
        if partition is None:
            raise UsageError("--procedure d3 needs --partition")
        return procedure_d3(tensor, ranks, partition, cfg)
    if proc == "sep-d":
        return separable_orderd(tensor, ranks, cfg.feas_tol)
    raise UsageError(f"unknown procedure {proc!r}")


def _load_input(path):
    """A bundle directory (tensor + truth) or a bare tensor file."""
    if os.path.isdir(path):
        inst = load_instance(path)
        return inst.tensor, inst
    return read_tensor(path), None


def cmd_decompose(args) -> int:
    for flag, procs in (("slice_index", ("1", "3")), ("axes", ("d0",)),
                        ("partition", ("d3",))):  # the procedures that read it
        if getattr(args, flag) is not None and args.procedure not in procs:
            raise UsageError(f"--{flag.replace('_', '-')} applies only to "
                             f"--procedure {' or '.join(procs)}")
    tensor, inst = _load_input(args.input)
    ranks = _ints(args.ranks)  # every procedure refuses ranks below 1
    cfg = _load_solver_config(args)
    t0 = time.perf_counter()
    model = _run_procedure(
        args.procedure, tensor, ranks, cfg, args.slice_index,
        _ints(args.axes) if args.axes else None,
        _parse_partition(args.partition) if args.partition else None)
    ms = 0.0 if args.no_timing else (time.perf_counter() - t0) * 1e3
    model.save(args.out)
    record = {
        "command": "decompose", "procedure": args.procedure,
        "seed": cfg.seed, "ms": ms,
        "recon_err": model.diagnostics.get("recon_error"),
        "absdet": model.diagnostics.get("absdet"),
        "out": args.out,
    }
    if inst is not None:
        res = essential_match(model, inst.truth, tol=args.tol)
        # the validation the generator stored, not a repeat of it
        validation = inst.meta.get("validation")
        record.update({
            "matched": res.matched,
            "max_factor_err": max(res.factor_errors),
            "core_err": res.core_error,
            "assumption": inst.assumption_id,
            "assumption_overall": validation.get("overall")
            if isinstance(validation, dict) else None,
        })
    _emit(record)
    return EXIT_OK


def cmd_eval(args) -> int:
    model = NtdModel.load(args.model)
    truth = NtdModel.load(args.truth)
    try:
        res = essential_match(model, truth, tol=args.tol)
    except NtdkitError as exc:
        raise InputError(f"models are not comparable: {exc}") from exc
    _emit(res.to_json())
    return EXIT_OK


def _bench_spec(spec_doc, proc):
    """``(assumption, dims, ranks, axes, partition, cfg)`` from ``proc``'s
    entry of a bench spec over its defaults, each integer field through
    ``tensor._integers`` and the ``solver`` object's values, uncast, through
    ``SolverConfig``.  InputError for a malformed spec, a ShapeError of its
    values included, UsageError for a missing key."""
    try:
        spec = {**spec_doc.get("defaults", {}),
                **spec_doc.get("procedures", {}).get(proc, {})}
        missing = [k for k in ("assumption", "dims", "ranks") if k not in spec]
        if not missing:
            part, axes = spec.get("partition"), spec.get("axes")
            rule = "bench spec dims, ranks, axes and modes must be integers"
            return (spec["assumption"], _integers(spec["dims"], rule),
                    _integers(spec["ranks"], rule),
                    _integers(axes, rule) if axes else None,
                    {k: list(_integers(part[k], rule))
                     for k in ("rows", "fixed", "cols")} if part else None,
                    SolverConfig(**spec.get("solver", {})))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed bench spec for procedure {proc}: "
                         f"{exc!r}") from exc
    raise UsageError(f"bench spec missing {missing[0]!r} for procedure {proc}")


def _bench_one(spec, proc, seed, tol, no_timing):
    assumption, dims, ranks, axes, part, cfg = spec
    modes = part and ModePartition(
        *(tuple(part[k]) for k in ("rows", "fixed", "cols")))
    t0, error = time.perf_counter(), ""
    try:
        inst = gen_instance(assumption, dims, ranks, seed=seed, axes=axes,
                            partition=part)
        model = _run_procedure(proc, inst.tensor, ranks,
                               replace(cfg, seed=seed), axes=axes,
                               partition=modes)
        res = essential_match(model, inst.truth, tol=tol)
        ok, fe, ce = res.matched, max(res.factor_errors), res.core_error
        recon = model.diagnostics.get("recon_error", 0.0)
    except ComputationError as exc:
        ok, fe, ce, recon = False, math.inf, math.inf, math.inf
        error = type(exc).__name__
    ms = 0.0 if no_timing else (time.perf_counter() - t0) * 1e3
    return ["bench", proc, seed, ok, fe, ce, recon, ms, error]


def cmd_bench(args) -> int:
    try:
        with open(args.spec) as fh:
            spec_doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read bench spec: {exc}") from exc
    jobs = []
    for proc in args.procedures.split(","):
        spec = _bench_spec(spec_doc, proc)
        jobs += [(spec, proc, seed) for seed in range(args.seeds)]

    rows = [_bench_one(s, p, sd, args.tol, args.no_timing)
            for s, p, sd in jobs]
    rows.sort(key=lambda r: (r[1], r[2]))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    _emit({"written": args.out, "rows": len(rows)})
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    in it, so ``main`` reuses it across calls."""
    parser = argparse.ArgumentParser(
        prog="ntdkit",
        description="Identifiable nonnegative Tucker decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic instance bundle")
    g.add_argument("--assumption", required=True)
    g.add_argument("--dims", required=True)
    g.add_argument("--ranks", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--axes", default=None)
    g.add_argument("--partition", default=None)
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("check", help="cone-geometry checks")
    c.add_argument("what", choices=["ssc", "separable", "pssc",
                                    "kron-sufficient", "dims-ok"])
    c.add_argument("matrix", nargs="?", default=None)
    c.add_argument("--p", type=float, default=None)
    c.add_argument("--r1", type=int, default=None)
    c.add_argument("--r2", type=int, default=None)
    c.add_argument("--p1", type=float, default=None)
    c.add_argument("--p2", type=float, default=None)
    c.set_defaults(func=cmd_check)

    d = sub.add_parser("decompose", help="run an identification procedure")
    d.add_argument("--procedure", required=True,
                   choices=["0", "1", "2", "3", "4", "d0", "d1", "d3",
                            "sep-d"])
    d.add_argument("--input", required=True,
                   help="instance bundle directory or tensor file")
    d.add_argument("--ranks", required=True)
    d.add_argument("--seed", type=int, default=None)
    d.add_argument("--out", required=True)
    d.add_argument("--slice-index", type=int, default=None)
    d.add_argument("--axes", default=None)
    d.add_argument("--partition", default=None)
    d.add_argument("--solver-config", default=None)
    d.add_argument("--feas-tol", type=float, dest="feas_tol")
    d.add_argument("--tol", type=float, default=1e-6)
    d.add_argument("--no-timing", action="store_true")
    d.set_defaults(func=cmd_decompose)

    e = sub.add_parser("eval", help="essential-uniqueness comparison")
    e.add_argument("--model", required=True)
    e.add_argument("--truth", required=True)
    e.add_argument("--tol", type=float, default=1e-6)
    e.set_defaults(func=cmd_eval)

    b = sub.add_parser("bench", help="seed sweeps over procedures")
    b.add_argument("--procedures", required=True)
    b.add_argument("--seeds", type=int, required=True)
    b.add_argument("--spec", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--tol", type=float, default=1e-6)
    b.add_argument("--no-timing", action="store_true")
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "tol"):  # decompose, eval and bench share --tol
            _tolerances([args.tol], "--tol")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ComputationError as exc:
        kind = "generation" if isinstance(exc, GenerationError) else "solver"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:  # every read already raises InputError
        print(f"error: cannot write: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
