"""Span tracing of ntdkit from outside the package.

The package binds names with ``from .x import y``, so one function object
can sit in several module namespaces (``linprog_dense`` lives in both
``ntdkit.solvers`` and ``ntdkit.cones``).  ``Tracer.patch`` replaces every
binding of each traced object in every loaded ``ntdkit`` module with one
wrapper, and ``Tracer.restore`` puts the original objects back.

Spans are kept in memory as ``[key, qualname, start, end, parent, op,
info, error]`` lists and turned into per-layer metrics by
``layer_metrics``.  A layer's self time is its span durations minus the
durations of their direct child spans; its busy time counts only the
outermost span of that layer, so a layer calling itself is not counted
twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

# A linear program with at least this many constraint rows is a HiGHS call,
# classified from the argument shapes alone.
HIGHS_ROWS = 128

PROCEDURES = ("procedure0", "procedure1", "procedure2", "procedure3",
              "procedure4", "procedure_d0", "procedure_d1", "procedure_d3",
              "separable_orderd")

# (module, attribute, layer key).  "Class.method" names patch the class.
TRACED = [
    ("tensor", "unfold", "tensor.unfold"),
    ("tensor", "mode_slice", "tensor.slice"),
    ("tensor", "slice_matrix", "tensor.slice"),
    ("tensor", "slice_combination", "tensor.slice"),
    ("tensor", "read_tensor", "tensor.io"),
    ("model", "NtdModel.save", "model.io"),
    ("model", "NtdModel.load", "model.io"),
    ("kron", "kron_split_permuted", "kron.split"),
    ("kron", "kron_split_multi", "kron.split"),
    ("lp", "linprog_dense", "lp"),
    ("cones", "enumerate_dual_vertices", "cones.enum"),
    ("cones", "check_ssc", "cones.check_ssc"),
    ("cones", "ssc1_refute", "cones.refute"),
    ("cones", "check_pssc", "cones.pssc"),
    ("cones", "estimate_min_p", "cones.pssc"),
    ("solvers", "maxdet_simplex", "solvers.maxdet"),
    ("solvers", "minvol_order2_ntd", "solvers.minvol2"),
    ("solvers", "minvol_nmf", "solvers.minvol_nmf"),
    ("solvers", "spa_separable_nmf", "solvers.spa"),
    *[("procedures", p, f"procedures.{p}") for p in PROCEDURES],
    ("evaluate", "validate_assumptions", "evaluate.validate"),
    ("evaluate", "essential_match", "evaluate.match"),
    ("synth", "gen_instance", "synth.gen_instance"),
    ("synth", "gen_ssc_factor", "synth.ssc_factor"),
    ("cli", "main", "cli"),
]

# Per-layer metric names with (unit, better), in report order.
LAYER_METRICS = {
    "trace.ops": ("count", "higher"),
    "trace.op_ms": ("ms", "lower"),
    "trace.ops_per_s": ("op/s", "higher"),
    "trace.untraced_ops_per_s": ("op/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "lp.calls": ("count", "lower"),
    "lp.busy_ms": ("ms", "lower"),
    "lp.us_per_call": ("us", "lower"),
    "lp.highs_calls": ("count", "lower"),
    "lp.nonoptimal": ("count", "lower"),
    "lp.repeat_polytope_ratio": ("ratio", "lower"),
    "solvers.maxdet.calls": ("count", "lower"),
    "solvers.maxdet.busy_ms": ("ms", "lower"),
    "solvers.maxdet.self_ms": ("ms", "lower"),
    "solvers.maxdet.lp_per_call": ("count", "lower"),
    "solvers.maxdet.sweeps": ("count", "lower"),
    "solvers.minvol2.busy_ms": ("ms", "lower"),
    "solvers.minvol_nmf.busy_ms": ("ms", "lower"),
    "solvers.spa.calls": ("count", "lower"),
    "solvers.spa.busy_ms": ("ms", "lower"),
    "cones.enum.calls": ("count", "lower"),
    "cones.enum.busy_ms": ("ms", "lower"),
    "cones.enum.self_ms": ("ms", "lower"),
    "cones.enum.combos": ("count", "lower"),
    "cones.enum.vertices": ("count", "lower"),
    "cones.enum.lp_calls": ("count", "lower"),
    "cones.enum.bytes": ("B", "lower"),
    "cones.check_ssc.calls": ("count", "lower"),
    "cones.check_ssc.busy_ms": ("ms", "lower"),
    "cones.check_ssc.repeat_ratio": ("ratio", "lower"),
    "cones.refute.calls": ("count", "lower"),
    "cones.refute.busy_ms": ("ms", "lower"),
    "cones.refute.lp_calls": ("count", "lower"),
    "cones.pssc.busy_ms": ("ms", "lower"),
    "synth.gen_instance.busy_ms": ("ms", "lower"),
    "synth.gen_instance.ssc_ratio": ("ratio", "lower"),
    "synth.ssc_factor.accept_ratio": ("ratio", "higher"),
    "evaluate.validate.busy_ms": ("ms", "lower"),
    "evaluate.match.busy_ms": ("ms", "lower"),
    **{f"procedures.{p}.{m}": ("ms", "lower")
       for p in PROCEDURES for m in ("busy_ms", "self_ms")},
    "kron.split.busy_ms": ("ms", "lower"),
    "tensor.unfold.busy_ms": ("ms", "lower"),
    "tensor.slice.busy_ms": ("ms", "lower"),
    "tensor.io.busy_ms": ("ms", "lower"),
    "tensor.io.bytes": ("B", "lower"),
    "model.io.busy_ms": ("ms", "lower"),
    "cli.busy_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
}


def _array_key(value):
    if value is None:
        return None
    a = np.asarray(value, dtype=float)
    return a.shape, a.tobytes()


def _rows(value):
    return 0 if value is None else np.atleast_2d(np.asarray(value)).shape[0]


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Wraps ntdkit's public functions and records one span per call."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patched = []  # (namespace owner, attribute, original object)

    # -- patching -------------------------------------------------------

    def patch(self):
        if self._patched:
            raise RuntimeError("tracer is already patched in")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == "ntdkit" or name.startswith("ntdkit."))]
        for modname, attr, key in TRACED:
            module = sys.modules[f"ntdkit.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[meth]
                self._patched.append((owner, meth, orig))
                setattr(owner, meth, self._wrap_method(orig, key))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(orig, key)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def restore(self):
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched = []

    def _wrap_method(self, orig, key):
        if isinstance(orig, classmethod):
            return classmethod(self._wrap(orig.__func__, key))
        return self._wrap(orig, key)

    def _wrap(self, fn, key):
        info_of = _INFO.get(key)
        call = _CALL.get(key)
        sig = inspect.signature(fn)
        qualname = f"{fn.__module__}.{fn.__qualname__}"
        tracer = self

        def wrapper(*args, **kwargs):
            span = [key, qualname, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1,
                    tracer.op, None, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            extra = {}
            span[2] = time.perf_counter()
            try:
                if call is None:
                    result = fn(*args, **kwargs)
                else:
                    result = call(fn, args, kwargs, extra)
            except BaseException:
                span[3] = time.perf_counter()
                span[7] = True
                tracer._stack.pop()
                raise
            span[3] = time.perf_counter()
            tracer._stack.pop()
            if info_of is not None:
                bound = sig.bind(*args, **kwargs)
                span[6] = info_of(bound.arguments, result, extra)
            return result

        return functools.wraps(fn)(wrapper)

    # -- output ---------------------------------------------------------

    def write(self, path):
        """Write the spans as JSON, one list per span in ``fields`` order."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "function", "start_s", "end_s",
                                  "parent", "op", "error"],
                       "spans": [[s[0], s[1], s[2], s[3], s[4], s[5], s[7]]
                                 for s in self.spans]}, fh)
            fh.write("\n")


# -- per-call details, computed after the traced call returns ------------

def _lp_info(a, result, _extra):
    key = hash((_array_key(a.get("a_ub")), _array_key(a.get("b_ub")),
                _array_key(a.get("a_eq")), _array_key(a.get("b_eq")),
                repr(a.get("bounds"))))
    return {"rows": _rows(a.get("a_ub")) + _rows(a.get("a_eq")),
            "optimal": result.status == "optimal", "key": key}


def _enum_info(a, result, _extra):
    n, r = np.shape(a["h"])
    return {"combos": math.comb(n, r - 1), "r": r,
            "vertices": len(result[0])}


def _ssc_info(a, _result, _extra):
    return {"key": hash(_array_key(a["h"]))}


def _io_info(a, _result, _extra):
    return {"bytes": _file_size(a.get("path"))}


def _maxdet_call(fn, args, kwargs, extra):
    """Run maxdet_simplex with ``return_history`` to read its sweeps."""
    want_history = kwargs.pop("return_history", False)
    if len(args) > 2:
        want_history = args[2]
        args = args[:2]
    q, history = fn(*args, return_history=True, **kwargs)
    extra["sweeps"] = len(history) - 1
    return (q, history) if want_history else q


def _maxdet_info(_a, _result, extra):
    return {"sweeps": extra["sweeps"]}


_INFO = {"lp": _lp_info, "cones.enum": _enum_info,
         "cones.check_ssc": _ssc_info, "tensor.io": _io_info,
         "solvers.maxdet": _maxdet_info}
_CALL = {"solvers.maxdet": _maxdet_call}


# -- per-layer metrics ----------------------------------------------------

def layer_metrics(spans, n_ops, traced_s, untraced_s):
    """Per-layer totals over the traced ops, as {name: value}."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]
    ancestors = []  # set of layer keys above each span
    for s in spans:
        p = s[4]
        ancestors.append(frozenset() if p < 0
                         else ancestors[p] | {spans[p][0]})

    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        key = s[0]
        self_s[key] += dur[i] - child[i]
        if key not in ancestors[i]:
            calls[key] += 1
            busy[key] += dur[i]

    def ms(x):
        return x * 1e3

    lp_rows = [s[6] or {"rows": 0, "optimal": False, "key": None}
               for s in spans if s[0] == "lp"]
    seen, repeats = set(), 0
    for s, info in zip((s for s in spans if s[0] == "lp"), lp_rows):
        tag = (s[5], info["key"])
        repeats += info["key"] is not None and tag in seen
        seen.add(tag)
    ssc_seen, ssc_repeats = set(), 0
    for s in spans:
        if s[0] == "cones.check_ssc":
            tag = (s[5], s[6]["key"]) if s[6] else None
            ssc_repeats += tag in ssc_seen
            ssc_seen.add(tag)
    enum_ok = [s for s in spans if s[0] == "cones.enum" and s[6]]
    ssc_in_gen = sum(dur[i] for i, s in enumerate(spans)
                     if s[0] == "cones.check_ssc"
                     and "cones.check_ssc" not in ancestors[i]
                     and "synth.gen_instance" in ancestors[i])
    draws = sum(1 for s in spans if s[0] == "cones.check_ssc"
                and s[4] >= 0 and spans[s[4]][0] == "synth.ssc_factor")
    accepted = sum(1 for s in spans
                   if s[0] == "synth.ssc_factor" and not s[7])

    def inside(key):
        return sum(1 for i, s in enumerate(spans)
                   if s[0] == "lp" and key in ancestors[i])

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "trace.ops": n_ops,
        "trace.op_ms": ms(traced_s),
        "trace.ops_per_s": ratio(n_ops, traced_s),
        "trace.untraced_ops_per_s": ratio(n_ops, untraced_s),
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
        "lp.calls": calls["lp"],
        "lp.busy_ms": ms(busy["lp"]),
        "lp.us_per_call": ratio(busy["lp"] * 1e6, calls["lp"]),
        "lp.highs_calls": sum(1 for info in lp_rows
                              if info["rows"] >= HIGHS_ROWS),
        "lp.nonoptimal": sum(1 for info in lp_rows if not info["optimal"]),
        "lp.repeat_polytope_ratio": ratio(repeats, len(lp_rows)),
        "solvers.maxdet.calls": calls["solvers.maxdet"],
        "solvers.maxdet.busy_ms": ms(busy["solvers.maxdet"]),
        "solvers.maxdet.self_ms": ms(self_s["solvers.maxdet"]),
        "solvers.maxdet.lp_per_call": ratio(inside("solvers.maxdet"),
                                            calls["solvers.maxdet"]),
        "solvers.maxdet.sweeps": sum(s[6]["sweeps"] for s in spans
                                     if s[0] == "solvers.maxdet" and s[6]),
        "solvers.minvol2.busy_ms": ms(busy["solvers.minvol2"]),
        "solvers.minvol_nmf.busy_ms": ms(busy["solvers.minvol_nmf"]),
        "solvers.spa.calls": calls["solvers.spa"],
        "solvers.spa.busy_ms": ms(busy["solvers.spa"]),
        "cones.enum.calls": calls["cones.enum"],
        "cones.enum.busy_ms": ms(busy["cones.enum"]),
        "cones.enum.self_ms": ms(self_s["cones.enum"]),
        "cones.enum.combos": sum(s[6]["combos"] for s in enum_ok),
        "cones.enum.vertices": sum(s[6]["vertices"] for s in enum_ok),
        "cones.enum.lp_calls": inside("cones.enum"),
        # Peak size of one batched (combos, r, r) float64 system.
        "cones.enum.bytes": max((s[6]["combos"] * s[6]["r"] ** 2 * 8
                                 for s in enum_ok), default=0),
        "cones.check_ssc.calls": calls["cones.check_ssc"],
        "cones.check_ssc.busy_ms": ms(busy["cones.check_ssc"]),
        "cones.check_ssc.repeat_ratio": ratio(ssc_repeats,
                                              calls["cones.check_ssc"]),
        "cones.refute.calls": calls["cones.refute"],
        "cones.refute.busy_ms": ms(busy["cones.refute"]),
        "cones.refute.lp_calls": inside("cones.refute"),
        "cones.pssc.busy_ms": ms(busy["cones.pssc"]),
        "synth.gen_instance.busy_ms": ms(busy["synth.gen_instance"]),
        "synth.gen_instance.ssc_ratio": ratio(ssc_in_gen,
                                              busy["synth.gen_instance"]),
        "synth.ssc_factor.accept_ratio": ratio(accepted, draws),
        "evaluate.validate.busy_ms": ms(busy["evaluate.validate"]),
        "evaluate.match.busy_ms": ms(busy["evaluate.match"]),
        "kron.split.busy_ms": ms(busy["kron.split"]),
        "tensor.unfold.busy_ms": ms(busy["tensor.unfold"]),
        "tensor.slice.busy_ms": ms(busy["tensor.slice"]),
        "tensor.io.busy_ms": ms(busy["tensor.io"]),
        "tensor.io.bytes": sum(s[6]["bytes"] for s in spans
                               if s[0] == "tensor.io" and s[6]),
        "model.io.busy_ms": ms(busy["model.io"]),
        "cli.busy_ms": ms(busy["cli"]),
        "cli.self_ms": ms(self_s["cli"]),
    }
    for p in PROCEDURES:
        out[f"procedures.{p}.busy_ms"] = ms(busy[f"procedures.{p}"])
        out[f"procedures.{p}.self_ms"] = ms(self_s[f"procedures.{p}"])
    return {name: out[name] for name in LAYER_METRICS}
