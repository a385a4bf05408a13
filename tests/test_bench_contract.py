"""The benchmark tracer's binding contract with the package.

``perfbench/tracing.py`` wraps package functions by module attribute and
reads their arguments through ``inspect.signature``, so a rename or a
changed parameter list breaks traced benchmark runs; ``perfbench/
workloads.py`` calls the procedures positionally, and its input guard
reads ``cones.ENUM_CAP_N`` and ``cones.ENUM_CAP_R``.  These checks load
both files by path and fail on such a change instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TENSOR_PARAMETERS = {
    "unfold": ["t", "axes"],
    "mode_slice": ["t", "mode", "index"],
    "slice_matrix": ["t", "spec"],
    "slice_combination": ["t", "fixed_modes", "weights", "row_modes",
                          "col_modes"],
}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced():
    return _load("tracing").TRACED


def test_every_traced_attribute_resolves():
    missing = []
    for module, attr, _ in _traced():
        obj = importlib.import_module(f"ntdkit.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"ntdkit.{module}.{attr}")
    assert not missing


def test_tensor_entries_keep_their_parameters():
    traced = {attr for module, attr, _ in _traced() if module == "tensor"}
    assert set(TENSOR_PARAMETERS) <= traced
    tensor = importlib.import_module("ntdkit.tensor")
    for name, params in TENSOR_PARAMETERS.items():
        assert list(inspect.signature(getattr(tensor, name)).parameters) \
            == params, name


def test_recover_calls_bind_every_procedure():
    # the positional calls of ``Recover.op``
    procedures = importlib.import_module("ntdkit.procedures")
    for proc, *_ in _load("workloads").Recover.PIPELINES:
        args = ("t", "ranks", "partition", "cfg") \
            if proc == "procedure_d3" else ("t", "ranks", "cfg")
        inspect.signature(getattr(procedures, proc)).bind(*args)


def test_every_workload_passes_its_input_guard():
    # ``run.py`` refuses a workload, and exits non-zero, when this raises
    workloads = _load("workloads")
    for workload in workloads.WORKLOADS.values():
        workloads.check_budget(workload.shapes())


def test_stored_argv_parses(monkeypatch):
    # every argv one round of ``Stored`` passes to the CLI, placeholder paths
    workloads = _load("workloads")
    cli = importlib.import_module("ntdkit.cli")
    stored = workloads.Stored()
    calls = []
    monkeypatch.setattr(workloads, "run_cli",
                        lambda argv: calls.append(argv) or (0, ""))
    state = {"bundles": [f"bundle{i}" for i in range(stored.BUNDLES)],
             "files": {n: [(f"h{n}.json", None)] * stored.FACTOR_FILES
                       for n in stored.CHECK_N}}
    for k in range(len(stored.ROUND)):
        stored.op(state, k, "out")()
    assert [argv[0] for argv in calls] == \
        [{"dec": "decompose"}.get(kind, kind) for kind, _ in stored.ROUND]
    for argv in calls:
        cli.build_parser().parse_args(argv)
