"""Self-tests of the benchmark's tracer, guard and metric names.

    python3 -m pytest -q perfbench/selftest.py

Not collected by a plain ``pytest`` run (the file name does not start with
``test_``), so the library's own suite is unaffected.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.isolate()
run.load_ntdkit()

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7
# Traced names each workload must reach within its first ops.
REACHES = {
    "recover": {
        "procedure0", "procedure1", "procedure2", "procedure3", "procedure4",
        "procedure_d0", "procedure_d1", "procedure_d3", "maxdet_simplex",
        "minvol_order2_ntd", "minvol_nmf", "linprog_dense",
        "essential_match", "kron_split_multi", "kron_split_permuted",
        "unfold", "mode_slice", "slice_matrix", "slice_combination",
    },
    "certify": {
        "gen_instance", "gen_ssc_factor", "check_ssc",
        "enumerate_dual_vertices", "check_pssc", "estimate_min_p",
        "validate_assumptions", "linprog_dense", "unfold", "mode_slice",
        "slice_matrix",
    },
    "stored": {
        "main", "read_tensor", "NtdModel.save", "NtdModel.load",
        "separable_orderd", "spa_separable_nmf", "check_ssc",
        "enumerate_dual_vertices", "ssc1_refute", "linprog_dense",
        "essential_match", "validate_assumptions", "unfold",
    },
}


def _bindings():
    """Every name bound in an ntdkit module, and NtdModel's methods."""
    out = {(name, attr): obj for name, mod in sys.modules.items()
           if mod is not None and name.split(".")[0] == "ntdkit"
           for attr, obj in vars(mod).items()}
    model = sys.modules["ntdkit.model"].NtdModel
    out.update({("NtdModel", attr): obj for attr, obj in vars(model).items()})
    return out


def _traced(name, tmp):
    w = workloads.WORKLOADS[name]
    state = w.setup(SEED, str(tmp))
    before = _bindings()
    tracer, plain, traced = run.trace_ops(w, state, str(tmp))
    return {"workload": w, "state": state, "tracer": tracer,
            "plain": plain, "traced": traced,
            "before": before, "after": _bindings()}


@pytest.fixture(scope="module", params=sorted(REACHES))
def traced(request, tmp_path_factory):
    name = request.param
    return name, _traced(name, tmp_path_factory.mktemp(name))


def test_each_wrapped_name_is_reached(traced):
    name, res = traced
    called = {s[1].split(".", 2)[2] for s in res["tracer"].spans}
    missing = REACHES[name] - called
    assert not missing, f"{name} never called {sorted(missing)}"


def test_every_traced_name_is_expected_somewhere():
    expected = set().union(*REACHES.values())
    table = {attr for _, attr, _ in tracing.TRACED}
    assert table == expected


def test_restore_puts_back_every_original(traced):
    _, res = traced
    assert res["tracer"].spans, "nothing was traced"
    changed = [key for key, obj in res["before"].items()
               if res["after"].get(key) is not obj]
    assert not changed


def test_traced_outputs_equal_untraced(traced):
    _, res = traced
    w, state = res["workload"], res["state"]
    digests = {}
    for pass_ in ("plain", "traced"):
        for k, _, out, err in res[pass_]:
            assert err is None, f"op {k} raised {err!r}"
            assert w.check(state, k, out), f"op {k} output wrong"
        digests[pass_] = [w.digest(state, k, out)
                          for k, _, out, _ in res[pass_]]
    assert digests["plain"] == digests["traced"]


def test_counts_repeat_for_a_seed(tmp_path):
    counts = []
    for rep in ("a", "b"):
        d = tmp_path / rep
        d.mkdir()
        res = _traced("certify", d)
        m = tracing.layer_metrics(res["tracer"].spans, len(res["traced"]),
                                  1.0, 1.0)
        counts.append({k: v for k, v in m.items()
                       if tracing.LAYER_METRICS[k][0] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["cones.enum.combos"] > 0
    assert counts[0]["solvers.maxdet.calls"] == 0


def test_guard_refuses_oversized_enumeration():
    with pytest.raises(ValueError):
        workloads.check_budget([(60, 6)])
    with pytest.raises(ValueError):
        workloads.check_budget(workloads.gen_cert_shapes(
            "A4.2", (60, 60, 40), (6, 6, 5)))
    assert workloads.enum_combos(150, 4) == 0  # over the cap: search only
    for w in workloads.WORKLOADS.values():
        workloads.check_budget(w.shapes())


def test_reference_scaling():
    ref = run.Reference()
    assert ref.sample() > 0 and len(ref.times) == 1
    # On a host at half the reference speed the kernel takes 2 * REF_S,
    # so 0.3 s of op time counts as 0.15 s at the reference speed.
    assert ref.scaled(0.3, 2 * run.REF_S, 2 * run.REF_S) == \
        pytest.approx(0.15)
    assert ref.scaled(0.3, run.REF_S, run.REF_S) == pytest.approx(0.3)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == tracing.LAYER_METRICS
