import json
import math
import shutil
import struct

import numpy as np
import pytest

from ntdkit import cli, solvers
from ntdkit.cli import main
from ntdkit.synth import gen_instance, load_instance, save_instance
from ntdkit.tensor import (TENSOR_MAGIC, DenseTensor, write_tensor_binary,
                           write_tensor_json)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def bundle(tmp_path, capsys):
    out = tmp_path / "inst"
    code, _ = run(capsys, "gen", "--assumption", "A4.2", "--dims",
                  "12,12,8", "--ranks", "3,3,2", "--seed", "5",
                  "--out", str(out))
    assert code == 0
    return out


class TestGen:
    def test_writes_bundle(self, bundle):
        assert (bundle / "tensor.json").exists()
        assert (bundle / "truth.json").exists()
        assert (bundle / "meta.json").exists()

    def test_missing_ranks_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--assumption", "A4.2", "--dims", "4,4,4",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_same_seed_identical(self, tmp_path, capsys):
        for name in ("a", "b"):
            code, _ = run(capsys, "gen", "--assumption", "A4.2", "--dims",
                          "10,10,6", "--ranks", "3,3,2", "--seed", "4",
                          "--out", str(tmp_path / name))
            assert code == 0
        for f in ("tensor.json", "tensor.bin", "truth.json", "meta.json"):
            assert (tmp_path / "a" / f).read_bytes() == \
                (tmp_path / "b" / f).read_bytes()

    def test_generation_error_named_as_such(self, tmp_path, capsys):
        # SSC factors with more rows than the exact check enumerates
        code = main(["gen", "--assumption", "A4.2", "--dims", "61,61,30",
                     "--ranks", "4,4,3", "--out", str(tmp_path / "g")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("generation error: ") and "ENUM_CAP_N" in err


class TestCheck:
    def test_dims_ok(self, capsys):
        code, out = run(capsys, "check", "dims-ok", "--r1", "3", "--r2", "4")
        assert code == 0 and json.loads(out)["ok"] is True
        code, out = run(capsys, "check", "dims-ok", "--r1", "3", "--r2", "3")
        assert json.loads(out)["ok"] is False

    def test_kron_sufficient_boundary(self, capsys):
        code, out = run(capsys, "check", "kron-sufficient", "--r1", "3",
                        "--p1", "1.4142", "--r2", "3", "--p2", "1.4142")
        assert code == 0 and json.loads(out)["ok"] is True

    def test_ssc_identity(self, capsys, tmp_path):
        path = tmp_path / "I4.json"
        write_tensor_json(DenseTensor.from_array(np.eye(4)), path)
        code, out = run(capsys, "check", "ssc", str(path))
        doc = json.loads(out)
        assert code == 0 and doc["ssc"] is True and doc["separable"] is True

    def test_pssc(self, capsys, tmp_path):
        path = tmp_path / "I4.json"
        write_tensor_json(DenseTensor.from_array(np.eye(4)), path)
        code, out = run(capsys, "check", "pssc", str(path), "--p", "1.0")
        assert code == 0 and json.loads(out)["pssc"] is True

    def test_parse_error_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _ = run(capsys, "check", "ssc", str(bad))
        assert code == 3


class TestDecompose:
    def test_procedure1_on_bundle(self, bundle, tmp_path, capsys):
        out = tmp_path / "model.json"
        code, text = run(capsys, "decompose", "--procedure", "1", "--input",
                         str(bundle), "--ranks", "3,3,2", "--seed", "5",
                         "--out", str(out), "--no-timing")
        assert code == 0
        rec = json.loads(text)
        assert rec["matched"] is True
        assert rec["recon_err"] <= 1e-9
        assert out.exists()

    def test_bad_rank_product_exits_2(self, bundle, tmp_path, capsys):
        code, _ = run(capsys, "decompose", "--procedure", "0", "--input",
                      str(bundle), "--ranks", "3,3,2", "--seed", "5",
                      "--out", str(tmp_path / "m.json"))
        assert code == 2

    def test_d3_bad_partition_exits_2(self, bundle, tmp_path, capsys):
        code, _ = run(capsys, "decompose", "--procedure", "d3", "--input",
                      str(bundle), "--ranks", "3,3,2", "--partition",
                      "0|1|1,2", "--seed", "5",
                      "--out", str(tmp_path / "m.json"))
        assert code == 2

    def test_d0_and_separable_paths(self, tmp_path, capsys):
        inst_dir = tmp_path / "unfoldable"
        code, _ = run(capsys, "gen", "--assumption", "A4.x-unfold", "--dims",
                      "6,5,15", "--ranks", "2,2,4", "--seed", "8",
                      "--out", str(inst_dir))
        assert code == 0
        code, text = run(capsys, "decompose", "--procedure", "d0",
                         "--input", str(inst_dir), "--ranks", "2,2,4",
                         "--seed", "8", "--out", str(tmp_path / "m0.json"),
                         "--no-timing")
        assert code == 0 and json.loads(text)["matched"] is True
        sep_dir = tmp_path / "sep"
        run(capsys, "gen", "--assumption", "A-sep", "--dims", "12,10,8",
            "--ranks", "3,3,2", "--seed", "9", "--out", str(sep_dir))
        code, text = run(capsys, "decompose", "--procedure", "sep-d",
                         "--input", str(sep_dir), "--ranks", "3,3,2",
                         "--seed", "9", "--out", str(tmp_path / "ms.json"),
                         "--no-timing")
        assert code == 0 and json.loads(text)["matched"] is True

    @pytest.mark.parametrize("ranks", ["0,0,0", "-1,2,2"])
    def test_non_positive_ranks_exit_2(self, ranks, tmp_path, capsys):
        # On an all-zero tensor, rank 0 used to reach a 0 x 0 NNLS, which
        # aborts the interpreter (sep-d), or an empty argmin (exit 1).
        path = tmp_path / "zero.json"
        write_tensor_json(DenseTensor.from_array(np.zeros((3, 4, 2))), path)
        for proc in ("0", "1", "2", "3", "4", "d0", "d1", "d3", "sep-d"):
            argv = ["decompose", "--procedure", proc, "--input", str(path),
                    f"--ranks={ranks}", "--out", str(tmp_path / "m.json")]
            if proc == "d3":
                argv += ["--partition", "0|1|2"]
            assert run(capsys, *argv)[0] == 2, proc

    def test_overflowing_tensor_never_prints_nan(self, tmp_path, capsys):
        # Scaled by 1e140 only |det| overflows, and reads null; by 1e200
        # the norms overflow too, and the fit is not certified (exit 4).
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        t = gen_instance("A4.2", (12, 12, 8), (3, 3, 2), seed=3).tensor
        path = tmp_path / "tensor.bin"
        for scale, want in ((1e140, 0), (1e200, 4)):
            write_tensor_binary(DenseTensor(t.dims, scale * t.data), path)
            code, text = run(capsys, "decompose", "--procedure", "1",
                             "--input", str(path), "--ranks", "3,3,2",
                             "--out", str(tmp_path / "m.json"))
            assert code == want
            if code == 0:
                doc = json.loads(text, parse_constant=reject)
                assert doc["absdet"] is None and doc["recon_err"] <= 1e-9
                json.loads((tmp_path / "m.json").read_text(),
                           parse_constant=reject)

    def test_assumption_overall_read_from_bundle(self, bundle, tmp_path,
                                                 capsys):
        argv = ["decompose", "--procedure", "1", "--input", str(bundle),
                "--ranks", "3,3,2", "--seed", "5",
                "--out", str(tmp_path / "m.json"), "--no-timing"]
        code, text = run(capsys, *argv)
        assert code == 0 and json.loads(text)["assumption_overall"] == "pass"
        meta = json.loads((bundle / "meta.json").read_text())
        for validation in (None, 5):
            meta["meta"]["validation"] = validation
            (bundle / "meta.json").write_text(json.dumps(meta))
            code, text = run(capsys, *argv)
            assert code == 0
            assert json.loads(text)["assumption_overall"] is None
        for doc in ([], {**meta, "meta": 5}):
            (bundle / "meta.json").write_text(json.dumps(doc))
            assert run(capsys, *argv)[0] == 3

    def test_solver_failure_exits_4(self, tmp_path, capsys):
        # a stress instance defeats procedure 1 (no full-rank slice)
        inst_dir = tmp_path / "stress"
        code, _ = run(capsys, "gen", "--assumption", "A4.3", "--dims",
                      "12,12,6", "--ranks", "3,3,2", "--seed", "6",
                      "--out", str(inst_dir))
        assert code == 0
        code, _ = run(capsys, "decompose", "--procedure", "1", "--input",
                      str(inst_dir), "--ranks", "3,3,2", "--seed", "6",
                      "--out", str(tmp_path / "m.json"))
        assert code == 4

    def test_solver_config_file_with_flag_override(self, bundle, tmp_path,
                                                   capsys):
        # The file's feas_tol is below any reconstruction error; the flag's
        # is not, so the run succeeds only when the flag wins.
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("feas_tol = 1e-30\nseed = 9\n")
        out = tmp_path / "m.json"
        argv = ["decompose", "--procedure", "1", "--input", str(bundle),
                "--ranks", "3,3,2", "--solver-config", str(cfg),
                "--out", str(out), "--no-timing"]
        assert run(capsys, *argv)[0] == 4
        code, text = run(capsys, *argv, "--feas-tol", "1e-9")
        assert code == 0
        assert json.loads(text)["seed"] == 9  # from the file
        assert json.loads(out.read_text())["diagnostics"]["seed"] == 9

    @pytest.mark.parametrize("cap", ["_VERTEX_ENUM_CAP", "_NODE_BUDGET"])
    def test_solver_budget_exits_4(self, cap, bundle, tmp_path, capsys,
                                   monkeypatch):
        monkeypatch.setattr(solvers, cap, 0)
        code, _ = run(capsys, "decompose", "--procedure", "1", "--input",
                      str(bundle), "--ranks", "3,3,2",
                      "--out", str(tmp_path / "m.json"))
        assert code == 4

    def test_sep_d_ray_budget_exits_4(self, tmp_path, capsys, monkeypatch):
        sep_dir = tmp_path / "sep"
        run(capsys, "gen", "--assumption", "A-sep", "--dims", "12,10,8",
            "--ranks", "3,3,2", "--seed", "9", "--out", str(sep_dir))
        monkeypatch.setattr(solvers, "_VERTEX_ENUM_CAP", 0)
        code = main(["decompose", "--procedure", "sep-d", "--input",
                     str(sep_dir), "--ranks", "3,3,2",
                     "--out", str(tmp_path / "m.json")])
        assert code == 4
        assert "passed 0 intermediate rays" in capsys.readouterr().err

    def test_parser_reuse_keeps_no_state(self, bundle, tmp_path, capsys):
        argv = ["decompose", "--procedure", "1", "--input", str(bundle),
                "--ranks", "3,3,2", "--out", str(tmp_path / "m.json"),
                "--no-timing"]
        code, text = run(capsys, *argv, "--seed", "7")
        assert code == 0 and json.loads(text)["seed"] == 7
        code, text = run(capsys, *argv)
        assert code == 0 and json.loads(text)["seed"] == 0
        assert cli.build_parser() is cli.build_parser()

    def test_byte_identical_models(self, bundle, tmp_path, capsys):
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            code, _ = run(capsys, "decompose", "--procedure", "1",
                          "--input", str(bundle), "--ranks", "3,3,2",
                          "--seed", "5", "--out", str(out), "--no-timing")
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestBinaryTwin:
    def decompose(self, capsys, bundle, out):
        code, text = run(capsys, "decompose", "--procedure", "1", "--input",
                         str(bundle), "--ranks", "3,3,2", "--seed", "5",
                         "--out", str(out), "--no-timing")
        doc = json.loads(text) if code == 0 else None
        return code, doc

    def test_json_only_bundle_loads_and_decomposes_the_same(
            self, bundle, tmp_path, capsys):
        old = shutil.copytree(bundle, tmp_path / "old")
        (old / "tensor.bin").unlink()
        a, b = load_instance(bundle), load_instance(old)
        assert a.tensor.dims == b.tensor.dims
        assert a.tensor.data.tobytes() == b.tensor.data.tobytes()
        assert a.truth.to_json() == b.truth.to_json()
        assert (a.assumption_id, a.seed, a.meta) == \
            (b.assumption_id, b.seed, b.meta)
        records, models = [], []
        for name, path in (("new", bundle), ("old", old)):
            out = tmp_path / f"{name}.json"
            code, doc = self.decompose(capsys, path, out)
            assert code == 0 and doc.pop("out") == str(out)
            records.append(doc)
            models.append(out.read_bytes())
        assert records[0] == records[1] and models[0] == models[1]

    def test_garbage_json_tensor_unread(self, bundle, tmp_path, capsys):
        twin = shutil.copytree(bundle, tmp_path / "twin")
        (twin / "tensor.json").write_text("garbage")
        code, doc = self.decompose(capsys, twin, tmp_path / "m.json")
        assert code == 0 and doc["matched"] is True

    @pytest.mark.parametrize("fault", ["truncated", "nan"])
    def test_bad_binary_tensor_exits_3(self, fault, bundle, tmp_path,
                                       capsys):
        bad = shutil.copytree(bundle, tmp_path / "bad")
        path = bad / "tensor.bin"
        if fault == "truncated":
            path.write_bytes(path.read_bytes()[:-8])
        else:
            arr = np.ones((12, 12, 8))
            arr[1, 2, 3] = np.nan
            write_tensor_binary(DenseTensor.from_array(arr), path)
        code, _ = self.decompose(capsys, bad, tmp_path / "m.json")
        assert code == 3


class TestEval:
    def test_exact_run_matches(self, bundle, tmp_path, capsys):
        model = tmp_path / "model.json"
        run(capsys, "decompose", "--procedure", "1", "--input", str(bundle),
            "--ranks", "3,3,2", "--seed", "5", "--out", str(model),
            "--no-timing")
        code, out = run(capsys, "eval", "--model", str(model), "--truth",
                        str(bundle / "truth.json"))
        assert code == 0 and json.loads(out)["matched"] is True

    def test_self_eval_zero(self, bundle, capsys):
        code, out = run(capsys, "eval", "--model",
                        str(bundle / "truth.json"), "--truth",
                        str(bundle / "truth.json"))
        doc = json.loads(out)
        assert code == 0 and doc["core_error"] == 0.0

    def test_dims_mismatch_exits_3(self, bundle, tmp_path, capsys):
        other = tmp_path / "other"
        run(capsys, "gen", "--assumption", "A4.2", "--dims", "10,10,6",
            "--ranks", "3,3,2", "--seed", "7", "--out", str(other))
        code, _ = run(capsys, "eval", "--model", str(bundle / "truth.json"),
                      "--truth", str(other / "truth.json"))
        assert code == 3


class TestBench:
    def make_spec(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "defaults": {"assumption": "A4.2", "dims": [10, 10, 6],
                         "ranks": [3, 3, 2]}}))
        return spec

    def test_sweep_counts_and_header(self, tmp_path, capsys):
        spec = self.make_spec(tmp_path)
        out = tmp_path / "bench.csv"
        code, _ = run(capsys, "bench", "--procedures", "1", "--seeds", "3",
                      "--spec", str(spec), "--out", str(out), "--no-timing")
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("command,procedure,seed,matched,max_factor_err,"
                            "core_err,recon_err,ms,error")
        assert len(lines) == 4
        assert all(line.split(",")[3] == "true" for line in lines[1:])
        assert all(line.split(",")[8] == "" for line in lines[1:])

    def test_ungeneratable_spec_is_a_failed_row(self, tmp_path, capsys):
        # A4.2 cannot certify an SSC factor at r = 7: procedure 3's rows
        # fail, procedure 1's still run.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "defaults": {"assumption": "A4.2", "dims": [10, 10, 6],
                         "ranks": [3, 3, 2]},
            "procedures": {"3": {"dims": [20, 20, 15],
                                 "ranks": [7, 7, 3]}}}))
        out = tmp_path / "bench.csv"
        code, _ = run(capsys, "bench", "--procedures", "1,3", "--seeds", "2",
                      "--spec", str(spec), "--out", str(out), "--no-timing")
        assert code == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert [r[1:4] for r in rows] == [
            ["1", "0", "true"], ["1", "1", "true"],
            ["3", "0", "false"], ["3", "1", "false"]]
        assert all(v == "inf" for r in rows[2:] for v in r[4:7])
        assert [r[8] for r in rows] == ["", "", "GenerationError",
                                        "GenerationError"]

    def test_zero_seeds_header_only(self, tmp_path, capsys):
        spec = self.make_spec(tmp_path)
        out = tmp_path / "bench.csv"
        code, _ = run(capsys, "bench", "--procedures", "1", "--seeds", "0",
                      "--spec", str(spec), "--out", str(out))
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 1

    def test_identical_invocations(self, tmp_path, capsys):
        spec = self.make_spec(tmp_path)
        outs = []
        for name in ("b1.csv", "b2.csv"):
            out = tmp_path / name
            code, _ = run(capsys, "bench", "--procedures", "1", "--seeds",
                          "2", "--spec", str(spec), "--out", str(out),
                          "--no-timing")
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_twenty_seed_procedure1_sweep(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "defaults": {"assumption": "A4.2", "dims": [20, 20, 15],
                         "ranks": [4, 4, 3]}}))
        out = tmp_path / "sweep.csv"
        code, _ = run(capsys, "bench", "--procedures", "1", "--seeds", "20",
                      "--spec", str(spec), "--out", str(out), "--no-timing")
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        matched = sum(r.split(",")[3] == "true" for r in rows)
        assert matched >= 16

    def test_worker_env_preserves_output(self, tmp_path, capsys,
                                         monkeypatch):
        spec = self.make_spec(tmp_path)
        serial = tmp_path / "serial.csv"
        run(capsys, "bench", "--procedures", "1", "--seeds", "2", "--spec",
            str(spec), "--out", str(serial), "--no-timing")
        for value in ("2", "x"):
            monkeypatch.setenv("NTD_NUM_THREADS", value)
            other = tmp_path / f"threads-{value}.csv"
            code, _ = run(capsys, "bench", "--procedures", "1", "--seeds",
                          "2", "--spec", str(spec), "--out", str(other),
                          "--no-timing")
            assert code == 0
            assert serial.read_bytes() == other.read_bytes()


BENCH_DEFAULTS = {"assumption": "A4.2", "dims": [10, 10, 6],
                  "ranks": [3, 3, 2]}
MALFORMED_SPECS = {
    "list": [BENCH_DEFAULTS],
    "dims": {"defaults": {**BENCH_DEFAULTS, "dims": "abc"}},
    "seed": {"defaults": {**BENCH_DEFAULTS, "solver": {"seed": "x"}}},
    "field": {"defaults": {**BENCH_DEFAULTS, "solver": {"bogus": 1}}},
    "partition": {"defaults": {**BENCH_DEFAULTS,
                               "partition": {"rows": [0]}}},
}
# tensor files whose dims and data disagree, or whose dims are invalid
MALFORMED_TENSORS = {
    "short": {"dims": [2, 2], "data": [1, 2, 3]},
    "zero-dim": {"dims": [0, 2], "data": []},
    "negative-dim": {"dims": [-1], "data": []},
    "empty": [],
}


# an input that procedures 0 and d0 decompose
UNFOLDABLE = ("--ranks", "2,2,4", "--input", "{tmp}/unfoldable")


@pytest.mark.parametrize("argv,code", [
    (["decompose", "--procedure", "1", "--ranks", "3,3,2",
      "--solver-config", "{cfg}"], 3),
    (["check", "kron-sufficient"], 2),
    (["check", "kron-sufficient", "--r1", "3", "--r2", "3", "--p1", "1"], 2),
    (["check", "dims-ok", "--r1", "3"], 2),
] + [(["decompose", "--procedure", p, "--ranks", "2,2"], 2)
     for p in "01234"] + [
    (["decompose", "--procedure", "d0", "--ranks", "3,3,2", "--axes", "5"],
     2),
    (["decompose", "--procedure", "1", "--ranks", "3,3,2",
      "--input", "{tmp}/nan.json"], 3),
    (["decompose", "--procedure", "1", "--ranks", "3,3,2",
      "--input", "{tmp}/nan.bin"], 3),
    (["decompose", "--procedure", "1", "--ranks", "3,3,2",
      "--input", "{tmp}/text.json"], 3),
    (["eval", "--model", "{tmp}/text-model.json",
      "--truth", "{bundle}/truth.json"], 3),
    (["eval", "--model", "{tmp}/nan-model.json",
      "--truth", "{bundle}/truth.json"], 3),
    (["decompose", "--procedure", "1", "--ranks", "3,3,2",
      "--out", "{tmp}/missing/m.json"], 2),
    (["bench", "--procedures", "1", "--seeds", "1",
      "--spec", "{tmp}/spec.json", "--out", "{tmp}/missing/b.csv"], 2),
    (["eval", "--model", "{tmp}/rank-model.json",
      "--truth", "{bundle}/truth.json"], 3),
    (["gen", "--assumption", "A5.2", "--dims", "6,5,6,5", "--ranks",
      "2,2,2,2", "--axes", "9", "--out", "{tmp}/g"], 2),
    (["gen", "--assumption", "A5.4", "--dims", "6,5,6,5", "--ranks",
      "2,2,2,2", "--partition", "0|1|9", "--out", "{tmp}/g"], 2),
] + [(["bench", "--procedures", "1", "--seeds", "1",
       "--spec", f"{{tmp}}/{name}-spec.json", "--out", "{tmp}/b.csv"], 3)
     for name in MALFORMED_SPECS] + [
    (["decompose", "--procedure", "1", "--ranks", "3,3,2",
      "--solver-config", "{tmp}/field.cfg"], 3),
    (["check", "ssc", "{tmp}/huge.json"], 3),
    (["decompose", "--procedure", "1", "--ranks", "3,3,2",
      "--solver-config", "{tmp}/restarts.cfg"], 3),
    (["decompose", "--procedure", "sep-d", "--ranks", "3,3,2",
      "--input", "{tmp}/seed-x"], 3),
    (["decompose", "--procedure", "sep-d", "--ranks", "3,3,2",
      "--input", "{tmp}/seed-neg"], 3),
    (["gen", "--assumption", "A4.2", "--dims", "20,20,15", "--ranks",
      "4,4,3", "--seed", "-1", "--out", "{tmp}/g"], 2),
    (["check", "ssc", "{tmp}/magic.bin"], 3),
    (["check", "ssc", "{tmp}/one-dim.bin"], 3),
    (["decompose", "--procedure", "1", "--ranks", "3,3,2",
      "--input", "{tmp}/magic.bin"], 3),
    (["decompose", "--procedure", "1", "--ranks", "3,3,2",
      "--input", "{tmp}/one-dim.bin"], 3),
    (["decompose", "--procedure", "1", "--ranks", "3,3,2",
      "--feas-tol", "nan"], 2),
    (["decompose", "--procedure", "1", "--ranks", "3,3,2",
      "--feas-tol", "inf"], 2),
    (["decompose", "--procedure", "1", "--ranks", "3,3,2",
      "--solver-config", "{tmp}/nan-tol.cfg"], 3),
] + [(["decompose", "--procedure", "1", "--ranks", "3,3,2", "--tol", tol], 2)
     for tol in ("nan", "-1", "0", "inf")] + [
    (["eval", "--model", "{bundle}/truth.json", "--truth",
      "{bundle}/truth.json", "--tol", tol], 2) for tol in ("nan", "-1")] + [
    (["bench", "--procedures", "1", "--seeds", "1", "--spec",
      "{tmp}/spec.json", "--out", "{tmp}/b.csv", "--tol", "inf"], 2),
    (["check", "dims-ok", "--r1", "-1", "--r2", "2"], 2),
    (["check", "dims-ok", "--r1", "3", "--r2", "1"], 2),
] + [(["check", "ssc", f"{{tmp}}/{name}-tensor.json"], 3)
     for name in MALFORMED_TENSORS] + [
    (["decompose", "--procedure", "1", "--ranks", "3,3,2",
      "--input", "{tmp}/short-tensor.json"], 3),
    (["eval", "--model", "{tmp}/core-dims-model.json",
      "--truth", "{bundle}/truth.json"], 3),
    (["eval", "--model", "{tmp}/factor-shape-model.json",
      "--truth", "{bundle}/truth.json"], 3),
    (["eval", "--model", "{tmp}/short-ranks-model.json",
      "--truth", "{bundle}/truth.json"], 3),
] + [(["decompose", "--procedure", proc, *flag, *data], 2)
     # a flag the procedure would not read, on an input it decomposes
     for proc, flag, data in (
         ("2", ("--slice-index", "3"), ("--ranks", "3,3,2")),
         ("d1", ("--slice-index", "3"), ("--ranks", "3,3,2")),
         ("d1", ("--axes", "1"), ("--ranks", "3,3,2")),
         ("0", ("--axes", "0"), UNFOLDABLE),
         ("1", ("--partition", "0|1|2"), ("--ranks", "3,3,2")),
         ("d0", ("--partition", "0|1|2"), UNFOLDABLE))] + [
    (["check", "ssc", f"{{tmp}}/{name}.bin"], 3)
    for name in ("cut", "dims-4000", "dims-max")] + [
    # a finite core entry whose norm overflows
    (["eval", "--model", "{tmp}/huge-model.json",
      "--truth", "{bundle}/truth.json"], 3)] + [
    # solver seeds outside the 64 bits that derive_seed reads: a flag
    # exits 2, a file value 3
    (["decompose", "--procedure", "1", "--ranks", "3,3,2", *seed], code)
    for seed, code in ((("--seed", "-1"), 2), (("--seed", str(2**64)), 2),
                       (("--solver-config", "{tmp}/neg-seed.cfg"), 3))] + [
    # a zero rank, which the anchor-factor generators cannot draw
    (["gen", "--assumption", "A4.3", "--dims", "16,16,10", "--ranks",
      "4,4,0", "--out", "{tmp}/g"], 2),
    # SSC factors with more rows than the exact check enumerates
    (["gen", "--assumption", "A4.2", "--dims", "61,61,30", "--ranks",
      "4,4,3", "--out", "{tmp}/g"], 4),
    # shapes no draw can pass, refused before drawing
    (["gen", "--assumption", "A5.4", "--dims", "10,10,8,8", "--ranks",
      "3,2,2,2", "--partition", "0|2,3|1", "--out", "{tmp}/g"], 2),
    (["gen", "--assumption", "A5.3", "--dims", "10,10", "--ranks", "3,3",
      "--out", "{tmp}/g"], 2),
    # integers in files that are floats: refused, never truncated
    (["bench", "--procedures", "1", "--seeds", "1",
      "--spec", "{tmp}/float-dims-spec.json", "--out", "{tmp}/b.csv"], 3),
    (["check", "ssc", "{tmp}/float-dims-tensor.json"], 3),
    (["decompose", "--procedure", "sep-d", "--ranks", "3,3,2",
      "--input", "{tmp}/seed-float"], 3)])
def test_malformed_input_exit_code(argv, code, bundle, tmp_path, capsys):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("seed = two\n")
    (tmp_path / "field.cfg").write_text("seed = 2\nbogus = 1\n")
    # a field of the removed coordinate-ascent solver
    (tmp_path / "restarts.cfg").write_text("restarts = 2\n")
    (tmp_path / "nan-tol.cfg").write_text("feas_tol = nan\n")
    (tmp_path / "neg-seed.cfg").write_text("seed = -1\n")
    # binary headers that end early: the magic alone, then order 3 and
    # one of the three dims
    (tmp_path / "magic.bin").write_bytes(TENSOR_MAGIC)
    (tmp_path / "one-dim.bin").write_bytes(
        TENSOR_MAGIC + struct.pack("<2I", 3, 12))
    # the bundle's tensor.bin without its last 3 bytes, and with header
    # dims of 512 GB and of an index past 2**64
    raw = (bundle / "tensor.bin").read_bytes()
    dims_at = len(TENSOR_MAGIC) + 4
    (tmp_path / "cut.bin").write_bytes(raw[:-3])
    for name, dim in (("dims-4000", 4000), ("dims-max", 2**32 - 1)):
        (tmp_path / f"{name}.bin").write_bytes(
            raw[:dims_at] + struct.pack("<3I", dim, dim, dim)
            + raw[dims_at + 12:])
    # finite entries whose column sums overflow to inf
    (tmp_path / "huge.json").write_text("[[1e308, 1e308], [1e308, 0]]")
    for name, doc in MALFORMED_SPECS.items():
        (tmp_path / f"{name}-spec.json").write_text(json.dumps(doc))
    for name, doc in MALFORMED_TENSORS.items():
        (tmp_path / f"{name}-tensor.json").write_text(json.dumps(doc))
    (tmp_path / "float-dims-spec.json").write_text(json.dumps(
        {"defaults": {**BENCH_DEFAULTS, "dims": [12.7, 12, 8]}}))
    (tmp_path / "float-dims-tensor.json").write_text(json.dumps(
        {"dims": [2.5, 2], "data": [1, 0, 0, 1]}))
    arr = np.ones((12, 12, 8))
    arr[1, 2, 3] = np.nan
    write_tensor_json(DenseTensor.from_array(arr), tmp_path / "nan.json")
    write_tensor_binary(DenseTensor.from_array(arr), tmp_path / "nan.bin")
    (tmp_path / "text.json").write_text(json.dumps(
        {"dims": [12, 12, 8], "data": ["a"] * arr.size}))
    truth = json.loads((bundle / "truth.json").read_text())
    (tmp_path / "rank-model.json").write_text(
        json.dumps({**truth, "ranks": ["a", "a", "a"]}))
    # a core of the right size whose dims disagree with the ranks, and a
    # factor one column short of its rank
    (tmp_path / "core-dims-model.json").write_text(json.dumps(
        {**truth, "core": {**truth["core"], "dims": [2, 3, 3]}}))
    (tmp_path / "factor-shape-model.json").write_text(json.dumps(
        {**truth, "factors": [[row[:-1] for row in truth["factors"][0]],
                              *truth["factors"][1:]]}))
    (tmp_path / "short-ranks-model.json").write_text(
        json.dumps({**truth, "ranks": truth["ranks"][:2]}))
    for name, value in (("text", "a"), ("nan", math.nan), ("huge", 1e308)):
        truth["core"]["data"][0] = value
        (tmp_path / f"{name}-model.json").write_text(json.dumps(truth))
    meta = json.loads((bundle / "meta.json").read_text())
    for name, seed in (("seed-x", "x"), ("seed-neg", -1),
                       ("seed-float", 2.5)):
        shutil.copytree(bundle, tmp_path / name)
        (tmp_path / name / "meta.json").write_text(
            json.dumps({**meta, "seed": seed}))
    (tmp_path / "spec.json").write_text(json.dumps({"defaults": {
        "assumption": "A4.2", "dims": [10, 10, 6], "ranks": [3, 3, 2]}}))
    if "{tmp}/unfoldable" in argv:
        save_instance(gen_instance("A4.x-unfold", (6, 5, 20), (2, 2, 4),
                                   seed=8), tmp_path / "unfoldable")
    argv = [a.format(cfg=cfg, tmp=tmp_path, bundle=bundle) for a in argv]
    if argv[0] == "decompose":
        for flag, value in (("--input", bundle),
                            ("--out", tmp_path / "m.json")):
            if flag not in argv:
                argv += [flag, str(value)]
    assert run(capsys, *argv)[0] == code


# replacement values for a corrupted JSON node
JSON_SWAPS = ["x", -1, 0, 2.5, None, True, [], {}, [[1, 2]], 1e308, 10**30]


def json_paths(doc, path=()):
    """Every node of a JSON document, as key/index paths."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, path + (key,))


def corrupt_json(doc, rng):
    """``doc`` with one node deleted or swapped for a value of JSON_SWAPS."""
    paths = list(json_paths(doc))
    path = paths[int(rng.integers(len(paths)))]
    if not path:
        return JSON_SWAPS[int(rng.integers(len(JSON_SWAPS)))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.3:
        del parent[path[-1]]
    else:
        parent[path[-1]] = JSON_SWAPS[int(rng.integers(len(JSON_SWAPS)))]
    return doc


def corrupt_bytes(raw, rng):
    """``raw`` cut short, or with one byte flipped: in the header (magic,
    order and three dims) half of the time, anywhere otherwise."""
    if rng.random() < 0.4:
        return raw[:int(rng.integers(len(raw)))]
    head = len(TENSOR_MAGIC) + 16
    at = int(rng.integers(head if rng.random() < 0.5 else len(raw)))
    flipped = raw[at] ^ int(rng.integers(1, 256))
    return raw[:at] + bytes([flipped]) + raw[at + 1:]


def test_corrupted_bundle_exit_codes(tmp_path, capsys):
    # 200 seeded corruptions of one file of a small gen bundle and its
    # model; every CLI call reading it ends in a documented exit code,
    # never in a traceback (exit 1).
    work = tmp_path / "inst"
    assert run(capsys, "gen", "--assumption", "A4.2", "--dims", "6,6,4",
               "--ranks", "2,2,2", "--seed", "3", "--out", str(work))[0] == 0
    model = work / "model.json"
    assert run(capsys, "decompose", "--procedure", "1", "--ranks", "2,2,2",
               "--input", str(work), "--out", str(model))[0] == 0
    calls = {
        "tensor.bin": [("check", "ssc", "{path}"),
                       ("decompose", "--procedure", "1", "--ranks", "2,2,2",
                        "--input", "{dir}", "--out", "{tmp}/m.json")],
        "tensor.json": [("check", "separable", "{path}"),
                        ("decompose", "--procedure", "3", "--ranks",
                         "2,2,2", "--input", "{path}", "--out",
                         "{tmp}/m.json")],
        "truth.json": [("eval", "--model", "{model}", "--truth", "{path}")],
        "model.json": [("eval", "--model", "{path}", "--truth",
                        "{dir}/truth.json")],
        "meta.json": [("decompose", "--procedure", "2", "--ranks", "2,2,2",
                       "--input", "{dir}", "--out", "{tmp}/m.json")],
    }
    rng = np.random.default_rng(26)
    seen = set()
    for trial in range(200):
        name = sorted(calls)[trial % len(calls)]
        path = work / name
        original = path.read_bytes()
        if name == "tensor.bin":
            path.write_bytes(corrupt_bytes(original, rng))
        else:
            path.write_text(json.dumps(corrupt_json(json.loads(original),
                                                    rng)))
        for argv in calls[name]:
            argv = [a.format(path=path, dir=work, model=model, tmp=tmp_path)
                    for a in argv]
            code = run(capsys, *argv)[0]
            assert code in (0, 2, 3, 4), (trial, argv)
            seen.add(code)
        path.write_bytes(original)
    assert {0, 3} <= seen


@pytest.mark.parametrize("solver", [{"seed": 2.5}, {"feas_tol": "1e-9"}])
def test_bench_spec_solver_values_not_cast(solver, tmp_path, capsys):
    # JSON values go to SolverConfig as they are: a float seed is not
    # truncated and a string tolerance is not parsed, before any row runs
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"defaults": {**BENCH_DEFAULTS,
                                             "solver": solver}}))
    out = tmp_path / "b.csv"
    code, _ = run(capsys, "bench", "--procedures", "1", "--seeds", "1",
                  "--spec", str(spec), "--out", str(out))
    assert code == 3 and not out.exists()


def test_solver_config_not_utf8_is_input_error(bundle, tmp_path, capsys):
    cfg = tmp_path / "bytes.cfg"
    cfg.write_bytes(b"feas_tol = \xff\xfe\n")
    code, _ = run(capsys, "decompose", "--procedure", "1", "--ranks",
                  "3,3,2", "--input", str(bundle), "--out",
                  str(tmp_path / "m.json"), "--solver-config", str(cfg))
    assert code == 3
