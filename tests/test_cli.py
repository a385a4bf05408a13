import json
import math

import numpy as np
import pytest

from ntdkit.cli import main
from ntdkit.tensor import (DenseTensor, write_tensor_binary,
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
        for f in ("tensor.json", "truth.json", "meta.json"):
            assert (tmp_path / "a" / f).read_bytes() == \
                (tmp_path / "b" / f).read_bytes()


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
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("max_sweeps = 150\nrestarts = 2\nseed = 9\n")
        out = tmp_path / "m.json"
        code, text = run(capsys, "decompose", "--procedure", "1", "--input",
                         str(bundle), "--ranks", "3,3,2", "--solver-config",
                         str(cfg), "--restarts", "3", "--out", str(out),
                         "--no-timing")
        assert code == 0
        assert json.loads(text)["seed"] == 9  # from the file
        assert json.loads(out.read_text())["diagnostics"]["seed"] == 9

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
                            "core_err,recon_err,ms")
        assert len(lines) == 4
        assert all(line.split(",")[3] == "true" for line in lines[1:])

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
])
def test_malformed_input_exit_code(argv, code, bundle, tmp_path, capsys):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("restarts = two\n")
    arr = np.ones((12, 12, 8))
    arr[1, 2, 3] = np.nan
    write_tensor_json(DenseTensor.from_array(arr), tmp_path / "nan.json")
    write_tensor_binary(DenseTensor.from_array(arr), tmp_path / "nan.bin")
    (tmp_path / "text.json").write_text(json.dumps(
        {"dims": [12, 12, 8], "data": ["a"] * arr.size}))
    truth = json.loads((bundle / "truth.json").read_text())
    (tmp_path / "rank-model.json").write_text(
        json.dumps({**truth, "ranks": ["a", "a", "a"]}))
    for name, value in (("text", "a"), ("nan", math.nan)):
        truth["core"]["data"][0] = value
        (tmp_path / f"{name}-model.json").write_text(json.dumps(truth))
    (tmp_path / "spec.json").write_text(json.dumps({"defaults": {
        "assumption": "A4.2", "dims": [10, 10, 6], "ranks": [3, 3, 2]}}))
    argv = [a.format(cfg=cfg, tmp=tmp_path, bundle=bundle) for a in argv]
    if argv[0] == "decompose":
        for flag, value in (("--input", bundle),
                            ("--out", tmp_path / "m.json")):
            if flag not in argv:
                argv += [flag, str(value)]
    assert run(capsys, *argv)[0] == code
