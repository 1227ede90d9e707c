import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from homothetics import container_to_json
from homothetics.cli import main
from homothetics.instances import standard_container
from homothetics.lp import LpError


def run_cli(capsys, argv, stdin: str | None = None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_regular_simplex(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "regular-simplex", "--dim", "3"])
        assert code == 0
        obj = json.loads(out)
        assert obj["pointset"]["dim"] == 3
        assert len(obj["pointset"]["points"]) == 4
        assert obj["container"]["kind"] == "dual"

    def test_random_reproducible(self, capsys):
        code, out1, _ = run_cli(capsys, ["gen", "random", "--dim", "2", "--n", "5", "--seed", "9"])
        assert code == 0
        _, out2, _ = run_cli(capsys, ["gen", "random", "--dim", "2", "--n", "5", "--seed", "9"])
        assert out1 == out2

    def test_families(self, capsys):
        for fam, extra in (
            ("cap", []),
            ("sym-prism", ["--k", "2"]),
            ("box-ambiguity", ["--tau", "0.5"]),
            ("ball", []),
            ("box", []),
            ("cross", []),
        ):
            code, out, _ = run_cli(capsys, ["gen", fam, "--dim", "3", *extra])
            assert code == 0 and json.loads(out)


class TestSolve:
    def test_pipe_simplex_into_neg_simplex(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(capsys, ["gen", "regular-simplex", "--dim", "3"])
        code, out, _ = run_cli(
            capsys, ["solve", "--container", "neg-simplex"], stdin=gen_out, monkeypatch=monkeypatch
        )
        assert code == 0
        sol = json.loads(out)
        assert sol["rho"] == pytest.approx(3.0, abs=1e-7)

    def test_certificate_attached(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(capsys, ["gen", "regular-simplex", "--dim", "2"])
        code, out, _ = run_cli(
            capsys,
            ["solve", "--container", "neg-simplex", "--certificate"],
            stdin=gen_out,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        cert = json.loads(out)["certificate"]
        lam = np.array(cert["lambda"])
        normals = np.array(cert["normals"])
        assert lam.sum() == pytest.approx(1.0)
        assert np.max(np.abs(lam @ normals)) < 1e-7

    def test_file_input(self, capsys, tmp_path):
        _, gen_out, _ = run_cli(capsys, ["gen", "regular-simplex", "--dim", "2"])
        path = tmp_path / "inst.json"
        path.write_text(gen_out)
        code, out, _ = run_cli(capsys, ["solve", "--input", str(path), "--container", "ball"])
        assert code == 0
        assert json.loads(out)["rho"] == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_input_files_are_closed(self, capsys, tmp_path):
        # under -X dev an unclosed file prints a ResourceWarning to stderr
        _, gen_out, _ = run_cli(capsys, ["gen", "regular-simplex", "--dim", "2"])
        inst, box = tmp_path / "inst.json", tmp_path / "box.json"
        inst.write_text(gen_out)
        box.write_text(json.dumps(container_to_json(standard_container("box", 2))))
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "homothetics.cli", "solve",
             "--input", str(inst), "--container", f"@{box}"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout)["rho"] > 0
        assert "ResourceWarning" not in proc.stderr

    def test_malformed_input_exit_2(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["solve"], stdin="{not json", monkeypatch=monkeypatch)
        assert code == 2
        assert "error" in json.loads(err)

    def test_missing_container_exit_2(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, ["solve"], stdin='{"dim": 2, "points": [[0, 0]]}', monkeypatch=monkeypatch
        )
        assert code == 2
        assert "error" in json.loads(err)


class TestSolverFailure:
    def test_lp_error_exit_3(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise LpError("pivot below tolerance with no alternative")

        monkeypatch.setattr("homothetics.cli.min_containment", fail)
        code, out, err = run_cli(
            capsys,
            ["solve", "--container", "ball"],
            stdin='{"dim": 2, "points": [[0, 0], [1, 0]]}',
            monkeypatch=monkeypatch,
        )
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"].startswith("LpError: ")

    def test_certificate_failure_is_not_swallowed(self, capsys, monkeypatch):
        # the zero core-set comes from the certificate's points; when the
        # certificate fails, the command fails with it
        def fail(*args, **kwargs):
            raise LpError("certificate normals do not balance")

        _, gen_out, _ = run_cli(capsys, ["gen", "random", "--dim", "3", "--n", "30", "--seed", "4"])
        monkeypatch.setattr("homothetics.containment.make_certificate", fail)
        code, out, err = run_cli(
            capsys,
            ["coreset", "--eps", "0.25", "--zero", "--container", "ball"],
            stdin=gen_out,
            monkeypatch=monkeypatch,
        )
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "LpError: certificate normals do not balance"


class TestBudget:
    @pytest.mark.parametrize(
        "argv",
        [
            ["radii", "--k", "2", "--container", "ball"],
            ["coreset", "--eps", "0.01", "--exact", "--container", "ball"],
        ],
    )
    def test_budget_exceeded_exit_3(self, capsys, monkeypatch, argv):
        # 16 points in R^4: C(16, k+1) = 120, 560, 1820 for k = 1, 2, 3
        gen = ["gen", "random", "--dim", "4", "--n", "16", "--seed", "2"]
        _, gen_out, _ = run_cli(capsys, gen)
        code, out, err = run_cli(
            capsys, [*argv, "--budget", "200"], stdin=gen_out, monkeypatch=monkeypatch
        )
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"].startswith("BudgetExceeded: ")
        code, out, _ = run_cli(
            capsys, [*argv, "--budget", "2000"], stdin=gen_out, monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out)

    def test_ball_witness_is_json(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(capsys, ["gen", "random", "--dim", "3", "--n", "9", "--seed", "3"])
        code, out, _ = run_cli(
            capsys, ["radii", "--k", "2", "--container", "ball"], stdin=gen_out, monkeypatch=monkeypatch
        )
        assert code == 0
        assert 2 <= len(json.loads(out)["witness"]) <= 3


class TestRadiiCoresetAsym:
    def test_radii(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(capsys, ["gen", "regular-simplex", "--dim", "3"])
        code, out, _ = run_cli(
            capsys, ["radii", "--k", "2", "--container", "cap"], stdin=gen_out, monkeypatch=monkeypatch
        )
        assert code == 0
        res = json.loads(out)
        assert res["value"] == pytest.approx(2.0, abs=1e-7)
        assert len(res["witness"]) <= 3

    def test_coreset_exact_matches_sharp_size(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(capsys, ["gen", "regular-simplex", "--dim", "3"])
        code, out, _ = run_cli(
            capsys,
            ["coreset", "--eps", "0.5", "--exact", "--container", "neg-simplex"],
            stdin=gen_out,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["size"] == 3

    def test_coreset_greedy_and_zero(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(capsys, ["gen", "random", "--dim", "3", "--n", "30", "--seed", "4"])
        for flag in ([], ["--zero"]):
            code, out, _ = run_cli(
                capsys,
                ["coreset", "--eps", "0.25", "--container", "ball", *flag],
                stdin=gen_out,
                monkeypatch=monkeypatch,
            )
            assert code == 0
            res = json.loads(out)
            assert res["size"] == len(res["indices"])

    def test_asym(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(capsys, ["gen", "cap", "--dim", "3"])
        code, out, _ = run_cli(capsys, ["asym"], stdin=gen_out, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["asymmetry"] == pytest.approx(1.0, abs=1e-7)

    def test_tolerance_override(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(capsys, ["gen", "regular-simplex", "--dim", "2"])
        code, out, _ = run_cli(
            capsys,
            ["solve", "--container", "ball", "--tol-eq", "1e-5"],
            stdin=gen_out,
            monkeypatch=monkeypatch,
        )
        assert code == 0


class TestVerify:
    def test_single_experiment_json(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "panigrahy"])
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["experiment"] == "panigrahy"
        assert reports[0]["passed"] is True
        assert "# panigrahy" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "core-radii-neg-simplex", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "experiment,instance,param,computed,reference,deviation,pass"
        assert all(len(line.split(",")) == 7 for line in lines[1:])

    def test_append_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.csv"
        for _ in range(2):
            code, _, _ = run_cli(
                capsys, ["verify", "panigrahy", "--format", "csv", "--out", str(out_file)]
            )
            assert code == 0
        text = out_file.read_text().strip().splitlines()
        assert len(text) == 2 * 5  # header + 4 rows, appended twice

    def test_unknown_experiment_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "warp-drive"])
        assert exc.value.code == 2

    def test_verify_without_id_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["verify"])
        assert code == 2
        assert "error" in json.loads(err)

    def test_identical_invocations_identical_rows(self, capsys):
        _, out1, _ = run_cli(capsys, ["verify", "core-radii-neg-simplex", "--format", "csv"])
        _, out2, _ = run_cli(capsys, ["verify", "core-radii-neg-simplex", "--format", "csv"])
        assert out1 == out2
