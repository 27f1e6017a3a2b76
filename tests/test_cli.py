import csv
import io
import json

import pytest

from trigdunkl.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKernelCommand:
    def test_point_record(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--k1", "0.5", "--k2", "0.5",
                               "--x", "1", "--y", "0.3", "--method", "direct")
        assert code == 0
        record = json.loads(out)
        assert record["method"] == "direct"
        assert record["value"] > 0
        assert record["est_error"] >= 0
        assert list(record) == ["k1", "k2", "x", "y", "method", "value", "est_error"]

    def test_precondition_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "kernel", "--k1", "0.5", "--k2", "0.5",
                               "--x", "1", "--y", "2")
        assert code == 2
        assert "|y| < |x|" in err

    def test_methods_agree_within_reported_error(self, capsys):
        args = ["--k1", "0.7", "--k2", "0.4", "--x", "1.2", "--y", "0.5"]
        _, out_d, _ = run_cli(capsys, "kernel", *args, "--method", "direct")
        _, out_m, _ = run_cli(capsys, "kernel", *args, "--method", "mourou")
        d, m = json.loads(out_d), json.loads(out_m)
        budget = d["est_error"] + m["est_error"] + 1e-12 * abs(d["value"])
        assert abs(d["value"] - m["value"]) <= budget

    def test_deterministic_output(self, capsys):
        args = ("kernel", "--k1", "0.5", "--k2", "0.5", "--x", "1", "--y", "0.3")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--k1", "0.5", "--k2", "0.5",
                               "--x", "1", "--y", "0.3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["k1", "k2", "x", "y", "method", "value", "est_error"]
        assert float(rows[1][5]) > 0

    @pytest.mark.filterwarnings("error")
    def test_non_finite_value_exit_3(self, capsys):
        # one line on stderr: no numpy warning ahead of the failure
        code, out, err = run_cli(capsys, "kernel", "--k1", "0.5", "--k2", "0.5",
                                 "--x", "1e-309", "--y", "5e-310")
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: ") and len(err.splitlines()) == 1

    def test_bad_multiplicity_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "kernel", "--k1", "-0.5", "--k2", "0.5",
                               "--x", "1", "--y", "0.3")
        assert code == 2
        assert "Re k1" in err


class TestOpdamCommand:
    def test_complex_value_record(self, capsys):
        code, out, _ = run_cli(capsys, "opdam", "--k1", "0.5", "--k2", "0.5",
                               "--lam", "1.5", "--x", "1.0")
        assert code == 0
        record = json.loads(out)
        assert set(record["value"]) == {"re", "im"}
        assert record["value"]["im"] != 0.0

    def test_overflowing_argument_exit_2(self, capsys):
        # -sinh^2(400) is not a finite double
        code, out, err = run_cli(capsys, "opdam", "--k1", "0.5", "--k2", "0.5",
                                 "--lam", "1", "--x", "800")
        assert code == 2
        assert out == ""
        assert "finite double" in err


class TestApplyCommands:
    def test_apply_v_matches_opdam(self, capsys):
        _, out_v, _ = run_cli(capsys, "apply-v", "--k1", "0.5", "--k2", "0.5",
                              "--function", "plane_wave:1.5", "--x", "1.0")
        _, out_g, _ = run_cli(capsys, "opdam", "--k1", "0.5", "--k2", "0.5",
                              "--lam", "1.5", "--x", "1.0")
        v, g = json.loads(out_v)["value"], json.loads(out_g)["value"]
        assert abs(complex(v["re"], v["im"]) - complex(g["re"], g["im"])) < 1e-6

    @pytest.mark.parametrize("argv", [
        ("apply-v", "--function", "plane_wave:1", "--x", "800"),
        ("apply-vt", "--function", "bump:800", "--y", "1"),
    ], ids=["apply-v", "apply-vt"])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_value_exit_3(self, capsys, argv):
        code, out, err = run_cli(capsys, argv[0], "--k1", "0.5", "--k2", "0.5", *argv[1:])
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: ") and len(err.splitlines()) == 1

    def test_apply_vt_requires_support(self, capsys):
        code, _, err = run_cli(capsys, "apply-vt", "--k1", "0.5", "--k2", "0.5",
                               "--function", "gaussian", "--y", "0.5")
        assert code == 2
        assert "support" in err

    def test_unknown_function_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "apply-v", "--k1", "0.5", "--k2", "0.5",
                               "--function", "sinc", "--x", "1.0")
        assert code == 2
        assert "unknown test function" in err


class TestVerifyCommand:
    def test_limits_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "limits")
        assert code == 0
        rows = json.loads(out)
        assert rows and all(r["pass"] for r in rows)
        assert set(rows[0]) == {"check", "point", "lhs", "rhs", "gap", "tol", "pass"}

    def test_unmeetable_tolerance_fails(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "limits",
                                 "--tol", "1e-30")
        assert code == 1
        assert "failed" in err

    def test_bad_tolerance_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "limits", "--tol", "-1")
        assert code == 2

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "limits",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:2] == ["check", "point"]
        assert rows[1][-1] == "true"


class TestScanCommand:
    def test_single_cell_matches_kernel_command(self, capsys):
        _, out_k, _ = run_cli(capsys, "kernel", "--k1", "0.5", "--k2", "0.5",
                              "--x", "1", "--y", "0.3")
        code, out_s, _ = run_cli(capsys, "scan", "--k1-range", "0.5:0.5:1",
                                 "--k2-range", "0.5:0.5:1", "--x-range", "1:1:1",
                                 "--yfrac-range", "0.3:0.3:1", "--format", "json")
        assert code == 0
        rows = json.loads(out_s)
        assert len(rows) == 2  # one cell plus the summary row
        assert rows[0]["value"] == json.loads(out_k)["value"]
        assert rows[-1]["all_positive"] is True
        assert rows[-1]["min_value"] == rows[0]["value"]

    def test_csv_summary_line(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--k1-range", "0.5:0.5:1",
                               "--k2-range", "0.5:0.5:1", "--x-range", "1:2:2",
                               "--yfrac-range=-0.9:0.9:3", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k1,k2,x,y,value"
        assert lines[-1].startswith("min_value,")
        assert len(lines) == 1 + 6 + 1  # header, 2x * 3frac cells, summary

    def test_near_diagonal_cells_positive(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--k1-range", "0.3:1.5:2",
                               "--k2-range", "0.3:1.5:2", "--x-range", "0.6:2.4:2",
                               "--yfrac-range=-0.9999:-0.9999:1", "--format", "json")
        assert code == 0
        assert json.loads(out)[-1]["all_positive"] is True

    def test_bad_range_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--x-range", "2:1:3")
        assert code == 2
        assert "lo <= hi" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "scan", "--k1-range", "0.5:0.5:1",
                               "--k2-range", "0.5:0.5:1", "--x-range", "1:1:1",
                               "--yfrac-range", "0:0:1", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("k1,k2,x,y,value")


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
