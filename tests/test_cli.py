import csv
import io
import json
import math

import numpy as np
import pytest

from trigdunkl import cli, operators
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

    def test_k_sum_below_eps(self, capsys):
        # the series parameters come from k itself, so k1 + k2 < eps is no 0/0
        code, out, _ = run_cli(capsys, "kernel", "--k1", "1e-17", "--k2", "1e-17",
                               "--x", "1", "--y", ".3")
        assert code == 0
        assert math.isfinite(json.loads(out)["value"])

    def test_underflowing_exponent_has_error_bar(self, capsys):
        # the value rounds to 0 where the true one is ~1.5e-257; the bar says so
        code, out, _ = run_cli(capsys, "kernel", "--k1", ".5", "--k2", "200",
                               "--x", "3", "--y", "-2.7", "--format", "json")
        assert code == 0
        assert json.loads(out)["est_error"] > 0

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
        assert 0.0 < record["est_error"] < 1e-12

    @pytest.mark.parametrize("lam, x, method", [("1.5", "1.0", "direct"), ("1", "3", "pfaff"),
                                                ("5", "10", "connection")])
    def test_record_names_branch_and_steps(self, capsys, lam, x, method):
        # the branch _gauss_2f1 took and its series steps, next to est_error;
        # at lam = 5, x = 10 the Pfaff series would not converge
        code, out, _ = run_cli(capsys, "opdam", "--k1", "0.5", "--k2", "0.5",
                               "--lam", lam, "--x", x)
        assert code == 0
        record = json.loads(out)
        assert list(record)[-3:] == ["est_error", "method", "terms"]
        assert record["method"] == method
        assert isinstance(record["terms"], int) and 3 <= record["terms"] < 200

    def test_error_bar_covers_apply_v(self, capsys):
        # at lam = 20, x = 3 G takes the connection terms, whose bar is
        # about 1e-12 of G, where the Pfaff series were off by 107; V agrees
        # with G within the two bars
        point = ("--k1", "0.3", "--k2", "0.3", "--x", "3")
        _, out_g, _ = run_cli(capsys, "opdam", *point, "--lam", "20")
        _, out_v, _ = run_cli(capsys, "apply-v", *point, "--function", "plane_wave:20")
        g, v = json.loads(out_g), json.loads(out_v)
        gap = abs(complex(g["value"]["re"], g["value"]["im"])
                  - complex(v["value"]["re"], v["value"]["im"]))
        assert gap <= g["est_error"] + v["est_error"]

    def test_overflowing_argument_exit_2(self, capsys):
        # -sinh^2(400) is not a finite double
        code, out, err = run_cli(capsys, "opdam", "--k1", "0.5", "--k2", "0.5",
                                 "--lam", "1", "--x", "800")
        assert code == 2
        assert out == ""
        assert "finite double" in err

    def test_non_convergence_names_argument(self, capsys):
        # the blocks' argument -sinh(5)^2, not the Pfaff-mapped one
        code, out, err = run_cli(capsys, "opdam", "--k1", "0.5", "--k2", "0.5",
                                 "--lam", "1", "--x", "10")
        assert code == 3
        assert out == ""
        assert "(z=-5506.116" in err and "w=0.99981" in err


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

    @pytest.mark.parametrize("argv", [
        ("apply-v", "--function", "bump:nan", "--x", "0.5"),
        ("apply-vt", "--function", "bump:nan", "--y", "0.5"),
        ("apply-v", "--function", "plane_wave:nan", "--x", "0.5"),
        ("apply-v", "--function", "plane_wave:inf", "--x", "0.5"),
        ("apply-v", "--function", "gaussian:inf", "--x", "0.5"),
        ("apply-v", "--function", "bump:abc", "--x", "0.5"),
    ], ids=["apply-v-bump-nan", "apply-vt-bump-nan", "plane_wave-nan", "plane_wave-inf",
            "gaussian-inf", "bump-unparseable"])
    def test_bad_function_parameter_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, argv[0], "--k1", "0.5", "--k2", "0.5", *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

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

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tolerance_exit_2(self, capsys, tol):
        # an infinite tolerance would pass every row
        code, out, err = run_cli(capsys, "verify", "--suite", "limits", "--tol", tol)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_all_suites_deterministic(self, capsys, tmp_path):
        # cached coefficient rows and rule caches leave the output alone
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["verify", "--suite", "all", "--format", "json", "--out", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

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

    def test_multi_k_json_byte_identical(self, capsys, tmp_path):
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            code, _, _ = run_cli(capsys, "scan", "--k1-range", "0.2:2:4", "--k2-range", "0.2:2:3",
                                 "--yfrac-range=-0.999:0.999:7", "--format", "json",
                                 "--out", str(out))
            assert code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert len(json.loads(outs[0].read_text())) == 4 * 3 * 6 * 7 + 1

    def test_value_within_its_error_bar_exit_1(self, capsys, monkeypatch):
        # positive values inside their error bars certify nothing
        monkeypatch.setattr(operators, "_kernel_grid", lambda ks, x, y: (
            np.full((len(ks), x.size), 1e-300), np.full((len(ks), x.size), 1e-290)))
        code, out, _ = run_cli(capsys, "scan", "--k1-range", "0.5:0.5:1",
                               "--k2-range", "0.5:0.7:2", "--x-range", "1:2:2",
                               "--yfrac-range=-0.5:0.5:3", "--format", "json")
        assert code == 1
        summary = json.loads(out)[-1]
        assert summary["min_value"] == 1e-300 and summary["all_positive"] is False

    @pytest.mark.parametrize("option, text, match", [
        ("--x-range", "2:1:3", "lo <= hi"),
        ("--k1-range", "0.5:1", "range must be lo:hi:count"),
        ("--k1-range", "0.5:x:3", "bad range"),
        ("--k1-range", "0.5:1:0", "count must be >= 1"),
    ], ids=["reversed", "two-parts", "unparsable", "count-0"])
    def test_bad_range_exit_2(self, capsys, option, text, match):
        code, out, err = run_cli(capsys, "scan", option, text)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert match in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "scan", "--k1-range", "0.5:0.5:1",
                               "--k2-range", "0.5:0.5:1", "--x-range", "1:1:1",
                               "--yfrac-range", "0:0:1", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("k1,k2,x,y,value")


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "limits"),
    ("kernel", "--k1", ".5", "--k2", ".5", "--x", "1", "--y", ".3"),
], ids=["verify", "kernel"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exit_2(capsys, tmp_path, argv, where):
    # not 1, which says a verification failed: one error line and no traceback
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: cannot write the report: ") and len(err.splitlines()) == 1
    assert str(out) in err


def _csv_value(cell):
    try:
        return json.loads(cell)
    except ValueError:
        return cell


def _csv_layout(record, pairs=()):
    """A JSON record's (column, value) pairs as CSV lays them out; keys in ``pairs`` always split."""
    for key, v in record.items():
        if isinstance(v, dict) or key in pairs:
            re, im = (v["re"], v["im"]) if isinstance(v, dict) else (v, 0.0)
            yield from ((f"{key}_re", re), (f"{key}_im", im))
        else:
            yield key, v


class TestFormatsAgree:
    """The JSON and CSV of one report carry the same columns and values."""

    def reports(self, capsys, *argv):
        runs = [run_cli(capsys, *argv, "--format", fmt) for fmt in ("json", "csv")]
        assert runs[0][0] == runs[1][0] == 0
        return json.loads(runs[0][1]), list(csv.reader(io.StringIO(runs[1][1])))

    def assert_agree(self, records, table, pairs=()):
        assert len(table) == 1 + len(records)
        for record, row in zip(records, table[1:]):
            fields = list(_csv_layout(record, pairs))
            assert table[0] == [column for column, _ in fields]
            assert [_csv_value(cell) for cell in row] == [v for _, v in fields]

    @pytest.mark.parametrize("argv", [
        ("kernel", "--k1", "0.5", "--k2", "0.7", "--x", "1", "--y", "0.3"),
        ("opdam", "--k1", "0.5", "--k2", "0.5", "--lam", "1.5", "--x", "1.0"),
    ], ids=["kernel-real", "opdam-complex"])
    def test_point_record(self, capsys, argv):
        record, table = self.reports(capsys, *argv)
        self.assert_agree([record], table)

    def test_verify_rows(self, capsys):
        rows, table = self.reports(capsys, "verify", "--suite", "limits")
        # real lhs, rhs too, so every row has the same columns
        assert not isinstance(rows[0]["lhs"], dict)
        self.assert_agree(rows, table, pairs=("lhs", "rhs"))

    def test_json_hook_rejects_other_types(self):
        # the encoder's hook turns complex values into {"re", "im"} and nothing else
        assert cli._complex_json(1 - 2j) == {"re": 1.0, "im": -2.0}
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            cli._complex_json({1.0})

    def test_two_cell_scan(self, capsys):
        rows, table = self.reports(capsys, "scan", "--k1-range", "0.5:0.5:1",
                                   "--k2-range", "0.5:0.7:2", "--x-range", "1:1:1",
                                   "--yfrac-range", "0.3:0.3:1")
        *cells, summary = rows
        assert len(cells) == 2
        self.assert_agree(cells, table[:-1])
        argmin = summary["argmin"]
        assert table[-1] == ["min_value", repr(summary["min_value"]), "argmin",
                             *(repr(argmin[key]) for key in ("k1", "k2", "x", "y"))]


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
