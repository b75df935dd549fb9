import json
import subprocess
import sys

import numpy as np
import pytest

from gpsf import cli
from gpsf.prolate import NumericalError

from golden import DISK_INTEGRAL_TABLE, LAMBDA_CURVES


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBallIntegrate:
    def test_reference_table_value(self, capsys):
        code, out, _ = run_cli(
            ["ball-integrate", "--p", "0", "--c", "20", "--x", "0.9,0.2",
             "--radial", "cheb:14", "--angular", "50"],
            capsys,
        )
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[0])
        ref = DISK_INTEGRAL_TABLE[20.0]
        assert abs(value - ref) / abs(ref) < 5e-13

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["ball-integrate", "--p", "0", "--c", "10", "--x", "0.5,0.1",
             "--radial", "gauss:8", "--angular", "30", "--format", "json"],
            capsys,
        )
        assert code == 0
        d = json.loads(out)
        assert set(d) == {"value_re", "value_im", "rel_err_vs_reference"}
        assert d["rel_err_vs_reference"] < 1e-11


class TestEigs:
    def test_abs_lambda_column_matches_curve(self, capsys):
        pts = LAMBDA_CURVES[(1, 50.0, 0)]
        code, out, _ = run_cli(
            ["eigs", "--p", "1", "--c", "50", "--N", "0", "--nmax", str(len(pts) - 1)],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        col = header.index("abs_lambda")
        for i, ref in enumerate(pts):
            got = float(lines[1 + i].split(",")[col])
            # reference coordinates carry 16 decimal places: allow the
            # print-quantization half-ulp on top of the relative bound
            assert abs(got - ref) <= 1e-12 * ref + 0.6e-16


class TestEigsSolvesOnce:
    def test_one_solve_per_channel(self, capsys, monkeypatch):
        from gpsf import spectrum

        calls = []
        real = cli.solve_channel

        def counting(*a, **k):
            calls.append(a)
            return real(*a, **k)

        # beta_chain solves through the name spectrum holds
        monkeypatch.setattr(cli, "solve_channel", counting)
        monkeypatch.setattr(spectrum, "solve_channel", counting)
        code, _, _ = run_cli(["eigs", "--p", "0", "--c", "20", "--N", "1", "--nmax", "5"], capsys)
        assert code == 0
        assert len(calls) == 1


class TestEigsJsonSchema:
    def test_required_fields_present(self, capsys):
        code, out, _ = run_cli(
            ["eigs", "--p", "0", "--c", "10", "--N", "1", "--nmax", "2",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        for row in rows:
            assert {"p", "c", "N", "n", "beta", "lambda_re", "lambda_im", "mu"} <= set(row)


class TestFigureData:
    def test_threads_flag_rejected(self, capsys):
        args = ["figure-data", "--p", "1", "--c", "50", "--N", "0,10", "--nmax", "8"]
        code, out, err = run_cli(args + ["--threads", "2"], capsys)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --threads 2" in err


class TestDeterminism:
    def test_quad_gauss_byte_identical(self, capsys):
        args = ["quad-gauss", "--p", "0", "--c", "20", "--n", "10"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2
        assert out1.startswith("node,weight\n")
        assert len(out1.strip().split("\n")) == 11

    def test_fresh_processes_byte_identical(self):
        # p=1 goes through the phase sum and the polar rule, gauss through
        # the fused root polish
        args = [sys.executable, "-m", "gpsf.cli", "ball-integrate", "--p", "1", "--c", "12",
                "--x", "-0.4,0.3,0.2", "--radial", "gauss:10", "--angular", "36"]
        first, second = (subprocess.run(args, capture_output=True, text=True) for _ in range(2))
        assert first.returncode == 0 and second.returncode == 0, first.stderr
        assert first.stdout == second.stdout

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rule.csv"
        code, out, _ = run_cli(
            ["quad-cheb", "--p", "0", "--c", "10", "--n", "6", "--out", str(target)],
            capsys,
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("node,weight\n")


class TestInterpCommand:
    def test_coefficients_emitted(self, capsys):
        code, out, _ = run_cli(
            ["interp", "--p", "0", "--c", "10", "--x", "0.3,0.4", "--Nmax", "2",
             "--nmax", "2", "--radial-count", "12", "--angular-count", "40"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,l,n,re,im,abs"
        assert len(lines) == 1 + (1 + 2 + 2) * 3

    def test_sample_file_round_trip(self, capsys, tmp_path):
        import gpsf

        rule = gpsf.sampling_rule(0, 10.0, radial_count=12, angular_count=40)
        samples = np.exp(1j * 10.0 * (rule.nodes() @ np.array([0.3, 0.4])))
        path = tmp_path / "samples.csv"
        rows = np.column_stack([rule.nodes(), samples.real, samples.imag])
        np.savetxt(path, rows, delimiter=",", header="x1,x2,f_re,f_im", comments="")
        args = ["interp", "--p", "0", "--c", "10", "--Nmax", "1",
                "--nmax", "1", "--radial-count", "12", "--angular-count", "40"]
        _, direct, _ = run_cli(args + ["--x", "0.3,0.4"], capsys)
        code, from_file, _ = run_cli(args + ["--samples", str(path)], capsys)
        assert code == 0 and direct == from_file

    def _sample_file(self, tmp_path, columns):
        path = tmp_path / "samples.csv"
        np.savetxt(path, np.column_stack(columns), delimiter=",", header="h", comments="")
        return str(path)

    def test_sample_file_node_column_checked(self, capsys, tmp_path):
        import gpsf

        rule = gpsf.sampling_rule(0, 10.0, radial_count=12, angular_count=40)
        nodes = rule.nodes().copy()
        nodes[5, 1] += 1e-9
        path = self._sample_file(tmp_path, [nodes, np.ones(rule.count), np.zeros(rule.count)])
        code, out, err = run_cli(
            ["interp", "--p", "0", "--c", "10", "--Nmax", "1", "--nmax", "1",
             "--radial-count", "12", "--angular-count", "40", "--samples", path],
            capsys,
        )
        assert code == 2 and out == ""
        assert "node columns differ from the rule nodes by 1e-09" in err
        assert err.count("\n") == 1

    def test_sample_file_column_count_checked(self, capsys, tmp_path):
        # p=1 needs 3 node columns; a disk-shaped file has 2
        path = self._sample_file(tmp_path, [np.zeros((4, 2)), np.ones(4), np.zeros(4)])
        code, out, err = run_cli(
            ["interp", "--p", "1", "--c", "2", "--Nmax", "1", "--nmax", "1",
             "--samples", path],
            capsys,
        )
        assert code == 2 and out == ""
        assert "sample file has 4 columns, expected 5" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("extra, message", [
        ([], "either --x or --samples"),
        (["--x", "0.3,0.4", "--samples", "unused.csv"], "either --x or --samples"),
        (["--samples", "no-such-file.csv"], "no-such-file.csv not found"),
    ])
    def test_point_or_sample_file_required(self, capsys, tmp_path, monkeypatch, extra, message):
        # exactly one of --x and --samples, and an unreadable file is a request error
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            ["interp", "--p", "0", "--c", "10", "--Nmax", "1", "--nmax", "1"] + extra, capsys
        )
        assert code == 2 and out == ""
        assert message in err
        assert err.count("\n") == 1

    def test_band_limit_where_low_degree_bounds_overflow(self, capsys):
        code, out, err = run_cli(["interp", "--p", "0", "--c", "400", "--x", "0.1,0.2",
                                  "--Nmax", "2", "--nmax", "2"], capsys)
        assert code == 0 and err == ""
        rows = np.array([line.split(",") for line in out.strip().split("\n")[1:]], dtype=float)
        assert rows.shape == (15, 6) and np.all(np.isfinite(rows))

    def test_band_limit_past_the_angular_cap(self, capsys):
        code, out, err = run_cli(["interp", "--p", "0", "--c", "1900", "--x", "0.1,0.2",
                                  "--Nmax", "2", "--nmax", "2"], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "c=1900 needs an angular count above 10000" in err


class TestSpectrumCheck:
    def test_disk_sum(self, capsys):
        code, out, _ = run_cli(
            ["spectrum-check", "--p", "0", "--c", "10", "--format", "json"], capsys
        )
        assert code == 0
        d = json.loads(out)
        assert d["closed_form"] == pytest.approx(25.0)
        assert abs(d["ratio"] - 1.0) < 1e-6


class TestEvalRoots:
    def test_eval_columns(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--p", "0", "--c", "20", "--N", "0", "--n", "3", "--r", "0.1,0.5,0.9"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r,phi,dphi"
        assert len(lines) == 4

    def test_roots_count(self, capsys):
        code, out, _ = run_cli(
            ["roots", "--p", "0", "--c", "20", "--N", "0", "--n", "5"], capsys
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 6


class TestExitCodes:
    def test_validation_error(self, capsys):
        code, _, err = run_cli(
            ["eval", "--p", "0", "--c", "20", "--N", "0", "--n", "3", "--r", "1.5"], capsys
        )
        assert code == 2
        assert "invalid request" in err

    def test_bad_radial_spec(self, capsys):
        code, _, err = run_cli(
            ["ball-integrate", "--p", "0", "--c", "20", "--x", "0.9,0.2",
             "--radial", "simpson:14", "--angular", "50"],
            capsys,
        )
        assert code == 2

    def test_numerical_failure_exit_code(self, capsys, monkeypatch):
        def explode(*a, **k):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "solve_channel", explode)
        code, _, err = run_cli(
            ["eval", "--p", "0", "--c", "20", "--N", "0", "--n", "3", "--r", "0.5"], capsys
        )
        assert code == 3
        assert "numerical failure" in err

    def test_argument_error_returns_two(self, capsys):
        # argparse usage errors come back as the return value, not SystemExit
        code, _, err = run_cli(["ball-integrate", "--p", "0", "--c", "20"], capsys)
        assert code == 2
        assert "required" in err

    @pytest.mark.parametrize("args", [
        ["ball-integrate", "--p", "0", "--c", "20", "--radial", "cheb:17", "--angular", "54"],
        ["interp", "--p", "0", "--c", "10", "--Nmax", "1", "--nmax", "1",
         "--radial-count", "12", "--angular-count", "40"],
    ])
    def test_coordinates_with_leading_minus(self, capsys, args):
        code, spaced, err = run_cli(args + ["--x", "-0.3,0.4"], capsys)
        assert code == 0, err
        code, bound, _ = run_cli(args + ["--x=-0.3,0.4"], capsys)
        assert code == 0
        assert spaced == bound

    @pytest.mark.parametrize("args", [
        ["interp", "--p", "2", "--c", "10", "--x", "0.1,0.2,0.3,0.4", "--Nmax", "1", "--nmax", "1"],
        ["ball-integrate", "--p", "2", "--c", "20", "--x", "0.1,0.2,0.3,0.4",
         "--radial", "cheb:8", "--angular", "20"],
    ])
    def test_dimension_outside_parser_choices(self, capsys, args):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert "argument --p: invalid choice: 2" in err

    @pytest.mark.parametrize("args", [
        ["eval", "--p", "0", "--c", "20", "--N", "0", "--n", "3", "--r", "0.5"],
        ["eigs", "--p", "0", "--c", "20", "--N", "0", "--nmax", "3"],
        ["roots", "--p", "0", "--c", "20", "--N", "0", "--n", "3"],
        ["figure-data", "--p", "0", "--c", "20", "--N", "0,1", "--nmax", "3"],
    ])
    def test_eps_accepted_where_it_is_used(self, capsys, args):
        code, out, err = run_cli(args + ["--eps", "1e-14"], capsys)
        assert code == 0 and out, err

    @pytest.mark.parametrize("args", [
        ["quad-cheb", "--p", "0", "--c", "20", "--n", "14"],
        ["quad-gauss", "--p", "0", "--c", "20", "--n", "10"],
        ["ball-integrate", "--p", "0", "--c", "20", "--x", "0.9,0.2",
         "--radial", "cheb:14", "--angular", "50"],
        ["interp", "--p", "0", "--c", "10", "--x", "0.3,0.4", "--Nmax", "1", "--nmax", "1"],
        ["spectrum-check", "--p", "0", "--c", "10"],
    ])
    def test_eps_refused_where_it_has_no_effect(self, capsys, args):
        code, out, err = run_cli(args + ["--eps", "1e-14"], capsys)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --eps" in err

    def test_wrong_point_dimension(self, capsys):
        code, _, _ = run_cli(
            ["ball-integrate", "--p", "1", "--c", "20", "--x", "0.9,0.2",
             "--radial", "cheb:8", "--angular", "20"],
            capsys,
        )
        assert code == 2
