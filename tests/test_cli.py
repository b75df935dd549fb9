import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

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


    @pytest.mark.parametrize("orders", ["", ",", ",,"])
    def test_empty_order_list_refused(self, capsys, orders):
        code, out, err = run_cli(["figure-data", "--p", "0", "--c", "20", f"--N={orders}",
                                  "--nmax", "3"], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--N needs at least one angular order" in err


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
        # the child imports gpsf from the same tree as this process, installed or not
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        first, second = (subprocess.run(args, capture_output=True, text=True, env=env)
                         for _ in range(2))
        assert first.returncode == 0 and second.returncode == 0, first.stderr
        assert first.stdout == second.stdout

    def test_parser_built_once_per_process(self, capsys):
        cli._build_parser.cache_clear()
        args = ["eigs", "--p", "0", "--c", "20", "--N", "1", "--nmax", "4", "--format", "json"]
        first, second = run_cli(args, capsys), run_cli(args, capsys)
        assert cli._build_parser.cache_info().misses == 1
        assert first == second and first[0] == 0
        # a reused parser still answers --help with 0 and a usage error with 2
        assert run_cli(["eigs", "--help"], capsys)[0] == 0
        code, out, err = run_cli(["eigs", "--p", "0", "--c", "20"], capsys)
        assert code == 2 and out == "" and "required: --nmax" in err
        assert run_cli(args, capsys) == first
        assert cli._build_parser.cache_info().misses == 1

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rule.csv"
        code, out, _ = run_cli(
            ["quad-cheb", "--p", "0", "--c", "10", "--n", "6", "--out", str(target)],
            capsys,
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("node,weight\n")


class TestQuadExport:
    """quad-cheb and quad-gauss: 17 significant digits in CSV, the rule's metadata in JSON."""

    def test_csv_shape_and_precision(self, capsys):
        import gpsf

        code, out, _ = run_cli(["quad-cheb", "--p", "0", "--c", "10", "--n", "6"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "node,weight" and len(lines) == 7
        rule = gpsf.chebyshev_rule(gpsf.ProlateChannel(0, 10.0, 0), 6)
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        # 17 significant digits round-trip every node and weight
        assert np.array_equal(table[:, 0], rule.nodes) and np.array_equal(table[:, 1], rule.weights)

    def test_json_metadata(self, capsys):
        import gpsf

        code, out, _ = run_cli(["quad-gauss", "--p", "0", "--c", "10", "--n", "5", "--format", "json"],
                               capsys)
        assert code == 0 and out.endswith("}\n")
        d = json.loads(out)
        rule = gpsf.gaussian_rule(gpsf.ProlateChannel(0, 10.0, 0), 5)
        assert d["kind"] == "gaussian"
        assert d["p"] == 0 and d["c"] == 10.0 and d["n"] == 5
        assert d["exactness"] == 9
        assert np.array_equal(d["nodes"], rule.nodes) and np.array_equal(d["weights"], rule.weights)

    def test_deterministic(self, capsys):
        for command in ("quad-cheb", "quad-gauss"):
            for fmt in ("csv", "json"):
                args = [command, "--p", "0", "--c", "10", "--n", "5", "--format", fmt]
                first, second = run_cli(args, capsys), run_cli(args, capsys)
                assert first == second and first[0] == 0


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

    @pytest.mark.parametrize("text", ["x,y,f_re,f_im\n", "x,y,f_re,f_im\n\n", ""])
    def test_sample_file_without_rows(self, capsys, tmp_path, text):
        path = tmp_path / "samples.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-input warning must not escape
            code, out, err = run_cli(["interp", "--p", "0", "--c", "10", "--Nmax", "1",
                                      "--nmax", "1", "--samples", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == "gpsf: invalid request: sample file holds no sample rows\n"

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


    @pytest.mark.parametrize("flag", ["--Nmax", "--nmax"])
    def test_negative_order_limit_refused(self, capsys, monkeypatch, flag):
        from gpsf import spectrum

        def no_solve(*a, **k):
            raise AssertionError("a channel solve started for a negative limit")

        monkeypatch.setattr(spectrum, "solve_channel", no_solve)
        code, out, err = run_cli(["spectrum-check", "--p", "0", "--c", "10", flag, "-1"], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "must be nonnegative" in err and f"{flag[2:]}=-1" in err


class TestEigenvectorLimit:
    @pytest.mark.parametrize("command", [["eigs", "--N", "0", "--nmax", "19000"],
                                         ["eval", "--N", "0", "--n", "19000", "--r", "0.5"]])
    def test_refused_before_the_solve(self, capsys, monkeypatch, command):
        from gpsf import prolate

        def no_solve(*a, **k):
            raise AssertionError("eigh_tridiagonal called above the eigenvector limit")

        monkeypatch.setattr(prolate, "eigh_tridiagonal", no_solve)
        code, out, err = run_cli([command[0], "--p", "0", "--c", "20"] + command[1:], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "19010 x 19001 eigenvector entries" in err


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

    def test_eval_builds_one_basis(self, capsys, monkeypatch):
        # one (Phi, Phi') table whose columns carry the bits of eval_phi and eval_phi_deriv
        from gpsf import kernels, prolate

        builds = []
        for name in ("rbar_basis", "rbar_basis_with_deriv"):
            real = getattr(kernels, name)
            monkeypatch.setattr(kernels, name,
                                lambda *a, _n=name, _f=real: builds.append(_n) or _f(*a))
        code, out, _ = run_cli(["eval", "--p", "1", "--c", "50", "--N", "3", "--n", "8",
                                "--r", "0,0.25,0.5,0.75,1", "--format", "json"], capsys)
        assert code == 0 and builds == ["rbar_basis_with_deriv"]
        got = json.loads(out)
        mode = prolate.solve_channel(prolate.ProlateChannel(1, 50.0, 3), 8)[8]
        r = np.array(got["r"])
        assert got["phi"] == prolate.eval_phi(mode, r).tolist()
        assert got["dphi"] == prolate.eval_phi_deriv(mode, r).tolist()

    @pytest.mark.parametrize("command", [["eval", "--r", "0.7,0.75"], ["roots"]])
    def test_basis_overflow_exits_3(self, capsys, command):
        # at alpha = 2000 and above the radial basis overflows to NaN on the oscillatory interval
        c, N = ("5000", "2500") if command[0] == "eval" else ("4000", "2000")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # numpy's overflow warnings are silenced
            code, out, err = run_cli([command[0], "--p", "0", "--c", c, "--N", N, "--n", "2"]
                                     + command[1:], capsys)
        assert code == 3 and out == ""
        assert err == (f"gpsf: numerical failure: values of RadialModeId(p=0, N={N}, n=2) are not "
                       "finite at some of the radii: the radial basis overflows\n")

    def test_roots_count(self, capsys):
        code, out, _ = run_cli(
            ["roots", "--p", "0", "--c", "20", "--N", "0", "--n", "5"], capsys
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 6

    def test_roots_wrong_bracket_count(self, capsys, monkeypatch):
        # the scan's evaluation is patched to lose the lowest sign change
        from gpsf import roots

        real = roots.eval_phi

        def one_change_lost(mode, r):
            vals = real(mode, r)
            vals[: np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0] + 1] *= -1.0
            return vals

        monkeypatch.setattr(roots, "eval_phi", one_change_lost)
        code, out, err = run_cli(["roots", "--p", "0", "--c", "20", "--N", "0", "--n", "5"], capsys)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "found 4 sign changes, expected 5" in err


class TestExitCodes:
    def test_validation_error(self, capsys, monkeypatch):
        code, _, err = run_cli(
            ["eval", "--p", "0", "--c", "20", "--N", "0", "--n", "3", "--r", "1.5"], capsys
        )
        assert code == 2
        assert "invalid request" in err

        def no_solve(*a, **k):
            raise AssertionError("a channel solve started for a negative mode index")

        # a negative nmax is refused by its own name, by figure-data before any chain
        # as by eigs in its solve
        monkeypatch.setattr(cli, "beta_chain", no_solve)
        for command in ("figure-data", "eigs"):
            code, out, err = run_cli([command, "--p", "0", "--c", "20", "--N", "0", "--nmax", "-1"], capsys)
            assert code == 2 and out == ""
            assert err == "gpsf: invalid request: nmax must be nonnegative, got nmax=-1\n"

        # a negative mode index is refused by its own name, before any solve
        monkeypatch.setattr(cli, "solve_channel", no_solve)
        for command in (["eval", "--r", "0.5"], ["roots"]):
            code, out, err = run_cli([command[0], "--p", "0", "--c", "20", "--N", "0", "--n", "-1"]
                                     + command[1:], capsys)
            assert code == 2 and out == ""
            assert err == "gpsf: invalid request: n must be nonnegative, got n=-1\n"

    @pytest.mark.parametrize("orders", ["1.5", "a", "0,x"])
    def test_order_list_that_is_not_whole_numbers(self, capsys, monkeypatch, orders):
        # refused by the flag's name, before any chain
        monkeypatch.setattr(cli, "beta_chain", lambda *a, **k: pytest.fail("a chain started"))
        code, out, err = run_cli(["figure-data", "--p", "0", "--c", "20", "--N", orders, "--nmax", "3"],
                                 capsys)
        assert code == 2 and out == ""
        assert err == ("gpsf: invalid request: --N expects whole angular orders separated by commas, "
                       f"got {orders!r}\n")

    @pytest.mark.parametrize("radii", [",", ",,"])
    def test_empty_radius_list_refused(self, capsys, monkeypatch, radii):
        solves = []
        monkeypatch.setattr(cli, "solve_channel", lambda *a, **k: solves.append(a))
        code, out, err = run_cli(["eval", "--p", "0", "--c", "20", "--N", "0", "--n", "0", f"--r={radii}"],
                                 capsys)
        assert code == 2 and out == "" and solves == []
        assert err == f"gpsf: invalid request: --r needs at least one radius, got {radii!r}\n"

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

    def test_lapack_failure_exit_code(self, capsys, monkeypatch):
        from gpsf import prolate

        real = prolate.dstein
        monkeypatch.setattr(prolate, "dstein", lambda *a: (real(*a)[0], 3))
        code, out, err = run_cli(["eigs", "--p", "0", "--c", "20", "--N", "0", "--nmax", "3"],
                                 capsys)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "(K=38): dstein returned info=3" in err

    def test_nonfinite_collocation_exit_code(self, capsys, monkeypatch):
        from gpsf import quadrature

        real = quadrature.tabulate
        monkeypatch.setattr(quadrature, "tabulate", lambda *a, **k: real(*a, **k) * np.nan)
        code, out, err = run_cli(["quad-cheb", "--p", "0", "--c", "20", "--n", "14"], capsys)
        assert code == 3 and out == ""
        assert "collocation system for chebyshev rule n=14 is not finite" in err

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
        ["quad-cheb", "--p", "0", "--c", "20", "--n", "14"],
        ["quad-gauss", "--p", "0", "--c", "20", "--n", "10"],
        ["ball-integrate", "--p", "0", "--c", "20", "--x", "0.9,0.2",
         "--radial", "cheb:14", "--angular", "50"],
        ["interp", "--p", "0", "--c", "10", "--x", "0.3,0.4", "--Nmax", "1", "--nmax", "1"],
        ["spectrum-check", "--p", "0", "--c", "10"],
        ["eval", "--p", "0", "--c", "20", "--N", "0", "--n", "3", "--r", "0.5"],
        ["eigs", "--p", "0", "--c", "20", "--N", "0", "--nmax", "3"],
        ["roots", "--p", "0", "--c", "20", "--N", "0", "--n", "3"],
        ["figure-data", "--p", "0", "--c", "20", "--N", "0,1", "--nmax", "3"],
    ])
    def test_eps_refused_where_it_has_no_effect(self, capsys, args):
        # every solve truncates at one fixed tolerance, so no subcommand takes one
        code, out, err = run_cli(args + ["--eps", "1e-14"], capsys)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --eps" in err

    def test_angular_count_checked_before_the_radial_rule(self, capsys, monkeypatch):
        def no_rule(*a, **k):
            raise AssertionError("the radial rule was built before the angular count was checked")

        monkeypatch.setattr(cli, "gaussian_rule", no_rule)
        code, out, err = run_cli(["ball-integrate", "--p", "0", "--c", "20", "--x", "0.1,0.2",
                                  "--radial", "gauss:10", "--angular", "0"], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "angular count must be positive" in err

    @pytest.mark.parametrize("count", ["0", "-4"])
    def test_interp_angular_count_checked_before_any_solve(self, capsys, monkeypatch, count):
        from gpsf import interp

        def no_solve(*a, **k):
            raise AssertionError("a channel was solved before the angular count was checked")

        for name in ("beta_chain", "gaussian_rule"):
            monkeypatch.setattr(interp, name, no_solve)
        code, out, err = run_cli(["interp", "--p", "0", "--c", "200", "--x", "0.3,0.4",
                                  "--Nmax", "1", "--nmax", "1", "--angular-count", count], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "angular count must be positive" in err

    @pytest.mark.parametrize("command", [["ball-integrate", "--radial", "gauss:10", "--angular", "-5"],
                                         ["interp", "--Nmax", "1", "--nmax", "1",
                                          "--angular-count", "-3"],
                                         ["interp", "--Nmax", "1", "--nmax", "1",
                                          "--angular-count", "0"]])
    def test_interval_angular_count_checked_before_any_solve(self, capsys, monkeypatch, command):
        from gpsf import interp

        def no_solve(*a, **k):
            raise AssertionError("a channel was solved before the angular count was checked")

        for module, name in ((cli, "gaussian_rule"), (interp, "gaussian_rule"),
                             (interp, "beta_chain")):
            monkeypatch.setattr(module, name, no_solve)
        code, out, err = run_cli([command[0], "--p", "-1", "--c", "20", "--x", "0.3"] + command[1:],
                                 capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "angular count must be positive" in err

    @pytest.mark.parametrize("flag", ["--Nmax", "--nmax"])
    def test_interp_negative_order_limit_refused_before_the_rule(self, capsys, monkeypatch, flag):
        def no_rule(*a, **k):
            raise AssertionError("the sampling rule was built for a negative limit")

        monkeypatch.setattr(cli, "sampling_rule", no_rule)
        limits = {"--Nmax": "1", "--nmax": "1", flag: "-1"}
        code, out, err = run_cli(["interp", "--p", "0", "--c", "10", "--x", "0.3,0.4"]
                                 + [a for kv in limits.items() for a in kv], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "must be nonnegative" in err and f"{flag[2:]}=-1" in err

    def test_wrong_point_dimension(self, capsys):
        code, _, _ = run_cli(
            ["ball-integrate", "--p", "1", "--c", "20", "--x", "0.9,0.2",
             "--radial", "cheb:8", "--angular", "20"],
            capsys,
        )
        assert code == 2


class TestTinyBandLimit:
    def test_chain_coefficients_are_not_lost(self, capsys):
        code, out, err = run_cli(["eigs", "--p", "0", "--c", "1e-9", "--N", "0", "--nmax", "2"],
                                 capsys)
        assert code == 0, err
        beta = [float(row.split(",")[2]) for row in out.splitlines()[1:]]
        assert beta[1] == pytest.approx(-1e-18 / 96.0, rel=1e-14)
        assert beta[2] == pytest.approx(1e-36 / 23040.0, rel=1e-14)

    @pytest.mark.parametrize("command", [["eigs", "--N", "0", "--nmax", "2"],
                                         ["spectrum-check"],
                                         ["figure-data", "--N", "0,1", "--nmax", "2"]])
    def test_refused_below_the_floor(self, capsys, command):
        code, out, err = run_cli([command[0], "--p", "0", "--c", "1e-61"] + command[1:], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "band limit 1e-61 is below 1e-60" in err


class TestNonFiniteRequests:
    @pytest.mark.parametrize("args, message", [
        (["eigs", "--p", "0", "--c", "inf", "--N", "0", "--nmax", "3"], "positive and finite"),
        (["ball-integrate", "--p", "0", "--c", "inf", "--x", "0.1,0.2",
          "--radial", "cheb:5", "--angular", "10"], "positive and finite"),
        (["spectrum-check", "--p", "0", "--c", "inf"], "positive and finite"),
        (["interp", "--p", "0", "--c", "inf", "--x", "0.1,0.2", "--Nmax", "1", "--nmax", "1"],
         "positive and finite"),
        (["ball-integrate", "--p", "0", "--c", "20", "--x=nan,0.1",
          "--radial", "cheb:5", "--angular", "10"], "finite numbers"),
        (["interp", "--p", "0", "--c", "10", "--x=nan,0.1", "--Nmax", "1", "--nmax", "1"],
         "finite numbers"),
        (["eval", "--p", "0", "--c", "20", "--N", "0", "--n", "3", "--r", "nan,0.5"],
         "finite numbers"),
        # 20 radial nodes times 100000 x 50000 angular nodes
        (["ball-integrate", "--p", "1", "--c", "20", "--x", "0.1,0.2,0.3",
          "--radial", "cheb:20", "--angular", "100000"], "above the limit of 4000000"),
    ])
    def test_refused_before_compute(self, capsys, monkeypatch, args, message):
        def no_compute(*a, **k):
            raise AssertionError("compute started before the request was checked")

        from gpsf import interp, prolate, spectrum

        for module, names in ((cli, ("solve_channel", "chebyshev_rule", "gaussian_rule",
                                     "angular_rule_from_count", "mu_sum_check", "beta_chain")),
                              (interp, ("beta_chain", "gaussian_rule", "_angular_count")),
                              (prolate, ("solve_channel",)), (spectrum, ("solve_channel",))):
            for name in names:
                monkeypatch.setattr(module, name, no_compute)
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and message in err

    def test_non_finite_sample_file(self, capsys, tmp_path):
        import gpsf

        rule = gpsf.sampling_rule(0, 10.0, radial_count=12, angular_count=40)
        f = np.ones(rule.count)
        f[3] = np.nan
        path = tmp_path / "samples.csv"
        np.savetxt(path, np.column_stack([rule.nodes(), f, np.zeros(rule.count)]),
                   delimiter=",", header="x,y,f_re,f_im", comments="", fmt="%.17g")
        code, out, err = run_cli(["interp", "--p", "0", "--c", "10", "--samples", str(path),
                                  "--Nmax", "1", "--nmax", "1", "--radial-count", "12",
                                  "--angular-count", "40"], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "non-finite" in err

    @pytest.mark.parametrize("c", ["1e9", "1e308"])
    def test_band_limit_above_the_truncation_limit(self, capsys, monkeypatch, c):
        from gpsf import prolate

        def no_solve(*a, **k):
            raise AssertionError("a channel solve started above the truncation limit")

        for name in ("tridiag_matrix", "eigh_tridiagonal"):
            monkeypatch.setattr(prolate, name, no_solve)
        code, out, err = run_cli(["eigs", "--p", "0", "--c", c, "--nmax", "2"], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "needs more than 20000 Zernike coefficients" in err

    def test_sampling_rule_over_the_node_limit(self, capsys):
        # p=1, c=400: 2202 x 1101 angular nodes before any radial count
        code, out, err = run_cli(["interp", "--p", "1", "--c", "400", "--x", "0.1,0.2,0.3",
                                  "--Nmax", "1", "--nmax", "1"], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "above the limit of 4000000" in err
