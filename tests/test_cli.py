"""Tests for the command-line interface."""
import contextlib
import csv
import io
import os
import subprocess
import sys

import pytest

from lapasym import decomposition, lattice_sum, verify
from lapasym.cli import (EXIT_CONFIG, EXIT_OK, EXIT_VERIFY_FAILED, RunConfig,
                         cmd_errors, cmd_sum, cmd_verify, config_from_argv,
                         main)
from lapasym.lattice_sum import SQUARE, LatticeSpec, exact_sum


def run_cmd(fn, cfg):
    buf = io.StringIO()
    code = fn(cfg, out=buf)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_lattice():
    with pytest.raises(SystemExit):
        config_from_argv(["sum", "--lattice", "kagome", "--n", "4"])


def test_main_maps_config_error_to_exit_2(tmp_path):
    assert main(["sum", "--lattice", "nope", "--n", "4"]) == EXIT_CONFIG
    assert main(["bogus-subcommand"]) == EXIT_CONFIG
    assert main(["errors", "--lattice", "square", "--n-list", "10,abc"]) == EXIT_CONFIG
    assert main(["errors", "--lattice", "square", "--n-list", ""]) == EXIT_CONFIG
    assert main(["errors", "--lattice", "square", "--n-list", ","]) == EXIT_CONFIG
    path = tmp_path / "bad.lattice"
    path.write_text("s = 1 0\ns = 0 1\ns = x 1\ndivisor = 4\n")
    assert main(["sum", "--lattice-file", str(path), "--n", "4"]) == EXIT_CONFIG
    path.write_text("s = 1 0\ns = 0 1\ndivisor = 4\ndivisor = 5\n")
    assert main(["sum", "--lattice-file", str(path), "--n", "4"]) == EXIT_CONFIG
    path.write_text("s = 1 0\ns = 0 1\ndivisor = 4\n")
    assert main(["sum", "--lattice", "square", "--lattice-file", str(path),
                 "--n", "4"]) == EXIT_CONFIG
    assert main(["sum", "--n", "4", "--workers", "2"]) == EXIT_CONFIG
    for gone in ("--start", "--stop", "--step"):  # unknown options: --n-list sets the ladder
        assert main(["errors", "--lattice", "square", gone, "0"]) == EXIT_CONFIG


def test_config_defaults_are_run_config_defaults():
    assert config_from_argv(["sum", "--n", "4"]) == RunConfig(subcommand="sum", n=4)
    assert config_from_argv(["errors"]) == RunConfig(subcommand="errors", lattice="all")
    assert config_from_argv(["verify"]) == RunConfig(subcommand="verify")
    assert RunConfig(subcommand="verify") == RunConfig(
        subcommand="verify", lattice="square", lattice_file=None, n=None,
        n_list=(), out=None, plot=None, csv=False, suite="all", max_n=200, n0=0)


def test_lattice_file_is_a_sum_option_only():
    assert main(["verify", "--lattice-file", "x"]) == EXIT_CONFIG
    assert main(["verify", "--suite", "specfun", "--lattice-file", "x"]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# sum
# ---------------------------------------------------------------------------

def test_sum_small_square():
    code, text = run_cmd(cmd_sum, config_from_argv(["sum", "--lattice", "square", "--n", "2"]))
    assert code == EXIT_OK
    assert "F_n=2.5" in text
    assert "trace=0.625" in text
    assert "terms=3" in text


def test_sum_n_one_is_empty():
    code, text = run_cmd(cmd_sum, config_from_argv(["sum", "--lattice", "square", "--n", "1"]))
    assert code == EXIT_OK
    assert "F_n=0" in text


def test_main_writes_to_the_current_stdout():
    # the stream is looked up when main runs, not when the module is imported
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["sum", "--n", "4"]) == EXIT_OK
    assert "n=4 F_n=" in buf.getvalue()


def test_sum_csv_output():
    cfg = config_from_argv(["sum", "--lattice", "triangular", "--n", "2", "--csv"])
    code, text = run_cmd(cmd_sum, cfg)
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["lattice", "n", "F_n", "trace", "terms", "seconds"]
    assert float(rows[1][2]) == pytest.approx(2.25, abs=1e-15)
    assert float(rows[1][3]) == pytest.approx(0.375, abs=1e-15)


def test_sum_with_lattice_file(tmp_path):
    path = tmp_path / "sq.lattice"
    path.write_text("s = 1 0\ns = 0 1\ndivisor = 4\n")
    cfg = config_from_argv(["sum", "--lattice-file", str(path), "--n", "2"])
    code, text = run_cmd(cmd_sum, cfg)
    assert code == EXIT_OK and "F_n=2.5" in text


def test_sum_rejects_non_utf8_lattice_file(tmp_path):
    path = tmp_path / "binary.lattice"
    path.write_bytes(b"s = 1 0\ns = 0 1\n\xff\ndivisor = 4\n")
    assert main(["sum", "--n", "8", "--lattice-file", str(path)]) == EXIT_CONFIG


@pytest.mark.parametrize("vectors", [
    "s = 1180591620717411303424 1180591620717411303424\n",        # closed-form rows
    "s = 1180591620717411303424 -2\ns = 2 2\n",                   # gathered rows
], ids=["closed_form", "gather"])
def test_sum_rejects_huge_stencil_entries(tmp_path, capsys, vectors):
    # 2^70: the row cost grows with the entries, and int64 indexing overflows
    path = tmp_path / "huge.lattice"
    path.write_text("s = 1 0\ns = 0 1\n" + vectors + "divisor = 4\n")
    assert main(["sum", "--lattice-file", str(path), "--n", "10"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: stencil entries")


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

def test_errors_csv_and_summary(tmp_path):
    out = tmp_path / "errors.csv"
    cfg = config_from_argv([
        "errors", "--lattice", "square", "--n-list", "50,100,150,200",
        "--out", str(out)])
    code, text = run_cmd(cmd_errors, cfg)
    assert code == EXIT_OK
    assert "plateau square: mean E_n over top decile" in text
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lattice", "n", "F_n", "model", "E_n"]
    assert len(rows) == 5
    for row in rows[1:]:
        assert float(row[4]) == pytest.approx(float(row[2]) - float(row[3]), abs=1e-9)
        assert float(row[2]) == float(format(float(row[2]), ".17g"))  # round trip


def test_errors_plot_requires_out(tmp_path):
    assert main(["errors", "--lattice", "square", "--n-list", "30,60",
                 "--plot", str(tmp_path / "p.gp")]) == EXIT_CONFIG


def test_errors_plot_without_out_fails_before_any_output(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "lapasym.cli", "errors", "--lattice", "square",
         "--n-list", "30,60", "--plot", str(tmp_path / "p.gp")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"})
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == ""
    assert "--plot requires --out" in proc.stderr


def test_errors_plot_script(tmp_path):
    out = tmp_path / "errors.csv"
    script = tmp_path / "errors.gp"
    cfg = config_from_argv([
        "errors", "--lattice", "square", "--n-list", "25,50,75,100",
        "--out", str(out), "--plot", str(script)])
    code, _ = run_cmd(cmd_errors, cfg)
    assert code == EXIT_OK
    body = script.read_text()
    assert str(out) in body
    assert "multiplot" in body
    # the plot panels need the small-n ladder too; CSV must cover n = 1..100
    with open(out) as fh:
        ns = {int(row["n"]) for row in csv.DictReader(fh)}
    assert set(range(1, 101)) <= ns


def test_errors_all_plot_writes_each_f_n_as_a_lone_exact_sum(tmp_path):
    # the default ladder with --plot: 196 sizes per lattice, summed in
    # batches, each F_n exactly as a lone exact_sum gives it
    out = tmp_path / "errors.csv"
    cfg = config_from_argv(["errors", "--lattice", "all", "--out", str(out),
                            "--plot", str(tmp_path / "errors.gp")])
    code, _ = run_cmd(cmd_errors, cfg)
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 196
    for row in rows:
        want = exact_sum(lattice_sum.BUILTIN_LATTICES[row["lattice"]], int(row["n"])).value
        assert float(row["F_n"]) == want, (row["lattice"], row["n"])


def test_errors_io_failure_exit_code(tmp_path):
    cfg = ["errors", "--lattice", "square", "--n-list", "30,60",
           "--out", str(tmp_path / "no_dir" / "x.csv")]
    assert main(cfg) == 4


def test_errors_rejects_lattice_file(tmp_path):
    path = tmp_path / "sq.lattice"
    path.write_text("s = 1 0\ns = 0 1\ndivisor = 4\n")
    assert main(["errors", "--lattice-file", str(path),
                 "--n-list", "30,60"]) == EXIT_CONFIG


def test_numerical_error_exit_code(monkeypatch):
    import lapasym.cli as cli_mod
    from lapasym.exceptions import SingularityError

    def explode(spec, n):
        raise SingularityError("synthetic vanishing denominator", point=(1, 1))

    monkeypatch.setattr(cli_mod, "exact_sum", explode)
    assert main(["sum", "--lattice", "square", "--n", "8"]) == 3


def test_out_of_memory_is_a_config_error(monkeypatch, capsys):
    # a stand-in for numpy's allocation failure, so nothing is allocated
    import lapasym.cli as cli_mod

    def exhaust(spec, n):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "exact_sum", exhaust)
    assert main(["sum", "--lattice", "square", "--n", "100000000000"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "100000000000" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_specfun_suite_passes():
    cfg = config_from_argv(["verify", "--suite", "specfun"])
    code, text = run_cmd(cmd_verify, cfg)
    assert code == EXIT_OK
    assert "PASS clausen_catalan" in text
    assert "FAIL" not in text


def test_verify_identities_suite_passes():
    cfg = config_from_argv(["verify", "--suite", "identities", "--max-n", "120"])
    code, text = run_cmd(cmd_verify, cfg)
    assert code == EXIT_OK, text
    assert "digamma_route" in text


def test_verify_quadrant_checks_catch_a_route_off_by_1e14(monkeypatch):
    # the limit comes from the routes' stated agreement with the direct
    # sum, 1.4e-15 in all, so a digamma route 1e-14 off fails it
    route = decomposition._route_sum
    monkeypatch.setattr(decomposition, "_route_sum",
                        lambda rows: route(rows) * (1.0 + 1e-14))
    checks = {r.name: r for r in verify.suite_identities(max_n=120)}
    assert [name for name, r in checks.items() if not r.passed] == ["digamma_route"]


def _scale_route_at_n1(monkeypatch):
    # 3e-15 only where N = 1 (n = 5, 6, 7), the sizes below 8
    route = decomposition._route_sum
    monkeypatch.setattr(decomposition, "_route_sum", lambda rows: route(rows) * (
        1.0 + 3e-15 if len(rows.A) == 1 else 1.0))


def _scale_laplace(monkeypatch):
    laplace = lattice_sum._laplace_quadrant
    monkeypatch.setattr(lattice_sum, "_laplace_quadrant", lambda u: laplace(u) * (1.0 + 1e-14))


@pytest.mark.parametrize("shift", [_scale_route_at_n1, _scale_laplace])
def test_verify_digamma_route_catches_either_side(monkeypatch, shift):
    assert {r.name: r for r in verify.suite_identities(max_n=120)}["digamma_route"].passed
    shift(monkeypatch)
    checks = {r.name: r for r in verify.suite_identities(max_n=120)}
    assert [name for name, r in checks.items() if not r.passed] == ["digamma_route"]


def test_verify_check_names_are_unique_and_limits_stated():
    # one check per identity; the asymptotics suite's windows are not yet derived
    results = {name: suite(max_n=100) for name, suite in verify.SUITES.items()}
    names = [r.name for checks in results.values() for r in checks]
    assert len(names) == len(set(names)) == 23
    exact = {"bernoulli_exact", "factor_row_bounds"}  # no tolerance to state
    for suite in ("specfun", "quadrature", "identities"):
        for r in results[suite]:
            assert r.name in exact or "limit" in r.detail, r


@pytest.mark.parametrize("max_n, sizes", [(4, "4, 5, 11, 26, 103"),
                                           (103, "5, 11, 26, 103"),
                                           (2500, "5, 11, 26, 103, 2500")])
def test_verify_factor_row_bounds_names_its_sizes(max_n, sizes):
    checks = {r.name: r for r in verify.suite_identities(max_n=max_n)}
    assert checks["factor_row_bounds"].passed
    assert checks["factor_row_bounds"].detail == f"bounds hold at n = {sizes}"


def test_verify_reports_failures(monkeypatch):
    from lapasym import verify as vmod

    def broken(max_n=0, n0=0):
        return [vmod.CheckResult("always_fails", False, "synthetic")]

    monkeypatch.setitem(vmod.SUITES, "specfun", broken)
    cfg = config_from_argv(["verify", "--suite", "specfun"])
    code, text = run_cmd(cmd_verify, cfg)
    assert code == EXIT_VERIFY_FAILED
    assert "FAIL always_fails" in text


# ---------------------------------------------------------------------------
# Console entry point
# ---------------------------------------------------------------------------

def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lapasym.cli", "sum", "--lattice", "square", "--n", "2"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"})
    assert proc.returncode == 0
    assert "F_n=2.5" in proc.stdout


def test_python_dash_m_lapasym_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lapasym", "verify", "--suite", "specfun"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"})
    assert proc.returncode == 0, proc.stderr
    assert "checks passed" in proc.stdout


def test_verify_runs_without_numpy_random():
    # verify draws its points from the stdlib's random, so neither
    # run_suite nor the verify command pays for importing numpy.random
    code = ("import contextlib, io, sys\n"
            "from lapasym import cli, verify\n"
            "assert all(r.passed for r in verify.run_suite('all', max_n=200))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify']) == 0\n"
            "assert 'numpy.random' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": "src"})
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# The ignored ``workers`` keyword
# ---------------------------------------------------------------------------

def test_ignored_workers_keyword_changes_nothing(tmp_path):
    # the benchmark harness passes workers= to these signatures; each must
    # still accept it and return exactly what the call without it returns
    gather = LatticeSpec("gather", ((1, 0), (0, 1), (2, 2), (2, -2)), 4)
    for spec, n in ((SQUARE, 517), (gather, 130)):
        got, want = exact_sum(spec, n, workers=3), exact_sum(spec, n)
        assert (got.value, got.compensation) == (want.value, want.compensation)

    csvs = []
    for extra in ({"workers": 3}, {}):
        out = tmp_path / f"errors{len(csvs)}.csv"
        cfg = RunConfig(subcommand="errors", lattice="triangular",
                        n_list=(40, 80, 120), out=str(out), **extra)
        assert run_cmd(cmd_errors, cfg)[0] == EXIT_OK
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]

    specfun = verify.SUITES["specfun"]
    assert specfun(max_n=0, n0=0, workers=3) == specfun(max_n=0, n0=0)
    assert verify.run_suite("specfun", workers=3) == verify.run_suite("specfun")
