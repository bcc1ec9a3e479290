"""Tests for the command-line interface."""
import csv
import io
import os
import subprocess
import sys

import pytest

from lapasym.cli import (EXIT_CONFIG, EXIT_OK, EXIT_VERIFY_FAILED,
                         cmd_errors, cmd_sum, cmd_verify, config_from_argv,
                         main)


def run_cmd(fn, cfg):
    buf = io.StringIO()
    code = fn(cfg, out=buf)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# Config round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["sum", "--lattice", "square", "--n", "2"],
    ["sum", "--lattice", "triangular", "--n", "10", "--csv", "--workers", "2"],
    ["errors", "--lattice", "all", "--start", "25", "--stop", "100", "--step", "25"],
    ["errors", "--lattice", "square", "--n-list", "4,8,12", "--out", "x.csv"],
    ["verify", "--suite", "specfun", "--max-n", "64", "--n0", "2"],
])
def test_config_round_trip(argv):
    cfg = config_from_argv(argv)
    again = config_from_argv(cfg.to_argv())
    assert again == cfg


def test_config_rejects_unknown_lattice():
    with pytest.raises(SystemExit):
        config_from_argv(["sum", "--lattice", "kagome", "--n", "4"])


def test_main_maps_config_error_to_exit_2(tmp_path, monkeypatch):
    assert main(["sum", "--lattice", "nope", "--n", "4"]) == EXIT_CONFIG
    assert main(["bogus-subcommand"]) == EXIT_CONFIG
    assert main(["errors", "--lattice", "square", "--n-list", "10,abc"]) == EXIT_CONFIG
    path = tmp_path / "bad.lattice"
    path.write_text("s = 1 0\ns = 0 1\ns = x 1\ndivisor = 4\n")
    assert main(["sum", "--lattice-file", str(path), "--n", "4"]) == EXIT_CONFIG
    monkeypatch.setenv("LAPASYM_WORKERS", "abc")
    assert main(["sum", "--lattice", "square", "--n", "4"]) == EXIT_CONFIG


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


def test_errors_csv_is_bit_stable_across_workers(tmp_path):
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"errors_{workers}.csv"
        cfg = config_from_argv([
            "errors", "--lattice", "triangular", "--n-list", "40,80,120",
            "--out", str(out), "--workers", workers])
        run_cmd(cmd_errors, cfg)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_errors_plot_requires_out(tmp_path):
    cfg = config_from_argv(["errors", "--lattice", "square", "--n-list", "30,60",
                            "--plot", str(tmp_path / "p.gp")])
    assert main(cfg.to_argv()) == EXIT_CONFIG


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

    def explode(spec, n, workers=None):
        raise SingularityError("synthetic vanishing denominator", point=(1, 1))

    monkeypatch.setattr(cli_mod, "exact_sum", explode)
    assert main(["sum", "--lattice", "square", "--n", "8"]) == 3


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


def test_verify_reports_failures(monkeypatch):
    from lapasym import verify as vmod

    def broken(max_n=0, n0=0, workers=None):
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


def test_workers_env_passthrough(monkeypatch):
    monkeypatch.setenv("LAPASYM_WORKERS", "1")
    code, text = run_cmd(cmd_sum, config_from_argv(["sum", "--lattice", "square", "--n", "64"]))
    assert code == EXIT_OK
    value_env = text.split("F_n=")[1].split()[0]
    monkeypatch.setenv("LAPASYM_WORKERS", "4")
    code, text = run_cmd(cmd_sum, config_from_argv(["sum", "--lattice", "square", "--n", "64"]))
    value4 = text.split("F_n=")[1].split()[0]
    assert value_env == value4  # bit-identical formatting either way
