"""Smoke tests for the scripts under scripts/, run as a user runs them."""
import csv
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from lapasym.lattice_sum import BUILTIN_LATTICES, exact_sum

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_remainder_tables_script():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "remainder_tables.py"), "--sizes", "100,200"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    rows = lines[lines.index("-" * len(lines[0])) + 1:]
    assert [int(row.split()[0]) for row in rows] == [100, 200]
    assert all(float(row.split()[-1]) <= 1e-14 for row in rows)  # route gap


@pytest.mark.parametrize("sizes", ["3", "1x0"])
def test_remainder_tables_rejects_bad_sizes(sizes):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "remainder_tables.py"), "--sizes", sizes],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("usage:") and "argument --sizes" in done.stderr
    assert "Traceback" not in done.stderr


def test_figure1_errors_script(tmp_path, monkeypatch):
    # in-process: the script itself puts the checkout's src first on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "argv", ["figure1_errors.py", "--out-dir", str(tmp_path)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "figure1_errors.py"), run_name="__main__")
    assert done.value.code == 0
    assert (tmp_path / "figure1_errors.gp").stat().st_size > 0
    # the batched ladder writes each F_n exactly as a lone exact_sum gives it
    with open(tmp_path / "figure1_errors.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 196
    for row in rows:
        want = exact_sum(BUILTIN_LATTICES[row["lattice"]], int(row["n"])).value
        assert float(row["F_n"]) == want, (row["lattice"], row["n"])


def test_source_lines_script(tmp_path):
    done = subprocess.run([sys.executable, str(SCRIPTS / "source_lines.py")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    source_lines = runpy.run_path(str(SCRIPTS / "source_lines.py"))["source_lines"]
    assert int(done.stdout) == source_lines() > 1000
    # blank and comment lines do not count; code and docstrings do, in
    # every .py file below the root
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text('"""Doc."""\n\n# note\nx = 1  # counted\n    # indented\n')
    (tmp_path / "sub" / "b.py").write_text("def f():\n    return 2\n")
    (tmp_path / "c.txt").write_text("not python\n")
    assert source_lines(tmp_path) == 4
