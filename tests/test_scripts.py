"""Smoke tests for the scripts under scripts/, run as a user runs them."""
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

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
