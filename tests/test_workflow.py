"""The CI workflow against the repository it runs in.

The workflow only runs on a CI runner, so these tests read it as data:
its Python matrix, the paths its steps name and the flags it passes to
the benchmark runner.
"""
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _job() -> dict:
    return yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]["tier1"]


def _runs() -> list[str]:
    return [step["run"] for step in _job()["steps"] if "run" in step]


def test_matrix_starts_at_requires_python():
    versions = _job()["strategy"]["matrix"]["python-version"]
    assert versions == ["3.10", "3.11", "3.12"]
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=([\d.]+)"$', pyproject, re.M).group(1)
    assert min(versions, key=lambda v: tuple(map(int, v.split(".")))) == floor


def test_numpy_floor_has_a_job():
    # one job installs the lowest numpy pyproject.toml admits, and the pin
    # step installs what the matrix names
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'"numpy>=([\d.]+)"', pyproject).group(1)
    matrix = _job()["strategy"]["matrix"]
    assert matrix["numpy"] == ["latest"]
    assert [(e["python-version"], e["numpy"]) for e in matrix["include"]] == \
        [("3.10", f"{floor}.*")]
    pin = next(step for step in _job()["steps"] if step.get("name") == "Pin numpy")
    assert pin["if"] == "matrix.numpy != 'latest'"
    assert pin["run"] == 'pip install "numpy==${{ matrix.numpy }}"'


def test_named_paths_exist():
    paths = {m for run in _runs()
             for m in re.findall(r"\b(?:scripts|perfbench|tests)/[\w*]+\.py\b", run)}
    assert {"scripts/source_lines.py", "perfbench/run.py", "tests/test_*.py"} <= paths
    for path in paths:
        assert list(ROOT.glob(path)), path


def test_install_step_brings_pyyaml():
    # the test extra has no PyYAML, so without it this module would skip on
    # the runner
    install = next(step["run"] for step in _job()["steps"] if step.get("name") == "Install")
    assert "pyyaml" in install.split()


def test_benchmark_flags_are_declared():
    declared = set(re.findall(r'add_argument\(\s*"(--[\w-]+)"',
                              (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")))
    commands = [line.split("perfbench/run.py", 1)[1].split("|")[0]
                for run in _runs() for line in run.splitlines() if "perfbench/run.py" in line]
    flags = {f for command in commands for f in re.findall(r"(?<!\S)--[\w-]+", command)}
    assert commands and flags
    assert flags <= declared, flags - declared
