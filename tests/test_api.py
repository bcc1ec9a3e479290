"""Tests for the public names of the package."""
import ast
import importlib
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import lapasym
from lapasym import (asymptotics, cli, decomposition, extrapolation,
                     lattice_sum, quadrature, specfun, verify)
from lapasym.exceptions import DomainError

MODULES = ("asymptotics", "decomposition", "extrapolation", "lattice_sum",
           "quadrature", "specfun", "verify")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"lapasym.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_package_reexports_are_public():
    # every name lapasym/__init__.py imports from a module is in that
    # module's __all__, so a name dropped there cannot linger here
    tree = ast.parse(pathlib.Path(lapasym.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        public = importlib.import_module(f"lapasym.{node.module}").__all__
        stray = [alias.name for alias in node.names if alias.name not in public]
        assert stray == [], node.module
        for alias in node.names:
            assert hasattr(lapasym, alias.asname or alias.name)


# every record's fields, in their order; BernoulliTable holds reduced
# (p, q) pairs and builds its Fractions on read (its ``exact`` property)
RECORD_FIELDS = [
    (lattice_sum.LatticeSpec, ("name", "stencil", "trace_divisor")),
    (lattice_sum.GridGeometry, ("n", "n0", "N", "beta_n")),
    (lattice_sum.SumResult, ("value", "compensation", "term_count", "n")),
    (specfun.BernoulliTable, ("pairs", "floats")),
    (specfun.FundamentalConstants,
     ("catalan_G", "euler_gamma", "gamma_quarter", "gamma_third")),
    (asymptotics.ExpansionForm, ("c0", "c1")),
    (quadrature.QuadratureResult, ("value", "abs_error_estimate", "evaluations")),
    (decomposition.PieceSums,
     ("r_log", "r_atan", "r_edge", "r_sqrt", "r_exp", "q_axis", "r_double", "n")),
    (decomposition.CascadeRow, ("a", "cal_A", "alpha", "beta", "gamma")),
    (decomposition.ProfileDecomposition,
     ("r_log", "r_atan", "r_log_profile", "r_atan_profile")),
    (extrapolation.FitResult, ("coefficients", "residual_max", "condition_estimate")),
    (cli.RunConfig, ("subcommand", "lattice", "lattice_file", "n", "n_list", "out",
                     "plot", "csv", "suite", "max_n", "n0", "workers")),
    (verify.CheckResult, ("name", "passed", "detail")),
    (verify.Remainder, ("name", "value", "limit")),
]


@pytest.mark.parametrize("record, fields", RECORD_FIELDS,
                         ids=[record.__name__ for record, _ in RECORD_FIELDS])
def test_records_are_immutable_tuples(record, fields):
    assert record._fields == fields
    values = tuple(range(len(fields)))
    rec = record._make(values)
    assert rec == record._make(values) == values
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], -1)


def test_lattice_spec_checks_run_on_unpickling():
    spec = lattice_sum.TRIANGULAR
    assert pickle.loads(pickle.dumps(spec)) == spec
    bad = lattice_sum.LatticeSpec._make(("bad", ((1, 0), (0, 1)), 0))  # skips the checks
    with pytest.raises(DomainError, match="divisor"):
        pickle.loads(pickle.dumps(bad))


@pytest.mark.parametrize("module, absent", [
    ("lapasym", ("dataclasses", "fractions", "decimal")),
    ("lapasym.cli", ("dataclasses", "fractions")),
])
def test_import_loads_no_record_codegen_or_rationals(module, absent):
    # numpy loads none of these; each costs start-up that no sum uses
    src = str(pathlib.Path(lapasym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = f"import sys, {module}; print(*[m for m in {absent!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == []
