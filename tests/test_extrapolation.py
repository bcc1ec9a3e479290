"""Tests for least-squares coefficient recovery."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapasym.asymptotics import model_for_lattice
from lapasym.exceptions import DomainError, FitError
from lapasym.extrapolation import BASIS_FUNCTIONS, fit_expansion
from lapasym.lattice_sum import SQUARE, exact_sum, exact_sums, restricted_sum_f2


def test_basis_functions():
    assert BASIS_FUNCTIONS["n2logn"](10) == pytest.approx(100.0 * math.log(10.0))
    assert BASIS_FUNCTIONS["n2"](10) == 100.0
    assert BASIS_FUNCTIONS["n"](10) == 10.0
    assert BASIS_FUNCTIONS["1"](10) == 1.0


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def synthetic_ladder(c0, c1, c2, c3, ns):
    return [(n, c0 * n * n * math.log(n) + c1 * n * n + c2 * n + c3) for n in ns]


def test_exact_model_recovery():
    ns = range(100, 1001, 100)
    refs = {"n2logn": 2.0 / math.pi, "n2": 0.2, "n": -0.5, "1": 3.0}
    fit = fit_expansion(synthetic_ladder(*refs.values(), ns))
    for name, ref in refs.items():
        # data already in the model span: recovery to 1e-8 relative
        assert abs(fit.coefficients[name] - ref) <= 1e-8 * max(1.0, abs(ref))
    assert fit.residual_max <= 1e-6
    assert fit.condition_estimate < 1e4


@settings(max_examples=30)
@given(c0=st.floats(-2.0, 2.0), c1=st.floats(-2.0, 2.0),
       c2=st.floats(-5.0, 5.0), c3=st.floats(-10.0, 10.0))
def test_recovery_property(c0, c1, c2, c3):
    ladder = synthetic_ladder(c0, c1, c2, c3, range(100, 901, 100))
    fit = fit_expansion(ladder)
    scale = max(1.0, abs(c0), abs(c1), abs(c2), abs(c3))
    for name, ref in zip(("n2logn", "n2", "n", "1"), (c0, c1, c2, c3)):
        assert abs(fit.coefficients[name] - ref) <= 1e-6 * scale


def test_fixed_coefficient_subtraction():
    ns = range(100, 1001, 100)
    ladder = synthetic_ladder(2.0 / math.pi, 0.7, 0.0, -2.0, ns)
    fit = fit_expansion(ladder, basis=("n2", "n", "1"),
                        fixed={"n2logn": 2.0 / math.pi})
    assert fit.coefficients["n2logn"] == 2.0 / math.pi
    assert fit.coefficients["n2"] == pytest.approx(0.7, abs=1e-8)


def test_square_second_coefficient_recovery():
    ladder = [(n, exact_sum(SQUARE, n).value) for n in range(100, 1001, 100)]
    fit = fit_expansion(ladder, fixed={"n2logn": 2.0 / math.pi})
    assert fit.coefficients["n2"] == pytest.approx(model_for_lattice("square").c1, abs=1e-3)


def test_restricted_sum_leading_coefficient_recovery():
    ladder = [(n, restricted_sum_f2(n).value) for n in range(100, 1001, 100)]
    fit = fit_expansion(ladder)
    assert fit.coefficients["n2logn"] == pytest.approx(2.0 / math.pi, abs=1e-3)


def test_ladder_preconditions():
    short = synthetic_ladder(1.0, 1.0, 1.0, 1.0, [100, 200, 300])
    with pytest.raises(DomainError):
        fit_expansion(short)  # needs basis size + 2 points
    mixed = synthetic_ladder(1.0, 1.0, 1.0, 1.0, [100, 201, 304, 400, 500, 600])
    with pytest.raises(DomainError):
        fit_expansion(mixed)
    with pytest.raises(DomainError):
        fit_expansion(short, basis=("n2", "bogus"))


def test_ladder_with_a_size_below_one_is_rejected():
    ladder = synthetic_ladder(1.0, 1.0, 1.0, 1.0, [4, 8, 12, 16, 20, 24])
    with pytest.raises(DomainError):
        fit_expansion([(0, 1.0)] + ladder[1:])  # log 0 would raise ValueError
    with pytest.raises(DomainError):
        fit_expansion([(-4, 1.0)] + ladder[1:], basis=("n2", "n", "1"))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ladder_with_a_value_that_is_not_finite_is_rejected(bad):
    ladder = synthetic_ladder(1.0, 1.0, 1.0, 1.0, [100, 200, 300, 400, 500, 600])
    with pytest.raises(DomainError):
        fit_expansion(ladder[:3] + [(400, bad)] + ladder[4:])


def test_rank_deficiency():
    flat = [(100, 1.0)] * 8
    with pytest.raises(FitError):
        fit_expansion(flat)
    with pytest.raises(FitError, match="zero basis column"):  # n^2 log n is 0 at n = 1
        fit_expansion([(1, 0.0)] * 6)


def test_fitted_model_residual_tracks_plateau_spread():
    model = model_for_lattice("square")
    ladder = [(r.n, r.value) for r in exact_sums(SQUARE, range(100, 1001, 100))]
    errors = [f - model.evaluate(n) for n, f in ladder]
    spread = max(errors) - min(errors)
    fit = fit_expansion(ladder)
    assert fit.residual_max <= 2.0 * max(spread, 1e-9)
