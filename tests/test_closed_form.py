"""The finite-tau tables in closed form: the 2F1 branches, the tables
against 40-digit mpmath and the ray-rule oracle, single monomials against
a quadrature oracle, the small-x corrections, and the guard that admits
only the paper's covariance."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from child import run_python
from oracles import mp_closed_form_table, mp_monomial, ray_rule_counterterm
from tfrenorm.cli import main
from tfrenorm.constants import (
    _beta_terms,
    _closed_form,
    COLUMNS,
    C_constants_with_errors,
    CovarianceSpec,
    counterterm_table,
    covariance_spec,
    hyp2f1_1mx,
    mollifier_spec,
)
from tfrenorm.errors import ConfigError
from tfrenorm.mc import fit_log_slope

EPS = np.finfo(float).eps


def _values_and_errors(table):
    return zip((table.c1, table.c2, table.c3), (table.err1, table.err2, table.err3))


@pytest.mark.parametrize("alpha", [0.26, 0.5001, 0.7, 0.9999])
def test_hyp2f1_within_16_eps_of_its_magnitude(alpha):
    """Every branch, its edges and x from 1e-30 to 1e30 meet 40-digit mpmath
    within 16 eps of the magnitude: the tables' rounding factor."""
    s = (2.0 - 2.0 * alpha) / 8.0
    edges = [0.5, 1.5, 1.0, np.nextafter(0.5, 0.0), np.nextafter(1.5, 2.0), 1e-15, 1e-16]
    xs = np.concatenate([10.0 ** np.linspace(-30.0, 30.0, 61), np.linspace(0.05, 3.0, 60), edges])
    # (a, c) of the two 2F1(a, 1/2; c; 1 - x) of a table, and one at a + 1
    for a, c in ((s, 9.0 / 8.0), (s, 17.0 / 8.0), (s + 1.0, 17.0 / 8.0)):
        for x in xs:
            value, mag = hyp2f1_1mx(a, 0.5, c, x)
            with mpmath.workdps(40):
                want = mpmath.hyp2f1(mpmath.mpf(a), 0.5, mpmath.mpf(c), 1 - mpmath.mpf(x))
            assert abs(mpmath.mpf(value) - want) <= 16.0 * EPS * mag, (a, c, x)


def _random_points(n, seed):
    """Both families over alpha (0.5, 1), m0 (0.1, 10), tau (1e-12, 10) and
    eta (1.5, 3), log-uniform in m0 and tau."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        kind = ("semigroup", "anisotropic")[k % 2]
        alpha = rng.uniform(0.5001, 0.9999)
        m0, tau = 10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-12.0, 1.0)
        eta = rng.uniform(1.5, 3.0)
        yield covariance_spec(alpha, m0), mollifier_spec(kind, tau, eta=eta, m0=m0)


def test_tables_within_their_bound_of_40_digit_mpmath_and_the_ray_rule():
    """At 400 seeded points every constant is within its stated error of the
    closed form summed to 40 digits by mpmath, and the 256-node ray rule
    meets it within the sum of both errors."""
    for cov, moll in _random_points(400, 20231018):
        table = counterterm_table(cov, moll)
        exact = mp_closed_form_table(cov.alpha, cov.m0, moll.time_rate, moll.space_rate)
        ray_values, ray_errors = ray_rule_counterterm(cov, moll)
        for (value, error), want, ray, ray_err in zip(
            _values_and_errors(table), exact, ray_values, ray_errors
        ):
            assert abs(mpmath.mpf(value) - want) <= error, (cov, moll)
            assert abs(value - ray) <= error + ray_err, (cov, moll)


@pytest.mark.parametrize("alpha, m0, kind, tau, eta", [
    (0.6, 1.7, "semigroup", 1e-3, 2.0),  # x = 1
    (0.8, 0.4, "anisotropic", 1e-4, 2.5),  # x = 1.6e-7, the connection branch
    (0.35, 1.0, "anisotropic", 1e-8, 3.0),  # x = 1e-16, alpha below 1/2
    (0.7, 2.0, "anisotropic", 5.0, 3.0),  # x = 100, Pfaff
])
def test_monomials_meet_their_quadrature(alpha, m0, kind, tau, eta):
    """The monomial (1, 0, 8), m0^0 (2 pi k1)^8 Q^(-3/2), which no constant
    holds, and every column of the table, each summed by _closed_form, are
    within the stated error of the quadrature oracle, which takes m0 as it
    is and uses no 2F1."""
    moll = mollifier_spec(kind, tau, eta=eta, m0=m0)
    rates = (moll.time_rate, moll.space_rate)
    outside = ((1, 0, 8),),
    for columns, (values, errors) in (
        (outside, _closed_form(alpha, m0, *rates, _beta_terms(outside, 1))),
        (COLUMNS, _closed_form(alpha, m0, *rates)),
    ):
        for column, value, error in zip(columns, values, errors):
            want = sum(mp_monomial(monomial, alpha, m0, *rates) for monomial in column)
            assert abs(mpmath.mpf(value) - want) <= error, column


@pytest.mark.parametrize("alpha", [0.55, 0.7, 0.9])
def test_small_x_corrections_have_the_connection_exponents(alpha):
    """With c_i(0) = C_i tau^((2 alpha - 2)/8) at m0 = 1, the ray-rule oracle
    gives |c_i(x) - c_i(0)| ~ x^kappa_i with kappa = ((2 alpha + 3)/8,
    (2 alpha + 3)/8, 1): the exponents c - a - b of DLMF 15.8.4.  Each
    defect is at least 1e3 times the oracle's error."""
    tau = 1e-2
    limits = [c * tau ** ((2.0 * alpha - 2.0) / 8.0)
              for c, _err in C_constants_with_errors(alpha, "anisotropic")]
    kappas = ((2.0 * alpha + 3.0) / 8.0, (2.0 * alpha + 3.0) / 8.0, 1.0)
    xs = np.geomspace(1e-7, 1e-5, 3)
    defects = []
    for x in xs:
        moll = mollifier_spec("anisotropic", tau, eta=1.0 + math.log(x) / math.log(tau))
        values, errors = ray_rule_counterterm(covariance_spec(alpha), moll)
        for value, limit, error in zip(values, limits, errors):
            assert abs(value - limit) >= 1e3 * error
        defects.append([value - limit for value, limit in zip(values, limits)])
    for i, kappa in enumerate(kappas):
        assert fit_log_slope(xs, [row[i] for row in defects]) == pytest.approx(kappa, abs=5e-3)


@pytest.mark.parametrize("tau, eta, m0", [
    (1e-12, 3.0, 0.1),  # x = 1e-26
    (1e-12, 1.5, 1.0),  # x = 1e-6
    (2.0, 3.0, 1.0),  # x = 4
    (10.0, 3.0, 10.0),  # x = 1e4
    (1e50, 3.0, 1.0),  # x = 1e100
])
def test_tables_stay_finite_as_x_leaves_one(tau, eta, m0):
    """x -> 0+ and x >> 1 give finite tables, within their bound of mpmath."""
    cov, moll = covariance_spec(0.6, m0), mollifier_spec("anisotropic", tau, eta=eta, m0=m0)
    table = counterterm_table(cov, moll)
    exact = mp_closed_form_table(0.6, m0, moll.time_rate, moll.space_rate)
    for (value, error), want in zip(_values_and_errors(table), exact):
        assert math.isfinite(value) and math.isfinite(error)
        assert abs(mpmath.mpf(value) - want) <= error


@pytest.mark.parametrize("kind", ["semigroup", "anisotropic"])
def test_a_wrapped_paper_evaluator_gives_the_identical_table(kind):
    """A dataclasses.replace copy with a counting wrapper, as a tracer makes,
    passes the guard and gives the same table to the bit."""
    cov = covariance_spec(0.65, 1.4)
    moll = mollifier_spec(kind, 1e-5, eta=2.5, m0=1.4)
    calls = []

    def counting(k0, k1):
        calls.append(np.size(k0))
        return cov.evaluator(k0, k1)

    traced = counterterm_table(dataclasses.replace(cov, evaluator=counting), moll)
    assert traced == counterterm_table(cov, moll)
    assert calls


def _twice_the_paper(alpha, m0):
    paper = covariance_spec(alpha, m0)
    return CovarianceSpec(alpha, m0, lambda k0, k1: 2.0 * paper.evaluator(k0, k1))


def _shifted_paper(alpha, m0):
    """(1 + Q)^(-(2 alpha - 1)/8): even, but not homogeneous."""
    power = -(2.0 * alpha - 1.0) / 8.0
    return CovarianceSpec(alpha, m0, lambda k0, k1: (
        1.0 + (2 * math.pi * k0) ** 2 + m0**2 * (2 * math.pi * k1) ** 8) ** power)


@pytest.mark.parametrize("make", [_twice_the_paper, _shifted_paper])
def test_a_covariance_other_than_the_papers_is_refused(make, capsys, monkeypatch):
    with pytest.raises(ConfigError, match="paper's"):
        counterterm_table(make(0.6, 1.2), mollifier_spec("semigroup", 1e-3, m0=1.2))
    monkeypatch.setattr("tfrenorm.constants.covariance_spec", make)
    code = main(["counterterm", "--alpha", "0.6", "--m0", "1.2", "--tau", "1e-3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "paper's" in captured.err


def test_constants_module_loads_neither_scipy_nor_mpmath():
    probe = ("import sys, tfrenorm.constants; "
             "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'}))")
    proc = run_python(["-c", probe], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
