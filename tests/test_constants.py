"""Counterterm quadrature against closed forms, scaling laws and guards."""

import csv
import io
import itertools
import json
import math
from importlib import resources

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    _LOG_TAIL,
    CLOSED_FORMS,
    c2_imaginary_residue,
    mp_counterterm,
    mp_universal,
    quad_counterterm,
    quad_universal,
    ray_rate,
)
from tfrenorm.cli import main
from tfrenorm.constants import (
    C1_INDEX,
    C2_INDEX,
    C3_INDEX,
    C_constants_with_errors,
    CountertermTable,
    CovarianceSpec,
    counterterm_h,
    counterterm_table,
    covariance_spec,
    mollifier_spec,
    scaling_exponents,
    table_to_json,
    tfe_leading_form,
)
from tfrenorm.errors import ConfigError, NumericError
from tfrenorm.indices import ModelParams, e, f, g
from tfrenorm.kernel import TWO_PI
from tfrenorm.mc import fit_log_slope

C_INDICES = (C1_INDEX, C2_INDEX, C3_INDEX)


# ---------------------------------------------------------------------------
# universal constants against the closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["semigroup", "anisotropic"])
@pytest.mark.parametrize("alpha", [0.5, 0.55, 0.75, 0.95])
def test_universal_constants_match_closed_forms(kind, alpha):
    values = [value for value, _err in C_constants_with_errors(alpha, kind)]
    for which, got in zip((1, 2, 3), values):
        want = CLOSED_FORMS[(kind, which)](alpha)
        if abs(want) < 1e-12:
            # the anisotropic C1 vanishes identically at alpha = 1/2
            assert abs(got) < 1e-10
        else:
            assert got == pytest.approx(want, rel=1e-9)


def test_semigroup_constants_keep_fixed_ratios():
    """C2/C1 = -5/2 and C3/C1 = -15/2 hold at every exponent alpha."""
    for alpha in (0.5, 0.6, 0.85, 0.99):
        (c1_val, _), (c2_val, _), (c3_val, _) = C_constants_with_errors(alpha, "semigroup")
        assert c2_val / c1_val == pytest.approx(-2.5, rel=1e-10)
        assert c3_val / c1_val == pytest.approx(-7.5, rel=1e-10)


def test_anisotropic_combination_at_alpha_half():
    (c1_val, _), (c2_val, _), (c3_val, _) = C_constants_with_errors(0.5, "anisotropic")
    combo = c2_val / 4.0 + c3_val - c1_val / 2.0
    want = -7.0 * math.gamma(9.0 / 8.0) / (8.0 * math.pi)
    assert combo == pytest.approx(want, rel=1e-9)
    assert abs(c1_val) < 1e-10


@pytest.mark.parametrize("kind", ["semigroup", "anisotropic"])
@pytest.mark.parametrize("alpha", [0.5, 0.5001, 0.55, 0.75, 0.95, 0.999])
def test_closed_form_within_its_bound_of_mpmath_and_quad(kind, alpha):
    """The stated rounding bound covers the gap to 40-digit Beta/Gamma values,
    and the 1-D quad oracle agrees within the summed errors."""
    exact = mp_universal(alpha, kind)
    for (value, error), want, (ref, ref_err) in zip(
        C_constants_with_errors(alpha, kind), exact, quad_universal(alpha, kind)
    ):
        assert abs(mpmath.mpf(value) - want) <= error
        assert abs(value - ref) <= error + ref_err


def test_universal_constants_match_stored_fixture():
    doc = json.loads(
        resources.files("tfrenorm.fixtures").joinpath("constants.json").read_text()
    )
    rows = {(row["alpha"], row["mollifier"]): row for row in doc["universal"]}
    assert len(rows) == 8
    row = rows[(0.75, "semigroup")]
    pairs = C_constants_with_errors(0.75, "semigroup")
    for which, (value, error) in zip((1, 2, 3), pairs):
        stored = row[f"C{which}"]
        budget = error + row[f"err{which}"] + 1e-12
        assert abs(value - stored) <= budget


# ---------------------------------------------------------------------------
# finite-tau tables and scaling laws
# ---------------------------------------------------------------------------


def test_finite_tau_semigroup_matches_rescaled_limit():
    """At finite tau the semigroup family obeys the power laws exactly."""
    alpha, m0, tau = 0.55, 1.3, 1e-3
    params = ModelParams(alpha=alpha)
    table = counterterm_table(
        covariance_spec(alpha, m0), mollifier_spec("semigroup", tau, m0=m0)
    )
    limits = [value for value, _err in C_constants_with_errors(alpha, "semigroup")]
    for idx, limit, got in zip(C_INDICES, limits, (table.c1, table.c2, table.c3)):
        tau_exp, m0_exp = scaling_exponents(idx, params, "semigroup")
        assert got == pytest.approx(limit * m0**m0_exp * tau**tau_exp, rel=1e-8)


def _values_and_errors(table):
    return zip((table.c1, table.c2, table.c3), (table.err1, table.err2, table.err3))


# the corners of the benchmark ranges: (alpha, tau, m0, eta)
CORNERS = list(itertools.product((0.52, 0.98), (1e-8, 1e-2), (0.5, 2.0), (2.0, 3.0)))


@pytest.mark.parametrize(
    "kind, alpha, tau, m0, eta",
    [("semigroup", *c) for c in CORNERS if c[3] == 2.0]
    + [("anisotropic", *c) for c in CORNERS],
)
def test_tensor_rule_matches_nested_quad(kind, alpha, tau, m0, eta):
    """The closed-form table and the nested adaptive quad agree within the
    sum of their error estimates at every corner of the benchmark ranges."""
    cov = covariance_spec(alpha, m0)
    moll = mollifier_spec(kind, tau, eta=eta, m0=m0)
    table = counterterm_table(cov, moll)
    for which, (value, error) in zip((1, 2, 3), _values_and_errors(table)):
        ref, ref_err = quad_counterterm(which, cov, moll)
        assert abs(value - ref) <= error + ref_err


@pytest.mark.parametrize("alpha, m0, kind, tau, eta", [
    (0.55, 1.3, "semigroup", 1e-3, 2.0),
    (0.52, 2.0, "anisotropic", 1e-8, 3.0),  # x = 4e-16, the connection branch
])
def test_closed_form_table_within_its_error_of_mpmath(alpha, m0, kind, tau, eta):
    table = counterterm_table(
        covariance_spec(alpha, m0), mollifier_spec(kind, tau, eta=eta, m0=m0)
    )
    exact = mp_counterterm(alpha, m0, kind, tau, eta)
    for (value, error), want in zip(_values_and_errors(table), exact):
        assert abs(value - want) <= error
        assert error <= 1e-9 * abs(want)


@pytest.mark.parametrize("alpha, m0, tau", [
    (0.75, 10.0, 1e-8), (0.5001, 10.0, 1e-2), (0.98, 0.1, 1e-3), (0.999, 2.0, 10.0),
])
def test_semigroup_error_estimate_covers_closed_form(alpha, m0, tau):
    """The stated error bounds the gap to the exact scaling law, also where
    the n and 2n rules agree to the last bits and only rounding is left."""
    params = ModelParams(alpha=alpha)
    table = counterterm_table(
        covariance_spec(alpha, m0), mollifier_spec("semigroup", tau, m0=m0)
    )
    pairs = _values_and_errors(table)
    for which, idx, (value, error) in zip((1, 2, 3), C_INDICES, pairs):
        tau_exp, m0_exp = scaling_exponents(idx, params, "semigroup")
        want = CLOSED_FORMS[("semigroup", which)](alpha) * tau**tau_exp * m0**m0_exp
        assert abs(value - want) <= error + 4e-15 * abs(want)


def test_semigroup_tables_cover_the_exact_scaling_law():
    """At 120 seeded points the stated error of every constant covers its gap
    to C_i tau^((2 alpha - 2)/8) m0^(p_i), evaluated to 40 digits."""
    rng = np.random.default_rng(20230927)
    points = zip(rng.uniform(0.5001, 0.999, 120), 10.0 ** rng.uniform(-1.0, 1.0, 120),
                 10.0 ** rng.uniform(-12.0, 1.0, 120))
    for alpha, m0, tau in points:
        params = ModelParams(alpha=alpha)
        table = counterterm_table(
            covariance_spec(alpha, m0), mollifier_spec("semigroup", tau, m0=m0)
        )
        for idx, big_c, (value, error) in zip(
            C_INDICES, mp_universal(alpha, "semigroup"), _values_and_errors(table)
        ):
            m0_exp = scaling_exponents(idx, params, "semigroup")[1]
            with mpmath.workdps(40):
                tau_exp = (2 * mpmath.mpf(alpha) - 2) / 8
                want = big_c * mpmath.mpf(tau) ** tau_exp * mpmath.mpf(m0) ** m0_exp
                assert abs(mpmath.mpf(value) - want) <= error, (alpha, m0, tau)


def test_tau_slopes_semigroup():
    alpha = 0.75
    params = ModelParams(alpha=alpha)
    cov = covariance_spec(alpha)
    taus = np.geomspace(1e-4, 1e-3, 4)
    tables = [counterterm_table(cov, mollifier_spec("semigroup", t)) for t in taus]
    for name, idx in zip(("c1", "c2", "c3"), C_INDICES):
        slope = fit_log_slope(taus, [getattr(t, name) for t in tables])
        tau_exp, _ = scaling_exponents(idx, params, "semigroup")
        assert tau_exp == (2 * alpha - 2) / 8.0
        assert abs(slope - tau_exp) < 1e-3


def test_tau_slopes_anisotropic_small_tau():
    """With eta = 3 the mollifier remainder is negligible below tau = 1e-5."""
    alpha = 0.55
    cov = covariance_spec(alpha)
    taus = np.geomspace(1e-6, 1e-5, 3)
    tables = [
        counterterm_table(cov, mollifier_spec("anisotropic", t, eta=3.0))
        for t in taus
    ]
    for name in ("c1", "c2", "c3"):
        slope = fit_log_slope(taus, [getattr(t, name) for t in tables])
        assert abs(slope - (2 * alpha - 2) / 8.0) < 5e-4


def test_anisotropic_remainder_exponent_is_stable():
    """The relative remainder of c1 behaves like K tau^g with constant K.

    g = (eta - 1)(3 + 2 alpha)/8 comes from the overlap region where the
    time frequency dominates the parabolic scale; fitting K at taus spread
    over two decades must give the same value if the exponent is right.
    """
    alpha, eta = 0.55, 3.0
    cov = covariance_spec(alpha)
    limit = C_constants_with_errors(alpha, "anisotropic")[0][0]
    s0 = (2 * alpha - 2) / 8.0
    g_exp = (eta - 1.0) * (3.0 + 2.0 * alpha) / 8.0
    fitted = []
    for tau in (1e-6, 1e-5, 1e-4):
        table = counterterm_table(cov, mollifier_spec("anisotropic", tau, eta=eta))
        rel = table.c1 / (limit * tau**s0) - 1.0
        fitted.append(rel / tau**g_exp)
    assert max(fitted) / min(fitted) < 1.01
    assert abs(fitted[-1] * 1e-4**g_exp) < 2e-3  # remainder itself is tiny


@pytest.mark.parametrize("alpha", [0.55, 0.7, 0.9])
@pytest.mark.parametrize("first, second", [
    ((3.0, 1e-4, 1.0), (2.0, 1e-8, 1.0)),  # (eta, tau, m0), x = 1e-8
    ((2.0, 4e-4, 0.5), (2.0, 1e-4, 1.0)),  # x = 1e-4
])
def test_anisotropic_tables_collapse_on_x(alpha, first, second):
    """delta_i = c_i / (C_i tau^((2 alpha - 2)/8) m0^(p_i)) - 1 depends only on
    alpha and x = m0^2 time_rate / space_rate = m0^2 tau^(eta - 1).

    Writing 2 pi k1 = tau^(-1/8) b and 2 pi k0 = m0 tau^(-1/2) a turns the
    mollifier into exp(-x a^2 - b^8) and Q into m0^2 (a^2 + b^8) / tau, so
    the rest of each integrand gives exact powers of tau and m0.  Two
    tables with equal x agree within their summed relative errors.
    """
    params = ModelParams(alpha=alpha)
    deltas = []
    for eta, tau, m0 in (first, second):
        table = counterterm_table(
            covariance_spec(alpha, m0), mollifier_spec("anisotropic", tau, eta=eta, m0=m0)
        )
        row = []
        for idx, (big_c, _), (value, error) in zip(
            C_INDICES, C_constants_with_errors(alpha, "anisotropic"), _values_and_errors(table)
        ):
            tau_exp, m0_exp = scaling_exponents(idx, params, "anisotropic")
            scale = big_c * tau**tau_exp * m0**m0_exp
            row.append((value / scale - 1.0, error / abs(scale)))
        deltas.append(row)
    for (delta_a, err_a), (delta_b, err_b) in zip(*deltas):
        assert abs(delta_a - delta_b) <= err_a + err_b


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["semigroup", "anisotropic"]),
    st.floats(1e-10, 1.0), st.floats(1.5, 3.5), st.floats(0.1, 10.0),
    st.floats(0.0, 1.0), st.floats(0.0, 1.0),
)
def test_symbol_on_the_substituted_ray_is_the_envelope(kind, tau, eta, m0, u, depth):
    """On the ray 2 pi k0 = r^4 sqrt(1 - u^8), 2 pi k1 = r u the squared symbol
    is exp(-rate(u) r^8), with rate(u) the envelope of the ray-rule oracle."""
    moll = mollifier_spec(kind, tau, eta=eta, m0=m0)
    root = math.sqrt(1.0 - u**8)
    rate = ray_rate(moll, u, root)
    r = (depth * _LOG_TAIL / rate) ** 0.125  # exp(-rate r^8) down to the tail cut
    got = moll.squared_symbol(r**4 * root / TWO_PI, r * u / TWO_PI)
    assert got == pytest.approx(math.exp(-rate * r**8), rel=1e-12)


def test_m0_slopes_semigroup():
    alpha, tau = 0.75, 1e-3
    params = ModelParams(alpha=alpha)
    m0s = np.geomspace(0.5, 2.0, 4)
    tables = [
        counterterm_table(
            covariance_spec(alpha, m0), mollifier_spec("semigroup", tau, m0=m0)
        )
        for m0 in m0s
    ]
    expected = (-1.25, -0.25, -2.25)
    for name, idx, want in zip(("c1", "c2", "c3"), C_INDICES, expected):
        slope = fit_log_slope(m0s, [getattr(t, name) for t in tables])
        _, m0_exp = scaling_exponents(idx, params, "semigroup")
        assert m0_exp == want
        assert abs(slope - want) < 1e-3


def test_m0_slopes_anisotropic():
    alpha, tau, eta = 0.55, 1e-5, 3.0
    params = ModelParams(alpha=alpha)
    moll = mollifier_spec("anisotropic", tau, eta=eta)
    m0s = np.geomspace(0.7, 1.4, 3)
    tables = [
        counterterm_table(covariance_spec(alpha, m0), moll) for m0 in m0s
    ]
    for name, idx in zip(("c1", "c2", "c3"), C_INDICES):
        slope = fit_log_slope(m0s, [getattr(t, name) for t in tables])
        _, m0_exp = scaling_exponents(idx, params, "anisotropic")
        assert abs(slope - m0_exp) < 1e-3


def test_scaling_exponents_contract():
    params = ModelParams(alpha=0.6)
    for idx in C_INDICES:
        tau_exp, m0_exp = scaling_exponents(idx, params, "anisotropic")
        assert tau_exp == pytest.approx((2 * 0.6 - 2) / 8.0)
        assert m0_exp is not None
    # a constant-carrying index beyond the three tabulated ones: tau
    # exponent still defined, m0 exponent unknown
    tau_exp, m0_exp = scaling_exponents(f(0) + f(2), params, "semigroup")
    assert tau_exp == pytest.approx((2 * 0.6 - 2) / 8.0)
    assert m0_exp is None
    with pytest.raises(ConfigError):
        scaling_exponents(e(1), params)  # population identity fails
    with pytest.raises(ConfigError):
        scaling_exponents(f(0) + f(2) + g((0, 1)), params)  # not p-free
    with pytest.raises(ConfigError):
        scaling_exponents(C1_INDEX, params, "box")


def test_fit_log_slope_recovers_exact_powers():
    xs = [1.0, 2.0, 4.0, 8.0]
    assert fit_log_slope(xs, [3.0 * x**1.7 for x in xs]) == pytest.approx(1.7)
    assert fit_log_slope(xs, [-2.0 * x**-0.3 for x in xs]) == pytest.approx(-0.3)
    with pytest.raises(ConfigError):
        fit_log_slope([1.0], [2.0])
    with pytest.raises(ConfigError):
        fit_log_slope([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ConfigError):
        fit_log_slope([1.0, 2.0], [1.0, 0.0])


# ---------------------------------------------------------------------------
# the counterterm functional and the thin-film leading form
# ---------------------------------------------------------------------------


def _dummy_table(c1, c2, c3):
    return CountertermTable(
        c1=c1, c2=c2, c3=c3, err1=0.0, err2=0.0, err3=0.0,
        alpha=0.6, m0=1.0, tau=1e-3, mollifier="semigroup",
    )


def test_counterterm_h_quadratic_form():
    table = _dummy_table(2.0, -3.0, 0.5)
    assert counterterm_h(0.4, 1.2, 0.0, 0.0, table) == 0.0
    # mobility M(u) = u^2: a = 1 - M, b = sqrt(M)
    for u in (0.3, 1.7):
        m_val, m_prime = u**2, 2 * u
        got = counterterm_h(
            1 - m_val, -m_prime, math.sqrt(m_val),
            m_prime / (2 * math.sqrt(m_val)), table,
        )
        want = (
            -table.c1 / 2.0 + table.c2 / (4.0 * m_val) + table.c3 * m_val
        ) * m_prime**2
        assert got == pytest.approx(want, rel=1e-12)


def test_tfe_leading_form_universal_path():
    lead = tfe_leading_form(2, 0.5)
    want = -7.0 * math.gamma(9.0 / 8.0) / (8.0 * math.pi)
    assert lead.coefficient == pytest.approx(want, rel=1e-9)
    assert lead.u_exponent == 0.0
    assert lead.density_exponent == -1.0
    assert lead.tau_exponent == pytest.approx(-1.0 / 8.0)
    assert lead.power_prefactor == pytest.approx(4.0 * lead.coefficient)
    assert lead.form == "d_x( M'(u)^2 / M(u)^{(2 alpha + 3)/4} d_x u )"


def test_tfe_leading_form_from_table():
    alpha, tau = 0.55, 1e-5
    table = counterterm_table(
        covariance_spec(alpha), mollifier_spec("anisotropic", tau, eta=3.0)
    )
    from_table = tfe_leading_form(3, alpha, table=table)
    universal = tfe_leading_form(3, alpha)
    assert from_table.coefficient == pytest.approx(
        universal.coefficient, rel=1e-4
    )
    assert from_table.u_exponent == 1.0
    sg_table = _dummy_table(1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        tfe_leading_form(2, 0.6, table=sg_table)
    aniso = CountertermTable(
        c1=1.0, c2=1.0, c3=1.0, err1=0.0, err2=0.0, err3=0.0,
        alpha=0.55, m0=1.0, tau=1e-4, mollifier="anisotropic", eta=2.0,
    )
    with pytest.raises(ConfigError):
        tfe_leading_form(2, 0.6, table=aniso)  # alpha mismatch
    off_unit = CountertermTable(
        c1=1.0, c2=1.0, c3=1.0, err1=0.0, err2=0.0, err3=0.0,
        alpha=0.55, m0=2.0, tau=1e-4, mollifier="anisotropic", eta=2.0,
    )
    with pytest.raises(ConfigError):
        tfe_leading_form(2, 0.55, table=off_unit)


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


def test_spec_validation_errors():
    with pytest.raises(ConfigError):
        covariance_spec(0.5)  # finite-tau window is open at 1/2
    with pytest.raises(ConfigError):
        covariance_spec(1.0)
    with pytest.raises(ConfigError):
        covariance_spec(0.7, m0=-1.0)
    with pytest.raises(ConfigError):
        mollifier_spec("semigroup", 0.0)
    with pytest.raises(ConfigError):
        mollifier_spec("anisotropic", 1e-3, eta=1.0)
    with pytest.raises(ConfigError):
        mollifier_spec("box", 1e-3)
    with pytest.raises(ConfigError):
        C_constants_with_errors(0.4, "semigroup")
    with pytest.raises(ConfigError):
        C_constants_with_errors(0.7, "box")


def test_semigroup_mollifier_m0_must_match_covariance():
    cov = covariance_spec(0.7, m0=1.2)
    moll = mollifier_spec("semigroup", 1e-3, m0=1.0)
    with pytest.raises(ConfigError):
        counterterm_table(cov, moll)


@pytest.mark.parametrize("evaluator", [
    lambda k0, k1: math.exp(-abs(k0)),  # scalar math on a mesh
    lambda k0, k1: 1.0,  # one number for the whole mesh
    lambda k0, k1: np.ones(3),  # the wrong shape
    None,  # no evaluator at all
])
def test_covariance_evaluators_must_map_arrays(evaluator):
    cov = CovarianceSpec(0.55, 1.0, evaluator)
    with pytest.raises(ConfigError):
        counterterm_table(cov, mollifier_spec("semigroup", 1e-3))


def test_non_finite_covariance_is_a_numeric_error():
    cov = CovarianceSpec(0.55, 1.0, lambda k0, k1: np.full_like(k0, np.nan))
    with pytest.raises(NumericError):
        counterterm_table(cov, mollifier_spec("semigroup", 1e-3))


def test_eval_c2_rejects_uneven_covariance():
    """A covariance that is not even in the time frequency is refused as not
    the paper's; the ray-rule oracle's parity residue shows the defect."""

    def skew(k0):
        return 1.0 + 0.2 * np.tanh(2 * math.pi * k0)

    def fc(k0, k1):
        q = (2 * math.pi * k0) ** 2 + (2 * math.pi * k1) ** 8
        return q**-0.0125 * skew(k0)

    def dfc(k0, k1):
        q = (2 * math.pi * k0) ** 2 + (2 * math.pi * k1) ** 8
        dq = 16 * math.pi * (2 * math.pi * k1) ** 7
        return -0.0125 * q**-1.0125 * dq * skew(k0)

    cov = CovarianceSpec(0.55, 1.0, fc)
    moll = mollifier_spec("semigroup", 1e-3)
    with pytest.raises(ConfigError, match="paper"):
        counterterm_table(cov, moll)
    c2 = counterterm_table(covariance_spec(0.55), moll).c2
    assert abs(c2_imaginary_residue(cov, moll, dfc)) > 1e-8 * abs(c2)
    assert abs(c2_imaginary_residue(covariance_spec(0.55), moll)) <= 1e-8 * abs(c2)


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def test_table_json_has_the_contract_keys():
    table = _dummy_table(1.0, 2.0, 3.0)
    doc = table_to_json(table)
    assert set(doc) == {
        "alpha", "m0", "tau", "mollifier",
        "c1", "err1", "c2", "err2", "c3", "err3",
    }
    assert doc["mollifier"] == "semigroup"
    assert doc["c2"] == 2.0


def test_sweep_csv_round_trips(capsys):
    # the sweep CSV holds the JSON tables: values to 13 digits, errors to 4
    argv = ["counterterm", "--alpha", "0.6", "--tau", "1e-3,1e-4", "--m0", "1,2"]
    assert main(argv) == 0
    tables = json.loads(capsys.readouterr().out)["tables"]
    assert main([*argv, "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == len(tables) == 4
    assert list(rows[0]) == ["alpha", "tau", "m0", "mollifier",
                             "c1", "err1", "c2", "err2", "c3", "err3"]
    for row, table in zip(rows, tables):
        assert row["mollifier"] == table["mollifier"] == "semigroup"
        for key in ("alpha", "tau", "m0"):
            assert float(row[key]) == table[key]
        for key, digits in (("c1", 12), ("c2", 12), ("c3", 12),
                            ("err1", 3), ("err2", 3), ("err3", 3)):
            assert row[key] == f"{table[key]:.{digits}e}"
