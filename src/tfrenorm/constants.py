"""Renormalisation constants: closed forms, scaling laws, counterterm.

Three constants are nonzero below the criticality window: the columns at
e1+f0+f1, 2f1 and 2e1+2f0 of the constant vector.  Each is a frequency
integral of kernel factors against the paper's covariance FC = Q^(-eps/8),
eps = 2 alpha - 1, Q = (2 pi k0)^2 + m0^2 (2 pi k1)^8, times the squared
mollifier exp(-time_rate (2 pi k0)^2 - space_rate (2 pi k1)^8).  This
module gives them at finite rates (counterterm_table), their m0- and
tau-free limits C1, C2, C3, the scaling exponents in tau and m0, and the
counterterm h with its leading thin-film form, all in closed form.

It also holds the operator symbols of L and LL* with Q = symbol_LLstar,
and TWO_PI and check_m0: the kernel layer imports them from here.  This
module uses math alone, so the tables load no numpy; the symbols take
numbers or numpy arrays alike.

The monomial table.  COLUMNS writes c1, c2, c3 as integrals over R^2 of
monomials (w, b, a), each w m0^b (2 pi k1)^a Q^(-(a + 4)/8) FC |Fphi|^2;
c2's kernel, m0 (2 pi k1)^5 / Q times d_k1 (FC |Fphi|^2), gives its two
after one integration by parts in k1.  Rescaling 2 pi m0^(1/4) k1 leaves
m0^((4 b - a - 1)/4), one power per column, times the m0 = 1 table at
tau' = space_rate / m0^2 and x = m0^2 time_rate / space_rate: x = 1 for
the semigroup family, m0^2 tau^(eta - 1) for the anisotropic one.

The Euler integral.  At m0 = 1, 2 pi k0 = r^4 sqrt(1 - u^8), 2 pi k1 = r u
maps the quadrant (four times, the integrands being even) to (0, inf) x
(0, 1) with Q = r^8 and weight 16 / (2 pi)^2 r^4 (1 - u^8)^(-1/2).  A
monomial becomes w u^a r^-eps exp(-rate r^8), rate = tau' (u^8 + x (1 -
u^8)), whose r-integral is Gamma(s) / (8 rate^s), s = (1 - eps)/8, and
whose u-integral is Euler's (DLMF 15.6.1, v = u^8), one 2F1 per a:

    int_0^1 u^a rate^-s (1 - u^8)^(-1/2) du
        = B((a + 1)/8, 1/2) / 8 * 2F1(s, 1/2; (a + 5)/8; 1 - x) tau'^-s.

At x = 1 every 2F1 is 1; as x -> 0, B((a + 1)/8, 1/2) 2F1 -> B((a + eps)/8,
1/2) (DLMF 15.4.20) and tau'^-s adds m0^(2 s).  So the limits C1, C2, C3
are the sums at x = 1 with B((a + sigma)/8, 1/2), and every m0 power is
(4 b - a - sigma)/4, sigma = eps in the anisotropic limit and 1 elsewhere.

The three branches.  hyp2f1_1mx takes x itself: forming 1 - x would lose
every digit of an x below 1e-16, and the anisotropic family reaches 1e-26.

* 1/2 <= x <= 3/2: the Gauss series in 1 - x, which is exact there;
* x < 1/2: the connection formula DLMF 15.8.4, two Gauss series in x;
  c - a - b is (a + eps)/8 (s - 1/2 after Pfaff), never an integer at
  a = 4 or 12 for alpha in (1/4, 1), so no logarithmic case arises;
* x > 3/2: Pfaff, DLMF 15.8.1, x^-b 2F1(c - a, b; c; 1 - 1/x), then one
  of the two above.

The measured bound.  c1 cancels near alpha = 1/2, so err_i is 16 eps of
the sum of |terms| of c_i, as hyp2f1_1mx counts them.  Against 40-digit
mpmath at 3000 seeded tables (both families, alpha 0.5-1, m0 0.1-10, tau
1e-12-10, eta 1.5-3) the gap was at most 5.3 eps of that sum (3.3 for
c2), and 5.3 for the 2F1 alone, x 1e-40-1e40.
"""

import math
import sys
from dataclasses import dataclass

from .errors import ConfigError, NumericError
from .indices import e, f, homogeneity, is_c_populated

TWO_PI = 2.0 * math.pi

# constant vector columns carrying the three nonzero entries
C1_INDEX = e(1) + f(0) + f(1)
C2_INDEX = 2 * f(1)
C3_INDEX = 2 * e(1) + 2 * f(0)


# ---------------------------------------------------------------------------
# operator symbols
# ---------------------------------------------------------------------------


def check_m0(m0):
    """m0 as a float; a ConfigError unless it is positive with a finite
    square.  Checked where m0 enters (the covariance and mollifier specs,
    kernel_checks) and by the symbols of L and LL*, so every mesh function
    that calls them refuses a NaN, infinite or huge m0 too."""
    m0 = float(m0)
    if not (m0 > 0 and math.isfinite(m0 * m0)):
        raise ConfigError(f"m0 must be positive with a finite square, got {m0}")
    return m0


def symbol_LLstar(k, m0):
    """Symbol of -d_0^2 + m0^2 Delta^4 at frequency k = (k0, k1, ..., kd),
    whose entries are numbers or numpy arrays that broadcast together."""
    check_m0(m0)
    lap = sum([(TWO_PI * ki) ** 2 for ki in k[1:]])
    return (TWO_PI * k[0]) ** 2 + m0**2 * lap**4


def symbol_L(k, m0):
    """Symbol of d_0 + m0 Delta^2; |symbol_L|^2 = symbol_LLstar."""
    check_m0(m0)
    lap = sum([(TWO_PI * ki) ** 2 for ki in k[1:]])
    return TWO_PI * 1j * k[0] + m0 * lap**2


# ---------------------------------------------------------------------------
# input specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceSpec:
    """Spectral density FC of the driving noise.

    evaluator maps (k0, k1) to FC(k) >= 0, even in both arguments.  The
    finite-tau tables are closed forms of the paper's FC alone, so
    counterterm_table reads the evaluator at four float frequencies and
    refuses it if it differs from that FC there.  The noise sampler
    evaluates whole meshes: there the evaluator must take numpy arrays
    k0, k1 that broadcast together and return an array of their shape,
    and NoiseSampler refuses one that does not.
    """

    alpha: float
    m0: float
    evaluator: object


def covariance_spec(alpha, m0=1.0):
    """The paper's covariance FC = Q(k)^{-(2 alpha - 1)/8}, where
    Q = (2 pi k0)^2 + m0^2 (2 pi k1)^8 is the symbol of LL*."""
    alpha = float(alpha)
    m0 = check_m0(m0)
    if not 0.5 < alpha < 1.0:
        raise ConfigError(f"covariance exponent needs alpha in (1/2, 1), got {alpha}")
    power = -(2.0 * alpha - 1.0) / 8.0

    def evaluator(k0, k1):
        return symbol_LLstar((k0, k1), m0) ** power

    return CovarianceSpec(alpha, m0, evaluator)


@dataclass(frozen=True)
class MollifierSpec:
    """Squared Fourier symbol of the mollifier, given by two rates:

        |Fphi_tau|^2 = exp(-time_rate (2 pi k0)^2 - space_rate (2 pi k1)^8).

    semigroup:   (time_rate, space_rate) = (tau, tau m0^2), so that
                 |Fphi_tau|^2 = exp(-tau Q) is the kernel semigroup at
                 time tau/2 applied twice;
    anisotropic: (tau^eta, tau) with eta > 1, mollifying space on scale
                 tau^{1/8} but time much less.

    kind, tau, eta and m0 record the family and the parameters the rates
    came from.
    """

    kind: str
    tau: float
    eta: object
    m0: float
    time_rate: float
    space_rate: float

    def squared_symbol(self, k0, k1):
        # np.exp keeps the symbol usable on whole frequency meshes; only
        # the noise sampler calls it, and it has numpy loaded already
        import numpy as np

        return np.exp(
            -self.time_rate * (TWO_PI * k0) ** 2 - self.space_rate * (TWO_PI * k1) ** 8
        )


def mollifier_spec(kind, tau, eta=2.0, m0=1.0):
    """The mollifier of the family kind at scale tau (MollifierSpec).  A
    rate that overflows the float range (tau^eta or tau m0^2) is a
    ConfigError."""
    tau = float(tau)
    m0 = check_m0(m0)
    if tau <= 0:
        raise ConfigError(f"mollifier scale tau must be positive, got {tau}")
    if kind == "semigroup":
        eta, time_rate, space_rate = None, tau, tau * m0 * m0
    elif kind == "anisotropic":
        eta = float(eta)
        if eta <= 1:
            raise ConfigError(f"anisotropic mollifier needs eta > 1, got {eta}")
        try:
            time_rate = tau**eta
        except OverflowError:
            time_rate = math.inf
        space_rate = tau
    else:
        raise ConfigError(f"unknown mollifier kind {kind!r}")
    if not (time_rate < math.inf and space_rate < math.inf):
        raise ConfigError(f"mollifier rates must be finite, got {time_rate} and {space_rate} "
                          f"(tau={tau}, eta={eta})")
    return MollifierSpec(kind, tau, eta, m0, time_rate, space_rate)


def check_semigroup_m0(cov, moll):
    """A semigroup mollifier is exp(-tau Q) with the operator's own m0, so
    it must have been built for the covariance's m0."""
    if moll.kind == "semigroup" and abs(moll.m0 - cov.m0) > 1e-12 * cov.m0:
        raise ConfigError(f"semigroup mollifier was built for m0={moll.m0}, "
                          f"covariance has m0={cov.m0}")


# ---------------------------------------------------------------------------
# the finite-tau tables in closed form
# ---------------------------------------------------------------------------

_EPS = sys.float_info.epsilon
# each err_i is this many eps of the sum of |terms| of c_i (module docstring)
_ROUNDING = 16.0
# c1, c2, c3 as monomials (w, b, a) (module docstring)
COLUMNS = (
    ((4, 2, 12), (-2, 0, 4)),
    ((-5, 1, 4), (8, 3, 12)),
    ((-3, 1, 12),),
)
# frequencies (k0, k1) at which an evaluator must give the paper's FC: Q
# from 0.1 to 5e6, so that a shift of Q or a wrong degree shows; the time
# and space parts of Q are kept at m0 = 1, and k0 = 0 at none of them
_PROBE_K = ((0.3, 0.0), (0.01, 0.45), (1.7, -1.1), (-0.05, 0.02))
_PROBE_Q = [((TWO_PI * k0) ** 2, (TWO_PI * k1) ** 8) for k0, k1 in _PROBE_K]


def _gauss_series(a, b, c, z):
    """(value, sum of |terms|) of the Gauss series of 2F1(a, b; c; z) for
    |z| <= 1/2, summed until a term is below eps/4 of that sum."""
    term = value = mag = 1.0
    n = 0.0
    while abs(term) > 0.25 * _EPS * mag:
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        value += term
        mag += abs(term)
        n += 1.0
    return value, mag


def hyp2f1_1mx(a, b, c, x):
    """(2F1(a, b; c; 1 - x), its magnitude) for 0 < x < inf, by the branch
    of the module docstring that x selects.  The magnitude sums |terms|;
    a power x^(c - a - b) counts 1 + |ln x| times, because its exponent is
    rounded and x^e moves by |ln x| per unit change of e."""
    if x > 1.5:
        value, mag = hyp2f1_1mx(c - a, b, c, 1.0 / x)
        return x**-b * value, x**-b * mag
    if x >= 0.5:
        return _gauss_series(a, b, c, 1.0 - x)
    gamma = math.gamma
    near, near_mag = _gauss_series(a, b, a + b - c + 1.0, x)
    far, far_mag = _gauss_series(c - a, c - b, c - a - b + 1.0, x)
    k_near = gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))
    k_far = gamma(c) * gamma(a + b - c) / (gamma(a) * gamma(b)) * x ** (c - a - b)
    return (k_near * near + k_far * far,
            abs(k_near) * near_mag + abs(k_far) * far_mag * (1.0 - math.log(x)))


def _check_paper_covariance(cov):
    """Refuse an evaluator that is not the paper's FC = Q^(-(2 alpha - 1)/8)
    at cov's (alpha, m0), read at _PROBE_K one float frequency at a time.
    The values are compared, not the function, so a wrapped copy of the
    paper's evaluator passes.  Whether it also maps meshes is the noise
    sampler's check."""
    power, msq = -(2.0 * cov.alpha - 1.0) / 8.0, cov.m0 * cov.m0
    want = [(q0 + msq * q1) ** power for q0, q1 in _PROBE_Q]
    try:  # one number per frequency
        got = [float(cov.evaluator(k0, k1)) for k0, k1 in _PROBE_K]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"covariance evaluators must map frequencies to numbers: {exc}") from None
    if not all(map(math.isfinite, got)):
        raise NumericError(f"covariance evaluator gave non-finite values {got}")
    gap = max(abs(g / w - 1.0) for g, w in zip(got, want))
    if not gap <= 1e-12:
        raise ConfigError(
            f"the finite-tau tables need the paper's parabolically homogeneous covariance "
            f"Q^(-(2 alpha - 1)/8); the evaluator is off it by {gap:.2e} relative"
        )


@dataclass(frozen=True)
class CountertermTable:
    """The three nonzero constants with their evaluation metadata."""

    c1: float
    c2: float
    c3: float
    err1: float
    err2: float
    err3: float
    alpha: float
    m0: float
    tau: float
    mollifier: str
    eta: object = None


def _m0_power(column, sigma):
    """The m0 power (4 b - a - sigma)/4 of a column, 4 b - a in ints."""
    _w, b, a = column[0]
    return (4 * b - a - sigma) / 4


def _beta_terms(columns, sigma):
    """Columns of monomials (w, b, a) as (the powers a, and per column
    (m0 power, ((a, w B, |w| B), ...))), B = B((a + sigma)/8, 1/2) / 8."""
    powers = tuple(sorted({a for col in columns for _w, _b, a in col}))
    beta = {a: math.gamma(0.5) * math.gamma((a + sigma) / 8)
            / (8.0 * math.gamma((a + sigma) / 8 + 0.5)) for a in powers}
    return powers, tuple(
        (_m0_power(col, sigma), tuple((a, w * beta[a], abs(w) * beta[a]) for w, _b, a in col))
        for col in columns)


_TERMS = _beta_terms(COLUMNS, 1)  # worked out once; also the semigroup limit's


def _closed_form(alpha, m0, time_rate, space_rate, terms=_TERMS):
    """([c_i], [err_i]) of the columns that terms hold, by the module
    docstring; terms are _beta_terms(columns, 1) for a table."""
    tau_p = space_rate / (m0 * m0)
    x = time_rate / tau_p
    s = (2.0 - 2.0 * alpha) / 8.0  # exact for alpha in [1/2, 1)
    hyp = {a: hyp2f1_1mx(s, 0.5, (a + 5) / 8, x) for a in terms[0]}
    # 16 / (2 pi)^2 times the radial factor Gamma(s) / 8 tau'^-s
    radial = 2.0 * math.gamma(s) * tau_p**-s / (TWO_PI * TWO_PI)
    values, errors = [], []
    for power, monomials in terms[1]:
        value = mag = 0.0
        for a, w_beta, abs_w_beta in monomials:
            value += w_beta * hyp[a][0]
            mag += abs_w_beta * hyp[a][1]
        scale = radial * m0**power
        values.append(scale * value)
        errors.append(_ROUNDING * _EPS * abs(scale) * mag)
    return values, errors


def counterterm_table(cov, moll):
    """The three constants of the paper's covariance under a mollifier,
    with rounding bounds, in the closed form of the module docstring."""
    check_semigroup_m0(cov, moll)
    # (1/4, 1) is the subcritical range at d = 1; s = (2 - 2 alpha)/8 > 0
    # makes the r-integral converge at r = 0
    if not 0.25 < cov.alpha < 1.0:
        raise ConfigError(f"finite-tau tables need 1/4 < alpha < 1, got {cov.alpha}")
    if not all(0.0 < rate < math.inf for rate in (moll.time_rate, moll.space_rate)):
        raise ConfigError(f"mollifier rates must be positive and finite, got {moll.time_rate} "
                          f"and {moll.space_rate} (tau={moll.tau}, eta={moll.eta})")
    _check_paper_covariance(cov)
    try:
        values, errors = _closed_form(cov.alpha, cov.m0, moll.time_rate, moll.space_rate)
    except (ArithmeticError, ValueError):  # a rate ratio or power out of float range
        values = errors = [math.nan]
    if not all(math.isfinite(v) for v in values + errors):
        raise NumericError(f"the table leaves the float range (alpha={cov.alpha}, "
                           f"m0={cov.m0}, tau={moll.tau}, {moll.kind}, eta={moll.eta})")
    return CountertermTable(*values, *errors, cov.alpha, cov.m0, moll.tau, moll.kind, moll.eta)


def table_to_json(table):
    """CLI-facing JSON document for one table."""
    keys = ("alpha", "m0", "tau", "mollifier", "c1", "c2", "c3", "err1", "err2", "err3")
    return {key: getattr(table, key) for key in keys}


# ---------------------------------------------------------------------------
# universal limit constants and scaling laws
# ---------------------------------------------------------------------------


def _sigma(alpha, mollifier_kind):
    """The sigma of the module docstring's m0 rule and limits: 1 for the
    semigroup family, eps = 2 alpha - 1 for the anisotropic one."""
    if mollifier_kind not in ("semigroup", "anisotropic"):
        raise ConfigError(f"unknown mollifier kind {mollifier_kind!r}")
    return 1.0 if mollifier_kind == "semigroup" else 2.0 * alpha - 1.0


def C_constants_with_errors(alpha, mollifier_kind):
    """((C1, err1), (C2, err2), (C3, err3)): the tables at m0 = tau' = 1 in
    the limit x = 1 (semigroup) or x -> 0 (anisotropic), m0- and tau-free:
    the monomial sums at x = 1 with the Beta factors at sigma of the module
    docstring.  Each error is 16 eps of the sum of |terms|, as for a table,
    so the anisotropic C1, whose two terms cancel at alpha = 1/2, is zero
    there only to within its error.
    """
    alpha = float(alpha)
    if not 0.5 <= alpha < 1.0:
        raise ConfigError(f"universal constants need alpha in [1/2, 1), got {alpha}")
    sigma = _sigma(alpha, mollifier_kind)
    terms = _TERMS if mollifier_kind == "semigroup" else _beta_terms(COLUMNS, sigma)
    return tuple(zip(*_closed_form(alpha, 1.0, 1.0, 1.0, terms)))


def scaling_exponents(beta_c, params, mollifier_kind="semigroup"):
    """(tau exponent, m0 exponent or None) of the constant at beta_c.

    The tau exponent (|beta| - alpha - 2)/8 comes from the homogeneity
    bound and equals (2 alpha - 2)/8 for the three nonzero constants; the
    m0 exponent is known only for those three (other constants vanish):
    the (4 b - a - sigma)/4 of their column (module docstring).
    """
    alpha = float(params.alpha)
    sigma = _sigma(alpha, mollifier_kind)
    if not is_c_populated(beta_c, params):
        raise ConfigError("scaling exponents need a constant-carrying index")
    tau_exp = (homogeneity(beta_c, params) - alpha - 2.0) / 8.0
    column = dict(zip((C1_INDEX, C2_INDEX, C3_INDEX), COLUMNS)).get(beta_c)
    return tau_exp, None if column is None else _m0_power(column, sigma)


# ---------------------------------------------------------------------------
# the counterterm functional
# ---------------------------------------------------------------------------


def counterterm_h(a, a_prime, b, b_prime, table):
    """Pointwise counterterm c1 a' b b' + c2 (b')^2 + c3 (a')^2 b^2."""
    try:
        return (table.c1 * a_prime * b * b_prime + table.c2 * b_prime**2
                + table.c3 * a_prime**2 * b**2)
    except OverflowError:
        raise NumericError("the counterterm h overflows") from None


@dataclass(frozen=True)
class LeadingCounterterm:
    """Leading thin-film counterterm: coefficient * M^p (M')^2 shape.

    coefficient      -- universal combination C2/4 + C3 - C1/2
    tau_exponent     -- power of tau^{1/8} stripped off, (2 alpha - 2)
    density_exponent -- power p of the mobility M, -(2 alpha + 3)/4
    u_exponent       -- power of u for M(u) = u^m, namely m - 2 at
                        alpha = 1/2 where the density exponent is -1
    power_prefactor  -- coefficient * m^2, multiplying u^{m-2}
    form             -- rendered operator shape
    """

    coefficient: float
    tau_exponent: float
    density_exponent: float
    u_exponent: float
    power_prefactor: float
    form: str


def tfe_leading_form(m, alpha, table=None):
    """Leading counterterm of the thin-film equation with mobility u^m.

    Substituting a = 1 - M, b = M^(1/2) into h and inserting the
    anisotropic scaling laws with local coefficient m0 = M(u) aligns all
    three contributions on M^{-(2 alpha + 3)/4} (M')^2, with the universal
    coefficient C2/4 + C3 - C1/2.  When a finite-tau anisotropic table is
    given the coefficient is estimated from it by stripping the tau power;
    otherwise the universal constants are evaluated directly.
    """
    alpha = float(alpha)
    if table is not None:
        if table.mollifier != "anisotropic":
            raise ConfigError("the leading form applies to the anisotropic mollifier family")
        if abs(table.alpha - alpha) > 1e-12:
            raise ConfigError(f"table was computed at alpha={table.alpha}, asked for {alpha}")
        if abs(table.m0 - 1.0) > 1e-12:
            raise ConfigError("stripping the tau power needs a unit-m0 table; rescale first")
        c1, c2, c3, scale = table.c1, table.c2, table.c3, table.tau ** (-(2.0 * alpha - 2.0) / 8.0)
    else:
        (c1, _), (c2, _), (c3, _) = C_constants_with_errors(alpha, "anisotropic")
        scale = 1.0
    coefficient = (c2 / 4.0 + c3 - c1 / 2.0) * scale
    m = float(m)
    return LeadingCounterterm(
        coefficient=coefficient,
        tau_exponent=(2.0 * alpha - 2.0) / 8.0,
        density_exponent=-(2.0 * alpha + 3.0) / 4.0,
        u_exponent=m - 2.0,
        power_prefactor=coefficient * m * m,
        form="d_x( M'(u)^2 / M(u)^{(2 alpha + 3)/4} d_x u )",
    )
