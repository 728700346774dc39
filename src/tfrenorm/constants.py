"""Renormalisation constants: quadrature, limits, scaling laws, counterterm.

Three constants are nonzero below the criticality window: the columns at
e1+f0+f1, 2f1 and 2e1+2f0 of the constant vector.  Each is a frequency
integral of kernel factors against FF = FC * |Fphi_tau|^2, where FC is the
noise covariance and phi_tau the mollifier.  This module evaluates

* the three integrals at finite (m0, tau) for both mollifier families,
* their universal m0- and tau-free limit constants C1, C2, C3, in closed
  form (Gamma and Beta functions, see C_constants_with_errors),
* the scaling exponents in tau and m0,
* the pointwise counterterm functional h and its leading thin-film form.

The full integrals use the parabolic substitution 2*pi*k0 = r^4
sqrt(1-u^8), 2*pi*k1 = r*u, which maps the positive-frequency quadrant to
(0, inf) x (0, 1), turns the kernel denominator into r^8 * q(u) with
q(u) = 1 - (1 - m0^2) u^8, and leaves the weight (1 - u^8)^(-1/2) in u.
The integrand is even in both frequencies, so the quadrant result is
multiplied by 4.  FC and d_k1 FC are taken to be parabolically
homogeneous, of degrees -eps and -eps - 1 under (k0, k1) -> (lambda^4 k0,
lambda k1), eps = 2 alpha - 1, and the mollifier is exp(-rate(u) r^8)
along u.  So each bracket is r^-eps (A(u) + B(u) r^8) exp(-rate(u) r^8),
with B from the mollifier gradient in c2 only and A, B read from the
evaluators at r = 1, and its r-integral is closed form: Gamma(s) / (8
rate^s) with s = (1 - eps)/8, times s / rate for the r^8 part.  The
evaluators are read again at r = 1/2, and a covariance that misses its
scaling there by more than 1e-12 of its largest value is refused; the
paper's missed by at most 6e-16 at 2000 seeded (alpha, m0) points.

Only the u-integral needs a rule, on numpy arrays, so covariance
evaluators take arrays: u = 1 - s^2 cancels the endpoint singularity and
Gauss-Legendre in s follows, by Golub-Welsch with the symmetric
eigensolver, whose rules (the bits of LAPACK stevd) integrate smooth test
functions to 21 ulp for n = 64 to 256.  The n-node rule is compared with
the 2n-node rule, from n = 32, doubling up to 256 while a value moves by
more than 1e-9 of itself.  The error estimate is that move plus a
rounding floor of 50 ulp of the integral of |f|: on 4000 seeded
semigroup tables (alpha 0.5001-0.999, m0 0.1-10, tau 1e-12-10) the gap
to the exact scaling law needed at most 17 ulp of it beyond the move.
A table whose error exceeds 1e-3 of a value is refused.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ConsistencyError, NumericError
from .indices import e, f, homogeneity, is_c_populated
from .kernel import TWO_PI, check_m0, symbol_LLstar

_TAIL_CUT = 1e-18
_LOG_TAIL = -math.log(_TAIL_CUT)
# the doubling stops once no value moves by more than this share of itself
_STOP_MOVE = 1e-9

# constant vector columns carrying the three nonzero entries
C1_INDEX = e(1) + f(0) + f(1)
C2_INDEX = 2 * f(1)
C3_INDEX = 2 * e(1) + 2 * f(0)


# ---------------------------------------------------------------------------
# input specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceSpec:
    """Spectral density FC of the driving noise.

    evaluator maps (k0, k1) to FC(k) >= 0, even in both arguments;
    d_evaluator is its analytic k1-derivative, needed for the c2 integral.
    Both take numpy arrays k0, k1 of one shape and return an array of that
    shape: the quadrature and the noise sampler evaluate whole meshes.
    """

    alpha: float
    m0: float
    evaluator: object
    d_evaluator: object = None


def covariance_spec(alpha, m0=1.0):
    """The paper's covariance FC = Q(k)^{-(2 alpha - 1)/8}, where
    Q = (2 pi k0)^2 + m0^2 (2 pi k1)^8 is the symbol of LL*."""
    alpha = float(alpha)
    m0 = check_m0(m0)
    if not 0.5 < alpha < 1.0:
        raise ConfigError(f"covariance exponent needs alpha in (1/2, 1), got {alpha}")
    power = -(2.0 * alpha - 1.0) / 8.0
    msq = m0 * m0

    def evaluator(k0, k1):
        return symbol_LLstar((k0, k1), m0) ** power

    def d_evaluator(k0, k1):
        q_val = symbol_LLstar((k0, k1), m0)
        grad = 16.0 * math.pi * msq * (TWO_PI * k1) ** 7
        return q_val**power * (power * grad / q_val)

    return CovarianceSpec(alpha, m0, evaluator, d_evaluator)


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
        # np.exp keeps the symbol usable on whole frequency meshes
        return np.exp(
            -self.time_rate * (TWO_PI * k0) ** 2 - self.space_rate * (TWO_PI * k1) ** 8
        )

    def dlog_dk1(self, k0, k1):
        """The analytic k1-derivative of log squared_symbol."""
        return -16.0 * math.pi * self.space_rate * (TWO_PI * k1) ** 7

    def ray_rate(self, u, root):
        """The rate c(u) with squared_symbol = exp(-c(u) r^8) on the ray
        2 pi k0 = r^4 root, 2 pi k1 = r u, where root = sqrt(1 - u^8)."""
        # (u^4)^2 rounds like q(u) in _ray_rule: at m0 = 1 the semigroup
        # rate is tau q(u) to the last bit
        return self.space_rate * (u**4) ** 2 + self.time_rate * root**2


def mollifier_spec(kind, tau, eta=2.0, m0=1.0):
    tau = float(tau)
    m0 = check_m0(m0)
    if tau <= 0:
        raise ConfigError(f"mollifier scale tau must be positive, got {tau}")
    if kind == "semigroup":
        return MollifierSpec(kind, tau, None, m0, tau, tau * m0 * m0)
    if kind == "anisotropic":
        eta = float(eta)
        if eta <= 1:
            raise ConfigError(f"anisotropic mollifier needs eta > 1, got {eta}")
        return MollifierSpec(kind, tau, eta, m0, tau**eta, tau)
    raise ConfigError(f"unknown mollifier kind {kind!r}")


def check_semigroup_m0(cov, moll):
    """A semigroup mollifier is exp(-tau Q) with the operator's own m0, so
    it must have been built for the covariance's m0."""
    if moll.kind == "semigroup" and abs(moll.m0 - cov.m0) > 1e-12 * cov.m0:
        raise ConfigError(
            f"semigroup mollifier was built for m0={moll.m0}, "
            f"covariance has m0={cov.m0}"
        )


# ---------------------------------------------------------------------------
# full integrals at finite (m0, tau)
# ---------------------------------------------------------------------------


def _on_mesh(cov_func, k0, k1):
    """A covariance evaluator's values on the frequency arrays (k0, k1)."""
    try:
        values = np.asarray(cov_func(k0, k1))
    except TypeError as exc:
        raise ConfigError(
            f"covariance evaluators must take numpy arrays: {exc}"
        ) from None
    if values.shape != k0.shape:
        raise ConfigError(
            f"covariance evaluator gave shape {values.shape} on a {k0.shape} mesh"
        )
    return values


@lru_cache(maxsize=None)
def _legendre(n):
    """The n-node Gauss-Legendre rule on (0, 1) by Golub-Welsch: eigenvalues
    and squared first eigenvector components of the Jacobi matrix of the
    Legendre polynomials; read-only, as callers share it."""
    k = np.arange(1, n)
    off = np.sqrt(k * k / (4.0 * k * k - 1.0))
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    rule = 0.5 * (nodes + 1.0), vectors[0] ** 2
    for array in rule:
        array.flags.writeable = False
    return rule


def _ray_nodes(n):
    """(u, sqrt(1 - u^8), weights) of the n-node rule for the u-integral
    with weight (1 - u^8)^(-1/2): u = 1 - s^2, Gauss-Legendre in s."""
    s, ws = _legendre(n)
    u = 1.0 - s * s
    # 1 - u^8 = s^2 g(u), so (1 - u^8)^(-1/2) du = 2 ds / sqrt(g(u))
    g_root = np.sqrt((1.0 + u) * (1.0 + u * u) * (1.0 + u**4))
    return u, s * g_root, 2.0 * ws / g_root


def _ray_values(cov, u, root, r):
    """FC and d_k1 FC at 2 pi k0 = r^4 root, 2 pi k1 = r u."""
    k0, k1 = r**4 * root / TWO_PI, r * u / TWO_PI
    return _on_mesh(cov.evaluator, k0, k1), _on_mesh(cov.d_evaluator, k0, k1)


def _ray_rule(cov, moll, n):
    """(integrals, error floors) of the three brackets by the n-node u rule,
    each r-integral in closed form (see the module docstring)."""
    u, root, wu = _ray_nodes(n)
    fc, dfc = _ray_values(cov, u, root, 1.0)
    # q = m0^2 u^8 + (1 - u^8) as a sum of positive terms: 1 - (1 - m0^2) u^8
    # would lose a factor 1/m0^2 of accuracy to cancellation near u = 1
    q_val = (cov.m0 * u**4) ** 2 + root**2
    rate = moll.ray_rate(u, root)  # |Fphi_tau|^2 = exp(-rate r^8) along u
    s = (2.0 - 2.0 * cov.alpha) / 8.0  # (1 - eps)/8, exact for alpha in [1/2, 1)
    # integral_0^inf r^-eps exp(-rate r^8) dr; an extra r^8 multiplies it by s/rate
    radial = math.gamma(s) / 8.0 * rate**-s
    msq = cov.m0 * cov.m0
    terms = np.stack([
        u**4 * (4.0 * msq * u**8 / q_val - 2.0) / q_val * fc,
        u**5 / q_val * dfc,
        # the r^8 part of the c2 bracket, from the mollifier gradient
        u**5 / q_val * fc * moll.dlog_dk1(root / TWO_PI, u / TWO_PI) * (s / rate),
        u**12 / q_val**2 * fc,
    ]) * radial
    # rows 1 and 2 are the two parts of the c2 bracket
    integrals = np.add.reduceat(terms @ wu, [0, 1, 3])
    # rounding floor, 50 ulp of the integral of |f| (see the module docstring)
    absolute = np.add.reduceat(np.abs(terms) @ wu, [0, 1, 3])
    return integrals, 50.0 * np.finfo(float).eps * absolute


def _check_homogeneous(cov, n):
    """Refuse a covariance whose FC and d_k1 FC, read at r = 1/2 on the
    n-node ray, miss the degrees -eps and -eps - 1 the r-integral assumes."""
    eps = 2.0 * cov.alpha - 1.0
    u, root, _ = _ray_nodes(n)
    pairs = zip(_ray_values(cov, u, root, 1.0), _ray_values(cov, u, root, 0.5))
    for name, degree, (one, half) in zip(("FC", "d_k1 FC"), (-eps, -eps - 1.0), pairs):
        gap = np.max(np.abs(half * 2.0**degree - one))
        if not gap <= 1e-12 * np.max(np.abs(one)):
            raise ConfigError(f"the finite-tau tables need a parabolically homogeneous "
                              f"covariance; {name} misses its degree {degree:g} by {gap:.2e}")


def _c2_imaginary_residue(cov, moll):
    """Midpoint-rule value of the odd (imaginary) part of the c2 integrand.

    The term -2*pi*i*k0 * (k1/Q) * d_k1 FF is odd in k0, so its integral
    over a symmetric grid cancels pairwise; a nonzero residue signals a
    parity defect in the covariance or mollifier implementation.
    """
    points = 12
    k0_max = math.sqrt(_LOG_TAIL / moll.time_rate) / TWO_PI
    k1_max = (_LOG_TAIL / moll.space_rate) ** 0.125 / TWO_PI
    mid = (np.arange(points) + 0.5) / points
    mirrored = np.concatenate([mid, -mid])  # the midpoints and their mirror images
    a0, a1 = np.meshgrid(mirrored * k0_max, mirrored * k1_max, indexing="ij")
    q_val = symbol_LLstar((a0, a1), cov.m0)
    deriv = moll.squared_symbol(a0, a1) * (
        _on_mesh(cov.d_evaluator, a0, a1)
        + _on_mesh(cov.evaluator, a0, a1) * moll.dlog_dk1(a0, a1)
    )
    vals = -TWO_PI * a0 * a1 / q_val * deriv
    cell = (2.0 * k0_max / points) * (2.0 * k1_max / points) / 4.0
    return math.fsum(vals.ravel().tolist()) * cell


# ---------------------------------------------------------------------------
# the result table
# ---------------------------------------------------------------------------


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


def counterterm_table(cov, moll):
    """Evaluate all three constants into a CountertermTable by the doubling
    ray rule of the module docstring; asserts that the imaginary part of
    the c2 integrand cancels and that the covariance is homogeneous."""
    check_semigroup_m0(cov, moll)
    if cov.d_evaluator is None:
        raise ConfigError(
            "the c2 integral needs the analytic k1-derivative of the "
            "covariance; a CovarianceSpec must supply d_evaluator"
        )
    if not cov.alpha < 1.0:  # r^-eps is integrable at r = 0 only for eps < 1
        raise ConfigError(f"finite-tau tables need alpha < 1, got {cov.alpha}")
    if not all(0.0 < rate < math.inf for rate in (moll.time_rate, moll.space_rate)):
        raise ConfigError(f"mollifier rates must be positive and finite, got {moll.time_rate} "
                          f"and {moll.space_rate} (tau={moll.tau}, eta={moll.eta})")
    with np.errstate(all="ignore"):
        coarse, _ = _ray_rule(cov, moll, 32)
        for n in (64, 128, 256):
            fine, floors = _ray_rule(cov, moll, n)
            move = np.abs(fine - coarse)
            if np.all(move <= _STOP_MOVE * np.abs(fine)):
                break
            coarse = fine
    scale = np.array([16.0, 16.0 * cov.m0 / TWO_PI, -48.0 * cov.m0]) / TWO_PI**2
    values, errors = (scale * fine).tolist(), (np.abs(scale) * (move + floors)).tolist()
    for which, value, error in zip((1, 2, 3), values, errors):
        if not math.isfinite(value + error) or error > max(1e-3 * abs(value), 1e-9):
            raise NumericError(
                f"quadrature for constant {which} did not converge (alpha={cov.alpha}, "
                f"m0={cov.m0}, tau={moll.tau}, {moll.kind}): value {value:.6e}, "
                f"error estimate {error:.2e}"
            )
    residue = _c2_imaginary_residue(cov, moll)
    if abs(residue) > 1e-8 * abs(values[1]):
        raise ConsistencyError(
            f"imaginary part of the c2 integrand failed to cancel: "
            f"residue {residue:.3e} against value {values[1]:.6e}"
        )
    _check_homogeneous(cov, n)
    return CountertermTable(
        *values, *errors, cov.alpha, cov.m0, moll.tau, moll.kind, moll.eta
    )


def table_to_json(table):
    """CLI-facing JSON document for one table."""
    keys = ("alpha", "m0", "tau", "mollifier", "c1", "c2", "c3", "err1", "err2", "err3")
    return {key: getattr(table, key) for key in keys}


def sweep_csv(tables):
    """CSV text with one row per (alpha, tau, m0) table."""
    lines = ["alpha,tau,m0,mollifier,c1,err1,c2,err2,c3,err3"]
    for t in tables:
        lines.append(
            f"{t.alpha},{t.tau},{t.m0},{t.mollifier},"
            f"{t.c1:.12e},{t.err1:.3e},{t.c2:.12e},{t.err2:.3e},"
            f"{t.c3:.12e},{t.err3:.3e}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# universal limit constants
# ---------------------------------------------------------------------------


def _sigma(alpha, mollifier_kind):
    """The power sigma of u in the universal integrals: 1 for the semigroup
    family, 2 alpha - 1 for the anisotropic one."""
    if mollifier_kind not in ("semigroup", "anisotropic"):
        raise ConfigError(f"unknown mollifier kind {mollifier_kind!r}")
    return 1.0 if mollifier_kind == "semigroup" else 2.0 * alpha - 1.0


def C_constants_with_errors(alpha, mollifier_kind):
    """((C1, err1), (C2, err2), (C3, err3)): universal constants in closed form.

    Stripping the exact powers m0^(-5/4), m0^(-1/4), m0^(-9/4) and
    tau^{(2 alpha - 2)/8} (semigroup), or the anisotropic leading powers,
    leaves integrals over the rescaled quadrant with weight exp(-r^8)
    (semigroup) or exp(-(r u)^8) (anisotropic); there s = r u decouples
    the axes.  So C_i = (4 / (2 pi)^2) J U_i with eps = 2 alpha - 1,
    J = integral_0^inf s^(-eps) exp(-s^8) ds = Gamma((1 - eps)/8) / 8, and
    U_i the integral over (0, 1) of the bracket 16 u^12 - 8 u^4,
    32 u^12 - 20 u^4 or -12 u^12 times u^(sigma - 1) (1 - u^8)^(-1/2), with
    sigma = 1 (semigroup) or eps (anisotropic).  By DLMF 5.12.1 each
    monomial gives integral_0^1 u^a (1 - u^8)^(-1/2) du = B((a + 1)/8, 1/2)/8,
    and B(x + 1, 1/2) = B(x, 1/2) x / (x + 1/2) folds a bracket into one term:

        (C1, C2, C3) = P (8 sigma, 4 (3 sigma - 8), -12 (4 + sigma)) / (8 + sigma),
        P = Gamma((1 - eps)/8) Gamma((4 + sigma)/8) sqrt(pi) / (64 pi^2 Gamma(1 + sigma/8)).

    No term cancels, and the anisotropic C1 is exactly zero at alpha = 1/2.
    Each error is a rounding bound of 32 eps of the value: three math.gamma
    values on (0, 9/8], each within 3 eps of a 30-digit mpmath value, about
    ten roundings of half an eps, and a factor 2 to spare.
    """
    alpha = float(alpha)
    if not 0.5 <= alpha < 1.0:
        raise ConfigError(
            f"universal constants need alpha in [1/2, 1), got {alpha}"
        )
    sigma = _sigma(alpha, mollifier_kind)
    # 2 - 2 alpha = 1 - eps is exact for alpha in [1/2, 1)
    p_val = (
        math.gamma((2.0 - 2.0 * alpha) / 8.0) * math.gamma((4.0 + sigma) / 8.0)
        * math.sqrt(math.pi) / (64.0 * math.pi**2 * math.gamma(1.0 + sigma / 8.0))
    ) / (8.0 + sigma)
    values = (8.0 * sigma, 4.0 * (3.0 * sigma - 8.0), -12.0 * (4.0 + sigma))
    rounding = 32.0 * np.finfo(float).eps
    return tuple((v * p_val, rounding * abs(v * p_val)) for v in values)


def eval_C_constants(alpha, mollifier_kind):
    """The three universal constants (C1, C2, C3), m0- and tau-free."""
    pairs = C_constants_with_errors(alpha, mollifier_kind)
    return tuple(value for value, _err in pairs)


# ---------------------------------------------------------------------------
# scaling laws
# ---------------------------------------------------------------------------

def scaling_exponents(beta_c, params, mollifier_kind="semigroup"):
    """(tau exponent, m0 exponent or None) of the constant at beta_c.

    The tau exponent (|beta| - alpha - 2)/8 comes from the homogeneity
    bound and equals (2 alpha - 2)/8 for the three nonzero constants; the
    m0 exponent is known only for those three (other constants vanish):
    -(sigma + 4)/4, -sigma/4 and -(sigma + 8)/4, with the sigma of
    C_constants_with_errors.
    """
    sigma = _sigma(params.alpha, mollifier_kind)
    if not is_c_populated(beta_c, params):
        raise ConfigError("scaling exponents need a constant-carrying index")
    tau_exp = (homogeneity(beta_c, params) - params.alpha - 2.0) / 8.0
    m0_exp = {
        C1_INDEX: -(sigma + 4.0) / 4.0,
        C2_INDEX: -sigma / 4.0,
        C3_INDEX: -(sigma + 8.0) / 4.0,
    }.get(beta_c)
    return tau_exp, m0_exp


def fit_log_slope(xs, ys):
    """Least-squares slope of log|y| against log x."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ConfigError("slope fit needs at least two points")
    if any(x <= 0 for x in xs) or any(y == 0 for y in ys):
        raise ConfigError("slope fit needs positive x and nonzero y")
    lx = [math.log(x) for x in xs]
    ly = [math.log(abs(y)) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


# ---------------------------------------------------------------------------
# the counterterm functional
# ---------------------------------------------------------------------------


def counterterm_h(a, a_prime, b, b_prime, table):
    """Pointwise counterterm c1 a' b b' + c2 (b')^2 + c3 (a')^2 b^2."""
    try:
        return (
            table.c1 * a_prime * b * b_prime
            + table.c2 * b_prime**2
            + table.c3 * a_prime**2 * b**2
        )
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
            raise ConfigError(
                "the leading form applies to the anisotropic mollifier family"
            )
        if abs(table.alpha - alpha) > 1e-12:
            raise ConfigError(
                f"table was computed at alpha={table.alpha}, asked for {alpha}"
            )
        if abs(table.m0 - 1.0) > 1e-12:
            raise ConfigError(
                "stripping the tau power needs a unit-m0 table; rescale first"
            )
        combo = table.c2 / 4.0 + table.c3 - table.c1 / 2.0
        coefficient = combo * table.tau ** (-(2.0 * alpha - 2.0) / 8.0)
    else:
        c1_val, c2_val, c3_val = eval_C_constants(alpha, "anisotropic")
        coefficient = c2_val / 4.0 + c3_val - c1_val / 2.0
    m = float(m)
    return LeadingCounterterm(
        coefficient=coefficient,
        tau_exponent=(2.0 * alpha - 2.0) / 8.0,
        density_exponent=-(2.0 * alpha + 3.0) / 4.0,
        u_exponent=m - 2.0,
        power_prefactor=coefficient * m * m,
        form="d_x( M'(u)^2 / M(u)^{(2 alpha + 3)/4} d_x u )",
    )
