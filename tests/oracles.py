"""Independent oracles used by the test suite.

Everything in this file is deliberately written without importing the
package under test, using different algorithms than the library:

* a slow itertools-style enumerator for populated multiindices (the
  library uses a pruned DFS; here we sweep generous exponent boxes and
  filter with the literal predicates),
* the right-hand side of one hierarchy index with every sub-index tried as
  the decorated factor, every multiset of plain parts filtered by its sum
  and counted by its distinct orderings, and counter columns found by
  walking the D0 down-moves (the library marks the decorated factor inside
  one split and derives the columns from the counterterm identity),
* closed-form values of the rescaled counterterm constants obtained by
  integrating the defining quadrant integrals exactly (Wallis/Beta
  identities), evaluated with math.gamma, and the same constants as
  products of 1-D scipy quad integrals and of 40-digit mpmath Beta and
  Gamma values (the library folds the Beta terms into one closed form),
* the finite-tau constants by nested adaptive scipy quad with scalar
  callbacks (the library uses a tensor-product Gauss rule on numpy
  meshes); it reads only the evaluators and fields of the spec objects,
* the finite-tau constants for the paper-default covariance to 30 digits
  with mpmath: the r-integral in closed form (complete gamma functions),
  the u-integral by tanh-sinh quadrature,
* the equal-time line density by scipy quad on decade panels out to
  infinity (the library uses Gauss-Legendre panels cut at the mollifier
  envelope),
* the exact second moment of a linear function of white noise as the sum
  of its squared responses to every unit vector (the library sums the
  spectral density against the squared multiplier),
* the kernel moment ratios with the weight (t^{1/8} + |z|_s)^theta raised
  anew for every (t, n, theta) (the library forms one weight per t).
"""

import math
import warnings
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import mpmath
import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import gammaincc


# ---------------------------------------------------------------------------
# multiindex oracle: representation is a triple of sorted tuples
#   a = ((k, count), ...)   k >= 0   velocity-coefficient exponents
#   b = ((l, count), ...)   l >= 0   noise-coefficient exponents
#   p = ((n, count), ...)   n a (1+d)-tuple != 0, polynomial decorations
# ---------------------------------------------------------------------------


def aniso_degree(n):
    """Anisotropic degree |n| = 4*n0 + n1 + ... + nd."""
    return 4 * n[0] + sum(n[1:])


def iter_poly_vectors(d, bound):
    """All nonzero n in N^{1+d} with aniso_degree(n) <= bound."""
    out = []
    max0 = int(bound // 4)
    rest = int(bound)

    def fill(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for v in range(remaining + 1):
            fill(prefix + [v], remaining - v, slots - 1)

    for n0 in range(max0 + 1):
        budget = int(bound - 4 * n0)
        fill([n0], min(rest, budget), d)
    return [n for n in out if any(n)]


def _multisets(values, max_count):
    """All multisets (as sorted tuples) over `values` of size <= max_count."""
    sets = [()]
    for size in range(1, max_count + 1):
        sets.extend(combinations_with_replacement(values, size))
    return sets


def _partitions_exact(total, max_part):
    """Multisets of integers >= 1 (as sorted tuples) summing to `total`."""
    if total == 0:
        return [()]
    result = []

    def rec(remaining, largest, acc):
        if remaining == 0:
            result.append(tuple(acc))
            return
        for part in range(min(largest, remaining), 0, -1):
            rec(remaining - part, part, acc + [part])

    rec(total, max_part, [])
    return result


def _to_counts(multiset):
    counts = {}
    for v in multiset:
        counts[v] = counts.get(v, 0) + 1
    return tuple(sorted(counts.items()))


def bracket(a, b, p):
    """[beta] = sum k*a_k + sum l*b_l - sum p_n."""
    return (
        sum(k * c for k, c in a)
        + sum(l * c for l, c in b)
        - sum(c for _, c in p)
    )


def poly_weight(p):
    return sum(aniso_degree(n) * c for n, c in p)


def homogeneity(alpha, a, b, p):
    return alpha * (1 + bracket(a, b, p)) + poly_weight(p)


def is_populated_literal(a, b, p):
    """The literal population predicate.

    identity: 1 + sum k*a_k + sum l*b_l == sum b_l + sum p_n, and either
    the index is purely polynomial (a single decoration) or sum b_l > 0.
    """
    lhs = 1 + sum(k * c for k, c in a) + sum(l * c for l, c in b)
    rhs = sum(c for _, c in b) + sum(c for _, c in p)
    if lhs != rhs:
        return False
    purely_poly = not a and not b and len(p) == 1 and p[0][1] == 1
    return purely_poly or sum(c for _, c in b) > 0


def brute_force_populated(alpha, d, cutoff):
    """Slow, obviously-correct enumeration of populated multiindices with
    beta(k=0) = 0 and homogeneity < cutoff.

    Sweeps generous boxes for the noise (b) and polynomial (p) parts; the
    velocity part is recovered from the population identity (any a-part not
    solving it is not populated) and re-checked literally at the end.
    """
    results = set()

    # purely polynomial indices
    for n in iter_poly_vectors(d, cutoff):
        p = ((n, 1),)
        if homogeneity(alpha, (), (), p) < cutoff:
            results.add(((), (), p))

    max_b = int(cutoff / alpha) + 1
    pvecs = iter_poly_vectors(d, cutoff)
    psets = [
        _to_counts(ms)
        for ms in _multisets(pvecs, int(cutoff))
        if sum(aniso_degree(n) for n in ms) <= cutoff
    ]
    lmax = max_b + int(cutoff)
    bsets = [
        _to_counts(ms)
        for ms in _multisets(range(lmax + 1), max_b)
        if ms  # at least one noise factor for the non-polynomial branch
    ]

    for b in bsets:
        nb = sum(c for _, c in b)
        if alpha * nb >= cutoff:
            continue
        wb = sum(l * c for l, c in b)
        for p in psets:
            if alpha * nb + poly_weight(p) >= cutoff:
                continue
            np_ = sum(c for _, c in p)
            # population identity: 1 + W + wb = nb + np_ with W = sum k*a_k
            need = nb + np_ - 1 - wb
            if need < 0:
                continue
            for parts in _partitions_exact(need, need if need else 1):
                a = _to_counts(parts)
                if not is_populated_literal(a, b, p):
                    continue
                if homogeneity(alpha, a, b, p) < cutoff:
                    results.add((a, b, p))
    return results


# ---------------------------------------------------------------------------
# hierarchy oracle.  Here an index is a sorted tuple of (unit, count) pairs,
# a unit being ("e", k), ("f", l) or ("g", n).
# ---------------------------------------------------------------------------


def _index(counts):
    return tuple(sorted((unit, c) for unit, c in counts.items() if c))


def _index_sum(parts):
    acc = {}
    for part in parts:
        for unit, c in part:
            acc[unit] = acc.get(unit, 0) + c
    return _index(acc)


def _index_minus(index, part):
    acc = dict(index)
    for unit, c in part:
        acc[unit] -= c
    return _index(acc)


def _fits(part, index):
    """Whether part <= index unit by unit."""
    bound = dict(index)
    return all(c <= bound.get(unit, 0) for unit, c in part)


def _abp(index):
    """The (a, b, p) triple of an index, for the predicates above."""
    families = {"e": [], "f": [], "g": []}
    for (family, key), c in index:
        families[family].append((key, c))
    return tuple(families["e"]), tuple(families["f"]), tuple(families["g"])


def _d0_down(index):
    """The indices one D0 move below: one slot e_k or f_l, k, l >= 1, lowered."""
    out = set()
    for (family, key), _c in index:
        if family != "g" and key >= 1:
            acc = dict(index)
            acc[(family, key)] -= 1
            acc[(family, key - 1)] = acc.get((family, key - 1), 0) + 1
            out.add(_index(acc))
    return out


def _keeps_column(alpha, gamma, mode):
    """Literal counterterm-column predicate: undecorated, weight equal to the
    noise count, at least one noise slot, homogeneity below 2 + alpha, and
    an even bracket in reduced mode."""
    a, b, p = _abp(gamma)
    weight = sum(k * c for k, c in a) + sum(l * c for l, c in b)
    noise = sum(c for _, c in b)
    if p or weight != noise or noise == 0:
        return False
    if homogeneity(alpha, a, b, p) >= 2 + alpha:
        return False
    return mode == "raw" or bracket(a, b, p) % 2 == 0


def brute_force_expansion(alpha, beta, mode):
    """Terms (kind, coeff, plain, decorated) of the right-hand side of beta.

    Heads: e_k (quasi, k plain parts and a decorated factor), f_l (noise, l
    plain parts) and every nonzero undecorated sigma <= beta (counter, m =
    weight - noise count plain parts and a decorated factor), kept when one
    of the m-fold D0 down-moves of sigma is a kept column.  Every populated
    nonzero sub-index of beta is tried as the decorated factor, and every
    multiset of plain parts that sums to the rest is a term.  Its
    coefficient is the number of distinct orderings of the plain parts,
    over -m! for a counter term.  Sorted by repr.
    """
    subs = [()]
    for unit, count in beta:
        subs = [s + ((unit, i),) for s in subs for i in range(count + 1)]
    subs = [_index(dict(s)) for s in subs]
    pool = [s for s in subs if s and is_populated_literal(*_abp(s))]
    heads = []
    for (family, key), _c in beta:
        if family != "g":
            heads.append(("quasi" if family == "e" else "noise", (((family, key), 1),), key))
    for sigma in subs:
        a, b, p = _abp(sigma)
        m = sum(k * c for k, c in a) + sum(l * c for l, c in b) - sum(c for _, c in b)
        if not sigma or p or m < 0:
            continue
        row = {sigma}
        for _ in range(m):
            row = set().union(*map(_d0_down, row))
        if any(_keeps_column(alpha, gamma, mode) for gamma in row):
            heads.append(("counter", sigma, m))
    terms = []
    for kind, head, parts in heads:
        rest = _index_minus(beta, head)
        for dec in [None] if kind == "noise" else pool:
            if dec is not None and not _fits(dec, rest):
                continue
            left = rest if dec is None else _index_minus(rest, dec)
            fitting = [q for q in pool if _fits(q, left)]
            for plain in combinations_with_replacement(fitting, parts):
                if _index_sum(plain) != left:
                    continue
                orderings = len(set(permutations(plain)))
                coeff = Fraction(orderings, 1 if kind != "counter" else -math.factorial(parts))
                terms.append((kind, coeff, tuple(sorted(plain)), dec))
    return sorted(terms, key=repr)


# ---------------------------------------------------------------------------
# closed forms for the rescaled counterterm constants
#
# Quadrant integrals of the rescaled integrands under the substitution
# k0 = r^4 cos(phi), k1 = r sin(phi)^{1/4} (so k0^2 + k1^8 = r^8) factor into
# Gamma/Wallis pieces.  eps = 2*alpha - 1.
# ---------------------------------------------------------------------------


def _wallis(p):
    """I_p = integral_0^{pi/2} sin^p(phi) dphi."""
    return 0.5 * math.sqrt(math.pi) * math.gamma((p + 1) / 2) / math.gamma((p + 2) / 2)


def c1_semigroup_limit(alpha):
    """Rescaled first constant, semigroup mollifier, any alpha in (0, 1).

    (1/pi^2) * (1/8)Gamma((2-2a)/8) * (4 I_{9/4} - 2 I_{1/4})
      = Gamma((2-2a)/8) Gamma(5/8) / (72 pi^{3/2} Gamma(9/8)).
    """
    return (
        math.gamma((2 - 2 * alpha) / 8)
        * math.gamma(5 / 8)
        / (72 * math.pi ** 1.5 * math.gamma(9 / 8))
    )


def c2_semigroup_limit(alpha):
    """Equals -(5/2) * c1: shared measure, bracket (8s^2-5) vs (4s^2-2),
    and I_{9/4}/I_{1/4} = 5/9."""
    return -2.5 * c1_semigroup_limit(alpha)


def c3_semigroup_limit(alpha):
    """Equals -(15/2) * c1 by the same Wallis reduction."""
    return -7.5 * c1_semigroup_limit(alpha)


def c1_aniso_limit(alpha):
    """Rescaled first constant for the spatially-dominated mollifier family.

    sqrt(pi) Gamma((2-2a)/8) B1(eps) / (16 pi^2) with
    B1 = 4 Gamma(3/2+eps/8)/Gamma(2+eps/8) - 2 Gamma(1/2+eps/8)/Gamma(1+eps/8);
    vanishes at alpha = 1/2.
    """
    eps = 2 * alpha - 1
    b1 = 4 * math.gamma(1.5 + eps / 8) / math.gamma(2 + eps / 8) - 2 * math.gamma(
        0.5 + eps / 8
    ) / math.gamma(1 + eps / 8)
    return math.sqrt(math.pi) * math.gamma((1 - eps) / 8) * b1 / (16 * math.pi**2)


def c2_aniso_limit(alpha):
    eps = 2 * alpha - 1
    b2 = 8 * math.gamma(1.5 + eps / 8) / math.gamma(2 + eps / 8) - 5 * math.gamma(
        0.5 + eps / 8
    ) / math.gamma(1 + eps / 8)
    return math.sqrt(math.pi) * math.gamma((1 - eps) / 8) * b2 / (16 * math.pi**2)


def c3_aniso_limit(alpha):
    eps = 2 * alpha - 1
    return (
        -3
        * math.sqrt(math.pi)
        * math.gamma((1 - eps) / 8)
        * math.gamma(1.5 + eps / 8)
        / (16 * math.pi**2 * math.gamma(2 + eps / 8))
    )


CLOSED_FORMS = {
    ("semigroup", 1): c1_semigroup_limit,
    ("semigroup", 2): c2_semigroup_limit,
    ("semigroup", 3): c3_semigroup_limit,
    ("anisotropic", 1): c1_aniso_limit,
    ("anisotropic", 2): c2_aniso_limit,
    ("anisotropic", 3): c3_aniso_limit,
}


def mp_universal(alpha, kind, dps=40):
    """(C1, C2, C3) as mpf: (4 / (2 pi)^2) J U_i with J = Gamma((1 - eps)/8)/8
    and U_i summed term by term from the Beta integrals of the brackets
    16 u^12 - 8 u^4, 32 u^12 - 20 u^4 and -12 u^12 times u^(sigma - 1)."""
    with mpmath.workdps(dps):
        eps = 2 * mpmath.mpf(alpha) - 1
        sigma = 1 if kind == "semigroup" else eps
        j_val = mpmath.gamma((1 - eps) / 8) / 8
        low, high = (mpmath.beta((a + sigma) / 8, mpmath.mpf(1) / 2) / 8 for a in (4, 12))
        brackets = (16 * high - 8 * low, 32 * high - 20 * low, -12 * high)
        return tuple(j_val * u / mpmath.pi**2 for u in brackets)


def quad_universal(alpha, kind, epsrel=1e-11):
    """((C1, err1), (C2, err2), (C3, err3)) as products of the 1-D integrals
    J and U_i by scipy quad, J truncated where exp(-s^8) drops below 1e-18
    with the incomplete-gamma tail bound added to its error."""
    eps = 2.0 * alpha - 1.0
    s_max = _LOG_TAIL**0.125
    j_val, j_err = _quad(lambda s: s**-eps * math.exp(-(s**8)), 0.0, s_max,
                         epsabs=1e-15, epsrel=epsrel, limit=200)
    j_err += _quad_tail_bound(-eps, 1.0, s_max)
    shift = eps - 1.0 if kind == "anisotropic" else 0.0
    brackets = (lambda u: 16.0 * u**8 - 8.0, lambda u: 32.0 * u**8 - 20.0,
                lambda u: -12.0 * u**8)
    out = []
    for bracket in brackets:
        u_val, u_err = _quad(lambda u: bracket(u) * u ** (4.0 + shift) * (1.0 - u**8) ** -0.5,
                             0.0, 1.0, epsabs=1e-15, epsrel=epsrel, limit=300)
        scale = 4.0 / TWO_PI**2
        out.append((scale * j_val * u_val,
                    scale * (abs(j_val) * u_err + abs(u_val) * j_err)))
    return tuple(out)


# ---------------------------------------------------------------------------
# finite-tau constants by nested adaptive quadrature
#
# The same parabolic substitution as the library, 2 pi k0 = r^4 sqrt(1-u^8),
# 2 pi k1 = r u, but integrated by scipy quad: an adaptive inner r-integral
# up to the cutoff where the mollifier envelope drops below 1e-18, inside
# an adaptive outer u-integral carrying the weight (1 - u^8)^(-1/2).
# ---------------------------------------------------------------------------

TWO_PI = 2.0 * math.pi
_LOG_TAIL = -math.log(1e-18)


def _quad(func, lo, hi, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(func, lo, hi, **kwargs)


def _quad_tail_bound(a_power, rate, r_max):
    """Upper bound for integral_{r_max}^inf r^a exp(-rate r^8) dr."""
    s = (a_power + 1.0) / 8.0
    return 0.125 * rate**-s * math.gamma(s) * float(gammaincc(s, rate * r_max**8))


def quad_counterterm(which, cov, moll, epsrel=1e-9):
    """(value, error estimate) of constant c_which by nested scipy quad.

    The error estimate sums the outer quad error, twice the largest inner
    quad error and the largest tail bound beyond the cutoff.
    """
    m0 = cov.m0
    msq = m0 * m0
    fc, dfc = cov.evaluator, cov.d_evaluator
    sym, dlog = moll.squared_symbol, moll.dlog_dk1
    if which == 1:
        prefactor = 16.0 / TWO_PI**2

        def bracket(r, u, q_val, k0, k1):
            weight = u**4 * (4.0 * msq * u**8 / q_val - 2.0) / q_val
            return weight * fc(k0, k1) * sym(k0, k1)

    elif which == 2:
        prefactor = 16.0 * m0 / TWO_PI**3

        def bracket(r, u, q_val, k0, k1):
            deriv = dfc(k0, k1) + fc(k0, k1) * dlog(k0, k1)
            return r * u**5 / q_val * sym(k0, k1) * deriv

    else:
        prefactor = -48.0 * m0 / TWO_PI**2

        def bracket(r, u, q_val, k0, k1):
            return u**12 / q_val**2 * fc(k0, k1) * sym(k0, k1)

    a_power = 8.0 if which == 2 else 0.0
    worst = {"inner": 0.0, "tail": 0.0}

    def inner(u):
        q_val = 1.0 - (1.0 - msq) * u**8
        root = math.sqrt(max(1.0 - u**8, 0.0))
        if moll.kind == "semigroup":
            rate = moll.tau * q_val
        else:
            rate = moll.tau * u**8 + moll.tau**moll.eta * (1.0 - u**8)
        r_max = (_LOG_TAIL / rate) ** 0.125

        def integrand(r):
            return float(bracket(r, u, q_val, r**4 * root / TWO_PI, r * u / TWO_PI))

        val, err = _quad(integrand, 0.0, r_max, epsabs=1e-14, epsrel=epsrel, limit=200)
        worst["inner"] = max(worst["inner"], abs(err))
        tail = (abs(integrand(r_max)) * math.exp(rate * r_max**8) * r_max**-a_power
                * _quad_tail_bound(a_power, rate, r_max))
        worst["tail"] = max(worst["tail"], tail)
        return val

    value, outer_err = _quad(lambda u: inner(u) * (1.0 - u**8) ** -0.5, 0.0, 1.0,
                             epsabs=1e-13, epsrel=epsrel, limit=300)
    error = abs(prefactor) * (outer_err + 2.0 * worst["inner"] + worst["tail"])
    return prefactor * value, error


def mp_counterterm(alpha, m0, kind, tau, eta=None, dps=30):
    """(c1, c2, c3) for the paper-default covariance Q^(-eps/8), exact in r.

    Under the same substitution the covariance is r^(-eps) q^(-eps/8) and
    the squared mollifier exp(-rate(u) r^8), so every r-integral over
    (0, inf) is a gamma function:
        integral r^a exp(-rate r^8) dr = Gamma((a + 1)/8) / (8 rate^((a + 1)/8)).
    What is left is one u-integral per constant with the endpoint weight
    (1 - u^8)^(-1/2), which tanh-sinh quadrature takes as it stands.
    """
    with mpmath.workdps(dps):
        eps = 2 * mpmath.mpf(alpha) - 1
        m0, tau = mpmath.mpf(m0), mpmath.mpf(tau)
        msq = m0 * m0
        if kind == "semigroup":
            grad = tau * msq  # dlog_dk1 = -16 pi grad (2 pi k1)^7
        else:
            eta = mpmath.mpf(eta)
            grad = tau
        g0, g8 = mpmath.gamma((1 - eps) / 8), mpmath.gamma((9 - eps) / 8)

        def inner(u):
            q = 1 - (1 - msq) * u**8
            if kind == "semigroup":
                rate = tau * q
            else:
                rate = tau * u**8 + tau**eta * (1 - u**8)
            r0 = g0 / (8 * rate ** ((1 - eps) / 8))
            r8 = g8 / (8 * rate ** ((9 - eps) / 8))
            base = q ** (-1 - eps / 8)
            return (
                u**4 * (4 * msq * u**8 / q - 2) * base * r0,
                -u**12 * base * mpmath.pi * (2 * eps * msq * r0 / q + 16 * grad * r8),
                u**12 * base / q * r0,
            )

        # the anisotropic envelope turns over near u^8 = tau^(eta - 1)
        points = [0, 1] if kind == "semigroup" else [0, tau ** ((eta - 1) / 8), 1]
        two_pi = 2 * mpmath.pi
        prefactors = (16 / two_pi**2, 16 * m0 / two_pi**3, -48 * m0 / two_pi**2)
        return tuple(
            float(pre * mpmath.quad(lambda u: inner(u)[i] / mpmath.sqrt(1 - u**8),
                                    points))
            for i, pre in enumerate(prefactors)
        )


def quad_line_density(evaluator, squared_symbol, m0, k1, k0_mollifier, epsrel=1e-10):
    """(value, error) of 2 * integral_0^inf (2 pi k1)^2 FC FF / ((2 pi k0)^2
    + (m0 (2 pi k1)^4)^2) dk0 by scipy quad on decade panels, from the
    smaller of the dispersion ridge and k0_mollifier to 30 times the larger,
    and then to infinity."""
    ridge = m0 * (TWO_PI * k1) ** 4 / TWO_PI

    def integrand(k0):
        q = (TWO_PI * k0) ** 2 + (m0 * (TWO_PI * k1) ** 4) ** 2
        return float((TWO_PI * k1) ** 2 * evaluator(k0, k1) * squared_symbol(k0, k1) / q)

    edges = [0.0, min(ridge, k0_mollifier)]
    while edges[-1] < 30.0 * max(ridge, k0_mollifier):
        edges.append(10.0 * edges[-1])
    value = error = 0.0
    for lo, hi in zip(edges, edges[1:] + [math.inf]):
        val, err = _quad(integrand, lo, hi, epsabs=1e-300, epsrel=epsrel, limit=200)
        value, error = value + val, error + err
    return 2.0 * value, 2.0 * error


# ---------------------------------------------------------------------------
# Monte-Carlo moment and kernel moment-ratio oracles
# ---------------------------------------------------------------------------


def unit_response_second_moment(response, shape):
    """E|A w|^2 pointwise for white noise w ~ N(0, I) of the given shape and
    a linear map A = response: the sum over unit vectors e_j of (A e_j)^2."""
    total = 0.0
    for j in range(math.prod(shape)):
        unit = np.zeros(shape)
        unit.flat[j] = 1.0
        total = total + response(unit) ** 2
    return total


def moment_spreads_per_order(sizes, boxes, times, m0=1.0):
    """max/min - 1 over the times of the d = 1 kernel moment ratios
    t^{(n1-theta)/8} sum |d^n1 psi_t| (t^{1/8} + |z|_s)^theta cell, keyed
    ((0, n1), theta) for n1 = 0..3 and theta in {-1, 0, 1}, with the weight
    raised to theta anew for every (t, n1, theta)."""
    (n0, n1), (box0, box1) = sizes, boxes
    cell = float(np.prod(boxes)) / int(np.prod(sizes))
    z0, z1 = ((np.arange(n) * (box / n) + box / 2.0) % box - box / 2.0
              for n, box in zip(sizes, boxes))
    z0, z1 = np.meshgrid(z0, z1, indexing="ij", sparse=True)
    base_norm = np.abs(z0) ** 0.25 + np.abs(z1)
    k0, k1 = np.meshgrid(np.fft.rfftfreq(n0, d=box0 / n0), np.fft.fftfreq(n1, d=box1 / n1),
                         indexing="ij", sparse=True)
    acc = {}
    for t in np.asarray(times, dtype=float):
        hat = np.exp(-t * ((TWO_PI * k0) ** 2 + m0**2 * ((TWO_PI * k1) ** 2) ** 4))
        for order in range(4):
            dhat = hat
            if order:
                k = k1.copy()
                if order % 2:
                    k.flat[n1 // 2] = 0.0  # odd powers vanish on the Nyquist row
                dhat = dhat * (TWO_PI * 1j * k) ** order
            magnitude = np.abs(np.fft.irfftn(dhat, s=(n1, n0), axes=(1, 0)) / cell)
            for theta in (-1, 0, 1):
                weight = (t**0.125 + base_norm) ** theta
                integral = float(np.sum(magnitude * weight) * cell)
                ratio = t ** ((order - theta) / 8.0) * integral
                acc.setdefault(((0, order), theta), []).append(ratio)
    return {key: max(vals) / min(vals) - 1.0 for key, vals in acc.items()}
