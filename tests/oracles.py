"""Independent oracles used by the test suite.

Everything in this file is deliberately written without importing the
package under test, using different algorithms than the library:

* multiindex sum, difference and multiple on the (a, b, p) parts as
  ``collections.Counter`` multisets of slot keys (the library adds,
  subtracts and multiplies one packed int),
* a slow itertools-style enumerator for populated multiindices (the
  library uses a pruned DFS; here we sweep generous exponent boxes and
  filter with the literal predicates); it runs exactly when alpha is a
  Fraction,
* one entry (Gamma*)_beta^gamma of the recentering map by walking the
  letter multisets that fit inside beta (the library cuts the whole column
  of gamma by homogeneity and reads the entry off it); the group module
  comes in as an argument,
* the right-hand side of one hierarchy index with every sub-index tried as
  the decorated factor, every multiset of plain parts filtered by its sum
  and counted by its distinct orderings, and counter columns found by
  walking the D0 down-moves (the library marks the decorated factor inside
  one split and derives the columns from the counterterm identity),
* the documented order of hierarchy terms as a tuple key built from each
  term's fields (the library sorts on int keys of pool ranks),
* closed-form values of the rescaled counterterm constants obtained by
  integrating the defining quadrant integrals exactly (Wallis/Beta
  identities), evaluated with math.gamma, and the same constants as
  products of 1-D scipy quad integrals and of 40-digit mpmath Beta and
  Gamma values (the library sums the Beta terms of its monomial table),
* the finite-tau constants by nested adaptive scipy quad with scalar
  callbacks (the library sums a Beta x 2F1 closed form); it reads only
  the evaluators and fields of the spec objects,
* the finite-tau constants for the paper-default covariance to 30 digits
  with mpmath: the r-integral in closed form (complete gamma functions),
  the u-integral by tanh-sinh quadrature,
* the finite-tau constants by the Gauss-Legendre ray rule in u with the
  r-integral in closed form, the quadrature the library used before its
  closed form, with its homogeneity check and the parity residue of the c2
  integrand (the library sums Beta x 2F1 terms),
* the same Beta x 2F1 closed form to 40 digits with mpmath's hyp2f1, c2
  before its integration by parts, with a 2F1 at s + 1 (the library sums
  its 2F1 series in floats, branch by branch, c2 after it),
* the integral of one monomial of the constants' table at m0 itself, the
  r-integral in closed form and the u-integral by tanh-sinh quadrature (the
  library rescales m0 and sums Beta x 2F1),
* the equal-time line density by scipy quad on decade panels out to
  infinity, and to 40 digits by mpmath tanh-sinh on the same kind of
  panels (the library sums one trapezoid rule in u, k0 = c sinh u, cut at
  the mollifier envelope),
* the exact second moment of a linear function of white noise as the sum
  of its squared responses to every unit vector (the library sums the
  spectral density against the squared multiplier),
* the covariance of the real and imaginary parts of a linear complex
  function of white noise, from its responses to every unit vector (the
  library draws the shaped noise spectrum on the density's support, and the
  tests compare its law with that of shaped physical white noise),
* the kernel moment ratios in np.longdouble: the time and space factors
  of the kernel as direct trigonometric sums, and each weighted integral
  summed over the whole plane (the library sums 1-D factors against the
  additive weight in float64),
* the per-sample values of the MC checks with every draw taken to physical
  space by the public sample_noise and pi_f0 and every value read from a
  full inverse transform, a base-point average as the mean over every cell
  of the grid (the library keeps each draw in Fourier space and reads a few
  cells, or its averages, straight from the half spectrum); the mc module
  comes in as an argument.
"""

import math
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import mpmath
import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg.lapack import dstevd
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
# multiindex arithmetic.  Here an index is its (a, b, p) triple of sorted
# (key, count) tuples, each part a multiset of slot keys.
# ---------------------------------------------------------------------------


def _parts(counters):
    return tuple(tuple(sorted((+counter).items())) for counter in counters)


def parts_sum(x, y):
    """(a, b, p) of x + y."""
    return _parts(Counter(dict(px)) + Counter(dict(py)) for px, py in zip(x, y))


def parts_difference(x, y):
    """(a, b, p) of x - y, or None unless y <= x slot by slot."""
    pairs = [(Counter(dict(px)), Counter(dict(py))) for px, py in zip(x, y)]
    if not all(cy <= cx for cx, cy in pairs):
        return None
    return _parts(cx - cy for cx, cy in pairs)


def parts_multiple(k, x):
    """(a, b, p) of k * x."""
    return _parts(Counter({key: k * c for key, c in px}) for px in x)


# ---------------------------------------------------------------------------
# structure-group oracle
# ---------------------------------------------------------------------------


def gamma_entry_by_containment(group, beta, gamma, smap):
    """(Gamma*)_beta^gamma summed row-wise.

    Sums over multisets of letters {(n_i, beta_i)} with sum beta_i
    componentwise inside beta, coefficient prod(pi-values)/prod(mult!),
    times the commuting word (prod_i D^(n_i))_{beta - sum beta_i}^gamma.
    The letter count j is capped by the bracket bookkeeping
    j <= (velocity+noise weight of beta) - [gamma].  Letters come in the
    order of ``smap.letters()``, and only the last letter taken repeats.
    """
    letters = smap.letters()
    jmax = beta.a_weight() + beta.b_weight() - (
        gamma.a_weight() + gamma.b_weight() - gamma.p_count()
    )
    total = 1 if beta == gamma else 0

    def rec(i, remaining, j, value, fact, series, reps):
        # series: basis(gamma) with the word so far applied; reps: how often
        # its last letter, letters[i], occurs in it
        nonlocal total
        if j > 0:
            wv = series.get(remaining, 0)
            if wv != 0:
                total = total + value * wv * Fraction(1, fact)
        if j == jmax:
            return
        last_n = None
        for idx in range(i, len(letters)):
            n, m, v = letters[idx]
            rest = remaining.minus(m)
            if rest is None:
                continue
            if n != last_n:
                last_n, nser = n, group.dn_apply(series, n)
            if not len(nser):
                continue
            mult = reps + 1 if idx == i else 1
            rec(idx, rest, j + 1, value * v, fact * mult, nser, mult)

    rec(0, beta, 0, 1, 1, group.basis(gamma), 0)
    return total


HIERARCHY_KIND_RANK = {"quasi": 0, "noise": 1, "counter": 2}


def hierarchy_term_sort_key(term):
    """Order of expanded hierarchy terms: kind, factor count, the plain
    factors, the decorated factor, the counter row, each index compared by
    its ``sort_key``."""
    dec = term.decorated.sort_key() if term.decorated is not None else ()
    cpart = tuple((m.sort_key(), w) for m, w in term.c) if term.c else ()
    return (
        HIERARCHY_KIND_RANK[term.kind],
        len(term.factors),
        tuple(m.sort_key() for m in term.factors),
        dec,
        cpart,
    )


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


def paper_d_evaluator(alpha, m0):
    """The analytic k1-derivative of the paper covariance Q^(-(2 alpha - 1)/8),
    Q = (2 pi k0)^2 + m0^2 (2 pi k1)^8, on scalars or numpy arrays."""
    power = -(2.0 * alpha - 1.0) / 8.0

    def d_evaluator(k0, k1):
        q_val = (TWO_PI * k0) ** 2 + m0 * m0 * (TWO_PI * k1) ** 8
        return power * q_val ** (power - 1.0) * 16.0 * math.pi * m0 * m0 * (TWO_PI * k1) ** 7

    return d_evaluator


def dlog_dk1(moll, k1):
    """The k1-derivative of the log of a mollifier's squared symbol."""
    return -16.0 * math.pi * moll.space_rate * (TWO_PI * k1) ** 7


def ray_rate(moll, u, root):
    """The rate c(u) with squared symbol exp(-c(u) r^8) on the ray
    2 pi k0 = r^4 root, 2 pi k1 = r u, where root = sqrt(1 - u^8)."""
    return moll.space_rate * (u**4) ** 2 + moll.time_rate * root**2


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
    fc, dfc = cov.evaluator, paper_d_evaluator(cov.alpha, m0)
    sym = moll.squared_symbol
    if which == 1:
        prefactor = 16.0 / TWO_PI**2

        def bracket(r, u, q_val, k0, k1):
            weight = u**4 * (4.0 * msq * u**8 / q_val - 2.0) / q_val
            return weight * fc(k0, k1) * sym(k0, k1)

    elif which == 2:
        prefactor = 16.0 * m0 / TWO_PI**3

        def bracket(r, u, q_val, k0, k1):
            deriv = dfc(k0, k1) + fc(k0, k1) * dlog_dk1(moll, k1)
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


def mp_closed_form_table(alpha, m0, time_rate, space_rate, dps=40):
    """(c1, c2, c3) as mpf: the Beta x 2F1 closed form of the finite-tau
    tables, evaluated from the exact float inputs with mpmath's own hyp2f1
    at dps digits (the library sums its 2F1 in floats, by branch)."""
    with mpmath.workdps(dps):
        alpha, m0 = mpmath.mpf(alpha), mpmath.mpf(m0)
        tau_p = mpmath.mpf(space_rate) / m0**2
        x = mpmath.mpf(time_rate) / tau_p
        s, eps, half = (2 - 2 * alpha) / 8, 2 * alpha - 1, mpmath.mpf(1) / 2

        def monomial(a, p):
            b = mpmath.mpf(a + 1) / 8
            return mpmath.beta(half, b) / 8 * mpmath.hyp2f1(p, half, b + half, 1 - x)

        radial = 16 / (2 * mpmath.pi) ** 2 * mpmath.gamma(s) / 8 * tau_p**-s
        u12 = monomial(12, s)
        brackets = (4 * u12 - 2 * monomial(4, s), -eps * u12 - 8 * s * monomial(12, s + 1),
                    -3 * u12)
        powers = (mpmath.mpf(-5) / 4, mpmath.mpf(-1) / 4, mpmath.mpf(-9) / 4)
        return tuple(radial * m0**p * u for p, u in zip(powers, brackets))


def mp_monomial(monomial, alpha, m0, time_rate, space_rate, dps=30):
    """The integral over R^2 of the monomial (w, b, a), that is of
    w m0^b (2 pi k1)^a Q^(-(a + 4)/8) FC |Fphi|^2 for the paper's FC, as mpf.

    2 pi k0 = r^4 sqrt(1 - u^8), 2 pi k1 = r u gives Q = r^8 q(u) with
    q = 1 - u^8 + m0^2 u^8, and the squared mollifier exp(-rate(u) r^8), so
    the r-integral is Gamma(s) / (8 rate^s), s = (2 - 2 alpha)/8; the
    u-integral, with its weight (1 - u^8)^(-1/2), goes to tanh-sinh
    quadrature, split where the two rates of the envelope meet.
    """
    w, b, a = monomial
    with mpmath.workdps(dps):
        alpha, m0 = mpmath.mpf(alpha), mpmath.mpf(m0)
        time_rate, space_rate = mpmath.mpf(time_rate), mpmath.mpf(space_rate)
        eps = 2 * alpha - 1
        s = (1 - eps) / 8

        def integrand(u):
            v = u**8
            rate = time_rate * (1 - v) + space_rate * v
            return (u**a * (1 - v + m0**2 * v) ** (-(a + 4 + eps) / 8)
                    * mpmath.gamma(s) / (8 * rate**s) / mpmath.sqrt(1 - v))

        turn = (time_rate / (time_rate + space_rate)) ** (mpmath.mpf(1) / 8)
        return w * m0**b * 16 / (2 * mpmath.pi) ** 2 * mpmath.quad(integrand, [0, turn, 1])


# ---------------------------------------------------------------------------
# finite-tau constants by the Gauss-Legendre ray rule
#
# The same substitution again, with the r-integral in closed form, since FC
# and d_k1 FC are parabolically homogeneous of degrees -eps and -eps - 1:
# each bracket is r^-eps (A(u) + B(u) r^8) exp(-rate(u) r^8), whose
# r-integral is Gamma(s) / (8 rate^s), s = (1 - eps)/8, times s / rate for
# the r^8 part.  A and B are read from the evaluators at r = 1 on the nodes
# of the u-rule: u = 1 - t^2, Gauss-Legendre in t (Golub-Welsch by LAPACK
# stevd).  The value is the 256-node rule; its error is the move from the
# 128-node rule plus 50 ulp of the integral of |f|.  (A doubling from 32
# nodes that stopped at the first move below 1e-9 of the value stopped at
# 64 nodes for x = 5e-19 and stated 2.4e-13 for a c2 that was 2.65e-13 off.)
# The covariance is read again at r = 1/2 to check the homogeneity the
# r-integral assumes.
# ---------------------------------------------------------------------------


def _ray_nodes(n):
    """(u, sqrt(1 - u^8), weights) of the n-node rule for the u-integral
    with weight (1 - u^8)^(-1/2): u = 1 - t^2, Gauss-Legendre in t."""
    # Golub-Welsch: the Jacobi matrix of the Legendre polynomials by LAPACK stevd
    k = np.arange(1, n)
    nodes, vectors, _ = dstevd(np.zeros(n), np.sqrt(k * k / (4.0 * k * k - 1.0)), compute_v=1)
    t, wt = 0.5 * (nodes + 1.0), vectors[0] ** 2
    u = 1.0 - t * t
    # 1 - u^8 = t^2 g(u), so (1 - u^8)^(-1/2) du = 2 dt / sqrt(g(u))
    g_root = np.sqrt((1.0 + u) * (1.0 + u * u) * (1.0 + u**4))
    return u, t * g_root, 2.0 * wt / g_root


def _on_mesh(func, k0, k1):
    values = np.asarray(func(k0, k1))
    if values.shape != k0.shape:
        raise ValueError(f"evaluator gave shape {values.shape} on a {k0.shape} mesh")
    return values


def _ray_values(cov, d_evaluator, u, root, r):
    """FC and d_k1 FC at 2 pi k0 = r^4 root, 2 pi k1 = r u."""
    k0, k1 = r**4 * root / TWO_PI, r * u / TWO_PI
    return _on_mesh(cov.evaluator, k0, k1), _on_mesh(d_evaluator, k0, k1)


def _ray_rule(cov, d_evaluator, moll, n):
    """(integrals, error floors) of the three brackets by the n-node u rule."""
    u, root, wu = _ray_nodes(n)
    fc, dfc = _ray_values(cov, d_evaluator, u, root, 1.0)
    # q = m0^2 u^8 + (1 - u^8) as a sum of positive terms
    q_val = (cov.m0 * u**4) ** 2 + root**2
    rate = ray_rate(moll, u, root)
    s = (2.0 - 2.0 * cov.alpha) / 8.0
    radial = math.gamma(s) / 8.0 * rate**-s
    msq = cov.m0 * cov.m0
    terms = np.stack([
        u**4 * (4.0 * msq * u**8 / q_val - 2.0) / q_val * fc,
        u**5 / q_val * dfc,
        u**5 / q_val * fc * dlog_dk1(moll, u / TWO_PI) * (s / rate),
        u**12 / q_val**2 * fc,
    ]) * radial
    # rows 1 and 2 are the two parts of the c2 bracket
    integrals = np.add.reduceat(terms @ wu, [0, 1, 3])
    absolute = np.add.reduceat(np.abs(terms) @ wu, [0, 1, 3])
    return integrals, 50.0 * np.finfo(float).eps * absolute


def check_homogeneous(cov, d_evaluator):
    """Raise ValueError unless FC and d_k1 FC, read at r = 1/2 on the 64-node
    ray, have the degrees -eps and -eps - 1 that the r-integral assumes."""
    eps = 2.0 * cov.alpha - 1.0
    u, root, _ = _ray_nodes(64)
    pairs = zip(_ray_values(cov, d_evaluator, u, root, 1.0),
                _ray_values(cov, d_evaluator, u, root, 0.5))
    for name, degree, (one, half) in zip(("FC", "d_k1 FC"), (-eps, -eps - 1.0), pairs):
        gap = np.max(np.abs(half * 2.0**degree - one))
        if not gap <= 1e-12 * np.max(np.abs(one)):
            raise ValueError(f"{name} misses its degree {degree:g} by {gap:.2e}")


def ray_rule_counterterm(cov, moll, d_evaluator=None):
    """((c1, c2, c3), (err1, err2, err3)) by the 256-node ray rule, for a
    homogeneous covariance with k1-derivative d_evaluator (by default the
    paper's)."""
    if d_evaluator is None:
        d_evaluator = paper_d_evaluator(cov.alpha, cov.m0)
    check_homogeneous(cov, d_evaluator)
    with np.errstate(all="ignore"):
        coarse, _ = _ray_rule(cov, d_evaluator, moll, 128)
        fine, floors = _ray_rule(cov, d_evaluator, moll, 256)
    move = np.abs(fine - coarse)
    scale = np.array([16.0, 16.0 * cov.m0 / TWO_PI, -48.0 * cov.m0]) / TWO_PI**2
    return tuple(scale * fine), tuple(np.abs(scale) * (move + floors))


def c2_imaginary_residue(cov, moll, d_evaluator=None):
    """Midpoint-rule value of the odd (imaginary) part of the c2 integrand.

    The term -2 pi i k0 (k1/Q) d_k1 FF is odd in k0, so its integral over
    a symmetric grid cancels pairwise; a residue that does not vanish shows
    a covariance or mollifier that is not even.
    """
    if d_evaluator is None:
        d_evaluator = paper_d_evaluator(cov.alpha, cov.m0)
    points = 12
    k0_max = math.sqrt(_LOG_TAIL / moll.time_rate) / TWO_PI
    k1_max = (_LOG_TAIL / moll.space_rate) ** 0.125 / TWO_PI
    mid = (np.arange(points) + 0.5) / points
    mirrored = np.concatenate([mid, -mid])
    a0, a1 = np.meshgrid(mirrored * k0_max, mirrored * k1_max, indexing="ij")
    q_val = (TWO_PI * a0) ** 2 + cov.m0**2 * (TWO_PI * a1) ** 8
    deriv = moll.squared_symbol(a0, a1) * (
        _on_mesh(d_evaluator, a0, a1) + _on_mesh(cov.evaluator, a0, a1) * dlog_dk1(moll, a1)
    )
    vals = -TWO_PI * a0 * a1 / q_val * deriv
    cell = (2.0 * k0_max / points) * (2.0 * k1_max / points) / 4.0
    return math.fsum(vals.ravel().tolist()) * cell


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


def mp_line_density(alpha, m0, time_rate, space_rate, k1, dps=40):
    """2 * integral_0^inf (2 pi k1)^2 FC |Fphi|^2 / Q dk0 to dps digits, for
    the paper's FC = Q^(-(2 alpha - 1)/8), Q = (2 pi k0)^2 + m0^2 (2 pi k1)^8
    and |Fphi|^2 = exp(-time_rate (2 pi k0)^2 - space_rate (2 pi k1)^8), all
    in mpmath from the exact float inputs: tanh-sinh quadrature on decade
    panels from the smaller of the ridge m0 (2 pi k1)^4 / (2 pi) and the
    mollifier scale 1 / (2 pi sqrt(time_rate)) to ten times the larger, and
    then to infinity.  Returned as an mpf, which does not underflow."""
    with mpmath.workdps(dps):
        two_pi = 2 * mpmath.pi
        m0, k1 = mpmath.mpf(m0), mpmath.mpf(k1)
        time_rate, space_rate = mpmath.mpf(time_rate), mpmath.mpf(space_rate)
        power = -(2 * mpmath.mpf(alpha) - 1) / 8
        space = (two_pi * k1) ** 8
        factor = (two_pi * k1) ** 2 * mpmath.exp(-space_rate * space)

        def integrand(k0):
            q = (two_pi * k0) ** 2 + m0**2 * space
            return q ** (power - 1) * mpmath.exp(-time_rate * (two_pi * k0) ** 2)

        lo, hi = sorted([m0 * (two_pi * k1) ** 4 / two_pi, 1 / (two_pi * mpmath.sqrt(time_rate))])
        edges = [mpmath.mpf(0), lo]
        while edges[-1] < 10 * hi:
            edges.append(10 * edges[-1])
        return 2 * factor * mpmath.quad(integrand, edges + [mpmath.inf])


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


def unit_response_covariance(response, shape):
    """The covariance matrix of (Re A w, Im A w), flattened and stacked, for
    white noise w ~ N(0, I) of the given shape and a linear map A = response
    with complex output: R^T R, where row j of R is the stacked response to
    the unit vector e_j."""
    rows = []
    for j in range(math.prod(shape)):
        unit = np.zeros(shape)
        unit.flat[j] = 1.0
        out = np.ravel(response(unit))
        rows.append(np.concatenate([out.real, out.imag]))
    rows = np.array(rows)
    return rows.T @ rows


def separable_moment_spreads(sizes, boxes, times, m0=1.0):
    """max/min - 1 over the times of the d = 1 kernel moment ratios
    t^{(n1-theta)/8} sum |d^n1 psi_t| (t^{1/8} + |z|_s)^theta cell, keyed
    ((0, n1), theta) for n1 = 0..3 and theta in {-1, 0, 1}, in np.longdouble.

    psi_t is the product a_t(z0) b_t(z1) of its time and space factors, each
    a direct cosine or sine sum over the wavenumbers at which its symbol is
    nonzero in long double (the others add exact zeros).  The phases are
    integers j i mod N, read from one table of cos and sin(2 pi m / N) per
    axis.  The weighted sums run over the whole plane, a block of time rows
    at a time, with the weight raised to theta for every (t, theta).
    """
    ld = np.longdouble
    two_pi = 8 * np.arctan(ld(1))
    m0, cell = ld(m0), ld(boxes[0]) * ld(boxes[1]) / (sizes[0] * sizes[1])
    # wavenumbers in fftfreq order, which is also the centred lattice index
    wavenumbers = [np.fft.fftfreq(n, 1.0 / n).astype(np.int64) for n in sizes]
    freq0, freq1 = (two_pi * j.astype(ld) / ld(box) for j, box in zip(wavenumbers, boxes))
    z0, z1 = (np.abs(j.astype(ld) * ld(box) / n)
              for j, n, box in zip(wavenumbers, sizes, boxes))
    tables = []  # (cos, sin) of 2 pi m / N per axis
    for n in sizes:
        phase = two_pi * np.arange(n, dtype=ld) / n
        tables.append((np.cos(phase), np.sin(phase)))

    def factor(axis, symbol, odd):
        n, j = sizes[axis], wavenumbers[axis]
        keep = symbol != 0
        if odd:
            keep &= j != -n // 2  # odd powers vanish on the Nyquist row
        turns = np.outer(np.arange(n), j[keep]) % n
        return (tables[axis][odd][turns] * symbol[keep]).sum(axis=1) / ld(boxes[axis])

    acc = {}
    for t in np.asarray(times, dtype=float):
        t = ld(t)
        a = np.abs(factor(0, np.exp(-t * freq0**2), 0))
        space = np.exp(-t * m0**2 * freq1**8)
        # Re (i w)^n e^{i phi} is +-w^n cos phi for even n and +-w^n sin phi for
        # odd n, with one sign per n, which the modulus drops
        b = [np.abs(factor(1, space * freq1**order, order % 2)) for order in range(4)]
        for theta in (-1, 0, 1):
            sums = [ld(0)] * 4
            for rows in range(0, sizes[0], 64):
                w = t**ld(0.125) + z0[rows:rows + 64, None] ** ld(0.25) + z1[None, :]
                weighted = a[rows:rows + 64, None] * w**theta
                for order in range(4):
                    sums[order] += (weighted * b[order]).sum()
            for order in range(4):
                ratio = t ** (ld(order - theta) / 8) * sums[order] * cell
                acc.setdefault(((0, order), theta), []).append(ratio)
    return {key: max(vals) / min(vals) - 1 for key, vals in acc.items()}


def physical_path_reports(mc, sampler, reports, x):
    """The reports of the MC checks recomputed the direct way.

    reports maps a read to the library's report: covariance,
    pi_f0_second_moment and bphz_f0f1, averaged over every base point, and
    bphz_f0, at the base point x (in range).  Each is
    rebuilt at the same points, sample count and oracles from per-sample
    values that round-trip through physical space: mc.sample_noise for the
    noise, mc.pi_f0 for the linear component, a full inverse transform per
    smoothing.  A base-point average is the mean over every cell y: of
    (v(y + r) - v(y))^2 for the moment, and of
    (psi_t * (xi (v - v(y))))(y) = (psi_t * (xi v))(y) - v(y) (psi_t * xi)(y)
    for bphz f0+f1.  Each takes the exact variance of a sample from the
    library's report, so its z-scores differ from the library's only as its
    estimates do; the variance is checked against the sample variance of
    many draws on its own.
    """
    grid = sampler.grid
    m0 = sampler.spec.m0
    field = type(mc.sample_noise(sampler, 0)[0])
    mesh = grid.frequency_mesh()
    lap = sum((TWO_PI * k) ** 2 for k in mesh[1:])
    axes = tuple(range(grid.d + 1))

    def physical(hat):
        return field(grid, hat, "fourier").to_physical().values

    def smooth(values, t):
        hat = field(grid, values, "physical").to_fourier().values
        return physical(hat * np.exp(-t * ((TWO_PI * mesh[0]) ** 2 + m0**2 * lap**4)))

    out = {}
    for name, rep in reports.items():
        rows = []
        for i in range(rep.samples):
            noise = mc.sample_noise(sampler, i)
            xi = noise[0].values
            if name == "covariance":
                corr = physical(np.abs(noise[0].to_fourier().values) ** 2 / grid.volume)
                rows.append([corr[tuple(r % n for r, n in zip(lag, grid.sizes))]
                             for lag in rep.points])
            elif name == "pi_f0_second_moment":
                v = mc.pi_f0(noise, None, m0).values
                rows.append([np.mean((np.roll(v, [-r for r in sep], axes) - v) ** 2)
                             for sep in rep.points])
            elif name == "bphz_f0f1":
                v = mc.pi_f0(noise, None, m0).values
                rows.append([np.mean(smooth(xi * v, t) - v * smooth(xi, t)) for t in rep.points])
            else:
                rows.append([smooth(xi, t)[x] for t in rep.points])
        variance = np.square(rep.standard_errors) * rep.samples
        out[name] = mc._report(rep.estimator, rep.points, rep.samples, np.mean(rows, axis=0),
                               rep.oracles, variance)
    return out
