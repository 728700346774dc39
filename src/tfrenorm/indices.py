"""Multiindices over the three coordinate families of the thin-film model.

A multiindex beta assigns finite multiplicities to three families of
abstract variables:

* velocity-coefficient slots  a_k   (unit index ``e(k)``),   k >= 0,
* noise-coefficient slots     b_l   (unit index ``f(l)``),   l >= 0,
* polynomial decorations      p_n   (unit index ``g(n)``),   n != 0 a
  (1+d)-vector of space-time exponents, weighted anisotropically.

The anisotropic scaling is (4, 1, ..., 1): one time direction counting 4,
d space directions counting 1, effective dimension D = 4 + d.

Grammar for parsing/printing: terms joined by ``+``, each term an optional
positive multiplicity followed by ``e<k>``, ``f<l>`` or ``g(<n0>,<n1>,...)``,
e.g. ``2e1+2f0+g(0,1)``.  The zero multiindex prints as ``0``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ConfigError, ResourceError

SCALING_TIME_WEIGHT = 4


def aniso_degree(n):
    """Anisotropic degree |n| = 4*n0 + n1 + ... + nd of a decoration vector."""
    return SCALING_TIME_WEIGHT * n[0] + sum(n[1:])


# ---------------------------------------------------------------------------
# the multiindex itself
# ---------------------------------------------------------------------------


def _canon(items):
    """Sorted tuple of (key, count) pairs with zero counts dropped."""
    acc = {}
    for key, count in items:
        if count < 0:
            raise ConfigError(f"negative multiplicity for {key!r}")
        if count:
            acc[key] = acc.get(key, 0) + count
    return tuple(sorted(acc.items()))


@dataclass(frozen=True)
class Multiindex:
    """Immutable multiindex over the three families.

    ``a``, ``b``, ``p`` are sorted tuples of (key, count) pairs; keys in
    ``a``/``b`` are nonnegative integers, keys in ``p`` are nonzero integer
    tuples of equal arity.
    """

    a: tuple = ()
    b: tuple = ()
    p: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "a", _canon(self.a))
        object.__setattr__(self, "b", _canon(self.b))
        object.__setattr__(self, "p", _canon(self.p))
        for k, _ in self.a:
            if not isinstance(k, int) or k < 0:
                raise ConfigError(f"bad velocity slot {k!r}")
        for l, _ in self.b:
            if not isinstance(l, int) or l < 0:
                raise ConfigError(f"bad noise slot {l!r}")
        arities = set()
        for n, _ in self.p:
            if not isinstance(n, tuple) or not n or any(v < 0 for v in n):
                raise ConfigError(f"bad decoration vector {n!r}")
            if not any(n):
                raise ConfigError("zero decoration vector is not allowed")
            arities.add(len(n))
        if len(arities) > 1:
            raise ConfigError(f"mixed decoration arities {sorted(arities)}")

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        return Multiindex(self.a + other.a, self.b + other.b, self.p + other.p)

    def __rmul__(self, m):
        if not isinstance(m, int) or m < 0:
            raise ConfigError("multiindex multiplier must be a nonnegative int")
        scale = lambda items: tuple((k, m * c) for k, c in items)
        return Multiindex(scale(self.a), scale(self.b), scale(self.p))

    def minus(self, other):
        """Componentwise difference, or None if not >= other."""
        parts = []
        for mine, theirs in ((self.a, other.a), (self.b, other.b), (self.p, other.p)):
            acc = dict(mine)
            for key, count in theirs:
                acc[key] = acc.get(key, 0) - count
                if acc[key] < 0:
                    return None
            parts.append(tuple(acc.items()))
        return Multiindex(*parts)

    def __bool__(self):
        return bool(self.a or self.b or self.p)

    # -- views --------------------------------------------------------------

    def a_count(self):
        return sum(c for _, c in self.a)

    def b_count(self):
        return sum(c for _, c in self.b)

    def p_count(self):
        return sum(c for _, c in self.p)

    def a_weight(self):
        return sum(k * c for k, c in self.a)

    def b_weight(self):
        return sum(l * c for l, c in self.b)

    def atoms(self):
        """All unit constituents with multiplicity, as a flat list."""
        out = []
        for k, c in self.a:
            out.extend([e(k)] * c)
        for l, c in self.b:
            out.extend([f(l)] * c)
        for n, c in self.p:
            out.extend([g(n)] * c)
        return out

    def sort_key(self):
        return (self.a, self.b, self.p)

    def __str__(self):
        return format_multiindex(self)


def e(k):
    """Unit multiindex on velocity slot k."""
    return Multiindex(a=((k, 1),))


def f(l):
    """Unit multiindex on noise slot l."""
    return Multiindex(b=((l, 1),))


def g(n):
    """Unit multiindex on decoration n (a nonzero tuple of exponents)."""
    return Multiindex(p=((tuple(n), 1),))


ZERO = Multiindex()


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?:(\d+)\*?)?(?:e(\d+)|f(\d+)|g\((\d+(?:,\d+)*)\))$"
)


def parse_multiindex(text, expected_arity=None):
    """Parse the ``2e1+2f0+g(0,1)`` grammar into a Multiindex.

    Whitespace is ignored and repeated terms accumulate.  ``expected_arity``
    (1 + d) is enforced on decoration vectors when given.
    """
    s = re.sub(r"\s+", "", text)
    if s in ("", "0"):
        return ZERO
    a, b, p = [], [], []
    for term in s.split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise ConfigError(f"cannot parse multiindex term {term!r}")
        mult = int(m.group(1)) if m.group(1) else 1
        if m.group(2) is not None:
            a.append((int(m.group(2)), mult))
        elif m.group(3) is not None:
            b.append((int(m.group(3)), mult))
        else:
            n = tuple(int(v) for v in m.group(4).split(","))
            if expected_arity is not None and len(n) != expected_arity:
                raise ConfigError(
                    f"decoration {n} has arity {len(n)}, expected {expected_arity}"
                )
            p.append((n, mult))
    return Multiindex(tuple(a), tuple(b), tuple(p))


def format_multiindex(beta):
    """Canonical emission: e-terms, then f-terms, then g-terms, no spaces."""
    parts = []
    for k, c in beta.a:
        parts.append(("" if c == 1 else str(c)) + f"e{k}")
    for l, c in beta.b:
        parts.append(("" if c == 1 else str(c)) + f"f{l}")
    for n, c in beta.p:
        parts.append(("" if c == 1 else str(c)) + "g(" + ",".join(map(str, n)) + ")")
    return "+".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# model parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelParams:
    """Analytic parameters of the model.

    alpha   -- spatial regularity exponent, in (max(0, 3/2 - D/4), 1)
    d       -- number of space dimensions (time is separate)
    lam     -- weight of the decoration degree in the ordering length,
               in (0, 1/2)
    allow_rational_alpha -- lift the guard that rejects alpha within 1e-6 of
               a rational with denominator <= 12 (those values create
               homogeneity collisions; lift only for controlled experiments).
    """

    alpha: float
    d: int = 1
    lam: float = 0.4
    allow_rational_alpha: bool = False

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise ConfigError(f"spatial dimension must be a positive int, got {self.d!r}")
        lo = max(0.0, 1.5 - self.eff_dim / 4)
        if not lo < self.alpha < 1.0:
            raise ConfigError(
                f"alpha={self.alpha} outside the admissible window ({lo}, 1) for d={self.d}"
            )
        if not 0.0 < self.lam < 0.5:
            raise ConfigError(f"lam={self.lam} outside (0, 1/2)")
        if not self.allow_rational_alpha:
            for q in range(1, 13):
                if abs(self.alpha - round(self.alpha * q) / q) < 1e-6:
                    raise ConfigError(
                        f"alpha={self.alpha} is within 1e-6 of a rational with "
                        f"denominator {q}; pass allow_rational_alpha=True to override"
                    )

    @property
    def eff_dim(self):
        """Effective dimension D = 4 + d of the anisotropic space-time."""
        return 4 + self.d

    @property
    def scaling(self):
        return (SCALING_TIME_WEIGHT,) + (1,) * self.d

    @property
    def arity(self):
        return 1 + self.d


# ---------------------------------------------------------------------------
# gradings and predicates
# ---------------------------------------------------------------------------


def bracket(beta):
    """[beta] = sum_k k*beta(k) + sum_l l*beta(l) - sum_n beta(n)."""
    return beta.a_weight() + beta.b_weight() - beta.p_count()


def poly_weight(beta):
    """|beta|_p = sum_n |n| beta(n) with anisotropic |n|."""
    return sum(aniso_degree(n) * c for n, c in beta.p)


def homogeneity(beta, params):
    """|beta| = alpha * (1 + [beta]) + |beta|_p.

    Additive up to the alpha offset: |beta + gamma| - alpha =
    (|beta| - alpha) + (|gamma| - alpha).
    """
    return params.alpha * (1 + bracket(beta)) + poly_weight(beta)


def order_length(beta, params):
    """Ordering length: total slot count plus lam-weighted decoration degree."""
    return beta.a_count() + beta.b_count() + params.lam * poly_weight(beta)


def is_purely_polynomial(beta):
    """A single decoration g(n) with multiplicity one."""
    return not beta.a and not beta.b and len(beta.p) == 1 and beta.p[0][1] == 1


def is_populated(beta):
    """Population predicate for model indices.

    The counting identity 1 + sum k*beta(k) + sum l*beta(l) =
    sum_l beta(l) + sum_n beta(n) must hold, and the index must either be
    purely polynomial or contain at least one noise slot.
    """
    lhs = 1 + beta.a_weight() + beta.b_weight()
    rhs = beta.b_count() + beta.p_count()
    if lhs != rhs:
        return False
    return is_purely_polynomial(beta) or beta.b_count() > 0


def is_c_populated(beta, params):
    """Population predicate for counterterm (renormalisation-constant) indices.

    Requires an undecorated index (ConfigError otherwise); true when the
    counterterm identity sum k*beta(k) + sum l*beta(l) = sum_l beta(l) holds
    with at least one noise slot, the homogeneity sits below 2 + alpha, and
    the bracket is even (odd brackets vanish by expectation parity).
    """
    if beta.p:
        raise ConfigError("counterterm indices carry no polynomial decoration")
    return keeps_counterterm(beta, params, "reduced")


def keeps_counterterm(gamma, params, mode="raw"):
    """Whether a counterterm column c_gamma survives pruning.

    raw mode keeps every undecorated index satisfying the counterterm
    identity with a noise slot below the 2+alpha window; reduced mode
    additionally drops odd brackets (the parity-vanishing columns).
    """
    if mode not in ("raw", "reduced"):
        raise ConfigError(f"unknown counterterm mode {mode!r}")
    if gamma.p:
        return False
    if gamma.a_weight() + gamma.b_weight() != gamma.b_count():
        return False
    if gamma.b_count() == 0:
        return False
    if homogeneity(gamma, params) >= 2 + params.alpha:
        return False
    if mode == "reduced" and bracket(gamma) % 2 != 0:
        return False
    return True


def expectation_parity_filter(beta):
    """True when the expectation of the beta mode can survive parity.

    Precondition: beta populated and not purely polynomial.  Survives iff
    both the bracket and the decoration degree are odd.
    """
    if not is_populated(beta) or is_purely_polynomial(beta):
        raise ConfigError("parity filter expects a populated, non-polynomial index")
    return bracket(beta) % 2 == 1 and poly_weight(beta) % 2 == 1


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def iter_decorations(d, max_degree, max_count=None):
    """Nonzero decoration vectors n with |n| <= max_degree, ascending;
    ResourceError as soon as more than ``max_count`` have been generated."""
    vecs = []

    def rec(prefix, budget, slots):
        if slots == 0:
            v = tuple(prefix)
            if any(v):
                vecs.append(v)
                if max_count is not None and len(vecs) > max_count:
                    raise ResourceError(
                        f"more than max_count={max_count} decorations of "
                        f"degree <= {max_degree:.6g}"
                    )
            return
        step = SCALING_TIME_WEIGHT if len(prefix) == 0 else 1
        for value in range(int(budget // step) + 1):
            rec(prefix + [value], budget - value * step, slots - 1)

    rec([], max_degree, 1 + d)
    return sorted(vecs, key=lambda v: (aniso_degree(v), v))


def enumerate_populated(params, cutoff, max_count=200_000):
    """All populated multiindices with homogeneity < cutoff and no k=0 slot.

    Depth-first over the noise multiset, then decorations, then velocity
    partitions forced by the population identity; every branch is pruned by
    the running homogeneity.  Raises ResourceError past ``max_count``.
    """
    alpha = params.alpha
    if cutoff <= 0:
        return []
    results = []

    def push(beta):
        results.append(beta)
        if len(results) > max_count:
            raise ResourceError(
                f"enumeration exceeded max_count={max_count} below cutoff={cutoff}"
            )

    # purely polynomial branch: each decoration below the cutoff is an index
    decs = iter_decorations(params.d, math.ceil(cutoff) - 1, max_count)
    for n in decs:
        push(g(n))

    def velocity_parts(weight, max_part, acc, base):
        """Partitions of `weight` into slots k >= 1, emitted as indices."""
        if weight == 0:
            beta = base
            for k, c in acc.items():
                beta = beta + c * e(k)
            if is_populated(beta):
                push(beta)
            return
        for k in range(min(max_part, weight), 0, -1):
            acc[k] = acc.get(k, 0) + 1
            velocity_parts(weight - k, k, acc, base)
            acc[k] -= 1
            if not acc[k]:
                del acc[k]

    def decoration_branch(s, b_index, b_weight):
        """Extend a chosen noise part by decorations, then velocities."""
        base_hom = alpha * s
        room = cutoff - base_hom

        def rec(start, p_index, p_weight, p_num):
            need = s + p_num - 1 - b_weight
            if need >= 0:
                velocity_parts(need, need if need else 1, {}, b_index + p_index)
            elif start == len(decs) or (
                p_weight - need * aniso_degree(decs[start]) >= room
            ):
                return  # the -need missing decorations cannot fit under the room
            for i in range(start, len(decs)):
                w = aniso_degree(decs[i])
                if p_weight + w >= room:
                    break
                rec(i, p_index + g(decs[i]), p_weight + w, p_num + 1)

        rec(0, ZERO, 0.0, 0)

    def noise_branch(s):
        """Choose a noise multiset of size s, slots descending."""
        p_max = int(cutoff - alpha * s) + 1  # decorations weigh >= 1 each
        wb_max = s + p_max - 1  # population identity with velocity part >= 0

        def rec(remaining, max_slot, index, weight):
            if remaining == 0:
                decoration_branch(s, index, weight)
                return
            for l in range(min(max_slot, wb_max - weight), -1, -1):
                rec(remaining - 1, l, index + f(l), weight + l)

        rec(s, wb_max, ZERO, 0)

    s = 1
    while alpha * s < cutoff:
        noise_branch(s)
        s += 1

    results.sort(key=lambda m: (homogeneity(m, params), m.sort_key()))
    return results


# ---------------------------------------------------------------------------
# homogeneity bookkeeping and the exponent window
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomogeneitySet:
    """Sorted unique homogeneities of the populated indices below a cutoff."""

    values: tuple
    alpha: float
    cutoff: float

    @classmethod
    def build(cls, params, cutoff, max_count=200_000):
        pop = enumerate_populated(params, cutoff, max_count=max_count)
        vals = sorted({round(homogeneity(m, params), 12) for m in pop})
        return cls(tuple(vals), params.alpha, cutoff)

    def min_above(self, threshold):
        for v in self.values:
            if v > threshold:
                return v
        return None


def choose_kappa(params, cutoff=None, homs=None):
    """Midpoint of the admissible window for the remainder exponent kappa.

    The window is (3 - 2*alpha, min(D/2, m - 2*alpha)) where m is the
    smallest populated homogeneity strictly above 3.  The homogeneity set
    must extend beyond 3 + alpha so that m is final; an empty window raises
    ConfigError.
    """
    alpha = params.alpha
    if homs is None:
        if cutoff is None:
            cutoff = 3 + alpha + 0.5
        homs = HomogeneitySet.build(params, cutoff)
    if homs.cutoff <= 3 + alpha:
        raise ConfigError(
            f"homogeneity cutoff {homs.cutoff} too small to determine the window "
            f"(need > {3 + alpha})"
        )
    m = homs.min_above(3.0)
    if m is None:
        raise ConfigError("no populated homogeneity above 3; enlarge the cutoff")
    lo = 3 - 2 * alpha
    hi = min(params.eff_dim / 2, m - 2 * alpha)
    if hi <= lo:
        raise ConfigError(f"empty kappa window ({lo}, {hi}) at alpha={alpha}")
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# renormalisation candidates
# ---------------------------------------------------------------------------


def renormalisation_candidates(params, cutoff=3.0):
    """Populated, non-polynomial indices below the cutoff whose expectation
    survives the parity filter (bracket and decoration degree both odd).

    These are the modes whose renormalisation constants can be nonzero.
    """
    out = [
        m
        for m in enumerate_populated(params, cutoff)
        if not is_purely_polynomial(m) and expectation_parity_filter(m)
    ]
    return out
