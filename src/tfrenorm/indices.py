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

Validation happens once, at the boundary.  The constructor
``Multiindex(a, b, p)`` canonicalises and checks its arguments in
``__post_init__``; ``parse_multiindex`` builds through it, and ``e``, ``f``
and ``g`` check their one argument.  Every other index comes from ``+``,
``minus`` and ``k *`` on indices that passed those checks, and these keep
the canonical form by construction: a sum merges two sorted tuples of
positive counts, a difference keeps the order of the larger index and
drops the counts that reach zero, a positive multiple keeps keys and
order.  So they skip the checks, except that ``+`` still rejects mixed
decoration arities and ``k *`` a k that is not a nonnegative int, and
they carry the hash and the six gradings (a/b/p counts, a/b weights,
polynomial weight) over by the same arithmetic instead of recounting.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

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


def _check_slot(key, family):
    if not isinstance(key, int) or key < 0:
        raise ConfigError(f"bad {family} slot {key!r}")


def _check_decoration(n):
    if not isinstance(n, tuple) or not n or any(v < 0 for v in n):
        raise ConfigError(f"bad decoration vector {n!r}")
    if not any(n):
        raise ConfigError("zero decoration vector is not allowed")


def _check_arities(p, q=()):
    arities = {len(n) for n, _ in p} | {len(n) for n, _ in q}
    if len(arities) > 1:
        raise ConfigError(f"mixed decoration arities {sorted(arities)}")


def _merge(x, y):
    """Sum of two canonical (key, count) tuples, canonical."""
    if not y:
        return x
    if not x:
        return y
    acc = dict(x)
    for key, count in y:
        acc[key] = acc.get(key, 0) + count
    return tuple(sorted(acc.items()))


def _take(x, y):
    """x - y for canonical (key, count) tuples in x's order, or None if a
    count of y exceeds x's."""
    if not y:
        return x
    acc = dict(x)
    for key, count in y:
        left = acc.get(key, 0) - count
        if left < 0:
            return None
        acc[key] = left
    return tuple(item for item in acc.items() if item[1])


_set = object.__setattr__


def _fill(m, a, b, p, a_count, b_count, p_count, a_weight, b_weight, poly_weight):
    """Store canonical parts, their hash and their six gradings in m."""
    _set(m, "a", a)
    _set(m, "b", b)
    _set(m, "p", p)
    _set(m, "_hash", hash((a, b, p)))
    _set(m, "_a_count", a_count)
    _set(m, "_b_count", b_count)
    _set(m, "_p_count", p_count)
    _set(m, "_a_weight", a_weight)
    _set(m, "_b_weight", b_weight)
    _set(m, "_poly_weight", poly_weight)
    return m


def _trusted(*parts_and_gradings):
    """Multiindex from parts already in canonical form and their gradings,
    without ``_canon`` or the checks of ``__post_init__``."""
    return _fill(object.__new__(Multiindex), *parts_and_gradings)


_CACHED = dict(default=0, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class Multiindex:
    """Immutable multiindex over the three families.

    ``a``, ``b``, ``p`` are sorted tuples of (key, count) pairs; keys in
    ``a``/``b`` are nonnegative integers, keys in ``p`` are nonzero integer
    tuples of equal arity.  The hash and the gradings are computed once,
    when the index is made.
    """

    a: tuple = ()
    b: tuple = ()
    p: tuple = ()
    _hash: int = field(**_CACHED)
    _a_count: int = field(**_CACHED)
    _b_count: int = field(**_CACHED)
    _p_count: int = field(**_CACHED)
    _a_weight: int = field(**_CACHED)
    _b_weight: int = field(**_CACHED)
    _poly_weight: int = field(**_CACHED)

    def __post_init__(self):
        a, b, p = _canon(self.a), _canon(self.b), _canon(self.p)
        for k, _ in a:
            _check_slot(k, "velocity")
        for l, _ in b:
            _check_slot(l, "noise")
        for n, _ in p:
            _check_decoration(n)
        _check_arities(p)
        _fill(
            self, a, b, p,
            sum(c for _, c in a), sum(c for _, c in b), sum(c for _, c in p),
            sum(k * c for k, c in a), sum(l * c for l, c in b),
            sum(aniso_degree(n) * c for n, c in p),
        )

    def __hash__(self):
        return self._hash

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if self.p and other.p:
            _check_arities(self.p[:1], other.p[:1])
        return _trusted(
            _merge(self.a, other.a), _merge(self.b, other.b), _merge(self.p, other.p),
            self._a_count + other._a_count, self._b_count + other._b_count,
            self._p_count + other._p_count, self._a_weight + other._a_weight,
            self._b_weight + other._b_weight, self._poly_weight + other._poly_weight,
        )

    def __rmul__(self, m):
        if not isinstance(m, int) or m < 0:
            raise ConfigError("multiindex multiplier must be a nonnegative int")
        if m == 0:
            return ZERO
        if m == 1:
            return self
        return _trusted(
            *[tuple([(k, m * c) for k, c in items]) for items in (self.a, self.b, self.p)],
            m * self._a_count, m * self._b_count, m * self._p_count,
            m * self._a_weight, m * self._b_weight, m * self._poly_weight,
        )

    def minus(self, other):
        """Componentwise difference, or None if not >= other."""
        if (
            other._a_count > self._a_count
            or other._b_count > self._b_count
            or other._p_count > self._p_count
        ):
            return None
        a = _take(self.a, other.a)
        b = None if a is None else _take(self.b, other.b)
        p = None if b is None else _take(self.p, other.p)
        if p is None:
            return None
        return _trusted(
            a, b, p,
            self._a_count - other._a_count, self._b_count - other._b_count,
            self._p_count - other._p_count, self._a_weight - other._a_weight,
            self._b_weight - other._b_weight, self._poly_weight - other._poly_weight,
        )

    def __bool__(self):
        return bool(self.a or self.b or self.p)

    # -- views --------------------------------------------------------------

    def a_count(self):
        return self._a_count

    def b_count(self):
        return self._b_count

    def p_count(self):
        return self._p_count

    def a_weight(self):
        return self._a_weight

    def b_weight(self):
        return self._b_weight

    def sort_key(self):
        return (self.a, self.b, self.p)

    def __str__(self):
        return format_multiindex(self)


def e(k):
    """Unit multiindex on velocity slot k."""
    _check_slot(k, "velocity")
    return _trusted(((k, 1),), (), (), 1, 0, 0, k, 0, 0)


def f(l):
    """Unit multiindex on noise slot l."""
    _check_slot(l, "noise")
    return _trusted((), ((l, 1),), (), 0, 1, 0, 0, l, 0)


def g(n):
    """Unit multiindex on decoration n (a nonzero tuple of exponents)."""
    n = tuple(n)
    _check_decoration(n)
    return _trusted((), (), ((n, 1),), 0, 0, 1, 0, 0, aniso_degree(n))


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
    return beta._a_weight + beta._b_weight - beta._p_count


def poly_weight(beta):
    """|beta|_p = sum_n |n| beta(n) with anisotropic |n|."""
    return beta._poly_weight


def homogeneity(beta, params):
    """|beta| = alpha * (1 + [beta]) + |beta|_p.

    Additive up to the alpha offset: |beta + gamma| - alpha =
    (|beta| - alpha) + (|gamma| - alpha).
    """
    return params.alpha * (1 + bracket(beta)) + poly_weight(beta)


def order_length(beta, params):
    """Ordering length: total slot count plus lam-weighted decoration degree."""
    return beta._a_count + beta._b_count + params.lam * beta._poly_weight


def is_purely_polynomial(beta):
    """A single decoration g(n) with multiplicity one."""
    return not beta.a and not beta.b and len(beta.p) == 1 and beta.p[0][1] == 1


def is_populated(beta):
    """Population predicate for model indices.

    The counting identity 1 + sum k*beta(k) + sum l*beta(l) =
    sum_l beta(l) + sum_n beta(n) must hold, and the index must either be
    purely polynomial or contain at least one noise slot.
    """
    if 1 + beta._a_weight + beta._b_weight != beta._b_count + beta._p_count:
        return False
    return is_purely_polynomial(beta) or beta._b_count > 0


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
    if gamma._a_weight + gamma._b_weight != gamma._b_count:
        return False
    if gamma._b_count == 0:
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
    units = [g(n) for n in decs]
    for unit in units:
        push(unit)

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
                rec(i, p_index + units[i], p_weight + w, p_num + 1)

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
# the exponent window
# ---------------------------------------------------------------------------


def choose_kappa(params, cutoff=None):
    """Midpoint of the admissible window for the remainder exponent kappa.

    The window is (3 - 2*alpha, min(D/2, m - 2*alpha)) where m is the
    smallest homogeneity strictly above 3 among the populated indices
    below the cutoff (rounded to 12 digits).  The cutoff, 3 + alpha + 1/2
    by default, must lie above 3 + alpha so that m is final; a smaller
    cutoff or an empty window raises ConfigError.
    """
    alpha = params.alpha
    if cutoff is None:
        cutoff = 3 + alpha + 0.5
    if cutoff <= 3 + alpha:
        raise ConfigError(
            f"homogeneity cutoff {cutoff} too small to determine the window "
            f"(need > {3 + alpha})"
        )
    homs = (round(homogeneity(b, params), 12) for b in enumerate_populated(params, cutoff))
    m = min((h for h in homs if h > 3.0), default=None)
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
