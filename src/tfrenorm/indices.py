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
and ``g`` check their one argument the first time they see its value and
type, then hand out the cached unit.  Every other index comes from ``+``,
``minus``, ``k *`` and ``sub_indices`` on indices that passed those
checks.

Packed, hash-consed layout.  Every index is one Python int, its ``code``.
A registry hands each slot key (e_k, f_l or g(n)) a field of
``FIELD_BITS`` = 32 bits the first time the key is used, in first-use
order: 31 bits hold the multiplicity and the top bit is a guard that
arithmetic keeps clear.  So ``+`` is one int add, ``minus`` is
``(x | G) - y`` with G the guard bits of all fields, and ``k *`` is one
multiply, each with a guard check.  A multiplicity above
``MAX_MULTIPLICITY`` = 2**31 - 1 would carry into the next field: the
constructor, ``parse_multiindex``, ``+`` and ``k *`` raise ConfigError
instead.  Slot keys are not limited; ``e(10**30)`` takes one field like
``e(1)``.  A table keeps one ``Multiindex`` per code, so the canonical
``(a, b, p)`` view, the hash and the six gradings (a/b/p counts, a/b
weights, polynomial weight) are worked out once per distinct index, the
first time arithmetic meets its code; every later result is a table
lookup.  The gradings are linear in the counts but stay out of the code:
a fixed-width grading field would cap the slot keys.  The hash is
``hash((a, b, p))``, so it does not depend on the order in which slot keys
were registered.  Equality is equality of codes, so the table is only a
cache.  A code means something only in the process whose registry made
it: pickling and copying rebuild an index from its ``(a, b, p)`` view.  The
table holds every distinct index a process meets and never shrinks; a
benchmark ``algebra`` run of 480 jobs at d = 1 and 2 fills it with about
2,750 indices.

Enumeration by alpha-free layers.  A populated index with s noise slots
has 1 + [beta] = s (the population identity), so with decoration degree
w = |beta|_p its scaled homogeneity is q|beta| = p s + q w for alpha =
p/q.  The populated indices with s noise slots and degree w, the layer
(s, w), do not depend on alpha; alpha decides only which layers lie below
a cutoff and in what order.  So ``enumerate_populated`` keeps a
process-wide memo of layers, keyed (d, s, w), each a tuple sorted by
``sort_key`` (s = 0 holds the units g(n), |n| = w), fills it by its
depth-first search, and reads every later call at any alpha from it.
Like the table, the memo never shrinks: a benchmark ``algebra`` run of
120 jobs leaves about 45 layers holding about 1,000 indices.

Decisions are exact.  ``ModelParams`` holds alpha = p/q as a Fraction (a
float alpha is the decimal it prints as), and every decision on
homogeneities, here and in the group and hierarchy modules, compares the
int q|beta| = p(1 + [beta]) + q|beta|_p of ``scaled_homogeneity`` with the
int ceil(q * cutoff) of ``scaled_cutoff``: a tie such as 7 * (1/3) =
2 + 1/3 falls as in exact arithmetic.  ``homogeneity`` is a float, for
output and for the numeric layers.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import chain, groupby
from numbers import Rational, Real
from operator import itemgetter

from .errors import ConfigError, ResourceError

SCALING_TIME_WEIGHT = 4


def aniso_degree(n):
    """Anisotropic degree |n| = 4*n0 + n1 + ... + nd of a decoration vector."""
    return SCALING_TIME_WEIGHT * n[0] + sum(n[1:])


# ---------------------------------------------------------------------------
# the packed layout
# ---------------------------------------------------------------------------

FIELD_BITS = 32
MAX_MULTIPLICITY = (1 << (FIELD_BITS - 1)) - 1

# slot families, in the order of the parts (a, b, p)
_VELOCITY, _NOISE, _DECORATION = 0, 1, 2

_FIELDS = {}  # (family, key) -> bit offset of the key's field
_KEYS = []  # (family, key) by field number
_GUARD = 0  # the guard bit of every field handed out so far
_REGISTERING = threading.Lock()
_TABLE = {}  # code -> the one Multiindex holding it
_SHARED = {}  # each (key, count) pair and each part of a view, kept once
_UNITS = {}  # (family, type of key, key) -> unit index, for checked keys


def _field(family, key):
    """Bit offset of the field of a slot key, handed out on first use."""
    global _GUARD
    offset = _FIELDS.get((family, key))
    if offset is None:
        with _REGISTERING:
            offset = _FIELDS.get((family, key))
            if offset is None:
                offset = FIELD_BITS * len(_KEYS)
                _KEYS.append((family, key))
                _GUARD |= 1 << (offset + FIELD_BITS - 1)
                # published last: whoever finds the offset finds the rest
                _FIELDS[(family, key)] = offset
    return offset


def _too_many(what):
    return ConfigError(f"{what} exceeds {MAX_MULTIPLICITY}")


def _intern(code):
    """The one Multiindex holding ``code``; on first sight its view is
    decoded from the fields and stored with it."""
    m = _TABLE.get(code)
    if m is None:
        parts = ([], [], [])
        rest, number = code, 0
        while rest:
            count = rest & MAX_MULTIPLICITY
            if count:
                family, key = _KEYS[number]
                parts[family].append((key, count))
            rest >>= FIELD_BITS
            number += 1
        a, b, p = (tuple(sorted(items)) for items in parts)
        m = _TABLE.setdefault(code, _describe(object.__new__(Multiindex), code, a, b, p))
    return m


# ---------------------------------------------------------------------------
# the multiindex itself
# ---------------------------------------------------------------------------


def _canon(items):
    """Sorted tuple of (key, count) pairs with zero counts dropped."""
    acc = {}
    for key, count in items:
        if not isinstance(count, int):
            raise ConfigError(f"multiplicity {count!r} of {key!r} is not an int")
        if count < 0:
            raise ConfigError(f"negative multiplicity for {key!r}")
        if count:
            acc[key] = acc.get(key, 0) + count
    return tuple(sorted(acc.items()))


def _check_slot(key, family):
    """The slot key as a plain int (so that True registers as 1)."""
    if not isinstance(key, int) or key < 0:
        raise ConfigError(f"bad {family} slot {key!r}")
    return int(key)


def _check_decoration(n):
    if not isinstance(n, tuple) or not n or any(v < 0 for v in n):
        raise ConfigError(f"bad decoration vector {n!r}")
    if not any(n):
        raise ConfigError("zero decoration vector is not allowed")
    return n


def _mixed_arities(*arities):
    return ConfigError(f"mixed decoration arities {sorted(set(arities))}")


def _shared(part):
    """``part``, with the tuple and its pairs kept once per process."""
    known = _SHARED.get(part)
    if known is None:
        known = _SHARED[part] = tuple(_SHARED.setdefault(pair, pair) for pair in part)
    return known


def _describe(m, code, a, b, p):
    """Store in m its code, its canonical parts, their hash, the six
    gradings, the decoration arity and the largest multiplicity."""
    a, b, p = _shared(a), _shared(b), _shared(p)
    counts = [c for part in (a, b, p) for _, c in part]
    values = (
        code, a, b, p, hash((a, b, p)),
        sum(c for _, c in a), sum(c for _, c in b), sum(c for _, c in p),
        sum(k * c for k, c in a), sum(l * c for l, c in b),
        sum(aniso_degree(n) * c for n, c in p),
        len(p[0][0]) if p else 0, max(counts, default=0),
    )
    for name, value in zip(Multiindex.__slots__, values):
        object.__setattr__(m, name, value)
    return m


class Multiindex:
    """Immutable multiindex over the three families.

    ``a``, ``b``, ``p`` are sorted tuples of (key, count) pairs; keys in
    ``a``/``b`` are nonnegative integers, keys in ``p`` are nonzero integer
    tuples of equal arity.  ``code`` packs the counts into one int (see the
    module docstring); there is one object per code, and its view, hash
    and gradings are computed once, when the first index with that code
    is made.
    """

    __slots__ = ("code", "a", "b", "p", "_hash", "_a_count", "_b_count", "_p_count",
                 "_a_weight", "_b_weight", "_poly_weight", "_arity", "_max_count")

    def __new__(cls, a=(), b=(), p=()):
        m = object.__new__(cls)
        for name, value in (("a", a), ("b", b), ("p", p)):
            object.__setattr__(m, name, value)
        # looked up on the class each time, so that a wrapper installed
        # there sees every boundary validation
        cls.__post_init__(m)
        return _TABLE.setdefault(m.code, m)

    def __post_init__(self):
        a = tuple((_check_slot(k, "velocity"), c) for k, c in _canon(self.a))
        b = tuple((_check_slot(l, "noise"), c) for l, c in _canon(self.b))
        p = _canon(self.p)
        for n, _ in p:
            _check_decoration(n)
        if len({len(n) for n, _ in p}) > 1:
            raise _mixed_arities(*(len(n) for n, _ in p))
        code = 0
        for family, part in enumerate((a, b, p)):
            for key, count in part:
                if count > MAX_MULTIPLICITY:
                    raise _too_many(f"multiplicity {count} of {'efg'[family]}{key}")
                code |= count << _field(family, key)
        _describe(self, code, a, b, p)

    def __setattr__(self, name, value):
        raise AttributeError(f"Multiindex is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Multiindex is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (Multiindex, (self.a, self.b, self.p))

    def __eq__(self, other):
        if other.__class__ is not Multiindex:
            return NotImplemented
        return self.code == other.code

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Multiindex(a={self.a!r}, b={self.b!r}, p={self.p!r})"

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if self._arity != other._arity and self._arity and other._arity:
            raise _mixed_arities(self._arity, other._arity)
        code = self.code + other.code
        if code & _GUARD:
            raise _too_many(f"a multiplicity of ({self}) + ({other})")
        try:
            return _TABLE[code]
        except KeyError:
            return _intern(code)

    def __rmul__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ConfigError("multiindex multiplier must be a nonnegative int")
        if k * self._max_count > MAX_MULTIPLICITY:
            raise _too_many(f"a multiplicity of {k} * ({self})")
        code = k * self.code
        try:
            return _TABLE[code]
        except KeyError:
            return _intern(code)

    def minus(self, other):
        """Componentwise difference, or None if not >= other."""
        if other.code > self.code:  # then some count of other is larger
            return None
        code = (self.code | _GUARD) - other.code
        if (code & _GUARD) != _GUARD:
            return None
        code ^= _GUARD
        try:
            return _TABLE[code]
        except KeyError:
            return _intern(code)

    def __bool__(self):
        return self.code != 0

    # -- views --------------------------------------------------------------

    def _count(self, family, key):
        offset = _FIELDS.get((family, key))
        return 0 if offset is None else (self.code >> offset) & MAX_MULTIPLICITY

    def a_at(self, k):
        """Multiplicity of the velocity slot k."""
        return self._count(_VELOCITY, k)

    def b_at(self, l):
        """Multiplicity of the noise slot l."""
        return self._count(_NOISE, l)

    def p_at(self, n):
        """Multiplicity of the decoration n."""
        return self._count(_DECORATION, n)

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

    def sub_indices(self):
        """Every index componentwise <= self, ZERO first: the counts of the
        slot keys of ``a``, ``b`` and then ``p`` as digits, the last key
        varying fastest."""
        codes = [0]
        for family, part in enumerate((self.a, self.b, self.p)):
            for key, count in part:
                step = 1 << _FIELDS[family, key]
                codes = [code + i * step for code in codes for i in range(count + 1)]
        table = _TABLE
        return [table[code] if code in table else _intern(code) for code in codes]

    def __str__(self):
        return format_multiindex(self)


def _unit(family, key):
    """The unit index on one slot key.  A key is checked the first time its
    value and type are seen; a float equal to an int key is a new key."""
    try:
        unit = _UNITS.get((family, key.__class__, key))
    except TypeError:  # unhashable, so never a valid key
        unit = None
    if unit is None:
        if family == _DECORATION:
            slot = _check_decoration(key)
        else:
            slot = _check_slot(key, ("velocity", "noise")[family])
        unit = _intern(1 << _field(family, slot))
        _UNITS[family, key.__class__, key] = unit
    return unit


def e(k):
    """Unit multiindex on velocity slot k."""
    return _unit(_VELOCITY, k)


def f(l):
    """Unit multiindex on noise slot l."""
    return _unit(_NOISE, l)


def g(n):
    """Unit multiindex on decoration n (a nonzero tuple of exponents)."""
    return _unit(_DECORATION, tuple(n))


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

    alpha   -- spatial regularity exponent in (max(0, 3/2 - D/4), 1), an
               exact Fraction; a float of any width (a Real that is not
               Rational, numpy's float32 included) means the decimal it
               prints as, so 0.6 is 3/5, as for the CLI's ``--alpha 0.6``
    d       -- number of space dimensions (time is separate)
    lam     -- weight of the decoration degree in the ordering length,
               in (0, 1/2)
    allow_rational_alpha -- no effect: alpha is exact whatever its type.
               Kept until the benchmark stops passing it (ROADMAP item 1a).
    alpha_ratio -- (p, q) with alpha = p/q in lowest terms, worked out from
               alpha; not an argument.
    """

    alpha: Fraction
    d: int = 1
    lam: float = 0.4
    allow_rational_alpha: bool = field(default=False, compare=False, repr=False)
    alpha_ratio: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise ConfigError(f"spatial dimension must be a positive int, got {self.d!r}")
        alpha = self.alpha
        try:
            if isinstance(alpha, Real) and not isinstance(alpha, Rational):
                # the decimal it prints as, for numpy's floats too: str of
                # np.float32(0.6) is 0.6, where its binary value is not 3/5
                alpha = Decimal(str(alpha))
            p, q = alpha.as_integer_ratio()
        except (AttributeError, ValueError, OverflowError):
            raise ConfigError(f"alpha={self.alpha!r} is not a finite number") from None
        # the lower edge 3/2 - D/4 is (2 - d)/4
        if not (0 < p < q and 4 * p > (2 - self.d) * q):
            lo = max(0.0, 1.5 - self.eff_dim / 4)
            raise ConfigError(
                f"alpha={float(self.alpha)} outside the admissible window ({lo}, 1) "
                f"for d={self.d}"
            )
        if not 0.0 < self.lam < 0.5:
            raise ConfigError(f"lam={self.lam} outside (0, 1/2)")
        object.__setattr__(self, "alpha", Fraction(p, q))
        object.__setattr__(self, "alpha_ratio", (p, q))

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
    """|beta| = alpha * (1 + [beta]) + |beta|_p, as the float nearest the
    exact value: one int division of ``scaled_homogeneity`` by q, so 9/5
    prints as 1.8.

    Additive up to the alpha offset: |beta + gamma| - alpha =
    (|beta| - alpha) + (|gamma| - alpha).  Decisions compare
    ``scaled_homogeneity`` instead.
    """
    return scaled_homogeneity(beta, params) / params.alpha_ratio[1]


def scaled_homogeneity(beta, params):
    """q|beta| = p(1 + [beta]) + q|beta|_p for alpha = p/q: an exact int."""
    p, q = params.alpha_ratio
    return p * (1 + beta._a_weight + beta._b_weight - beta._p_count) + q * beta._poly_weight


def scaled_cutoff(cutoff, params):
    """ceil(q * cutoff), the int L with |beta| < cutoff iff q|beta| < L; the
    cutoff, an int, a float or a Fraction, is taken exactly."""
    num, den = cutoff.as_integer_ratio()
    return -(-params.alpha_ratio[1] * num // den)


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


def kept_bracket_bound(params):
    """The largest bracket of a kept counterterm column.

    An undecorated gamma has |gamma| = alpha (1 + [gamma]), below 2 + alpha
    iff p [gamma] < 2q for alpha = p/q, that is iff [gamma] <= ceil(2q/p) - 1.
    So alpha decides which columns are kept only through this int, which
    is 3 on [1/2, 2/3) and 2 on [2/3, 1).
    """
    p, q = params.alpha_ratio
    return -(-2 * q // p) - 1


def keeps_counterterm(gamma, params, mode="raw"):
    """Whether a counterterm column c_gamma survives pruning at params."""
    return keeps_column(gamma, kept_bracket_bound(params), mode)


def keeps_column(gamma, bound, mode="raw"):
    """Whether a counterterm column c_gamma survives pruning when the kept
    brackets are those up to bound (``kept_bracket_bound``).

    raw mode keeps every undecorated index satisfying the counterterm
    identity with a noise slot and bracket at most bound, the 2+alpha
    window; reduced mode additionally drops odd brackets (the
    parity-vanishing columns).
    """
    if mode not in ("raw", "reduced"):
        raise ConfigError(f"unknown counterterm mode {mode!r}")
    if gamma.p:
        return False
    if gamma._a_weight + gamma._b_weight != gamma._b_count:
        return False
    if gamma._b_count == 0:
        return False
    if bracket(gamma) > bound:
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
    """All populated multiindices with homogeneity < cutoff and no k=0 slot,
    sorted by homogeneity and then by ``sort_key``, as a fresh list.

    A populated index with s noise slots and decoration degree w has
    q|beta| = p s + q w for alpha = p/q, so it lies below the cutoff iff
    its layer (s, w) does.  The layers come from the process-wide memo that
    ``_search`` fills, and are taken in the order of p s + q w; only layers
    of equal homogeneity, which a rational alpha can give, are merged by
    ``sort_key``.  Raises ResourceError when more than ``max_count`` indices
    lie below the cutoff, memo or not; a search stops as soon as its count
    passes that.
    """
    p, q = params.alpha_ratio
    limit = scaled_cutoff(cutoff, params)
    taken = []  # (q|beta|, layer) for each nonempty layer below the cutoff
    count = 0

    def too_many():
        return ResourceError(
            f"enumeration exceeded max_count={max_count} below cutoff={float(cutoff)}"
        )

    s = 0
    while p * s < limit:
        budget = (limit - 1 - p * s) // q  # the largest decoration degree below the cutoff
        if (params.d, s, budget) not in _LAYERS:
            _search(params.d, s, budget, max_count - count, too_many)
        for w in range(budget + 1):
            layer = _LAYERS[params.d, s, w]
            if layer:
                count += len(layer)
                taken.append((p * s + q * w, layer))
        if count > max_count:
            raise too_many()
        s += 1
    taken.sort(key=itemgetter(0))
    out = []
    for _h, run in groupby(taken, key=itemgetter(0)):
        layers = [layer for _h, layer in run]
        out += layers[0] if len(layers) == 1 else sorted(chain(*layers), key=Multiindex.sort_key)
    return out


_LAYERS = {}  # (d, s, w) -> the populated indices with s noise slots and degree w


def _search(d, s, budget, room, too_many):
    """Put in ``_LAYERS`` every layer (d, s, w) with w <= budget, each a
    tuple sorted by ``sort_key``, from one depth-first search; raise
    too_many() as soon as the search finds more than ``room`` indices.

    s = 0 holds the units g(n), |n| = w.  For s >= 1 the search goes over
    the noise multiset, then the decorations (the units of the layers
    (d, 0, w), w <= budget, which must be in the memo), then the velocity
    partitions forced by the population identity; every branch is pruned
    by the decoration degree.  No layer enters the memo before the search
    is complete, and the layer at the budget enters last, so its presence
    means that every layer below it is there.
    """
    found = []

    def push(beta):
        found.append(beta)
        if len(found) > room:
            raise too_many()

    if s == 0:
        for n in iter_decorations(d, budget, room):
            push(g(n))
    else:
        units = [unit for w in range(1, budget + 1) for unit in _LAYERS[d, 0, w]]
        degrees = [unit._poly_weight for unit in units]
        wb_max = s + budget - 1  # population identity, each decoration weighing >= 1

        def velocity_parts(weight, max_part, beta):
            """Partitions of `weight` into slots k >= 1, emitted as indices;
            each part is added to ``beta`` once, where the recursion
            chooses it."""
            if weight == 0:
                if is_populated(beta):
                    push(beta)
                return
            for k in range(min(max_part, weight), 0, -1):
                velocity_parts(weight - k, k, beta + e(k))

        def decoration_branch(b_index, b_weight):
            """Extend a chosen noise part by decorations of total degree at
            most ``budget``, then velocities."""

            def rec(start, p_index, p_weight, p_num):
                need = s + p_num - 1 - b_weight
                if need >= 0:
                    velocity_parts(need, need if need else 1, b_index + p_index)
                elif start == len(units) or p_weight - need * degrees[start] > budget:
                    return  # the -need missing decorations cannot fit in the budget
                for i in range(start, len(units)):
                    w = degrees[i]
                    if p_weight + w > budget:
                        break
                    rec(i, p_index + units[i], p_weight + w, p_num + 1)

            rec(0, ZERO, 0, 0)

        def noise_branch(remaining, max_slot, index, weight):
            """Choose a noise multiset of size s, slots descending."""
            if remaining == 0:
                decoration_branch(index, weight)
                return
            for l in range(min(max_slot, wb_max - weight), -1, -1):
                noise_branch(remaining - 1, l, index + f(l), weight + l)

        noise_branch(s, wb_max, ZERO, 0)

    layers = [[] for _ in range(budget + 1)]
    for beta in found:
        layers[beta._poly_weight].append(beta)
    for w, layer in enumerate(layers):
        _LAYERS[d, s, w] = tuple(sorted(layer, key=Multiindex.sort_key))


# ---------------------------------------------------------------------------
# the exponent window
# ---------------------------------------------------------------------------


def choose_kappa(params, cutoff=None):
    """Midpoint of the admissible window for the remainder exponent kappa.

    The window is (3 - 2*alpha, min(D/2, m - 2*alpha)) where m is the
    smallest homogeneity strictly above 3 among the populated indices
    below the cutoff.  The cutoff, 3 + alpha + 1/2 by default, must lie
    above 3 + alpha so that m is final; a smaller cutoff or an empty window
    raises ConfigError.
    """
    alpha = float(params.alpha)
    p, q = params.alpha_ratio
    if cutoff is None:
        cutoff = 3 + params.alpha + Fraction(1, 2)
    if scaled_cutoff(cutoff, params) <= 3 * q + p:
        raise ConfigError(
            f"homogeneity cutoff {float(cutoff)} too small to determine the window "
            f"(need > {3 + alpha})"
        )
    above = (
        b for b in enumerate_populated(params, cutoff) if scaled_homogeneity(b, params) > 3 * q
    )
    first = next(above, None)  # the enumeration is sorted by homogeneity
    if first is None:
        raise ConfigError("no populated homogeneity above 3; enlarge the cutoff")
    lo = 3 - 2 * alpha
    hi = min(params.eff_dim / 2, homogeneity(first, params) - 2 * alpha)
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
