"""Exact polynomial scalars for the symbolic structure-group tests.

A PolyScalar is a polynomial with Fraction coefficients in the components
of a displacement vector (one time and d space offsets).  The structure
group's recentering entries are such polynomials; keeping them exact lets
the tests assert matrix identities with no floating-point slack.

The ring interoperates with int and Fraction on either side, so generic
code can start accumulators at 0 or 1 regardless of the scalar type.

A CountingScalar is a Fraction that counts its multiplications, so a test
can pin how much arithmetic a product does without timing it.
"""

from fractions import Fraction
from math import comb

from tfrenorm.errors import ConfigError


def _norm_key(exponents):
    key = tuple(exponents)
    if any(v < 0 for v in key):
        raise ConfigError(f"negative exponent in monomial {key}")
    return () if not any(key) else key


class PolyScalar:
    """Polynomial in displacement components, exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        acc = {}
        for key, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                k = _norm_key(key)
                acc[k] = acc.get(k, Fraction(0)) + coeff
        self.terms = {k: v for k, v in acc.items() if v}

    @classmethod
    def constant(cls, value):
        return cls({(): Fraction(value)})

    @classmethod
    def monomial(cls, exponents, coeff=1):
        return cls({tuple(exponents): Fraction(coeff)})

    def _coerce(self, other):
        if isinstance(other, PolyScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return PolyScalar.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self.terms)
        for k, v in other.terms.items():
            acc[k] = acc.get(k, Fraction(0)) + v
        return PolyScalar(acc)

    __radd__ = __add__

    def __neg__(self):
        return PolyScalar({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _mul_keys(self, k1, k2):
        if not k1:
            return k2
        if not k2:
            return k1
        if len(k1) != len(k2):
            raise ConfigError(f"mixed monomial arities {len(k1)} vs {len(k2)}")
        return _norm_key(x + y for x, y in zip(k1, k2))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = self._mul_keys(k1, k2)
                acc[k] = acc.get(k, Fraction(0)) + v1 * v2
        return PolyScalar(acc)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "PolyScalar(0)"
        bits = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            mono = "*".join(f"z{i}^{p}" for i, p in enumerate(key) if p) or "1"
            bits.append(f"{coeff}*{mono}")
        return "PolyScalar(" + " + ".join(bits) + ")"


def vector_binom(n, m):
    """Componentwise product of binomial coefficients; 0 unless m <= n."""
    if len(n) != len(m):
        raise ConfigError("binomial of vectors with different arities")
    out = 1
    for a, b in zip(n, m):
        if b > a:
            return 0
        out *= comb(a, b)
    return out


class CountingScalar:
    """An exact Fraction that counts, in a shared tally, every
    multiplication it takes part in; sums and products carry the tally on."""

    __slots__ = ("value", "tally")

    def __init__(self, value, tally):
        self.value = Fraction(value)
        self.tally = tally

    @staticmethod
    def _raw(other):
        return other.value if isinstance(other, CountingScalar) else other

    def __mul__(self, other):
        self.tally["mul"] += 1
        return CountingScalar(self.value * self._raw(other), self.tally)

    __rmul__ = __mul__

    def __add__(self, other):
        return CountingScalar(self.value + self._raw(other), self.tally)

    __radd__ = __add__

    def __eq__(self, other):
        return self.value == self._raw(other)

    __hash__ = None

    def __repr__(self):
        return f"CountingScalar({self.value})"
