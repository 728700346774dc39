"""Structure group: derivations on the index algebra and the recentering map.

The two derivation families act on the polynomial algebra in the slot
variables by

    D0      : shifts one velocity or noise slot up by one,
              (D0)_beta^gamma = sum_k (k+1) gamma(k) [beta = gamma - e_k + e_{k+1}]
                              + sum_l (l+1) gamma(l) [beta = gamma - f_l + f_{l+1}]
    D^(n)   : removes one decoration n (n != 0),
              (D^(n))_beta^gamma = gamma(n) [beta = gamma - g_n]

and the recentering map is the exponential

    Gamma* = sum_{j>=0} (1/j!) sum_{n_1..n_j} pi^(n_1)..pi^(n_j) D^(n_1)..D^(n_j)

with scalar families pi^(n) supported on populated indices of homogeneity
strictly above |n| (the admissibility contract).  The n = 0 letter pairs
pi^(0) with D0.  All the D's commute, so the word sum collapses onto
multisets of letters with coefficient 1/prod(multiplicities!).

There is one Gamma* recursion, ``gamma_apply``.  It walks these multisets
depth first over the letters (n, support) of ``StructureMap.letters()``,
sorted by n and then by support, with a letter index that never
decreases: only the last letter taken can repeat, and its repeat count
gives the multiplicities.  Each step carries the series with its word so
far applied.  D^(n) depends on n alone, not on the support, so the
adjacent letters of one n share one D^(n) application per step.  Every
letter raises the homogeneity by its gap |support| - |n| > 0, and the
recursion prunes on the exact int gaps that a ``StructureMap`` works out
once, when it is made.  ``gamma_entry`` reads one entry off a column cut
just above the row's homogeneity.

Scalars are generic: float for numerics, Fraction for exact runs; any ring
that multiplies with Fraction and compares with 0 works (the tests use
polynomial scalars).
"""

from fractions import Fraction
from types import MappingProxyType

from .errors import ConfigError
from .indices import (
    ZERO,
    aniso_degree,
    bracket,
    e,
    f,
    g,
    format_multiindex,
    is_populated,
    parse_multiindex,
    poly_weight,
    scaled_cutoff,
    scaled_homogeneity,
)


# ---------------------------------------------------------------------------
# series vectors
# ---------------------------------------------------------------------------


class SeriesVector:
    """Finitely supported map Multiindex -> scalar."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        for m, v in (coeffs or {}).items():
            self.add_term(m, v)

    def add_term(self, m, v):
        cur = self.coeffs.get(m)
        new = v if cur is None else cur + v
        if new == 0:
            self.coeffs.pop(m, None)
        else:
            self.coeffs[m] = new

    def items(self):
        return self.coeffs.items()

    def get(self, m, default=0):
        return self.coeffs.get(m, default)

    def __add__(self, other):
        out = SeriesVector(dict(self.coeffs))
        for m, v in other.items():
            out.add_term(m, v)
        return out

    def __len__(self):
        return len(self.coeffs)

    def truncate(self, params, cutoff):
        limit = scaled_cutoff(cutoff, params)
        return SeriesVector(
            {m: v for m, v in self.coeffs.items() if scaled_homogeneity(m, params) < limit}
        )

    def __repr__(self):
        bits = [
            f"{format_multiindex(m)}: {v}"
            for m, v in sorted(self.coeffs.items(), key=lambda t: t[0].sort_key())
        ]
        return "SeriesVector({" + ", ".join(bits) + "})"


def series_mul(x, y):
    """Cauchy product: (x*y)_beta = sum over splittings of beta."""
    acc = {}
    for m1, v1 in x.items():
        for m2, v2 in y.items():
            m = m1 + m2
            cur = acc.get(m)
            acc[m] = v1 * v2 if cur is None else cur + v1 * v2
    return SeriesVector(acc)  # which drops the zero sums


def basis(m):
    return SeriesVector({m: 1})


# ---------------------------------------------------------------------------
# derivations, forward (column) form: operator applied to a series
# ---------------------------------------------------------------------------


def d0_apply(series):
    """D0 applied to a series (shift one slot up, weighted)."""
    out = SeriesVector()
    for gamma, v in series.items():
        for k, c in gamma.a:
            shifted = gamma.minus(e(k)) + e(k + 1)
            out.add_term(shifted, v * Fraction((k + 1) * c))
        for l, c in gamma.b:
            shifted = gamma.minus(f(l)) + f(l + 1)
            out.add_term(shifted, v * Fraction((l + 1) * c))
    return out


def dn_apply(series, n):
    """D^(n) applied to a series (remove one decoration n)."""
    if not any(n):
        return d0_apply(series)
    out = SeriesVector()
    n = tuple(n)
    gn = g(n)
    for gamma, v in series.items():
        c = gamma.p_at(n)
        if c:
            out.add_term(gamma.minus(gn), v * Fraction(c))
    return out


def d0_power_row(beta, m):
    """Row of (D0)^m at row index beta: dict gamma -> ((D0)^m)_beta^gamma.

    Computed by walking the m down-moves from beta: (D0)_beta^sigma is
    nonzero only for sigma = beta - e_{k+1} + e_k or sigma = beta - f_{l+1}
    + f_l, with entry (k+1) (beta(k)+1) resp. (l+1) (beta(l)+1).
    """
    row = {beta: 1}
    for _ in range(m):
        nxt = {}
        for idx, val in row.items():
            for k1, _c in idx.a:
                if k1 == 0:
                    continue
                k = k1 - 1
                sigma = idx.minus(e(k1)) + e(k)
                weight = (k + 1) * sigma.a_at(k)
                nxt[sigma] = nxt.get(sigma, 0) + val * weight
            for l1, _c in idx.b:
                if l1 == 0:
                    continue
                l = l1 - 1
                sigma = idx.minus(f(l1)) + f(l)
                weight = (l + 1) * sigma.b_at(l)
                nxt[sigma] = nxt.get(sigma, 0) + val * weight
        row = nxt
    return row


# ---------------------------------------------------------------------------
# the structure map
# ---------------------------------------------------------------------------


class StructureMap:
    """Scalar families pi^(n) defining a recentering map.

    ``pi`` maps decoration vectors n (tuples, zero allowed) to dicts
    Multiindex -> scalar; both levels are read-only views, because the
    map holds its sorted letters and their gaps, as q|support| - q|n| for
    alpha = p/q.  Admissibility: every support index is populated with
    homogeneity strictly above the anisotropic degree of its n.
    """

    def __init__(self, params, pi):
        self.params = params
        q = params.alpha_ratio[1]
        clean = {}
        for n, entries in pi.items():
            n = tuple(n)
            if len(n) != params.arity:
                raise ConfigError(f"letter {n} has arity {len(n)}, expected {params.arity}")
            kept = {}
            for m, v in entries.items():
                if v == 0:
                    continue
                if not is_populated(m):
                    raise ConfigError(
                        f"pi^{n} supported on unpopulated index {format_multiindex(m)}"
                    )
                if scaled_homogeneity(m, params) <= q * aniso_degree(n):
                    raise ConfigError(
                        f"pi^{n} entry {format_multiindex(m)} violates the "
                        f"homogeneity admissibility |beta| > |n|"
                    )
                kept[m] = v
            if kept:
                clean[n] = MappingProxyType(kept)
        self.pi = MappingProxyType(clean)
        self._letters = tuple(
            (n, m, clean[n][m])
            for n in sorted(clean)
            for m in sorted(clean[n], key=lambda t: t.sort_key())
        )
        self._gaps = tuple(
            scaled_homogeneity(m, params) - q * aniso_degree(n) for n, m, _v in self._letters
        )

    def __reduce__(self):
        # copies and pickles are rebuilt, letters and gaps included
        return (StructureMap, (self.params, {n: dict(es) for n, es in self.pi.items()}))

    def letters(self):
        """Flat list of (n, support index, value), deterministic order."""
        return list(self._letters)


def gamma_entry(beta, gamma, smap):
    """Matrix entry (Gamma*)_beta^gamma of the recentering map.

    Read off the column of gamma cut just above |beta|: every word raises
    the homogeneity by its letter gaps, so the cut keeps every word that
    reaches beta.  The diagonal is the empty word's int 1.
    """
    params = smap.params
    cut = Fraction(scaled_homogeneity(beta, params) + 1, params.alpha_ratio[1])
    return gamma_apply(basis(gamma), smap, cut).get(beta, 0)


def gamma_apply(series, smap, cutoff):
    """Apply the recentering map to a finitely supported series.

    Pruning uses the exact identity hom(output) = hom(input index) + sum of
    letter gaps (gap = |support| - |n|): every D^(n) shifts homogeneity by
    alpha - |n| and every pi-multiplication by |support| - alpha, so only
    the gaps accumulate.  Gaps are strictly positive by admissibility, so
    the recursion terminates.  Every comparison is on ints q|.| for
    alpha = p/q.  The result is exact below the cutoff for series supported
    on indices of homogeneity >= alpha (populated or purely polynomial
    supports qualify).
    """
    params = smap.params
    p, q = params.alpha_ratio
    limit = scaled_cutoff(cutoff, params)
    letters, gaps = smap._letters, smap._gaps
    out = SeriesVector()
    if not len(series):
        return out
    min_hom0 = min(scaled_homogeneity(m, params) for m, _ in series.items())

    def contribute(dser, shift, value, fact):
        inv = Fraction(1, fact)
        # q|m + shift| = q|m| + p[shift] + q|shift|_p, so q|m| (inlined) must
        # stay below m_limit
        m_limit = limit - p * bracket(shift) - q * poly_weight(shift)
        for m, v in dser.items():
            if p * (1 + m._a_weight + m._b_weight - m._p_count) + q * m._poly_weight < m_limit:
                term = value * v
                # no factor 1/1, so the diagonal of a basis column stays the int 1
                out.add_term(m + shift, term if fact == 1 else term * inv)

    def rec(i, dser, shift, value, fact, room, reps):
        # room: what the letters still taken may add to the gaps; reps: how
        # often the last letter taken, letters[i], occurs so far
        contribute(dser, shift, value, fact)
        last_n = None
        for idx in range(i, len(letters)):
            gap = gaps[idx]
            if gap >= room:
                continue
            n, m, v = letters[idx]
            if n != last_n:
                last_n, nser = n, dn_apply(dser, n)
            if not len(nser):
                continue
            mult = reps + 1 if idx == i else 1
            rec(idx, nser, shift + m, value * v, fact * mult, room - gap, mult)

    rec(0, series, ZERO, 1, 1, limit - min_hom0, 0)
    return out


# ---------------------------------------------------------------------------
# JSON round trip (numeric scalars only)
# ---------------------------------------------------------------------------


def structure_map_to_json(smap):
    families = []
    for n in sorted(smap.pi):
        entries = [
            {"beta": format_multiindex(m), "value": _value_to_json(v)}
            for m, v in sorted(smap.pi[n].items(), key=lambda t: t[0].sort_key())
        ]
        families.append({"n": list(n), "entries": entries})
    return {
        "alpha": smap.params.alpha,
        "d": smap.params.d,
        "lam": smap.params.lam,
        "families": families,
    }


def _value_to_json(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (int, float)):
        return v
    raise ConfigError(f"cannot serialise scalar of type {type(v).__name__}")


def _value_from_json(v):
    if isinstance(v, str):
        num, _, den = v.partition("/")
        try:
            return Fraction(int(num), int(den or "1"))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"structure-map value {v!r} is not a fraction") from None
    if type(v) in (int, float):
        return v
    raise ConfigError(f"structure-map value {v!r} is not a number or a fraction string")


def structure_map_from_json(doc, params=None):
    """Inverse of structure_map_to_json; a malformed document is a ConfigError."""
    from .indices import ModelParams

    try:
        if params is None:
            params = ModelParams(
                alpha=float(doc["alpha"]), d=doc["d"], lam=float(doc.get("lam", 0.4))
            )
        pi = {
            tuple(int(i) for i in fam["n"]): {
                parse_multiindex(ent["beta"], expected_arity=params.arity):
                    _value_from_json(ent["value"])
                for ent in fam["entries"]
            }
            for fam in doc["families"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"malformed structure map: {type(exc).__name__}: {exc}"
        ) from None
    return StructureMap(params, pi)
