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

Gamma* is linear, so one walk over the words of a basis column z^gamma,
``StructureMap._words``, serves both readers: ``gamma_apply`` adds c times
the column of gamma for each term c z^gamma, and ``gamma_entry`` reads one
column cut just above its row.  The walk goes depth first over the
multisets in the sorted letters (n, support) of ``StructureMap.letters()``,
with a letter index that never decreases: only the last letter taken
repeats, and its repeat count gives the multiplicities.  Each map keeps a
trie of the words its walks have reached, one node per word with its
coefficient pi^w / prod(multiplicities!) and its shift, the sum of its
supports, which moves every output of the word.  The walk carries
D^w z^gamma, which depends on gamma and the n-word alone, on neither alpha
nor the map, so it is kept for the process, keyed by (gamma, n-word):
D^(n) runs once per index and n-word.  The letters of one n form a run.
The walk skips a run whose derived series is empty, or whose smallest gap
|support| - |n| > 0 does not fit the room left, before it steps on any of
its letters, and prunes every other letter on its exact int gap.

The derivations multiply by their int slot counts, and not at all by a
count of 1, so a basis column keeps int coefficients until the first
pi value; a ``StructureMap`` holds int pi values as ``Fraction``, so an
entry of an exact map is a ``Fraction`` off the diagonal, whose empty word
gives the int 1.

A Gamma* output is exact only below its cutoff: the terms above it miss
the words the walk cut.  So a ``SeriesVector`` records the cutoff
below which it is exact, as (params, q-scaled limit); ``gamma_apply`` and
``truncate`` set it, and ``series_mul`` forms only the pairs whose sum
lies below the smaller cutoff of its operands.  Homogeneity is additive
up to the alpha offset, q|m1 + m2| = q|m1| + q|m2| - p, so that is one
int comparison per pair.  Sums and the derivations return series with no
cutoff, exact everywhere.

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
    e,
    f,
    g,
    format_multiindex,
    is_populated,
    parse_multiindex,
    scaled_cutoff,
    scaled_homogeneity,
)


# ---------------------------------------------------------------------------
# series vectors
# ---------------------------------------------------------------------------


class SeriesVector:
    """Finitely supported map Multiindex -> scalar.

    ``cutoff`` is None for a series exact everywhere, or (params, limit)
    for one exact only on the indices with q|beta| < limit.
    """

    __slots__ = ("coeffs", "cutoff")

    def __init__(self, coeffs=None):
        self.coeffs = {}
        self.cutoff = None
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
        """The terms with |beta| < cutoff; the result is exact below the
        smaller of that cutoff and its own."""
        limit = scaled_cutoff(cutoff, params)
        out = SeriesVector(
            {m: v for m, v in self.coeffs.items() if scaled_homogeneity(m, params) < limit}
        )
        out.cutoff = _smaller_cutoff(self.cutoff, (params, limit))
        return out

    def __repr__(self):
        bits = [
            f"{format_multiindex(m)}: {v}"
            for m, v in sorted(self.coeffs.items(), key=lambda t: t[0].sort_key())
        ]
        return "SeriesVector({" + ", ".join(bits) + "})"


def _smaller_cutoff(a, b):
    """The smaller of two (params, limit) cutoffs, None standing for none."""
    if a is None or b is None:
        return b if a is None else a
    if a[0] != b[0]:
        raise ConfigError(f"series cut under different parameters: {a[0]} and {b[0]}")
    return a if a[1] <= b[1] else b


def series_mul(x, y):
    """Cauchy product: (x*y)_beta = sum over splittings of beta.

    The product is exact below the smaller cutoff of its operands, and only
    the pairs whose sum lies below it are formed: q|m1 + m2| = q|m1| +
    q|m2| - p, one int comparison per pair on homogeneities worked out once
    per term.  The pairs keep their order, so the result is the full
    product followed by ``truncate``, float bits included.  Operands cut
    under different parameters are a ConfigError.
    """
    cutoff = _smaller_cutoff(x.cutoff, y.cutoff)
    if cutoff is None:
        ys = [(m2, v2, 0) for m2, v2 in y.items()]
        rooms = [(m1, v1, 1) for m1, v1 in x.items()]  # every pair is formed
    else:
        params, limit = cutoff
        limit += params.alpha_ratio[0]
        ys = [(m2, v2, scaled_homogeneity(m2, params)) for m2, v2 in y.items()]
        rooms = [(m1, v1, limit - scaled_homogeneity(m1, params)) for m1, v1 in x.items()]
    acc = {}
    for m1, v1, room in rooms:
        for m2, v2, h2 in ys:
            if h2 < room:
                m = m1 + m2
                cur = acc.get(m)
                acc[m] = v1 * v2 if cur is None else cur + v1 * v2
    out = SeriesVector(acc)  # which drops the zero sums
    out.cutoff = cutoff
    return out


def basis(m):
    return SeriesVector({m: 1})


# ---------------------------------------------------------------------------
# derivations, forward (column) form: operator applied to a series
# ---------------------------------------------------------------------------


def d0_apply(series):
    """D0 applied to a series (shift one slot up, weighted by an int)."""
    out = SeriesVector()
    for gamma, v in series.items():
        for k, c in gamma.a:
            w = (k + 1) * c
            out.add_term(gamma.minus(e(k)) + e(k + 1), v if w == 1 else v * w)
        for l, c in gamma.b:
            w = (l + 1) * c
            out.add_term(gamma.minus(f(l)) + f(l + 1), v if w == 1 else v * w)
    return out


def dn_apply(series, n):
    """D^(n) applied to a series (remove one decoration n, weighted by its
    int count)."""
    if not any(n):
        return d0_apply(series)
    out = SeriesVector()
    n = tuple(n)
    gn = g(n)
    for gamma, v in series.items():
        c = gamma.p_at(n)
        if c:
            out.add_term(gamma.minus(gn), v if c == 1 else v * c)
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


class _Word:
    """One word of Gamma*, a letter multiset, as a node of its map's trie.

    ``coef`` is pi^w / w!, ``shift`` the sum of the supports, ``nword`` the
    n of each letter in walk order, ``last`` the index of the last letter
    and ``reps`` its multiplicity; ``value`` and ``fact`` are pi^w and w!,
    kept to form the children, which ``kids`` holds by letter index.
    """

    __slots__ = ("coef", "shift", "nword", "last", "reps", "value", "fact", "kids")

    def __init__(self, value, fact, shift, nword, last, reps):
        # an int factor 1 is not applied: the empty word's coefficient
        # stays the int 1, the diagonal of an exact column
        self.coef = value if fact == 1 else value * Fraction(1, fact)
        self.value, self.fact = value, fact
        self.shift, self.nword = shift, nword
        self.last, self.reps = last, reps
        self.kids = {}


class StructureMap:
    """Scalar families pi^(n) defining a recentering map.

    ``pi`` maps decoration vectors n (tuples, zero allowed) to dicts
    Multiindex -> scalar; both levels are read-only views, because the
    map holds its sorted letters and their gaps, as q|support| - q|n| for
    alpha = p/q, the runs of letters of one n with their smallest gaps,
    and the trie of the words its walks have reached; the letters hold
    int values as ``Fraction``.  The trie starts at the empty word and
    grows by one node the first time a walk steps on a word; it lives and
    dies with its map, and copies and pickles start a fresh one.
    Admissibility: every support index is populated with homogeneity
    strictly above the anisotropic degree of its n.
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
        # an int value is held as a Fraction, so that the products of int
        # derivation weights with it keep the type of an exact entry
        self._letters = tuple(
            (n, m, Fraction(v) if isinstance(v, int) else v)
            for n in sorted(clean)
            for m, v in sorted(clean[n].items(), key=lambda t: t[0].sort_key())
        )
        self._gaps = tuple(scaled_homogeneity(m, params) - q * aniso_degree(n)
                           for n, m, _v in self._letters)
        # the letters of each n as one run: (n, start, end, min gap)
        runs, start = [], 0
        for n in sorted(clean):
            end = start + len(clean[n])
            runs.append((n, start, end, min(self._gaps[start:end])))
            start = end
        # the runs a word whose last letter is i goes on with, from i
        self._runs_from = tuple(
            tuple((n, max(first, i), end, min_gap) for n, first, end, min_gap in runs if end > i)
            for i in range(len(self._letters) or 1)
        )
        self._root = _Word(1, 1, ZERO, (), 0, 0)

    def __reduce__(self):
        # copies and pickles are rebuilt, letters, gaps and runs included,
        # with a trie that holds the empty word alone
        return (StructureMap, (self.params, {n: dict(es) for n, es in self.pi.items()}))

    def letters(self):
        """Flat list of (n, support index, value), deterministic order; an
        int value comes back as a Fraction."""
        return list(self._letters)

    def _child(self, word, idx, nword):
        """The node of word + letters[idx], made on first use."""
        _n, m, v = self._letters[idx]
        mult = word.reps + 1 if idx == word.last else 1
        kid = word.kids[idx] = _Word(word.value * v, word.fact * mult, word.shift + m, nword,
                                     idx, mult)
        return kid

    def _words(self, gamma, room):
        """Pre-order walk of the column z^gamma: yields (word, derived
        series) for each word whose gap sum stays below room, the empty word
        first.  A run of letters is skipped whole when its smallest gap does
        not fit the room left or its derived series, read from or added to
        the memo at gamma, is empty."""
        gaps, runs_from = self._gaps, self._runs_from
        derived = _BASIS_DERIVED.get(gamma)
        if derived is None:
            derived = _BASIS_DERIVED[gamma] = {(): basis(gamma)}
        stack = [(self._root, derived[()], room)]
        while stack:
            word, dser, room = stack.pop()
            yield word, dser
            kids, steps = word.kids, []
            for n, first, end, min_gap in runs_from[word.last]:
                if min_gap >= room:
                    continue
                nword = word.nword + (n,)
                nser = derived.get(nword)
                if nser is None:
                    nser = derived[nword] = dn_apply(dser, n)
                if not nser.coeffs:
                    continue
                for idx in range(first, end):
                    gap = gaps[idx]
                    if gap < room:
                        steps.append((kids.get(idx) or self._child(word, idx, nword), nser,
                                      room - gap))
            stack.extend(reversed(steps))


# gamma -> n-word w -> D^w z^gamma, for the n-words the column walks have
# reached, () included.  The derivations depend on neither alpha nor the
# map, so the entries hold for every walk in the process.
_BASIS_DERIVED = {}


def gamma_entry(beta, gamma, smap):
    """Matrix entry (Gamma*)_beta^gamma of the recentering map.

    The column of gamma cut just above |beta|, read at beta: the walk of
    ``gamma_apply`` with room q|beta| + 1 - q|gamma|, so every word whose
    outputs lie at or below |beta|.  A shorter column walks a prefix of the
    same words in the same order, so the entry sums the same terms as the
    column's entry, in its order, and equals it bit for bit.  The diagonal
    is the empty word's int 1.
    """
    params = smap.params
    room = scaled_homogeneity(beta, params) + 1 - scaled_homogeneity(gamma, params)
    out = SeriesVector()
    for word, dser in smap._words(gamma, room):
        v = dser.coeffs.get(beta.minus(word.shift))
        if v is not None:
            out.add_term(beta, word.coef if v.__class__ is int and v == 1 else word.coef * v)
    return out.get(beta, 0)


def gamma_apply(series, smap, cutoff):
    """Apply the recentering map to a finitely supported series: c times
    the column of gamma for each term c z^gamma.  A column's word puts its
    outputs at |gamma| + its gap sum (each D^(n) adds alpha - |n| and each
    pi value |support| - alpha), so the room limit - q|gamma| keeps exactly
    the outputs below the cutoff, and a term at or above it adds nothing.
    The result is exact below the cutoff for series supported on indices of
    homogeneity >= alpha (populated or purely polynomial supports qualify),
    and below the series' own cutoff, if it has one; it records the smaller
    of the two.
    """
    params = smap.params
    limit = scaled_cutoff(cutoff, params)
    out = SeriesVector()
    out.cutoff = _smaller_cutoff(series.cutoff, (params, limit))
    for gamma, c in series.items():
        room = limit - scaled_homogeneity(gamma, params)
        if room <= 0:
            continue
        # an int coefficient 1 keeps a value as it is (a float 1.0 must
        # still turn a Fraction one into a float)
        unit = c.__class__ is int and c == 1
        for word, dser in smap._words(gamma, room):
            coef, shift = word.coef, word.shift
            for m, v in dser.coeffs.items():
                value = coef if v.__class__ is int and v == 1 else coef * v
                out.add_term(m + shift, value if unit else c * value)
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
    params = smap.params
    return {
        "alpha": str(params.alpha),
        "d": params.d,
        "lam": params.lam,
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


def structure_map_from_json(doc):
    """Inverse of structure_map_to_json; a malformed document is a ConfigError."""
    from .indices import ModelParams

    try:
        params = ModelParams(alpha=Fraction(str(doc["alpha"])), d=doc["d"],
                             lam=float(doc.get("lam", 0.4)))
        pi = {
            tuple(int(i) for i in fam["n"]): {
                parse_multiindex(ent["beta"], expected_arity=params.arity):
                    _value_from_json(ent["value"])
                for ent in fam["entries"]
            }
            for fam in doc["families"]
        }
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(
            f"malformed structure map: {type(exc).__name__}: {exc}"
        ) from None
    return StructureMap(params, pi)
