"""Right-hand-side expansion of the model hierarchy, index by index.

Every populated, non-polynomial multiindex beta without a velocity-zero
slot (that slot is absorbed into the linear operator) labels a centered
model component obeying

    L Pi_beta = Div( sum of terms ),

and ``expand`` produces that sum.  Three families of terms occur:

* quasi   -- for each velocity slot e_k inside beta, k plain factors
             multiplying one third-derivative block GradLap(Pi_..),
* noise   -- for each noise slot f_l inside beta, l plain factors
             multiplying the mollified noise,
* counter -- minus one gradient factor Grad(Pi_..) times a column of the
             renormalisation-constant vector; splitting off an undecorated
             sigma and m plain factors substitutes the row (D0)^m of sigma
             into the column.

A counter term's power m is fixed by sigma through the counterterm
identity: every move of D0 lowers a_weight + b_weight by one and keeps the
slot counts, and a kept column has weight equal to its noise count, so
only m = a_weight(sigma) + b_weight(sigma) - b_count(sigma) can give one.

Each head (e_k, f_l or sigma) leaves beta - head, split into populated
sub-indices: the plain factors, and for quasi and counter terms the
decorated factor too, as one multiset whose distinct parts are each marked
once as the decorated factor.  The underlying sums run over ordered
splittings, so a grouped quasi or noise term carries the number of
orderings of its plain factors, parts!/prod(multiplicities!), and a grouped
counter term -1/prod(multiplicities!) -- the 1/m! of the iterated
substitution cancels against the ordered count.

Terms come out in order without sorting the factors of any term: splits
are nondecreasing tuples of ranks in the sub-index pool, which is sorted
by ``sort_key``, so a term's plain factors are already in order and the
terms sort on int keys: by kind, factor count, plain factors, decorated
factor and counter row, each factor in ``Multiindex.sort_key`` order.  A
coefficient comes from the run lengths of its split.

The right-hand side is alpha-free except for its counter rows: heads,
splits, coefficients and term order depend on beta alone, and alpha only
decides which columns c_gamma a row keeps, those with alpha [gamma] < 2,
that is [gamma] at most ``kept_bracket_bound``.  So the terms are worked
out once per process for each key (beta, mode, bound) and each kept row
once for each (sigma, mode, bound), in two memos that hold immutable
tuples and grow with the distinct keys met (146 in a benchmark ``algebra``
run of 120 jobs).  What depends on alpha or lam beyond the bound runs on
every call, and so does the validation of the arguments: the
triangularity check of each distinct factor and column, whose list the
term memo keeps, and in ``build_dag`` the edges and the topological order.

All coefficients are exact ``Fraction`` values, all derived column
weights are integers and homogeneities are compared as ints; only the
ordering length carries a float, its weight lam.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, prod
from operator import itemgetter

from .errors import ConfigError, ConsistencyError
from .group import d0_power_row
from .indices import (
    e,
    f,
    format_multiindex,
    is_populated,
    is_purely_polynomial,
    keeps_column,
    kept_bracket_bound,
    order_length,
    parse_multiindex,
    scaled_homogeneity,
)

KIND_RANK = {"quasi": 0, "noise": 1, "counter": 2}


@dataclass(frozen=True)
class HierarchyTerm:
    """One grouped term of an expanded right-hand side.

    factors   -- sorted tuple of plain factor indices (a multiset)
    decorated -- argument of the differentiated factor: gradLaplacian for
                 quasi, grad for counter (polynomialGradient when that
                 factor is purely polynomial), absent for noise terms
    noise     -- whether the mollified noise multiplies the term
    c         -- counter terms only: tuple of (gamma, weight) pairs, the
                 slot-raising row substituted into the constant vector
    """

    kind: str
    coeff: Fraction
    factors: tuple
    decorated: object = None
    noise: bool = False
    c: tuple = None

    def derivative(self):
        if self.kind == "quasi":
            return "gradLaplacian"
        if self.kind == "counter":
            if is_purely_polynomial(self.decorated):
                return "polynomialGradient"
            return "grad"
        return None


# ---------------------------------------------------------------------------
# splitting machinery
# ---------------------------------------------------------------------------


def _splits(rest, parts, pool, rank, start=0):
    """Nondecreasing tuples of `parts` pool ranks whose entries sum to rest.

    ``rank`` maps each pool entry to its position; a last part must be rest
    itself, so it is looked up instead of searched for.
    """
    if parts == 0:
        if not rest:
            yield ()
        return
    if parts == 1:
        i = rank.get(rest, -1)
        if i >= start:
            yield (i,)
        return
    for i in range(start, len(pool)):
        r = rest.minus(pool[i])
        if r is None:
            continue
        if parts == 2:  # the last part inline, without a nested generator
            j = rank.get(r, -1)
            if j >= i:
                yield (i, j)
            continue
        for tail in _splits(r, parts - 1, pool, rank, i):
            yield (i,) + tail


def _runs(split):
    """(start, length) of each run of equal ranks in a nondecreasing split."""
    runs, begin = [], 0
    for i in range(1, len(split) + 1):
        if i == len(split) or split[i] != split[begin]:
            runs.append((begin, i - begin))
            begin = i
    return runs


# ---------------------------------------------------------------------------
# the expansion
# ---------------------------------------------------------------------------


def expand(beta, params, mode="raw"):
    """Grouped right-hand-side terms of the beta component, sorted.

    ``mode`` selects the constant columns kept in counter terms: "raw"
    keeps every admissible column, "reduced" additionally drops the
    odd-bracket columns (whose constants vanish by expectation parity).
    The terms come from the process-wide memo keyed by (beta, mode,
    ``kept_bracket_bound(params)``); the arguments are validated and the
    terms checked for triangularity at params on every call, and the list
    returned is the caller's own.
    """
    if mode not in ("raw", "reduced"):
        raise ConfigError(f"unknown counterterm mode {mode!r}")
    if isinstance(beta, str):
        beta = parse_multiindex(beta, expected_arity=params.arity)
    if not is_populated(beta):
        raise ConfigError(f"{format_multiindex(beta)} is not a populated index")
    if is_purely_polynomial(beta):
        raise ConfigError(
            "purely polynomial components are explicit; nothing to expand"
        )
    if beta.a_at(0):
        raise ConfigError(
            "the velocity-zero slot is absorbed into the linear operator"
        )
    for n, _ in beta.p:
        if len(n) != params.arity:
            raise ConfigError(
                f"decoration {n} has arity {len(n)}, expected {params.arity}"
            )
    terms, checks = _right_hand_side(beta, mode, kept_bracket_bound(params))
    _check_triangular(beta, checks, params)
    return list(terms)


@cache
def _counter_row(sigma, m, mode, bound):
    """The kept columns of the row (D0)^m of sigma, sorted; m is fixed by
    sigma, so the memo holds one row per (sigma, mode, bound)."""
    return tuple(sorted(
        ((gamma, w) for gamma, w in d0_power_row(sigma, m).items()
         if keeps_column(gamma, bound, mode)),
        key=lambda t: t[0].sort_key(),
    ))


@cache
def _right_hand_side(beta, mode, bound):
    """The sorted term tuple of a valid beta, whose counter rows keep the
    columns of bracket at most bound, and what its triangularity check
    reads: (index, is a column) for each distinct factor and each column of
    each distinct row, in term order, a term's plain factors before its
    decorated one and its row."""
    subs = beta.sub_indices()[1:]  # without ZERO
    pool = [m for m in subs if is_populated(m)]
    pool.sort(key=lambda m: m.sort_key())
    rank = {m: i for i, m in enumerate(pool)}

    # heads (kind, removed part, plain count, columns): e_k + (k plain) +
    # (1 GradLap factor), f_l + (l plain), and sigma + (m plain) + (1 Grad
    # factor) with m fixed by sigma, each summing to beta
    heads = [("quasi", e(k), k, None) for k, _ in beta.a]
    heads += [("noise", f(l), l, None) for l, _ in beta.b]
    for sigma in subs:
        if sigma.p:
            continue
        m = sigma.a_weight() + sigma.b_weight() - sigma.b_count()
        if m < 0:
            continue
        kept = _counter_row(sigma, m, mode, bound)
        if kept:
            heads.append(("counter", sigma, m, kept))

    # Each term is found as (key, head number, coefficient), with the key
    # (kind rank, factor count, factor ranks, decorated rank).  Pool ranks
    # follow sort_key and (kind, factors, decorated) fixes the head, so the
    # keys order terms by kind, factor count and their factors' sort keys.
    # The plain factors of a nondecreasing split are in order already.
    found = []
    coeffs = {}
    for h, (kind, head, parts, _c) in enumerate(heads):
        kind_rank = KIND_RANK[kind]
        num = -1 if kind == "counter" else factorial(parts)
        for split in _splits(beta.minus(head), parts + (kind != "noise"), pool, rank):
            runs = _runs(split)
            den = prod(factorial(length) for _, length in runs)
            if kind == "noise":
                marks = [(split, (), den)]
            else:
                # each distinct part once as the decorated factor
                marks = [
                    (split[:i] + split[i + 1:], (split[i],), den // length)
                    for i, length in runs
                ]
            for plain, dec, plain_den in marks:
                coeff = coeffs.get((num, plain_den))
                if coeff is None:
                    coeff = coeffs[num, plain_den] = Fraction(num, plain_den)
                found.append(((kind_rank, len(plain)) + plain + dec, h, coeff))

    found.sort(key=itemgetter(0))
    terms, checks = [], []
    seen, seen_rows = set(), set()
    for key, h, coeff in found:
        kind, _head, _parts, c = heads[h]
        factors = tuple([pool[r] for r in key[2:2 + key[1]]])
        noise = kind == "noise"
        decorated = None if noise else pool[key[-1]]
        terms.append(HierarchyTerm(kind, coeff, factors, decorated, noise, c))
        for r in key[2:]:  # the plain factors, then the decorated one
            if r not in seen:
                seen.add(r)
                checks.append((pool[r], False))
        if c is not None and h not in seen_rows:
            seen_rows.add(h)
            checks += [(gamma, True) for gamma, _w in c]
    return tuple(terms), tuple(checks)


def _check_triangular(beta, checks, params):
    """Check each factor and constant column that ``_right_hand_side``
    lists against beta, in its order."""
    hom_b = scaled_homogeneity(beta, params)
    len_b = order_length(beta, params)
    for m, column in checks:
        if column:
            if not order_length(m, params) < len_b:
                raise ConsistencyError(
                    f"constant column {format_multiindex(m)} of "
                    f"{format_multiindex(beta)} violates triangularity"
                )
        elif not (
            scaled_homogeneity(m, params) < hom_b and order_length(m, params) < len_b
        ):
            raise ConsistencyError(
                f"factor {format_multiindex(m)} of {format_multiindex(beta)} "
                "violates triangularity"
            )


# ---------------------------------------------------------------------------
# dependency structure
# ---------------------------------------------------------------------------


def _by_homogeneity(indices, params):
    return sorted(indices, key=lambda m: (scaled_homogeneity(m, params), m.sort_key()))


def _components(terms, params):
    """Model components of an expanded right-hand side, sorted."""
    deps = set()
    for t in terms:
        deps.update(t.factors)
        if t.decorated is not None:
            deps.add(t.decorated)
    return _by_homogeneity(deps, params)


def dependencies(beta, params, mode="raw"):
    """Model components appearing on the right-hand side of beta, sorted."""
    return _components(expand(beta, params, mode), params)


def c_dependencies(beta, params, mode="raw"):
    """Constant columns appearing on the right-hand side of beta, sorted.

    Asserts the recentering bound on every column gamma: adding one unit
    decoration to gamma still stays strictly below beta in the ordering
    length, except in the pure-substitution case where the term is a bare
    polynomial gradient and gamma plus that decoration equals beta exactly.
    """
    if isinstance(beta, str):
        beta = parse_multiindex(beta, expected_arity=params.arity)
    deps = set()
    len_b = order_length(beta, params)
    for t in expand(beta, params, mode):
        for gamma, _w in t.c or ():
            exact = (
                not t.factors
                and is_purely_polynomial(t.decorated)
                and gamma + t.decorated == beta
            )
            if not exact and not order_length(gamma, params) + params.lam < len_b:
                raise ConsistencyError(
                    f"constant column {format_multiindex(gamma)} of "
                    f"{format_multiindex(beta)} violates the recentering bound"
                )
            deps.add(gamma)
    return _by_homogeneity(deps, params)


@dataclass(frozen=True)
class HierarchyDag:
    """Dependency graph of the populated indices below a cutoff.

    nodes      -- every populated index below the cutoff, sorted by
                  homogeneity; purely polynomial indices are leaves
    expansions -- beta -> grouped term list, for the non-polynomial nodes
    edges      -- beta -> sorted right-hand-side components (empty for
                  leaves), always pointing to strictly shorter indices
    topo_order -- nodes sorted by ordering length (leaves first), a
                  topological order of the edge relation
    """

    nodes: tuple
    expansions: dict
    edges: dict
    topo_order: tuple

    def __iter__(self):
        return iter(self.expansions)

    def __getitem__(self, beta):
        return self.expansions[beta]

    def items(self):
        return self.expansions.items()


def build_dag(params, cutoff, mode="raw", max_count=200_000):
    """Expand every populated non-polynomial index below the cutoff.

    Each node's terms come from ``expand``, so a node met before in the
    process, at any alpha with the same ``kept_bracket_bound``, costs only
    its triangularity check; the nodes, edges and topological order are
    worked out at params on every build.

    Expansions may reference purely polynomial components (explicit
    centered monomials) and indices of homogeneity above the cutoff; both
    appear as edge targets only when they are themselves below the cutoff,
    keeping the graph closed.  ``expand`` checks that every component
    strictly decreases the ordering length, which makes the graph acyclic
    by construction.
    """
    from .indices import enumerate_populated

    nodes = enumerate_populated(params, cutoff, max_count=max_count)
    node_set = set(nodes)
    expansions = {}
    edges = {}
    for beta in nodes:
        if is_purely_polynomial(beta):
            edges[beta] = []
            continue
        expansions[beta] = expand(beta, params, mode)
        edges[beta] = [
            m for m in _components(expansions[beta], params) if m in node_set
        ]
    topo = sorted(
        nodes,
        key=lambda m: (order_length(m, params), scaled_homogeneity(m, params), m.sort_key()),
    )
    return HierarchyDag(tuple(nodes), expansions, edges, tuple(topo))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_term(term):
    bits = [f"Pi[{format_multiindex(m)}]" for m in term.factors]
    if term.kind == "quasi":
        bits.append(f"GradLap(Pi[{format_multiindex(term.decorated)}])")
    elif term.kind == "counter":
        bits.append(f"Grad(Pi[{format_multiindex(term.decorated)}])")
    if term.noise:
        bits.append("xi")
    if term.c:
        inner = " + ".join(
            (f"{w}*" if w != 1 else "") + f"c[{format_multiindex(gamma)}]"
            for gamma, w in term.c
        )
        bits.append(f"({inner})" if len(term.c) > 1 else inner)
    body = "*".join(bits) if bits else "1"
    if term.coeff == 1:
        return body
    if term.coeff == -1:
        return f"-{body}"
    return f"{term.coeff}*{body}"


def render_expansion(beta, terms):
    if not terms:
        return f"L*Pi[{format_multiindex(beta)}] = 0"
    parts = [render_term(t) for t in terms]
    rhs = parts[0]
    for p in parts[1:]:
        rhs += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return f"L*Pi[{format_multiindex(beta)}] = Div({rhs})"


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def term_to_json(term):
    doc = {
        "kind": term.kind,
        "coeff": str(term.coeff),
        "factors": [format_multiindex(m) for m in term.factors],
        "decorated": None,
        "noise": term.noise,
        "c": None,
    }
    if term.decorated is not None:
        doc["decorated"] = {
            "beta": format_multiindex(term.decorated),
            "dec": term.derivative(),
        }
    if term.c is not None:
        doc["c"] = [
            {"gamma": format_multiindex(gamma), "weight": w} for gamma, w in term.c
        ]
    return doc


def expansion_to_json(params, entries, mode="raw"):
    """Serialise a mapping beta -> term list (document order = input order)."""
    return {
        "alpha": params.alpha,
        "d": params.d,
        "lam": params.lam,
        "mode": mode,
        "entries": [
            {
                "beta": format_multiindex(beta),
                "terms": [term_to_json(t) for t in terms],
            }
            for beta, terms in entries.items()
        ],
    }
