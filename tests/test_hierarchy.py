"""Right-hand-side expansion: golden displays, structure and serialisation."""

import json
import re
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import brute_force_expansion, hierarchy_term_sort_key
from tfrenorm import hierarchy, indices
from tfrenorm.errors import ConfigError, ConsistencyError
from tfrenorm.group import d0_power_row
from tfrenorm.hierarchy import (
    KIND_RANK,
    HierarchyTerm,
    build_dag,
    c_dependencies,
    dependencies,
    expand,
    expansion_to_json,
    render_expansion,
    render_term,
    term_to_json,
)
from tfrenorm.indices import (
    ModelParams,
    ZERO,
    e,
    enumerate_populated,
    f,
    format_multiindex,
    homogeneity,
    is_purely_polynomial,
    keeps_counterterm,
    kept_bracket_bound,
    order_length,
    parse_multiindex,
)

PARAMS = ModelParams(alpha=0.55, d=1)
P = parse_multiindex


def clear_memos():
    hierarchy._right_hand_side.cache_clear()
    hierarchy._counter_row.cache_clear()
    indices._LAYERS.clear()


@pytest.fixture
def cleared_memos():
    """Start from empty expansion and enumeration memos, so that a test
    counting calls sees every one the expansions and searches make."""
    clear_memos()


def term_from_json(doc, arity=None):
    """Parse one serialised term, checking its kind and derivative tag."""
    kind = doc["kind"]
    if kind not in KIND_RANK:
        raise ConfigError(f"unknown term kind {kind!r}")
    decorated = None
    if doc.get("decorated") is not None:
        decorated = parse_multiindex(doc["decorated"]["beta"], expected_arity=arity)
    elif kind in ("quasi", "counter"):
        raise ConfigError(f"{kind} terms need a decorated factor")
    c = None
    if doc.get("c") is not None:
        c = tuple(
            (parse_multiindex(ent["gamma"], expected_arity=arity), int(ent["weight"]))
            for ent in doc["c"]
        )
    factors = tuple(parse_multiindex(s, expected_arity=arity) for s in doc["factors"])
    term = HierarchyTerm(
        kind, Fraction(doc["coeff"]), factors, decorated, bool(doc.get("noise")), c
    )
    if doc.get("decorated") is not None:
        tag = doc["decorated"].get("dec")
        if tag != term.derivative():
            raise ConfigError(
                f"derivative tag {tag!r} does not match kind {kind!r} "
                f"(expected {term.derivative()!r})"
            )
    return term


def canon(t):
    """Hashable normal form used for multiset comparison of term lists."""
    return (
        t.kind,
        t.coeff,
        tuple(sorted(t.factors, key=lambda m: m.sort_key())),
        t.decorated,
        t.noise,
        tuple(sorted(t.c, key=lambda c: c[0].sort_key())) if t.c else None,
    )


def expansion_from_json(doc):
    """Parse a serialised expansion; returns (meta, {beta: [terms]})."""
    meta = {key: doc[key] for key in ("alpha", "d", "lam", "mode")}
    arity = 1 + meta["d"]
    entries = {}
    for ent in doc["entries"]:
        beta = parse_multiindex(ent["beta"], expected_arity=arity)
        entries[beta] = [term_from_json(t, arity=arity) for t in ent["terms"]]
    return meta, entries


def same_terms(got, want):
    """Multiset equality of two term lists (exact coefficients)."""
    return Counter(map(canon, got)) == Counter(map(canon, want))


def fixture_doc():
    from importlib import resources

    path = resources.files("tfrenorm") / "fixtures" / "hierarchy.json"
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# golden displays
# ---------------------------------------------------------------------------


def test_the_ten_reference_expansions_exactly():
    meta, entries = expansion_from_json(fixture_doc())
    params = ModelParams(alpha=meta["alpha"], d=meta["d"], lam=meta["lam"])
    assert len(entries) == 10
    for beta, want in entries.items():
        got = expand(beta, params, mode=meta["mode"])
        assert same_terms(got, want), format_multiindex(beta)


def test_reference_term_counts():
    counts = {
        "f0": 1,
        "f0+f1": 2,
        "f1+g(0,1)": 2,
        "e1+2f0": 2,
        "e1+f0+g(0,1)": 3,
        "2f1+g(0,1)": 3,
        "f0+f2+g(0,1)": 4,
        "e2+2f0+g(0,1)": 5,
        "2e1+2f0+g(0,1)": 8,
        "e1+f0+f1+g(0,1)": 10,
    }
    for s, n in counts.items():
        assert len(expand(P(s), PARAMS)) == n, s


def test_first_component_is_bare_noise():
    (term,) = expand(P("f0"), PARAMS)
    assert term.kind == "noise" and term.noise and not term.factors
    assert term.coeff == 1


def test_substituted_rows_in_the_deep_displays():
    # the slot-raising substitutions entering the depth-three displays
    two_entry = [
        t
        for t in expand(P("e1+f0+f1+g(0,1)"), PARAMS)
        if t.kind == "counter" and len(t.c or ()) == 2
    ]
    assert len(two_entry) == 2
    for t in two_entry:
        got = {(format_multiindex(gm), w) for gm, w in t.c}
        assert got == {("e0+f1", 1), ("e1+f0", 1)}

    doubled = [
        t
        for t in expand(P("e2+2f0+g(0,1)"), PARAMS)
        if t.kind == "counter" and t.factors
    ]
    assert len(doubled) == 2
    for t in doubled:
        assert [(format_multiindex(gm), w) for gm, w in t.c] == [("e1+f0", 2)]


# ---------------------------------------------------------------------------
# structural properties on random indices
# ---------------------------------------------------------------------------


def all_expandable(params, cutoff):
    return [
        m
        for m in enumerate_populated(params, cutoff)
        if not is_purely_polynomial(m)
    ]


def _oracle_index(m):
    """A multiindex in the oracle's form: sorted (unit, count) pairs."""
    return tuple(sorted(
        [(("e", k), c) for k, c in m.a]
        + [(("f", l), c) for l, c in m.b]
        + [(("g", n), c) for n, c in m.p]
    ))


ORACLE_PARAMS = {1: ModelParams(alpha=0.55, d=1), 2: ModelParams(alpha=0.62, d=2)}
ORACLE_CUTOFF = {1: 3.4, 2: 3.0}
ORACLE_BETAS = [
    (d, beta)
    for d, params in ORACLE_PARAMS.items()
    for beta in all_expandable(params, ORACLE_CUTOFF[d])
]


# the examples have splits with equal parts, one of them the decorated
# factor, in quasi and counter terms
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORACLE_BETAS), st.sampled_from(["raw", "reduced"]))
@example((1, P("e2+3f0")), "raw")
@example((1, P("e2+2f0+g(0,1)")), "reduced")
@example((2, P("e2+3f0")), "reduced")
def test_expand_matches_the_brute_force_split(case, mode):
    d, beta = case
    params = ORACLE_PARAMS[d]
    got = sorted(
        (
            (t.kind, t.coeff, tuple(sorted(map(_oracle_index, t.factors))),
             None if t.decorated is None else _oracle_index(t.decorated))
            for t in expand(beta, params, mode)
        ),
        key=repr,
    )
    assert got == brute_force_expansion(params.alpha, _oracle_index(beta), mode)


def test_terms_conserve_the_index():
    for beta in all_expandable(PARAMS, 3.0):
        for t in expand(beta, PARAMS):
            total = ZERO
            for m in t.factors:
                total = total + m
            if t.kind == "quasi":
                assert e(len(t.factors)) + total + t.decorated == beta
            elif t.kind == "noise":
                assert f(len(t.factors)) + total == beta
            else:
                sigma = beta.minus(total + t.decorated)
                assert sigma is not None and sigma and not sigma.p
                row = d0_power_row(sigma, len(t.factors))
                kept = {
                    gm: w
                    for gm, w in row.items()
                    if keeps_counterterm(gm, PARAMS, "raw")
                }
                assert dict(t.c) == kept


def test_coefficients_count_orderings():
    for beta in all_expandable(PARAMS, 3.0):
        for t in expand(beta, PARAMS):
            mults = {}
            for m in t.factors:
                mults[m] = mults.get(m, 0) + 1
            denom = prod(factorial(c) for c in mults.values())
            if t.kind == "counter":
                assert t.coeff == Fraction(-1, denom)
            else:
                assert t.coeff == Fraction(factorial(len(t.factors)), denom)


def _decided_by_decorations(t1, t2):
    """Whether the term order decides two terms of one kind and length by the
    decoration tuples of the first factor (or decorated index) they differ in."""
    if (t1.kind, len(t1.factors)) != (t2.kind, len(t2.factors)):
        return False
    pairs = zip(t1.factors + (t1.decorated,), t2.factors + (t2.decorated,))
    m1, m2 = next((m1, m2) for m1, m2 in pairs if m1 != m2)
    return (m1.a, m1.b) == (m2.a, m2.b)


def test_terms_are_unique_and_sorted():
    params2 = ModelParams(alpha=0.62, d=2)
    for params, cutoff in ((PARAMS, 3.0), (params2, 3.2)):
        for mode in ("raw", "reduced"):
            by_decorations = 0
            for beta in all_expandable(params, cutoff):
                terms = expand(beta, params, mode)
                keys = [hierarchy_term_sort_key(t) for t in terms]
                assert keys == sorted(keys)
                assert len(set(map(canon, terms))) == len(terms)
                by_decorations += sum(map(_decided_by_decorations, terms, terms[1:]))
            if params is params2:
                # g(0,1,0) and g(0,0,1) have one degree, so decoration
                # tuples decide some orders, and those are checked too
                assert by_decorations > 0


def _plain_then_decorated(t):
    return t.factors + (() if t.decorated is None else (t.decorated,))


def _first_fresh_pair(terms, parts, avoid=()):
    """The parts of the first term that has two distinct parts neither met
    in an earlier term nor in ``avoid``, in the order the term lists them."""
    seen = set(avoid)
    for t in terms:
        fresh = [m for m in dict.fromkeys(parts(t)) if m not in seen]
        if len(fresh) >= 2:
            return fresh
        seen.update(parts(t))
    raise AssertionError("no term with two fresh parts")


@pytest.mark.parametrize(
    "grading", [pytest.param("scaled_homogeneity", id="homogeneity"), "order_length"]
)
def test_a_factor_above_beta_violates_triangularity(monkeypatch, grading):
    beta = P("e1+2f0+f2+g(0,1)")
    fresh = _first_fresh_pair(expand(beta, PARAMS), _plain_then_decorated)
    # two offenders in one term: the error names the one met first, the
    # term's plain factors coming before its decorated one
    bad = {fresh[0], fresh[-1]}
    real = getattr(hierarchy, grading)
    # an offender ties beta, so it is not strictly below it
    monkeypatch.setattr(
        hierarchy, grading,
        lambda m, params: real(beta, params) if m in bad else real(m, params),
    )
    message = (
        f"factor {format_multiindex(fresh[0])} of {format_multiindex(beta)} "
        "violates triangularity"
    )
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        expand(beta, PARAMS)


def test_a_constant_column_above_beta_violates_triangularity(monkeypatch):
    beta = P("e1+2f0+f2+g(0,1)")
    terms = expand(beta, PARAMS)
    factors = {m for t in terms for m in _plain_then_decorated(t)}
    fresh = _first_fresh_pair(
        terms, lambda t: tuple(gamma for gamma, _w in t.c or ()), avoid=factors
    )
    # two offending columns of one row: the first in row order is named
    bad = {fresh[0], fresh[-1]}
    real = hierarchy.order_length
    monkeypatch.setattr(
        hierarchy, "order_length",
        lambda m, params: 99.0 if m in bad else real(m, params),
    )
    message = (
        f"constant column {format_multiindex(fresh[0])} of "
        f"{format_multiindex(beta)} violates triangularity"
    )
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        expand(beta, PARAMS)


def test_triangularity_of_dependencies():
    for beta in all_expandable(PARAMS, 3.0):
        hb, lb = homogeneity(beta, PARAMS), order_length(beta, PARAMS)
        for m in dependencies(beta, PARAMS):
            assert homogeneity(m, PARAMS) < hb
            assert order_length(m, PARAMS) < lb
        for gamma in c_dependencies(beta, PARAMS):
            assert order_length(gamma, PARAMS) < lb


def test_reduced_mode_drops_odd_bracket_columns():
    # at depth one the only counter column is the odd-bracket one
    raw = expand(P("f0+f1"), PARAMS, mode="raw")
    red = expand(P("f0+f1"), PARAMS, mode="reduced")
    assert len(raw) == 2 and len(red) == 1
    assert red[0].kind == "noise"
    # even-bracket columns survive, odd ones disappear
    raw9 = expand(P("2e1+2f0+g(0,1)"), PARAMS, mode="raw")
    red9 = expand(P("2e1+2f0+g(0,1)"), PARAMS, mode="reduced")
    kept = {
        (format_multiindex(gm))
        for t in red9
        if t.c
        for gm, _ in t.c
    }
    assert kept == {"2e1+2f0"}
    assert len(red9) == len([t for t in raw9 if t.kind == "quasi"]) + 1


def test_dependency_lists_for_the_deepest_display():
    deps = {format_multiindex(m) for m in dependencies(P("2e1+2f0+g(0,1)"), PARAMS)}
    assert deps == {"f0", "g(0,1)", "e1+2f0", "e1+f0+g(0,1)"}
    cdeps = {format_multiindex(m) for m in c_dependencies(P("2e1+2f0+g(0,1)"), PARAMS)}
    assert cdeps == {"e1+f0", "2e1+2f0", "e0+e1+f0"}


def test_expand_preconditions():
    with pytest.raises(ConfigError):
        expand(P("g(0,1)"), PARAMS)  # polynomial components are explicit
    with pytest.raises(ConfigError):
        expand(P("e1"), PARAMS)  # not populated
    with pytest.raises(ConfigError):
        expand(P("e0+f0"), PARAMS)  # velocity-zero slot
    with pytest.raises(ConfigError):
        expand(P("f1+g(0,1,0)"), ModelParams(alpha=0.55, d=1))  # arity
    with pytest.raises(ConfigError):
        expand(P("f0"), PARAMS, mode="other")


def test_expand_accepts_grammar_strings():
    assert same_terms(expand("f0+f1", PARAMS), expand(P("f0+f1"), PARAMS))


def test_expand_asks_one_power_per_sigma(monkeypatch, cleared_memos):
    doc = fixture_doc()
    params = ModelParams(alpha=doc["alpha"], d=doc["d"], lam=doc["lam"])
    betas = [P(ent["beta"]) for ent in doc["entries"]]
    deepest = max(betas, key=lambda m: order_length(m, params))
    calls = []
    original = hierarchy.d0_power_row

    def recorded(sigma, m):
        calls.append((sigma, m))
        return original(sigma, m)

    monkeypatch.setattr(hierarchy, "d0_power_row", recorded)
    expand(deepest, params, mode=doc["mode"])
    sigmas = [sigma for sigma, _m in calls]
    assert calls and len(set(sigmas)) == len(sigmas)
    for sigma, m in calls:
        assert m == sigma.a_weight() + sigma.b_weight() - sigma.b_count()


def _counter_rows(terms):
    return [t.c for t in terms if t.kind == "counter"]


def test_expansions_at_three_alphas_match_a_fresh_recomputation(cleared_memos):
    """alpha reaches the memoised terms only through kept_bracket_bound: 0.66
    keeps brackets up to 3, 2/3 and 0.67 up to 2.  Expanded in one process,
    every term list equals one recomputed from empty memos, and 0.66 and 2/3
    differ in a counter row."""
    low, third, high = (ModelParams(alpha=a, d=1) for a in (0.66, Fraction(2, 3), 0.67))
    assert [kept_bracket_bound(p) for p in (low, third, high)] == [3, 2, 2]
    got = {}
    for params in (low, third, high):
        for mode in ("raw", "reduced"):
            for beta in all_expandable(params, 3.4):
                got[params, mode, beta] = expand(beta, params, mode)
    for (params, mode, beta), terms in got.items():
        clear_memos()
        assert expand(beta, params, mode) == terms
    assert any(
        _counter_rows(terms) != _counter_rows(got[third, mode, beta])
        for (params, mode, beta), terms in got.items()
        if params == low and (third, mode, beta) in got
    )


# ---------------------------------------------------------------------------
# the dag
# ---------------------------------------------------------------------------


def test_dag_is_closed_below_the_cutoff():
    cutoff = 3.0
    dag = build_dag(PARAMS, cutoff)
    pop = set(enumerate_populated(PARAMS, cutoff))
    for beta, terms in dag.items():
        for m in dependencies(beta, PARAMS):
            assert m in pop
            if not is_purely_polynomial(m):
                assert m in dag
    # every non-polynomial populated index has an expansion entry
    assert set(dag) == {m for m in pop if not is_purely_polynomial(m)}
    # nodes cover all of the population; polynomial nodes are leaves
    assert set(dag.nodes) == pop
    assert all(dag.edges[m] == [] for m in pop if is_purely_polynomial(m))


def test_dag_topological_order_respects_edges():
    dag = build_dag(PARAMS, 3.0)
    position = {m: i for i, m in enumerate(dag.topo_order)}
    assert set(dag.topo_order) == set(dag.nodes)
    for beta, deps in dag.edges.items():
        for m in deps:
            assert position[m] < position[beta]
    # ordering length never decreases along the topological order
    lens = [order_length(m, PARAMS) for m in dag.topo_order]
    assert all(a <= b + 1e-12 for a, b in zip(lens, lens[1:]))


def test_dag_just_above_alpha_is_a_single_noise_node():
    dag = build_dag(PARAMS, PARAMS.alpha + 0.01)
    assert list(dag.nodes) == [P("f0")]
    assert dag.edges[P("f0")] == []
    assert len(dag[P("f0")]) == 1


def test_dag_expands_each_node_once(monkeypatch):
    calls = []
    original = hierarchy.expand

    def counted(beta, params, mode="raw", **kwargs):
        calls.append(beta)
        return original(beta, params, mode, **kwargs)

    monkeypatch.setattr(hierarchy, "expand", counted)
    dag = build_dag(PARAMS, 3.0)
    expanded = [m for m in dag.nodes if not is_purely_polynomial(m)]
    assert sorted(calls, key=lambda m: m.sort_key()) == sorted(
        expanded, key=lambda m: m.sort_key()
    )
    monkeypatch.undo()
    nodes = set(dag.nodes)
    for beta in expanded:
        assert dag.edges[beta] == [m for m in dependencies(beta, PARAMS) if m in nodes]


def test_dag_asks_each_counter_row_once(monkeypatch, cleared_memos):
    """Nodes share their sub-indices sigma; the process computes the counter
    row of each sigma once, so expanding the built nodes again asks for no
    row, and gives the same terms."""
    calls = []
    original = hierarchy.d0_power_row

    def recorded(sigma, m):
        calls.append(sigma)
        return original(sigma, m)

    monkeypatch.setattr(hierarchy, "d0_power_row", recorded)
    dag = build_dag(PARAMS, 3.4)
    assert calls and len(set(calls)) == len(calls)
    fresh = len(calls)
    for beta, terms in dag.items():
        assert expand(beta, PARAMS) == terms
    assert len(calls) == fresh


# ---------------------------------------------------------------------------
# rendering and serialisation
# ---------------------------------------------------------------------------


def test_render_shapes():
    text = render_expansion(P("f0+f1"), expand(P("f0+f1"), PARAMS))
    assert text == "L*Pi[f0+f1] = Div(Pi[f0]*xi - Grad(Pi[f0])*c[f1])"
    text7 = render_expansion(P("f0+f2+g(0,1)"), expand(P("f0+f2+g(0,1)"), PARAMS))
    assert "2*Pi[g(0,1)]*Pi[f0]*xi" in text7
    assert "2*c[f1]" in text7
    deep = expand(P("e1+f0+f1+g(0,1)"), PARAMS)
    twin = [t for t in deep if t.c and len(t.c) == 2][0]
    assert "(c[e0+f1] + c[e1+f0])" in render_term(twin)


def test_term_json_round_trip():
    for beta in all_expandable(PARAMS, 3.0):
        for t in expand(beta, PARAMS):
            back = term_from_json(term_to_json(t), arity=PARAMS.arity)
            assert canon(back) == canon(t)


def test_expansion_json_round_trip():
    entries = {m: expand(m, PARAMS) for m in all_expandable(PARAMS, 2.5)}
    doc = expansion_to_json(PARAMS, entries)
    meta, back = expansion_from_json(doc)
    assert meta["alpha"] == PARAMS.alpha and meta["mode"] == "raw"
    assert set(back) == set(entries)
    for m in entries:
        assert same_terms(back[m], entries[m])


def test_term_json_rejects_inconsistent_tags():
    t = expand(P("f0+f1"), PARAMS)[1]
    doc = term_to_json(t)
    doc["decorated"]["dec"] = "grad_lap"
    with pytest.raises(ConfigError):
        term_from_json(doc, arity=PARAMS.arity)
    doc2 = term_to_json(t)
    doc2["kind"] = "mystery"
    with pytest.raises(ConfigError):
        term_from_json(doc2, arity=PARAMS.arity)


def test_derivative_tags_follow_the_factor_kind():
    seen = set()
    for beta in all_expandable(PARAMS, 3.0):
        for t in expand(beta, PARAMS):
            tag = t.derivative()
            seen.add(tag)
            if t.kind == "quasi":
                assert tag == "gradLaplacian"
            elif t.kind == "noise":
                assert tag is None
            elif is_purely_polynomial(t.decorated):
                assert tag == "polynomialGradient"
            else:
                assert tag == "grad"
    assert seen == {"gradLaplacian", "grad", "polynomialGradient", None}


def test_homogeneity_bookkeeping_of_every_term():
    """Additivity of |.| - alpha fixes the factor homogeneities per family.

    quasi:   |beta| = sum of factor homogeneities (decorated included),
    noise:   |beta| = alpha + sum of factor homogeneities,
    counter: |beta| = sum + |decorated| + |column| - alpha for each column.
    """
    for beta in all_expandable(PARAMS, 3.2):
        hom_b = homogeneity(beta, PARAMS)
        for t in expand(beta, PARAMS):
            plain = sum(homogeneity(m, PARAMS) for m in t.factors)
            if t.kind == "quasi":
                total = plain + homogeneity(t.decorated, PARAMS)
                assert total == pytest.approx(hom_b)
            elif t.kind == "noise":
                assert plain + PARAMS.alpha == pytest.approx(hom_b)
            else:
                for gamma, _w in t.c:
                    total = (
                        plain
                        + homogeneity(t.decorated, PARAMS)
                        + homogeneity(gamma, PARAMS)
                        - PARAMS.alpha
                    )
                    assert total == pytest.approx(hom_b)
