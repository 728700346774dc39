"""Derivations and the recentering map: exactness, grading, triangularity."""

import copy
import pickle
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tfrenorm import clear_memos, group
from tfrenorm.errors import ConfigError
from tfrenorm.group import (
    SeriesVector,
    StructureMap,
    basis,
    d0_apply,
    d0_power_row,
    dn_apply,
    gamma_apply,
    gamma_entry,
    series_mul,
    structure_map_from_json,
    structure_map_to_json,
)
from tfrenorm.indices import (
    ModelParams,
    Multiindex,
    aniso_degree,
    bracket,
    e,
    enumerate_populated,
    f,
    g,
    homogeneity,
    keeps_counterterm,
    order_length,
    parse_multiindex,
    poly_weight,
    scaled_cutoff,
    scaled_homogeneity,
)

from oracles import gamma_entry_by_containment
from scalars import CountingScalar, PolyScalar, vector_binom

PARAMS = ModelParams(alpha=0.55, d=1)
P = parse_multiindex


def displacement_power(n, m):
    """The monomial z^(n-m) as a PolyScalar, for m <= n componentwise."""
    return PolyScalar.monomial(tuple(a - b for a, b in zip(n, m)))


def random_structure_map(params, rng, letters=((0, 0), (0, 1), (0, 2)), cutoff=2.2,
                         density=0.5, value=lambda rng: rng.uniform(-1.0, 1.0)):
    """A random admissible map supported on the populated indices below cutoff."""
    pop = enumerate_populated(params, cutoff)
    pi = {}
    for n in letters:
        entries = {
            m: value(rng)
            for m in pop
            if homogeneity(m, params) > aniso_degree(n) and rng.random() < density
        }
        if entries:
            pi[n] = entries
    return StructureMap(params, pi)


# ---------------------------------------------------------------------------
# single derivations
# ---------------------------------------------------------------------------


def test_d0_shifts_one_slot_with_weight():
    out = d0_apply(basis(P("e1+2f0")))
    assert out.get(P("e2+2f0")) == 2  # (k+1) gamma(k) at k=1
    assert out.get(P("e1+f0+f1")) == 2  # (l+1) gamma(l) at l=0
    assert len(out) == 2


def test_d0_entry_values():
    col = d0_apply(basis(P("e1+2f0")))
    assert col.get(P("e2+2f0"), 0) == 2
    assert col.get(P("e1+f0+f1"), 0) == 2
    assert col.get(P("e1+2f0"), 0) == 0
    # gamma = f0+f1: moving the f0 slot up gives 2f1 with weight
    # (0+1)*gamma(0) = 1; moving the f1 slot gives f0+f2 with weight 2
    col = d0_apply(basis(P("f0+f1")))
    assert col.get(P("2f1"), 0) == 1
    assert col.get(P("f0+f2"), 0) == 2


def test_dn_removes_a_decoration_with_multiplicity():
    out = dn_apply(basis(P("2g(0,1)+f1")), (0, 1))
    assert out.get(P("g(0,1)+f1")) == 2
    assert len(out) == 1
    assert dn_apply(basis(P("f1+g(0,2)")), (0, 2)).get(P("f1"), 0) == 1
    assert dn_apply(basis(P("f1+g(0,2)")), (0, 1)).get(P("f1"), 0) == 0


def test_derivations_commute():
    rng = random.Random(3)
    pop = enumerate_populated(PARAMS, 3.0)
    decs = [(0, 1), (0, 2), (1, 0)]
    for _ in range(50):
        x = SeriesVector({rng.choice(pop): rng.uniform(-1, 1) for _ in range(3)})
        n1, n2 = rng.choice(decs), rng.choice(decs)
        ab = dn_apply(dn_apply(x, n1), n2)
        ba = dn_apply(dn_apply(x, n2), n1)
        keys = set(ab.coeffs) | set(ba.coeffs)
        assert all(abs(ab.get(k, 0.0) - ba.get(k, 0.0)) < 1e-14 for k in keys)
        a0n = d0_apply(dn_apply(x, n1))
        na0 = dn_apply(d0_apply(x), n1)
        keys = set(a0n.coeffs) | set(na0.coeffs)
        assert all(abs(a0n.get(k, 0.0) - na0.get(k, 0.0)) < 1e-14 for k in keys)


def _series(pop):
    """Hypothesis strategy for short series with exact rational coefficients."""
    coeff = st.fractions(-3, 3, max_denominator=6).filter(bool)
    return st.dictionaries(st.sampled_from(pop), coeff, min_size=1, max_size=4).map(
        SeriesVector
    )


POP_30 = enumerate_populated(PARAMS, 3.0)
POP_22 = enumerate_populated(PARAMS, 2.2)
LETTERS = st.sampled_from([(0, 0), (0, 1), (0, 2), (1, 0), (0, 3)])


@settings(max_examples=200, deadline=None)
@given(_series(POP_30), LETTERS, LETTERS)
def test_derivations_commute_property(x, n1, n2):
    # (0, 0) is D0 itself, so D0 against D^(n) is covered too
    ab = dn_apply(dn_apply(x, n1), n2)
    ba = dn_apply(dn_apply(x, n2), n1)
    assert dict(ab.items()) == dict(ba.items())


def test_d0_is_a_derivation_of_the_product():
    rng = random.Random(11)
    pop = enumerate_populated(PARAMS, 2.5)
    for _ in range(30):
        x = SeriesVector({rng.choice(pop): rng.uniform(-1, 1) for _ in range(2)})
        y = SeriesVector({rng.choice(pop): rng.uniform(-1, 1) for _ in range(2)})
        lhs = d0_apply(series_mul(x, y))
        rhs = series_mul(d0_apply(x), y) + series_mul(x, d0_apply(y))
        keys = set(lhs.coeffs) | set(rhs.coeffs)
        assert all(abs(lhs.get(k, 0.0) - rhs.get(k, 0.0)) < 1e-12 for k in keys)


def test_dn_shifts_homogeneity_by_alpha_minus_n():
    # |gamma - g_n| = |gamma| + alpha - |n| on every surviving index
    for s, n in [("f1+g(0,1)", (0, 1)), ("2f1+g(0,1)", (0, 1)), ("f1+g(0,2)", (0, 2))]:
        gamma = P(s)
        out = dn_apply(basis(gamma), n)
        for m, _ in out.items():
            assert homogeneity(m, PARAMS) == pytest.approx(
                homogeneity(gamma, PARAMS) + PARAMS.alpha - aniso_degree(n)
            )


def test_d0_power_row_fixture_rows():
    # the four rows that appear as substituted counterterm columns in the
    # expanded hierarchy (written here as dicts gamma -> weight)
    rows = {
        "f2": {"f1": 2},
        "e2+f0": {"e1+f0": 2},
        "2e1+f0": {"e0+e1+f0": 1},
        "e1+f1": {"e0+f1": 1, "e1+f0": 1},
    }
    for s, want in rows.items():
        got = {str(k): v for k, v in d0_power_row(P(s), 1).items()}
        assert got == want, s


def test_d0_power_row_matches_iterated_entries():
    rng = random.Random(7)
    pop = enumerate_populated(PARAMS, 3.0)
    for _ in range(25):
        beta = rng.choice(pop)
        row1 = d0_power_row(beta, 1)
        for gamma_i, w in row1.items():
            assert d0_apply(basis(gamma_i)).get(beta, 0) == w
        # m = 2 rows against explicit composition
        row2 = d0_power_row(beta, 2)
        acc = {}
        for sigma, w1 in row1.items():
            for gamma_i, w2 in d0_power_row(sigma, 1).items():
                acc[gamma_i] = acc.get(gamma_i, 0) + w1 * w2
        assert row2 == {k: v for k, v in acc.items() if v}


def test_d0_power_row_support_restriction():
    full = d0_power_row(P("e1+f1"), 1)
    assert full == {P("e0+f1"): 1, P("e1+f0"): 1}


def _slots(min_size):
    return st.dictionaries(
        st.integers(0, 3), st.integers(1, 2), min_size=min_size, max_size=2
    )


@settings(max_examples=300, deadline=None)
@given(_slots(0), _slots(1), st.integers(0, 6))
def test_only_the_derived_power_keeps_counterterm_columns(a, b, m):
    # D0 lowers a_weight + b_weight by one and keeps the slot counts, so a
    # column with weight = noise count sits only in the row of that power
    sigma = Multiindex(tuple(a.items()), tuple(b.items()))
    row = d0_power_row(sigma, m)
    if any(
        keeps_counterterm(gamma, PARAMS, mode)
        for gamma in row
        for mode in ("raw", "reduced")
    ):
        assert m == sigma.a_weight() + sigma.b_weight() - sigma.b_count()
        assert all(gm.a_weight() + gm.b_weight() == gm.b_count() for gm in row)


# ---------------------------------------------------------------------------
# admissibility of structure maps
# ---------------------------------------------------------------------------


def test_structure_map_rejects_unpopulated_support():
    with pytest.raises(ConfigError):
        StructureMap(PARAMS, {(0, 0): {P("e1"): 1.0}})


def test_structure_map_rejects_homogeneity_at_or_below_letter_degree():
    # |g(0,1)| = 1 is not strictly above |n| = 1
    with pytest.raises(ConfigError):
        StructureMap(PARAMS, {(0, 1): {P("g(0,1)"): 1.0}})
    # and |f0| = alpha < 1
    with pytest.raises(ConfigError):
        StructureMap(PARAMS, {(0, 1): {P("f0"): 1.0}})
    # strictly above is fine
    StructureMap(PARAMS, {(0, 1): {P("f1+g(0,1)"): 1.0}})


def test_structure_map_rejects_wrong_arity():
    with pytest.raises(ConfigError):
        StructureMap(PARAMS, {(0, 1, 0): {P("f0"): 1.0}})


def test_structure_map_drops_zeros():
    smap = StructureMap(PARAMS, {(0, 0): {P("f0"): 0.0, P("f0+f1"): 1.0}})
    assert (0, 0) in smap.pi and P("f0") not in smap.pi[(0, 0)]
    smap = StructureMap(PARAMS, {(0, 0): {P("f0"): PolyScalar(), P("f0+f1"): 1.0}})
    assert set(smap.pi[(0, 0)]) == {P("f0+f1")}


def test_structure_map_is_read_only():
    """The map holds its letters, so its families cannot change under it."""
    smap = StructureMap(PARAMS, {(0, 0): {P("f0"): 1, P("f0+f1"): 2}})
    letters = smap.letters()
    with pytest.raises(TypeError):
        smap.pi[(0, 0)] = {P("f0"): 5}
    with pytest.raises(TypeError):
        smap.pi[(0, 1)] = {P("f1+g(0,1)"): 5}
    with pytest.raises(TypeError):
        smap.pi[(0, 0)][P("f0")] = 5
    with pytest.raises(TypeError):
        del smap.pi[(0, 0)][P("f0+f1")]
    assert smap.letters() == letters == [((0, 0), P("f0"), 1), ((0, 0), P("f0+f1"), 2)]
    letters.clear()  # a caller's copy
    assert len(smap.letters()) == 2


def test_structure_map_copies_keep_their_letters():
    rng = random.Random(37)
    smap = random_structure_map(PARAMS, rng, value=lambda rng: Fraction(rng.randint(1, 9), 7))
    for twin in (copy.copy(smap), copy.deepcopy(smap), pickle.loads(pickle.dumps(smap))):
        assert twin.letters() == smap.letters()
        column = basis(P("f0+f1"))
        assert dict(gamma_apply(column, twin, 3.0).items()) == dict(
            gamma_apply(column, smap, 3.0).items())


# ---------------------------------------------------------------------------
# the recentering map
# ---------------------------------------------------------------------------


def test_gamma_entry_exponential_coefficients():
    """Columns of Gamma* on e_j + j f0 at e0 are the j-th power of pi^(0)_{f0}.

    With pi^(0) supported on f0 with value p, repeated application of the
    slot-raising derivation gives (Gamma*)_{e_j + j f0}^{e0} = p^j: the j!
    from the iterated derivation cancels the 1/j! of the exponential.
    """
    p = PolyScalar.monomial((1,), 1)  # the variable itself
    smap = StructureMap(PARAMS, {(0, 0): {P("f0"): p}})
    assert gamma_entry(P("e0"), P("e0"), smap) == 1
    assert gamma_entry(P("e1+f0"), P("e0"), smap) == p
    assert gamma_entry(P("e2+2f0"), P("e0"), smap) == p * p
    assert gamma_entry(P("e3+3f0"), P("e0"), smap) == p * p * p


def test_gamma_entry_numeric_exponential():
    val = 0.7
    smap = StructureMap(PARAMS, {(0, 0): {P("f0"): val}})
    for j in range(1, 5):
        beta = e(j) + j * f(0)
        assert gamma_entry(beta, e(0), smap) == pytest.approx(val**j)


def test_gamma_entry_two_letter_multiset():
    # (Gamma*)_{e2+2f0}^{e0}: two copies of the (0, f0) letter acting through
    # the second slot derivative; the 1/2! and the slot weights combine to
    # exactly p^2 when routed via e1, plus the doubly-raised route.
    p = 0.3
    smap = StructureMap(PARAMS, {(0, 0): {P("f0"): p}})
    # route check by brute force: compare against dense matrix powers
    pop = enumerate_populated(PARAMS, 3.2)
    cols = {}
    for gamma_i in pop:
        cols[gamma_i] = d0_apply(basis(gamma_i))
    # Gamma* = sum_j (pi0)^j / j! (D0)^j as matrices on the truncated space
    import math

    def entry_by_series(beta, gamma_i):
        total = 1.0 if beta == gamma_i else 0.0
        series = basis(gamma_i)
        pw = 1.0
        for j in range(1, 7):
            series = d0_apply(series)
            pw *= p
            shift = j * f(0)
            rest = beta.minus(shift)
            if rest is not None:
                total += pw / math.factorial(j) * series.get(rest, 0)
        return total

    rng = random.Random(2)
    for _ in range(40):
        beta, gamma_i = rng.choice(pop), rng.choice(pop)
        assert gamma_entry(beta, gamma_i, smap) == pytest.approx(
            entry_by_series(beta, gamma_i), abs=1e-12
        )


def test_gamma_fixes_decorations_up_to_pi():
    smap = StructureMap(
        PARAMS,
        {(0, 1): {P("g(0,2)"): 0.3, P("f1+g(0,1)"): 0.5}, (0, 0): {P("f0"): 0.7}},
    )
    res = gamma_apply(basis(P("g(0,1)")), smap, cutoff=4.0)
    assert res.get(P("g(0,1)")) == 1
    assert res.get(P("g(0,2)")) == pytest.approx(0.3)
    assert res.get(P("f1+g(0,1)")) == pytest.approx(0.5)
    assert len(res) == 3


def test_gamma_recenters_polynomials_binomially():
    """pi^(m) on decorations chosen as binom(n, m) z^(n-m) realises the
    binomial recentering (y - x)^n = sum_m binom(n, m) (y - x)^m ... column
    by column: (Gamma*)_{g_n}^{g_m} = binom(n, m) z^(n-m)."""
    decs = [(0, 1), (0, 2), (0, 3), (1, 0), (0, 4)]
    pi = {}
    for m in decs:
        sup = {}
        for n in decs:
            if n != m and vector_binom(n, m) and aniso_degree(n) > aniso_degree(m):
                sup[g(n)] = vector_binom(n, m) * displacement_power(n, m)
        if sup:
            pi[m] = sup
    smap = StructureMap(PARAMS, pi)
    for n in decs:
        for m in decs:
            got = gamma_entry(g(n), g(m), smap)
            if n == m:
                assert got == 1
            elif vector_binom(n, m) and aniso_degree(n) > aniso_degree(m):
                assert got == vector_binom(n, m) * displacement_power(n, m)
            else:
                assert got == 0


def test_gamma_apply_is_multiplicative():
    rng = random.Random(7)
    smap = random_structure_map(PARAMS, rng)
    x = SeriesVector({P("f0"): 0.8, P("g(0,1)"): -0.4})
    y = SeriesVector({P("f0+f1"): 1.1, P("f0"): 0.25})
    cut = 3.4
    lhs = gamma_apply(series_mul(x, y), smap, cut)
    rhs = series_mul(gamma_apply(x, smap, cut), gamma_apply(y, smap, cut)).truncate(
        PARAMS, cut
    )
    keys = set(lhs.coeffs) | set(rhs.coeffs)
    assert keys
    assert all(abs(lhs.get(k, 0.0) - rhs.get(k, 0.0)) < 1e-12 for k in keys)


def test_gamma_entry_agrees_with_gamma_apply():
    """The column and its entries match the row-wise containment oracle."""
    rng = random.Random(13)
    smap = random_structure_map(PARAMS, rng)
    cut = 3.4
    for s in ("f0", "f0+f1", "g(0,1)", "e1+2f0"):
        gamma_i = P(s)
        col = gamma_apply(basis(gamma_i), smap, cut)
        for beta_i, v in col.items():
            want = gamma_entry_by_containment(group, beta_i, gamma_i, smap)
            assert v == pytest.approx(want, abs=1e-12)
            assert gamma_entry(beta_i, gamma_i, smap) == pytest.approx(want, abs=1e-12)
        # and entries it reports as zero really are absent
        for beta_i in enumerate_populated(PARAMS, cut):
            if beta_i not in col.coeffs:
                want = gamma_entry_by_containment(group, beta_i, gamma_i, smap)
                assert want == pytest.approx(0.0, abs=1e-12)
                assert gamma_entry(beta_i, gamma_i, smap) == pytest.approx(0.0, abs=1e-12)


def test_a_cut_just_above_beta_keeps_its_entry():
    """Gap sums in floats reached a cut at nextafter(|beta|) on this map, so
    the column lost its entry 9/8; in exact arithmetic they stay below."""
    params = ModelParams(alpha=0.6492031127939478, d=1)
    smap = StructureMap(
        params, {(0, 0): {P("f0"): Fraction(3, 2)}, (0, 1): {P("f0+f1"): Fraction(3, 4)}}
    )
    beta, gamma_i = P("e1+2f0+2f1"), P("e1+f0+g(0,1)")
    exact = Fraction(params.alpha) * (1 + bracket(beta)) + poly_weight(beta)
    column = gamma_apply(basis(gamma_i), smap, exact + Fraction(1, 10**30))
    assert column.get(beta, 0) == Fraction(9, 8)
    assert gamma_apply(basis(gamma_i), smap, exact).get(beta, 0) == 0  # the cut is strict
    assert gamma_entry(beta, gamma_i, smap) == Fraction(9, 8)
    assert gamma_entry_by_containment(group, beta, gamma_i, smap) == Fraction(9, 8)


def test_gamma_is_triangular():
    """Off-diagonal entries only connect strictly longer rows to shorter
    columns, in both the ordering length and the homogeneity."""
    rng = random.Random(17)
    smap = random_structure_map(PARAMS, rng)
    cut = 3.4
    for gamma_i in enumerate_populated(PARAMS, 2.6):
        col = gamma_apply(basis(gamma_i), smap, cut)
        for beta_i, v in col.items():
            if beta_i == gamma_i or abs(v) < 1e-15:
                continue
            assert order_length(gamma_i, PARAMS) < order_length(beta_i, PARAMS)
            assert homogeneity(gamma_i, PARAMS) < homogeneity(beta_i, PARAMS)


def test_gamma_battery_of_random_maps():
    """Many random maps: multiplicativity, triangularity and the exchange
    relation between derivations and the map hold simultaneously."""
    rng = random.Random(20240817)
    pop = enumerate_populated(PARAMS, 2.2)
    cut = 3.0
    for trial in range(30):
        smap = random_structure_map(PARAMS, rng, density=0.4)
        x = SeriesVector({rng.choice(pop): rng.uniform(-1, 1) for _ in range(2)})
        y = SeriesVector({rng.choice(pop): rng.uniform(-1, 1) for _ in range(2)})
        lhs = gamma_apply(series_mul(x, y), smap, cut)
        rhs = series_mul(
            gamma_apply(x, smap, cut), gamma_apply(y, smap, cut)
        ).truncate(PARAMS, cut)
        keys = set(lhs.coeffs) | set(rhs.coeffs)
        for k in keys:
            assert abs(lhs.get(k, 0.0) - rhs.get(k, 0.0)) < 1e-11


def test_the_walk_applies_each_n_word_once(monkeypatch):
    """D^(n) runs at most once per (index, n-word) in the process, however
    many supports, walks, maps, cutoffs and series lead to it: every walk
    is a basis column's, and its derived series are kept for the process.
    Each series D^(n) meets is a column's z^gamma, with the int coefficient
    1, or one D^(n) made, named by its (index, n-word)."""
    clear_memos()
    rng = random.Random(48)
    maps = [random_structure_map(PARAMS, rng, density=0.6, value=lambda rng: Fraction(
        rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))) for _ in range(3)]
    names = {}  # id of a derived series -> (its index, its n-word)
    seen = []  # (index, n-word, derived series), which also keeps every id alive
    apply = group.dn_apply

    def counted(series, n):
        if id(series) in names:
            gamma, word = names[id(series)]
        else:
            ((gamma, one),) = series.items()
            assert one == 1 and type(one) is int
            word = ()
        out = apply(series, n)
        names[id(out)] = gamma, word + (tuple(n),)
        seen.append((gamma, word + (tuple(n),), out))
        return out

    monkeypatch.setattr(group, "dn_apply", counted)
    columns = [P("e1+2f0+g(0,1)"), P("f0+f1"), P("e0")]
    for smap in maps:
        for cut in (3.0, 4.0):
            for gamma in columns:
                gamma_apply(basis(gamma), smap, cut)
        for gamma in columns:
            for beta in POP_30[::7]:
                gamma_entry(beta, gamma, smap)
    keys = [(gamma, word) for gamma, word, _ in seen]
    assert len(keys) > 20 and max(len(word) for _, word in keys) >= 3
    assert len(set(keys)) == len(keys)
    # a series of several terms walks the columns of its terms, so it
    # applies D^(n) only where no walk before it has
    for smap in maps:
        for series in (SeriesVector({P("f0"): Fraction(1, 2), P("g(0,1)"): 3}),
                       SeriesVector({P("f0+f1"): 2, P("e0"): Fraction(-1, 3), P("f1"): 1})):
            gamma_apply(series, smap, 4.0)
    keys = [(gamma, word) for gamma, word, _ in seen]
    assert len(set(keys)) == len(keys)
    assert {gamma for gamma, _ in keys} >= {P("f0"), P("g(0,1)"), P("f1")}


def _trie(smap):
    """Every node of the map's word trie, with the letter index of each
    step from the empty word."""
    nodes, todo = [], [((), smap._root)]
    while todo:
        path, word = todo.pop()
        nodes.append((path, word))
        todo.extend((path + (idx,), kid) for idx, kid in word.kids.items())
    return nodes


def test_the_walk_steps_on_no_letter_of_a_dead_run():
    """A run of letters whose D^(n) leaves nothing is skipped before any
    step: here no index of the walk carries the decoration (0, 2), so the
    supports of that run, which no other run shares, never enter the
    map's word trie."""
    pop = enumerate_populated(PARAMS, 3.0)
    low = [m for m in pop if homogeneity(m, PARAMS) < 2]
    high = [m for m in pop if homogeneity(m, PARAMS) > 2]
    smap = StructureMap(PARAMS, {
        (0, 0): {m: Fraction(1, 2) for m in low[:4]},
        (0, 1): {m: Fraction(-1, 3) for m in low[4:8]},
        (0, 2): {m: Fraction(2) for m in high[:6]},
    })
    dead = {idx for idx, (n, _m, _v) in enumerate(smap.letters()) if n == (0, 2)}
    assert len(dead) == 6
    column = P("e1+2f0+g(0,1)")
    assert len(gamma_apply(basis(column), smap, 6.0)) > 10
    nodes = _trie(smap)
    assert len(nodes) > 10 and not dead & {idx for path, _ in nodes for idx in path}
    # the gaps alone would let every letter of the dead run in
    limit = scaled_cutoff(6.0, PARAMS)
    assert all(gap < limit - scaled_homogeneity(column, PARAMS) for gap in smap._gaps[-6:])


@pytest.mark.parametrize("scalar", ["float", "fraction"])
def test_a_map_reused_in_any_order_matches_a_fresh_map(scalar):
    """A map's trie holds only what a word is: columns and entries read
    from one map in any order, after any other cutoff, equal those of a
    fresh map item for item, float bits and types included, and a deep
    copy starts with the empty word alone."""
    rng = random.Random(50)
    pi = {n: dict(es) for n, es in random_structure_map(
        PARAMS, rng, density=0.6, value=SCALARS[scalar]).pi.items()}

    def fresh():
        return StructureMap(PARAMS, pi)

    def same(a, b):
        return [(m, v, type(v)) for m, v in a.items()] == [(m, v, type(v)) for m, v in b.items()]

    columns = [P("e1+2f0+g(0,1)"), P("f0"), P("e1+f0"), P("f0+f1")]
    for cuts in ((2.6, 4.0), (4.0, 2.6)):
        smap = fresh()
        for cut in cuts:
            for gamma in columns:
                assert same(gamma_apply(basis(gamma), smap, cut),
                            gamma_apply(basis(gamma), fresh(), cut))
    for order in (columns, columns[::-1]):
        smap = fresh()
        for gamma in order:
            assert same(gamma_apply(basis(gamma), smap, 3.4),
                        gamma_apply(basis(gamma), fresh(), 3.4))
    smap = fresh()
    want = {gamma: gamma_apply(basis(gamma), fresh(), 4.0) for gamma in columns}
    for gamma in columns:  # entries first, then columns, on the one map
        for beta, v in want[gamma].items():
            entry = gamma_entry(beta, gamma, smap)
            assert entry == v and type(entry) is type(v)
    assert len(_trie(smap)) > 10
    for gamma in columns:
        assert same(gamma_apply(basis(gamma), smap, 4.0), want[gamma])
    twin = copy.deepcopy(smap)
    assert len(_trie(twin)) == 1
    for gamma in columns[::-1]:
        assert same(gamma_apply(basis(gamma), twin, 4.0), want[gamma])
        x = SeriesVector({gamma: SCALARS[scalar](rng), P("f0"): SCALARS[scalar](rng)})
        assert same(gamma_apply(x, twin, 3.4), gamma_apply(x, fresh(), 3.4))


def test_gamma_exact_with_fractions():
    rng = random.Random(23)
    pop = enumerate_populated(PARAMS, 2.2)
    pi = {}
    for n in ((0, 0), (0, 1)):
        entries = {
            m: Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            for m in pop
            if homogeneity(m, PARAMS) > aniso_degree(n) and rng.random() < 0.5
        }
        entries = {m: v for m, v in entries.items() if v}
        if entries:
            pi[n] = entries
    smap = StructureMap(PARAMS, pi)
    x = SeriesVector({P("f0"): Fraction(1, 3), P("g(0,1)"): Fraction(-2, 5)})
    y = SeriesVector({P("f0"): Fraction(7, 2)})
    cut = 3.0
    lhs = gamma_apply(series_mul(x, y), smap, cut)
    rhs = series_mul(gamma_apply(x, smap, cut), gamma_apply(y, smap, cut)).truncate(
        PARAMS, cut
    )
    assert dict(lhs.items()) == dict(rhs.items())  # exact rational equality


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), _series(POP_22), _series(POP_22))
def test_gamma_is_multiplicative_property(seed, x, y):
    smap = random_structure_map(
        PARAMS, random.Random(seed),
        value=lambda rng: Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
    )
    cut = 3.0
    lhs = gamma_apply(series_mul(x, y), smap, cut)
    rhs = series_mul(gamma_apply(x, smap, cut), gamma_apply(y, smap, cut)).truncate(
        PARAMS, cut
    )
    assert dict(lhs.items()) == dict(rhs.items())  # exact rational equality


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(POP_22))
def test_gamma_entry_equals_gamma_apply_exactly_property(seed, column):
    """The row-wise oracle and the column-wise recursion give the same exact
    entries, zero included, on maps whose letters share decorations and
    repeat; gamma_entry reads the same entries."""
    smap = random_structure_map(
        PARAMS, random.Random(seed),
        value=lambda rng: Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
    )
    col = gamma_apply(basis(column), smap, 3.0)
    for beta in POP_30:
        want = gamma_entry_by_containment(group, beta, column, smap)
        assert col.get(beta, 0) == want
        assert gamma_entry(beta, column, smap) == want


# ---------------------------------------------------------------------------
# products cut at their operands' cutoff
# ---------------------------------------------------------------------------

PARAMS_D2 = ModelParams(alpha=0.62, d=2)
MAP_LETTERS = {
    PARAMS: ((0, 0), (0, 1), (0, 2)),
    PARAMS_D2: ((0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)),
}
SCALARS = {
    "fraction": lambda rng: Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
    "float": lambda rng: rng.uniform(-1.0, 1.0),
}


def _seeded_map(params, seed, scalar):
    rng = random.Random(seed)
    smap = random_structure_map(
        params, rng, letters=MAP_LETTERS[params], value=SCALARS[scalar]
    )
    return smap, rng


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(MAP_LETTERS, key=repr)),
       st.sampled_from(sorted(SCALARS)), st.sampled_from((2.6, 3.0)))
def test_bounded_product_is_the_truncated_full_product(seed, params, scalar, cut_y):
    """A product of two Gamma* outputs forms only the pairs below the
    smaller cutoff: the same terms, in the same order and with the same
    float bits, as the full product of unbounded copies, truncated."""
    smap, rng = _seeded_map(params, seed, scalar)
    pop = enumerate_populated(params, 2.2)
    x, y = (SeriesVector({m: SCALARS[scalar](rng) for m in rng.sample(pop, 2)})
            for _ in range(2))
    gx, gy = gamma_apply(x, smap, 3.0), gamma_apply(y, smap, cut_y)
    bounded = series_mul(gx, gy)
    full = series_mul(SeriesVector(dict(gx.items())), SeriesVector(dict(gy.items())))
    assert full.cutoff is None
    assert list(bounded.items()) == list(full.truncate(params, cut_y).items())
    assert bounded.cutoff == (params, scaled_cutoff(cut_y, params))
    assert list(bounded.truncate(params, cut_y).items()) == list(bounded.items())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(SCALARS)))
def test_gamma_entry_equals_the_containment_oracle_in_two_dimensions(seed, scalar):
    """Present and absent entries at d = 2 against the row-wise oracle
    (exact for Fraction maps) and against the column (bit for bit)."""
    smap, rng = _seeded_map(PARAMS_D2, seed, scalar)
    rows = enumerate_populated(PARAMS_D2, 2.6)
    for column in rng.sample(rows[:17], 3):
        col = gamma_apply(basis(column), smap, 2.6)
        for beta in rows:
            got = gamma_entry(beta, column, smap)
            want = gamma_entry_by_containment(group, beta, column, smap)
            assert got == col.get(beta, 0)
            if scalar == "fraction":
                assert got == want
            else:
                assert got == pytest.approx(want, abs=1e-12)


def test_bounded_product_multiplies_only_the_pairs_below_the_cutoff():
    """Work count, not time: one multiplication per pair whose sum the
    cutoff keeps, none for the pairs above it."""
    tally = Counter()
    rng = random.Random(41)
    smap = random_structure_map(
        PARAMS, rng, value=lambda rng: CountingScalar(Fraction(rng.randint(1, 6), 5), tally)
    )
    cut = 3.0
    x = SeriesVector({P("f0"): CountingScalar(2, tally), P("f0+f1"): CountingScalar(1, tally)})
    y = SeriesVector({P("f0"): CountingScalar(3, tally), P("g(0,1)"): CountingScalar(1, tally)})
    gx, gy = gamma_apply(x, smap, cut), gamma_apply(y, smap, cut)
    limit = scaled_cutoff(cut, PARAMS)
    below = sum(
        scaled_homogeneity(m1 + m2, PARAMS) < limit for m1 in gx.coeffs for m2 in gy.coeffs
    )
    assert 0 < below < len(gx) * len(gy)
    tally.clear()
    product = series_mul(gx, gy)
    assert tally["mul"] == below
    full = series_mul(SeriesVector(dict(gx.items())), SeriesVector(dict(gy.items())))
    assert tally["mul"] == below + len(gx) * len(gy)
    assert dict(product.items()) == dict(full.truncate(PARAMS, cut).items())


def test_cutoffs_are_set_only_by_gamma_apply_truncate_and_products():
    smap = StructureMap(PARAMS, {(0, 0): {P("f0"): Fraction(1, 2)}})
    column = gamma_apply(basis(P("e0")), smap, 3.0)
    limit = scaled_cutoff(3.0, PARAMS)
    assert column.cutoff == (PARAMS, limit)
    # a truncation or a cut input keeps the smaller cutoff
    assert column.truncate(PARAMS, 2.0).cutoff == (PARAMS, scaled_cutoff(2.0, PARAMS))
    assert column.truncate(PARAMS, 4.0).cutoff == (PARAMS, limit)
    assert gamma_apply(column, smap, 4.0).cutoff == (PARAMS, limit)
    # sums, derivations and plain series are exact everywhere
    for unbounded in (column + column, d0_apply(column), dn_apply(column, (0, 1)),
                      basis(P("f0")), SeriesVector(dict(column.items()))):
        assert unbounded.cutoff is None
    assert series_mul(column, basis(P("f0"))).cutoff == (PARAMS, limit)
    other = gamma_apply(basis(P("e0")), StructureMap(replace(PARAMS, lam=0.3), {}), 3.0)
    with pytest.raises(ConfigError):
        series_mul(column, other)


def test_derivations_keep_int_weights():
    assert d0_apply(basis(P("e1+2f0"))).items() == {P("e2+2f0"): 2, P("e1+f0+f1"): 2}.items()
    out = dn_apply(basis(P("2g(0,1)+f1")), (0, 1))
    assert [type(v) for _, v in out.items()] == [int]
    # entries of an int-valued map are Fractions off the diagonal
    smap = StructureMap(PARAMS, {(0, 0): {P("f0"): 4}})
    assert smap.pi[(0, 0)][P("f0")] == 4 and type(smap.pi[(0, 0)][P("f0")]) is int
    column = gamma_apply(basis(P("e0")), smap, 3.4)
    assert {type(v) for m, v in column.items() if m != P("e0")} == {Fraction}
    assert type(column.get(P("e0"))) is int
    assert type(gamma_entry(P("e1+f0"), P("e0"), smap)) is Fraction


@pytest.mark.parametrize("unit", [1, 1.0])
def test_gamma_keeps_the_value_types_of_its_map_and_column(unit):
    """Fraction, float and int maps keep their value types and values in
    Gamma* columns and entries: an int coefficient 1 leaves a word's pi
    value as it is, a float 1.0 still makes a Fraction value a float."""
    rng = random.Random(11)
    ints = random_structure_map(PARAMS, rng, density=0.7,
                                value=lambda rng: rng.choice([-3, -1, 1, 2, 5]))
    exact = {n: {m: Fraction(v) for m, v in es.items()} for n, es in ints.pi.items()}
    maps = {int: ints, Fraction: StructureMap(PARAMS, exact),
            float: StructureMap(PARAMS, {n: {m: float(v) for m, v in es.items()}
                                         for n, es in exact.items()})}
    for column in (P("e0"), P("f0"), P("e1+f0")):
        want = gamma_apply(basis(column), maps[Fraction], 3.0)
        assert len(want) > 10
        for kind, smap in maps.items():
            col = gamma_apply(SeriesVector({column: unit}), smap, 3.0)
            assert [m for m, _ in col.items()] == [m for m, _ in want.items()]
            for m, v in col.items():
                if m == column:
                    assert type(v) is type(unit) and v == 1
                    continue
                assert type(v) is (float if float in (kind, type(unit)) else Fraction)
                assert v == pytest.approx(want.get(m), rel=1e-12)
                if type(v) is Fraction:
                    assert v == want.get(m)
            if type(unit) is int:  # gamma_entry reads the int basis column
                for m, v in col.items():
                    entry = gamma_entry(m, column, smap)
                    assert type(entry) is type(v) and entry == v


# ---------------------------------------------------------------------------
# Gamma* of a series against one walk over the whole series
# ---------------------------------------------------------------------------


def gamma_apply_by_series_walk(series, smap, cutoff):
    """Gamma* of a series by one walk of the letter multisets that carries
    the whole series with the word's derivations applied, each output term
    kept when it lies below the cutoff: the walk cut at the room of the
    series' lowest term, D^(n) applied once per word and n, and a word
    whose derived series is empty not extended."""
    params = smap.params
    q = params.alpha_ratio[1]
    limit = scaled_cutoff(cutoff, params)
    letters = smap.letters()
    gaps = [scaled_homogeneity(m, params) - q * aniso_degree(n) for n, m, _v in letters]
    out = SeriesVector()

    def walk(last, reps, derived, value, fact, shift, room):
        coef = value * Fraction(1, fact)
        for m, v in derived.items():
            if scaled_homogeneity(m + shift, params) < limit:
                out.add_term(m + shift, coef * v)
        nsers = {}
        for idx in range(last, len(letters)):
            n, m, v = letters[idx]
            if gaps[idx] < room:
                if n not in nsers:
                    nsers[n] = dn_apply(derived, n)
                nser = nsers[n]
                if not nser.coeffs:
                    continue
                mult = reps + 1 if idx == last else 1
                walk(idx, mult, nser, value * v, fact * mult, shift + m, room - gaps[idx])

    if series.coeffs:
        room = limit - min(scaled_homogeneity(m, params) for m in series.coeffs)
        walk(0, 0, series, 1, 1, Multiindex(), room)
    return out


def test_a_term_at_or_above_the_cutoff_adds_nothing():
    """A product's terms can reach the cutoff: the term exactly at it and
    one above it add nothing, not even themselves, and the rest of the
    series maps as the walk over the whole series maps it."""
    smap, _rng = _seeded_map(PARAMS, 5, "fraction")
    low, at, above = P("f0"), P("e1+2f0+4f1"), P("e1+2f0+5f1")
    cutoff = Fraction(PARAMS.alpha) * (1 + bracket(at)) + poly_weight(at)
    limit = scaled_cutoff(cutoff, PARAMS)
    assert scaled_homogeneity(at, PARAMS) == limit < scaled_homogeneity(above, PARAMS)
    series = SeriesVector({low: Fraction(2, 3), at: Fraction(-1, 2), above: 5})
    got = gamma_apply(series, smap, cutoff)
    assert len(got) > 5
    assert dict(got.items()) == dict(gamma_apply_by_series_walk(series, smap, cutoff).items())
    assert dict(got.items()) == dict(gamma_apply(SeriesVector({low: Fraction(2, 3)}), smap,
                                                 cutoff).items())
    assert all(scaled_homogeneity(m, PARAMS) < limit for m in got.coeffs)
    for term in (at, above):
        assert len(gamma_apply(basis(term), smap, cutoff)) == 0


@pytest.mark.parametrize("cutoff", [3.0, 4.0])
@pytest.mark.parametrize("alpha, d", [(0.55, 1), (0.6, 1), (0.55, 2), (0.6, 2)])
def test_gamma_apply_by_columns_equals_the_series_walk(alpha, d, cutoff):
    """Exact maps: every populated column and two- and four-term series
    give the same values per index as the walk over the whole series, and
    entries of each column equal the row-wise containment oracle."""
    params = ModelParams(alpha=alpha, d=d)
    letters = MAP_LETTERS[PARAMS if d == 1 else PARAMS_D2]
    rng = random.Random(int(100 * alpha) + 10 * d + int(cutoff))
    smap = random_structure_map(params, rng, letters=letters, value=SCALARS["fraction"])
    pop = enumerate_populated(params, cutoff)
    for column in pop:
        col = gamma_apply(basis(column), smap, cutoff)
        assert dict(col.items()) == dict(
            gamma_apply_by_series_walk(basis(column), smap, cutoff).items())
        for beta in list(col.coeffs)[:8] + rng.sample(pop, 2):
            assert gamma_entry(beta, column, smap) == gamma_entry_by_containment(
                group, beta, column, smap) == col.get(beta, 0)
    for size in (2, 2, 2, 4, 4, 4):
        series = SeriesVector({m: SCALARS["fraction"](rng) or 1 for m in rng.sample(pop, size)})
        got = gamma_apply(series, smap, cutoff)
        assert dict(got.items()) == dict(
            gamma_apply_by_series_walk(series, smap, cutoff).items())


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def test_structure_map_json_round_trip():
    rng = random.Random(31)
    smap = random_structure_map(PARAMS, rng)
    doc = structure_map_to_json(smap)
    back = structure_map_from_json(doc)
    assert back.params.alpha == smap.params.alpha
    assert set(back.pi) == set(smap.pi)
    for n in smap.pi:
        assert set(back.pi[n]) == set(smap.pi[n])
        for m in smap.pi[n]:
            assert back.pi[n][m] == pytest.approx(smap.pi[n][m])


def test_structure_map_json_keeps_fractions_exact():
    smap = StructureMap(PARAMS, {(0, 0): {P("f0"): Fraction(2, 3)}})
    doc = structure_map_to_json(smap)
    assert doc["families"][0]["entries"][0]["value"] == "2/3"
    back = structure_map_from_json(doc)
    assert back.pi[(0, 0)][P("f0")] == Fraction(2, 3)


def test_structure_map_json_rejects_exotic_scalars():
    smap = StructureMap(
        PARAMS, {(0, 0): {P("f0"): PolyScalar.monomial((1,), 1)}}
    )
    with pytest.raises(ConfigError):
        structure_map_to_json(smap)


def test_structure_map_json_keeps_an_exact_alpha():
    exact = ModelParams(alpha=Fraction(1, 3))
    smap = StructureMap(exact, {(0, 0): {P("f0+f1"): Fraction(2, 3)}})
    doc = structure_map_to_json(smap)
    assert doc["alpha"] == "1/3"
    assert structure_map_from_json(doc).params.alpha_ratio == (1, 3)
    # a float alpha is the decimal it prints as, written the same one way
    doc = structure_map_to_json(StructureMap(PARAMS, {(0, 0): {P("f0"): 1}}))
    assert doc["alpha"] == "11/20"
    assert structure_map_from_json(doc).params == PARAMS
    # a document holding a number reads it as the decimal it prints as
    assert structure_map_from_json(dict(doc, alpha=0.55)).params.alpha == Fraction(11, 20)
    for bad in ("1/0", "a/3", "1/3/4"):
        with pytest.raises(ConfigError):
            structure_map_from_json(dict(doc, alpha=bad))
