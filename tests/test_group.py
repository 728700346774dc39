"""Derivations and the recentering map: exactness, grading, triangularity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tfrenorm.errors import ConfigError
from tfrenorm.group import (
    SeriesVector,
    StructureMap,
    basis,
    d0_apply,
    d0_entry,
    d0_power_row,
    dn_apply,
    dn_entry,
    gamma_apply,
    gamma_entry,
    series_mul,
    structure_map_from_json,
    structure_map_to_json,
)
from tfrenorm.indices import (
    ModelParams,
    aniso_degree,
    e,
    enumerate_populated,
    f,
    g,
    homogeneity,
    order_length,
    parse_multiindex,
)
from tfrenorm.scalars import PolyScalar, displacement_power, vector_binom

PARAMS = ModelParams(alpha=0.55, d=1)
P = parse_multiindex


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
    assert d0_entry(P("e2+2f0"), P("e1+2f0")) == 2
    assert d0_entry(P("e1+f0+f1"), P("e1+2f0")) == 2
    assert d0_entry(P("e1+2f0"), P("e1+2f0")) == 0
    # gamma = f0+f1: moving the f0 slot up gives 2f1 with weight
    # (0+1)*gamma(0) = 1; moving the f1 slot gives f0+f2 with weight 2
    assert d0_entry(P("2f1"), P("f0+f1")) == 1
    assert d0_entry(P("f0+f2"), P("f0+f1")) == 2


def test_dn_removes_a_decoration_with_multiplicity():
    out = dn_apply(basis(P("2g(0,1)+f1")), (0, 1))
    assert out.get(P("g(0,1)+f1")) == 2
    assert len(out) == 1
    assert dn_entry(P("f1"), P("f1+g(0,2)"), (0, 2)) == 1
    assert dn_entry(P("f1"), P("f1+g(0,2)"), (0, 1)) == 0
    with pytest.raises(ConfigError):
        dn_entry(P("f1"), P("f1"), (0, 0))


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
            assert d0_entry(beta, gamma_i) == w
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
    assert d0_power_row(P("e1+f1"), 1, c_support=[P("e1+f0")]) == {P("e1+f0"): 1}
    assert d0_power_row(P("e1+f1"), 1, c_support=[]) == {}


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


def test_structure_map_drops_zeros_and_reports_min_gap():
    smap = StructureMap(PARAMS, {(0, 0): {P("f0"): 0.0, P("f0+f1"): 1.0}})
    assert (0, 0) in smap.pi and P("f0") not in smap.pi[(0, 0)]
    assert smap.min_gap() == pytest.approx(homogeneity(P("f0+f1"), PARAMS))


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
    rng = random.Random(13)
    smap = random_structure_map(PARAMS, rng)
    cut = 3.4
    for s in ("f0", "f0+f1", "g(0,1)", "e1+2f0"):
        gamma_i = P(s)
        col = gamma_apply(basis(gamma_i), smap, cut)
        for beta_i, v in col.items():
            assert gamma_entry(beta_i, gamma_i, smap) == pytest.approx(v, abs=1e-12)
        # and entries it reports as zero really are absent
        for beta_i in enumerate_populated(PARAMS, cut):
            if beta_i not in col.coeffs:
                assert gamma_entry(beta_i, gamma_i, smap) == pytest.approx(
                    0.0, abs=1e-12
                )


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
