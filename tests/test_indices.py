"""Multiindex algebra, gradings, predicates and enumeration."""

import copy
import dataclasses
import itertools
import json
import pickle
import random
import re
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tfrenorm import indices
from tfrenorm.errors import ConfigError, ResourceError
from tfrenorm.indices import (
    FIELD_BITS,
    MAX_MULTIPLICITY,
    ModelParams,
    Multiindex,
    ZERO,
    aniso_degree,
    bracket,
    choose_kappa,
    e,
    enumerate_populated,
    expectation_parity_filter,
    f,
    format_multiindex,
    g,
    homogeneity,
    is_c_populated,
    is_populated,
    is_purely_polynomial,
    iter_decorations,
    keeps_counterterm,
    order_length,
    parse_multiindex,
    poly_weight,
    renormalisation_candidates,
    scaled_homogeneity,
)

from child import run_python
from oracles import (
    brute_force_populated,
    homogeneity as oracle_homogeneity,
    parts_difference,
    parts_multiple,
    parts_sum,
)


P055 = ModelParams(alpha=0.55, d=1)
P075 = ModelParams(alpha=0.75, d=1)
P095 = ModelParams(alpha=0.95, d=1)


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


def test_parse_format_round_trip_hand_cases():
    cases = [
        "0",
        "f0",
        "e1+2f0",
        "2e1+2f0+g(0,1)",
        "e2+2f0+g(0,1)",
        "f0+f2+g(0,1)",
        "3e1+f0+2g(0,2)",
        "g(1,0)",
    ]
    for s in cases:
        assert format_multiindex(parse_multiindex(s)) == s


def test_parse_is_permissive_about_whitespace_and_order():
    m = parse_multiindex("  g(0,1) + 2 f0 +e1 + f0 ")
    assert m == parse_multiindex("e1+3f0+g(0,1)")
    assert format_multiindex(m) == "e1+3f0+g(0,1)"


def test_parse_accumulates_repeated_terms():
    assert parse_multiindex("f1+f1+2f1") == parse_multiindex("4f1")


def test_parse_star_multiplicity():
    assert parse_multiindex("2*e1+3*g(0,2)") == 2 * e(1) + 3 * g((0, 2))


def test_parse_rejects_junk():
    for bad in ["e", "x3", "g()", "g(0,)", "e-1", "2.5f0", "f0-f1", "g(0,1"]:
        with pytest.raises(ConfigError):
            parse_multiindex(bad)


def test_parse_enforces_arity():
    with pytest.raises(ConfigError):
        parse_multiindex("g(0,1,2)", expected_arity=2)
    assert parse_multiindex("g(0,1,2)", expected_arity=3) == g((0, 1, 2))


def test_round_trip_random():
    rng = random.Random(20240817)
    for _ in range(200):
        parts = []
        for _ in range(rng.randint(0, 5)):
            kind = rng.choice("efg")
            mult = rng.randint(1, 3)
            if kind == "e":
                parts.append((mult, e(rng.randint(0, 4))))
            elif kind == "f":
                parts.append((mult, f(rng.randint(0, 4))))
            else:
                n = (rng.randint(0, 2), rng.randint(0, 3))
                if not any(n):
                    n = (0, 1)
                parts.append((mult, g(n)))
        m = ZERO
        for mult, unit in parts:
            m = m + mult * unit
        assert parse_multiindex(format_multiindex(m)) == m


def _indices(arity=2):
    """Hypothesis strategy for multiindices with decorations of one arity."""
    slot = st.integers(0, 4)
    count = st.integers(0, 3)
    vector = st.tuples(*[st.integers(0, 3)] * arity).filter(any)
    return st.builds(
        Multiindex,
        st.lists(st.tuples(slot, count), max_size=3).map(tuple),
        st.lists(st.tuples(slot, count), max_size=3).map(tuple),
        st.lists(st.tuples(vector, count), max_size=3).map(tuple),
    )


@settings(max_examples=200, deadline=None)
@given(_indices())
def test_parse_format_round_trip_property(m):
    assert parse_multiindex(format_multiindex(m), expected_arity=2) == m


@settings(max_examples=200, deadline=None)
@given(_indices(), _indices())
def test_minus_inverts_addition_property(x, y):
    assert (x + y).minus(y) == x


@settings(max_examples=200, deadline=None)
@given(_indices(), _indices())
def test_homogeneity_additive_after_alpha_shift_property(x, y):
    lhs = homogeneity(x + y, P055) - P055.alpha
    rhs = (homogeneity(x, P055) - P055.alpha) + (homogeneity(y, P055) - P055.alpha)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# the dataclass itself
# ---------------------------------------------------------------------------


def test_zero_decoration_rejected():
    with pytest.raises(ConfigError):
        g((0, 0))


def test_mixed_arity_rejected():
    with pytest.raises(ConfigError):
        g((0, 1)) + g((0, 1, 0))


def test_minus_partial_order():
    m = 2 * e(1) + 2 * f(0) + g((0, 1))
    assert m.minus(e(1) + f(0)) == e(1) + f(0) + g((0, 1))
    assert m.minus(3 * e(1)) is None
    assert m.minus(g((0, 2))) is None
    assert m.minus(ZERO) == m


def test_scalar_multiple_validation():
    with pytest.raises(ConfigError):
        (-1) * e(1)
    assert 0 * e(1) == ZERO


def _recount(m):
    """a/b/p counts, a/b weights and poly weight, summed from the parts."""
    return (
        sum(c for _, c in m.a), sum(c for _, c in m.b), sum(c for _, c in m.p),
        sum(k * c for k, c in m.a), sum(l * c for l, c in m.b),
        sum(aniso_degree(n) * c for n, c in m.p),
    )


def _assert_as_if_validated(m):
    """m equals its parts rebuilt through the validating constructor, in
    fields, hash, sort key and text, and its cached gradings recount."""
    rebuilt = Multiindex(m.a, m.b, m.p)
    assert (m.a, m.b, m.p) == (rebuilt.a, rebuilt.b, rebuilt.p)
    assert m == rebuilt
    assert hash(m) == hash(rebuilt) == hash((m.a, m.b, m.p))
    assert m.sort_key() == rebuilt.sort_key()
    assert str(m) == str(rebuilt)
    cached = (m.a_count(), m.b_count(), m.p_count(), m.a_weight(), m.b_weight(),
              poly_weight(m))
    assert cached == _recount(m)
    for read, part in ((m.a_at, m.a), (m.b_at, m.b), (m.p_at, m.p)):
        assert all(read(key) == count for key, count in part)
    assert m.a_at(10**40) == m.b_at(10**40) == m.p_at((10**40, 0)) == 0


def _geq(x, y):
    return all(
        dict(mine).get(key, 0) >= count
        for mine, theirs in ((x.a, y.a), (x.b, y.b), (x.p, y.p))
        for key, count in theirs
    )


@settings(max_examples=300, deadline=None)
@given(_indices(), _indices(), st.integers(0, 4))
def test_trusted_arithmetic_matches_the_validating_constructor_property(x, y, k):
    _assert_as_if_validated(x)
    _assert_as_if_validated(x + y)
    _assert_as_if_validated((x + y).minus(y))
    _assert_as_if_validated(k * x)
    diff = x.minus(y)
    assert (diff is not None) == _geq(x, y)
    if diff is not None:
        _assert_as_if_validated(diff)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any))
def test_unit_builders_match_the_validating_constructor_property(k, n):
    for unit, rebuilt in ((e(k), Multiindex(a=((k, 1),))), (f(k), Multiindex(b=((k, 1),))),
                          (g(n), Multiindex(p=((n, 1),)))):
        assert unit == rebuilt
        _assert_as_if_validated(unit)


@pytest.mark.parametrize("build", [
    lambda: Multiindex(a=((1, -1),)),
    lambda: Multiindex(p=(((0, 1), 2), ((0, 1), -3))),
    lambda: Multiindex(p=(((0, 0), 1),)),
    lambda: g((0, 0)),
    lambda: parse_multiindex("g(0,0)"),
    lambda: Multiindex(a=((1.0, 1),)),
    lambda: Multiindex(b=(("0", 1),)),
    lambda: e(1.5),
    lambda: f(-1),
    lambda: g((0, 1)) + g((0, 1, 0)),
    lambda: (e(1) + g((1, 0))) + (f(0) + g((0, 0, 1))),
    lambda: Multiindex(p=(((0, 1), 1), ((0, 1, 0), 1))),
    lambda: 1.5 * e(1),
    lambda: Multiindex(a=((1, 1.5),)),
], ids=["negative count", "negative sum", "zero decoration", "zero unit", "zero parsed",
        "float slot", "str slot", "float unit", "negative unit", "mixed units",
        "mixed sum", "mixed parts", "float multiple", "float count"])
def test_public_boundary_still_validates(build):
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: e(1.0), "bad velocity slot 1.0"),
    (lambda: e(-1), "bad velocity slot -1"),
    (lambda: e("1"), "bad velocity slot '1'"),
    (lambda: e([1]), "bad velocity slot [1]"),
    (lambda: f(2.0), "bad noise slot 2.0"),
    (lambda: g((0, 0)), "zero decoration vector is not allowed"),
], ids=["float", "negative", "str", "list", "float noise", "zero decoration"])
def test_a_cached_unit_does_not_admit_an_equal_bad_key(build, message):
    # e(1.0) == e(1) as dict keys go; the cache must not let it through
    e(1), f(2), g((0, 1))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build()


def test_cached_units_accept_what_the_checks_accept():
    assert e(1) is e(1) and f(2) is f(2) and g((0, 1)) is g((0, 1))
    assert g([0, 1]) is g((0, 1))
    # bool is an int; the second call reads the cache the first one filled
    assert e(True) is e(1)
    assert e(True) is e(1)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 4]).flatmap(lambda arity: st.tuples(
    _indices(arity), _indices(arity))), st.integers(0, 5))
def test_arithmetic_matches_the_counter_oracle_property(pair, k):
    """+, minus and k * against multiset arithmetic on the parts, at d = 1, 2, 3."""
    x, y = pair

    def parts(m):
        return (m.a, m.b, m.p)

    assert parts(x + y) == parts_sum(parts(x), parts(y))
    assert parts(k * x) == parts_multiple(k, parts(x))
    for big, small in ((x, y), (y, x), (x + y, y), (x + y, x)):
        diff = big.minus(small)
        want = parts_difference(parts(big), parts(small))
        assert (None if diff is None else parts(diff)) == want


TOP = MAX_MULTIPLICITY


@pytest.mark.parametrize("build", [
    lambda: Multiindex(a=((1, TOP + 1),)),
    lambda: Multiindex(b=((0, TOP), (0, 1))),
    lambda: parse_multiindex(f"{TOP + 1}e1"),
    lambda: parse_multiindex(f"{TOP}f0+f0"),
    lambda: parse_multiindex("99999999999999999999999g(0,1)"),
    lambda: TOP * e(1) + e(1),
    lambda: (TOP * g((0, 1)) + f(2)) + (f(2) + g((0, 1))),
    lambda: 2 * (TOP * f(0)),
    lambda: (TOP + 1) * e(3),
    # k * x lands on the next field without touching the guard bit
    lambda: (1 << FIELD_BITS) * e(1),
    lambda: (1 << (3 * FIELD_BITS)) * (e(1) + f(0)),
], ids=["constructor", "constructor sum", "parsed", "parsed sum", "parsed huge", "sum",
        "sum of two", "double", "multiple", "multiple past the guard",
        "multiple three fields on"])
def test_a_multiplicity_past_its_field_is_a_config_error(build):
    with pytest.raises(ConfigError, match="exceeds"):
        build()


def test_the_largest_multiplicity_fits_its_field():
    m = TOP * e(1) + TOP * f(0) + TOP * g((0, 1))
    assert m == parse_multiindex(f"{TOP}e1+{TOP}f0+{TOP}g(0,1)")
    assert (m.a, m.b, m.p) == (((1, TOP),), ((0, TOP),), (((0, 1), TOP),))
    assert m.minus(e(1) + f(0)) == (TOP - 1) * (e(1) + f(0)) + TOP * g((0, 1))
    assert m.minus(2 * e(1)).minus(m) is None


def test_any_slot_key_takes_one_field():
    m = parse_multiindex("2e100000000+f100000000+g(0,100000000)")
    assert str(m) == "2e100000000+f100000000+g(0,100000000)"
    assert (m.a_weight(), m.b_weight(), poly_weight(m)) == (2 * 10**8, 10**8, 10**8)
    assert m.minus(e(10**8)) == e(10**8) + f(10**8) + g((0, 10**8))
    huge = e(10**30) + f(10**30)
    assert huge.a_weight() == huge.b_weight() == 10**30
    assert bracket(3 * huge) == 6 * 10**30


def test_threads_registering_keys_at_once_get_one_field_each():
    """Keys first used by several threads at once each get one field, so
    the indices the threads build are equal."""
    keys = range(7_000_000, 7_000_400)
    results = [None] * 4

    def build(i):
        results[i] = [e(k) + f(k) for k in keys]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(worker.is_alive() for worker in workers)
    for k, *built in zip(keys, *results):
        want = parse_multiindex(f"e{k}+f{k}")
        assert all(m == want for m in built), k


def _fresh_interpreter(script, *args):
    """stdout of ``script`` run in a new interpreter on the package source."""
    proc = run_python(["-c", script, *args], timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# units made first, in two orders, so that two interpreters lay their slot
# keys out in different fields
UNITS_FORWARD = ["e(0)", "e(1)", "e(2)", "e(3)", "f(0)", "f(1)", "f(2)", "f(3)",
                 "g((0, 1))", "g((1, 0))", "g((0, 2))", "g((0, 1, 0))", "g((0, 0, 1))"]
UNITS_BACKWARD = UNITS_FORWARD[::-1]
SAMPLES = ["0", "f0", "2e1+2f0+g(0,1)", "e3+f2+3g(0,2)", "e100000000+4f3", "f1+g(0,0,1)"]


def test_pickles_rebuild_from_the_parts_in_another_interpreter():
    """A code is private to the registry that made it: an index pickled in
    one interpreter unpickles, equal and with the same hash, in another
    whose slot keys were registered in a different order."""
    dump = (
        "import pickle\n"
        "from tfrenorm.indices import e, f, g, parse_multiindex\n"
        f"for unit in {UNITS_FORWARD!r}: eval(unit)\n"
        f"ms = [parse_multiindex(s) for s in {SAMPLES!r}]\n"
        "print([m.code for m in ms])\n"
        "print(pickle.dumps(ms).hex())\n"
    )
    load = (
        "import pickle, sys\n"
        "from tfrenorm.indices import e, f, g, parse_multiindex\n"
        f"for unit in {UNITS_BACKWARD!r}: eval(unit)\n"
        "ms = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
        "for m in ms:\n"
        "    again = parse_multiindex(str(m))\n"
        "    assert m == again and hash(m) == hash(again), str(m)\n"
        "print([m.code for m in ms])\n"
        "print([str(m) for m in ms])\n"
    )
    codes, blob = _fresh_interpreter(dump).split("\n")[:2]
    codes_there, strs = _fresh_interpreter(load, blob).split("\n")[:2]
    assert codes != codes_there  # the two layouts differ
    assert strs == repr(SAMPLES)


def test_copies_are_equal_indices():
    for text in SAMPLES:
        m = parse_multiindex(text)
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin == m and hash(twin) == hash(m) and str(twin) == text


@pytest.mark.parametrize("first_use", ["e(True)", "Multiindex(a=((True, 1),))"])
def test_a_bool_slot_key_registers_as_its_int(first_use):
    """A bool as the first use of velocity slot 1 must not name the slot True."""
    script = (
        "from tfrenorm.indices import Multiindex, e, f, format_multiindex, parse_multiindex\n"
        f"{first_use}\n"
        "print(format_multiindex(parse_multiindex('e1+f0')), format_multiindex(e(1) + f(0)))\n"
    )
    assert _fresh_interpreter(script).split() == ["e1+f0", "e1+f0"]


def test_outputs_do_not_depend_on_the_order_slot_keys_were_registered():
    run = (
        "import json, sys\n"
        "from tfrenorm.cli import main\n"
        "from tfrenorm.hierarchy import build_dag, expansion_to_json\n"
        "from tfrenorm.indices import ModelParams, e, f, g\n"
        "for unit in json.loads(sys.argv[1]): eval(unit)\n"
        "print(e(1).code)\n"
        "for alpha, d, cutoff in ((0.55, 1, 3.4), (0.62, 2, 3.0)):\n"
        "    params = ModelParams(alpha=alpha, d=d)\n"
        "    dag = build_dag(params, cutoff)\n"
        "    print(json.dumps(expansion_to_json(params, dag.expansions)))\n"
        "main(['enumerate', '--alpha', '0.55', '--cutoff', '3.4'])\n"
        "main(['enumerate', '--alpha', '0.62', '--d', '2', '--cutoff', '3.0', '--format', 'csv'])\n"
    )
    forward = _fresh_interpreter(run, json.dumps(UNITS_FORWARD))
    backward = _fresh_interpreter(run, json.dumps(UNITS_BACKWARD))
    code_forward, rest_forward = forward.split("\n", 1)
    code_backward, rest_backward = backward.split("\n", 1)
    assert code_forward != code_backward  # the two layouts differ
    assert rest_forward == rest_backward
    assert rest_forward.count('"entries"') == 2 and "index,homogeneity" in rest_forward


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------


def test_aniso_degree_weights_time_by_four():
    assert aniso_degree((1, 0)) == 4
    assert aniso_degree((0, 1)) == 1
    assert aniso_degree((1, 2)) == 6
    assert aniso_degree((2, 0, 3)) == 11


def test_bracket_and_homogeneity_hand_values():
    m = parse_multiindex("2e1+2f0+g(0,1)")
    assert bracket(m) == 2 * 1 + 0 - 1 == 1
    assert poly_weight(m) == 1
    assert homogeneity(m, P055) == pytest.approx(0.55 * 2 + 1)

    m = parse_multiindex("f0")
    assert bracket(m) == 0
    assert homogeneity(m, P055) == pytest.approx(0.55)

    m = parse_multiindex("g(0,2)")
    assert bracket(m) == -1
    assert homogeneity(m, P055) == pytest.approx(2.0)

    m = parse_multiindex("e2+2f0+g(0,1)")
    assert bracket(m) == 1
    assert homogeneity(m, P055) == pytest.approx(0.55 * 2 + 1)


def test_homogeneity_matches_oracle_on_random_indices():
    rng = random.Random(99)
    for _ in range(300):
        a = [(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        b = [(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        p = []
        for _ in range(rng.randint(0, 2)):
            n = (rng.randint(0, 1), rng.randint(0, 2))
            if any(n):
                p.append((n, rng.randint(1, 2)))
        m = Multiindex(tuple(a), tuple(b), tuple(p))
        want = oracle_homogeneity(0.55, m.a, m.b, m.p)
        assert homogeneity(m, P055) == pytest.approx(want)


def test_homogeneity_is_additive_after_alpha_shift():
    rng = random.Random(5)
    pop = enumerate_populated(P055, 2.5)
    for _ in range(100):
        x, y = rng.choice(pop), rng.choice(pop)
        lhs = homogeneity(x + y, P055) - P055.alpha
        rhs = (homogeneity(x, P055) - P055.alpha) + (homogeneity(y, P055) - P055.alpha)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_order_length_uses_lam_on_decorations():
    m = parse_multiindex("e1+f0+g(1,1)")
    assert order_length(m, P055) == pytest.approx(2 + 0.4 * 5)


# ---------------------------------------------------------------------------
# model parameters
# ---------------------------------------------------------------------------


def test_params_window_validation():
    with pytest.raises(ConfigError):
        ModelParams(alpha=0.2, d=1)  # below 3/2 - 5/4 = 1/4
    with pytest.raises(ConfigError):
        ModelParams(alpha=1.0, d=1)
    with pytest.raises(ConfigError):
        ModelParams(alpha=0.55, d=0)
    with pytest.raises(ConfigError):
        ModelParams(alpha=0.55, d=1, lam=0.5)
    # d=2 widens the window downward: 3/2 - 6/4 = 0
    ModelParams(alpha=0.2, d=2)


def test_params_hold_alpha_exactly():
    third = ModelParams(alpha=Fraction(1, 3))
    assert third.alpha == 1 / 3 and type(third.alpha) is float
    assert third.alpha_ratio == (1, 3)
    # a float is exact on its own value, which lies below 1/3
    assert ModelParams(alpha=1 / 3).alpha_ratio == (1 / 3).as_integer_ratio()
    assert third != ModelParams(alpha=1 / 3)
    for twin in (copy.copy(third), pickle.loads(pickle.dumps(third))):
        assert twin == third and hash(twin) == hash(third)
    # dataclasses.replace passes the ratio on; a new alpha brings its own
    assert dataclasses.replace(third, lam=0.3).alpha_ratio == (1, 3)
    assert dataclasses.replace(third, alpha=0.4).alpha_ratio == (0.4).as_integer_ratio()
    assert dataclasses.replace(third, alpha=Fraction(2, 5)).alpha_ratio == (2, 5)
    assert ModelParams(alpha=1 / 3, alpha_ratio=(2, 6)) == third
    # the window is exact too: 1/4 + 1e-20 rounds to the float 0.25
    with pytest.raises(ConfigError):
        ModelParams(alpha=Fraction(1, 4))
    ModelParams(alpha=Fraction(1, 4) + Fraction(1, 10**20))
    for bad in (float("nan"), float("inf"), "0.5"):
        with pytest.raises(ConfigError):
            ModelParams(alpha=bad)


def test_allow_rational_alpha_has_no_effect():
    for alpha in (0.75, 2 / 3, 0.55):
        assert ModelParams(alpha=alpha, allow_rational_alpha=True) == ModelParams(alpha=alpha)
    params = ModelParams(alpha=0.6, allow_rational_alpha=True)
    assert enumerate_populated(params, 3.2) == enumerate_populated(ModelParams(alpha=0.6), 3.2)


def test_params_derived_quantities():
    p = ModelParams(alpha=0.55, d=2)
    assert p.eff_dim == 6
    assert p.scaling == (4, 1, 1)
    assert p.arity == 3


# ---------------------------------------------------------------------------
# population predicates
# ---------------------------------------------------------------------------


def test_is_populated_hand_cases():
    yes = ["f0", "g(0,1)", "g(1,0)", "f0+f1", "e1+2f0", "e0+f0",
           "2e1+2f0+g(0,1)", "e1+f0+f1+g(0,1)", "f1+g(0,1)"]
    no = ["0", "e1", "2g(0,1)", "f1", "e1+f0", "g(0,1)+g(0,2)", "f0+g(0,1)"]
    for s in yes:
        assert is_populated(parse_multiindex(s)), s
    for s in no:
        assert not is_populated(parse_multiindex(s)), s


def test_purely_polynomial_is_single_decoration():
    assert is_purely_polynomial(g((0, 1)))
    assert not is_purely_polynomial(2 * g((0, 1)))
    assert not is_purely_polynomial(f(0))
    assert not is_purely_polynomial(f(1) + g((0, 1)))


def test_is_c_populated_cases():
    # the three counterterm indices of the second-order expansion
    for s in ["e1+f0+f1", "2f1", "2e1+2f0"]:
        assert is_c_populated(parse_multiindex(s), P055), s
    # identity holds but odd bracket
    assert bracket(parse_multiindex("f1+2f0")) == 1
    assert not is_c_populated(parse_multiindex("f1+2f0"), P055)
    # identity fails
    assert not is_c_populated(parse_multiindex("2f0"), P055)
    # noise-free
    assert not is_c_populated(parse_multiindex("e0"), P055)
    with pytest.raises(ConfigError):
        is_c_populated(parse_multiindex("f1+g(0,1)"), P055)


def test_is_c_populated_window_cuts_large_indices():
    # satisfies the identity with even bracket but |beta| = 5 alpha >= 2 + alpha
    big = parse_multiindex("2f0+2f2")
    assert big.a_weight() + big.b_weight() == big.b_count() == 4
    assert bracket(big) % 2 == 0
    assert homogeneity(big, P055) >= 2 + P055.alpha
    assert not is_c_populated(big, P055)


def test_keeps_counterterm_modes():
    p = P055
    # e1+f0 has odd bracket: kept raw, dropped reduced
    m = parse_multiindex("e1+f0")
    assert keeps_counterterm(m, p, "raw")
    assert not keeps_counterterm(m, p, "reduced")
    # the size window prunes in both modes
    big = parse_multiindex("2f0+2f2")
    assert not keeps_counterterm(big, p, "raw")
    # decorated columns never survive
    assert not keeps_counterterm(parse_multiindex("f1+g(0,1)"), p, "raw")
    with pytest.raises(ConfigError):
        keeps_counterterm(m, p, "other")


def test_parity_filter_preconditions_and_values():
    assert expectation_parity_filter(parse_multiindex("2e1+2f0+g(0,1)"))
    assert expectation_parity_filter(parse_multiindex("2f1+g(0,1)"))
    # even bracket
    assert not expectation_parity_filter(parse_multiindex("f1+g(0,1)"))
    # odd bracket, even decoration degree
    assert not expectation_parity_filter(parse_multiindex("2f1+g(0,2)"))
    # odd bracket, zero (even) decoration degree
    assert not expectation_parity_filter(parse_multiindex("f0+f1"))
    with pytest.raises(ConfigError):
        expectation_parity_filter(parse_multiindex("g(0,1)"))
    with pytest.raises(ConfigError):
        expectation_parity_filter(parse_multiindex("e1"))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _as_counts(m):
    return (m.a, m.b, m.p)


# frozen from the independent brute-force sweep (tests/oracles.py)
FROZEN_COUNTS = {
    (1, 0.55): {2.0: 11, 3.0: 63, 4.0: 277},
    (1, 0.75): {2.0: 6, 3.0: 23, 4.0: 91},
    (1, 0.95): {2.0: 6, 3.0: 23, 4.0: 71},
    (2, 0.55): {2.0: 14, 3.0: 95, 4.0: 501},
    (2, 0.75): {2.0: 9, 3.0: 45, 4.0: 201},
    (2, 0.95): {2.0: 9, 3.0: 45, 4.0: 181},
}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("alpha", [0.55, 0.75, 0.95])
def test_enumeration_matches_brute_force(d, alpha):
    params = ModelParams(alpha=alpha, d=d)
    for cutoff in (2.0, 3.0, 4.0):
        got = enumerate_populated(params, cutoff)
        assert len(got) == FROZEN_COUNTS[(d, alpha)][cutoff]
        want = brute_force_populated(alpha, d, cutoff)
        assert {_as_counts(m) for m in got} == set(want)


def test_enumeration_is_sorted_and_e0_free():
    pop = enumerate_populated(P055, 3.5)
    homs = [homogeneity(m, P055) for m in pop]
    assert homs == sorted(homs)
    assert len(set(pop)) == len(pop)
    for m in pop:
        assert dict(m.a).get(0, 0) == 0
        assert is_populated(m)
        assert homogeneity(m, P055) < 3.5


def test_enumeration_contains_the_display_indices():
    pop = set(enumerate_populated(P055, 3.0))
    for s in [
        "f0", "f0+f1", "f1+g(0,1)", "e1+2f0", "e1+f0+g(0,1)",
        "2f1+g(0,1)", "f0+f2+g(0,1)", "e2+2f0+g(0,1)",
        "2e1+2f0+g(0,1)", "e1+f0+f1+g(0,1)",
    ]:
        assert parse_multiindex(s) in pop, s


def test_enumeration_resource_guard():
    with pytest.raises(ResourceError):
        enumerate_populated(P055, 4.0, max_count=50)


def test_enumeration_from_the_layer_memo_equals_a_cold_search():
    """One process enumerates at several alphas, dimensions and cutoffs, so
    later calls read layers that earlier ones searched, at other alphas and
    smaller budgets; each list equals the one an emptied memo gives.  At
    alpha = 1/2 and 2/3 layers (s, w) of one homogeneity meet, and the
    merged run must still be in sort_key order."""
    alphas = (0.55, Fraction(1, 2), 0.75, Fraction(2, 3), 0.95)
    calls = [(ModelParams(alpha=a, d=d), cutoff)
             for d in (1, 2) for a in alphas for cutoff in (1.5, 3.0, 2.2, 3.6)]
    warm = [enumerate_populated(params, cutoff) for params, cutoff in calls]
    for (params, cutoff), got in zip(calls, warm):
        assert got == sorted(got, key=lambda m: (scaled_homogeneity(m, params), m.sort_key()))
        indices._LAYERS.clear()
        assert enumerate_populated(params, cutoff) == got
    half = ModelParams(alpha=Fraction(1, 2))
    layers = Counter((scaled_homogeneity(m, half), m.b_count()) for m in
                     enumerate_populated(half, 3.0))
    assert len(layers) > len({h for h, _s in layers})  # some layers do meet


def test_enumeration_returns_a_fresh_list():
    got = enumerate_populated(P055, 3.0)
    got.clear()
    assert len(enumerate_populated(P055, 3.0)) == 63


def test_max_count_holds_with_a_warm_or_a_cut_memo():
    count = FROZEN_COUNTS[(1, 0.55)][4.0]
    indices._LAYERS.clear()
    with pytest.raises(ResourceError, match="max_count=50"):
        enumerate_populated(P055, 4.0, max_count=50)  # a cold search, cut short
    assert len(enumerate_populated(P055, 4.0, max_count=count)) == count
    with pytest.raises(ResourceError, match=f"max_count={count - 1}"):
        enumerate_populated(P055, 4.0, max_count=count - 1)  # every layer from the memo


def test_iter_decorations_ordering():
    decs = iter_decorations(1, 4)
    assert decs[0] == (0, 1)
    assert (1, 0) in decs and (0, 4) in decs and (1, 1) not in decs[: decs.index((1, 0))]
    degs = [aniso_degree(n) for n in decs]
    assert degs == sorted(degs)


def _exact_alphas():
    """p/q in (1/4, 1), the d = 1 window, with q <= 12."""
    return st.integers(2, 12).flatmap(
        lambda q: st.integers(q // 4 + 1, q - 1).map(lambda p: Fraction(p, q))
    )


@settings(max_examples=40, deadline=None)
@given(_exact_alphas(), st.integers(0, 12))
def test_enumeration_is_exact_at_rational_alpha_property(alpha, k):
    """At alpha = p/q every homogeneity is a multiple of 1/q, so a cutoff
    n/q meets ties; the enumeration must match the brute force run in
    Fractions, and be sorted by the exact homogeneity."""
    q = alpha.denominator
    cutoff = Fraction(q + k * q // 12, q)  # in [1, 2]
    params = ModelParams(alpha=alpha)
    got = enumerate_populated(params, cutoff)
    assert {_as_counts(m) for m in got} == brute_force_populated(alpha, 1, cutoff)
    exact = [oracle_homogeneity(alpha, *_as_counts(m)) for m in got]
    assert exact == sorted(exact) and all(h < cutoff for h in exact)


def _undecorated_below_window(alpha):
    """Every undecorated index without an e0 slot whose weight W = [gamma]
    satisfies alpha W < 2, i.e. |gamma| = alpha (1 + W) < 2 + alpha, in
    Fractions, with up to W + 1 noise slots (one past the counterterm
    identity).  The search stops on the homogeneity alone."""
    alpha = Fraction(alpha)
    out = []
    weight = 0
    while alpha * weight < 2:
        for wa in range(weight + 1):
            velocities = [
                parts
                for k in range(wa + 1)
                for parts in itertools.combinations_with_replacement(range(1, wa + 1), k)
                if sum(parts) == wa
            ]
            noises = [
                parts
                for s in range(weight + 2)
                for parts in itertools.combinations_with_replacement(range(weight - wa + 1), s)
                if sum(parts) == weight - wa
            ]
            for vel in velocities:
                for noise in noises:
                    a = tuple(Counter(vel).items())
                    b = tuple(Counter(noise).items())
                    out.append(Multiindex(a, b))
        weight += 1
    return out


def _keeps_exactly(gamma, alpha, mode):
    """The counterterm window in Fractions: weight equal to the noise
    count, a noise slot, |gamma| < 2 + alpha, an even bracket if reduced."""
    alpha = Fraction(alpha)
    weight = gamma.a_weight() + gamma.b_weight()
    if gamma.p or weight != gamma.b_count() or not gamma.b_count():
        return False
    if not alpha * (1 + weight) < 2 + alpha:
        return False
    return mode == "raw" or weight % 2 == 0


# layer j of the reduced columns sits at (2j + 1) alpha, kept iff alpha < 1/j;
# a float is exact on its own value, so 1/3 as a float keeps layer 3
@pytest.mark.parametrize("alpha, count", [
    (0.55, 5), (0.45, 25), (0.30, 90), (Fraction(1, 3), 25), (1 / 3, 90),
    (Fraction(1, 2), 5), (0.5, 5),
])
def test_reduced_column_counts_by_brute_force(alpha, count):
    params = ModelParams(alpha=alpha)
    candidates = _undecorated_below_window(alpha)
    kept = [m for m in candidates if keeps_counterterm(m, params, "reduced")]
    assert kept == [m for m in candidates if _keeps_exactly(m, alpha, "reduced")]
    assert len(kept) == count


@settings(max_examples=40, deadline=None)
@given(_exact_alphas())
def test_keeps_counterterm_is_exact_at_rational_alpha_property(alpha):
    params = ModelParams(alpha=alpha)
    for gamma in _undecorated_below_window(Fraction(1, 4) + Fraction(1, 100)):
        for mode in ("raw", "reduced"):
            assert keeps_counterterm(gamma, params, mode) == _keeps_exactly(gamma, alpha, mode)


# ---------------------------------------------------------------------------
# homogeneity window and kappa
# ---------------------------------------------------------------------------


def test_choose_kappa_worked_example():
    params = ModelParams(alpha=0.6, d=1)
    # smallest homogeneity above 3 at alpha = 0.6 is 3.2, window
    # (3 - 1.2, min(2.5, 3.2 - 1.2)) = (1.8, 2.0), midpoint 1.9
    assert choose_kappa(params, cutoff=3.7) == pytest.approx(1.9)


def test_choose_kappa_needs_a_wide_enough_cutoff():
    params = ModelParams(alpha=0.6, d=1)
    with pytest.raises(ConfigError):
        choose_kappa(params, cutoff=3.1)


# ---------------------------------------------------------------------------
# renormalisation candidates
# ---------------------------------------------------------------------------


CANDIDATES = {
    "2e1+2f0+g(0,1)",
    "2f1+g(0,1)",
    "e1+f0+f1+g(0,1)",
    "e2+2f0+g(0,1)",
    "f0+f2+g(0,1)",
}


@pytest.mark.parametrize("params", [P055, P075, P095])
def test_candidates_are_the_five_known_modes(params):
    got = {format_multiindex(m) for m in renormalisation_candidates(params)}
    assert got == CANDIDATES
