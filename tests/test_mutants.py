"""Planted defects and the checks that catch them.

Each row of MUTANTS names a defect, the monkeypatch that plants it, the
checks that must catch it (worst |z| above Z_CAUGHT on every seed) and those
that miss it (worst |z| at most Z_CAUGHT on every seed), each run as the
benchmark runs it: on its 64 x 256 grid, at its three corners, with its
sample counts and times.  The benchmark does not run bphz f0; it runs here
with the samples and times of bphz f0+f1.  A check that misses a defect
some other check catches names what only the catching check can see.

ALGEBRA_MUTANTS does the same for the structure group and the hierarchy,
with five checks: the multiplicativity identity of the Gamma* battery,
gamma_entry against the row-wise containment oracle (which applies the
unmutated derivations), the benchmark's spot check of gamma_entry against
the gamma_apply column, and the replays of the packaged hierarchy.json and
d0_rows.json, each read as its count of defect lines.  gamma_entry reads
the column's own walk, so the spot check sets no two paths against each
other and misses every defect of the walk.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import gamma_entry_by_containment
from test_group import PARAMS as GROUP_PARAMS, random_structure_map
from test_mc_pipeline import CORNERS, T_LIST, make_sampler
from tfrenorm import clear_memos, group, hierarchy, mc, verify
from tfrenorm.indices import e, enumerate_populated, f, parse_multiindex

Z_CAUGHT = 3.5
SEEDS = range(4)

CHECKS = {
    "covariance": lambda s: mc.covariance_check(s, n_samples=64),
    "moment": lambda s: mc.pi_f0_second_moment_check(s, n_samples=64),
    "bphz_f0f1": lambda s: mc.bphz_triviality_check(s, T_LIST, "f0f1", n_samples=96),
    "bphz_f0": lambda s: mc.bphz_triviality_check(s, T_LIST, "f0", n_samples=96),
}


def amplitude_times(factor):
    """The plant that multiplies every draw's amplitude on S by factor(source)."""

    def plant(monkeypatch):
        init = mc._NoiseSource.__init__

        def planted(source, *args, **kwargs):
            init(source, *args, **kwargs)
            source._amplitude = source._amplitude * factor(source)

        monkeypatch.setattr(mc._NoiseSource, "__init__", planted)

    return plant


def mean_shifted(size):
    """The plant that adds size times the amplitude on S to every block, a
    mean of size standard deviations per mode."""

    def plant(monkeypatch):
        block = mc._NoiseSource.block

        def planted(source, index, comp):
            return block(source, index, comp) + size * source._amplitude

        monkeypatch.setattr(mc._NoiseSource, "block", planted)

    return plant


# (name, plant, caught by, missed by); unmutated, the four checks read
# worst |z| at most 3.18 over these seeds and corners (bphz f0 at most
# 2.31), each z from the exact variance of a sample
MUTANTS = [
    # a draw 5% too strong: its power is 10% too high, which the covariance
    # check reads at worst |z| 11.2-25.6 and the averaged moment check at
    # 6.1-9.9; the mean of xi pi_f0 stays 0 under any rescaling, so the
    # bphz f0+f1 read does not see it (at most 2.5)
    ("amplitude_x1.05", amplitude_times(lambda source: 1.05), ["covariance", "moment"],
     ["bphz_f0f1"]),
    # 1/c(k0) dropped from the amplitude: off the self-conjugate planes the
    # power doubles, which covariance reads at 106-234 and moment at 63-71.
    # bphz f0+f1 reads 0.18-4.55, on both sides of Z_CAUGHT, so it is listed
    # neither as catching nor as missing it
    ("c2r_weight_dropped", amplitude_times(lambda source: np.sqrt(source.grid.c2r_weights())),
     ["covariance", "moment"], []),
    # a draw 5% stronger at k1 > 0 and 5% weaker at k1 < 0: the f0+f1 read,
    # whose oracle vanishes by evenness in k1, sees it at 4.70-8.65, while
    # covariance (at most 3.10) and moment (at most 2.68) read the power
    # summed over k1 and -k1, which moves by 0.25%
    ("amplitude_x1.05_sign_k1",
     amplitude_times(lambda source: 1 + 0.05 * np.sign(source.grid.frequencies(1)[source.cols])),
     ["bphz_f0f1"], ["covariance", "moment"]),
    # a mean of 0.1 standard deviations per mode: the f0 read, whose oracle
    # is the vanishing mean, sees it at 5.25-11.29, while the three reads of
    # the power, which moves by 1%, stay at most 3.15
    ("mean_shift_0.1", mean_shifted(0.1), ["bphz_f0"],
     ["covariance", "moment", "bphz_f0f1"]),
]


@pytest.mark.parametrize("alpha, tau, m0", CORNERS)
@pytest.mark.parametrize("plant, caught, missed", [m[1:] for m in MUTANTS],
                         ids=[m[0] for m in MUTANTS])
def test_each_mutant_is_caught_by_its_checks(monkeypatch, plant, caught, missed, alpha, tau, m0):
    plant(monkeypatch)
    for seed in SEEDS:
        sampler = make_sampler((64, 256), alpha, tau, m0, seed)
        for name in caught:
            assert CHECKS[name](sampler).worst_z() > Z_CAUGHT, (name, seed)
        for name in missed:
            assert CHECKS[name](sampler).worst_z() <= Z_CAUGHT, (name, seed)


# ---------------------------------------------------------------------------
# the structure group
# ---------------------------------------------------------------------------

# the derivations as the oracle reads them, with D0 taken before any plant
UNMUTATED_D0 = group.d0_apply
UNMUTATED = SimpleNamespace(basis=group.basis, dn_apply=lambda series, n: (
    group.dn_apply(series, n) if any(n) else UNMUTATED_D0(series)))


def multiplicativity():
    """Worst |Gamma*(x y) - Gamma*(x) Gamma*(y)| over the battery's 30 float
    maps and pairs of two-term series, at cutoff 3.0."""
    rng = random.Random(20240817)
    pop = enumerate_populated(GROUP_PARAMS, 2.2)
    worst = 0.0
    for _ in range(30):
        smap = random_structure_map(GROUP_PARAMS, rng, density=0.4)
        x, y = (group.SeriesVector({rng.choice(pop): rng.uniform(-1, 1) for _ in range(2)})
                for _ in range(2))
        lhs = group.gamma_apply(group.series_mul(x, y), smap, 3.0)
        rhs = group.series_mul(group.gamma_apply(x, smap, 3.0),
                               group.gamma_apply(y, smap, 3.0)).truncate(GROUP_PARAMS, 3.0)
        worst = max([worst] + [abs(lhs.get(k, 0.0) - rhs.get(k, 0.0))
                               for k in set(lhs.coeffs) | set(rhs.coeffs)])
    return worst


def entry_deviations(want):
    """Worst |gamma_entry - want(beta, gamma, smap)| over four columns of a
    float map and every populated row below 3.4."""
    smap = random_structure_map(GROUP_PARAMS, random.Random(13))
    return max(abs(group.gamma_entry(beta, gamma, smap) - want(beta, gamma, smap))
               for gamma in map(parse_multiindex, ("f0", "f0+f1", "g(0,1)", "e1+2f0"))
               for beta in enumerate_populated(GROUP_PARAMS, 3.4))


def fixture_defects(replay, name):
    """The number of defect lines replay finds in the packaged fixture."""
    return len(replay(verify.load_fixture(name))[1])


ALGEBRA_CHECKS = {
    "multiplicativity": multiplicativity,
    "containment": lambda: entry_deviations(
        lambda beta, gamma, smap: gamma_entry_by_containment(UNMUTATED, beta, gamma, smap)),
    "spot": lambda: entry_deviations(
        lambda beta, gamma, smap: group.gamma_apply(group.basis(gamma), smap, 3.4).get(beta, 0)),
    "hierarchy_fixture": lambda: fixture_defects(verify.verify_hierarchy, "hierarchy.json"),
    "d0_rows_fixture": lambda: fixture_defects(verify.verify_d0_rows, "d0_rows.json"),
}
DEVIATION_CAUGHT = 1e-9


def d0_count_weight(monkeypatch):
    """D0 weighted by the slot count c alone, not by (k + 1) c."""

    def planted(series):
        out = group.SeriesVector()
        for gamma, v in series.items():
            for k, c in gamma.a:
                out.add_term(gamma.minus(e(k)) + e(k + 1), v * c)
            for l, c in gamma.b:
                out.add_term(gamma.minus(f(l)) + f(l + 1), v * c)
        return out

    monkeypatch.setattr(group, "d0_apply", planted)


def repeat_factorial_dropped(monkeypatch):
    """A word's coefficient without the 1/j! of a letter repeated j times."""

    def planted(smap, word, idx, nword):
        _n, m, v = smap._letters[idx]
        mult = word.reps + 1 if idx == word.last else 1
        kid = word.kids[idx] = group._Word(word.value * v, word.fact, word.shift + m, nword,
                                           idx, mult)
        return kid

    monkeypatch.setattr(group.StructureMap, "_child", planted)


def counter_weights_doubled(monkeypatch):
    """Every weight of the (D0)^m rows that hierarchy expands with doubled;
    group.d0_power_row, which verify_d0_rows binds, stays as it is."""
    row = hierarchy.d0_power_row
    monkeypatch.setattr(hierarchy, "d0_power_row",
                        lambda sigma, m: {gamma: 2 * w for gamma, w in row(sigma, m).items()})


# (name, plant, caught by, missed by); unmutated, every check reads at most
# 5e-16.  D0 weighted by c is still a derivation that commutes with every
# D^(n), so Gamma* stays an algebra map and multiplicativity reads 2e-16 on
# it; the containment oracle reads 1.02.  Without 1/j! the word sum is no
# exponential: multiplicativity reads 0.81 and containment 3.47.  Doubled
# counter weights change the 21 counter terms of hierarchy.json (weights 1
# and 2), so its replay reads 9 defect lines, one per entry that has any;
# the d0_rows replay reads the rows through group, and reads none
ALGEBRA_MUTANTS = [
    ("d0_count_weight", d0_count_weight, ["containment"], ["multiplicativity", "spot"]),
    ("repeat_factorial_dropped", repeat_factorial_dropped, ["multiplicativity", "containment"],
     ["spot"]),
    ("counter_weights_doubled", counter_weights_doubled, ["hierarchy_fixture"],
     ["d0_rows_fixture"]),
]


@pytest.fixture
def cleared_memos():
    """The derived series of the columns and the counter rows of the
    hierarchy hold the code they were made with, so a plant starts and
    leaves empty memos."""
    clear_memos()
    yield
    clear_memos()


def test_the_algebra_checks_read_no_deviation_unmutated(cleared_memos):
    for name, check in ALGEBRA_CHECKS.items():
        assert check() <= 1e-15, name


@pytest.mark.parametrize("plant, caught, missed", [m[1:] for m in ALGEBRA_MUTANTS],
                         ids=[m[0] for m in ALGEBRA_MUTANTS])
def test_each_algebra_mutant_is_caught_by_its_checks(monkeypatch, cleared_memos, plant,
                                                      caught, missed):
    plant(monkeypatch)
    for name in caught:
        assert ALGEBRA_CHECKS[name]() > DEVIATION_CAUGHT, name
    for name in missed:
        assert ALGEBRA_CHECKS[name]() <= DEVIATION_CAUGHT, name
