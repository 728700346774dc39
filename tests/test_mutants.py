"""Planted defects and the checks that catch them.

Each row of MUTANTS names a defect, the monkeypatch that plants it, the
checks that must catch it (worst |z| above Z_CAUGHT on every seed) and those
that miss it (worst |z| at most Z_CAUGHT on every seed), each run as the
benchmark runs it: on its 64 x 256 grid, at its three corners, with its
sample counts and times.  A check that misses a defect some other check
catches names what only the catching check can see.
"""

import pytest

from oracles import single_x_bphz_f0f1
from test_mc_pipeline import CORNERS, T_LIST, make_sampler
from tfrenorm import kernel, mc

Z_CAUGHT = 3.5
SEEDS = range(4)

CHECKS = {
    "moment": lambda s: mc.pi_f0_second_moment_check(s, n_samples=64),
    "bphz_f0f1": lambda s: mc.bphz_triviality_check(s, T_LIST, "f0f1", n_samples=96),
    "bphz_f0f1_at_x": lambda s: single_x_bphz_f0f1(mc, kernel, s, T_LIST, (17, 101), 96),
}


def scaled_amplitude(monkeypatch):
    init = mc._NoiseSource.__init__

    def scaled(source, *args, **kwargs):
        init(source, *args, **kwargs)
        source._amplitude = source._amplitude * 1.05

    monkeypatch.setattr(mc._NoiseSource, "__init__", scaled)


# (name, plant, caught by, missed by)
MUTANTS = [
    # a draw 5% too strong: its power is 10% too high, which the averaged
    # moment check reads at worst |z| 6.1-9.9 (0.4-2.7 unmutated); the
    # mean of xi pi_f0 stays 0 under any rescaling, so no bphz f0+f1 read,
    # at x or averaged, sees it (at most 2.8)
    ("amplitude_x1.05", scaled_amplitude, ["moment"], ["bphz_f0f1", "bphz_f0f1_at_x"]),
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
