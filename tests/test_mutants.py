"""Planted defects and the checks that catch them.

Each row of MUTANTS names a defect, the monkeypatch that plants it, the
checks that must catch it (worst |z| above Z_CAUGHT on every seed) and those
that miss it (worst |z| at most Z_CAUGHT on every seed), each run as the
benchmark runs it: on its 64 x 256 grid, at its three corners, with its
sample counts and times.  The benchmark does not run bphz f0; it runs here
with the samples and times of bphz f0+f1.  A check that misses a defect
some other check catches names what only the catching check can see.
"""

import numpy as np
import pytest

from test_mc_pipeline import CORNERS, T_LIST, make_sampler
from tfrenorm import mc

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
