"""The equal-time line density against the adaptive quad oracle and the
40-digit mpmath oracle."""

import math

import numpy as np
import pytest

from oracles import mp_line_density, quad_line_density
from tfrenorm import mc
from tfrenorm.constants import covariance_spec, mollifier_spec
from tfrenorm.kernel import SpectralGrid


def _sampler(alpha, m0, kind, tau, eta, box=1.0):
    return mc.NoiseSampler(
        grid=SpectralGrid(d=1, sizes=(8, 64), boxes=(1.0, box)),
        spec=covariance_spec(alpha, m0),
        moll=mollifier_spec(kind, tau, eta=eta, m0=m0),
        seed=1,
    )


@pytest.mark.parametrize("alpha, m0, kind, tau, eta", [
    (0.55, 1.0, "semigroup", 1e-24, 2.0),
    (0.7, 0.5, "semigroup", 1e-20, 2.0),
    (0.95, 2.0, "anisotropic", 1e-22, 3.0),
    (0.8, 1.5, "anisotropic", 1e-21, 2.0),
])
def test_equal_time_density_matches_panel_quad(alpha, m0, kind, tau, eta):
    sampler = _sampler(alpha, m0, kind, tau, eta)
    density = mc.equal_time_density(sampler)  # on the lattice k1 = 0, ..., 32
    rate = tau if kind == "semigroup" else tau**eta
    k0_mollifier = 1.0 / (2.0 * math.pi * math.sqrt(rate))
    for k1 in range(1, 33):
        want, err = quad_line_density(sampler.spec.evaluator, sampler.moll.squared_symbol,
                                      m0, float(k1), k0_mollifier)
        assert abs(density[k1] - want) <= err, k1


MPMATH_POINTS = [
    (0.55, 1.0, "semigroup", 1e-24, 2.0, 1.0, (1, 5, 32)),
    # U = asinh(k0_max / ridge) reaches 70 at k1 = 1
    (0.95, 2.0, "anisotropic", 1e-22, 3.0, 1.0, (1, 7, 32)),
    # k1 = 1, 1.25, 1.5: the ridge 248, 606, 1256 exceeds k0_moll = 159
    (0.75, 1.0, "semigroup", 1e-6, 2.0, 4.0, (3, 4, 5, 6)),
    (0.6, 0.25, "anisotropic", 1e-20, 1.5, 1.0, (1, 10, 32)),
    (0.85, 4.0, "semigroup", 1e-12, 2.0, 1.0, (1, 2, 8)),
]


@pytest.mark.parametrize("alpha, m0, kind, tau, eta, box, modes", MPMATH_POINTS)
def test_equal_time_density_meets_the_mpmath_oracle(alpha, m0, kind, tau, eta, box, modes):
    # within the rule's own error estimate plus the rounding of its float
    # integrand, whose envelope exp(-x), x >= space_rate (2 pi k1)^8, is
    # off by up to x eps relative
    sampler = _sampler(alpha, m0, kind, tau, eta, box)
    density, err = mc._line_density(sampler)
    for j in modes:
        k1 = j / box
        want = float(mp_line_density(alpha, m0, sampler.moll.time_rate,
                                     sampler.moll.space_rate, k1))
        x = sampler.moll.space_rate * (2.0 * math.pi * k1) ** 8
        rounding = 8.0 * np.finfo(float).eps * (1.0 + x) * want
        assert abs(density[j] - want) <= err[j] + rounding, (j, density[j], want, err[j])


@pytest.mark.parametrize("alpha, m0, kind, tau, eta, box, modes", MPMATH_POINTS)
def test_line_density_error_estimate_covers_its_rounding(alpha, m0, kind, tau, eta, box, modes):
    # the estimate carries its own rounding floor, so the 40-digit gap is
    # within it alone: without the floor it reads 2.8e-59 at the anisotropic
    # eta 3 k1 = 7, where the gap is 4.2e-22
    sampler = _sampler(alpha, m0, kind, tau, eta, box)
    density, err = mc._line_density(sampler)
    for j in modes:
        want = float(mp_line_density(alpha, m0, sampler.moll.time_rate,
                                     sampler.moll.space_rate, j / box))
        assert abs(density[j] - want) <= err[j], (j, density[j], want, err[j])
