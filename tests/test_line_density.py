"""The equal-time line density against the adaptive quad oracle."""

import math

import pytest

from oracles import quad_line_density
from tfrenorm import mc
from tfrenorm.constants import covariance_spec, mollifier_spec
from tfrenorm.kernel import SpectralGrid


@pytest.mark.parametrize("alpha, m0, kind, tau, eta", [
    (0.55, 1.0, "semigroup", 1e-24, 2.0),
    (0.7, 0.5, "semigroup", 1e-20, 2.0),
    (0.95, 2.0, "anisotropic", 1e-22, 3.0),
    (0.8, 1.5, "anisotropic", 1e-21, 2.0),
])
def test_equal_time_density_matches_panel_quad(alpha, m0, kind, tau, eta):
    sampler = mc.NoiseSampler(
        grid=SpectralGrid(d=1, sizes=(8, 64), boxes=(1.0, 1.0)),
        spec=covariance_spec(alpha, m0),
        moll=mollifier_spec(kind, tau, eta=eta, m0=m0),
        seed=1,
    )
    density = mc.equal_time_density(sampler)  # on the lattice k1 = 0, ..., 32
    rate = tau if kind == "semigroup" else tau**eta
    k0_mollifier = 1.0 / (2.0 * math.pi * math.sqrt(rate))
    for k1 in (1.0, 3.0, 10.0, 32.0):
        got = density[int(k1)]
        want, err = quad_line_density(sampler.spec.evaluator, sampler.moll.squared_symbol,
                                      m0, k1, k0_mollifier)
        assert abs(got - want) <= err, k1
