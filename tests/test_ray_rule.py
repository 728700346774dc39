"""The Gauss-Legendre rule of the MC line density, and the conditions under
which the finite-tau tables hold: the paper's homogeneous covariance and
alpha < 1."""

import math

import numpy as np
import pytest
from scipy.linalg.lapack import dstevd

from oracles import check_homogeneous
from tfrenorm.constants import (
    CovarianceSpec,
    counterterm_table,
    covariance_spec,
    mollifier_spec,
)
from tfrenorm.errors import ConfigError
from tfrenorm.kernel import TWO_PI
from tfrenorm.mc import _legendre


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_legendre_rule_is_the_stevd_rule_to_the_bit(n):
    """The symmetric eigensolver gives the bits LAPACK stevd gives on the
    Jacobi matrix of the Legendre polynomials, so the MC line density keeps
    the rule it was validated with (the finite-tau tables are closed forms
    and use no quadrature rule)."""
    k = np.arange(1, n)
    s = 2.0 * k
    off = np.sqrt(4.0 * k * k * k**2 / (s * s * (s + 1.0) * (s - 1.0)))
    nodes, vectors, info = dstevd(np.zeros(n), off, compute_v=1)
    assert info == 0
    got_nodes, got_weights = _legendre(n)
    assert np.array_equal(got_nodes, 0.5 * (nodes + 1.0))
    assert np.array_equal(got_weights, vectors[0] ** 2)


def _paper_form(alpha, shift):
    """FC = (shift + Q)^(-eps/8) and its k1-derivative: even in both
    frequencies, and homogeneous only at shift = 0."""
    power = -(2.0 * alpha - 1.0) / 8.0

    def fc(k0, k1):
        return (shift + (TWO_PI * k0) ** 2 + (TWO_PI * k1) ** 8) ** power

    def dfc(k0, k1):
        q_val = shift + (TWO_PI * k0) ** 2 + (TWO_PI * k1) ** 8
        return power * q_val ** (power - 1.0) * 16.0 * math.pi * (TWO_PI * k1) ** 7

    return CovarianceSpec(alpha, 1.0, fc), dfc


def test_even_non_homogeneous_covariance_is_refused():
    moll = mollifier_spec("semigroup", 1e-3)
    paper = counterterm_table(covariance_spec(0.55), moll)
    same = counterterm_table(_paper_form(0.55, 0.0)[0], moll)
    assert same.c1 == pytest.approx(paper.c1, rel=1e-14)
    check_homogeneous(*_paper_form(0.55, 0.0))
    with pytest.raises(ValueError, match="misses its degree"):
        check_homogeneous(*_paper_form(0.55, 1.0))
    with pytest.raises(ConfigError, match="homogeneous"):
        counterterm_table(_paper_form(0.55, 1.0)[0], moll)


@pytest.mark.parametrize("alpha", [1.0, 1.2, math.nan])
def test_tables_need_alpha_below_one(alpha):
    """r^(-eps) is integrable at r = 0 only for eps = 2 alpha - 1 < 1."""
    with pytest.raises(ConfigError, match="alpha < 1"):
        counterterm_table(_paper_form(alpha, 0.0)[0], mollifier_spec("semigroup", 1e-3))
