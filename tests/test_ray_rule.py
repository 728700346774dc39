"""The conditions under which the finite-tau tables hold: the paper's
homogeneous covariance and alpha < 1."""

import math

import pytest

from oracles import check_homogeneous
from tfrenorm.constants import (
    CovarianceSpec,
    counterterm_table,
    covariance_spec,
    mollifier_spec,
)
from tfrenorm.errors import ConfigError
from tfrenorm.kernel import TWO_PI


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
