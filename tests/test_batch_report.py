"""Reports at points whose per-sample value never varies: a point whose
exact variance is 0 has no standard error."""

import math

import numpy as np

from tfrenorm.mc import _report


def test_point_without_spread_on_its_oracle_has_zero_error_and_z():
    rng = np.random.default_rng(5)
    per_sample = np.column_stack([rng.normal(size=32), np.zeros(32)])
    rep = _report("check", ["moving", "still"], per_sample, [0.0, 0.0], [1.0, 0.0])
    assert rep.standard_errors[1] == 0.0
    assert rep.z_scores[1] == 0.0
    assert rep.standard_errors[0] > 0 and math.isfinite(rep.z_scores[0])


def test_point_without_spread_off_its_oracle_has_an_infinite_z():
    per_sample = np.full((32, 1), 0.25)
    rep = _report("check", ["still"], per_sample, [0.5], [0.0])
    assert rep.standard_errors == (0.0,)
    assert rep.z_scores == (-math.inf,)
    assert rep.worst_z() == math.inf
