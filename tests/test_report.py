"""Reports at points whose per-sample value never varies: a point whose
exact variance is 0 has no standard error."""

import math

import numpy as np

from tfrenorm.mc import _report


def test_point_without_spread_on_its_oracle_has_zero_error_and_z():
    rng = np.random.default_rng(5)
    estimates = [rng.normal(size=32).mean(), 0.0]
    rep = _report("check", ["moving", "still"], 32, estimates, [0.0, 0.0], [1.0, 0.0])
    assert rep.samples == 32
    assert rep.standard_errors[1] == 0.0
    assert rep.z_scores[1] == 0.0
    assert rep.standard_errors[0] > 0 and math.isfinite(rep.z_scores[0])


def test_point_without_spread_off_its_oracle_has_an_infinite_z():
    rep = _report("check", ["still"], 32, [0.25], [0.5], [0.0])
    assert rep.standard_errors == (0.0,)
    assert rep.z_scores == (-math.inf,)
    assert rep.worst_z() == math.inf
