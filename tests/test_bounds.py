"""Closed-form constants behind the mean and level-set lower bounds."""

import math

import numpy as np
import pytest

from logderiv import (
    AREA_LOWER_BOUND,
    DomainError,
    endpoint_window_width,
    level_measure_constant,
    matched_delta,
    mean_lower_constant,
)
from logderiv.bounds import mean_lower_bound


def test_integer_cases_are_exact():
    assert mean_lower_constant(1.0) == 1.0 / 192.0
    assert mean_lower_constant(2.0) == 1.0 / 800.0


def test_level_constant_frozen_values():
    assert level_measure_constant(0.2) == pytest.approx(0.028698979591836735, abs=0, rel=1e-15)
    assert level_measure_constant(0.25) == 1.0 / 48.0


def test_level_constant_decreasing_in_delta():
    grid = np.linspace(0.01, 0.49, 97)
    vals = [level_measure_constant(float(d)) for d in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0.0 for v in vals)


def test_level_constant_domain():
    for bad in (0.0, 0.5, -0.1, 1.0):
        with pytest.raises(DomainError):
            level_measure_constant(bad)


def test_mean_constant_domain():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            mean_lower_constant(bad)
        with pytest.raises(DomainError):
            matched_delta(bad)


@pytest.mark.parametrize("p", [100.0, 143.0, 144.0, 400.0, 1000.0])
def test_mean_constant_and_floor_at_large_p(p):
    # p^p overflows from p ~ 144 on; the log-space value must still be
    # delta^p K(delta) at the matched delta, and the floor K n^(p-1)
    # must be finite where it fits a float and inf where it does not
    d = matched_delta(p)
    log_c = p * math.log(d) + math.log(level_measure_constant(d))
    assert mean_lower_constant(p) == pytest.approx(math.exp(log_c), rel=1e-12)
    for n in (1, 2, 6, 30):
        log_b = log_c + (p - 1.0) * math.log(n)
        if log_b < 700.0:
            assert mean_lower_bound(p, n) == pytest.approx(math.exp(log_b), rel=1e-12)
        else:
            assert mean_lower_bound(p, n) == math.inf


def test_mean_constant_from_level_constant():
    # the p-mean floor is delta^p * K(delta) at the matched delta
    rng = np.random.default_rng(3)
    for p in rng.uniform(0.05, 5.0, 200):
        p = float(p)
        d = matched_delta(p)
        assert 0.0 < d < 0.5
        linked = d**p * level_measure_constant(d)
        assert mean_lower_constant(p) == pytest.approx(linked, rel=1e-14)


def test_matched_delta_examples():
    assert matched_delta(1.0) == 0.25
    assert matched_delta(2.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    with pytest.raises(DomainError):
        matched_delta(0.0)


def test_window_width_examples():
    assert endpoint_window_width(1, 0.2) == pytest.approx(3.0 / 2.8, rel=1e-15)
    assert endpoint_window_width(10, 0.25) == pytest.approx(0.1, rel=1e-15)
    with pytest.raises(DomainError):
        endpoint_window_width(0, 0.2)
    with pytest.raises(DomainError):
        endpoint_window_width(4, 0.6)


def test_window_width_shrinks_like_one_over_n():
    w1 = endpoint_window_width(1, 0.3)
    for n in (2, 4, 8, 100):
        assert endpoint_window_width(n, 0.3) == pytest.approx(w1 / n, rel=1e-15)


def test_area_constants():
    assert AREA_LOWER_BOUND == math.pi / 192.0
