"""The sharp family n x^(n-1)/(x^n + i): closed forms vs generic routes."""

import math

import numpy as np
import pytest

from logderiv import (
    DomainError,
    MeanSpec,
    PoleSet,
    eval_level_array,
    eval_logderiv,
    level_set_for,
    level_measure_constant,
    lp_mean,
    mean_lower_constant,
    sharp_level,
    sharp_level_constant,
    sharp_level_cutoff,
    sharp_level_set,
    sharp_lp_mean,
    sharp_mean_constant,
    sharp_poles,
    eval_sharp,
)

TWO_PI = 2.0 * math.pi

TWO_ASINH_ONE = 1.7627471740390859  # p=1 family constant, 2 ln(1+sqrt 2)
HALF_PI = 1.5707963267948966  # p=2 family constant


def test_sharp_poles_solve_the_defining_equation():
    for n in (1, 2, 3, 5, 8):
        ps = sharp_poles(n)
        assert ps.n == n
        assert np.allclose(ps.points**n, -1j, atol=1e-12)


def test_eval_sharp_examples():
    assert eval_sharp(1, 0.0) == pytest.approx(-1j, abs=1e-15)
    assert eval_sharp(2, 1.0) == pytest.approx(1.0 - 1.0j, abs=1e-15)
    for n in (2, 3, 7):
        assert eval_sharp(n, 0.0) == 0.0


def test_eval_sharp_matches_pole_sum():
    # the family is realized by the n poles solving z^n = -i
    rng = np.random.default_rng(101)
    for n in (1, 2, 3, 6):
        ps = sharp_poles(n)
        for x in rng.uniform(-0.99, 0.99, 20):
            direct = eval_logderiv(ps, complex(float(x), 0.0))
            closed = eval_sharp(n, float(x))
            assert direct == pytest.approx(closed, rel=1e-11, abs=1e-11)


def test_sharp_level_closed_form():
    assert sharp_level(1, 0.5) == pytest.approx(0.2, abs=1e-15)
    for n in (1, 2, 5):
        assert sharp_level(n, 1.0) == pytest.approx(n / 2.0, abs=1e-14)
        assert sharp_level(n, 0.0) == 0.0


def test_sharp_level_matches_generic_level():
    rng = np.random.default_rng(103)
    for n in (1, 2, 4):
        ps = sharp_poles(n)
        for x in rng.uniform(-0.99, 0.99, 20):
            assert sharp_level(n, float(x)) == pytest.approx(
                eval_level_array(ps, float(x)), rel=1e-11, abs=1e-12
            )


def test_sharp_mean_closed_form_small_cases():
    assert sharp_lp_mean(1, 1.0) == pytest.approx(TWO_ASINH_ONE, rel=1e-10)
    assert sharp_lp_mean(1, 2.0) == pytest.approx(HALF_PI, rel=1e-10)


def test_sharp_mean_matches_generic_quadrature():
    # the substitution-free route integrates |g~|^p directly
    for n in (1, 2, 4):
        ps = sharp_poles(n)
        for p in (0.5, 1.0, 2.0):
            closed = sharp_lp_mean(n, p)
            direct = lp_mean(ps, MeanSpec(p=p))
            assert direct.value == pytest.approx(closed, rel=1e-6)


def test_sharp_mean_constants():
    assert sharp_mean_constant(1.0) == pytest.approx(TWO_ASINH_ONE, rel=1e-10)
    assert sharp_mean_constant(2.0) == pytest.approx(HALF_PI, rel=1e-10)
    # integrable endpoint singularity t^(-1/2) at p = 0.5
    assert math.isfinite(sharp_mean_constant(0.5))
    assert sharp_mean_constant(0.5) > 0.0


def test_sharpness_bracketing():
    for n in (1, 2, 4, 8):
        for p in (0.5, 1.0, 2.0):
            value = sharp_lp_mean(n, p)
            lower = mean_lower_constant(p) * n ** (p - 1.0)
            upper = sharp_mean_constant(p) * n ** (p - 1.0)
            assert lower < value <= upper * (1.0 + 1e-12)


def test_mean_domain_rejects_non_finite_p():
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            sharp_lp_mean(4, bad)


def test_level_constant_and_domain():
    assert sharp_level_constant(0.2) == pytest.approx(math.log(4.0), rel=1e-15)
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(DomainError):
            sharp_level_constant(bad)


def test_level_cutoff_frozen_values():
    assert sharp_level_cutoff(2, 0.2) == pytest.approx(2.0**-0.5, rel=1e-15)
    assert sharp_level_cutoff(4, 0.2) == pytest.approx(4.0**-0.125, rel=1e-15)


def test_level_set_examples():
    u = sharp_level_set(1, 0.2)
    assert np.allclose(u.intervals, [(-1.0, -0.5), (0.5, 1.0)], atol=1e-12)
    assert u.measure == pytest.approx(1.0, abs=1e-12)
    v = sharp_level_set(2, 0.2)
    assert v.measure == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-14)
    assert sharp_level_set(3, 0.5).is_empty
    assert sharp_level_set(3, 0.9).is_empty


def test_level_set_bracketing():
    for n in range(1, 11):
        for delta in (0.1, 0.2, 0.3, 0.4):
            mu = sharp_level_set(n, delta).measure
            assert level_measure_constant(delta) / n <= mu
            assert mu < sharp_level_constant(delta) / n


def test_level_set_matches_generic_for_single_pole():
    # n = 1 member is the single pole at -i
    a = sharp_level_set(1, 0.3)
    b = level_set_for(PoleSet((1.5 * math.pi,)), 0.3)
    assert len(a.intervals) == len(b.intervals)
    for (p, q), (r, s) in zip(a.intervals, b.intervals):
        assert abs(p - r) <= 1e-10 and abs(q - s) <= 1e-10


def test_level_set_matches_generic_at_larger_n():
    for n in (2, 3, 5):
        a = sharp_level_set(n, 0.25)
        b = level_set_for(sharp_poles(n), 0.25)
        assert len(a.intervals) == len(b.intervals)
        for (p, q), (r, s) in zip(a.intervals, b.intervals):
            assert abs(p - r) <= 1e-10 and abs(q - s) <= 1e-10


def test_exponential_lower_bound_inequality():
    # a^(-t) > 1 - t ln a for a > 1, t in (0, 1]; this is what turns the
    # cutoff into the measure bound
    rng = np.random.default_rng(107)
    a = rng.uniform(1.0 + 1e-9, 50.0, 1000)
    t = rng.uniform(1e-9, 1.0, 1000)
    assert (a**-t > 1.0 - t * np.log(a)).all()


def test_mean_ratio_increases_toward_constant():
    # the normalized mean approaches its supremum from below as n grows
    for p in (0.5, 2.0):
        const = sharp_mean_constant(p)
        ratios = [sharp_lp_mean(n, p) / n ** (p - 1.0) for n in (1, 2, 4, 8, 16)]
        assert all(r <= const * (1.0 + 1e-12) for r in ratios)
