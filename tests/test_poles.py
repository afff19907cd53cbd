"""Pole configurations, the level function, and the Poisson kernel."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from logderiv import (
    DomainError,
    PoleHit,
    PoleSet,
    eval_level_array,
    eval_logderiv,
    poisson_kernel,
)
from logderiv.poles import poles_digest, to_rational

TWO_PI = 2.0 * math.pi


def test_construction_normalizes_angles():
    ps = PoleSet((TWO_PI + 0.5, -0.25, 7.0))
    for t in ps.angles:
        assert 0.0 <= t < TWO_PI
    assert ps.n == 3
    assert math.isclose(ps.angles[0], 0.5, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(ps.angles[1], TWO_PI - 0.25, rel_tol=0, abs_tol=1e-12)


def test_construction_rejects_bad_input():
    with pytest.raises(Exception):
        PoleSet(())
    with pytest.raises(Exception):
        PoleSet((math.nan,))
    with pytest.raises(Exception):
        PoleSet((math.inf,))


def test_points_lie_on_unit_circle():
    ps = PoleSet((0.3, 1.7, 4.0, 5.9))
    assert np.allclose(np.abs(ps.points), 1.0, atol=1e-15)


def test_duplicate_angles_are_allowed():
    ps = PoleSet((1.0, 1.0, 1.0))
    assert ps.n == 3


def test_eval_logderiv_single_pole_at_i():
    ps = PoleSet((math.pi / 2.0,))
    assert eval_logderiv(ps, 0.0 + 0.0j) == pytest.approx(1j, abs=1e-15)


def test_eval_logderiv_single_pole_at_one():
    ps = PoleSet((0.0,))
    assert eval_logderiv(ps, 0.5 + 0.0j) == pytest.approx(-2.0 + 0.0j, abs=1e-15)


def test_eval_logderiv_cube_roots_cancel_at_origin():
    ps = PoleSet(tuple(TWO_PI * k / 3.0 for k in range(3)))
    assert abs(eval_logderiv(ps, 0.0 + 0.0j)) < 1e-15


def test_eval_logderiv_pole_hit():
    ps = PoleSet((0.0,))
    with pytest.raises(PoleHit):
        eval_logderiv(ps, 1.0 + 0.0j)


def test_rotation_covariance_of_magnitude():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        base = rng.uniform(0.0, TWO_PI, n)
        phi = float(rng.uniform(0.0, TWO_PI))
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        rotated = PoleSet(tuple((base + phi) % TWO_PI))
        a = abs(eval_logderiv(rotated, z))
        b = abs(eval_logderiv(PoleSet(tuple(base)), z * complex(math.cos(phi), -math.sin(phi))))
        assert a == pytest.approx(b, rel=1e-12)


def test_eval_level_single_pole_at_i():
    ps = PoleSet((math.pi / 2.0,))
    assert eval_level_array(ps, 0.5) == pytest.approx(0.2, abs=1e-15)


def test_eval_level_zero_at_origin():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        ps = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        assert eval_level_array(ps, 0.0) == 0.0


def test_eval_level_single_pole_at_one():
    ps = PoleSet((0.0,))
    assert eval_level_array(ps, 0.5) == pytest.approx(-1.0, abs=1e-15)


def test_eval_level_array_real_pole_endpoints_are_infinite():
    # a real pole's own endpoint gives +-inf; the opposite endpoint is finite
    assert eval_level_array(PoleSet((0.0,)), 1.0) == math.inf
    assert eval_level_array(PoleSet((math.pi,)), -1.0) == -math.inf
    assert eval_level_array(PoleSet((math.pi,)), 1.0) == 0.5
    vals = eval_level_array(PoleSet((0.0, math.pi, 1.0)), np.array([-1.0, 0.0, 1.0]))
    assert vals[0] == -math.inf
    assert vals[1] == 0.0
    assert vals[2] == math.inf


def test_eval_level_array_endpoints_near_real_axis():
    # every non-real pole's term is 1/2 at x = +-1, so F(+-1) = n/2, also
    # for poles 1e-9 to 1e-13 from the axis, whose cos rounds to +-1
    rng = np.random.default_rng(37)
    near = [1e-9, 1e-11, 1e-13, math.pi - 1e-9, math.pi + 1e-12, TWO_PI - 1e-13]
    for n in (1, 2, 6, 17, 64):
        angles = rng.uniform(0.0, TWO_PI, n)
        angles[: min(n, 6)] = near[: min(n, 6)]
        vals = eval_level_array(PoleSet(tuple(angles)), np.array([-1.0, 1.0]))
        assert np.all(np.abs(vals - 0.5 * n) <= n * n * np.finfo(float).eps), (n, vals)


def test_eval_level_array_rejects_points_outside_segment():
    ps = PoleSet((0.5, 2.0))
    for bad in (1.0 + 2.0**-52, -1.5, math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            eval_level_array(ps, bad)
    with pytest.raises(DomainError):
        eval_level_array(ps, np.array([0.0, 0.5, 1.0000001]))
    with pytest.raises(DomainError):
        eval_level_array(ps, np.array([[0.0, math.nan]]))


def test_poisson_kernel_examples():
    assert poisson_kernel(math.pi / 2.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert poisson_kernel(math.pi / 2.0, 0.5) == pytest.approx(0.6, abs=1e-15)
    assert poisson_kernel(0.0, 0.5) == pytest.approx(3.0, abs=1e-15)
    # both sides of the half-difference identity for the single pole at 1
    assert 0.5 * abs(poisson_kernel(0.0, 0.5) - 1.0) == pytest.approx(
        abs(eval_level_array(PoleSet((0.0,)), 0.5)), abs=1e-15
    )


def test_poisson_kernel_nonnegative():
    rng = np.random.default_rng(13)
    v = rng.uniform(0.0, TWO_PI, 2000)
    x = rng.uniform(-0.999, 0.999, 2000)
    vals = np.array([poisson_kernel(a, b) for a, b in zip(v, x)])
    assert (vals >= 0.0).all()


def test_poisson_kernel_pole_hit():
    with pytest.raises(PoleHit):
        poisson_kernel(0.0, 1.0)
    with pytest.raises(PoleHit):
        poisson_kernel(math.pi, -1.0)


def test_level_equals_half_kernel_deficit():
    # F(x) = (n - sum_k P(theta_k; x)) / 2 for every configuration
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 17))
        ps = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        x = float(rng.uniform(-0.99, 0.99))
        direct = eval_level_array(ps, x)
        kernels = math.fsum(poisson_kernel(t, x) for t in ps.angles)
        assert abs(direct - 0.5 * (n - kernels)) <= 1e-9 * n


def test_level_depends_only_on_real_parts():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        base = rng.uniform(0.0, TWO_PI, n)
        flipped = (TWO_PI - base) % TWO_PI
        x = float(rng.uniform(-0.99, 0.99))
        a = eval_level_array(PoleSet(tuple(base)), x)
        b = eval_level_array(PoleSet(tuple(flipped)), x)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def _exact_level(ps: PoleSet, x: float) -> Fraction:
    """sum_k (x^2 - a x)/(x^2 - 2 a x + 1) in exact rationals, at the
    float cosines a = cos(theta_k)."""
    xq = Fraction(x)
    total = Fraction(0)
    for a in np.cos(np.asarray(ps.angles)).tolist():
        aq = Fraction(a)
        total += (xq * xq - aq * xq) / (xq * xq - 2 * aq * xq + 1)
    return total


def test_eval_level_array_matches_exact_fractions():
    rng = np.random.default_rng(23)
    for case in range(320):
        n = int(rng.integers(1, 257))
        angles = rng.uniform(0.0, TWO_PI, n)
        if case % 10 == 0:
            angles[0] = 0.0 if case % 20 == 0 else math.pi
        ps = PoleSet(tuple(angles))
        xs = [0.0, *rng.uniform(-1.0, 1.0, 3).tolist()]
        if math.pi not in ps.angles:
            xs.append(-1.0)
        if 0.0 not in ps.angles:
            xs.append(1.0)
        got = eval_level_array(ps, np.array(xs))
        for x, v in zip(xs, got.tolist()):
            exact = _exact_level(ps, x)
            assert abs(Fraction(v) - exact) <= 1e-10 * max(abs(exact), 1), (case, n, x)


def _rational_eval(rf, x: float) -> float:
    return npoly.polyval(x, np.asarray(rf.numerator)) / npoly.polyval(
        x, np.asarray(rf.denominator)
    )


def test_rational_form_single_pole_at_i():
    rf = to_rational(PoleSet((math.pi / 2.0,)))
    assert np.allclose(rf.numerator, [0.0, 0.0, 1.0])
    assert np.allclose(rf.denominator, [1.0, 0.0, 1.0])


def test_rational_form_single_pole_at_one():
    rf = to_rational(PoleSet((0.0,)))
    assert np.allclose(rf.numerator, [0.0, 1.0])
    assert np.allclose(rf.denominator, [-1.0, 1.0])


def test_rational_form_conjugate_pair_merges():
    rf = to_rational(PoleSet((math.pi / 2.0, 3.0 * math.pi / 2.0)))
    assert np.allclose(rf.numerator, [0.0, 0.0, 2.0])
    assert np.allclose(rf.denominator, [1.0, 0.0, 1.0])


def test_rational_form_matches_direct_evaluation():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        ps = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        rf = to_rational(ps)
        xs = rng.uniform(-0.99, 0.99, 64)
        direct = eval_level_array(ps, xs)
        viarat = np.array([_rational_eval(rf, float(x)) for x in xs])
        assert np.max(np.abs(direct - viarat) / (1.0 + np.abs(direct))) < 1e-9


def test_rational_form_conditioning_at_scale():
    # expanded coefficients lose digits near the endpoints once the
    # degree reaches ~24; the representation stays within 1e-4 there
    rng = np.random.default_rng(4242)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        ps = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        rf = to_rational(ps)
        xs = rng.uniform(-0.999, 0.999, 20)
        direct = eval_level_array(ps, xs)
        viarat = np.array([_rational_eval(rf, float(x)) for x in xs])
        assert np.max(np.abs(direct - viarat) / (1.0 + np.abs(direct))) < 1e-4


def test_rational_degree_bound():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 13))
        ps = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        rf = to_rational(ps)
        assert len(rf.numerator) - 1 <= 2 * n


def test_json_round_trip():
    ps = PoleSet((0.25, 1.5, 6.0))
    doc = json.loads(ps.to_json())
    assert doc["n"] == 3
    assert len(doc["angles"]) == 3
    back = PoleSet.from_json(ps.to_json())
    assert back.angles == ps.angles


def test_json_count_field_is_optional():
    ps = PoleSet.from_json('{"angles": [0.5, 2.5]}')
    assert ps.n == 2


def test_json_count_mismatch_rejected():
    with pytest.raises(Exception):
        PoleSet.from_json('{"n": 3, "angles": [0.5]}')


def test_json_snap_tolerance_for_near_real_poles():
    # angles within 1e-14 of {0, pi} snap so divergence classification
    # stays deterministic for values read from files
    ps = PoleSet.from_json(json.dumps({"angles": [1e-15, math.pi + 1e-15]}))
    assert ps.angles[0] == 0.0
    assert ps.angles[1] == math.pi


def test_digest_is_stable_and_order_insensitive_only_to_identity():
    a = PoleSet((0.5, 1.5))
    b = PoleSet((0.5, 1.5))
    assert poles_digest(a) == poles_digest(b)
    assert poles_digest(a) != poles_digest(PoleSet((0.5, 1.6)))
