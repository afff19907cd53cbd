"""Sup norms and derivative bounds for polynomials with disk zeros."""

import math

import numpy as np
import pytest

from logderiv import (
    DiskPolynomial,
    DomainError,
    ZeroAtEndpoint,
    cheb_norm,
    check_norm_bounds,
    check_two_sided_positivity,
    endpoint_ratio,
    random_disk_polynomial,
    zero_counts,
)
from logderiv.polynorm import _evaluator, _log_abs


def log_abs(poly, xs, derivative=False):
    return _log_abs(_evaluator(poly), xs, derivative)[0]


def test_construction_validation():
    with pytest.raises(DomainError):
        DiskPolynomial(())
    with pytest.raises(DomainError):
        DiskPolynomial((0.5,), leading=0.0)
    with pytest.raises(DomainError):
        DiskPolynomial((1.2,))
    DiskPolynomial((1.0 + 1e-15j,))  # snap tolerance admits boundary noise


def test_eval_matches_numpy_polyval():
    rng = np.random.default_rng(149)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        poly = random_disk_polynomial(rng, n)
        coeffs = np.poly(np.array(poly.zeros)) * poly.leading
        xs = rng.uniform(-1.0, 1.0, 30)
        mine = np.exp(log_abs(poly, xs))
        ref = np.abs(np.polyval(coeffs, xs))
        assert np.max(np.abs(mine - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


def test_deriv_matches_numpy_polyder():
    rng = np.random.default_rng(151)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        poly = random_disk_polynomial(rng, n)
        coeffs = np.poly(np.array(poly.zeros)) * poly.leading
        dcoeffs = np.polyder(coeffs)
        xs = rng.uniform(-1.0, 1.0, 30)
        mine = np.exp(log_abs(poly, xs, derivative=True))
        ref = np.abs(np.polyval(dcoeffs, xs))
        assert np.max(np.abs(mine - ref)) <= 1e-11 * (1.0 + np.max(np.abs(ref)))


def test_deriv_is_exact_at_repeated_zeros():
    poly = DiskPolynomial((0.5, 0.5, -0.25))
    # p = (x-1/2)^2 (x+1/4); p'(1/2) = 0 exactly by the product rule, and
    # at the simple zero p'(-1/4) = (-3/4)^2 comes from the other factors
    lp, ld = log_abs(poly, [0.5, -0.25]), log_abs(poly, [0.5, -0.25], derivative=True)
    assert lp[0] == lp[1] == -math.inf
    assert ld[0] == -math.inf
    assert math.exp(ld[1]) == pytest.approx(0.5625, rel=1e-15)


def test_norm_examples():
    def norm(poly, derivative=False):
        return math.exp(cheb_norm(poly, derivative=derivative))

    assert norm(DiskPolynomial((0.0, 0.0))) == pytest.approx(1.0, rel=1e-12)
    assert norm(DiskPolynomial((0.0, 0.0)), derivative=True) == pytest.approx(2.0, rel=1e-12)
    pair = DiskPolynomial((1j, -1j))
    assert norm(pair) == pytest.approx(2.0, rel=1e-12)
    assert norm(pair, derivative=True) == pytest.approx(2.0, rel=1e-12)
    assert norm(DiskPolynomial((1.0,))) == pytest.approx(2.0, rel=1e-12)


def test_norm_against_dense_scan():
    rng = np.random.default_rng(157)
    xs = np.linspace(-1.0, 1.0, 1_000_001)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        poly = random_disk_polynomial(rng, n)
        coeffs = np.poly(np.array(poly.zeros)) * poly.leading
        for derivative in (False, True):
            c = np.polyder(coeffs) if derivative else coeffs
            brute = 0.0
            for block in np.array_split(xs, 8):
                brute = max(brute, float(np.max(np.abs(np.polyval(c, block)))))
            mine = math.exp(cheb_norm(poly, derivative=derivative))
            assert mine >= brute - 1e-12 * brute
            assert mine == pytest.approx(brute, rel=1e-8)


def test_quarter_bound_examples():
    rep = check_norm_bounds(DiskPolynomial((0.0, 0.0)))[0]
    assert rep.ok
    assert math.exp(rep.log_deriv_norm) == pytest.approx(2.0, rel=1e-12)
    assert math.exp(rep.log_norm) == pytest.approx(1.0, rel=1e-12)
    assert check_norm_bounds(DiskPolynomial((1j, -1j)))[0].ok


def test_quarter_bound_single_zero_sweep():
    rng = np.random.default_rng(163)
    for _ in range(50):
        r = math.sqrt(float(rng.uniform(0.0, 1.0)))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        rep = check_norm_bounds(DiskPolynomial((r * complex(math.cos(phi), math.sin(phi)),)))[0]
        assert rep.ok
        # degree one: the true ratio never drops below 1/2
        assert math.exp(rep.log_deriv_norm) >= 0.5 * math.exp(rep.log_norm) - 1e-12


def test_quarter_bound_random_sweep():
    rng = np.random.default_rng(167)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        assert check_norm_bounds(random_disk_polynomial(rng, n))[0].ok


def test_zero_counts_exact_signs():
    poly = DiskPolynomial((0.5j, -0.5j, 0.25, 1j))
    c = zero_counts(poly)
    assert (c.n_plus, c.n_minus, c.n_zero) == (2, 1, 1)


def test_imbalance_bound_examples():
    rep = check_norm_bounds(DiskPolynomial((1j, -1j)))[1]
    assert rep.ok
    assert rep.bound_factor == 0.25
    rep = check_norm_bounds(DiskPolynomial((0.0, 0.0, 0.0, 0.0)))[1]
    assert rep.bound_factor == 0.25  # max(1/4, sqrt(4/1)/900)
    rep = check_norm_bounds(DiskPolynomial((1j,) * 5))[1]
    assert rep.bound_factor == 0.25  # max(1/4, sqrt 5 / 900)
    assert rep.ok


def test_imbalance_bound_factor_formula():
    rng = np.random.default_rng(173)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        poly = random_disk_polynomial(rng, n)
        c = zero_counts(poly)
        expected = max(
            0.25,
            math.sqrt((max(c.n_plus, c.n_minus) + c.n_zero) / (2 * min(c.n_plus, c.n_minus) + 1))
            / 900.0,
        )
        rep = check_norm_bounds(poly)[1]
        assert rep.bound_factor == pytest.approx(expected, rel=1e-15)
        assert rep.ok


def test_endpoint_ratio_examples():
    for n in (1, 2, 5):
        poly = DiskPolynomial((0.0,) * n)
        assert endpoint_ratio(poly, 1) == pytest.approx(float(n), rel=1e-12)
    assert endpoint_ratio(DiskPolynomial((1j, -1j)), 1) == pytest.approx(1.0, rel=1e-12)
    for n in (1, 3, 6):
        poly = DiskPolynomial((-1.0,) * n)
        assert endpoint_ratio(poly, 1) == pytest.approx(n / 2.0, rel=1e-12)


def test_endpoint_ratio_zero_at_endpoint():
    with pytest.raises(ZeroAtEndpoint):
        endpoint_ratio(DiskPolynomial((1.0,)), 1)
    with pytest.raises(ZeroAtEndpoint):
        endpoint_ratio(DiskPolynomial((-1.0,)), -1)


def test_endpoint_ratio_floor_sweep():
    rng = np.random.default_rng(179)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        poly = random_disk_polynomial(rng, n)
        coeffs = np.poly(np.array(poly.zeros))
        if abs(np.polyval(coeffs, 1.0)) < 1e-12 or abs(np.polyval(coeffs, -1.0)) < 1e-12:
            continue
        assert endpoint_ratio(poly, 1) >= n / 2.0 - 1e-9
        assert endpoint_ratio(poly, -1) >= n / 2.0 - 1e-9


def test_two_sided_positivity_pure_power():
    for delta in (0.1, 0.3, 0.45):
        rep = check_two_sided_positivity(DiskPolynomial((0.0, 0.0, 0.0)), delta)
        assert rep.ok
        assert rep.measure_minus > 0.0 and rep.measure_plus > 0.0
        # |g| = 3/|x| >= 3 > 3 delta everywhere, and x = 0 is a zero
        assert rep.measure_minus == pytest.approx(1.0, abs=1e-12)
        assert rep.measure_plus == pytest.approx(1.0, abs=1e-12)


def test_two_sided_positivity_worked_example():
    rep = check_two_sided_positivity(DiskPolynomial((1j, -1j)), 0.4)
    assert rep.ok
    # |g| = 2|x|/(1 + x^2) >= 0.8 exactly when |x| >= 1/2
    assert rep.measure_minus == pytest.approx(0.5, abs=1e-12)
    assert rep.measure_plus == pytest.approx(0.5, abs=1e-12)


def test_two_sided_positivity_small_delta_fills_interval():
    rep = check_two_sided_positivity(DiskPolynomial((1j, -1j)), 1e-6)
    assert rep.measure_minus > 0.95 and rep.measure_plus > 0.95


@pytest.mark.parametrize("n", [1, 1100])
@pytest.mark.parametrize("root", [1.0, -1.0])
def test_powers_of_endpoint_factor(n, root):
    # p = (z - root)^n: ||p|| = 2^n and ||p'|| = n 2^(n-1), both at -root;
    # a product of the factors overflows past n = 1023
    poly = DiskPolynomial((root,) * n)
    quarter, imbalance = check_norm_bounds(poly)
    assert quarter.ok and imbalance.ok
    assert quarter.log_norm == pytest.approx(n * math.log(2.0), rel=1e-12)
    # at n = 1 the log is 0, and approx's default 1e-12 absolute slack is
    # the norm's relative error
    assert quarter.log_deriv_norm == pytest.approx(math.log(n) + (n - 1) * math.log(2.0), rel=1e-12)
    assert endpoint_ratio(poly, -int(root)) == pytest.approx(n / 2.0, rel=1e-12)
    rep = check_two_sided_positivity(poly, 0.4)
    assert rep.measure_minus == pytest.approx(1.0, abs=1e-12)
    assert rep.measure_plus == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [2.0**900, 2.0**-900])
def test_norm_verdicts_ignore_leading_scale(scale):
    rng = np.random.default_rng(181)
    polys = [DiskPolynomial((1.0,) * 1100), DiskPolynomial((-1.0,) * 3)]
    polys += [random_disk_polynomial(rng, int(rng.integers(1, 30))) for _ in range(10)]
    for poly in polys:
        base = check_norm_bounds(poly)
        scaled = check_norm_bounds(DiskPolynomial(poly.zeros, leading=scale))
        assert [r.ok for r in scaled] == [r.ok for r in base] == [True, True]
        gap, scaled_gap = (r[0].log_deriv_norm - r[0].log_norm for r in (base, scaled))
        # the scaled logs move by ~620: allow rounding in their last bits
        assert abs(scaled_gap - gap) <= 8 * math.ulp(
            max(abs(scaled[0].log_norm), abs(scaled[0].log_deriv_norm))
        )


def test_positivity_delta_domain():
    with pytest.raises(DomainError):
        check_two_sided_positivity(DiskPolynomial((0.0,)), 0.5)
    with pytest.raises(DomainError):
        check_two_sided_positivity(DiskPolynomial((0.0,)), 0.0)


def test_json_round_trip():
    poly = DiskPolynomial((0.3 + 0.4j, -0.2j), leading=2.0 - 1.0j)
    back = DiskPolynomial.from_json(poly.to_json())
    assert back == poly


@pytest.mark.parametrize(
    "text",
    [
        # a boolean part was read as 1
        '{"zeros": [[true, 0]]}',
        '{"zeros": [[0.5, 0.1]], "leading": [false, 1.0]}',
        # a third part of the coefficient was dropped
        '{"zeros": [[0.5, 0.1]], "leading": [2.0, 0.0, 1.0]}',
    ],
)
def test_json_rejects_non_numbers(text):
    with pytest.raises(DomainError):
        DiskPolynomial.from_json(text)


def test_random_polynomials_are_deterministic():
    a = random_disk_polynomial(np.random.default_rng(7), 5)
    b = random_disk_polynomial(np.random.default_rng(7), 5)
    assert a == b
    assert a.n == 5
    assert all(abs(z) <= 1.0 for z in a.zeros)
