"""Interval p-means and the disk area integral of the pole-sum derivative.

Expected values below are frozen from independent oracles: hand
antiderivatives where a closed form exists, scipy's QUADPACK on the
reduced 1-D integrals, and a seeded 1e7-sample Monte-Carlo estimate for
the area integral (seed 99, uniform-in-disk sampling).  The area of n
equally spaced poles also has a one-dimensional elliptic form,
elliptic_area, computed with scipy.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from logderiv import (
    DomainError,
    MeanSpec,
    PoleSet,
    QuadratureResult,
    ToleranceNotMet,
    area_integral,
    check_lp_lower_bound,
    lp_mean,
    mean_lower_constant,
)
from logderiv.explorer import equally_spaced
from logderiv.extremal import sharp_lp_mean, sharp_poles
from logderiv.quadrature import _XGK, _adaptive, _integrate, _kronrod, _nodes, mean_csv_row

TWO_PI = 2.0 * math.pi

# hand antiderivatives, single pole at i unless stated
TWO_ASINH_ONE = 1.7627471740390859  # int (x^2+1)^(-1/2)
TWO_SQRT2_MINUS_2 = 0.8284271247461903  # int |x| (x^2+1)^(-1/2)
HALF_PI = 1.5707963267948966  # int (x^2+1)^(-1)
TWO_MINUS_HALF_PI = 0.4292036732051034  # int x^2 (x^2+1)^(-1)
TWO_LN_2 = 1.3862943611198906  # conjugate pair +-i, unweighted: int 2|x|/(x^2+1)
FOUR_MINUS_PI = 0.8584073464102069  # conjugate pair +-i, weighted: int 2x^2/(x^2+1)
TWO_SQRT2 = 2.8284271247461903  # real pole, p=0.5: int |x-1|^(-1/2)

# Monte-Carlo oracle, 1e7 samples, seed 99 (3 significant digits)
MC_AREA = {1: 3.9964230362484283, 2: 5.129607655614626, 3: 5.6831865998292965}
# nested scipy QUADPACK on the angular reduction, n=2 equally spaced
SCIPY_AREA_N2 = 5.1289199558
# The radial-slice disk integral that the per-pole pieces replaced, at
# rel_tol 1e-9, on default_rng([31, i]).uniform(0, 2 pi, n) with
# n = 2 + i % 5 for i = 0..9
RADIAL_SLICE_AREAS = (
    6.581367091454499, 8.171045896965001, 12.927145454116621, 10.326844421566298,
    15.313508218395793, 5.57998640277373, 11.286728246454286, 9.82920532870537,
    10.647719571480941, 12.491803313756414,
)


def elliptic_area(n):
    """Disk integral of |g| for n equally spaced poles: the integral over
    [0, 1] of 4n r^n K(m) / (1 + r^n) dr, with 1 - m = ((1 - r^n) / (1 + r^n))^2."""

    def f(r):
        q = r**n
        return 4.0 * n * q * scipy.special.ellipkm1(((1.0 - q) / (1.0 + q)) ** 2) / (1.0 + q)

    return scipy.integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def single_pole_at_i():
    return PoleSet((math.pi / 2.0,))


def test_spec_validation():
    with pytest.raises(DomainError):
        MeanSpec(p=0.0)
    for p in (math.inf, math.nan):
        with pytest.raises(DomainError):
            MeanSpec(p=p)
    with pytest.raises(DomainError):
        MeanSpec(p=1.0, rel_tol=0.5)
    with pytest.raises(DomainError):
        MeanSpec(p=1.0, max_panels=0)


def test_gauss_kronrod_pair_is_exact_on_polynomials():
    # the embedded pair integrates monomials exactly through degree 22,
    # and its error estimate vanishes through the Gauss degree 13
    h, x = _nodes(np.array([-1.0]), np.array([1.0]))
    for deg in range(23):
        k, e = _kronrod(x**deg, h)
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert abs(k[0] - exact) <= 3e-15 * max(1.0, abs(exact))
        if deg <= 13:
            assert e[0] <= 5e-15


def test_unweighted_p1_antiderivative():
    r = lp_mean(single_pole_at_i(), MeanSpec(p=1.0))
    assert not r.divergent
    assert r.value == pytest.approx(TWO_ASINH_ONE, rel=1e-8)


def test_weighted_p1_antiderivative():
    r = lp_mean(single_pole_at_i(), MeanSpec(p=1.0, weighted=True))
    assert r.value == pytest.approx(TWO_SQRT2_MINUS_2, rel=1e-8)


def test_unweighted_p2_antiderivative():
    r = lp_mean(single_pole_at_i(), MeanSpec(p=2.0))
    assert r.value == pytest.approx(HALF_PI, rel=1e-8)


def test_weighted_p2_antiderivative():
    r = lp_mean(single_pole_at_i(), MeanSpec(p=2.0, weighted=True))
    assert r.value == pytest.approx(TWO_MINUS_HALF_PI, rel=1e-8)


def test_conjugate_pair_p1_both_weights():
    ps = PoleSet((math.pi / 2.0, 3.0 * math.pi / 2.0))
    u = lp_mean(ps, MeanSpec(p=1.0))
    w = lp_mean(ps, MeanSpec(p=1.0, weighted=True))
    assert u.value == pytest.approx(TWO_LN_2, rel=1e-8)
    assert w.value == pytest.approx(FOUR_MINUS_PI, rel=1e-8)


def test_real_pole_divergence_is_structural():
    for p in (1.0, 1.5, 2.0):
        for weighted in (False, True):
            r = lp_mean(PoleSet((0.0,)), MeanSpec(p=p, weighted=weighted))
            assert r.divergent
            assert r.value == math.inf
    r = lp_mean(PoleSet((math.pi,)), MeanSpec(p=1.0))
    assert r.divergent


def test_real_pole_integrable_below_p1():
    for theta in (0.0, math.pi):
        r = lp_mean(PoleSet((theta,)), MeanSpec(p=0.5))
        assert not r.divergent
        assert r.value == pytest.approx(TWO_SQRT2, rel=1e-8)


def test_real_pole_near_divergence_exponent():
    # near p = 1 the mass 2^(1-p)/(1-p) piles up at the pole; the window's
    # substitution s = u^(1/(1-p)) makes its integrand the constant
    # 1/(1-p).  The pole at pi was once its own nearest other pole (its
    # point is -1 + 1.2e-16i), which shrank the window and cost 1.5e-6.
    for p in (0.5, 0.9, 0.99):
        at_one = lp_mean(PoleSet((0.0,)), MeanSpec(p=p)).value
        assert at_one == pytest.approx(2.0 ** (1.0 - p) / (1.0 - p), rel=1e-8)
        at_minus_one = lp_mean(PoleSet((math.pi,)), MeanSpec(p=p)).value
        assert at_minus_one == pytest.approx(at_one, rel=1e-12)


@pytest.mark.parametrize(
    "theta,ref", [(1e-300, 20.0), (1e-15, 19.730058878409954), (1e-9, 18.925345038698946)]
)
def test_pole_next_to_a_real_pole(theta, ref):
    # A window narrower than eps / rel_tol would leave the core's nodes
    # next to +1 misplaced by more than rel_tol of their panel; a pole
    # nearer than that sits inside the window instead, where |s g| <= n.
    # The closed-form tail was 2.2% off at 1e-300, 0.8% at 1e-15 and
    # 1.3e-5 at 1e-9.  References: the double pole's 2/(1-p), which a pole
    # at 1e-300 moves by ~1e-270, and mpmath's tanh-sinh at 40 digits in
    # the same u, split at u = (10^-j)^(1-p).
    r = lp_mean(PoleSet((0.0, theta)), MeanSpec(p=0.9))
    assert r.value == pytest.approx(ref, rel=1e-8)


def real_pole_corpus():
    """240 cases (angles, p): n = 1 to 11 with one or two poles at +1,
    every other set with one at -1 as well, the rest uniform."""
    rng = np.random.default_rng(7)
    for i in range(60):
        n = int(rng.integers(1, 12))
        plus = min(n, int(rng.integers(1, 3)))
        minus = min(n - plus, i % 2)
        rest = tuple(rng.uniform(0.0, TWO_PI, n - plus - minus))
        for p in (0.25, 0.5, 0.75, 0.9):
            yield (0.0,) * plus + (math.pi,) * minus + rest, p


def qaws_real_pole_mean(angles, p):
    """The unweighted p-mean by QUADPACK's QAWS: (1 - x)^-p, and (1 + x)^-p
    with a pole at -1, as the algebraic weight, and |g|^p with those
    factors divided out as the bounded integrand."""
    plus, minus = angles.count(0.0), angles.count(math.pi)
    rest = np.exp(1j * np.array([t for t in angles if t not in (0.0, math.pi)]))

    def f(x):
        a, b = 1.0 - x, (1.0 + x if minus else 1.0)
        return abs(a * b * np.sum(1.0 / (x - rest)) - plus * b + minus * a) ** p

    return scipy.integrate.quad(f, -1.0, 1.0, weight="alg", wvar=(-p if minus else 0.0, -p),
                                epsabs=0.0, epsrel=1e-12, limit=200)


def test_real_poles_match_qaws_oracle():
    # the closed-form tails missed 52 of these cases by up to 8.7e-7, each
    # with a pole at -1 and p >= 0.75, under error estimates below 1e-8
    for angles, p in real_pole_corpus():
        ref, ref_err = qaws_real_pole_mean(angles, p)
        assert ref_err <= 1e-11 * ref
        assert lp_mean(PoleSet(angles), MeanSpec(p=p)).value == pytest.approx(ref, rel=1e-8)


def test_error_estimate_honors_tolerance():
    r = lp_mean(single_pole_at_i(), MeanSpec(p=1.0, rel_tol=1e-10))
    assert 0.0 <= r.error_estimate <= 1e-10 * r.value * 1.01
    assert r.panels > 0
    assert r.function_evals >= 15 * r.panels


@pytest.mark.xfail(
    strict=True,
    reason="open defect: the float angles of sharp_poles(n) define another "
    "integral, whose true mean is more than rel_tol from the closed form of the "
    "exact poles, unseen by the error estimate",
)
@pytest.mark.parametrize("n", [32, 64])
def test_sharp_p_below_one_meets_rel_tol(n):
    # 4.9e-8 off at n = 32 and 2.3e-7 at n = 64, with error estimates
    # below 1e-8; the float angles move the true mean 4.83e-8 and 2.27e-7
    # above the closed form
    r = lp_mean(sharp_poles(n), MeanSpec(p=0.5))
    assert r.value == pytest.approx(sharp_lp_mean(n, 0.5), rel=1e-8)


def test_scipy_cross_check_generic_configuration():
    rng = np.random.default_rng(79)
    for _ in range(5):
        n = int(rng.integers(1, 6))
        angles = tuple(rng.uniform(0.05, TWO_PI - 0.05, n))
        ps = PoleSet(angles)
        zs = np.exp(1j * np.array(angles))
        p = float(rng.choice([0.5, 1.0, 1.5, 2.0]))

        def f(x):
            return abs(np.sum(1.0 / (x - zs))) ** p

        ref, ref_err = scipy.integrate.quad(
            f, -1.0, 1.0, points=np.cos(angles), limit=400, epsabs=0.0, epsrel=1e-10
        )
        r = lp_mean(ps, MeanSpec(p=p))
        assert r.value == pytest.approx(ref, rel=1e-7)


def test_weighted_never_exceeds_unweighted():
    rng = np.random.default_rng(83)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        ps = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        for p in (0.5, 1.0, 2.0):
            u = lp_mean(ps, MeanSpec(p=p))
            w = lp_mean(ps, MeanSpec(p=p, weighted=True))
            if u.divergent or w.divergent:
                continue
            assert w.value <= u.value * (1.0 + 1e-10)


def test_doubling_panel_budget_is_self_consistent():
    rng = np.random.default_rng(31)
    for _ in range(6):
        n = int(rng.integers(1, 7))
        ps = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        a = lp_mean(ps, MeanSpec(p=1.5))
        b = lp_mean(ps, MeanSpec(p=1.5, max_panels=400_000))
        if a.divergent or b.divergent:
            continue
        assert abs(a.value - b.value) <= 10.0 * 1e-8 * abs(b.value)


def test_near_real_pole_arctan_oracle():
    # int dx/((x-c)^2 + s^2) = (1/s)(atan((1-c)/s) + atan((1+c)/s)), with
    # 1 - c = 2 sin^2(eps/2) and 1 + c = 2 cos^2(eps/2)
    eps = 1e-6
    s = math.sin(eps)
    ref = (math.atan(2.0 * math.sin(0.5 * eps) ** 2 / s)
           + math.atan(2.0 * math.cos(0.5 * eps) ** 2 / s)) / s
    r = lp_mean(PoleSet((eps,)), MeanSpec(p=2.0))
    assert r.value == pytest.approx(ref, rel=1e-8)


def single_pole_power_mean(theta, p):
    """integral over [-1, 1] of ((x - c)^2 + s^2)^(-p/2), c + is = e^(i theta),
    at p = 1 (asinh form), p = 2 (arctan form) and p = 3.  1 - c and 1 + c
    are formed from the half angles, since fl(cos theta) is 1.0 at theta =
    1e-8 and loses the offset 1 - c = 5e-17 altogether."""
    a, b = 2.0 * math.sin(0.5 * theta) ** 2, 2.0 * math.cos(0.5 * theta) ** 2  # 1 - c, 1 + c
    s = abs(math.sin(theta))
    if p == 1.0:
        return math.asinh(a / s) + math.asinh(b / s)
    if p == 2.0:
        return (math.atan(a / s) + math.atan(b / s)) / s
    assert p == 3.0
    return (a / math.hypot(a, s) + b / math.hypot(b, s)) / s**2


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize(
    "theta",
    [1e-2, 1e-4, 1e-6, 1e-7, 3e-8, 1e-8, 1e-10, math.pi - 1e-6, math.pi - 1e-8,
     math.pi - 1e-9, 1.0],
)
def test_single_pole_closed_form_at_every_height(theta, p):
    # The spike's shoulders must be graded too: a ladder that only ran
    # inward from cos(theta) -+ sin(theta) left the panel outside it too
    # wide, and read 7.07e19 for 1e20 at theta = 1e-10, p = 3.
    want = single_pole_power_mean(theta, p)
    r = lp_mean(PoleSet((theta,)), MeanSpec(p=p))
    assert r.value == pytest.approx(want, rel=10 * 1e-8)
    # At heights down to 1e-8, rel_tol 1e-12 is met too.  A pole sum that
    # subtracted fl(cos theta) + i fl(sin theta) lost the spike between
    # the pole's projection and +-1: 3.2e-9 off at theta = 1e-8, p = 2,
    # with an error estimate of 7.1e-13.
    if abs(math.sin(theta)) >= 1e-8:
        r = lp_mean(PoleSet((theta,)), MeanSpec(p=p, rel_tol=1e-12))
        assert r.value == pytest.approx(want, rel=2e-12)


def test_tolerance_not_met_carries_partial_result():
    # a pole at height 1e-12 needs refinement past the initial graded
    # cuts at p = 3, so a 4-panel budget cannot reach 1e-8
    poles = PoleSet((1e-12,))
    with pytest.raises(ToleranceNotMet) as exc:
        lp_mean(poles, MeanSpec(p=3.0, rel_tol=1e-8, max_panels=4))
    partial = exc.value.result
    assert isinstance(partial, QuadratureResult)
    assert partial.panels >= 4
    assert math.isfinite(partial.value)
    assert partial.error_estimate > 1e-8 * abs(partial.value)
    # the budget is checked after the first evaluation, so the partial
    # result holds exactly the initial cuts, and the premise above is
    # that the default budget goes past them
    assert lp_mean(poles, MeanSpec(p=3.0, rel_tol=1e-8)).panels > partial.panels


def test_tolerance_not_met_carries_every_part():
    # the core and the windows at +1 and -1 share one panel budget, and a
    # raise carries their sum: the windows hold all but ~2% of the mass
    poles = PoleSet((0.0, math.pi, 2.0))
    full = lp_mean(poles, MeanSpec(p=0.9))
    with pytest.raises(ToleranceNotMet) as exc:
        lp_mean(poles, MeanSpec(p=0.9, max_panels=4))
    partial = exc.value.result
    assert partial.panels < full.panels
    assert partial.error_estimate > 1e-8 * partial.value
    assert partial.value == pytest.approx(full.value, rel=1e-6)


def test_nan_error_is_not_convergence():
    # NaN > tol is false, so a NaN row must be kept pending explicitly
    def kernel(rows, a, b):
        return np.full(len(a), np.nan), np.full(len(a), np.nan)

    edges = np.linspace(0.0, 1.0, 5)
    with np.errstate(invalid="ignore"), pytest.raises(ToleranceNotMet):
        _adaptive(kernel, np.zeros(4, dtype=np.intp), edges[:-1], edges[1:], 1, 1e-8, 100)


def test_infinite_value_is_not_convergence():
    # inf at a Kronrod-only node makes the panel's value and error inf, and
    # inf <= rel_tol * inf is true, so an infinite row must be kept pending
    def f(x):
        return np.where(x == _XGK[0], math.inf, 1.0)

    with pytest.raises(ToleranceNotMet):
        _integrate([(f, np.array([-1.0]), np.array([1.0]))], 1e-8, 100)


@pytest.mark.filterwarnings("error")
def test_overflowing_power_raises_without_warning():
    # at pole height 1e-155, |g|^2 overflows to inf next to the pole; the
    # row stays pending, so the call raises and numpy need not warn
    with pytest.raises(ToleranceNotMet):
        lp_mean(PoleSet((1e-155, 2.0)), MeanSpec(p=2.0))


def test_area_integral_single_pole_is_four():
    # chord-length identity: the disk integral of 1/|z - u| with |u| = 1
    r = area_integral(PoleSet((0.0,)), rel_tol=1e-7)
    assert not r.divergent
    assert r.value == pytest.approx(4.0, rel=5e-7)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_area_integral_k_fold_pole_is_4k(k):
    # every piece is one copy of the pole, where Phi = 1
    r = area_integral(PoleSet((2.5,) * k), rel_tol=1e-6)
    assert r.value == pytest.approx(4.0 * k, rel=1e-13)


def test_area_integral_matches_radial_slices_on_random_sets():
    for i, ref in enumerate(RADIAL_SLICE_AREAS):
        angles = np.random.default_rng([31, i]).uniform(0.0, TWO_PI, 2 + i % 5)
        r = area_integral(PoleSet(tuple(angles)), rel_tol=1e-6)
        assert r.value == pytest.approx(ref, rel=1e-6)


def test_area_integral_converges_on_random_n16():
    # the radial slices ran out of panels here
    angles = np.random.default_rng(16).uniform(0.0, TWO_PI, 16)
    r = area_integral(PoleSet(tuple(angles)), rel_tol=1e-6)
    assert r.error_estimate <= 1e-6 * r.value


def test_area_integral_rotation_invariant():
    rng = np.random.default_rng(89)
    for _ in range(4):
        n = int(rng.integers(1, 5))
        base = rng.uniform(0.0, TWO_PI, n)
        phi = float(rng.uniform(0.0, TWO_PI))
        r1 = area_integral(PoleSet(tuple(base)), rel_tol=1e-7)
        r2 = area_integral(PoleSet(tuple((base + phi) % TWO_PI)), rel_tol=1e-7)
        assert abs(r1.value - r2.value) <= 2.0 * 1e-7 * abs(r1.value)


def test_area_integral_monte_carlo_oracle():
    for n, ref in MC_AREA.items():
        r = area_integral(equally_spaced(n), rel_tol=1e-6)
        assert r.value == pytest.approx(ref, rel=5e-3)


def test_area_integral_scipy_oracle():
    r = area_integral(equally_spaced(2), rel_tol=1e-7)
    assert r.value == pytest.approx(SCIPY_AREA_N2, rel=1e-7)


def test_elliptic_oracle_agrees_with_the_other_oracles():
    assert elliptic_area(1) == pytest.approx(4.0, rel=1e-13)
    assert elliptic_area(2) == pytest.approx(SCIPY_AREA_N2, rel=1e-10)
    for n, ref in MC_AREA.items():
        assert elliptic_area(n) == pytest.approx(ref, rel=5e-3)
    assert elliptic_area(3) == pytest.approx(5.684337231024518, rel=1e-12)
    assert elliptic_area(12) == pytest.approx(6.824996171875864, rel=1e-12)


def test_area_integral_exceeds_universal_floor():
    rng = np.random.default_rng(97)
    floor = math.pi / 192.0
    for _ in range(8):
        n = int(rng.integers(1, 5))
        ps = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        r = area_integral(ps, rel_tol=1e-5)
        assert r.value > floor


def test_bound_report_chain():
    rep = check_lp_lower_bound(single_pole_at_i(), 1.0)
    assert rep.ok
    assert rep.ok_unweighted_ge_weighted and rep.ok_weighted_ge_bound
    assert rep.lower_bound == mean_lower_constant(1.0)
    assert rep.unweighted.value == pytest.approx(TWO_ASINH_ONE, rel=1e-7)
    assert rep.weighted.value == pytest.approx(TWO_SQRT2_MINUS_2, rel=1e-7)


def test_bound_report_divergent_counts_as_satisfied():
    rep = check_lp_lower_bound(PoleSet((0.0,)), 2.0)
    assert rep.ok
    assert rep.unweighted.divergent and rep.weighted.divergent


def test_csv_row_shape():
    ps = single_pole_at_i()
    spec = MeanSpec(p=1.0)
    row = mean_csv_row(ps, spec, lp_mean(ps, spec))
    parts = row.split(",")
    assert len(parts) == 8
    assert parts[1] == "1"
    assert parts[3] == "0"
    assert parts[6] == "0"
