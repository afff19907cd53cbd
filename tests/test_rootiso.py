"""Real roots on [-1, 1] of the level-set polynomials, as eigenvalues."""

import numpy as np
import pytest

from logderiv.errors import RootIsolationFailure
from logderiv.levelset import REFINE_WIDTH
from logderiv.rootiso import isolate_roots


def roots_via_numpy(coeffs, lo=-1.0, hi=1.0):
    r = np.roots(np.asarray(coeffs, dtype=float)[::-1])
    keep = [float(z.real) for z in r if abs(z.imag) < 1e-9 and lo <= z.real <= hi]
    return sorted(keep)


def test_linear_and_quadratic():
    assert isolate_roots([-0.5, 1.0]) == pytest.approx([0.5], abs=1e-12)
    # x^2 - 1/4
    assert isolate_roots([-0.25, 0.0, 1.0]) == pytest.approx([-0.5, 0.5], abs=1e-12)


def test_no_roots():
    assert isolate_roots([1.0, 0.0, 1.0]) == []


def test_endpoint_roots_found():
    # (x - 1)(x + 1) = x^2 - 1
    assert isolate_roots([-1.0, 0.0, 1.0]) == [-1.0, 1.0]


def test_double_root_reported():
    # (x - 0.3)^2: the eigenvalues split by ~sqrt(eps), real or conjugate
    got = isolate_roots([0.09, -0.6, 1.0])
    assert got
    assert all(abs(r - 0.3) < 1e-7 for r in got)


def test_degree_cap():
    # past degree 80 the level-set coefficients carry no correct digit
    assert isolate_roots(np.poly(np.linspace(-0.9, 0.9, 80))[::-1]) != []
    with pytest.raises(RootIsolationFailure):
        isolate_roots(np.poly(np.linspace(-0.9, 0.9, 81))[::-1])
    # trailing zeros do not count towards the degree
    assert isolate_roots([-0.5, 1.0] + [0.0] * 100) == pytest.approx([0.5], abs=1e-12)


@pytest.mark.parametrize("coeffs", [[0.0], [0.0, 0.0, 0.0], [1.0, float("inf")], [float("nan"), 1.0]])
def test_zero_or_non_finite_polynomial_raises(coeffs):
    with pytest.raises(RootIsolationFailure):
        isolate_roots(coeffs)


def test_constructed_roots_recovered():
    rng = np.random.default_rng(41)
    for _ in range(50):
        k = int(rng.integers(1, 7))
        true = np.sort(rng.uniform(-0.95, 0.95, k))
        # keep the roots separated so isolation is well posed
        if k > 1 and np.min(np.diff(true)) < 1e-3:
            continue
        coeffs = np.poly(true)[::-1]
        got = isolate_roots(list(coeffs))
        assert len(got) == k
        assert np.max(np.abs(np.array(got) - true)) < 1e-9


def test_agrees_with_numpy_roots():
    rng = np.random.default_rng(43)
    for _ in range(100):
        deg = int(rng.integers(1, 25))
        c = rng.standard_normal(deg + 1)
        mine = isolate_roots(list(c))
        ref = roots_via_numpy(c)
        assert len(mine) == len(ref)
        for a, b in zip(mine, ref):
            assert abs(a - b) < 1e-7


def test_refined_width_constant():
    assert REFINE_WIDTH == 1e-12


def test_roots_are_polished():
    # the eigenvalues are backward stable: the residual is at the noise
    # floor of evaluation without any Newton step
    rng = np.random.default_rng(47)
    for _ in range(20):
        deg = int(rng.integers(2, 12))
        c = rng.standard_normal(deg + 1)
        scale = np.sum(np.abs(c))
        for r in isolate_roots(list(c)):
            val = np.polyval(c[::-1], r)
            assert abs(val) < 1e-10 * scale


def test_root_count_bounded_by_degree():
    rng = np.random.default_rng(53)
    for _ in range(50):
        deg = int(rng.integers(1, 20))
        c = rng.standard_normal(deg + 1)
        assert len(isolate_roots(list(c))) <= deg
