"""Exact level sets of |Re(x g(x))|, their measure, and the endpoint window."""

import math

import numpy as np
import pytest

from logderiv import (
    DomainError,
    LevelQuery,
    PoleSet,
    RootIsolationFailure,
    endpoint_window,
    eval_level_array,
    intersect,
    level_measure_constant,
    level_set,
    level_set_for,
    window_concentration,
)

TWO_PI = 2.0 * math.pi


def test_single_pole_at_i_delta_02():
    # F = x^2/(x^2+1); level 0.2 crossing at |x| = 0.5
    u = level_set_for(PoleSet((math.pi / 2.0,)), 0.2)
    assert len(u.intervals) == 2
    (a1, b1), (a2, b2) = u.intervals
    assert (a1, b1) == pytest.approx((-1.0, -0.5), abs=1e-10)
    assert (a2, b2) == pytest.approx((0.5, 1.0), abs=1e-10)
    assert u.measure == pytest.approx(1.0, abs=1e-10)


def test_single_pole_at_i_level_above_supremum():
    # sup F = 1/2 at the endpoints, so the 0.6 level set is empty
    u = level_set_for(PoleSet((math.pi / 2.0,)), 0.6)
    assert u.is_empty


def test_real_pole_belongs_to_level_set():
    # F(x) = x/(x-1) blows up at the pole x = 1
    u = level_set_for(PoleSet((0.0,)), 0.4)
    assert u.contains_point(1.0)
    assert u.contains_point(1.0 - 1e-9)


def test_level_query_validation():
    with pytest.raises(DomainError):
        LevelQuery(delta=-0.1, n=2)
    q = LevelQuery(delta=0.25, n=4)
    assert q.threshold == 1.0


def test_exploration_mode_large_delta():
    # delta >= 1/2 is allowed; the guarantee is simply not asserted
    u = level_set_for(PoleSet((math.pi / 2.0,)), 0.75)
    assert u.is_empty


def test_monotone_in_delta():
    rng = np.random.default_rng(61)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        ps = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        small = level_set_for(ps, 0.15)
        large = level_set_for(ps, 0.3)
        assert small.contains(large, tol=1e-10)


def test_sampling_consistency():
    rng = np.random.default_rng(67)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        ps = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        delta = float(rng.uniform(0.1, 0.45))
        u = level_set_for(ps, delta)
        thr = delta * n
        inside = []
        for a, b in u.intervals:
            inside.extend(rng.uniform(a, b, 50))
        if inside:
            vals = np.abs(eval_level_array(ps, np.array(inside)))
            assert (vals >= thr - 1e-9).all()
        outside = []
        edges = [-1.0] + [e for ab in u.intervals for e in ab] + [1.0]
        for a, b in zip(edges[0::2], edges[1::2]):
            if b - a > 1e-9:
                outside.extend(rng.uniform(a + 1e-12, b - 1e-12, 50))
        if outside:
            vals = np.abs(eval_level_array(ps, np.array(outside)))
            assert (vals < thr + 1e-9).all()


def test_interval_count_bounded_by_degree():
    rng = np.random.default_rng(71)
    for _ in range(30):
        n = int(rng.integers(1, 13))
        ps = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        u = level_set_for(ps, 0.25)
        # each boundary is a root of one of two degree <= 2n polynomials
        assert len(u.intervals) <= 2 * n + 1


def test_endpoint_window_small_n_is_everything():
    w = endpoint_window(1, 0.2)
    assert w.intervals == ((-1.0, 1.0),)


def test_endpoint_window_example():
    w = endpoint_window(10, 0.25)
    assert len(w.intervals) == 2
    assert w.intervals[0] == pytest.approx((-1.0, -0.9), abs=1e-15)
    assert w.intervals[1] == pytest.approx((0.9, 1.0), abs=1e-15)


def test_endpoint_window_measure_vanishes():
    m_prev = 2.0
    for n in (10, 100, 1000, 10000):
        m = endpoint_window(n, 0.3).measure
        assert m < m_prev
        m_prev = m
    assert m_prev < 1e-3


def test_level_set_generic_vs_query_form():
    ps = PoleSet((0.4, 2.0, 5.5))
    a = level_set(ps, LevelQuery(delta=0.2, n=3))
    b = level_set_for(ps, 0.2)
    assert a.intervals == b.intervals


def test_window_concentration_guarantee():
    # measure(E intersect window) >= K(delta)/n, strictly, on a sweep
    rng = np.random.default_rng(73)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        ps = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        for delta in (0.1, 0.2, 0.3, 0.4):
            out = window_concentration(ps, delta)
            got = out["intersection"].measure
            floor = out["lower_bound"]
            assert floor == pytest.approx(level_measure_constant(delta) / n, rel=1e-15)
            assert got > floor
            assert out["ok"]
            assert intersect(out["level_set"], out["window"]).measure == pytest.approx(
                got, abs=1e-15
            )


@pytest.mark.xfail(
    strict=True,
    raises=RootIsolationFailure,
    reason="open defect: the gap scan hands the degree-4n polynomial N^2 - tau^2 D^2 "
    "to isolate_roots, whose Pascal table stops at degree 80, so level sets "
    "can raise from n = 21 on",
)
def test_level_set_for_answers_at_n_21_to_40():
    # On the seeded corpus of 10 sets per n (rng 2026, delta 0.25) no set
    # raises at n <= 20, 17 of 50 raise at n = 20-24 and about 31 of 50
    # in each five-n bucket from 25 to 39.  Here 13 of the 20 sets raise,
    # the first at n = 22.
    for n in range(21, 41):
        ps = PoleSet(tuple(np.random.default_rng([2026, n]).uniform(0.0, TWO_PI, n)))
        u = level_set_for(ps, 0.25)
        assert 0.0 < u.measure <= 2.0
