"""Interval unions inside [-1, 1]: construction, measure, set algebra."""

import numpy as np
import pytest

from logderiv import IntervalUnion, from_pairs, intersect


def test_from_pairs_sorts_and_merges():
    u = from_pairs([(0.4, 0.6), (-0.5, 0.0), (0.55, 0.8)])
    assert u.intervals == ((-0.5, 0.0), (0.4, 0.8))


def test_from_pairs_rejects_bad_pairs():
    with pytest.raises(Exception):
        from_pairs([(0.5, 0.4)])
    with pytest.raises(Exception):
        from_pairs([(-2.0, 0.0)])
    with pytest.raises(Exception):
        from_pairs([(0.0, 1.5)])


def test_measure_examples():
    assert from_pairs([(-1.0, -0.5), (0.5, 1.0)]).measure == pytest.approx(1.0, abs=1e-15)
    assert IntervalUnion.empty().measure == 0.0
    assert from_pairs([(0.0, 1.0)]).measure == pytest.approx(1.0, abs=1e-15)
    assert IntervalUnion.whole().measure == pytest.approx(2.0, abs=1e-15)


def test_measure_equals_sum_of_lengths():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        pts = np.sort(rng.uniform(-1.0, 1.0, 2 * k))
        u = from_pairs(list(zip(pts[0::2], pts[1::2])))
        direct = sum(b - a for a, b in u.intervals)
        assert abs(u.measure - direct) <= 1e-15


def test_contains_point():
    u = from_pairs([(-1.0, -0.5), (0.5, 1.0)])
    assert u.contains_point(-0.75)
    assert u.contains_point(0.5)
    assert u.contains_point(1.0)
    assert not u.contains_point(0.0)
    assert not u.contains_point(0.4999)
    assert u.contains_point(0.4999, tol=1e-3)


def test_containment_of_unions():
    big = from_pairs([(-1.0, -0.4), (0.3, 1.0)])
    small = from_pairs([(-0.9, -0.5), (0.4, 0.9)])
    assert big.contains(small)
    assert not small.contains(big)
    assert big.contains(IntervalUnion.empty())


def test_intersect_examples():
    whole = from_pairs([(0.0, 1.0)])
    assert intersect(whole, from_pairs([(0.5, 1.0)])).intervals == ((0.5, 1.0),)
    two = from_pairs([(-1.0, -0.5), (0.5, 1.0)])
    assert intersect(two, from_pairs([(0.9, 1.0)])).intervals == ((0.9, 1.0),)
    assert intersect(from_pairs([(-1.0, -0.5)]), from_pairs([(0.5, 1.0)])).is_empty


def test_intersect_measure_bounds():
    rng = np.random.default_rng(9)
    for _ in range(50):
        pts = np.sort(rng.uniform(-1.0, 1.0, 8))
        u = from_pairs(list(zip(pts[0::2], pts[1::2])))
        pts = np.sort(rng.uniform(-1.0, 1.0, 6))
        v = from_pairs(list(zip(pts[0::2], pts[1::2])))
        w = intersect(u, v)
        assert w.measure <= min(u.measure, v.measure) + 1e-15
        assert u.contains(w, tol=1e-15)
        assert v.contains(w, tol=1e-15)
