"""Level sets of |Re(x g(x))|, their measure, and the endpoint window."""

import math

import numpy as np
import pytest

from logderiv import (
    DomainError,
    LevelQuery,
    PoleSet,
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


# Dense sampling: |F| at 200,001 equispaced points of [-1, 1], in the
# Poisson form F = (n - sum_k P_k)/2, which level_set never uses.
DENSE_X = np.linspace(-1.0, 1.0, 200_001)
DENSE_H = 2.0 / 200_000


def sampled_member(ps: PoleSet, delta: float, x: np.ndarray) -> np.ndarray:
    """|F(x)| >= delta n in the Poisson form."""
    base = 1.0 + x * x
    kernels = np.zeros_like(x)
    term = np.empty_like(x)
    for a in np.cos(np.asarray(ps.angles)):
        np.multiply(x, -2.0 * a, out=term)
        term += base
        np.reciprocal(term, out=term)
        kernels += term
    return np.abs(0.5 * (ps.n - (1.0 - x * x) * kernels)) >= delta * ps.n


def disagreement(ps: PoleSet, delta: float, u, x: np.ndarray) -> float:
    """Grid measure, on the equispaced points x, where u and the sampled
    set disagree."""
    ends = np.asarray(u.intervals, dtype=float).reshape(-1)
    got = np.searchsorted(ends, x, side="right") % 2 == 1
    return (x[1] - x[0]) * np.count_nonzero(sampled_member(ps, delta, x) != got)


def dense_error(ps: PoleSet, delta: float, u) -> tuple:
    """(error, tolerance): the grid measure where u and the sampled set
    disagree, against 4 grid steps per possible crossing, 4h(4n + 2)."""
    return disagreement(ps, delta, u, DENSE_X), 4.0 * DENSE_H * (4 * ps.n + 2)


def _corpus():
    rng = np.random.default_rng(2026)
    for n in range(1, 21):
        for delta in (0.1, 0.25, 0.4):
            for k in range(5):
                yield f"n{n}-d{delta}-{k}", n, delta, tuple(rng.uniform(0.0, TWO_PI, n))


@pytest.mark.parametrize(
    "n,delta,angles", [pytest.param(n, d, a, id=i) for i, n, d, a in _corpus()]
)
def test_level_set_matches_dense_sampling(n, delta, angles):
    ps = PoleSet(angles)
    err, tol = dense_error(ps, delta, level_set_for(ps, delta))
    assert err <= tol


@pytest.mark.parametrize("n", range(21, 41))
def test_level_set_for_answers_at_n_21_to_40(n):
    # the degree-4n polynomial of the old gap scan made 13 of these 20
    # sets raise RootIsolationFailure, the first at n = 22
    ps = PoleSet(tuple(np.random.default_rng([2026, n]).uniform(0.0, TWO_PI, n)))
    err, tol = dense_error(ps, 0.25, level_set_for(ps, 0.25))
    assert err <= tol


def _audit_set(seed: int, n: int, rep: int) -> PoleSet:
    """The benchmark audit's set rand-n{n}-{rep}: default_rng([seed, 1]),
    reps 0-3 in the outer loop, n = 1-20 in the inner loop."""
    rng = np.random.default_rng([seed, 1])
    for r in range(4):
        for m in range(1, 21):
            angles = rng.uniform(0.0, TWO_PI, m)
            if (r, m) == (rep, n):
                return PoleSet(tuple(angles))
    raise ValueError(f"no audit set rand-n{n}-{rep}")


@pytest.mark.parametrize(
    "seed,n,rep,delta,hole",
    [(703, 13, 0, 0.4, 0.99984), (704, 19, 1, 0.1, 0.99912)],
    ids=["seed703-rand-n13-0", "seed704-rand-n19-1"],
)
def test_level_set_finds_holes_next_to_one(seed, n, rep, delta, hole):
    # a pole near the real axis opens a hole ~2e-4 wide just inside x = 1;
    # Descartes isolation lost both, and the gap scan's step is ~4e-3
    ps = _audit_set(seed, n, rep)
    x = np.linspace(hole - 2e-4, 1.0, 20_001)
    assert disagreement(ps, delta, level_set_for(ps, delta), x) <= 1e-6
