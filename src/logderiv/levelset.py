"""Level sets of the level function F on [-1, 1].

For a threshold tau = delta*n, the set {x : |F(x)| >= tau} is found by
branch and bound on interval enclosures (Moore, Kearfott and Cloud,
Introduction to Interval Analysis, SIAM 2009) of the Poisson form
F = (n - S)/2, S = sum_k P_k: |F| >= tau iff S <= n - 2 tau or
S >= n + 2 tau.

Each kernel P_k is unimodal on [-1, 1], with its peak at
cos(theta_k)/(1 + |sin(theta_k)|), so its range on a box comes from the
box's endpoints and, when the box holds it, the peak.  The summed range,
widened by a rounding margin, decides a box: a member when it lies at or
below n - 2 tau or at or above n + 2 tau, a non-member when it lies
strictly between; any other box is split 16 ways.  Where an enclosure of
S' excludes 0 the box is monotone, and it and its children use the exact
hull [S(a), S(b)]; so a tangency of |F| and tau costs thousands of boxes,
not millions.  A box narrower than REFINE_WIDTH, or whose hull is no
wider than the rounding band, is decided by eval_level_array at its
midpoint, so an endpoint is within ~REFINE_WIDTH of its crossing.  A real
pole's kernel is infinite at its own endpoint, so the box next to it is
a member.

level_members runs this search for any threshold on given intervals, one
work item each; level_set and verify_certificate call it.  Boxes go
through a worklist in chunks of _CHUNK_ELEMENTS box-pole pairs, so memory
stays O(chunk) at any n; a search past _BOX_BUDGET boxes raises
BudgetExhausted.  Level sets agree with dense sampling on 1,100 seeded
sets with n = 1-40 and on random sets at n = 64, 256 and 1024; on
sharp_poles(n) at those n the measure is within 1e-10 of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import endpoint_window_width, level_measure_constant
from .errors import BudgetExhausted, DomainError
from .intervals import IntervalUnion, intersect
from .poles import PoleSet, eval_level_array, pole_terms
# Not called here: bench/tracing.py hooks levelset.to_rational and
# levelset.isolate_roots by name, and fails on a missing one.
from .poles import to_rational  # noqa: F401
from .rootiso import isolate_roots  # noqa: F401

# Width below which a box is no longer split.
REFINE_WIDTH = 1e-12

# Boxes one level set may examine before it raises BudgetExhausted.
_BOX_BUDGET = 1_000_000

# Box-pole pairs per chunk; a chunk's kernel arrays, at both ends of its
# boxes, are 512 KiB each.
_CHUNK_ELEMENTS = 1 << 15

# Children per split box.
_SPLIT = 16


@dataclass(frozen=True)
class LevelQuery:
    """Threshold query: |F| >= delta * n."""

    delta: float
    n: int
    threshold: float = field(init=False)

    def __post_init__(self):
        if not self.delta > 0.0:
            raise DomainError(f"delta must be positive, got {self.delta}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        object.__setattr__(self, "threshold", self.delta * self.n)


def endpoint_window(n: int, delta: float) -> IntervalUnion:
    """The two-sided window {|x| > 1 - 3/((2+4*delta)*n)}, clipped.

    Returned closed; when the width reaches 1 the window is all of
    [-1, 1].
    """
    w = endpoint_window_width(n, delta)
    if w >= 1.0:
        return IntervalUnion.whole()
    return IntervalUnion(((-1.0, -(1.0 - w)), (1.0 - w, 1.0)))


def _kernels(x, side, offset, s2):
    """P_k(x), d and den = d^2 + s2 at the points x (m,) for every pole,
    each (m, n), with d = x - cos(theta_k) formed as in pole_terms."""
    d = (x[:, None] + side) + offset
    den = d * d + s2
    p = ((1.0 - x) * (1.0 + x))[:, None] / den
    p[np.isnan(p)] = np.inf  # 0/0: a real pole at its own endpoint
    return p, d, den


def _monotone(a, b, da, db, dena, denb, cos, s2, rel):
    """Whether an enclosure of S' = sum_k P_k' excludes 0 on each box [a, b].

    da, dena (db, denb) are the kernels' d and den at a (at b).  P_k' is
    2 N_k / den_k^2 with N_k = cos_k (1 + x^2) - 2x, which falls on
    [-1, 1]; so N_k ranges over [N_k(b), N_k(a)], and |N_k| <= 4 bounds
    the rounding slack.  The bounds are those of S'/2.  A real pole's box
    at its own endpoint gets an infinite slack, or NaN bounds, and is
    never monotone.
    """
    dmin = np.where((da <= 0.0) & (db >= 0.0), s2, np.minimum(dena, denb)) ** 2
    dmax = np.maximum(dena, denb) ** 2
    na = cos * (1.0 + a * a)[:, None] - 2.0 * a[:, None]
    nb = cos * (1.0 + b * b)[:, None] - 2.0 * b[:, None]
    slack = rel * (4.0 / dmin).sum(axis=1)
    lo = (nb / np.where(nb >= 0.0, dmax, dmin)).sum(axis=1)
    hi = (na / np.where(na >= 0.0, dmin, dmax)).sum(axis=1)
    return (lo > slack) | (hi < -slack)


def _merge(a: np.ndarray, b: np.ndarray) -> tuple:
    """Disjoint boxes [a, b] merged into sorted intervals where they touch."""
    if not a.size:
        return a, b
    order = np.argsort(a)
    a, b = a[order], b[order]
    gap = a[1:] > b[:-1]
    return a[np.r_[True, gap]], b[np.r_[gap, True]]


def level_members(poles: PoleSet, tau: float, intervals: tuple) -> IntervalUnion:
    """{x in the (a, b) intervals : |F(x)| >= tau}, one work item per
    interval.  Raises BudgetExhausted after _BOX_BUDGET boxes."""
    n = poles.n
    # pole_terms' (side, offset, sin, s2) in one pass, keeping no per-pole tuples
    terms = np.fromiter(pole_terms(poles), "f8,f8,f8,f8", count=n)
    side, offset, s2 = terms["f0"], terms["f1"], terms["f3"]
    cos = -(side + offset)
    rel = (n + 16) * np.finfo(float).eps  # relative rounding margin of a kernel sum
    low, high = n - 2.0 * tau, n + 2.0 * tau  # |F| >= tau iff S <= low or S >= high
    chunk = max(1, _CHUNK_ELEMENTS // n)

    work = [(np.array([a]), np.array([b]), np.array([False])) for a, b in intervals]
    found_a, found_b, boxes = [np.empty(0)], [np.empty(0)], 0
    # A real pole's kernel is infinite at its own endpoint (1 / 0).
    with np.errstate(divide="ignore", invalid="ignore"):
        sin = np.sqrt(s2)
        peak_x, peak = cos / (1.0 + sin), 1.0 / sin  # where P_k is largest, and its value
        while work:
            a, b, mono = work.pop()
            if a.size > chunk:
                work.append((a[chunk:], b[chunk:], mono[chunk:]))
                a, b, mono = a[:chunk], b[:chunk], mono[:chunk]
            boxes += a.size
            if boxes > _BOX_BUDGET:
                raise BudgetExhausted(
                    f"level set needs more than {_BOX_BUDGET} boxes (n={n}, tau={tau!r})")
            m = a.size
            p, d, den = _kernels(np.concatenate((a, b)), side, offset, s2)
            pa, pb = p[:m], p[m:]
            # Enclosure of S on each box: every P_k is unimodal, so its range
            # comes from the endpoints and, when inside, its peak.  A
            # monotone box takes the exact hull [S(a), S(b)] instead.
            inside = (a[:, None] <= peak_x) & (peak_x <= b[:, None])
            lo = np.minimum(pa, pb).sum(axis=1)
            hi = np.where(inside, peak, np.maximum(pa, pb)).sum(axis=1)
            if mono.any():
                sa, sb = pa.sum(axis=1), pb.sum(axis=1)
                lo = np.where(mono, np.minimum(sa, sb), lo)
                hi = np.where(mono, np.maximum(sa, sb), hi)
            lo_w, hi_w = lo * (1.0 - rel), hi * (1.0 + rel)
            member = (hi_w <= low) | (lo_w >= high)
            undecided = ~member & ((lo_w <= low) | (hi_w >= high))
            # A box too narrow, or whose hull is no wider than the rounding
            # band, is decided by F at its midpoint.
            leaf = undecided & ((b - a <= REFINE_WIDTH) | (hi * (1.0 - rel) <= lo * (1.0 + rel)))
            if leaf.any():
                member[leaf] = np.abs(eval_level_array(poles, 0.5 * (a[leaf] + b[leaf]))) >= tau
            found_a.append(a[member])
            found_b.append(b[member])
            split = undecided & ~leaf
            if not split.any():
                continue
            test = split & ~mono
            if test.any():
                mono = mono.copy()
                mono[test] = _monotone(a[test], b[test], d[:m][test], d[m:][test],
                                       den[:m][test], den[m:][test], cos, s2, rel)
            a, b, mono = a[split], b[split], mono[split]
            edges = a[:, None] + (b - a)[:, None] * (np.arange(_SPLIT + 1) / _SPLIT)
            edges[:, -1] = b
            work.append((edges[:, :-1].ravel(), edges[:, 1:].ravel(), np.repeat(mono, _SPLIT)))
            if len(found_a) > 64:  # keep the found boxes merged
                a, b = _merge(np.concatenate(found_a), np.concatenate(found_b))
                found_a, found_b = [a], [b]
    a, b = _merge(np.concatenate(found_a), np.concatenate(found_b))
    return IntervalUnion(tuple(zip(a.tolist(), b.tolist())))


def level_set(poles: PoleSet, query: LevelQuery) -> IntervalUnion:
    """{x in [-1, 1] : |F(x)| >= query.threshold}; see level_members."""
    if query.n != poles.n:
        raise DomainError(f"query built for n={query.n}, pole set has n={poles.n}")
    return level_members(poles, query.threshold, ((-1.0, 1.0),))


def level_set_for(poles: PoleSet, delta: float) -> IntervalUnion:
    """Convenience wrapper building the query from the pole count."""
    return level_set(poles, LevelQuery(delta=delta, n=poles.n))


def window_concentration(poles: PoleSet, delta: float) -> dict:
    """Measure of the level set and of its endpoint-window part.

    Returns a dict with the full set, the window, their intersection,
    the guaranteed lower bound K(delta)/n on the intersection's measure,
    and "ok", whether the measure clears that bound up to rounding.
    """
    e = level_set_for(poles, delta)
    w = endpoint_window(poles.n, delta)
    both = intersect(e, w)
    floor = level_measure_constant(delta) / poles.n
    return {
        "level_set": e,
        "window": w,
        "intersection": both,
        "lower_bound": floor,
        "ok": both.measure > floor * (1.0 - 1e-12) - 1e-15,
    }
