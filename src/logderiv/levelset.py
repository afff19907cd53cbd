"""Level sets of the level function F on [-1, 1], by float root isolation.

For a threshold tau = delta*n, the set {x : |F(x)| >= tau} is a finite
union of closed intervals whose endpoints are roots of

    N(x) - tau*D(x)    or    N(x) + tau*D(x),

where F = N/D over a common denominator.  Roots of both polynomials are
isolated, the open gaps between consecutive breakpoints are classified
by the sign of N^2 - tau^2 D^2 at their midpoints, and member gaps are
merged.  Real poles of F make |F| blow up at the matching endpoint, so
the adjacent gap classifies as a member automatically.

The expanded coefficients are floats, so the result is not exact: under
coefficient noise a root can be lost or misplaced, and whole intervals
can be wrongly kept or dropped.  Such errors grow more common with n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np
from numpy.polynomial import polynomial as npoly

from .bounds import endpoint_window_width, level_measure_constant
from .errors import DomainError
from .intervals import IntervalUnion, intersect
from .poles import PoleSet, to_rational
from .rootiso import isolate_roots


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


def _sign_scan_gaps(square_diff: np.ndarray, cuts: List[float]) -> List[float]:
    """Check each gap for constant sign of N^2 - tau^2 D^2; return missed cuts.

    The Descartes pass can in principle drop a root pair hiding under
    coefficient noise; a grid scan per gap catches any sign flip the
    breakpoints failed to record.
    """
    extra: List[float] = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a < 1e-10:
            continue
        grid = np.linspace(a, b, 65)[1:-1]
        vals = npoly.polyval(grid, square_diff)
        flips = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
        for i in flips:
            extra.extend(isolate_roots(square_diff, float(grid[i]), float(grid[i + 1])))
    return extra


def level_set(poles: PoleSet, query: LevelQuery) -> IntervalUnion:
    """{x in [-1, 1] : |F(x)| >= query.threshold} as an interval union."""
    if query.n != poles.n:
        raise DomainError(f"query built for n={query.n}, pole set has n={poles.n}")
    tau = query.threshold
    rat = to_rational(poles)
    num = np.asarray(rat.numerator)
    den = np.asarray(rat.denominator)
    width = max(len(num), len(den))
    num = np.pad(num, (0, width - len(num)))
    den = np.pad(den, (0, width - len(den)))

    cuts = {-1.0, 1.0}
    for g in (num - tau * den, num + tau * den):
        cuts.update(isolate_roots(g))
    cuts = sorted(cuts)

    square_diff = npoly.polysub(npoly.polymul(num, num), tau * tau * npoly.polymul(den, den))
    extra = _sign_scan_gaps(square_diff, cuts)
    if extra:
        cuts = sorted(set(cuts) | set(extra))

    kept = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        m = 0.5 * (a + b)
        if npoly.polyval(m, square_diff) >= 0.0:
            kept.append((a, b))
    return IntervalUnion(tuple(kept))


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
