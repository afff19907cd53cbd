"""Level sets of the level function F on [-1, 1].

For a threshold tau = delta*n, the set {x : |F(x)| >= tau} is a finite
union of closed intervals whose endpoints are roots of

    N(x) - tau*D(x)    or    N(x) + tau*D(x),

where F = N/D over a common denominator.  Those roots, found as the
companion-matrix eigenvalues of the expanded float coefficients, are
the primary cuts.  Every membership question is then answered by
eval_level_array, the one evaluator of F: a scan of each gap, its cuts
included, adds to 1e-12 the crossings that the cuts missed or
misplaced, and a gap between consecutive cuts is kept iff |F| >= tau
at its midpoint.  Real poles of F make |F| blow up at the matching endpoint,
so the adjacent gap is a member automatically.

The result is not exact: the scan does not see a pair of crossings
closer than its grid step that the cuts missed.  None is missed in
1,100 seeded sets with n <= 40, and the two stretches ~2e-4 wide next
to x = 1 that the benchmark's level sets used to lose (seed 703
rand-n13-0 at delta = 0.4, seed 704 rand-n19-1 at delta = 0.1) are now
cut by eigenvalues.  From n = 41 on, N -+ tau*D can have degree above
80, where its monomial coefficients carry no correct digit, and
level_set raises RootIsolationFailure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import endpoint_window_width, level_measure_constant
from .errors import DomainError
from .intervals import IntervalUnion, intersect
from .poles import PoleSet, eval_level_array, to_rational
from .rootiso import isolate_roots

# Width at which a bracket of a crossing of |F| = tau counts as refined.
REFINE_WIDTH = 1e-12

# Points per gap of the scan for missed crossings, the gap's cuts
# included.  Against dense sampling, at 65 points 8 of 1,100 seeded sets
# (n <= 40) got a stretch 0.006-0.03 wide wrong inside a gap ~2 wide; at
# 513 none does, for ~0.2 ms more per level set at n <= 20.
_SCAN_POINTS = 513


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


def _missed_crossings(poles: PoleSet, tau: float, cuts: np.ndarray) -> np.ndarray:
    """Crossings of |F| = tau that the cuts failed to record.

    The eigenvalues of float coefficients can lose or misplace a root
    under coefficient noise.  Every gap at least 1e-10 wide is sampled
    at _SCAN_POINTS equispaced points, its two cuts included so that a
    misplaced cut is found too; each pair of neighbours whose memberships
    (|F| >= tau) differ brackets a crossing, and the brackets are sampled
    the same way until they are at most 1e-12 wide.  Returns the
    midpoints of the final brackets.
    """
    wide = np.flatnonzero(np.diff(cuts) >= 1e-10)
    lo, hi = cuts[wide], cuts[wide + 1]
    while lo.size and np.max(hi - lo) > REFINE_WIDTH:
        grid = np.linspace(lo, hi, _SCAN_POINTS, axis=-1)
        inside = np.abs(eval_level_array(poles, grid)) >= tau
        i, j = np.nonzero(inside[:, :-1] != inside[:, 1:])
        lo, hi = grid[i, j], grid[i, j + 1]
    return 0.5 * (lo + hi)


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

    roots = isolate_roots(num - tau * den) + isolate_roots(num + tau * den)
    cuts = np.unique([-1.0, 1.0, *roots])
    cuts = np.union1d(cuts, _missed_crossings(poles, tau, cuts))

    a, b = cuts[:-1], cuts[1:]
    member = np.abs(eval_level_array(poles, 0.5 * (a + b))) >= tau
    return IntervalUnion(tuple(zip(a[member].tolist(), b[member].tolist())))


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
