"""Closed-form constants for the mean and level-set lower bounds.

For a configuration of n unit-circle poles, the weighted p-mean of the
logarithmic derivative on [-1, 1] is bounded below by

    mean_lower_constant(p) * n^(p-1),

and the set where |Re(x g(x))| >= delta*n has measure at least

    level_measure_constant(delta) / n.

The two constants are linked: mean_lower_constant(p) equals
delta^p * level_measure_constant(delta) at delta = p / (2(p+1)).
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError


def level_measure_constant(delta: float) -> float:
    """(3/32) (1-2*delta) / (1+2*delta)^2 for 0 < delta < 1/2."""
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")
    return (3.0 / 32.0) * (1.0 - 2.0 * delta) / (1.0 + 2.0 * delta) ** 2


def _log_mean_lower_bound(p: float, n: int) -> float:
    """log of mean_lower_constant(p) n^(p-1), with no inf - inf for any
    finite p > 0: p^p (p+1)^(1-p) = (p+1) (1 + 1/p)^(-p) and
    n^(p-1) 2^(-p-5) (1+2p)^(-2) = (n/2)^p / (32 n (1+2p)^2)."""
    return (math.log1p(p) - p * math.log1p(1.0 / p) + p * math.log(n / 2.0)
            + math.log(3.0 / 32.0) - math.log(n) - 2.0 * (math.log(2.0) + math.log(p + 0.5)))


def mean_lower_constant(p: float) -> float:
    """3 p^p (p+1)^(1-p) / (2^(p+5) (1+2p)^2) for finite p > 0.

    Arranged as (3 p^p) / ((p+1)^(p-1) 2^(p+5) (1+2p)^2) so the integer
    cases come out exact: p=1 gives 1/192 and p=2 gives 1/800.  Where a
    factor overflows (from p ~ 128 on) it is evaluated in log space.
    """
    if not 0.0 < p < math.inf:
        raise DomainError(f"p must be positive and finite, got {p}")
    try:
        c = (3.0 * p**p) / ((p + 1.0) ** (p - 1.0) * 2.0 ** (p + 5.0) * (1.0 + 2.0 * p) ** 2)
    except OverflowError:
        c = 0.0
    return c if 0.0 < c < math.inf else math.exp(_log_mean_lower_bound(p, 1))


def mean_lower_bound(p: float, n: int) -> float:
    """The floor mean_lower_constant(p) * n^(p-1) of the weighted p-mean.

    Where n^(p-1) overflows or the constant underflows it is evaluated
    in log space, and a floor beyond the float range is inf.
    """
    c = mean_lower_constant(p)
    if c >= sys.float_info.min:
        try:
            return c * n ** (p - 1.0)
        except OverflowError:
            pass
    try:
        return math.exp(_log_mean_lower_bound(p, n))
    except OverflowError:
        return math.inf


def matched_delta(p: float) -> float:
    """The delta at which the level-set bound yields the p-mean bound."""
    if not 0.0 < p < math.inf:
        raise DomainError(f"p must be positive and finite, got {p}")
    return p / (2.0 * (p + 1.0))


def endpoint_window_width(n: int, delta: float) -> float:
    """Half-width 3/((2+4*delta)*n) of the endpoint concentration window."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")
    return 3.0 / ((2.0 + 4.0 * delta) * n)


AREA_LOWER_BOUND = math.pi / 192.0
