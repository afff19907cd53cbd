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

from .errors import DomainError


def level_measure_constant(delta: float) -> float:
    """(3/32) (1-2*delta) / (1+2*delta)^2 for 0 < delta < 1/2."""
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")
    return (3.0 / 32.0) * (1.0 - 2.0 * delta) / (1.0 + 2.0 * delta) ** 2


def mean_lower_constant(p: float) -> float:
    """3 p^p (p+1)^(1-p) / (2^(p+5) (1+2p)^2) for p > 0.

    Arranged as (3 p^p) / ((p+1)^(p-1) 2^(p+5) (1+2p)^2) so the integer
    cases come out exact: p=1 gives 1/192 and p=2 gives 1/800.
    """
    if not p > 0.0:
        raise DomainError(f"p must be positive, got {p}")
    return (3.0 * p**p) / ((p + 1.0) ** (p - 1.0) * 2.0 ** (p + 5.0) * (1.0 + 2.0 * p) ** 2)


def matched_delta(p: float) -> float:
    """The delta at which the level-set bound yields the p-mean bound."""
    if not p > 0.0:
        raise DomainError(f"p must be positive, got {p}")
    return p / (2.0 * (p + 1.0))


def endpoint_window_width(n: int, delta: float) -> float:
    """Half-width 3/((2+4*delta)*n) of the endpoint concentration window."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")
    return 3.0 / ((2.0 + 4.0 * delta) * n)


AREA_LOWER_BOUND = math.pi / 192.0
