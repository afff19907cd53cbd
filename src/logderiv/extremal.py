"""Benchmark family n x^(n-1)/(x^n + i) and its closed forms.

The package's lower bounds are order-sharp against this family.  Its
pole set is the n solutions of z^n = -i on the unit circle, its level
function collapses to n x^(2n)/(x^(2n) + 1) on the real line, and its
p-means reduce to one-dimensional integrals in t = x^n.  That makes it
the oracle family for the quadrature, levelset, and certificate
modules: every closed form here can be cross-checked by the generic
numeric path.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .errors import DomainError
from .intervals import IntervalUnion
from .poles import PoleSet
from .quadrature import _graded_panels, _integrate

ArrayLike = Union[float, np.ndarray]


def sharp_poles(n: int) -> PoleSet:
    """The n-th roots of -i, so that their log-derivative sum is
    n x^(n-1)/(x^n + i)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    angles = tuple((1.5 * math.pi + 2.0 * math.pi * k) / n for k in range(n))
    return PoleSet(angles)


def eval_sharp(n: int, x: ArrayLike) -> Union[complex, np.ndarray]:
    """n x^(n-1)/(x^n + i); the denominator never vanishes for real x."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    xx = np.asarray(x, dtype=float)
    out = n * xx ** (n - 1) / (xx**n + 1j)
    return complex(out) if np.isscalar(x) else out


def sharp_level(n: int, x: ArrayLike) -> ArrayLike:
    """Re(x * eval_sharp(n, x)) = n x^(2n)/(x^(2n) + 1) for real x."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    xx = np.asarray(x, dtype=float)
    t = xx ** (2 * n)
    out = n * t / (t + 1.0)
    return float(out) if np.isscalar(x) else out


def _kernel_integral(exponent: float, p: float, rel_tol: float) -> float:
    """integral over [0,1] of t^exponent (1+t^2)^(-p/2); exponent > -1.

    A negative exponent is an integrable endpoint singularity, which
    t = u^k with k = 1/(1 + exponent) removes: the integrand becomes the
    bounded k (1 + t^2)^(-p/2) in u over [0, 1].
    """
    if exponent <= -1.0:
        raise DomainError(f"exponent must exceed -1, got {exponent}")
    k = 1.0 / (1.0 + min(exponent, 0.0))

    def f(u: np.ndarray) -> np.ndarray:
        t = u**k
        return k * t ** max(exponent, 0.0) * (1.0 + t * t) ** (-0.5 * p)

    a, b = _graded_panels(0.0, 1.0, [0.5])
    return _integrate([(f, a, b)], rel_tol, 50_000).value


def sharp_lp_mean(n: int, p: float, rel_tol: float = 1e-10) -> float:
    """integral of |n x^(n-1)/(x^n + i)|^p over [-1,1], via the t = x^n
    reduction 2 n^(p-1) * integral of t^((1-1/n)(p-1)) (1+t^2)^(-p/2)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0.0 < p < math.inf:
        raise DomainError(f"p must be positive and finite, got {p}")
    exponent = (1.0 - 1.0 / n) * (p - 1.0)
    return 2.0 * n ** (p - 1.0) * _kernel_integral(exponent, p, rel_tol)


def sharp_mean_constant(p: float, rel_tol: float = 1e-10) -> float:
    """Upper envelope constant: sharp_lp_mean(n, p) <= constant * n^(p-1)
    for every n, realized with exponent min(p-1, 0)."""
    if not 0.0 < p < math.inf:
        raise DomainError(f"p must be positive and finite, got {p}")
    return 2.0 * _kernel_integral(min(p - 1.0, 0.0), p, rel_tol)


def sharp_level_constant(delta: float) -> float:
    """ln(1/delta - 1): the family's level set has measure below this
    over n, matching the K(delta)/n floor in order."""
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")
    return math.log(1.0 / delta - 1.0)


def sharp_level_cutoff(n: int, delta: float) -> float:
    """|x| threshold of the family's level set: (1/delta - 1)^(-1/(2n))."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")
    return (1.0 / delta - 1.0) ** (-1.0 / (2 * n))


def sharp_level_set(n: int, delta: float) -> IntervalUnion:
    """{x in [-1,1] : sharp_level(n, x) >= delta * n}; empty for
    delta >= 1/2 since the level function never reaches n/2 inside."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not delta > 0.0:
        raise DomainError(f"delta must be positive, got {delta}")
    if delta >= 0.5:
        return IntervalUnion.empty()
    c = sharp_level_cutoff(n, delta)
    return IntervalUnion(((-1.0, -c), (c, 1.0)))
