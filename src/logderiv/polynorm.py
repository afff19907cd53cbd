"""Chebyshev norms of polynomials with zeros in the closed unit disk.

Polynomials live as zero lists plus a leading coefficient and are
evaluated as products; the derivative comes from prefix/suffix products
of the same factors, which stays exact when x hits a zero.  On top of
that sit the derivative-norm floors (the universal 1/4 and the
zero-imbalance refinement), the endpoint ratio |p'/p| >= n/2 at +-1,
and the two-sided positivity of {|p'| >= delta n |p|}.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import DomainError, ZeroAtEndpoint
from .poles import json_numbers

_DISK_TOL = 1e-14
_GOLD = (math.sqrt(5.0) - 1.0) / 2.0

# Uniform sampling cells on each half of [-1, 1] in the positivity check.
_POSITIVITY_SAMPLES = 4096


@dataclass(frozen=True)
class DiskPolynomial:
    zeros: Tuple[complex, ...]
    leading: complex = 1.0 + 0.0j

    def __post_init__(self):
        zs = tuple(complex(z) for z in self.zeros)
        object.__setattr__(self, "zeros", zs)
        object.__setattr__(self, "leading", complex(self.leading))
        if len(zs) < 1:
            raise DomainError("need at least one zero")
        if self.leading == 0 or not cmath.isfinite(self.leading):
            raise DomainError(f"leading coefficient {self.leading} is not finite and nonzero")
        for z in zs:
            # a NaN zero fails this test too
            if not abs(z) <= 1.0 + _DISK_TOL:
                raise DomainError(f"zero {z} lies outside the closed unit disk")

    @property
    def n(self) -> int:
        return len(self.zeros)

    def eval(self, x: Union[float, np.ndarray]) -> Union[complex, np.ndarray]:
        xx = np.asarray(x, dtype=float)
        d = xx[..., None] - np.array(self.zeros)
        out = self.leading * d.prod(axis=-1)
        return complex(out) if np.isscalar(x) else out

    def eval_deriv(self, x: Union[float, np.ndarray]) -> Union[complex, np.ndarray]:
        xx = np.asarray(x, dtype=float)
        d = xx[..., None] - np.array(self.zeros)
        ones = np.ones_like(d[..., :1])
        pre = np.concatenate([ones, np.cumprod(d, axis=-1)[..., :-1]], axis=-1)
        suf = np.concatenate(
            [np.cumprod(d[..., ::-1], axis=-1)[..., -2::-1], ones], axis=-1
        )
        out = self.leading * (pre * suf).sum(axis=-1)
        return complex(out) if np.isscalar(x) else out

    def to_json(self) -> str:
        return json.dumps(
            {
                "leading": [self.leading.real, self.leading.imag],
                "zeros": [[z.real, z.imag] for z in self.zeros],
            }
        )

    @staticmethod
    def from_json(text: str) -> "DiskPolynomial":
        try:
            d = json.loads(text)
            pairs = [json_numbers(z, "zero") for z in d["zeros"]]
            zeros = tuple(complex(re, im) for re, im in pairs)
            re, im = json_numbers(d.get("leading", [1.0, 0.0]), "leading")
            leading = complex(re, im)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed polynomial document: {exc}") from exc
        return DiskPolynomial(zeros=zeros, leading=leading)


@dataclass(frozen=True)
class ZeroCounts:
    n_plus: int
    n_minus: int
    n_zero: int


def zero_counts(poly: DiskPolynomial) -> ZeroCounts:
    """Counts by the exact sign of Im z for each zero."""
    plus = sum(1 for z in poly.zeros if z.imag > 0.0)
    minus = sum(1 for z in poly.zeros if z.imag < 0.0)
    return ZeroCounts(plus, minus, poly.n - plus - minus)


def _golden_max(f, a: float, b: float, xtol: float = 1e-12) -> float:
    x1 = b - _GOLD * (b - a)
    x2 = a + _GOLD * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLD * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLD * (b - a)
            f1 = f(x1)
    return max(f1, f2)


def cheb_norm(poly: DiskPolynomial, derivative: bool = False) -> float:
    """sup of |p| (or |p'|) over [-1,1]: Chebyshev grid of 8(n+1) points,
    each local maximum refined by golden section to 1e-12 in x."""
    m = 8 * (poly.n + 1)
    grid = np.cos(np.pi * np.arange(m) / (m - 1))[::-1]
    raw = poly.eval_deriv(grid) if derivative else poly.eval(grid)
    vals = np.abs(raw)

    def f(x: float) -> float:
        v = poly.eval_deriv(x) if derivative else poly.eval(x)
        return abs(v)

    best = float(vals.max())
    for i in range(m):
        left = vals[i - 1] if i > 0 else -math.inf
        right = vals[i + 1] if i + 1 < m else -math.inf
        if vals[i] >= left and vals[i] >= right:
            a = grid[i - 1] if i > 0 else grid[i]
            b = grid[i + 1] if i + 1 < m else grid[i]
            if b > a:
                best = max(best, _golden_max(f, a, b))
    return best


@dataclass(frozen=True)
class NormBoundReport:
    norm: float
    deriv_norm: float
    bound_factor: float
    ok: bool
    counts: Optional[ZeroCounts] = None


def check_norm_bounds(poly: DiskPolynomial) -> Tuple[NormBoundReport, NormBoundReport]:
    """The two derivative-norm floors, from one pair of norms
    (tolerance 1e-10): the universal quarter, ||p'|| >= ||p|| / 4, and the
    refined floor from the zero counts,
    max(1/4, sqrt((max(n+, n-) + n0) / (2 min(n+, n-) + 1)) / 900).
    Returns (quarter, imbalance)."""
    c = zero_counts(poly)
    hi = max(c.n_plus, c.n_minus) + c.n_zero
    lo = 2 * min(c.n_plus, c.n_minus) + 1
    factor = max(0.25, math.sqrt(hi / lo) / 900.0)
    norm = cheb_norm(poly)
    dnorm = cheb_norm(poly, derivative=True)
    return (
        NormBoundReport(norm, dnorm, 0.25, dnorm >= 0.25 * norm - 1e-10),
        NormBoundReport(norm, dnorm, factor, dnorm >= factor * norm - 1e-10, c),
    )


def endpoint_ratio(poly: DiskPolynomial, at: int) -> float:
    """|p'(at)/p(at)| for at in {-1, +1}; always >= n/2 because each
    1/(at - z) has real part at least 1/2 in absolute value there."""
    if at not in (1, -1):
        raise DomainError(f"endpoint must be +1 or -1, got {at}")
    value = poly.eval(float(at))
    if value == 0 or any(z == at for z in poly.zeros):
        raise ZeroAtEndpoint(f"polynomial vanishes at {at}")
    return abs(poly.eval_deriv(float(at)) / value)


@dataclass(frozen=True)
class TwoSidedReport:
    measure_minus: float
    measure_plus: float
    ok: bool


def check_two_sided_positivity(poly: DiskPolynomial, delta: float) -> TwoSidedReport:
    """Estimate the measure of {x : |p'(x)| >= delta n |p(x)|} on each of
    [-1,0] and [0,1] by dense sampling with bisection refinement at sign
    changes; the claim being checked is that both measures are positive.
    """
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")
    thr = delta * poly.n

    def gain(x):
        return np.abs(poly.eval_deriv(x)) - thr * np.abs(poly.eval(x))

    def refine(a: float, b: float) -> float:
        ga, gb = float(gain(a)), float(gain(b))
        for _ in range(40):
            mid = 0.5 * (a + b)
            gm = float(gain(mid))
            if (ga >= 0.0) == (gm >= 0.0):
                a, ga = mid, gm
            else:
                b, gb = mid, gm
        return 0.5 * (a + b)

    halves = []
    for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
        xs = np.linspace(lo, hi, _POSITIVITY_SAMPLES + 1)
        good = gain(xs) >= 0.0
        total = 0.0
        for i in range(_POSITIVITY_SAMPLES):
            a, b = float(xs[i]), float(xs[i + 1])
            if good[i] and good[i + 1]:
                total += b - a
            elif good[i] != good[i + 1]:
                c = refine(a, b)
                total += (c - a) if good[i] else (b - c)
        halves.append(total)
    return TwoSidedReport(halves[0], halves[1], halves[0] > 0.0 and halves[1] > 0.0)


def random_disk_polynomial(rng: np.random.Generator, n: int) -> DiskPolynomial:
    """Zeros uniform in the disk (area measure), unit leading coefficient."""
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    zeros = tuple(complex(a, b) for a, b in zip(r * np.cos(phi), r * np.sin(phi)))
    return DiskPolynomial(zeros)
