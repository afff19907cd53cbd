"""Chebyshev norms of polynomials with zeros in the closed unit disk.

Polynomials live as zero lists plus a leading coefficient.  No product of
the n factors is formed, so nothing overflows: one pass over the zeros gives
log|p(x)| and g = p'/p = sum 1/(x - z_k), and log|p'| = log|p| + log|g|.
On these sit the derivative-norm floors (the universal 1/4 and the
zero-imbalance refinement), the endpoint ratio |g(+-1)| >= n/2, and a
sampled estimate of the measure of {|g| >= delta n} on each half of [-1, 1].
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, ZeroAtEndpoint
from .poles import json_numbers

_DISK_TOL = 1e-14

# Uniform sampling cells on each half of [-1, 1] in the positivity check.
_POSITIVITY_SAMPLES = 4096

# Elements of one (points, zeros) block of the evaluator: its memory bound.
_BLOCK = 1 << 13


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

    def to_json(self) -> str:
        zeros = [[z.real, z.imag] for z in self.zeros]
        return json.dumps({"leading": [self.leading.real, self.leading.imag], "zeros": zeros})

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


def _evaluator(poly: DiskPolynomial):
    """x -> (log|p|, the number of factors that vanish, g = sum 1/(x - z_k),
    sum 1/(x - z_k)^2), the sums over the factors that do not vanish; one
    pass over the distinct zeros with their multiplicities, blocks of x."""
    zs, mult = np.unique(np.array(poly.zeros), return_counts=True)
    log_c = math.log(abs(poly.leading))
    step = max(1, _BLOCK // zs.size)

    def ev(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        parts = []
        for s in range(0, max(x.size, 1), step):
            d = x[s : s + step, None] - zs
            van = d == 0.0
            d[van] = 1.0
            w = np.where(van, 0, mult)
            parts.append([(w * np.log(np.abs(d))).sum(axis=1), (van * mult).sum(axis=1),
                          (w / d).sum(axis=1), (w / d**2).sum(axis=1)])
        log_abs, vanishing, g, g2 = (np.concatenate(p) for p in zip(*parts))
        return log_c + log_abs, vanishing, g, g2

    return ev


def _log_abs(ev, x, derivative: bool):
    """log|p| (or log|p'|) at x and its slope in x, the real part of the
    log-derivative; where it vanishes the value is -inf and the slope NaN."""
    log_abs, vanishing, g, g2 = ev(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        if derivative:
            # off the zeros p' = p g and p''/p' = g - g2/g; at a simple zero
            # p' is the product of the other factors and p''/p' = 2g
            simple = vanishing == 1
            log_abs = np.where(simple, log_abs, log_abs + np.log(np.abs(g)))
            g = np.where(simple, 2.0 * g, g - g2 / g)
            vanishing = vanishing - simple
        return np.where(vanishing > 0, -np.inf, log_abs), np.where(vanishing > 0, np.nan, g.real)


def _bisect(pred, a, b, steps: int):
    """Halve every cell between a (where pred holds) and b (where it does
    not) `steps` times, all at once; returns the last midpoints."""
    for _ in range(steps if a.size else 0):
        mid = 0.5 * (a + b)
        keep = pred(mid)
        a, b = np.where(keep, mid, a), np.where(keep, b, mid)
    return 0.5 * (a + b)


def cheb_norm(poly: DiskPolynomial, derivative: bool = False) -> float:
    """log of the sup of |p| (or |p'|) over [-1, 1]: a Chebyshev grid of
    8(n+1) points, and every cell where the slope of the log turns from
    rising to falling bisected on the slope's sign down to 1e-12 in x."""
    ev = _evaluator(poly)
    m = 8 * (poly.n + 1)
    grid = np.cos(np.pi * np.arange(m) / (m - 1))[::-1]
    value, slope = _log_abs(ev, grid, derivative)
    rise = slope > 0.0
    # a zero on the grid is a minimum, so the cell right of it rises
    peaks = np.flatnonzero((rise[:-1] | np.isneginf(value[:-1])) & ~rise[1:])
    steps = math.ceil(math.log2(math.pi / (m - 1) / 1e-12))  # cells are < pi/(m-1) wide
    x = _bisect(lambda t: _log_abs(ev, t, derivative)[1] > 0.0, grid[peaks], grid[peaks + 1], steps)
    return float(max(value.max(), _log_abs(ev, x, derivative)[0].max(initial=-np.inf)))


@dataclass(frozen=True)
class NormBoundReport:
    log_norm: float
    log_deriv_norm: float
    bound_factor: float
    ok: bool


def check_norm_bounds(poly: DiskPolynomial) -> Tuple[NormBoundReport, NormBoundReport]:
    """The two derivative-norm floors, decided in log space from one pair
    of log norms with relative slack 1e-10: the universal quarter,
    ||p'|| >= ||p|| / 4, and the refined floor from the zero counts,
    max(1/4, sqrt((max(n+, n-) + n0) / (2 min(n+, n-) + 1)) / 900).
    Returns (quarter, imbalance)."""
    c = zero_counts(poly)
    hi = max(c.n_plus, c.n_minus) + c.n_zero
    lo = 2 * min(c.n_plus, c.n_minus) + 1
    factor = max(0.25, math.sqrt(hi / lo) / 900.0)
    log_norm = cheb_norm(poly)
    log_dnorm = cheb_norm(poly, derivative=True)
    log_ratio = log_dnorm - log_norm - math.log1p(-1e-10)  # relative slack
    return (
        NormBoundReport(log_norm, log_dnorm, 0.25, log_ratio >= math.log(0.25)),
        NormBoundReport(log_norm, log_dnorm, factor, log_ratio >= math.log(factor)),
    )


def endpoint_ratio(poly: DiskPolynomial, at: int) -> float:
    """|p'(at)/p(at)| = |g(at)| for at in {-1, +1}; always >= n/2 because
    each 1/(at - z) has real part at least 1/2 in absolute value there."""
    if at not in (1, -1):
        raise DomainError(f"endpoint must be +1 or -1, got {at}")
    _, vanishing, g, _ = _evaluator(poly)(float(at))
    if vanishing[0]:
        raise ZeroAtEndpoint(f"polynomial vanishes at {at}")
    return float(abs(g[0]))


@dataclass(frozen=True)
class TwoSidedReport:
    measure_minus: float
    measure_plus: float
    ok: bool


def check_two_sided_positivity(poly: DiskPolynomial, delta: float) -> TwoSidedReport:
    """Estimate the measure of {x : |p'(x)| >= delta n |p(x)|}, that is of
    {|g| >= delta n} with the zeros of p as members, on each of [-1, 0]
    and [0, 1]: 4096 cells per half, and each cell whose ends disagree
    bisected 40 times.  The claim checked is that both measures are
    positive; on valid input it holds, since |g(+-1)| >= n/2 > delta n.
    """
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")
    ev = _evaluator(poly)

    def member(x):
        _, vanishing, g, _ = ev(x)
        return (vanishing > 0) | (np.abs(g) >= delta * poly.n)

    halves = []
    for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
        xs = np.linspace(lo, hi, _POSITIVITY_SAMPLES + 1)
        good = member(xs)
        a, b, in_a, in_b = xs[:-1], xs[1:], good[:-1], good[1:]
        cross = in_a != in_b
        inside = np.where(in_a, a, b)[cross]
        edge = _bisect(member, inside, np.where(in_a, b, a)[cross], 40)
        halves.append(float(np.sum((b - a)[in_a & in_b]) + np.sum(np.abs(edge - inside))))
    return TwoSidedReport(halves[0], halves[1], halves[0] > 0.0 and halves[1] > 0.0)


def random_disk_polynomial(rng: np.random.Generator, n: int) -> DiskPolynomial:
    """Zeros uniform in the disk (area measure), unit leading coefficient."""
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    zeros = tuple(complex(a, b) for a, b in zip(r * np.cos(phi), r * np.sin(phi)))
    return DiskPolynomial(zeros)
