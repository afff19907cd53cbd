"""Finite unions of closed subintervals of [-1, 1]."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

from .errors import DomainError

Pair = Tuple[float, float]


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted, pairwise-disjoint closed intervals inside [-1, 1].

    Overlapping or touching inputs are merged at construction, so the
    invariant b_i < a_{i+1} holds afterwards.  The measure is cached.
    """

    intervals: Tuple[Pair, ...]
    _measure: float = field(init=False, repr=False, compare=False, default=0.0)

    def __post_init__(self):
        cleaned = []
        for a, b in self.intervals:
            a, b = float(a), float(b)
            if not (math.isfinite(a) and math.isfinite(b)):
                raise DomainError(f"non-finite endpoint in ({a}, {b})")
            if b < a:
                raise DomainError(f"reversed interval ({a}, {b})")
            if a < -1.0 - 1e-12 or b > 1.0 + 1e-12:
                raise DomainError(f"interval ({a}, {b}) escapes [-1, 1]")
            cleaned.append((max(a, -1.0), min(b, 1.0)))
        cleaned.sort()
        merged: list = []
        for a, b in cleaned:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        object.__setattr__(self, "intervals", tuple(merged))
        object.__setattr__(self, "_measure", math.fsum(b - a for a, b in merged))

    @property
    def measure(self) -> float:
        return self._measure

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains_point(self, x: float, tol: float = 0.0) -> bool:
        return any(a - tol <= x <= b + tol for a, b in self.intervals)

    def contains(self, other: "IntervalUnion", tol: float = 0.0) -> bool:
        """True when every interval of `other` sits inside one of ours."""
        return all(
            any(a - tol <= c and d <= b + tol for a, b in self.intervals)
            for c, d in other.intervals
        )

    @staticmethod
    def empty() -> "IntervalUnion":
        return IntervalUnion(())

    @staticmethod
    def whole() -> "IntervalUnion":
        return IntervalUnion(((-1.0, 1.0),))


def from_pairs(pairs: Iterable[Sequence[float]]) -> IntervalUnion:
    return IntervalUnion(tuple((float(a), float(b)) for a, b in pairs))


def intersect(u: IntervalUnion, v: IntervalUnion) -> IntervalUnion:
    """Pairwise intersection by a two-pointer sweep; exact endpoint arithmetic."""
    out = []
    i = j = 0
    a, b = u.intervals, v.intervals
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return IntervalUnion(tuple(out))
