"""Oracle checks that share no code with the paths they check.

The level function is evaluated here in its Poisson form

    F(x) = (n - sum_k P(z_k; x)) / 2,  P(z; x) = (1 - x^2) / (1 - 2 x cos(theta) + x^2),

which the program never uses (it sums the per-pole rational terms, or
expands F over a common denominator).  Each check returns a Check whose
error is measured in the units its tolerance is stated in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

# Elements per evaluation block, so n = 10^4 poles stays in a few MiB.
_BLOCK = 1 << 20

# Dense-sampling grid for level-set measures: cell midpoints on [-1, 1].
LEVEL_CELLS = 100_000
WITNESS_POINTS = 20_001


@dataclass(frozen=True)
class Check:
    kind: str
    item: str
    ok: bool
    error: float
    tolerance: float


def level_function(angles: Sequence[float], xs: np.ndarray) -> np.ndarray:
    """F at every x in xs, for poles off the real axis."""
    c = np.cos(np.asarray(angles, dtype=float))
    xs = np.asarray(xs, dtype=float)
    out = np.empty_like(xs)
    step = max(1, _BLOCK // len(c))
    for s in range(0, len(xs), step):
        x = xs[s : s + step, None]
        kernel = (1.0 - x * x) / (1.0 - 2.0 * x * c + x * x)
        out[s : s + step] = 0.5 * (len(c) - kernel.sum(axis=1))
    return out


def level_grid(angles: Sequence[float]) -> np.ndarray:
    """|F| at the midpoints of LEVEL_CELLS equal cells of [-1, 1]."""
    h = 2.0 / LEVEL_CELLS
    return np.abs(level_function(angles, -1.0 + h * (np.arange(LEVEL_CELLS) + 0.5)))


def level_measure(item: str, grid: np.ndarray, n: int, delta: float, reported: Dict) -> Check:
    """Reported measure of {|F| >= delta n} against dense sampling, with
    grid = level_grid(angles) for the n poles.

    Each cell of width h is classified by its midpoint, so every boundary
    point of the set costs at most h; the tolerance is h times the number
    of boundaries (the larger of the sampled and the reported count, plus
    the two ends of [-1, 1]).
    """
    h = 2.0 / LEVEL_CELLS
    member = grid >= delta * n
    sampled = h * float(np.count_nonzero(member))
    changes = int(np.count_nonzero(member[1:] != member[:-1]))
    tol = h * (max(changes, 2 * len(reported["intervals"])) + 2)
    err = abs(float(reported["measure"]) - sampled)
    return Check("level-set-measure", item, err <= tol, err, tol)


def witness(item: str, angles: Sequence[float], intervals, guarantee: float) -> Check:
    """Shortfall of min |F| below the guarantee on the witness intervals,
    relative to the guarantee; 1e-9 covers rounding in either evaluator."""
    low = math.inf
    for a, b in intervals:
        xs = np.linspace(float(a), float(b), WITNESS_POINTS)
        low = min(low, float(np.min(np.abs(level_function(angles, xs)))))
    err = max(0.0, (guarantee - low) / guarantee)
    return Check("witness-sampled", item, err <= 1e-9, err, 1e-9)


def sharp_cutoff(item: str, n: int, delta: float, reported: Dict) -> Check:
    """The extremal family's level set is [-1, -c] U [c, 1] with
    c = (1/delta - 1)^(-1/(2n)); error is the worst endpoint distance."""
    c = (1.0 / delta - 1.0) ** (-1.0 / (2 * n))
    got = reported["intervals"]
    if len(got) != 2:
        err = abs(float(reported["measure"]) - 2.0 * (1.0 - c))
        return Check("sharp-level-cutoff", item, False, err, 1e-9)
    want = ((-1.0, -c), (c, 1.0))
    err = max(abs(float(g) - w) for pair, wpair in zip(got, want) for g, w in zip(pair, wpair))
    return Check("sharp-level-cutoff", item, err <= 1e-9, err, 1e-9)


def relative(kind: str, item: str, value: float, reference: float, tol: float) -> Check:
    err = abs(value - reference) / abs(reference)
    return Check(kind, item, err <= tol, err, tol)


def summary(checks: List[Check]) -> Dict:
    """Counts and worst error per kind, plus the failing checks."""
    kinds: Dict[str, Dict] = {}
    for c in checks:
        row = kinds.setdefault(c.kind, {"checks": 0, "failures": 0, "worst_error": 0.0,
                                        "tolerance": c.tolerance})
        row["checks"] += 1
        row["failures"] += int(not c.ok)
        row["worst_error"] = max(row["worst_error"], c.error)
    return {
        "checks": len(checks),
        "failures": sum(1 for c in checks if not c.ok),
        "by_kind": kinds,
        "failing": [
            {"kind": c.kind, "item": c.item, "error": c.error, "tolerance": c.tolerance}
            for c in checks if not c.ok
        ],
    }
