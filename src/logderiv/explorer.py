"""Search over pole configurations on the unit circle.

The open question being probed: do equally spaced poles minimize the
disk integral of |g|?  The optimizer is multistart Nelder-Mead over the
angle torus (quadrature noise makes finite-difference gradients
unreliable at tight tolerances).  The disk objective is rotation
invariant, so the first angle is gauged to 0 there; interval objectives
are not, but conjugation symmetry is quotiented when reporting angles.
Search runs at a loosened quadrature tolerance, where an unconverged
value still steers the search; the incumbent and the equally spaced
reference are re-evaluated at 1e-9 before reporting, and a value that
misses 1e-9 raises instead of being reported.  All outcomes are
evidence tables, never verdicts.

scipy is imported inside ``optimize``, its only user, so that importing
the package or running any other CLI command loads no scipy module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bounds import AREA_LOWER_BOUND, mean_lower_bound
from .errors import BudgetExhausted, DomainError, ToleranceNotMet
from .extremal import sharp_lp_mean, sharp_mean_constant
from .poles import PoleSet
from .quadrature import MeanSpec, area_integral, lp_mean

AREA = "area-integral"
MEAN = "lp-mean"
WEIGHTED_MEAN = "weighted-lp-mean"
_KINDS = (AREA, MEAN, WEIGHTED_MEAN)

FINAL_TOL = 1e-9
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Objective:
    kind: str
    p: Optional[float] = None
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown objective kind {self.kind!r}")
        if self.kind == AREA:
            if self.p is not None:
                raise DomainError("the area objective takes no p")
        elif self.p is None or not 0.0 < self.p < math.inf:
            raise DomainError(f"p must be positive and finite, got {self.p}")
        if not 0.0 < self.tolerance <= 1e-2:
            raise DomainError(f"tolerance must lie in (0, 1e-2], got {self.tolerance}")

    def label(self) -> str:
        return self.kind if self.kind == AREA else f"{self.kind}(p={self.p})"


@dataclass(frozen=True)
class StudyRecord:
    n: int
    objective: str
    best_value: float
    best_angles: Tuple[float, ...]
    reference_value: float
    gap: float
    seeds: int
    evaluations: int
    wall_time: float
    bound_violations: int = 0


def equally_spaced(n: int) -> PoleSet:
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    # 2 pi k / n can land an ulp off the real axis; 0 and pi are exact
    return PoleSet(tuple(0.0 if k == n else math.pi if 2 * k == n else TWO_PI * k / n
                         for k in range(1, n + 1)))


def canonical_angles(angles: Sequence[float]) -> Tuple[float, ...]:
    """Sorted angles, quotiented by the conjugation symmetry t -> -t."""
    direct = tuple(sorted(PoleSet(tuple(angles)).angles))
    mirrored = tuple(sorted(PoleSet(tuple(-a for a in angles)).angles))
    return min(direct, mirrored)


def _objective_floor(obj: Objective, n: int) -> float:
    if obj.kind == AREA:
        return AREA_LOWER_BOUND
    return mean_lower_bound(obj.p, n)


def _evaluate(obj: Objective, angles: Sequence[float], rel_tol: float) -> float:
    """The objective at rel_tol; raises ToleranceNotMet if it is missed."""
    poles = PoleSet(tuple(angles))
    if obj.kind == AREA:
        return area_integral(poles, rel_tol=rel_tol).value
    spec = MeanSpec(p=obj.p, weighted=(obj.kind == WEIGHTED_MEAN), rel_tol=rel_tol)
    result = lp_mean(poles, spec)
    return math.inf if result.divergent else result.value


def optimize(
    n: int,
    obj: Objective,
    seeds: int = 8,
    budget: int = 2000,
    seed: int = 0,
    gauge_angle: float = 0.0,
) -> StudyRecord:
    """Multistart local search; returns the best configuration found.

    Seed 0 starts at the equally spaced configuration, the rest at
    uniform random angles.  The same (seed, seeds, budget) always
    reproduces the same record, timing aside.  Every 100th evaluation is
    checked against the objective's proven floor; violations would be a
    research finding and are counted in the record.  For the area
    objective the first angle is pinned to gauge_angle; the reported
    minimum must not depend on that choice beyond search tolerance.
    The reported values are re-evaluated at FINAL_TOL, and one that
    misses it raises ToleranceNotMet whose record holds the search:
    its best value at the search tolerance, and NaN reference and gap.
    A search in which no evaluation gave a number raises ToleranceNotMet
    with no record.
    """
    if seeds < 1:
        raise DomainError(f"seeds must be >= 1, got {seeds}")
    if budget < 100:
        raise DomainError(f"budget must be >= 100 evaluations, got {budget}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    # before the clock starts, so wall_time does not include the import
    from scipy.optimize import minimize

    start = time.perf_counter()
    gauge = obj.kind == AREA
    dim = n - 1 if gauge else n
    floor = _objective_floor(obj, n)
    state = {"evals": 0, "violations": 0}
    best: List = [math.inf, None]  # value, angles; strict < keeps earliest seed on ties

    def full_angles(x: np.ndarray) -> Tuple[float, ...]:
        return (float(gauge_angle), *map(float, x)) if gauge else tuple(map(float, x))

    def fun(x: np.ndarray) -> float:
        state["evals"] += 1
        try:
            value = _evaluate(obj, full_angles(x), obj.tolerance)
        except ToleranceNotMet as exc:
            # An unconverged value is still a usable search signal.
            value = exc.result.value if exc.result is not None else math.inf
        if state["evals"] % 100 == 0 and math.isfinite(value):
            if value < floor * (1.0 - 1e-3):
                state["violations"] += 1
        if value < best[0]:
            best[0], best[1] = value, full_angles(x)
        return value

    def finish(exhausted: bool) -> StudyRecord:
        if best[1] is None:  # every value was NaN or inf
            raise ToleranceNotMet(f"no evaluation of the {obj.label()} objective gave a number")
        record = StudyRecord(
            n=n,
            objective=obj.label(),
            best_value=best[0],
            best_angles=canonical_angles(best[1]),
            reference_value=math.nan,
            gap=math.nan,
            seeds=seeds,
            evaluations=state["evals"],
            wall_time=time.perf_counter() - start,
            bound_violations=state["violations"],
        )
        try:
            final = _evaluate(obj, best[1], FINAL_TOL)
            reference = _evaluate(obj, equally_spaced(n).angles, FINAL_TOL)
        except ToleranceNotMet as exc:
            exc.record = record
            raise
        record = replace(
            record, best_value=final, reference_value=reference, gap=final - reference,
            wall_time=time.perf_counter() - start,
        )
        if exhausted:
            raise BudgetExhausted(
                f"budget {budget} cannot fund {seeds} starts in dimension {dim}",
                record=record,
            )
        return record

    # The last equally spaced angle is 0: under the gauge it is the
    # pinned angle, so the free angles are the rest, turned with the gauge.
    eq = equally_spaced(n).angles
    x_eq = np.array(eq[:-1]) + gauge_angle if gauge else np.array(eq)
    per_seed = budget // seeds
    if dim > 0 and per_seed < dim + 2:
        fun(x_eq)
        return finish(exhausted=True)
    for s in range(seeds):
        if dim == 0:
            fun(np.array([]))
            break
        if s == 0:
            x0 = x_eq
        else:
            rng = np.random.default_rng([seed, s, n])
            x0 = rng.uniform(0.0, TWO_PI, dim)
        minimize(
            fun,
            x0,
            method="Nelder-Mead",
            options={"maxfev": per_seed, "xatol": 1e-6, "fatol": 1e-8},
        )
    return finish(exhausted=False)


def sharpness_table(
    n_max: int, p: float, seed: int = 0, searches: int = 48
) -> List[dict]:
    """Rows bracketing the p-mean between the proven floor and the
    benchmark family's envelope, plus a random-search minimum."""
    if not 1 <= n_max <= 16:
        raise DomainError(f"n_max must lie in 1..16, got {n_max}")
    if not 0.0 < p < math.inf:
        raise DomainError(f"p must be positive and finite, got {p}")
    c_upper = sharp_mean_constant(p)
    rows = []
    for n in range(1, n_max + 1):
        rng = np.random.default_rng([seed, n])
        candidates = [equally_spaced(n).angles]
        candidates += [tuple(rng.uniform(0.0, TWO_PI, n)) for _ in range(searches)]
        searched = math.inf
        for angles in candidates:
            spec = MeanSpec(p=p, weighted=False, rel_tol=1e-6)
            result = lp_mean(PoleSet(angles), spec)
            if not result.divergent:
                searched = min(searched, result.value)
        rows.append(
            {
                "n": n,
                "lower_bound": mean_lower_bound(p, n),
                "family_value": sharp_lp_mean(n, p),
                "upper_bound": c_upper * n ** (p - 1.0),
                "searched_min": searched,
            }
        )
    return rows


def study_csv(records: Sequence[StudyRecord], timing: bool = False) -> str:
    """Fixed-column CSV; seconds is 0.0 unless timing is requested, so
    identical runs emit identical bytes."""
    lines = ["n,objective,best_value,reference_value,gap,seeds,evals,seconds"]
    for r in records:
        seconds = repr(r.wall_time) if timing else "0.0"
        lines.append(
            f"{r.n},{r.objective},{r.best_value!r},{r.reference_value!r},"
            f"{r.gap!r},{r.seeds},{r.evaluations},{seconds}"
        )
    return "\n".join(lines) + "\n"


def angles_sidecar(records: Sequence[StudyRecord]) -> List[dict]:
    return [
        {"n": r.n, "objective": r.objective, "best_angles": list(r.best_angles)}
        for r in records
    ]


def sharpness_csv(rows: Sequence[dict]) -> str:
    lines = ["n,lower_bound,family_value,upper_bound,searched_min"]
    for r in rows:
        lines.append(
            f"{r['n']},{r['lower_bound']!r},{r['family_value']!r},"
            f"{r['upper_bound']!r},{r['searched_min']!r}"
        )
    return "\n".join(lines) + "\n"
