"""Constructive witnesses for the level-set lower bound.

Everything here rides on one identity: with F(x) = Re(x g(x)) and the
Poisson kernel P(v; x) of each pole v,

    F(x) = (n - sum_k P(z_k; x)) / 2.

A heavy cluster of poles near an endpoint forces the kernel sum high
(F <= -delta n on a fixed interior segment of that side); a spread-out
configuration keeps the kernel sum low near the endpoints
(F > delta n on two endpoint bands).  The constructor classifies the
poles into threshold bands, picks the branch, and emits a certificate
whose witness anyone can re-audit, with no trust in the construction,
by the branch and bound that finds level sets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .bounds import level_measure_constant
from .errors import DomainError, PreconditionViolation
from .intervals import IntervalUnion
from .levelset import endpoint_window, level_members
from .poles import PoleSet, eval_level_array, poisson_kernel

SIDE_PLUS = "side-plus"
SIDE_MINUS = "side-minus"
ENDPOINT = "endpoint-bands"

_EDGE_TOL = 1e-14


@dataclass(frozen=True)
class KernelParams:
    """Kernel-bound parameters: rho in (0, 1/4], h in [1, 1/(2 rho)]."""

    rho: float
    h: float

    def __post_init__(self):
        if not 0.0 < self.rho <= 0.25:
            raise DomainError(f"rho must lie in (0, 1/4], got {self.rho}")
        cap = 1.0 / (2.0 * self.rho)
        # relative slack: h = (2 rho)^(-1) itself may round one ulp past cap
        if not 1.0 <= self.h <= cap * (1.0 + 1e-12):
            raise DomainError(f"h must lie in [1, {cap}], got {self.h}")


def poisson_threshold(params: KernelParams) -> float:
    """sqrt(1 + rho^2 - 2 rho / h): poles with |cos angle| at or above
    this have kernel >= h on the guarantee segment.  Increasing in h,
    from 1 - rho at h=1 to sqrt(1 - 3 rho^2) at h = 1/(2 rho)."""
    return math.sqrt(1.0 + params.rho**2 - 2.0 * params.rho / params.h)


def guarantee_segment(params: KernelParams) -> Tuple[float, float]:
    """[x_-, x_+] on which the kernel of any pole past the threshold
    stays >= h; x_pm = (h T(h) +- (1 - rho h)) / (h + 1)."""
    root = params.h * poisson_threshold(params)
    lo = (root - (1.0 - params.rho * params.h)) / (params.h + 1.0)
    hi = (root + (1.0 - params.rho * params.h)) / (params.h + 1.0)
    return lo, hi


def common_segment(rho: float) -> Tuple[float, float]:
    """[(sqrt(1-3 rho^2) - rho)/(1+2 rho), 1 - rho]: contained in every
    guarantee segment over h in [1, 1/(2 rho)]; length exceeds 5 rho/4."""
    if not 0.0 < rho <= 0.25:
        raise DomainError(f"rho must lie in (0, 1/4], got {rho}")
    lo = (math.sqrt(1.0 - 3.0 * rho**2) - rho) / (1.0 + 2.0 * rho)
    return lo, 1.0 - rho


def kernel_lower_holds(v_angle: float, params: KernelParams, x: float) -> bool:
    """Check poisson_kernel(v, x) >= h for a pole past the threshold and
    x inside the guarantee segment.  The contract is that this is always
    true under the preconditions; the return value exists to be audited."""
    if math.cos(v_angle) < poisson_threshold(params):
        raise PreconditionViolation(
            f"cos(v_angle)={math.cos(v_angle)} below threshold"
        )
    lo, hi = guarantee_segment(params)
    if not lo <= x <= hi:
        raise PreconditionViolation(f"x={x} outside guarantee segment [{lo}, {hi}]")
    return poisson_kernel(v_angle, x) >= params.h


def kernel_small_windows(
    params: KernelParams, s: float
) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """Endpoint windows of width 3 s rho/(4h) on which every pole below
    the threshold has kernel < s.  Requires 0 < s < 4h/(3 rho)."""
    if not 0.0 < s < 4.0 * params.h / (3.0 * params.rho):
        raise DomainError(
            f"s must lie in (0, {4.0 * params.h / (3.0 * params.rho)}), got {s}"
        )
    w = 3.0 * s * params.rho / (4.0 * params.h)
    return (-1.0, -1.0 + w), (1.0 - w, 1.0)


@dataclass(frozen=True)
class PolePartition:
    """Poles classified by |cos angle| against the threshold ladder.

    Band 0 holds poles at or above the top threshold; band j in 1..m
    holds thresholds[j] <= |cos| < thresholds[j-1]; band m+1 holds the
    rest.  Signed counts split each band by the sign of cos (exact zero
    counts separately; such poles can only sit in the last band).
    """

    n: int
    m: int
    delta: float
    rho: float
    band_scale: float
    h_table: Tuple[float, ...]
    thresholds: Tuple[float, ...]
    classes: Tuple[Tuple[int, ...], ...]
    signed_counts: Tuple[Tuple[int, int, int], ...]
    edge_notes: Tuple[str, ...]

    def alphas(self) -> List[Tuple[float, float, float]]:
        """(alpha_j, alpha_j_plus, alpha_j_minus) with the band count
        scaled by n^(-j/(m+1)), for j = 0..m."""
        out = []
        for j in range(self.m + 1):
            scale = self.n ** (j / (self.m + 1.0))
            plus, minus, _ = self.signed_counts[j]
            out.append(((plus + minus) / scale, plus / scale, minus / scale))
        return out


def classify_poles(poles: PoleSet, delta: float, m: int) -> PolePartition:
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    n = poles.n
    band_scale = 2.0 + 4.0 * delta
    rho = 1.0 / (2.0 * band_scale * n)
    h_table = tuple(band_scale * n ** (1.0 - j / (m + 1.0)) for j in range(m + 1))
    thresholds = tuple(
        poisson_threshold(KernelParams(rho=rho, h=h)) for h in h_table
    )
    classes: List[List[int]] = [[] for _ in range(m + 2)]
    counts = [[0, 0, 0] for _ in range(m + 2)]
    notes: List[str] = []
    for k, t in enumerate(poles.angles):
        a = math.cos(t)
        mag = abs(a)
        band = m + 1
        for j, thr in enumerate(thresholds):
            if mag >= thr:
                band = j
                break
        for j, thr in enumerate(thresholds):
            if abs(mag - thr) <= _EDGE_TOL:
                notes.append(f"pole {k}: |cos|={mag!r} within 1e-14 of band edge {j}")
        classes[band].append(k)
        if a > 0.0:
            counts[band][0] += 1
        elif a < 0.0:
            counts[band][1] += 1
        else:
            counts[band][2] += 1
    return PolePartition(
        n=n,
        m=m,
        delta=delta,
        rho=rho,
        band_scale=band_scale,
        h_table=h_table,
        thresholds=thresholds,
        classes=tuple(tuple(c) for c in classes),
        signed_counts=tuple(tuple(c) for c in counts),
        edge_notes=tuple(notes),
    )


@dataclass(frozen=True)
class Certificate:
    """Auditable witness: every x in `witness` satisfies |F(x)| >= guarantee
    (strictly, for the endpoint branch).  The tables record how the branch
    was chosen so the construction can be replayed."""

    case_tag: str
    n: int
    m: int
    delta: float
    rho: float
    band_scale: float
    h_table: Tuple[float, ...]
    alpha_table: Tuple[Tuple[float, float, float], ...]
    witness: IntervalUnion
    guarantee: float
    guaranteed_measure: float
    edge_notes: Tuple[str, ...] = ()

    def to_json(self) -> str:
        return json.dumps(
            {
                "case_tag": self.case_tag,
                "n": self.n,
                "m": self.m,
                "delta": self.delta,
                "rho": self.rho,
                "band_scale": self.band_scale,
                "h_table": list(self.h_table),
                "alpha_table": [list(row) for row in self.alpha_table],
                "witness": [list(iv) for iv in self.witness.intervals],
                "guarantee": self.guarantee,
                "guaranteed_measure": self.guaranteed_measure,
                "edge_notes": list(self.edge_notes),
            },
            indent=2,
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "Certificate":
        d = json.loads(text)
        return Certificate(
            case_tag=d["case_tag"],
            n=int(d["n"]),
            m=int(d["m"]),
            delta=float(d["delta"]),
            rho=float(d["rho"]),
            band_scale=float(d["band_scale"]),
            h_table=tuple(float(h) for h in d["h_table"]),
            alpha_table=tuple(tuple(float(v) for v in row) for row in d["alpha_table"]),
            witness=IntervalUnion(tuple((float(a), float(b)) for a, b in d["witness"])),
            guarantee=float(d["guarantee"]),
            guaranteed_measure=float(d["guaranteed_measure"]),
            edge_notes=tuple(d.get("edge_notes", ())),
        )


def build_certificate(poles: PoleSet, delta: float, m: int = 3) -> Certificate:
    """Produce a witness interval on which |F| >= delta * n.

    Heavy branch: if the scaled band counts sum to at least 1, one sign
    side carries at least half of that mass and the common segment on
    that side (where the kernel sum already exceeds (1 + 2 delta) n) is
    the witness.  Ties go to the plus side.  Otherwise the top band is
    empty and the kernel sum stays below (1 - 2 delta) n on two endpoint
    bands of half-width K(delta) / (2 n^(1 + 1/(m+1))).
    """
    part = classify_poles(poles, delta, m)
    n, rho = part.n, part.rho
    alphas = part.alphas()
    total = math.fsum(a for a, _, _ in alphas)
    if total >= 1.0:
        plus = math.fsum(ap for _, ap, _ in alphas)
        minus = math.fsum(am for _, _, am in alphas)
        side_plus = plus >= minus
        lo, hi = common_segment(rho)
        witness = IntervalUnion(((lo, hi),) if side_plus else ((-hi, -lo),))
        case_tag, measure = (SIDE_PLUS if side_plus else SIDE_MINUS), witness.measure
    else:
        cutoff = 1.0 - level_measure_constant(delta) / (2.0 * n ** (1.0 + 1.0 / (m + 1.0)))
        witness = IntervalUnion(((-1.0, -cutoff), (cutoff, 1.0)))
        case_tag, measure = ENDPOINT, level_measure_constant(delta) / n ** (1.0 + 1.0 / (m + 1.0))
    return Certificate(
        case_tag=case_tag,
        n=n,
        m=m,
        delta=delta,
        rho=rho,
        band_scale=part.band_scale,
        h_table=part.h_table,
        alpha_table=tuple(alphas),
        witness=witness,
        guarantee=delta * n,
        guaranteed_measure=measure,
        edge_notes=part.edge_notes,
    )


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    checks: Tuple[Tuple[str, bool], ...]
    first_failure: Optional[Tuple[float, float]] = None
    notes: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _first_gap(witness: IntervalUnion, proven: IntervalUnion) -> Tuple[float, float]:
    """The first part of the witness that proven, a subset of it, leaves out."""
    for lo, hi in witness.intervals:
        inner = [iv for iv in proven.intervals if lo <= iv[0] and iv[1] <= hi]
        if not inner:
            return lo, hi
        if inner != [(lo, hi)]:
            gaps = zip([lo] + [b for _, b in inner], [a for a, _ in inner] + [hi])
            return next(g for g in gaps if g[0] < g[1])


def verify_certificate(poles: PoleSet, cert: Certificate) -> VerificationReport:
    """Re-audit a certificate against the raw pole set.

    pointwise-level proves |F| > guarantee (endpoint branch) or |F| >=
    guarantee - 1e-9 (side branches) on the witness by level_members,
    level_set's branch and bound, up to its rounding margin; boxes
    narrower than 1e-12 are decided at their midpoints.  On a failure,
    first_failure is a point of the first unproven part of the witness,
    with |F| there.  Also checks witness containment in the endpoint
    window and the recorded-measure bookkeeping.  Returns a report that
    is truthy iff everything holds; raises BudgetExhausted as level_set.
    """
    checks: List[Tuple[str, bool]] = []
    notes: List[str] = []
    first_failure: Optional[Tuple[float, float]] = None

    n = poles.n
    ok_meta = (
        cert.n == n
        and abs(cert.guarantee - cert.delta * n) <= 1e-12 * max(1.0, cert.guarantee)
        and abs(cert.rho - 1.0 / (2.0 * cert.band_scale * n)) <= 1e-15
        and abs(cert.band_scale - (2.0 + 4.0 * cert.delta)) <= 1e-12
    )
    checks.append(("metadata-consistent", ok_meta))

    strict = cert.case_tag == ENDPOINT  # then |F| >= tau means |F| > guarantee
    tau = math.nextafter(cert.guarantee, math.inf) if strict else cert.guarantee - 1e-9
    if cert.witness.is_empty:
        notes.append("empty witness: pointwise check is vacuous")
    proven = level_members(poles, tau, cert.witness.intervals)
    ok_points = proven.contains(cert.witness)
    if not ok_points:
        x = 0.5 * sum(_first_gap(cert.witness, proven))
        val = float(abs(eval_level_array(poles, x)))
        first_failure = (x, val)
        notes.append(f"level check failed at x={x!r}: |F|={val!r} vs {cert.guarantee!r}")
    checks.append(("pointwise-level", ok_points))

    window = endpoint_window(n, cert.delta)
    ok_window = window.contains(cert.witness, tol=1e-12)
    checks.append(("witness-inside-endpoint-window", ok_window))

    if cert.case_tag in (SIDE_PLUS, SIDE_MINUS):
        ok_meas = (
            abs(cert.guaranteed_measure - cert.witness.measure) <= 1e-12
            and cert.guaranteed_measure > 5.0 * cert.rho / 4.0
        )
    else:
        expected = level_measure_constant(cert.delta) / n ** (1.0 + 1.0 / (cert.m + 1.0))
        ok_meas = (
            abs(cert.guaranteed_measure - expected) <= 1e-12 * max(1.0, expected)
            and abs(cert.witness.measure - expected) <= 1e-9
        )
    checks.append(("measure-bookkeeping", ok_meas))

    ok = all(flag for _, flag in checks)
    return VerificationReport(
        ok=ok,
        checks=tuple(checks),
        first_failure=first_failure,
        notes=tuple(notes),
    )
