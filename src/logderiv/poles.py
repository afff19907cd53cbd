"""Pole configurations on the unit circle and their level function.

A configuration of n points z_k = exp(i*theta_k) on the unit circle
determines

    g(z) = sum_k 1/(z - z_k),

the logarithmic derivative of any polynomial whose zeros are the z_k.
On the segment [-1, 1] the central object is the level function

    F(x) = Re(x * g(x)) = sum_k (x^2 - a_k x) / (x^2 - 2 a_k x + 1),

with a_k = cos(theta_k).  Expanding each term shows the identity

    F(x) = (n - sum_k P(z_k; x)) / 2,

where P(v; x) = (1 - x^2) / (1 - 2 x Re(v) + x^2) is the Poisson kernel,
nonnegative on [-1, 1].  Real poles z_k = +1 or -1 reduce to x/(x -+ 1)
after cancelling a linear factor.

On [-1, 1], g is summed by one loop, _pole_sum, for the level function
F = x Re g and for the p-means in quadrature.py.  It forms x - z_k as
(x -+ 1) + (+-1 - z_k) from half angles (pole_terms), never from the
rounded point fl(cos theta) + i fl(sin theta), and sums Re g and Im g
in two float arrays: each term 1/(d - i s) is (d + i s) / (d^2 + s^2),
so no complex array is built and numpy's complex division, which took
most of the loop's time, is not called.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError, PoleHit

TWO_PI = 2.0 * math.pi

# Angles read from files are snapped to the real axis within this tolerance.
SNAP_TOL = 1e-14


def _normalize_angle(theta: float) -> float:
    if not math.isfinite(theta):
        raise DomainError(f"non-finite angle {theta}")
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t == TWO_PI:
        t = 0.0
    return t + 0.0  # clears the sign of -0.0


def json_numbers(value, what: str) -> list:
    """The floats of a JSON array of numbers; DomainError for anything
    else, such as a string of digits or a boolean (an int to Python)."""
    if not isinstance(value, list) or any(type(v) not in (int, float) for v in value):
        raise DomainError(f"{what}: expected an array of numbers, got {value!r}")
    return [float(v) for v in value]


@dataclass(frozen=True)
class PoleSet:
    """Multiset of unit-circle poles, stored as angles in [0, 2*pi).

    Angles are the source of truth; cartesian coordinates are derived on
    demand so that |z_k| = 1 holds exactly by construction.  Duplicates
    are allowed and count with multiplicity.
    """

    angles: Tuple[float, ...]

    def __post_init__(self):
        if len(self.angles) < 1:
            raise DomainError("a pole set needs at least one pole")
        norm = tuple(_normalize_angle(float(t)) for t in self.angles)
        object.__setattr__(self, "angles", norm)

    @property
    def n(self) -> int:
        return len(self.angles)

    @property
    def points(self) -> np.ndarray:
        """Pole locations as complex numbers."""
        th = np.asarray(self.angles)
        return np.cos(th) + 1j * np.sin(th)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "angles": list(self.angles)}, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "PoleSet":
        """Parse {"n": ..., "angles": [...]}, snapping near-real angles.

        Angles within SNAP_TOL of 0, pi or 2*pi are snapped onto the real
        axis so that files produced with limited precision still classify
        real poles deterministically.
        """
        try:
            doc = json.loads(text)
            raw = json_numbers(doc["angles"], "angles")
            (n,) = json_numbers([doc.get("n", len(raw))], "n")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed pole-set document: {exc}") from exc
        if n != len(raw):
            raise DomainError(f"declared n={n!r} but {len(raw)} angles given")
        snapped = []
        for t in raw:
            u = _normalize_angle(t)
            if min(u, TWO_PI - u) <= SNAP_TOL:
                u = 0.0
            elif abs(u - math.pi) <= SNAP_TOL:
                u = math.pi
            snapped.append(u)
        return PoleSet(tuple(snapped))


def eval_logderiv(poles: PoleSet, z: complex) -> complex:
    """g(z) = sum_k 1/(z - z_k).  Raises PoleHit when z is a pole."""
    zs = poles.points
    diffs = z - zs
    if np.any(diffs == 0):
        raise PoleHit(f"z={z} coincides with a pole")
    return complex(np.sum(1.0 / diffs))


def poisson_kernel(v_angle: float, x: float) -> float:
    """P(v; x) = (1 - x^2) / (1 - 2 x cos(v) + x^2) for x in [-1, 1].

    The denominator is |x - v|^2 for unit v, so P >= 0 throughout, with
    P(v; +-1) = 0 unless v = +-1 where the kernel is singular.
    """
    if not -1.0 <= x <= 1.0:
        raise DomainError(f"x={x} outside [-1, 1]")
    den = 1.0 - 2.0 * x * math.cos(v_angle) + x * x
    if den == 0.0:
        raise PoleHit(f"kernel singular at x={x}, v_angle={v_angle}")
    return (1.0 - x * x) / den


def pole_terms(poles: PoleSet) -> Iterator[tuple]:
    """Per-pole constants, in pole order: (side, offset, sin, s2).

    x - z_k is formed without cancellation as (x + side) + offset -
    i sin(theta): side -1 and offset 2 sin^2(theta/2) when cos(theta) >=
    0, side +1 and offset -2 cos^2(theta/2) otherwise, so that offset -
    i sin(theta) = -side - z_k; sin is sin(theta) and s2 its square.  A
    real pole (theta = 0 or pi) has offset, sin and s2 exactly 0.
    """
    for t in poles.angles:
        if t == 0.0 or t == math.pi:
            yield -1.0 if t == 0.0 else 1.0, 0.0, 0.0, 0.0
            continue
        s = math.sin(t)
        if math.cos(t) >= 0.0:
            yield -1.0, 2.0 * math.sin(0.5 * t) ** 2, s, s**2
        else:
            yield 1.0, -2.0 * math.cos(0.5 * t) ** 2, s, s**2


# A pole with s2 below _S2_MIN = 2^-1022 * 2^53 is summed in the scaled
# form 1/(x - z_k) = c / (c (x - z_k)) with c = _SCALE, a power of two, so
# that d^2 + s2 never leaves the normal range where its rounding is
# relative: |sin theta| < 1.4e-146.  |d| <= 2 there, so (c d)^2 is finite.
_S2_MIN = 2.0**-969
_SCALE = 2.0**500


def _pole_sum(terms, below: np.ndarray, above: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(Re g, Im g), g = sum_k 1/(x - z_k), from below = x - 1 and above = x + 1.

    terms are pole_terms' constants.  Each pole's x - z_k = d - i sin,
    with d = (x + side) + offset, takes the base at the pole's own end,
    which is exact wherever x is near that end (Sterbenz), so a pole
    within 1e-8 of +-1 keeps its offset 1 -+ cos(theta) that
    fl(cos(theta)) would round away.  Its term (d + i sin) / (d^2 + s2)
    is added, in order, into two float planes through two reused
    buffers, so memory is four float arrays the shape of x at any n and
    no complex division is made.  A real pole (sin = 0) adds 1/(x + side),
    which is +-inf at its own endpoint.
    """
    re, im = np.zeros_like(below), np.zeros_like(below)
    d, q = np.empty_like(below), np.empty_like(below)
    with np.errstate(divide="ignore", invalid="ignore"):
        for side, offset, sin, s2 in terms:
            base = below if side < 0.0 else above
            if sin == 0.0:
                re += np.divide(1.0, base, out=q)
                continue
            np.add(base, offset, out=d)
            c = 1.0 if s2 >= _S2_MIN else _SCALE
            if c != 1.0:
                d *= c
                s2 = (c * sin) ** 2
            np.multiply(d, d, out=q)
            q += s2
            np.divide(1.0, q, out=q)
            d *= q
            if c != 1.0:
                d *= c
            re += d
            q *= c * c * sin
            im += q
    return re, im


def eval_level_array(poles: PoleSet, xs: np.ndarray) -> np.ndarray:
    """F(x) = x Re g(x) over an array of abscissae in [-1, 1].

    g is _pole_sum's, in O(points) memory at any n, so a pole near the
    real axis keeps full relative accuracy and F(+-1) = n/2 for non-real
    poles at heights |sin(theta)| down to about 1e-154 (tested to 1e-150).
    Below that the half-angle offset 2 sin^2(theta/2) is subnormal or 0,
    and such a pole's term at its own end drifts from 1/2 (to 0 by height
    1e-200).  Raises DomainError unless every x satisfies |x| <= 1 (NaN
    fails too).  A real pole's own endpoint produces +-inf instead of
    raising, which is the convenient convention for membership sampling.
    """
    x = np.asarray(xs, dtype=float)
    if not np.all(np.abs(x) <= 1.0):
        raise DomainError("abscissae must lie in [-1, 1]")
    return (x * _pole_sum(pole_terms(poles), x - 1.0, x + 1.0)[0])[()]  # a scalar for a scalar x


@dataclass(frozen=True)
class RationalLevelFunction:
    """F written over a common denominator, coefficients ascending.

    Conjugate poles share one quadratic factor, so cos-equal poles are
    grouped (cluster tolerance 1e-14) and each real pole contributes a
    single linear factor x -+ 1 after cancellation.  Degrees stay <= 2n.
    """

    numerator: Tuple[float, ...]
    denominator: Tuple[float, ...]


def _grouped_cosines(angles: Sequence[float]) -> list:
    """Cluster cos(theta_k) of the non-real poles; gap tolerance 1e-14."""
    vals = sorted(math.cos(t) for t in angles if t != 0.0 and t != math.pi)
    groups = []
    for a in vals:
        if groups and a - groups[-1][-1] <= 1e-14:
            groups[-1].append(a)
        else:
            groups.append([a])
    return [(math.fsum(g) / len(g), len(g)) for g in groups]


def to_rational(poles: PoleSet) -> RationalLevelFunction:
    """Assemble F = N/D from the grouped per-pole factors.

    No caller in src/: level sets use branch and bound on F.  Kept for
    the benchmark, whose tracing hooks levelset.to_rational by name.
    """
    plus = sum(1 for t in poles.angles if t == 0.0)
    minus = sum(1 for t in poles.angles if t == math.pi)
    groups = _grouped_cosines(poles.angles)

    # (numerator factor, denominator factor, multiplicity) per group
    parts = []
    if plus:
        parts.append((np.array([0.0, 1.0]), np.array([-1.0, 1.0]), plus))
    if minus:
        parts.append((np.array([0.0, 1.0]), np.array([1.0, 1.0]), minus))
    for a, count in groups:
        parts.append((np.array([0.0, -a, 1.0]), np.array([1.0, -2.0 * a, 1.0]), count))

    den = np.array([1.0])
    for _, q, _ in parts:
        den = npoly.polymul(den, q)

    num = np.zeros(1)
    for i, (pnum, _, count) in enumerate(parts):
        term = pnum * count
        for j, (_, q, _) in enumerate(parts):
            if j != i:
                term = npoly.polymul(term, q)
        num = npoly.polyadd(num, term)

    return RationalLevelFunction(
        numerator=tuple(np.atleast_1d(num).tolist()),
        denominator=tuple(np.atleast_1d(den).tolist()),
    )


def poles_digest(poles: PoleSet) -> str:
    """Short stable hash of the configuration, for CSV rows."""
    import hashlib

    payload = ",".join(repr(t) for t in poles.angles).encode()
    return hashlib.sha256(payload).hexdigest()[:12]
