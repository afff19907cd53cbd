"""Adaptive panel quadrature for means of |g| on [-1, 1] and the disk.

One engine, _adaptive, refines every integral here: lp_mean, both
levels of the disk integral and the extremal closed forms.  Each panel
gets a 15-point Gauss-Kronrod pair: the Kronrod value is kept, |K - G|
is the panel error.  The engine refines rows of panels, one row per
integral.  Each round it retires the rows that meet rel_tol, which drop
their panels but still count them toward the panel budget, and bisects
the panels of the others whose error is above 0.4 times their row's
largest.  Row sums are bincounts in array order, so a fixed panel tree
always gives the same bits.

Singularities of |g| sit above the projections cos(theta_k) at height
h_k = |sin(theta_k)|.  lp_mean pre-splits toward each projection
geometrically, ratio 1/2 from width 2 down to h_k/8 (not below 1e-13),
so a narrow spike cannot slip between sample points and fake
convergence: below h_k/8 the 15-point rule resolves the spike, which is
analytic within distance h_k, and the levels above h_k grade its
shoulders.  That is ~log2(16/h_k) levels a side.

A real pole makes the x-integrals diverge for p >= 1; that is detected
structurally, never by overflow.  For p < 1 the endpoint singularity
|x -+ 1|^(-p) is integrable, and a change of variables removes it
exactly (Davis and Rabinowitz, Methods of Numerical Integration, 2nd
ed., 1984): on a window of width W at the endpoint e, 1 - e x = s = u^k
with k = 1/(1 - p) turns |g|^p dx into the bounded k |s g|^p du.  The
window is one more row of the engine, so one panel budget and one
tolerance cover it and the core.

The disk integral of |g| is split into one piece per pole by the
partition of unity |z - z_k|^-1 / sum_j |z - z_j|^-1, and each piece is
written in polar coordinates around its pole (Duffy, SIAM J. Numer.
Anal. 19, 1982; Bruno and Kunyansky, J. Comput. Phys. 169, 2001).  The
weight cancels the pole, so every piece integrates the same bounded
Phi = |g| / sum_j |z - z_j|^-1 in [0, 1], which has kinks but no
singularity.  The pieces are the rows in phi of one refinement; the
nodes of each batch of phi panels are a batch of rows in s along the
rays.  One pole gives exactly 4 and a k-fold pole 4k.  At rel_tol 1e-6
this is tested against the elliptic closed form at equally spaced
n = 1 to 4, 11, 12, 16 and 24, and against the earlier radial-slice
integral at random n <= 6; a random n = 16 converges.  A node costs
O(n) and there are n pieces: n = 64 takes about 80 s on a 2-core Xeon.

The panel layer is vectorized and bounded in memory:

- lp_mean and the extremal closed forms start from one row of panels
  with every ladder built at once: level j is w 2^-j, which is exact,
  so every cut is the float that repeated halving gives.  Only levels
  still above their min width are built.  The disk's rows in phi are
  the sorted rows of its break matrix.
- lp_mean's integrands sum g with poles._pole_sum, the level
  function's loop: each pole's term is added, in order, into two float
  accumulators, Re g and Im g, through two reused buffers, so no
  (panels, 15, n) array and no complex array is built.  Each term is a
  whole-array operation, where numpy's reduction over the short pole
  axis made one inner-loop call per node.  Added in order, the sum is
  within n eps sum_k |term_k| of the exact sum of the terms (recursive
  summation: Higham, Accuracy and Stability of Numerical Algorithms,
  2nd ed., 4.2).  Each term's x - z_k is formed
  from half angles as (x -+ 1) + (+-1 - z_k), so a pole within 1e-8 of
  +-1 keeps the offset 1 -+ cos(theta) that fl(cos(theta)) rounds away;
  the window's rows take x -+ 1 from s directly.
- The engine calls its kernel on chunks of _CHUNK_PANELS panels, so
  lp_mean runs in bounded memory (tested at n = 1024).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .bounds import mean_lower_bound
from .errors import DomainError, ToleranceNotMet
from .poles import PoleSet, _pole_sum, pole_terms, poles_digest

# 15-point Kronrod nodes/weights with the embedded 7-point Gauss rule
# (Gauss nodes are the odd-indexed entries).
_XGK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299786, 0.0229353220105292,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
])

GRADE_MIN_WIDTH = 1e-13

# The engine's kernel calls get at most _CHUNK_PANELS panels.  A pole sum
# holds its accumulators and term buffers at any n: four (15, panels)
# float slabs for lp_mean, two (3, 15, panels) for the rays.  1092 panels
# were at least as fast as a quarter, half or twice that, and as
# single-shot calls up to 8 times that, with the fewest page faults (on
# lp_means at n <= 20, 64 and 256 and the earlier radial kernel, when a
# sum held up to 5 + log2(n / 64) slabs).
_CHUNK_PANELS = 1092

# Panel budgets of area_integral: per piece in phi, and per batch of rays.
_AREA_PANELS_PER_PIECE = 1000
_RAY_MAX_PANELS = 400_000


@dataclass(frozen=True)
class MeanSpec:
    """What to integrate: p-th power mean, optionally weighted by |x|^p."""

    p: float
    weighted: bool = False
    rel_tol: float = 1e-8
    max_panels: int = 200_000

    def __post_init__(self):
        if not 0.0 < self.p < math.inf:
            raise DomainError(f"p must be positive and finite, got {self.p}")
        if not 0.0 < self.rel_tol <= 1e-2:
            raise DomainError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol}")
        if self.max_panels < 4:
            raise DomainError("max_panels must be at least 4")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    divergent: bool
    panels: int
    function_evals: int


def _graded_panels(
    lo: float, hi: float, breaks: Sequence[float], ladders=()
) -> Tuple[np.ndarray, np.ndarray]:
    """Panels (a, b) of one row, left to right, between cut points.

    The row is cut at lo, hi, the breaks inside (lo, hi), and one
    geometric ladder per (c, w, min_width) toward its center c: the
    points c -+ w 2^-j for every level j with w 2^-j above min_width.
    Cuts closer than 4e-16 to the previous one are dropped.
    """
    c, w, mw = np.array(ladders, dtype=float).reshape(-1, 3).T
    cuts = [np.array([lo, hi, *(b for b in breaks if lo < b < hi)]), c[(lo < c) & (c < hi)]]
    # Level j is w 2^-j: scaling by a power of two is exact, so each cut
    # is the float that repeated halving gives.  Only ladders with a
    # level above their min width are expanded, and only up to the
    # deepest such level.
    live = w > mw
    if live.any():
        c, w, mw = (v[live, None] for v in (c, w, mw))
        d = np.ldexp(w, -np.arange(int(np.ceil(np.log2((w / mw).max()))) + 2))
        for q in (c - d, c + d):
            cuts.append(q[(d > mw) & (lo < q) & (q < hi)])
    v = np.sort(np.concatenate(cuts))
    v = v[np.concatenate(([True], np.diff(v) > 4e-16))]
    return v[:-1], v[1:]


def _nodes(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    return h, c[:, None] + h[:, None] * _XGK


def _kronrod(y: np.ndarray, h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    k = h * (y * _WGK).sum(axis=1)
    g = h * (y[:, 1::2] * _WG).sum(axis=1)
    return k, np.abs(k - g)


def _adaptive(
    kernel: Callable,
    rows: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    m: int,
    rel_tol: float,
    max_panels: int,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """The adaptive Gauss-Kronrod engine over m rows of panels (rows, a, b).

    kernel(rows, a, b) returns each panel's Kronrod value and error, and
    is called on chunks of panels.  Returns each row's value and error,
    the panel count and the evaluation count.  Raises ToleranceNotMet,
    with the sums over all rows as its result, once max_panels is passed
    or no selected panel is wider than 1e-15.
    """
    def evaluate(r, a, b):
        # every panel's value depends on that panel alone, so chunking
        # changes no bit of the result
        if len(a) <= _CHUNK_PANELS:
            return kernel(r, a, b)
        parts = [kernel(*(v[i : i + _CHUNK_PANELS] for v in (r, a, b)))
                 for i in range(0, len(a), _CHUNK_PANELS)]
        return tuple(np.concatenate(col) for col in zip(*parts))

    k, e = evaluate(rows, a, b)
    evals = 15 * len(a)
    val = np.zeros(m)
    err = np.zeros(m)
    open_ = np.ones(m, dtype=bool)  # rows not yet retired
    retired = 0  # panels of retired rows
    while True:
        # bincount adds each row's panels in array order, and that order
        # survives retirement, so the sums are the same bits as over the
        # full panel set.
        val[open_] = np.bincount(rows, weights=k, minlength=m)[open_]
        err[open_] = np.bincount(rows, weights=e, minlength=m)[open_]
        # a NaN error keeps its row pending, and so does a value that is not
        # finite, whose infinite error would pass as inf <= rel_tol * inf
        pending = open_ & ~(np.isfinite(val) & (err <= rel_tol * np.abs(val)))
        if not pending.any():
            return val, err, retired + len(a), evals
        if retired + len(a) > max_panels:
            reason = f"panel budget {max_panels} reached"
            break
        if (open_ & ~pending).any():
            live = pending[rows]
            retired += len(a) - int(live.sum())
            rows, a, b, k, e = rows[live], a[live], b[live], k[live], e[live]
            open_ = pending
        emax = np.zeros(m)
        np.maximum.at(emax, rows, e)
        # Every domain lies inside [-4, 4], where a panel wider than
        # 1e-15 spans at least three floats and so has an interior
        # midpoint.
        sel = (e > 0.4 * emax[rows]) & ((b - a) > 1e-15)
        if not sel.any():
            reason = "no splittable panel left"
            break
        mid = 0.5 * (a[sel] + b[sel])
        na = np.concatenate([a[sel], mid])
        nb = np.concatenate([mid, b[sel]])
        nr = np.concatenate([rows[sel], rows[sel]])
        nk, ne = evaluate(nr, na, nb)
        evals += 15 * len(na)
        keep = ~sel
        rows = np.concatenate([rows[keep], nr])
        a = np.concatenate([a[keep], na])
        b = np.concatenate([b[keep], nb])
        k = np.concatenate([k[keep], nk])
        e = np.concatenate([e[keep], ne])

    target = rel_tol * float(np.abs(val[pending]).sum())
    raise ToleranceNotMet(
        f"{reason} with error {float(err[pending].sum()):.3e} > {target:.3e}",
        result=QuadratureResult(
            float(val.sum()), float(err.sum()), False, retired + len(a), evals
        ),
    )


def _integrate(parts, rel_tol: float, max_panels: int) -> QuadratureResult:
    """Sum over parts (f, a, b) of the integral of f over the panels (a, b).

    Each part is one row of _adaptive, so max_panels bounds the parts
    together, each meets rel_tol on its own, and ToleranceNotMet carries
    the sum of all of them.
    """
    fs, a, b = zip(*parts)

    def kernel(rows, a, b):
        h, x = _nodes(a, b)
        y = np.empty_like(x)
        for r, f in enumerate(fs):
            part = rows == r
            y[part] = f(x[part])
        return _kronrod(y, h)

    rows = np.repeat(np.arange(len(fs)), [len(v) for v in a])
    val, err, panels, evals = _adaptive(
        kernel, rows, np.concatenate(a), np.concatenate(b), len(fs), rel_tol, max_panels
    )
    return QuadratureResult(float(val.sum()), float(err.sum()), False, panels, evals)


def _mean_values(terms, p: float, weighted: bool, x: np.ndarray) -> np.ndarray:
    """The lp_mean integrand |g|^p, times |x|^p if weighted, at nodes x."""
    g = np.hypot(*_pole_sum(terms, x - 1.0, x + 1.0)) ** p
    if weighted:
        g = g * np.abs(x) ** p
    return g


def _window_values(
    rest, e: float, m: int, p: float, weighted: bool, u: np.ndarray
) -> np.ndarray:
    """The lp_mean integrand in u on the window at the real pole e, where
    1 - e x = s = u^k, k = 1/(1 - p): k |s g|^p with s g = s g_rest - e m
    for e's multiplicity m, and g_rest the sum over the other poles' terms
    rest.  x - 1 and x + 1 are -s and 2 - s at +1, s - 2 and s at -1, so
    x - z keeps its relative accuracy next to e."""
    k = 1.0 / (1.0 - p)
    s = u**k
    r = -e * s  # x - e
    re, im = _pole_sum(rest, r + (e - 1.0), r + (e + 1.0))
    v = k * np.hypot(s * re - e * m, s * im) ** p
    if weighted:
        v = v * (1.0 - s) ** p
    return v


def lp_mean(poles: PoleSet, spec: MeanSpec) -> QuadratureResult:
    """integral over [-1,1] of |g|^p, optionally weighted by |x|^p.

    The value is that of the poles as given, float angles included:
    sharp_poles(64) at p = 0.5 is 2.3e-7 above the closed form of the
    exact extremal poles at rel_tol 1e-8, because the float angles move
    the true mean 2.27e-7 above it; lp_mean is 6.4e-9 from that true
    mean, which is the rounding of the pole sum where |g| nearly
    vanishes, raised to the power p.
    A real pole e at p < 1 gets a window of width W = min(1/2, half the
    distance to the nearest other pole), integrated in u (_window_values).
    At very large p the mass can sit in a layer narrower than any node
    (the README set's weighted mean at p = 1e6); a core that underflows
    to 0 everywhere raises ToleranceNotMet instead of reporting 0.
    """
    p = spec.p
    angles = poles.angles
    terms = list(pole_terms(poles))
    ends = [(e, t) for e, t in ((1.0, 0.0), (-1.0, math.pi)) if t in angles]
    if ends and p >= 1.0:
        return QuadratureResult(math.inf, 0.0, True, 0, 0)

    # each off-axis pole's ladder: width 2 down to 1/8 of its height
    # (see the module docstring)
    ladders = [(math.cos(t), 2.0, max(GRADE_MIN_WIDTH, abs(math.sin(t)) / 8.0))
               for t in angles if t != 0.0 and t != math.pi]
    edge = {1.0: 1.0, -1.0: -1.0}
    windows = []
    for e, t in ends:
        rest = [term for th, term in zip(angles, terms) if th != t]
        # |e - z_k| = |(e + side) + offset - i sin|
        d = min((math.hypot((e + side) + offset, sin) for side, offset, sin, _ in rest),
                default=1.0)
        # W is not below eps / rel_tol, where the core's nodes next to e are
        # misplaced by more than rel_tol of their panel width; a pole nearer
        # than that lies in the window, where |s g| <= n since |x - z| >= s.
        w = min(0.5, max(0.5 * d, np.finfo(float).eps / spec.rel_tol))
        # the float edge fixes W exactly (1 - e edge is exact by
        # Sterbenz), so the core and the window meet at one float
        edge[e] = e * (1.0 - w)
        w = 1.0 - e * edge[e]
        ladders.append((e, 2.0, w))
        f = functools.partial(_window_values, rest, e, angles.count(t), p, spec.weighted)
        windows.append((f, *_graded_panels(0.0, w ** (1.0 - p), [])))

    core = functools.partial(_mean_values, terms, p, spec.weighted)
    parts = [(core, *_graded_panels(edge[-1.0], edge[1.0], [0.0], ladders)), *windows]
    result = _integrate(parts, spec.rel_tol, spec.max_panels)
    # the integrand is positive almost everywhere, so a zero value means it
    # underflowed at every node and the engine took 0 <= rel_tol * 0 as met
    if result.value == 0.0:
        raise ToleranceNotMet(
            f"the integrand at p = {p!r} underflowed to 0 at every node", result=result
        )
    return result


# ---------------------------------------------------------------------------
# Disk area integral by a per-pole partition of unity.


def _ray_kernel(dT: np.ndarray, piece: np.ndarray, w: np.ndarray, rows, a, b):
    """Kronrod value and error of Phi(z) = |sum_j 1/(z - z_j)| / sum_j
    |z - z_j|^-1 on panels (rows, a, b) in s of the rays z = z_k - s w[r],
    k = piece[r].  Complex values are split into real and imaginary
    planes: dT[:, j, k] holds z_k - z_j, and z - z_j = (z_k - z_j) - s w
    keeps its relative accuracy next to z_k.
    """
    h, s = _nodes(a, b)
    # node-major (15, panels) slabs, so that the pole's (1, panels) row
    # broadcasts along whole contiguous rows
    sw = s.T * w[:, None, rows]
    d = dT.take(piece[rows], axis=2)[:, :, None]
    # each pole's term goes into one reused buffer t: the conjugate of
    # 1/(z - z_j) in t[:2], its modulus in t[2]
    acc = np.zeros((3, 15, len(a)))
    t = np.empty_like(acc)
    xy, q = t[:2], t[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(dT.shape[1]):
            np.subtract(d[:, j], sw, out=xy)
            np.multiply(xy[0], xy[0], out=q)
            q += xy[1] * xy[1]
            np.divide(1.0, q, out=q)
            xy *= q
            np.sqrt(q, out=q)
            acc += t
    re, im, den = acc
    return _kronrod((np.hypot(re, im) / den).T, h)


def area_integral(poles: PoleSet, rel_tol: float = 1e-6) -> QuadratureResult:
    """integral of |g| over the unit disk, always finite.

    Around z_k the disk is rho < 2 cos(phi) in the polar coordinates
    z = z_k (1 - rho e^{i phi}), so with rho = 2 s cos(phi) piece k is
    the integral over phi in (-pi/2, pi/2) and s in (0, 1) of
    2 cos(phi) Phi(z) (see _ray_kernel).  Its row in phi is broken where
    the boundary point z_k e^{i(2 phi + pi)} is another pole, and its
    rays are rows in s on [0, 1/2, 1], integrated to rel_tol / 5.
    function_evals counts the evaluations of Phi.
    """
    thetas = np.asarray(poles.angles)
    z = poles.points
    n = len(z)
    dz = z[None, :] - z[:, None]
    dT = np.stack([dz.real, dz.imag])
    evals_total = 0

    def piece_kernel(rows, a, b):
        nonlocal evals_total
        h, phi = _nodes(a, b)
        cos2 = 2.0 * np.cos(phi)
        piece = np.repeat(rows, 15)
        w = z[piece] * (cos2 * np.exp(1j * phi)).ravel()
        m = len(w)
        vals, _, _, evals = _adaptive(
            functools.partial(_ray_kernel, dT, piece, np.stack([w.real, w.imag])),
            np.repeat(np.arange(m), 2), np.tile([0.0, 0.5], m), np.tile([0.5, 1.0], m),
            m, rel_tol / 5.0, _RAY_MAX_PANELS,
        )
        evals_total += evals
        return _kronrod(cos2 * vals.reshape(phi.shape), h)

    # Row k is cut where theta_j = theta_k + 2 phi + pi on the boundary:
    # its own pole at -pi/2, the others in [-pi/2, pi/2].
    breaks = 0.5 * np.mod(thetas[None, :] - thetas[:, None], 2.0 * math.pi) - 0.5 * math.pi
    cuts = np.sort(np.c_[breaks, np.full(n, 0.5 * math.pi)], axis=1)
    keep = np.c_[np.ones(n, dtype=bool), np.diff(cuts, axis=1) > 4e-16]
    v = cuts[keep]
    inner = v[:-1] < v[1:]  # false where the next row starts again at -pi/2
    rows, a, b = np.repeat(np.arange(n), keep.sum(axis=1) - 1), v[:-1][inner], v[1:][inner]
    val, err, panels, _ = _adaptive(
        piece_kernel, rows, a, b, n, rel_tol, _AREA_PANELS_PER_PIECE * n
    )
    return QuadratureResult(float(val.sum()), float(err.sum()), False, panels, evals_total)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanBoundReport:
    """Both p-means of a configuration against the closed-form floor."""

    p: float
    n: int
    unweighted: QuadratureResult
    weighted: QuadratureResult
    lower_bound: float
    ok_unweighted_ge_weighted: bool
    ok_weighted_ge_bound: bool

    @property
    def ok(self) -> bool:
        return self.ok_unweighted_ge_weighted and self.ok_weighted_ge_bound


def check_lp_lower_bound(poles: PoleSet, p: float, rel_tol: float = 1e-8) -> MeanBoundReport:
    """Evaluate unweighted >= weighted >= constant * n^(p-1).

    Divergent integrals count as satisfying their side of the chain.
    Comparisons carry a slack of 10 * rel_tol * bound.
    """
    u = lp_mean(poles, MeanSpec(p=p, weighted=False, rel_tol=rel_tol))
    w = lp_mean(poles, MeanSpec(p=p, weighted=True, rel_tol=rel_tol))
    bound = mean_lower_bound(p, poles.n)
    slack = 10.0 * rel_tol
    # lp_mean decides divergence from the poles and p alone, so u and w
    # diverge together.
    ok_uw = u.divergent or u.value >= w.value * (1.0 - slack)
    ok_wb = w.divergent or w.value > bound * (1.0 - slack)
    return MeanBoundReport(
        p=p,
        n=poles.n,
        unweighted=u,
        weighted=w,
        lower_bound=bound,
        ok_unweighted_ge_weighted=ok_uw,
        ok_weighted_ge_bound=ok_wb,
    )


def mean_csv_row(poles: PoleSet, spec: MeanSpec, result: QuadratureResult) -> str:
    """poles_hash, n, p, weighted, value, error, divergent, panels."""
    return ",".join([
        poles_digest(poles),
        str(poles.n),
        repr(spec.p),
        "1" if spec.weighted else "0",
        repr(result.value),
        repr(result.error_estimate),
        "1" if result.divergent else "0",
        str(result.panels),
    ])
