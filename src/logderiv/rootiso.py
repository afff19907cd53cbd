"""Real-root isolation on [-1, 1] via Descartes' rule and bisection.

Coefficients are ascending.  The level sets use it for one job: their
primary cuts, the roots of N - tau*D and N + tau*D, of degree up to 2n.
A degree above 80, the size of the precomputed Pascal triangle, raises
RootIsolationFailure, so level sets of n >= 41 poles can raise.

Each interval is mapped onto [0, 1]; the sign variations of
(1+t)^d q(1/(1+t)) bound the root count on the open interval.  Zero
variations prune, one variation isolates, anything else splits at the
midpoint.  Isolated brackets are refined by sign bisection to width
1e-12 and polished with a single Newton step.  Clusters that stay
unresolved below the refinement width are reported by midpoint, which
is the right behaviour for tangencies of level curves.

The Taylor shifts p(x) -> p(x + a) are binomial matrix-vector products
with a precomputed Pascal triangle, so a subdivision node costs two
small matvecs instead of an O(d^2) scalar loop.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import RootIsolationFailure

REFINE_WIDTH = 1e-12
_ZERO_REL = 1e-13
_MAXD = 80
_MAX_NODES = 200_000

_I = np.arange(_MAXD + 1)
_COMB = np.zeros((_MAXD + 1, _MAXD + 1))
_COMB[:, 0] = 1.0
for _i in range(1, _MAXD + 1):
    _COMB[_i, 1 : _i + 1] = _COMB[_i - 1, : _i] + _COMB[_i - 1, 1 : _i + 1]
_POWDIFF = np.maximum(_I[:, None] - _I[None, :], 0)


def _shifted(c: np.ndarray, a: float) -> np.ndarray:
    """Coefficients of p(x + a)."""
    d = len(c) - 1
    if a == 0.0:
        return c.copy()
    m = _COMB[: d + 1, : d + 1] * np.power(a, _POWDIFF[: d + 1, : d + 1])
    return c @ m


def _variations(coeffs: np.ndarray) -> int:
    m = np.max(np.abs(coeffs))
    if m == 0.0 or not math.isfinite(m):
        return -1
    kept = coeffs[np.abs(coeffs) > _ZERO_REL * m]
    signs = np.sign(kept)
    return int(np.count_nonzero(signs[:-1] != signs[1:]))


def _descartes_bound(c: np.ndarray, a: float, b: float) -> int:
    """Upper bound for the roots of p in the open interval (a, b)."""
    d = len(c) - 1
    q = _shifted(c, a) * (b - a) ** _I[: d + 1]
    r = _shifted(q[::-1], 1.0)
    return _variations(r)


def _polish(c: np.ndarray, dc: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One guarded Newton step per root estimate."""
    dp = npoly.polyval(x, dc)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = npoly.polyval(x, c) / dp
    ok = np.isfinite(step) & (np.abs(step) <= w)
    return np.where(ok, x - step, x)


def _refine_brackets(c: np.ndarray, dc: np.ndarray, brackets: List) -> List[float]:
    """Vectorized sign bisection of isolating brackets, then Newton."""
    if not brackets:
        return []
    a = np.array([u for u, _ in brackets])
    b = np.array([v for _, v in brackets])
    fa = npoly.polyval(a, c)
    fb = npoly.polyval(b, c)
    awkward = np.sign(fa) == np.sign(fb)
    out_direct: List[float] = []
    if np.any(awkward):
        # No endpoint sign change (near-tangency or endpoint root):
        # fall back to a scan inside each such bracket.
        for i in np.flatnonzero(awkward):
            grid = np.linspace(a[i], b[i], 65)
            vals = npoly.polyval(grid, c)
            hits = np.flatnonzero(vals == 0.0)
            if hits.size:
                out_direct.append(float(grid[hits[0]]))
                continue
            flips = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
            if flips.size:
                a[i], b[i] = grid[flips[0]], grid[flips[0] + 1]
                fa[i] = vals[flips[0]]
            else:
                out_direct.append(float(grid[int(np.argmin(np.abs(vals)))]))
                a[i] = b[i] = math.nan
    live = ~np.isnan(a)
    a, b, fa = a[live], b[live], fa[live]
    while a.size and np.max(b - a) > REFINE_WIDTH:
        m = 0.5 * (a + b)
        fm = npoly.polyval(m, c)
        left = np.sign(fm) == np.sign(fa)
        exact = fm == 0.0
        a = np.where(left & ~exact, m, a)
        fa = np.where(left & ~exact, fm, fa)
        b = np.where(~left & ~exact, m, b)
        a = np.where(exact, m, a)
        b = np.where(exact, m, b)
    mid = 0.5 * (a + b)
    polished = _polish(c, dc, mid, np.maximum(b - a, REFINE_WIDTH))
    return out_direct + polished.tolist()


def isolate_roots(coeffs) -> List[float]:
    """All real roots of the polynomial in [-1, 1], sorted ascending.

    Raises RootIsolationFailure for a (numerically) zero polynomial, a
    degree beyond the precomputed Pascal table, or when the subdivision
    budget runs out without separating the roots.
    """
    c = np.asarray(coeffs, dtype=float)
    nz = np.flatnonzero(c != 0.0)
    if nz.size == 0:
        raise RootIsolationFailure("zero polynomial has no isolated roots")
    c = c[: nz[-1] + 1]
    if len(c) == 1:
        return []
    if len(c) - 1 > _MAXD:
        raise RootIsolationFailure(f"degree {len(c) - 1} exceeds table bound {_MAXD}")
    dc = npoly.polyder(c)

    roots: List[float] = []
    for x in (-1.0, 1.0):
        if npoly.polyval(x, c) == 0.0:
            roots.append(x)

    brackets: List = []
    stack = [(-1.0, 1.0)]
    nodes = 0
    while stack:
        a, b = stack.pop()
        nodes += 1
        if nodes > _MAX_NODES:
            raise RootIsolationFailure(f"subdivision budget {_MAX_NODES} exhausted")
        v = _descartes_bound(c, a, b)
        if v == -1:
            raise RootIsolationFailure(
                f"coefficients vanished while transforming [{a}, {b}]"
            )
        if v == 0:
            continue
        if v == 1:
            brackets.append((a, b))
            continue
        if b - a <= REFINE_WIDTH:
            roots.append(0.5 * (a + b))  # unresolved cluster, width-bounded
            continue
        m = 0.5 * (a + b)
        if npoly.polyval(m, c) == 0.0:
            roots.append(m)
        stack.append((m, b))
        stack.append((a, m))

    roots.extend(_refine_brackets(c, dc, brackets))
    roots.sort()
    out: List[float] = []
    for r in roots:
        r = min(max(r, -1.0), 1.0)
        if not out or r - out[-1] > 1e-14:
            out.append(r)
    return out
