"""Real roots on [-1, 1] as companion-matrix eigenvalues.

Coefficients are ascending.  Nothing in src/ calls isolate_roots: the
level sets use branch and bound on F (levelset.py), and the function is
kept only because bench/tracing.py hooks levelset.isolate_roots by name.
The eigenvalues of the companion matrix are the roots of a polynomial
whose coefficients are near the given ones (Edelman and Murakami, Math.
Comp. 64, 1995), so a simple real root lands near its crossing and a
double root splits into a real pair or a conjugate pair about sqrt(eps)
away.  Eigenvalues within 1e-6 of the real axis count as real.

A degree above 80 raises RootIsolationFailure.  Near it the monomial
coefficients of the level function's N -+ tau*D carry no correct
digit: against the exact product of the same float factors, the worst
error of 5 seeded sets per n, relative to the largest coefficient, is
1e-9 at n = 20, 4e-6 at n = 30 and 2.8 at n = 40.  Past the cap the
roots would be noise, while one eigen-solve takes ~0.6 s at degree 512
(n = 256) against ~7 ms at degree 80.
"""

from __future__ import annotations

from typing import List

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import RootIsolationFailure

_MAXD = 80


def isolate_roots(coeffs) -> List[float]:
    """All real roots of the polynomial in [-1, 1], sorted ascending.

    No caller in src/; kept for the benchmark's tracing hook.  Raises
    RootIsolationFailure for a zero or non-finite polynomial and for a
    degree above 80.
    """
    c = np.asarray(coeffs, dtype=float)
    nz = np.flatnonzero(c != 0.0)
    if nz.size == 0 or not np.all(np.isfinite(c)):
        raise RootIsolationFailure("zero or non-finite polynomial has no isolated roots")
    c = c[: nz[-1] + 1]
    if len(c) - 1 > _MAXD:
        raise RootIsolationFailure(f"degree {len(c) - 1} exceeds the bound {_MAXD}")
    z = npoly.polyroots(c)
    return np.unique(z.real[(np.abs(z.imag) <= 1e-6) & (np.abs(z.real) <= 1.0)]).tolist()
