"""The vectorized panel layer against the scalar code it replaced.

The one-row ladder builder, the disk's rows in phi, the retired rows
and the chunked evaluation change only time and memory: cuts, panel
counts, function evaluation counts and values must be the same bits as
before.  The pole sums add each pole's term in order into float
accumulators: they must stay within the recursive-summation bound
n eps sum_k |term_k| (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 4.2), plus one ulp, of the reference, which is
numpy's sum of a (panels, 15, n) array for the disk's rays and the
correctly rounded sum of frozen half-angle terms, by complex division,
for g and F on [-1, 1].  The scalar ladder builder, the refinement loop
without retired rows, the ray integrand, the per-pole terms of g and F
and the complex pole sum are kept below as the reference.  Whole
integrals are checked against their oracles and for the same bits on a
rerun and under small chunks.  The disk integral's symmetry orbits are
checked against a scalar orbit loop and against the per-piece integral
they replace: within 1e-14 on symmetric sets, the same bits on sets
without symmetry.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from logderiv import (
    MeanSpec, PoleSet, ToleranceNotMet, area_integral, eval_level_array, lp_mean,
)
from logderiv.explorer import equally_spaced
from logderiv.extremal import sharp_lp_mean, sharp_poles
from logderiv.poles import _pole_sum, pole_terms
from logderiv.quadrature import (
    _XGK,
    GRADE_MIN_WIDTH,
    _RAY_MAX_PANELS,
    QuadratureResult,
    _adaptive,
    _graded_panels,
    _kronrod,
    _mean_values,
    _nodes,
    _orbits,
    _ray_kernel,
)
from test_quadrature import elliptic_area

TWO_PI = 2.0 * math.pi


def frozen_graded_cuts(lo, hi, breaks, ladders):
    """The scalar ladder builder, verbatim but for the side column that
    one-sided ladders used to carry."""
    pts = {lo, hi}
    for b in breaks:
        if lo < b < hi:
            pts.add(float(b))
    for c, w, mw in ladders:
        if lo < c < hi:
            pts.add(float(c))
        for s in (-1.0, 1.0):
            d = float(w)
            while d > mw:
                q = c + s * d
                if lo < q < hi:
                    pts.add(q)
                d *= 0.5
    arr = np.array(sorted(pts))
    keep = np.concatenate(([True], np.diff(arr) > 4e-16))
    return arr[keep]


def frozen_refinement(eval_panels, tidx, pa, pb, m, rel_tol, panel_cap, max_rounds=200):
    """The multi-row refinement without retired rows, verbatim."""

    def eval_chunked(ti, a, b, chunk=8192):
        ks, es = [], []
        for s in range(0, len(a), chunk):
            k, e = eval_panels(ti[s : s + chunk], a[s : s + chunk], b[s : s + chunk])
            ks.append(k)
            es.append(e)
        return np.concatenate(ks), np.concatenate(es)

    pk, pe = eval_chunked(tidx, pa, pb)
    evals = 15 * len(pa)

    for _ in range(max_rounds):
        val = np.bincount(tidx, weights=pk, minlength=m)
        err = np.bincount(tidx, weights=pe, minlength=m)
        pending = err > rel_tol * np.abs(val)
        if not pending.any():
            return val, err, len(pa), evals
        if len(pa) > panel_cap:
            break
        emax = np.zeros(m)
        np.maximum.at(emax, tidx, pe)
        sel = pending[tidx] & (pe > 0.4 * emax[tidx]) & ((pb - pa) > 1e-15)
        if not sel.any():
            break
        mid = 0.5 * (pa[sel] + pb[sel])
        na = np.concatenate([pa[sel], mid])
        nb = np.concatenate([mid, pb[sel]])
        nt = np.concatenate([tidx[sel], tidx[sel]])
        nk, ne = eval_chunked(nt, na, nb)
        evals += 15 * len(na)
        keep = ~sel
        tidx = np.concatenate([tidx[keep], nt])
        pa = np.concatenate([pa[keep], na])
        pb = np.concatenate([pb[keep], nb])
        pk = np.concatenate([pk[keep], nk])
        pe = np.concatenate([pe[keep], ne])

    val = np.bincount(tidx, weights=pk, minlength=m)
    err = np.bincount(tidx, weights=pe, minlength=m)
    raise ToleranceNotMet(
        "rows failed to converge",
        result=QuadratureResult(float(val.sum()), float(err.sum()), False, len(pa), evals),
    )


def ray_kernel(z, piece, w):
    """_ray_kernel on poles z and ray directions w, split into planes."""
    dz = z[None, :] - z[:, None]
    return functools.partial(
        _ray_kernel, np.stack([dz.real, dz.imag]), piece, np.stack([w.real, w.imag])
    )


def frozen_ray_kernel(z, piece, w, rows, a, b):
    """_ray_kernel in complex arithmetic, with every pole on the last axis
    of one (panels, 15, n) array and both sums taken by ndarray.sum."""
    h, s = _nodes(a, b)
    d = (z[:, None] - z[None, :])[piece[rows]][:, None, :] - (s * w[rows][:, None])[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        phi = np.abs(inv.sum(axis=-1)) / np.abs(inv).astype(complex).sum(axis=-1).real
    return _kronrod(phi, h)


def frozen_pole_terms(angles, x):
    """The lp_mean pole sum's terms 1/(x - z_k), one column a pole: x - z_k
    = d - i sin theta with d = x - cos theta formed from the half angle,
    and 1/(x -+ 1) for a real pole."""
    t = np.asarray(angles)
    xx = x[..., None]
    d_plus = (xx - 1.0) + 2.0 * np.sin(0.5 * t) ** 2
    d_minus = (xx + 1.0) - 2.0 * np.cos(0.5 * t) ** 2
    d = np.where(np.cos(t) >= 0.0, d_plus, d_minus)
    real = (t == 0.0) | (t == math.pi)
    d = np.where(real, np.where(t == 0.0, xx - 1.0, xx + 1.0), d)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 / (d - 1j * np.where(real, 0.0, np.sin(t)))


def frozen_complex_pole_sum(terms, below, above):
    """The pole sum in complex arithmetic: each pole's 1/(x - z_k) by
    numpy's complex division, added in order, returned as (Re, Im)."""
    below, above = below.astype(complex), above.astype(complex)
    acc = np.zeros_like(below)
    t = np.empty_like(below)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for side, offset, sin, _ in terms:
            np.add(below if side < 0.0 else above, complex(offset, -sin), out=t)
            acc += np.divide(1.0, t, out=t)
    return acc.real, acc.imag


def frozen_level_terms(angles, x):
    """eval_level_array's per-pole terms, one column a pole: x d / (d^2 +
    sin^2 theta) with d = x - cos theta formed from the half angle, and
    x/(x -+ 1) for a real pole."""
    t = np.asarray(angles)
    d_plus = (x[..., None] - 1.0) + 2.0 * np.sin(0.5 * t) ** 2
    d_minus = (x[..., None] + 1.0) - 2.0 * np.cos(0.5 * t) ** 2
    d = np.where(np.cos(t) >= 0.0, d_plus, d_minus)
    xx = x[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        generic = xx * d / (d * d + np.sin(t) ** 2)
        real = np.where(t == 0.0, xx / (xx - 1.0), xx / (xx + 1.0))
    return np.where((t == 0.0) | (t == math.pi), real, generic)


def assert_panels_equal(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


def case_thetas(rng, n, kind):
    """Pole angles: uniform, or clustered around a few anchors with the
    given gap between neighbours in a cluster."""
    if kind == "uniform":
        return rng.uniform(0.0, TWO_PI, n)
    anchors = rng.uniform(0.0, TWO_PI, max(1, n // 4))
    k = np.arange(n)
    return np.mod(anchors[k % len(anchors)] + kind * (k // len(anchors)), TWO_PI)


def case_nodes(rng, thetas, m):
    """Angular nodes: half uniform in [0, pi], half within 1e-13 to
    1e-11 of a pole angle (mod pi)."""
    near = rng.choice(np.mod(thetas, math.pi), m - m // 2)
    offset = rng.uniform(1e-13, 1e-11, len(near)) * rng.choice((-1.0, 1.0), len(near))
    return np.concatenate([rng.uniform(0.0, math.pi, m // 2), near + offset])


def case_rays(rng, thetas, m):
    """m rays of the disk pieces: the piece index and the direction w of
    z = z_k - s w, half at uniform phi, half within 1e-13 to 1e-11 of a
    phi where the ray ends on another pole."""
    piece = rng.integers(0, len(thetas), m)
    other = thetas[rng.integers(0, len(thetas), m)]
    near = 0.5 * np.mod(other - thetas[piece], TWO_PI) - 0.5 * math.pi
    near += rng.uniform(1e-13, 1e-11, m) * rng.choice((-1.0, 1.0), m)
    phi = np.where(np.arange(m) < m // 2, rng.uniform(-0.5 * math.pi, 0.5 * math.pi, m), near)
    z = np.exp(1j * thetas)
    return z, piece, z[piece] * 2.0 * np.cos(phi) * np.exp(1j * phi)


RADIAL_CASES = [
    (seed, n, kind)
    for seed, (n, kind) in enumerate(
        (n, kind)
        for n in (1, 2, 3, 4, 5, 7, 8, 12, 16, 24, 32, 48, 64)
        for kind in ("uniform", 0.0, 1e-12, 1e-9, math.pi)
    )
]


@pytest.mark.parametrize("seed,n,kind", RADIAL_CASES)
def test_radial_panels_match_per_node_loop(seed, n, kind):
    # the ladders of the earlier radial slices, one row per node: two-
    # sided, toward each projection Re u at height |Im u|, with min
    # widths from 1e-10 up
    rng = np.random.default_rng([20, seed])
    thetas = case_thetas(rng, n, kind)
    ts = case_nodes(rng, thetas, 12)
    for u in np.exp(1j * (thetas[None, :] - ts[:, None])):
        y = np.abs(u.imag)
        ladders = [(c, min(v, 2.0), max(1e-10, v / 8.0)) for c, v in zip(u.real, y)]
        cuts = frozen_graded_cuts(-1.0, 1.0, [0.0], ladders)
        assert_panels_equal(_graded_panels(-1.0, 1.0, [0.0], ladders), (cuts[:-1], cuts[1:]))


def outcome(batch):
    try:
        val, err, panels, evals = batch()
    except ToleranceNotMet as exc:
        return repr(exc.result)
    return val.tolist(), err.tolist(), panels, evals


@pytest.mark.parametrize(
    "limits",
    [{}, {"rel_tol": 1e-4}, {"rel_tol": 1e-10}, {"panel_cap": 64}, {"panel_cap": 100},
     {"panel_cap": 160}],
)
@pytest.mark.parametrize("n", [1, 3, 5, 12])
def test_retired_slices_match_full_refinement(n, limits):
    # converged and capped batches of disk rays, in the s-rows on
    # [0, 1/2, 1] that area_integral builds: same sums, panel and
    # evaluation counts, and the same partial result on failure
    rng = np.random.default_rng([24, n])
    thetas = case_thetas(rng, n, "uniform" if n % 2 else 1e-9)
    kernel = ray_kernel(*case_rays(rng, thetas, 30))
    rows = np.repeat(np.arange(30), 2)
    a, b = np.tile([0.0, 0.5], 30), np.tile([0.5, 1.0], 30)
    rel_tol = limits.get("rel_tol", 1e-7)
    cap = limits.get("panel_cap", _RAY_MAX_PANELS)
    want = outcome(lambda: frozen_refinement(kernel, rows, a, b, 30, rel_tol, cap))
    assert outcome(lambda: _adaptive(kernel, rows, a, b, 30, rel_tol, cap)) == want


SLAB_NS = [1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64, 65, 128, 256, 1024]


def near_pole_panels(rng, centers):
    """One panel per center: the first half anywhere in [-1, 1], the
    rest with a Kronrod node within 1e-13 of their center."""
    count = len(centers)
    half = count // 2
    a = rng.uniform(-1.0, 1.0, half)
    b = np.minimum(a + 10.0 ** rng.uniform(-12.0, 0.0, half), 1.0)
    c = centers[half:] + rng.uniform(-1e-13, 1e-13, count - half)
    w = 10.0 ** rng.uniform(-13.0, -1.0, count - half)
    # the panel's node-th Kronrod node sits at c
    na = c - w * (1.0 + _XGK[rng.integers(0, 15, count - half)])
    return np.concatenate([a, na]), np.concatenate([b, na + 2.0 * w])


@pytest.mark.parametrize("n", SLAB_NS)
def test_radial_kernel_matches_frozen_kernel(n):
    # the kernel along the radial rays of each pole's polar coordinates;
    # half the rays within 1e-13 to 1e-11 of one that ends on a pole, and
    # half the panels with a node within 1e-13 of s = 0 or s = 1, so
    # nodes sit that close to a pole
    rng = np.random.default_rng([26, n])
    thetas = case_thetas(rng, n, "uniform" if n % 2 else 1e-9)
    z, piece, w = case_rays(rng, thetas, 6)
    panels = 240 if n <= 256 else 40
    rows = rng.integers(0, 6, panels)
    a, b = near_pole_panels(rng, rng.choice((0.0, 1.0), panels))
    got = ray_kernel(z, piece, w)(rows, a, b)
    want = frozen_ray_kernel(z, piece, w, rows, a, b)
    # Phi <= 1 and a panel's weights add up to 2h, so 1e-14 2h is a few
    # dozen ulps of each node value
    h = 0.5 * (b - a)
    for g, v in zip(got, want):
        assert np.array_equal(np.isnan(g), np.isnan(v))
        ok = ~np.isnan(v)
        assert (np.abs(g - v)[ok] <= 1e-14 * 2.0 * h[ok]).all()


def assert_within(got, want, bound):
    # the same NaNs and infinities, and finite values within bound
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    inf = np.isinf(want)
    assert np.array_equal(got[inf], want[inf])
    ok = np.isfinite(want)
    assert (np.abs(got[ok] - want[ok]) <= bound[ok]).all()


EPS = np.finfo(float).eps


@pytest.mark.parametrize("n", SLAB_NS)
def test_mean_values_match_frozen_integrand(n):
    # the pole sum in order against the correctly rounded sums of the real
    # and imaginary parts of the same terms, at p = 1: within
    # n eps sum_k |x - z_k|^-1 plus one ulp
    rng = np.random.default_rng([27, n])
    thetas = case_thetas(rng, n, "uniform" if n % 2 else 1e-12)
    # poles on the real axis and within 1e-13 of it
    edge = (0.0, 1e-13, math.pi - 1e-13)
    thetas[: max(1, n // 8)] = [edge[k % 3] for k in range(max(1, n // 8))]
    poles = PoleSet(tuple(thetas))
    panels = 240 if n <= 256 else 40
    a, b = near_pole_panels(rng, rng.choice(np.cos(thetas), panels))
    _, x = _nodes(a, b)
    terms = frozen_pole_terms(poles.angles, x)
    want = np.abs(np.array([complex(math.fsum(t.real), math.fsum(t.imag))
                            for t in terms.reshape(-1, n)])).reshape(x.shape)
    bound = n * EPS * np.abs(terms).sum(axis=-1) + np.abs(np.spacing(want))
    assert_within(_mean_values(list(pole_terms(poles)), 1.0, False, x), want, bound)


@pytest.mark.parametrize("n", [n for n in SLAB_NS if n <= 256])
def test_pole_sum_planes_match_complex_division(n):
    # Re g and Im g from the float planes against the correctly rounded
    # sums of the complex-division terms: within n eps sum_k |x - z_k|^-1
    # plus one ulp, at nodes within 1e-13 of a pole and at x = +-1, with
    # 1e-13 clusters, real poles and poles below height 1.4e-146, which
    # take the scaled branch
    rng = np.random.default_rng([31, n])
    thetas = case_thetas(rng, n, "uniform" if n % 2 else 1e-13)
    edge = (0.0, math.pi, 1e-150, 1e-200, 1e-13, math.pi - 1e-13)
    k = max(1, n // 8)
    thetas[:k] = [edge[j % len(edge)] for j in range(k)]
    poles = PoleSet(tuple(thetas))
    a, b = near_pole_panels(rng, rng.choice(np.cos(thetas), 120))
    x = np.concatenate([_nodes(a, b)[1].ravel(), [-1.0, 1.0]])
    terms = frozen_pole_terms(poles.angles, x)
    # a real pole's term is real, also the inf + nan i at its own endpoint
    imag = np.where(np.isin(poles.angles, (0.0, math.pi)), 0.0, terms.imag)
    got = _pole_sum(pole_terms(poles), x - 1.0, x + 1.0)
    with np.errstate(invalid="ignore"):
        size = n * EPS * np.abs(terms).sum(axis=1)
        for plane, part in zip(got, (terms.real, imag)):
            want = np.array([math.fsum(row) for row in part])
            assert_within(plane, want, size + np.abs(np.spacing(want)))


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
@pytest.mark.parametrize(
    "theta", [1e-100, 1e-155, 1e-160, 1e-200, 1e-300, math.pi - 1e-160]
)
def test_extreme_heights_match_complex_division(monkeypatch, theta, p, weighted):
    # lp_mean with the float-plane pole sum gives what it gives with numpy's
    # complex division: the same value within 1e-12, or ToleranceNotMet;
    # never a non-finite value as converged.  pi - 1e-160 rounds to pi.
    import logderiv.quadrature as quadrature

    poles = PoleSet((theta, 2.0))
    spec = MeanSpec(p=p, weighted=weighted)

    def outcome():
        try:
            r = lp_mean(poles, spec)
        except ToleranceNotMet:
            return None
        assert r.divergent or math.isfinite(r.value)
        return r

    with np.errstate(over="ignore"):
        got = outcome()
        monkeypatch.setattr(quadrature, "_pole_sum", frozen_complex_pole_sum)
        want = outcome()
    assert (got is None) == (want is None)
    if got is not None:
        assert got.divergent == want.divergent
        assert got.value == pytest.approx(want.value, rel=1e-12)
    ends = eval_level_array(poles, np.array([-1.0, 1.0]))
    assert np.isfinite(ends).all() or poles.angles[0] == math.pi


@pytest.mark.parametrize("n", SLAB_NS)
def test_level_array_matches_fsum_of_terms(n):
    # F summed pole by pole against the correctly rounded sum of the same
    # terms: within n eps sum_k |term_k| plus one ulp, at near-pole nodes
    # and with real poles, whose own endpoints stay +-inf
    rng = np.random.default_rng([29, n])
    thetas = case_thetas(rng, n, "uniform" if n % 2 else 1e-12)
    edge = (0.0, math.pi, 1e-7, math.pi - 1e-7)
    k = min(n, max(2, n // 8))
    thetas[:k] = [edge[j % 4] for j in range(k)]
    poles = PoleSet(tuple(thetas))
    near = rng.choice(np.cos(thetas), 120) + rng.uniform(-1e-13, 1e-13, 120)
    x = np.clip(np.concatenate([rng.uniform(-1.0, 1.0, 120), near, [-1.0, 1.0]]), -1.0, 1.0)
    terms = frozen_level_terms(poles.angles, x)
    want = np.array([math.fsum(row) for row in terms])
    assert want[-1] == math.inf and (n == 1 or want[-2] == -math.inf)
    with np.errstate(invalid="ignore"):
        bound = n * EPS * np.abs(terms).sum(axis=1) + np.abs(np.spacing(want))
    assert_within(eval_level_array(poles, x), want, bound)


def test_graded_panels_match_scalar_builder_on_seeded_ladders():
    # 300 one-row cases in the shapes lp_mean and the extremal kernel
    # build: two-sided ladders from width 2 down to 1/8 of the pole's
    # height, ladders centred on a real pole at +-1 down to its window
    # width W, with the core cut at the window edges, and clustered and
    # coincident centers.
    rng = np.random.default_rng(21)
    for case in range(300):
        n = int(rng.integers(1, 65))
        thetas = case_thetas(rng, n, (("uniform", 0.0, 1e-12, 1e-9, math.pi))[case % 5])
        lo, hi = -1.0, 1.0
        ladders = [
            (math.cos(t), 2.0, max(GRADE_MIN_WIDTH, abs(math.sin(t)) / 8.0))
            for t in thetas
        ]
        if case % 3:
            w = float(rng.choice((0.5, 0.3, 1e-3, 1e-8, GRADE_MIN_WIDTH)))
            hi, lo = 1.0 - w, -1.0 + w
            ladders += [(1.0, 2.0, 1.0 - hi), (-1.0, 2.0, 1.0 + lo)]
        if case % 7 == 0:
            lo, hi = 0.0, math.pi
            ladders = [
                (s, g, max(1e-6, g * 2.0**-12))
                for s, g in zip(np.mod(thetas, math.pi), rng.uniform(1e-3, 1.0, n))
            ]
        breaks = [0.0, *rng.uniform(lo, hi, case % 3)]
        cuts = frozen_graded_cuts(lo, hi, breaks, ladders)
        assert_panels_equal(_graded_panels(lo, hi, breaks, ladders), (cuts[:-1], cuts[1:]))


def test_graded_panels_single_row_edge_cases():
    # no ladders; ladders whose centers +-1 lie outside (lo, hi), whose
    # cuts above min width all fall outside it, or whose width is its
    # min width
    cuts = frozen_graded_cuts(0.0, 1.0, [0.5], [])
    assert_panels_equal(_graded_panels(0.0, 1.0, [0.5]), (cuts[:-1], cuts[1:]))
    for lo, hi, ladders in (
        (-0.5, 0.5, [(1.0, 2.0, 0.5), (-1.0, 2.0, 0.5)]),
        (-1.0, 1.0 - 1e-8, [(1.0, 2.0, 1e-8)]),
        (-0.25, 0.25, [(1.0, 0.5, 0.25)]),
        (-1.0, 1.0, [(0.3, 1e-3, 1e-3)]),
    ):
        cuts = frozen_graded_cuts(lo, hi, [0.0], ladders)
        assert_panels_equal(_graded_panels(lo, hi, [0.0], ladders), (cuts[:-1], cuts[1:]))


class Captured(Exception):
    pass


def phi_panels(monkeypatch, poles):
    """The panels (rows, a, b) that area_integral hands to its outer
    refinement in phi."""
    import logderiv.quadrature as quadrature

    def capture(kernel, rows, a, b, *limits):
        raise Captured(rows, a, b)

    monkeypatch.setattr(quadrature, "_adaptive", capture)
    with pytest.raises(Captured) as exc:
        area_integral(poles)
    return exc.value.args


def phi_thetas(rng, n, kind):
    if kind == "equal":
        return np.array(equally_spaced(n).angles)
    if kind == "kfold":
        return np.repeat(rng.uniform(0.0, TWO_PI, (n + 3) // 4), 4)[:n]
    return case_thetas(rng, n, kind)


def scalar_orbits(thetas):
    """The orbits of the disk pieces by a pairwise scalar loop: piece k
    joins the first representative whose sorted relative angles match
    k's own, or their mirror image, entry by entry within 8 ulp(2 pi)."""
    tol = 8.0 * math.ulp(TWO_PI)

    def rel(k, sign):
        return sorted((sign * (t - thetas[k])) % TWO_PI for t in thetas)

    reps, counts = [], []
    for k in range(len(thetas)):
        own = (rel(k, 1.0), rel(k, -1.0))
        for i, r in enumerate(reps):
            if any(all(abs(x - y) <= tol for x, y in zip(rel(r, 1.0), v)) for v in own):
                counts[i] += 1
                break
        else:
            reps.append(k)
            counts.append(1)
    return reps, counts


@pytest.mark.parametrize("kind", ["uniform", "equal", "kfold", 1e-13, 4e-16])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 33, 64])
def test_area_phi_rows_match_scalar_builder(monkeypatch, n, kind):
    # one row per orbit of pieces, for its first piece k, cut where the
    # boundary point z_k e^{i(2 phi + pi)} is another pole
    rng = np.random.default_rng([28, n])
    poles = PoleSet(tuple(phi_thetas(rng, n, kind)))
    thetas = np.array(poles.angles)
    reps, counts = scalar_orbits(list(poles.angles))
    got_reps, got_counts = _orbits(thetas)
    assert got_reps.tolist() == reps
    assert got_counts.tolist() == counts
    # every 2-pole set is mirror-symmetric, an equally spaced set is one
    # orbit, k-fold poles merge, and a random set has no symmetry
    want = {"equal": [0], "kfold": list(range(0, n, 4)), "uniform": list(range(n))}
    if n <= 2 or kind in want:
        assert reps == ([0] if n <= 2 else want[kind])
    rows, a, b = phi_panels(monkeypatch, poles)
    assert np.array_equal(rows, np.sort(rows))
    assert np.array_equal(np.unique(rows), np.arange(len(reps)))
    for r, k in enumerate(reps):
        breaks = 0.5 * np.mod(thetas - thetas[k], TWO_PI) - 0.5 * math.pi
        cuts = frozen_graded_cuts(-0.5 * math.pi, 0.5 * math.pi, breaks, [])
        assert_panels_equal((a[rows == r], b[rows == r]), (cuts[:-1], cuts[1:]))


def per_piece(monkeypatch):
    """Make area_integral integrate every piece: all orbits singletons."""
    import logderiv.quadrature as quadrature

    monkeypatch.setattr(quadrature, "_orbits", lambda t: (np.arange(len(t)), np.ones(len(t))))


def mirrored_thetas(rng, n):
    """n poles mirror-symmetric about a random axis c: pairs c -+ t, and
    a pole at c itself when n is odd."""
    t = rng.uniform(0.0, math.pi, n // 2)
    return np.mod(rng.uniform(0.0, TWO_PI) + np.r_[t, -t, [0.0] * (n % 2)], TWO_PI)


SYMMETRIC_SETS = [
    *((f"equal-{n}", lambda rng, n=n: equally_spaced(n).angles) for n in range(2, 25)),
    *((f"kfold-{n}", lambda rng, n=n: phi_thetas(rng, n, "kfold")) for n in (2, 5, 8, 12)),
    *((f"mirrored-{n}", lambda rng, n=n: mirrored_thetas(rng, n)) for n in (3, 4, 5, 8)),
    *((f"cluster-{gap}-{n}", lambda rng, n=n, gap=gap: case_thetas(rng, n, gap))
      for gap in (1e-13, 4e-16) for n in (3, 5, 8)),
]


@pytest.mark.parametrize("i", range(len(SYMMETRIC_SETS)), ids=[s[0] for s in SYMMETRIC_SETS])
def test_orbit_area_matches_per_piece_area(monkeypatch, i):
    # the pieces of an orbit get the same panel trees to rounding, so the
    # orbit's weighted piece is the sum of its pieces at any tolerance;
    # 1e-4 keeps the per-piece integrals quick
    name, make = SYMMETRIC_SETS[i]
    poles = PoleSet(tuple(make(np.random.default_rng([61, i]))))
    reps, _ = _orbits(np.array(poles.angles))
    if not name.startswith("cluster"):
        assert len(reps) < poles.n
    orbit = area_integral(poles, rel_tol=1e-4)
    per_piece(monkeypatch)
    full = area_integral(poles, rel_tol=1e-4)
    assert orbit.value == pytest.approx(full.value, rel=1e-14)
    assert orbit.panels <= full.panels
    assert orbit.function_evals <= full.function_evals


@pytest.mark.parametrize("n", [3, 5, 8])
def test_asymmetric_area_keeps_per_piece_bits(monkeypatch, n):
    poles = PoleSet(tuple(np.random.default_rng([62, n]).uniform(0.0, TWO_PI, n)))
    assert len(_orbits(np.array(poles.angles))[0]) == n
    orbit = area_integral(poles, rel_tol=1e-6)
    per_piece(monkeypatch)
    assert repr(orbit) == repr(area_integral(poles, rel_tol=1e-6))


def test_equally_spaced_sets_are_one_orbit():
    # the worst deviation of a sorted relative angle from the first
    # piece's here is 4 ulp(2 pi), half the tolerance
    for n in [*range(1, 65), 128, 256, 1024]:
        for base in (np.array(equally_spaced(n).angles), TWO_PI * np.arange(n) / n):
            for gauge in (0.0, 0.3, 1.0, 5.9):
                reps, counts = _orbits(np.mod(base + gauge, TWO_PI))
                assert reps.tolist() == [0] and counts.tolist() == [n], (n, gauge)


def test_area_partial_result_counts_every_piece(monkeypatch):
    # the one integrated row of equally_spaced(12) stands for 12 pieces,
    # and so does its part of the partial result
    import logderiv.quadrature as quadrature

    monkeypatch.setattr(quadrature, "_AREA_PANELS_PER_PIECE", 20)
    with pytest.raises(ToleranceNotMet) as exc:
        area_integral(equally_spaced(12), rel_tol=1e-10)
    partial = exc.value.result
    assert partial.panels > 20
    assert partial.value == pytest.approx(elliptic_area(12), rel=1e-3)


def test_chunked_evaluation_is_bit_identical(monkeypatch):
    import logderiv.quadrature as quadrature

    poles = PoleSet(tuple(np.random.default_rng(23).uniform(0.0, TWO_PI, 40)))
    spec = MeanSpec(p=1.5, weighted=True)
    whole = lp_mean(poles, spec)
    monkeypatch.setattr(quadrature, "_CHUNK_PANELS", 8)
    assert lp_mean(poles, spec) == whole


def same_bits_on_rerun_and_in_chunks(monkeypatch, integral):
    import logderiv.quadrature as quadrature

    first = integral()
    assert repr(integral()) == repr(first)
    monkeypatch.setattr(quadrature, "_CHUNK_PANELS", 8)
    assert repr(integral()) == repr(first)
    return first


def test_area_integral_n3_matches_elliptic_oracle(monkeypatch):
    r = same_bits_on_rerun_and_in_chunks(
        monkeypatch, lambda: area_integral(equally_spaced(3), rel_tol=1e-6)
    )
    # breaking each piece where its boundary meets a pole buys the
    # accuracy; the radial slices were 1.1e-7 off with 701,550 evaluations
    assert r.value == pytest.approx(elliptic_area(3), rel=1e-9)
    assert r.function_evals <= 701_550 // 5


@pytest.mark.parametrize("n", [11, 12, 16, 24, 32, 64])
def test_equally_spaced_area_converges(n):
    # the radial slices missed n = 11 and 12 on near-duplicate singular
    # angles, and 16 and 24 on their panel budget; n = 32 and 64 reach
    # the supported range as one orbit each
    r = area_integral(equally_spaced(n), rel_tol=1e-6)
    assert r.value == pytest.approx(elliptic_area(n), rel=1e-6)
    assert r.error_estimate <= 1e-6 * r.value


def test_lp_mean_sharp_256_matches_closed_form(monkeypatch):
    r = same_bits_on_rerun_and_in_chunks(
        monkeypatch, lambda: lp_mean(sharp_poles(256), MeanSpec(p=1.0))
    )
    assert r.value == pytest.approx(sharp_lp_mean(256, 1.0), rel=1e-12)


def test_lp_mean_memory_is_bounded_at_n256():
    tracemalloc.start()
    try:
        lp_mean(sharp_poles(256), MeanSpec(p=1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_lp_mean_runs_at_n1024():
    poles = PoleSet(tuple(np.random.default_rng(1024).uniform(0.0, TWO_PI, 1024)))
    r = lp_mean(poles, MeanSpec(p=1.0))
    assert not r.divergent
    assert math.isfinite(r.value) and r.value > 0.0
    assert r.error_estimate <= 1e-8 * r.value


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("kind", ["sharp", "random"])
def test_lp_mean_panels_grow_linearly(n, kind):
    # each pole's ladder has ~log2(16 / height) levels a side, and these
    # sets need no refinement past them
    if kind == "sharp":
        poles = sharp_poles(n)
    else:
        poles = PoleSet(tuple(np.random.default_rng([7, n]).uniform(0.0, TWO_PI, n)))
    assert lp_mean(poles, MeanSpec(p=1.0)).panels <= 16 * n


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_lp_mean_sharp_1024_matches_closed_form(p):
    r = lp_mean(sharp_poles(1024), MeanSpec(p=p))
    assert r.value == pytest.approx(sharp_lp_mean(1024, p), rel=1e-10)
