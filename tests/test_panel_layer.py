"""The vectorized panel layer against the scalar code it replaced.

The one-row ladder builder, the disk's rows in phi, the retired rows
and the chunked evaluation change only time and memory: cuts, panel
counts, function evaluation counts and values must be the same bits as
before.  The pole sums add each pole's term in order into one
accumulator, so they keep each term's bits but not numpy's order of
addition: they must stay within the recursive-summation bound
n eps sum_k |term_k| (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 4.2), plus one ulp, of the reference.  The scalar
ladder builder, the refinement loop without retired rows, the integrands
that summed a (panels, 15, n) array and the level function's per-pole
terms are kept below as the reference.  Whole integrals are checked
against their oracles and for the same bits on a rerun and under small
chunks.
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
    _ray_kernel,
)
from test_quadrature import elliptic_area

TWO_PI = 2.0 * math.pi


def frozen_graded_cuts(lo, hi, breaks, ladders):
    """The scalar ladder builder, verbatim."""
    pts = {lo, hi}
    for b in breaks:
        if lo < b < hi:
            pts.add(float(b))
    for c, w, mw, sides in ladders:
        if lo < c < hi:
            pts.add(float(c))
        for s in ((-1.0, 1.0) if sides == 0 else (float(sides),)):
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


def frozen_mean_values(pts, p, weighted, x):
    """The lp_mean integrand that summed a (panels, 15, n) array, verbatim."""
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.abs((1.0 / (x[..., None] - pts)).sum(axis=-1)) ** p
    if weighted:
        g = g * np.abs(x) ** p
    return (g,)


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
        ladders = [(c, min(v, 2.0), max(1e-10, v / 8.0), 0) for c, v in zip(u.real, y)]
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
    # the pole sum in order against numpy's pairwise sum of the same
    # terms, at p = 1: within n eps sum_k |x - z_k|^-1 plus one ulp
    rng = np.random.default_rng([27, n])
    thetas = case_thetas(rng, n, "uniform" if n % 2 else 1e-12)
    # poles on the real axis and within 1e-13 of it
    edge = (0.0, 1e-13, math.pi - 1e-13)
    thetas[: max(1, n // 8)] = [edge[k % 3] for k in range(max(1, n // 8))]
    pts = PoleSet(tuple(thetas)).points
    panels = 240 if n <= 256 else 40
    a, b = near_pole_panels(rng, rng.choice(np.cos(thetas), panels))
    _, x = _nodes(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.abs(1.0 / (x[..., None] - pts)).sum(axis=-1)
    (want,) = frozen_mean_values(pts, 1.0, False, x)
    assert_within(_mean_values(pts, 1.0, False, x), want,
                  n * EPS * scale + np.spacing(want))


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
        bound = n * EPS * np.abs(terms).sum(axis=1) + np.spacing(want)
    assert_within(eval_level_array(poles, x), want, bound)


def test_graded_panels_match_scalar_builder_on_seeded_ladders():
    # 300 one-row cases in the shapes lp_mean and the extremal kernel
    # build: two-sided ladders from width 2 down to 1/8 of the pole's
    # height, one-sided tail ladders, clustered and coincident centers.
    rng = np.random.default_rng(21)
    for case in range(300):
        n = int(rng.integers(1, 65))
        thetas = case_thetas(rng, n, (("uniform", 0.0, 1e-12, 1e-9, math.pi))[case % 5])
        lo, hi = -1.0, 1.0
        ladders = [
            (math.cos(t), 2.0, max(GRADE_MIN_WIDTH, abs(math.sin(t)) / 8.0), 0)
            for t in thetas
        ]
        if case % 3:
            w = float(rng.choice((GRADE_MIN_WIDTH, 1e-10, 1e-8)))
            hi, lo = 1.0 - w, -1.0 + w
            ladders += [(hi, 0.5, w / 2.0, -1), (lo, 0.5, w / 2.0, +1)]
        if case % 7 == 0:
            lo, hi = 0.0, math.pi
            ladders = [
                (s, g, max(1e-6, g * 2.0**-12), 0)
                for s, g in zip(np.mod(thetas, math.pi), rng.uniform(1e-3, 1.0, n))
            ]
        breaks = [0.0, *rng.uniform(lo, hi, case % 3)]
        cuts = frozen_graded_cuts(lo, hi, breaks, ladders)
        assert_panels_equal(_graded_panels(lo, hi, breaks, ladders), (cuts[:-1], cuts[1:]))


def test_graded_panels_single_row_edge_cases():
    # no ladders; a one-sided ladder whose center is outside (lo, hi)
    cuts = frozen_graded_cuts(0.0, 1.0, [0.5], [])
    assert_panels_equal(_graded_panels(0.0, 1.0, [0.5]), (cuts[:-1], cuts[1:]))
    w = 1e-8
    ladders = [(0.0, 0.5, 0.5 * w, +1)]
    cuts = frozen_graded_cuts(w, 1.0, [], ladders)
    assert_panels_equal(_graded_panels(w, 1.0, [], ladders), (cuts[:-1], cuts[1:]))


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


@pytest.mark.parametrize("kind", ["uniform", "equal", "kfold", 1e-13, 4e-16])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 33, 64])
def test_area_phi_rows_match_scalar_builder(monkeypatch, n, kind):
    # row k of piece k is cut where the boundary point z_k e^{i(2 phi +
    # pi)} is another pole
    rng = np.random.default_rng([28, n])
    poles = PoleSet(tuple(phi_thetas(rng, n, kind)))
    rows, a, b = phi_panels(monkeypatch, poles)
    assert np.array_equal(rows, np.sort(rows))
    thetas = np.array(poles.angles)
    for k in range(poles.n):
        breaks = 0.5 * np.mod(thetas - thetas[k], TWO_PI) - 0.5 * math.pi
        cuts = frozen_graded_cuts(-0.5 * math.pi, 0.5 * math.pi, breaks, [])
        assert_panels_equal((a[rows == k], b[rows == k]), (cuts[:-1], cuts[1:]))


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


@pytest.mark.parametrize("n", [11, 12, 16, 24])
def test_equally_spaced_area_converges(n):
    # the radial slices missed n = 11 and 12 on near-duplicate singular
    # angles, and 16 and 24 on their panel budget
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
