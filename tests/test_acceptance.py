"""Acceptance suite: nine end-to-end criteria, one test and one printed
pass/fail line each.

Every expected value is either a closed form evaluated independently
(criteria 1-3), a proven inequality checked on seeded random inputs
(criteria 4, 5, 8), or a bracketing/no-counterexample property of the
numerical engines (criteria 6, 7, 9).  Tolerances are pinned next to
each check.  Divergent integrals (poles on the real axis) satisfy a
lower bound by convention: +inf exceeds every finite floor.
"""

import math
import time

import numpy as np

from logderiv import (
    ENDPOINT,
    KernelParams,
    MeanSpec,
    Objective,
    PoleSet,
    ZeroAtEndpoint,
    area_integral,
    build_certificate,
    check_imbalance_bound,
    check_lp_lower_bound,
    check_quarter_bound,
    check_two_sided_positivity,
    common_segment,
    endpoint_ratio,
    endpoint_window,
    equally_spaced,
    guarantee_segment,
    intersect,
    kernel_lower_holds,
    kernel_small_windows,
    level_measure_constant,
    lp_mean,
    mean_lower_constant,
    optimize,
    poisson_kernel,
    poisson_threshold,
    random_disk_polynomial,
    sharp_level_constant,
    sharp_level_set,
    sharp_lp_mean,
    sharp_mean_constant,
    sharp_poles,
    study_csv,
    verify_certificate,
    window_concentration,
)
from logderiv.explorer import AREA

TWO_PI = 2.0 * math.pi


def conclude(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_exact_constants():
    ok = mean_lower_constant(1.0) == 1.0 / 192.0
    for n in range(1, 13):
        ok = ok and mean_lower_constant(2.0) * n == n / 800.0
    conclude(1, ok, "closed-form floor constants 1/192 and n/800, exact floats")


def test_criterion_2_extremal_family_oracle():
    worst = 0.0
    ok = True
    for n in (1, 2, 4, 8):
        for p in (0.5, 1.0, 2.0):
            direct = lp_mean(
                sharp_poles(n), MeanSpec(p=p, weighted=False, rel_tol=1e-8)
            ).value
            closed = sharp_lp_mean(n, p)
            worst = max(worst, abs(direct - closed) / closed)
            ok = ok and abs(direct - closed) <= 1e-6 * closed
            scale = n ** (p - 1.0)
            ok = ok and mean_lower_constant(p) * scale < direct
            ok = ok and direct <= sharp_mean_constant(p) * scale * (1.0 + 1e-12)
    conclude(2, ok, f"quadrature vs closed form, 12 cases, worst rel {worst:.2e}")


def test_criterion_3_level_set_exactness():
    worst = 0.0
    ok = True
    for n in range(1, 11):
        for delta in (0.1, 0.2, 0.3, 0.4):
            mu = sharp_level_set(n, delta).measure
            exact = 2.0 * (1.0 - (1.0 / delta - 1.0) ** (-1.0 / (2.0 * n)))
            worst = max(worst, abs(mu - exact))
            ok = ok and abs(mu - exact) <= 1e-10
            ok = ok and level_measure_constant(delta) / n <= mu
            ok = ok and mu < sharp_level_constant(delta) / n
    conclude(3, ok, f"40 closed-form measures, worst abs err {worst:.2e}")


def test_criterion_4_random_configuration_suite():
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    failures = 0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        poles = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        for p in (0.5, 1.0, 2.0):
            if not check_lp_lower_bound(poles, p, rel_tol=1e-6).ok:
                failures += 1
        for delta in (0.1, 0.25, 0.4):
            conc = window_concentration(poles, delta)
            if not conc["intersection"].measure >= level_measure_constant(delta) / n:
                failures += 1
        cert = build_certificate(poles, 0.25, 3)
        if not verify_certificate(poles, cert).ok:
            failures += 1
    elapsed = time.perf_counter() - start
    conclude(
        4,
        failures == 0 and elapsed < 300.0,
        f"200 random pole sets, {failures} failures, {elapsed:.1f} s",
    )


def test_criterion_5_kernel_property_suites():
    failures = 0
    rng = np.random.default_rng(555)
    for _ in range(10_000):
        rho = float(rng.uniform(0.01, 0.25))
        h = float(rng.uniform(1.0, 1.0 / (2.0 * rho)))
        params = KernelParams(rho=rho, h=h)
        v = math.acos(float(rng.uniform(poisson_threshold(params), 1.0)))
        lo, hi = guarantee_segment(params)
        if not kernel_lower_holds(v, params, float(rng.uniform(lo, hi))):
            failures += 1
    rng = np.random.default_rng(556)
    for _ in range(10_000):
        rho = float(rng.uniform(0.01, 0.25))
        h = float(rng.uniform(1.0, 1.0 / (2.0 * rho)))
        params = KernelParams(rho=rho, h=h)
        s = float(rng.uniform(1e-6, 4.0 * h / (3.0 * rho)))
        v = math.acos(float(rng.uniform(-1.0, 1.0)) * poisson_threshold(params))
        for a, b in kernel_small_windows(params, s):
            if not poisson_kernel(v, float(rng.uniform(a, b))) < s:
                failures += 1
    for rho in (0.05, 0.1, 0.25):
        lo, hi = common_segment(rho)
        if not hi - lo > 5.0 * rho / 4.0:
            failures += 1
        for h in np.linspace(1.0, 1.0 / (2.0 * rho), 64):
            a, b = guarantee_segment(KernelParams(rho=rho, h=float(h)))
            if not (a <= lo + 1e-14 and hi <= b + 1e-14):
                failures += 1
    conclude(5, failures == 0, f"2x10^4 kernel samples + segment grids, {failures} failures")


def test_criterion_6_equally_spaced_chain():
    rel_tol = 1e-6
    area_floor = math.pi / 18.0
    mean_floor = 1.0 / 192.0
    ok = True
    margins = []
    for n in range(1, 6):
        area = area_integral(equally_spaced(n), rel_tol=rel_tol).value
        ok = ok and area - area_floor > 10.0 * rel_tol * area_floor
        margins.append(area - area_floor)
        weighted = lp_mean(
            equally_spaced(n), MeanSpec(p=1.0, weighted=True, rel_tol=rel_tol)
        )
        # the pole at +1 makes these integrals infinite: bound trivially met
        if not weighted.divergent:
            ok = ok and weighted.value - mean_floor > 10.0 * rel_tol * mean_floor
    conclude(6, ok, f"area floors by margins {min(margins):.3f}..{max(margins):.3f}")


def test_criterion_7_endpoint_case_exercise():
    ok = True
    for n in (1, 2, 4, 8):
        poles = PoleSet((math.pi / 2.0,) * n)
        window = endpoint_window(n, 0.2)
        for m in (1, 2, 3):
            cert = build_certificate(poles, 0.2, m)
            ok = ok and cert.case_tag == ENDPOINT
            rep = verify_certificate(poles, cert)
            ok = ok and rep.ok and dict(rep.checks)["pointwise-level"]
            inside = intersect(cert.witness, window).measure
            ok = ok and inside >= cert.witness.measure - 1e-12
    conclude(7, ok, "12 all-poles-at-i certificates, endpoint case, witnesses in window")


def test_criterion_8_polynomial_norm_suite():
    rng = np.random.default_rng(246)
    failures = 0
    endpoint_checks = 0
    for _ in range(200):
        poly = random_disk_polynomial(rng, 1 + int(rng.integers(0, 8)))
        if not check_quarter_bound(poly).ok:
            failures += 1
        if not check_imbalance_bound(poly).ok:
            failures += 1
        for at in (1, -1):
            try:
                ratio = endpoint_ratio(poly, at)
            except ZeroAtEndpoint:
                continue
            endpoint_checks += 1
            if not ratio >= poly.n / 2.0 - 1e-9:
                failures += 1
        if not check_two_sided_positivity(poly, 0.4).ok:
            failures += 1
    conclude(
        8,
        failures == 0 and endpoint_checks >= 200,
        f"200 disk polynomials, {endpoint_checks} endpoint ratios, {failures} failures",
    )


def test_criterion_9_minimality_search_study():
    records = []
    ok = True
    for n in (2, 3, 4):
        rec = optimize(n, Objective(AREA), seeds=8, budget=800, seed=2026)
        records.append(rec)
        ok = ok and rec.gap >= -1e-4
        ok = ok and rec.bound_violations == 0
    table = study_csv(records)
    lines = table.splitlines()
    ok = ok and lines[0] == (
        "n,objective,best_value,reference_value,gap,seeds,evals,seconds"
    )
    ok = ok and len(lines) == 4
    print(table)
    worst = min(r.gap for r in records)
    conclude(9, ok, f"8-seed searches, worst gap {worst:.2e}, study table emitted")
