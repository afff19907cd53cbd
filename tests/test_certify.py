"""Kernel inequalities, pole partitioning, and witness certificates."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from logderiv import (
    Certificate,
    DomainError,
    ENDPOINT,
    IntervalUnion,
    KernelParams,
    PoleSet,
    PreconditionViolation,
    SIDE_MINUS,
    SIDE_PLUS,
    build_certificate,
    classify_poles,
    common_segment,
    eval_level_array,
    from_pairs,
    guarantee_segment,
    kernel_lower_holds,
    kernel_small_windows,
    level_measure_constant,
    poisson_kernel,
    poisson_threshold,
    sharp_poles,
    verify_certificate,
)

TWO_PI = 2.0 * math.pi

SQRT13_OVER_4 = 0.9013878188659973
SEG_LEFT_RHO_QUARTER = 0.43425854591066487  # (sqrt(13)/4 - 1/4) / 1.5
SEG_RHO_TWELFTH = (0.7767387205027083, 0.9166666666666666)
CASE2_CUT_N4_D02_M1 = 0.9982063137755102  # 1 - K(0.2)/(2 * 4^1.5)


def checks_dict(report):
    return dict(report.checks)


def test_kernel_params_validation():
    KernelParams(rho=0.25, h=1.0)
    KernelParams(rho=0.25, h=2.0)
    for rho, h in ((0.0, 1.0), (0.3, 1.0), (0.25, 0.5), (0.25, 2.5), (-0.1, 1.0)):
        with pytest.raises(DomainError):
            KernelParams(rho=rho, h=h)


def test_threshold_examples():
    assert poisson_threshold(KernelParams(rho=0.25, h=1.0)) == pytest.approx(0.75, abs=1e-15)
    assert poisson_threshold(KernelParams(rho=0.25, h=2.0)) == pytest.approx(
        SQRT13_OVER_4, rel=1e-15
    )


def test_threshold_monotone_and_bounded():
    rng = np.random.default_rng(109)
    for _ in range(200):
        rho = float(rng.uniform(0.01, 0.25))
        hs = np.sort(rng.uniform(1.0, 1.0 / (2.0 * rho), 3))
        ts = [poisson_threshold(KernelParams(rho=rho, h=float(h))) for h in hs]
        assert ts[0] <= ts[1] <= ts[2]
        for t in ts:
            assert 1.0 - rho - 1e-12 <= t <= math.sqrt(1.0 - 3.0 * rho * rho) + 1e-12


def test_guarantee_segment_examples():
    lo, hi = guarantee_segment(KernelParams(rho=0.25, h=1.0))
    assert lo == pytest.approx(0.0, abs=1e-15)
    assert hi == pytest.approx(0.75, abs=1e-15)
    lo, hi = guarantee_segment(KernelParams(rho=0.25, h=2.0))
    root = math.sqrt(3.25)
    assert lo == pytest.approx((root - 0.5) / 3.0, rel=1e-15)
    assert hi == pytest.approx((root + 0.5) / 3.0, rel=1e-15)


def test_segment_endpoints_monotone_in_h():
    rng = np.random.default_rng(113)
    for rho in (0.05, 0.1, 0.25):
        hs = np.linspace(1.0, 1.0 / (2.0 * rho), 64)
        los, his = zip(*(guarantee_segment(KernelParams(rho=rho, h=float(h))) for h in hs))
        assert all(a <= b + 1e-14 for a, b in zip(los, los[1:]))
        assert all(h >= 1.0 - rho - 1e-14 for h in his)
    del rng


def test_common_segment_examples():
    lo, hi = common_segment(0.25)
    assert lo == pytest.approx(SEG_LEFT_RHO_QUARTER, rel=1e-15)
    assert hi == 0.75
    lo, hi = common_segment(1.0 / 12.0)
    assert lo == pytest.approx(SEG_RHO_TWELFTH[0], rel=1e-13)
    assert hi == pytest.approx(SEG_RHO_TWELFTH[1], rel=1e-15)
    with pytest.raises(DomainError):
        common_segment(0.3)
    with pytest.raises(DomainError):
        common_segment(0.0)


def test_common_segment_length_and_position():
    for rho in np.linspace(0.001, 0.25, 40):
        rho = float(rho)
        lo, hi = common_segment(rho)
        assert 5.0 * rho / 4.0 < hi - lo < 2.0 * rho
        assert lo > 1.0 - 3.0 * rho
        assert hi == 1.0 - rho


def test_common_segment_inside_every_guarantee_segment():
    for rho in (0.05, 0.1, 0.25):
        lo, hi = common_segment(rho)
        for h in np.linspace(1.0, 1.0 / (2.0 * rho), 64):
            a, b = guarantee_segment(KernelParams(rho=rho, h=float(h)))
            assert a <= lo + 1e-14 and hi <= b + 1e-14


def test_kernel_lower_examples():
    params = KernelParams(rho=0.25, h=1.0)
    assert poisson_kernel(0.0, 0.5) == pytest.approx(3.0, abs=1e-14)
    assert kernel_lower_holds(0.0, params, 0.5)
    assert kernel_lower_holds(0.0, KernelParams(rho=0.25, h=2.0), 0.5)
    # closed segment: equality is permitted at the right endpoint
    _, hi = guarantee_segment(params)
    assert kernel_lower_holds(0.0, params, hi)


def test_kernel_lower_preconditions():
    params = KernelParams(rho=0.25, h=1.0)
    with pytest.raises(PreconditionViolation):
        kernel_lower_holds(math.pi / 2.0, params, 0.5)  # cos v below threshold
    with pytest.raises(PreconditionViolation):
        kernel_lower_holds(0.0, params, 0.9)  # x outside the segment


def test_kernel_lower_property_sweep():
    rng = np.random.default_rng(777)
    for _ in range(2000):
        rho = float(rng.uniform(0.01, 0.25))
        h = float(rng.uniform(1.0, 1.0 / (2.0 * rho)))
        params = KernelParams(rho=rho, h=h)
        t = poisson_threshold(params)
        v = math.acos(float(rng.uniform(t, 1.0)))
        lo, hi = guarantee_segment(params)
        x = float(rng.uniform(lo, hi))
        assert kernel_lower_holds(v, params, x)


def test_window_examples():
    params = KernelParams(rho=0.25, h=1.0)
    left, right = kernel_small_windows(params, 1.0)
    assert left == pytest.approx((-1.0, -1.0 + 3.0 / 16.0), abs=1e-15)
    assert right == pytest.approx((1.0 - 3.0 / 16.0, 1.0), abs=1e-15)
    # width approaches 1 at the admissibility edge
    _, (lo, _) = kernel_small_windows(params, 16.0 / 3.0 - 1e-9)
    assert lo == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(DomainError):
        kernel_small_windows(params, 16.0 / 3.0)
    with pytest.raises(DomainError):
        kernel_small_windows(params, 0.0)


def test_window_keeps_kernel_small_worked_case():
    params = KernelParams(rho=0.25, h=1.0)
    _, (lo, hi) = kernel_small_windows(params, 0.5)
    assert lo == pytest.approx(0.90625, abs=1e-15)
    assert lo <= 0.95 <= hi
    val = poisson_kernel(math.pi / 2.0, 0.95)
    assert val == pytest.approx((1.0 - 0.95**2) / (1.0 + 0.95**2), rel=1e-15)
    assert val < 0.5


def test_window_property_sweep():
    rng = np.random.default_rng(778)
    for _ in range(2000):
        rho = float(rng.uniform(0.01, 0.25))
        h = float(rng.uniform(1.0, 1.0 / (2.0 * rho)))
        params = KernelParams(rho=rho, h=h)
        s = float(rng.uniform(1e-6, 4.0 * h / (3.0 * rho)))
        t = poisson_threshold(params)
        c = float(rng.uniform(-t, t))
        v = math.acos(c)
        (la, lb), (ra, rb) = kernel_small_windows(params, s)
        for a, b in ((la, lb), (ra, rb)):
            x = float(rng.uniform(a, b))
            if abs(x) == 1.0 and abs(math.cos(v)) == abs(x):
                continue
            assert poisson_kernel(v, x) < s


def test_partition_all_poles_at_one():
    ps = PoleSet((0.0, 0.0, 0.0))
    part = classify_poles(ps, 0.25, 3)
    assert part.classes[0] == (0, 1, 2)
    assert all(c == () for c in part.classes[1:])
    alphas = part.alphas()
    assert alphas[0][0] == 3.0
    assert alphas[0][1] == 3.0 and alphas[0][2] == 0.0


def test_partition_all_poles_at_i():
    ps = PoleSet((math.pi / 2.0,) * 4)
    part = classify_poles(ps, 0.2, 2)
    assert part.classes[-1] == (0, 1, 2, 3)
    assert all(a == (0.0, 0.0, 0.0) for a in part.alphas())


def test_partition_covers_every_pole_once():
    rng = np.random.default_rng(127)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        ps = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        part = classify_poles(ps, float(rng.uniform(0.05, 0.45)), int(rng.integers(1, 5)))
        seen = sorted(i for cls in part.classes for i in cls)
        assert seen == list(range(n))
        assert len(part.classes) == part.m + 2
        # band thresholds decrease with depth (degenerate ladder at n=1)
        ts = part.thresholds
        if n == 1:
            assert all(a == b for a, b in zip(ts, ts[1:]))
        else:
            assert all(a > b for a, b in zip(ts, ts[1:]))


def test_partition_flags_band_edge_poles():
    # thresholds depend on n, so probe with the same two-pole count
    probe = classify_poles(PoleSet((1.0, 1.0)), 0.25, 3)
    edge_angle = math.acos(probe.thresholds[1])
    part = classify_poles(PoleSet((edge_angle, 1.0)), 0.25, 3)
    assert len(part.edge_notes) >= 1


def test_certificate_heavy_side_example():
    ps = PoleSet((0.0, 0.0))
    cert = build_certificate(ps, 0.25, m=3)
    assert cert.case_tag == SIDE_PLUS
    assert cert.rho == pytest.approx(1.0 / 12.0, rel=1e-15)
    (lo, hi), = cert.witness.intervals
    assert lo == pytest.approx(SEG_RHO_TWELFTH[0], rel=1e-13)
    assert hi == pytest.approx(SEG_RHO_TWELFTH[1], rel=1e-15)
    assert cert.guarantee == 0.5
    assert abs(eval_level_array(ps, 0.9)) == pytest.approx(18.0, rel=1e-13)
    assert cert.guaranteed_measure > 5.0 * cert.rho / 4.0
    assert verify_certificate(ps, cert).ok


def test_certificate_reflected_for_heavy_negative_side():
    ps = PoleSet((math.pi, math.pi, math.pi))
    cert = build_certificate(ps, 0.25, m=2)
    assert cert.case_tag == SIDE_MINUS
    (lo, hi), = cert.witness.intervals
    ref_lo, ref_hi = common_segment(cert.rho)
    assert lo == pytest.approx(-ref_hi, rel=1e-15)
    assert hi == pytest.approx(-ref_lo, rel=1e-15)
    assert verify_certificate(ps, cert).ok


def test_certificate_endpoint_band_example():
    ps = PoleSet((math.pi / 2.0,) * 4)
    cert = build_certificate(ps, 0.2, m=1)
    assert cert.case_tag == ENDPOINT
    (a, b), (c, d) = cert.witness.intervals
    assert (a, d) == (-1.0, 1.0)
    assert -b == pytest.approx(CASE2_CUT_N4_D02_M1, rel=1e-14)
    assert c == pytest.approx(CASE2_CUT_N4_D02_M1, rel=1e-14)
    assert cert.guarantee == pytest.approx(0.8, rel=1e-15)
    x = 0.9982
    assert eval_level_array(ps, x) == pytest.approx(4.0 * x * x / (x * x + 1.0), rel=1e-13)
    assert verify_certificate(ps, cert).ok


def test_certificate_h_ladder_invariants():
    rng = np.random.default_rng(131)
    for _ in range(20):
        n = int(rng.integers(1, 13))
        ps = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        m = int(rng.integers(1, 6))
        cert = build_certificate(ps, 0.3, m=m)
        assert cert.h_table[0] == pytest.approx(1.0 / (2.0 * cert.rho), rel=1e-15)
        assert cert.h_table[-1] > 1.0
        assert all(a >= b for a, b in zip(cert.h_table, cert.h_table[1:]))
        if n > 1:
            assert all(a > b for a, b in zip(cert.h_table, cert.h_table[1:]))


def test_certificate_domain_checks():
    ps = PoleSet((1.0,))
    for bad_delta in (0.0, 0.5, 0.7):
        with pytest.raises(DomainError):
            build_certificate(ps, bad_delta)
    with pytest.raises(DomainError):
        build_certificate(ps, 0.2, m=0)


def test_case2_witness_approaches_depth_limit():
    ps = PoleSet((math.pi / 2.0,) * 4)
    n = 4
    k = level_measure_constant(0.2)
    cuts = []
    for m in range(1, 9):
        cert = build_certificate(ps, 0.2, m=m)
        assert cert.case_tag == ENDPOINT
        cuts.append(cert.witness.intervals[1][0])
    assert all(a > b for a, b in zip(cuts, cuts[1:]))
    assert all(c > 1.0 - k / (2.0 * n) for c in cuts)


def test_verification_report_shape():
    ps = PoleSet((0.0, 0.0))
    rep = verify_certificate(ps, build_certificate(ps, 0.25))
    d = checks_dict(rep)
    assert set(d) == {
        "metadata-consistent",
        "pointwise-level",
        "witness-inside-endpoint-window",
        "measure-bookkeeping",
    }
    assert all(d.values())
    assert bool(rep)


def widened(u: IntervalUnion) -> IntervalUnion:
    out = []
    for a, b in u.intervals:
        w = 0.1 * (b - a)
        out.append((max(-1.0, a - w), min(1.0, b + w)))
    return from_pairs(out)


def test_widened_witness_fails_verification():
    # tampering with the witness breaks the recorded-measure audit even
    # when the level bound still holds pointwise on the wider set
    ps = sharp_poles(4)
    cert = build_certificate(ps, 0.2, m=2)
    bad = dataclasses.replace(cert, witness=widened(cert.witness))
    rep = verify_certificate(ps, bad)
    assert not rep.ok
    assert not checks_dict(rep)["measure-bookkeeping"]


def test_widened_side_witness_fails_verification():
    ps = PoleSet((0.0, 0.0))
    cert = build_certificate(ps, 0.25)
    bad = dataclasses.replace(cert, witness=widened(cert.witness))
    rep = verify_certificate(ps, bad)
    assert not rep.ok
    assert not checks_dict(rep)["measure-bookkeeping"]


def test_tampered_guarantee_fails_metadata_check():
    ps = PoleSet((0.0, 0.0))
    cert = build_certificate(ps, 0.25)
    bad = dataclasses.replace(cert, guarantee=cert.guarantee * 2.0)
    rep = verify_certificate(ps, bad)
    assert not rep.ok
    assert not checks_dict(rep)["metadata-consistent"]


def test_empty_witness_is_vacuous_but_flagged():
    ps = PoleSet((0.0, 0.0))
    cert = build_certificate(ps, 0.25)
    degenerate = dataclasses.replace(cert, witness=IntervalUnion.empty())
    rep = verify_certificate(ps, degenerate)
    assert checks_dict(rep)["pointwise-level"]
    assert any("vacuous" in note for note in rep.notes)
    assert not rep.ok  # the measure audit still catches the degeneracy


def test_certificate_json_round_trip():
    ps = sharp_poles(3)
    cert = build_certificate(ps, 0.3, m=2)
    back = Certificate.from_json(cert.to_json())
    assert back == cert
    assert verify_certificate(ps, back).ok


def edge_sets():
    """Real poles at 0 and pi, a 1e-13 cluster, and extremal sets up to n = 1024."""
    yield PoleSet((0.0, math.pi))
    yield PoleSet((0.0, 0.0, math.pi, 2.0))
    yield PoleSet((math.pi, math.pi, 1.0))
    yield PoleSet(tuple(0.7 + k * 1e-13 for k in range(5)) + (4.0,))
    yield PoleSet(tuple(k * 1e-13 for k in range(1, 4)) + (math.pi - 1e-13,))
    for n in (64, 256, 1024):
        yield sharp_poles(n)


def test_certificate_sweep_all_depths_verify():
    rng = np.random.default_rng(137)
    sets = [PoleSet(tuple(rng.uniform(0.0, TWO_PI, int(rng.integers(1, 10))))) for _ in range(5)]
    for ps in sets + list(edge_sets()):
        for cert in [build_certificate(ps, 0.25, m) for m in range(1, 9)]:
            assert verify_certificate(ps, cert).ok


def test_soundness_sweep():
    rng = np.random.default_rng(12345)
    sets = [PoleSet(tuple(rng.uniform(0.0, TWO_PI, int(rng.integers(1, 13))))) for _ in range(60)]
    for ps in sets + list(edge_sets()):
        for delta in (0.1, 0.25, 0.4):
            for m in (1, 2, 3):
                cert = build_certificate(ps, delta, m=m)
                assert verify_certificate(ps, cert).ok


def test_forged_witness_next_to_minus_one_fails_verification():
    # the side-minus witness moved to [-1, -1 + its length]: |F| dips to
    # ~1e-6 about 2e-6 from -1, between two points of a 1000-point grid
    ps = PoleSet((math.pi + 0.0015, math.pi + 0.3))
    cert = build_certificate(ps, 0.25, 3)
    assert cert.case_tag == SIDE_MINUS and cert.guarantee == 0.5
    (lo, hi), = cert.witness.intervals
    forged = dataclasses.replace(cert, witness=IntervalUnion(((-1.0, -1.0 + (hi - lo)),)))
    rep = verify_certificate(ps, forged)
    assert not checks_dict(rep)["pointwise-level"]
    assert not rep.ok
    x, value = rep.first_failure
    assert -1.0 <= x <= -1.0 + (hi - lo)
    assert value < 0.5
    assert value == abs(float(eval_level_array(ps, x)))


def test_first_failure_lies_in_the_unproven_part():
    # F = 4x^2/(x^2 + 1) and guarantee 0.8: |F| > 0.8 iff |x| > 1/2, so
    # the right band widened to [0.3, 1] is unproven on [0.3, 0.5]
    ps = PoleSet((math.pi / 2.0,) * 4)
    cert = build_certificate(ps, 0.2, m=1)
    (a, b), _ = cert.witness.intervals
    bad = dataclasses.replace(cert, witness=IntervalUnion(((a, b), (0.3, 1.0))))
    rep = verify_certificate(ps, bad)
    assert not checks_dict(rep)["pointwise-level"]
    x, value = rep.first_failure
    assert 0.3 <= x <= 0.5 + 1e-9 and value < 0.8


def test_both_side_tags_and_endpoint_tag_reachable():
    tags = set()
    rng = np.random.default_rng(139)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        ps = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        tags.add(build_certificate(ps, 0.2, m=2).case_tag)
        if tags == {SIDE_PLUS, SIDE_MINUS, ENDPOINT}:
            break
    assert tags == {SIDE_PLUS, SIDE_MINUS, ENDPOINT}


def test_verify_certificate_memory_is_bounded_at_n10000():
    # the branch and bound takes one witness interval per work item and
    # reads the per-pole constants in one pass (1.5 MiB here); both
    # intervals in one chunk with the constants built from per-pole
    # tuples took 2.0 MiB
    poles = PoleSet(tuple(np.random.default_rng(10_000).uniform(0.0, TWO_PI, 10_000)))
    cert = build_certificate(poles, 0.25, 3)
    tracemalloc.start()
    try:
        report = verify_certificate(poles, cert)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 2 * 2**20
