"""Tests for the configuration-search layer.

Oracles: the two-pole disk integral is pinned against an independent
scipy.integrate nested-quad value frozen in test_quadrature; everything
else is checked through invariances (rotation gauge, conjugation
mirror, determinism) and the proven lower-bound floors.
"""

import functools
import math

import numpy as np
import pytest

from logderiv import (
    BudgetExhausted,
    DomainError,
    MeanSpec,
    Objective,
    QuadratureResult,
    StudyRecord,
    ToleranceNotMet,
    angles_sidecar,
    canonical_angles,
    equally_spaced,
    lp_mean,
    optimize,
    sharpness_table,
    study_csv,
)
from logderiv.explorer import AREA, MEAN, WEIGHTED_MEAN

TWO_PI = 2.0 * math.pi
# Independent nested-quadrature value for the two-pole disk integral
# (same constant as in test_quadrature).
SCIPY_AREA_N2 = 5.1289199558
TWO_ASINH_ONE = 1.7627471740390859


@functools.lru_cache(maxsize=None)
def area_run(gauge_angle: float) -> StudyRecord:
    return optimize(
        2, Objective(AREA), seeds=3, budget=300, seed=5, gauge_angle=gauge_angle
    )


@functools.lru_cache(maxsize=None)
def weighted_run(call: int) -> StudyRecord:
    # call index forces two genuinely separate executions
    return optimize(3, Objective(WEIGHTED_MEAN, p=1.0), seeds=2, budget=240, seed=5)


def test_equally_spaced_examples():
    assert equally_spaced(1).angles == (0.0,)
    assert np.allclose(sorted(equally_spaced(2).angles), (0.0, math.pi))
    assert np.allclose(
        sorted(equally_spaced(3).angles), (0.0, TWO_PI / 3, 2 * TWO_PI / 3)
    )
    with pytest.raises(DomainError):
        equally_spaced(0)


def test_equally_spaced_is_exact_on_the_real_axis():
    # the poles meant for 0 and pi are exact; the others keep the bits of
    # 2 pi k / n
    for n in range(1, 65):
        angles = equally_spaced(n).angles
        assert angles[-1] == 0.0
        for k in range(1, n):
            assert angles[k - 1] == (math.pi if 2 * k == n else TWO_PI * k / n)
    # with the pole an ulp off the real axis, this mean raised instead
    # of diverging
    assert lp_mean(equally_spaced(11), MeanSpec(p=1.0)).divergent


def test_objective_validation():
    with pytest.raises(DomainError):
        Objective(AREA, p=1.0)
    with pytest.raises(DomainError):
        Objective(MEAN)
    with pytest.raises(DomainError):
        Objective(MEAN, p=-1.0)
    with pytest.raises(DomainError):
        Objective(AREA, tolerance=0.5)
    with pytest.raises(DomainError):
        Objective("hill-climb-me")
    assert Objective(AREA).label() == AREA
    assert Objective(MEAN, p=1.0).label() == f"{MEAN}(p=1.0)"


def test_canonical_angles_mirror_invariance():
    rng = np.random.default_rng(181)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        angles = tuple(rng.uniform(0.0, TWO_PI, n))
        canon = canonical_angles(angles)
        assert canon == canonical_angles(tuple(-a for a in angles))
        assert canon == canonical_angles(canon)
        assert canon == tuple(sorted(canon))


def test_single_pole_area_gap_is_zero():
    # all single-pole configurations are rotations of each other
    rec = optimize(1, Objective(AREA), seeds=2, budget=200, seed=5)
    assert abs(rec.gap) <= 2.0 * 1e-6
    assert rec.bound_violations == 0


def test_two_pole_area_never_beats_equally_spaced():
    rec = area_run(0.0)
    assert rec.gap >= -1e-4
    assert rec.gap <= 1e-4
    assert rec.bound_violations == 0
    assert abs(rec.best_value - SCIPY_AREA_N2) <= 1e-6 * SCIPY_AREA_N2
    assert rec.best_value <= rec.reference_value + 1e-4


def test_area_gauge_invariance():
    # pinning the first angle elsewhere must not move the minimum
    assert abs(area_run(0.7).best_value - area_run(0.0).best_value) < 2.0 * 1e-6


def test_optimize_is_deterministic():
    first, second = weighted_run(0), weighted_run(1)
    assert first.best_value == second.best_value
    assert first.best_angles == second.best_angles
    assert first.evaluations == second.evaluations
    assert first.gap == second.gap


def test_weighted_mean_respects_proven_floor():
    rec = weighted_run(0)
    assert rec.best_value >= 1.0 / 192.0
    assert rec.bound_violations == 0


def test_budget_exhausted_carries_partial_record():
    with pytest.raises(BudgetExhausted) as excinfo:
        optimize(4, Objective(AREA), seeds=60, budget=100, seed=3)
    rec = excinfo.value.record
    assert rec.n == 4
    assert rec.seeds == 60
    assert rec.evaluations >= 1
    assert math.isfinite(rec.best_value)


def test_optimize_validation():
    with pytest.raises(DomainError):
        optimize(2, Objective(AREA), seeds=0)
    with pytest.raises(DomainError):
        optimize(2, Objective(AREA), budget=50)
    with pytest.raises(DomainError):
        optimize(0, Objective(AREA))


def test_sharpness_table_p1_brackets_known_constants():
    rows = sharpness_table(4, 1.0, seed=11, searches=12)
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    for r in rows:
        assert r["lower_bound"] == 1.0 / 192.0
        assert abs(r["upper_bound"] - TWO_ASINH_ONE) <= 1e-15
        assert r["lower_bound"] < r["family_value"]
        assert r["family_value"] <= r["upper_bound"] * (1.0 + 1e-12)
        assert r["searched_min"] > r["lower_bound"]
        assert math.isfinite(r["searched_min"])


def test_sharpness_table_p2_lower_rows_are_n_over_800():
    rows = sharpness_table(4, 2.0, seed=11, searches=8)
    for r in rows:
        assert r["lower_bound"] == r["n"] / 800.0
        assert r["lower_bound"] < r["family_value"]
        assert r["family_value"] <= r["upper_bound"] * (1.0 + 1e-12)


def test_sharpness_table_p_half_decreases_with_n():
    rows = sharpness_table(5, 0.5, seed=11, searches=8)
    for prev, cur in zip(rows, rows[1:]):
        assert cur["family_value"] < prev["family_value"]
        assert cur["lower_bound"] < prev["lower_bound"]
    for r in rows:
        assert r["lower_bound"] < r["family_value"]
        assert r["family_value"] <= r["upper_bound"] * (1.0 + 1e-12)
        assert r["searched_min"] > r["lower_bound"]


def test_sharpness_table_validation():
    with pytest.raises(DomainError):
        sharpness_table(0, 1.0)
    with pytest.raises(DomainError):
        sharpness_table(17, 1.0)
    with pytest.raises(DomainError):
        sharpness_table(4, 0.0)


def _record(wall_time: float) -> StudyRecord:
    return StudyRecord(
        n=2,
        objective=AREA,
        best_value=5.0,
        best_angles=(0.0, math.pi),
        reference_value=5.0,
        gap=0.0,
        seeds=3,
        evaluations=177,
        wall_time=wall_time,
    )


def test_study_csv_format_and_byte_stability():
    out = study_csv([_record(1.25)])
    lines = out.splitlines()
    assert lines[0] == "n,objective,best_value,reference_value,gap,seeds,evals,seconds"
    assert lines[1].endswith(",0.0")
    assert lines[1].startswith("2,area-integral,5.0,5.0,0.0,3,177")
    # wall time must not leak into untimed output
    assert study_csv([_record(1.25)]) == study_csv([_record(9.75)])
    assert study_csv([_record(1.25)], timing=True).splitlines()[1].endswith(",1.25")


def test_angles_sidecar_shape():
    side = angles_sidecar([_record(0.5)])
    assert side == [
        {"n": 2, "objective": AREA, "best_angles": [0.0, math.pi]}
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("gauge_angle", [0.0, 0.7])
def test_area_seed0_start_is_equally_spaced(monkeypatch, n, gauge_angle):
    # the first evaluation is the seed-0 start: n distinct angles forming
    # the equally spaced set, turned by the gauge angle
    import logderiv.explorer as explorer

    seen = []

    def fake_evaluate(obj, angles, rel_tol):
        seen.append(tuple(angles))
        return 5.0

    monkeypatch.setattr(explorer, "_evaluate", fake_evaluate)
    optimize(n, Objective(AREA), seeds=1, budget=100, seed=0, gauge_angle=gauge_angle)
    start = sorted(np.mod(np.subtract(seen[0], gauge_angle), TWO_PI))
    assert len(set(seen[0])) == n
    if gauge_angle == 0.0:
        assert tuple(sorted(seen[0])) == tuple(sorted(equally_spaced(n).angles))
    assert np.allclose(start, np.arange(n) * TWO_PI / n, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n, kind", [(1, AREA), (3, AREA), (2, MEAN)])
def test_wall_time_is_a_float(monkeypatch, n, kind):
    import logderiv.explorer as explorer

    monkeypatch.setattr(explorer, "_evaluate", lambda obj, angles, rel_tol: 5.0)
    obj = Objective(AREA) if kind == AREA else Objective(kind, p=1.0)
    rec = optimize(n, obj, seeds=1, budget=100, seed=0)
    assert type(rec.wall_time) is float and rec.wall_time >= 0.0
    with pytest.raises(BudgetExhausted) as excinfo:
        optimize(4, obj, seeds=60, budget=100, seed=0)
    assert type(excinfo.value.record.wall_time) is float


def fake_area_integral(tolerances):
    """An area_integral that answers at search tolerances and misses
    FINAL_TOL, raising the unconverged partial result with it."""
    import logderiv.explorer as explorer

    def area_integral(poles, rel_tol):
        tolerances.append(rel_tol)
        value = 5.0 + sum(math.cos(t) ** 2 for t in poles.angles)
        if rel_tol == explorer.FINAL_TOL:
            partial = QuadratureResult(19965.88, 2.75, False, 170453, 2701650)
            raise ToleranceNotMet("radial slices failed to converge", result=partial)
        return QuadratureResult(value, 0.0, False, 10, 150)

    return area_integral


def test_unconverged_final_value_raises(monkeypatch):
    # search-phase values still steer the search, but a value that misses
    # FINAL_TOL is never reported as the area
    import logderiv.explorer as explorer

    tolerances = []
    monkeypatch.setattr(explorer, "area_integral", fake_area_integral(tolerances))
    obj = Objective(AREA, tolerance=1e-4)
    with pytest.raises(ToleranceNotMet) as excinfo:
        optimize(3, obj, seeds=1, budget=100, seed=0)
    # the error keeps the search's record
    record = excinfo.value.record
    assert record.evaluations == tolerances.count(1e-4) > 1
    assert len(record.best_angles) == 3
    assert record.best_value == pytest.approx(
        5.0 + sum(math.cos(t) ** 2 for t in record.best_angles), rel=1e-12
    )
    assert math.isnan(record.reference_value) and math.isnan(record.gap)
    assert tolerances[-1] == explorer.FINAL_TOL
    with pytest.raises(ToleranceNotMet):
        optimize(4, obj, seeds=60, budget=100, seed=0)
