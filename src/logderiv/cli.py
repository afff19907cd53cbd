"""Command-line front end.

Exit codes: 0 all verdicts pass; 1 a checked bound failed (that would
be a research finding, printed loudly); 2 I/O or argument problems;
3 numerical failure (tolerance or search budget).
Identical arguments and seed produce byte-identical output files;
timing columns are zeroed unless --timing is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

import numpy as np

from .certify import build_certificate, verify_certificate
from .errors import (
    BudgetExhausted,
    DomainError,
    PoleHit,
    PreconditionViolation,
    ToleranceNotMet,
    ZeroAtEndpoint,
)
from .explorer import (
    AREA,
    MEAN,
    WEIGHTED_MEAN,
    Objective,
    angles_sidecar,
    optimize,
    sharpness_csv,
    sharpness_table,
    study_csv,
)
from .levelset import level_set_for, window_concentration
from .poles import PoleSet, poles_digest
from .polynorm import (
    DiskPolynomial,
    check_norm_bounds,
    check_two_sided_positivity,
    endpoint_ratio,
    random_disk_polynomial,
)
from .quadrature import MeanSpec, check_lp_lower_bound, mean_csv_row


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _interval_dict(u) -> dict:
    return {"intervals": [list(iv) for iv in u.intervals], "measure": u.measure}


def _quad_dict(r) -> dict:
    return {
        "value": None if math.isinf(r.value) else r.value,
        "divergent": r.divergent,
        "error_estimate": r.error_estimate,
        "panels": r.panels,
        "function_evals": r.function_evals,
    }


def cmd_verify(args) -> int:
    poles = PoleSet.from_json(_read_file(args.poles))
    report = check_lp_lower_bound(poles, args.p, rel_tol=args.tol)
    conc = window_concentration(poles, args.delta)
    ok = report.ok and conc["ok"]
    if args.format == "csv":
        lines = [
            "kind," + "poles,n,p,weighted,value,error,divergent,panels",
            "mean," + mean_csv_row(poles, MeanSpec(p=args.p, weighted=False, rel_tol=args.tol), report.unweighted),
            "mean," + mean_csv_row(poles, MeanSpec(p=args.p, weighted=True, rel_tol=args.tol), report.weighted),
            f"level,{poles_digest(poles)},{poles.n},{args.delta},,"
            f"{conc['intersection'].measure!r},{conc['lower_bound']!r},,{int(conc['ok'])}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        doc = {
            "poles": list(poles.angles),
            "p": args.p,
            "delta": args.delta,
            "mean_bound": {
                "unweighted": _quad_dict(report.unweighted),
                "weighted": _quad_dict(report.weighted),
                "lower_bound": report.lower_bound,
                "unweighted_ge_weighted": report.ok_unweighted_ge_weighted,
                "weighted_ge_bound": report.ok_weighted_ge_bound,
            },
            "level_concentration": {
                "level_set": _interval_dict(conc["level_set"]),
                "window": _interval_dict(conc["window"]),
                "intersection": _interval_dict(conc["intersection"]),
                "floor": conc["lower_bound"],
                "ok": conc["ok"],
            },
            "ok": ok,
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    if not ok:
        print("BOUND VIOLATION: a proven inequality failed numerically", file=sys.stderr)
    return 0 if ok else 1


def cmd_witness(args) -> int:
    poles = PoleSet.from_json(_read_file(args.poles))
    cert = build_certificate(poles, args.delta, args.m)
    rep = verify_certificate(poles, cert)
    doc = {
        "certificate": json.loads(cert.to_json()),
        "verification": {
            "ok": rep.ok,
            "checks": {name: flag for name, flag in rep.checks},
            "first_failure": list(rep.first_failure) if rep.first_failure else None,
            "notes": list(rep.notes),
        },
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    if not rep.ok:
        print("CERTIFICATE FAILED VERIFICATION", file=sys.stderr)
    return 0 if rep.ok else 1


def cmd_measure(args) -> int:
    poles = PoleSet.from_json(_read_file(args.poles))
    # The window and its floor K(delta)/n exist only for delta < 1/2.
    if args.delta < 0.5:
        conc = window_concentration(poles, args.delta)
        level = conc["level_set"]
        window = _interval_dict(conc["window"])
        both = _interval_dict(conc["intersection"])
        floor, ok = conc["lower_bound"], conc["ok"]
    else:
        level = level_set_for(poles, args.delta)
        window = both = floor = None
        ok = True
    doc = {
        "delta": args.delta,
        "n": poles.n,
        "level_set": _interval_dict(level),
        "window": window,
        "intersection": both,
        "floor": floor,
        "ok": ok,
    }
    if args.format == "csv":
        lines = ["delta,n,measure,floor,ok"]
        floor_txt = repr(floor) if floor is not None else ""
        lines.append(f"{args.delta},{poles.n},{level.measure!r},{floor_txt},{int(ok)}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    if not ok:
        print("BOUND VIOLATION: level-set concentration below floor", file=sys.stderr)
    return 0 if ok else 1


def cmd_sharpness(args) -> int:
    rows = sharpness_table(args.n, args.p, seed=args.seed)
    ok = True
    for r in rows:
        if not (r["lower_bound"] < r["family_value"] <= r["upper_bound"] * (1 + 1e-9)):
            ok = False
        if not (math.isinf(r["searched_min"]) or r["searched_min"] > r["lower_bound"]):
            ok = False
    if args.format == "csv":
        _emit(sharpness_csv(rows), args.out)
    else:
        _emit(json.dumps(rows, indent=2, sort_keys=True), args.out)
    if not ok:
        print("BOUND VIOLATION: sharpness bracketing failed", file=sys.stderr)
    return 0 if ok else 1


def _norm_value(log_norm: float) -> Optional[float]:
    """A norm from its log; None (null in JSON) outside the normal floats."""
    lo, hi = math.log(sys.float_info.min), math.log(sys.float_info.max)
    return math.exp(log_norm) if lo <= log_norm <= hi else None


def _norm_report(poly: DiskPolynomial, delta: float) -> dict:
    quarter, imbalance = check_norm_bounds(poly)
    ratios = {}
    for at in (1, -1):
        try:
            ratios[str(at)] = endpoint_ratio(poly, at)
        except ZeroAtEndpoint:
            ratios[str(at)] = None
    positivity = check_two_sided_positivity(poly, delta)
    endpoint_ok = all(r is None or r >= poly.n / 2.0 - 1e-9 for r in ratios.values())
    return {
        "n": poly.n,
        "norm": _norm_value(quarter.log_norm),
        "deriv_norm": _norm_value(quarter.log_deriv_norm),
        "quarter_ok": quarter.ok,
        "imbalance_factor": imbalance.bound_factor,
        "imbalance_ok": imbalance.ok,
        "endpoint_ratios": ratios,
        "endpoint_ok": endpoint_ok,
        "positivity": [positivity.measure_minus, positivity.measure_plus],
        "positivity_ok": positivity.ok,
        "ok": quarter.ok and imbalance.ok and endpoint_ok and positivity.ok,
    }


def cmd_norms(args) -> int:
    if args.poles:
        polys = [DiskPolynomial.from_json(_read_file(args.poles))]
    else:
        # an empty corpus would pass without checking anything
        if args.n < 1:
            raise DomainError(f"corpus size --n must be >= 1, got {args.n}")
        rng = np.random.default_rng(args.seed)
        polys = [
            random_disk_polynomial(rng, 1 + int(rng.integers(0, 8)))
            for _ in range(args.n)
        ]
    reports = [_norm_report(poly, args.delta) for poly in polys]
    ok = all(r["ok"] for r in reports)
    if args.format == "csv":
        lines = ["index,n,norm,deriv_norm,quarter_ok,imbalance_ok,endpoint_ok,positivity_ok"]
        for i, r in enumerate(reports):
            norm, dnorm = ("" if v is None else repr(v) for v in (r["norm"], r["deriv_norm"]))
            lines.append(
                f"{i},{r['n']},{norm},{dnorm},"
                f"{int(r['quarter_ok'])},{int(r['imbalance_ok'])},"
                f"{int(r['endpoint_ok'])},{int(r['positivity_ok'])}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(reports, indent=2, sort_keys=True), args.out)
    if not ok:
        print("BOUND VIOLATION: a norm inequality failed", file=sys.stderr)
    return 0 if ok else 1


def cmd_explore(args) -> int:
    kind = {"area": AREA, "mean": MEAN, "weighted-mean": WEIGHTED_MEAN}[args.objective]
    p = 1.0 if args.p is None and kind != AREA else args.p
    obj = Objective(kind=kind, p=p, tolerance=args.tol)
    record = optimize(args.n, obj, seeds=args.seeds, budget=args.budget, seed=args.seed)
    sidecar = angles_sidecar([record])
    if args.format == "csv":
        _emit(study_csv([record], timing=args.timing), args.out)
        if args.out:
            with open(args.out + ".angles.json", "w", encoding="utf-8") as fh:
                json.dump(sidecar, fh, indent=2, sort_keys=True)
    else:
        doc = {
            "record": {
                "n": record.n,
                "objective": record.objective,
                "best_value": record.best_value,
                "reference_value": record.reference_value,
                "gap": record.gap,
                "seeds": record.seeds,
                "evaluations": record.evaluations,
                "seconds": record.wall_time if args.timing else 0.0,
                "bound_violations": record.bound_violations,
            },
            "angles": sidecar,
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    if record.bound_violations:
        print("BOUND VIOLATION: optimizer visited a configuration below a proven floor", file=sys.stderr)
    return 1 if record.bound_violations else 0


# Built once per process: parse_args returns a fresh Namespace each call,
# and the handlers look up what they call at call time.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logderiv",
        description="Bounds, level sets, certificates, and searches for "
        "log-derivatives of polynomials with unit-circle zeros.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command registers only the flags its handler reads.
    def common(sp, poles=False, delta=None, p=None, fmt=True):
        if poles:
            sp.add_argument("--poles", required=True, help="pole-set JSON file")
        if delta is not None:
            sp.add_argument("--delta", type=float, default=delta)
        if p is not None:
            sp.add_argument("--p", type=float, default=p)
        sp.add_argument("--out", default=None)
        if fmt:
            sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("verify", help="p-mean floors and level concentration")
    common(sp, poles=True, delta=0.25, p=1.0)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("witness", help="build and audit a witness certificate")
    common(sp, poles=True, delta=0.25, fmt=False)
    sp.add_argument("--m", type=int, default=3)
    sp.set_defaults(fn=cmd_witness)

    sp = sub.add_parser("measure", help="level set (branch and bound on F) and endpoint window")
    common(sp, poles=True, delta=0.25)
    sp.set_defaults(fn=cmd_measure)

    sp = sub.add_parser("sharpness", help="bracketing table for the p-means")
    common(sp, p=1.0)
    sp.add_argument("--n", type=int, default=8, help="largest n in the table")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_sharpness)

    sp = sub.add_parser("norms", help="derivative-norm floors for disk polynomials")
    common(sp, delta=0.4)
    sp.add_argument("--poles", default=None, help="polynomial JSON file")
    sp.add_argument("--n", type=int, default=50, help="corpus size when no file given")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_norms)

    sp = sub.add_parser("explore", help="search pole configurations")
    common(sp)
    sp.add_argument("--n", type=int, required=True, help="number of poles")
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--objective", choices=("area", "mean", "weighted-mean"), default="area")
    sp.add_argument("--seeds", type=int, default=8)
    sp.add_argument("--budget", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--timing", action="store_true")
    sp.set_defaults(fn=cmd_explore)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PreconditionViolation, PoleHit, ZeroAtEndpoint) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (ToleranceNotMet, BudgetExhausted) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
