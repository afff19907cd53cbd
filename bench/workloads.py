"""The benchmark's workloads: inputs made from the seed, the items timed
in each pass, and the oracle checks on the last pass's outputs.

Every item is one CLI command through ``logderiv.cli.main`` or one
public library call.  Names are looked up on their module at call time,
so the tracing wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from logderiv import certify, cli, errors, levelset, quadrature
from logderiv.extremal import sharp_lp_mean, sharp_poles
from logderiv.poles import PoleSet

import oracles

TWO_PI = 2.0 * math.pi

# search: three CLI searches and one range probe.  Budget 100 is the
# CLI's minimum and two starts give one random start per search; with
# --tol 1e-5 one pass takes ~30 s on a 2-core Xeon, criterion 9's 1e-6
# would take ~46 s and not fit a run.
SEARCH_NS = (2, 3, 4)
SEARCH_ARGS = ("--objective", "area", "--seeds", "2", "--budget", "100", "--tol", "1e-05")
SEARCH_PROBE_N = 12

# audit: each n in 1..20 drawn AUDIT_REPEATS times (stratified, so the
# corpus cost does not swing with the seed), plus the extremal sets of
# sizes AUDIT_SHARP_NS and AUDIT_POLYS disk polynomials of degree 1..8.
# sharp_poles(n) does not depend on the seed, so neither do its sizes:
# sizes drawn from it would move the median item latency by up to a fifth.
AUDIT_NS = range(1, 21)
AUDIT_REPEATS = 4
AUDIT_SHARP_NS = (4, 8, 12, 16)
AUDIT_POLYS = 8
AUDIT_VERIFY = ((0.5, 0.1), (1.0, 0.25), (2.0, 0.4))

# large_n: the ROADMAP's supported sizes.  lp_mean at n = 1024 is left
# out on purpose: it asks for a 19.7 GiB array.
LARGE_MEAN_NS = (64, 256)
# Seeded random sets per size.  Four at n = 64 put the median item in the
# middle of the n = 64 lp_mean calls rather than on the slowest of them.
LARGE_RAND_SETS = {64: 4, 256: 1}
LARGE_LEVEL_NS = (64, 256)
LARGE_CERT_NS = (1_000, 10_000)

# Errors the program documents for inputs it cannot handle; an item that
# ends in one of them is a failure of the program, not of the benchmark.
DOCUMENTED = (errors.ToleranceNotMet, errors.RootIsolationFailure, errors.BudgetExhausted)
CLI_DOCUMENTED_EXITS = (1, 3)

WORK_KEYS = ("panels", "function_evals", "evaluations")


@dataclass
class Item:
    id: str
    call: Callable[[], object]
    group: str  # the unit of work the item belongs to
    out: Optional[str] = None  # output file of a CLI item
    units: Optional[Callable[["Outcome"], int]] = None  # units done, when not one per group


@dataclass
class Outcome:
    id: str
    seconds: float
    status: str  # "ok", "exit <code>" or "raised <Error>"
    answered: bool
    unexpected: bool
    result: object  # return value, exit code or raised error
    out: Optional[str] = None  # output file of a CLI item


@dataclass
class Workload:
    name: str
    items: List[Item]
    oracle: Callable[[Dict[str, Outcome]], List[oracles.Check]]
    unit: str

    def units(self, outcomes: List[Outcome]) -> int:
        """Completed units: a group counts once every item in it answered,
        as one unit or as the units its items report."""
        groups: Dict[str, List] = {}
        for item, o in zip(self.items, outcomes):
            groups.setdefault(item.group, []).append((item, o))
        total = 0
        for members in groups.values():
            if all(o.answered for _, o in members):
                counted = [item.units(o) for item, o in members if item.units is not None]
                total += sum(counted) if counted else 1
        return total


def run_item(item: Item) -> Outcome:
    if item.out is not None and os.path.exists(item.out):
        os.remove(item.out)  # so a failed command cannot leave an earlier pass's output
    start = time.perf_counter()
    try:
        result = item.call()
    except DOCUMENTED as exc:
        return Outcome(item.id, time.perf_counter() - start,
                       f"raised {type(exc).__name__}", False, False, exc)
    except Exception as exc:  # any other error is a defect the run must report
        return Outcome(item.id, time.perf_counter() - start,
                       f"raised {type(exc).__name__}: {exc}", False, True, exc)
    seconds = time.perf_counter() - start
    if item.out is None:
        return Outcome(item.id, seconds, "ok", True, False, result)
    status = "ok" if result == 0 else f"exit {result}"
    return Outcome(item.id, seconds, status, result == 0,
                   result != 0 and result not in CLI_DOCUMENTED_EXITS, result, item.out)


def _cli(argv: List[str]) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            return int(exc.code or 0)


def cli_item(item_id: str, argv: List[str], out: str, group: str, units=None) -> Item:
    return Item(item_id, functools.partial(_cli, [*argv, "--out", out]), group, out, units)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def digest_source(outcome: Outcome) -> bytes:
    """Bytes that identify an item's outcome: its status, then the CLI's
    output file, or the repr of a library result or raised error."""
    head = outcome.status.encode() + b"\n"
    if outcome.out is not None:
        if not os.path.exists(outcome.out):
            return head
        with open(outcome.out, "rb") as fh:
            return head + fh.read()
    if isinstance(outcome.result, BaseException):
        exc = outcome.result
        return head + f"{exc} {getattr(exc, 'result', None)!r}".encode()
    return head + repr(outcome.result).encode()


def work_counters(outcomes: List[Outcome]) -> Dict[str, int]:
    """Deterministic work done, summed from what the items returned."""
    totals = {k: 0 for k in WORK_KEYS}

    def walk(node) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                if key in totals and isinstance(value, int):
                    totals[key] += value
                else:
                    walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    for o in outcomes:
        if o.out is not None:
            if os.path.exists(o.out):
                walk(_read_json(o.out))
            continue
        found = getattr(o.result, "result", o.result)  # partial result of a raised error
        for key in WORK_KEYS:
            value = getattr(found, key, None)
            if isinstance(value, int):
                totals[key] += value
    return totals


# ---------------------------------------------------------------------------


def _area(poles: PoleSet, rel_tol: float):
    return quadrature.area_integral(poles, rel_tol=rel_tol)


def _evaluations(outcome: Outcome) -> int:
    return int(_read_json(outcome.out)["record"]["evaluations"])


def build_search(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 0])
    explore_seed = int(rng.integers(0, 2**31))
    items = [
        cli_item(f"explore-n{n}",
                 ["explore", "--n", str(n), *SEARCH_ARGS, "--seed", str(explore_seed)],
                 os.path.join(workdir, f"explore-n{n}.json"), f"explore-n{n}", _evaluations)
        for n in SEARCH_NS
    ]
    ring = PoleSet(tuple(TWO_PI * k / SEARCH_PROBE_N for k in range(1, SEARCH_PROBE_N + 1)))
    items.append(Item(f"area-n{SEARCH_PROBE_N}", functools.partial(_area, ring, 1e-6),
                      f"area-n{SEARCH_PROBE_N}"))
    single = PoleSet((float(rng.uniform(0.0, TWO_PI)),))

    def oracle(outcomes: Dict[str, Outcome]) -> List[oracles.Check]:
        checks = []
        for n in SEARCH_NS:
            o = outcomes[f"explore-n{n}"]
            if not o.answered:
                continue
            rec = _read_json(o.out)["record"]
            gap = float(rec["gap"])
            checks.append(oracles.Check("explore-gap", o.id, gap >= -1e-4, max(0.0, -gap), 1e-4))
            viol = int(rec["bound_violations"])
            checks.append(oracles.Check("explore-bound-violations", o.id, viol == 0, float(viol), 0.0))
        # one pole anywhere on the circle: the disk integral of |g| is 4
        value = quadrature.area_integral(single, rel_tol=1e-6).value
        checks.append(oracles.relative("single-pole-area", "single-pole", value, 4.0, 1e-5))
        return checks

    return Workload("search", items, oracle, "objective evaluations")


def build_audit(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    sets: Dict[str, tuple] = {}
    for rep in range(AUDIT_REPEATS):
        for n in AUDIT_NS:
            sets[f"rand-n{n}-{rep}"] = tuple(float(t) for t in rng.uniform(0.0, TWO_PI, n))
    for n in AUDIT_SHARP_NS:
        sets[f"sharp-n{n}"] = sharp_poles(n).angles

    items = []
    for name, angles in sets.items():
        path = _write_json(os.path.join(workdir, f"{name}.poles.json"), {"angles": list(angles)})
        for p, delta in AUDIT_VERIFY:
            items.append(cli_item(
                f"verify-{name}-p{p}", ["verify", "--poles", path, "--p", repr(p), "--delta", repr(delta)],
                os.path.join(workdir, f"verify-{name}-p{p}.json"), name))
        items.append(cli_item(
            f"witness-{name}", ["witness", "--poles", path, "--delta", "0.25", "--m", "3"],
            os.path.join(workdir, f"witness-{name}.json"), name))
    for degree in range(1, AUDIT_POLYS + 1):
        r = np.sqrt(rng.uniform(0.0, 1.0, degree))
        phi = rng.uniform(0.0, TWO_PI, degree)
        zeros = [[float(a), float(b)] for a, b in zip(r * np.cos(phi), r * np.sin(phi))]
        path = _write_json(os.path.join(workdir, f"poly-{degree}.json"), {"zeros": zeros})
        items.append(cli_item(f"norms-deg{degree}", ["norms", "--poles", path],
                              os.path.join(workdir, f"norms-deg{degree}.json"), f"poly-{degree}"))
    items.append(cli_item("sharpness-n8",
                          ["sharpness", "--n", "8", "--seed", str(int(rng.integers(0, 2**31)))],
                          os.path.join(workdir, "sharpness-n8.json"), "sharpness-n8"))

    def oracle(outcomes: Dict[str, Outcome]) -> List[oracles.Check]:
        checks = []
        for name, angles in sets.items():
            n = len(angles)
            grid = oracles.level_grid(angles)
            for p, delta in AUDIT_VERIFY:
                o = outcomes[f"verify-{name}-p{p}"]
                if not o.answered:
                    continue
                doc = _read_json(o.out)
                level = doc["level_concentration"]["level_set"]
                checks.append(oracles.level_measure(o.id, grid, n, delta, level))
                if name.startswith("sharp"):
                    checks.append(oracles.sharp_cutoff(o.id, n, delta, level))
                    mean = doc["mean_bound"]["unweighted"]["value"]
                    checks.append(oracles.relative("sharp-mean", o.id, float(mean),
                                                   sharp_lp_mean(n, p), 1e-6))
            o = outcomes[f"witness-{name}"]
            if o.answered:
                cert = _read_json(o.out)["certificate"]
                if cert["witness"]:
                    checks.append(oracles.witness(o.id, angles, cert["witness"], float(cert["guarantee"])))
        return checks

    return Workload("audit", items, oracle, "configurations")


def _lp(poles: PoleSet, spec: quadrature.MeanSpec):
    return quadrature.lp_mean(poles, spec)


def _level(poles: PoleSet, delta: float):
    return levelset.level_set_for(poles, delta)


def _build_cert(poles: PoleSet, state: Dict):
    state["cert"] = certify.build_certificate(poles, 0.25, 3)
    return state["cert"]


def _verify_cert(poles: PoleSet, state: Dict):
    return certify.verify_certificate(poles, state["cert"])


def build_large_n(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    items = []
    sets: Dict[str, PoleSet] = {}
    for n in LARGE_MEAN_NS:
        for k in range(LARGE_RAND_SETS[n]):
            sets[f"rand{k}-n{n}"] = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        sets[f"sharp-n{n}"] = sharp_poles(n)
    kinds = [f"rand{k}" for k in range(max(LARGE_RAND_SETS.values()))] + ["sharp"]
    # n alternates innermost, so the short calls that set item_p50_ms are
    # spread over the whole pass rather than bunched into one second of it.
    for p in (1.0, 2.0):
        for weighted in (False, True):
            for kind in kinds:
                for n in LARGE_MEAN_NS:
                    name = f"{kind}-n{n}"
                    if name not in sets:
                        continue
                    spec = quadrature.MeanSpec(p=p, weighted=weighted)
                    item_id = f"lp-{name}-p{p:g}-{'w' if weighted else 'u'}"
                    items.append(Item(item_id, functools.partial(_lp, sets[name], spec), item_id))
    for n in LARGE_LEVEL_NS:
        items.append(Item(f"levelset-rand-n{n}",
                          functools.partial(_level, sets[f"rand0-n{n}"], 0.25), f"levelset-n{n}"))
    cert_sets = {}
    for n in LARGE_CERT_NS:
        poles = PoleSet(tuple(rng.uniform(0.0, TWO_PI, n)))
        state: Dict = {}
        cert_sets[n] = (poles, state)
        items.append(Item(f"cert-build-n{n}", functools.partial(_build_cert, poles, state),
                          f"cert-build-n{n}"))
        items.append(Item(f"cert-verify-n{n}", functools.partial(_verify_cert, poles, state),
                          f"cert-verify-n{n}"))

    def oracle(outcomes: Dict[str, Outcome]) -> List[oracles.Check]:
        checks = []
        for n in LARGE_MEAN_NS:
            for p in (1.0, 2.0):
                o = outcomes[f"lp-sharp-n{n}-p{p:g}-u"]
                if o.answered:
                    checks.append(oracles.relative("sharp-mean", o.id, o.result.value,
                                                   sharp_lp_mean(n, p), 1e-6))
        for n, (poles, _) in cert_sets.items():
            o = outcomes[f"cert-build-n{n}"]
            if o.answered and o.result.witness.intervals:
                checks.append(oracles.witness(o.id, poles.angles, o.result.witness.intervals,
                                              o.result.guarantee))
        return checks

    return Workload("large_n", items, oracle, "calls")


BUILDERS = {"search": build_search, "audit": build_audit, "large_n": build_large_n}
