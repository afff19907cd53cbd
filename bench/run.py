"""Benchmark of logderiv: one workload, one seed, one run.

    python3 bench/run.py --workload {search,audit,large_n} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in a fresh,
single-threaded process (bench/worker.py); set-up time is sampled in
further fresh processes.  The run prints every metric by name and unit,
writes the full record (machine, versions, per-item latencies and
output digests, work counters, oracle results, per-layer table) under
.bench-out/results/, and prints as its last line the JSON summary:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench-out")

WORKLOADS = ("search", "audit", "large_n")
SETUP_BEFORE, SETUP_AFTER = 1, 2  # counted set-up processes around the run's own
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "logderiv", "cli.py")):
        print(f"no logderiv sources under {SRC}: run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    work = os.path.join(OUT, "work", run_id)
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC, BENCH_SRC=SRC, **{v: "1" for v in THREAD_VARS})
    try:
        # The first set-up process fills the bytecode and file caches and is
        # not counted.  The counted ones straddle the run, so that one slow
        # spell of a shared machine does not set the median.
        _worker(args, env, work, "warmup", deadline, setup_only=True)
        setups = [_worker(args, env, work, f"before{i}", deadline, setup_only=True)["setup_s"]
                  for i in range(SETUP_BEFORE)]
        run = _worker(args, env, work, "run", deadline, setup_only=False)
        setups.append(run["setup_s"])
        setups += [_worker(args, env, work, f"after{i}", deadline, setup_only=True)["setup_s"]
                   for i in range(SETUP_AFTER)]
        spans_file = os.path.join(work, "run.spans.json")
        if os.path.exists(spans_file):
            shutil.move(spans_file, os.path.join(results, run_id + ".spans.json"))
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e, layers, extra = _metrics(run, setups)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(run["versions"]),
        "setup_samples_s": setups,
        "end_to_end": e2e,
        "per_layer": layers,
        "reported": extra,
        "worker": run,
    }
    with open(os.path.join(results, run_id + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    attempted = sum(len(p["items"]) for p in run["passes"])
    failed = sum(i["unexpected"] for p in run["passes"] for i in p["items"])
    correct = not run["problems"]
    for problem in run["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, (value, unit) in {**e2e, **extra}.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    if args.trace:
        for name, (value, unit) in layers.items():
            print(f"{args.workload} {name} = {value!r} {unit}")
    chosen = layers if args.trace else e2e
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


class WorkerFailed(Exception):
    pass


def _worker(args, env, work: str, tag: str, deadline: float, setup_only: bool) -> Dict:
    """Run worker.py to completion and return its JSON result."""
    workdir = os.path.join(work, tag)
    os.makedirs(workdir, exist_ok=True)
    result = os.path.join(work, tag + ".json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise WorkerFailed(f"worker {tag} ran past the {RUN_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0 or not os.path.exists(result):
        raise WorkerFailed(f"worker {tag} failed with exit code {proc.returncode}\n"
                           + proc.stderr[-4000:])
    with open(result, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _metrics(run: Dict, setups: List[float]):
    """End-to-end metrics from the untraced passes, per-layer metrics
    from the traced ones, and the shares reported alongside."""
    plain = [p for p in run["passes"] if p["kind"] == "plain"]
    traced = [p for p in run["passes"] if p["kind"] == "traced"]
    items = [i for p in plain for i in p["items"]]
    answered = sum(i["answered"] for i in items)
    oracle = run["oracle"]
    checks = oracle["checks"]
    oracle_fail = oracle["failures"] / checks if checks else 0.0
    wall = statistics.median(p["wall_s"] for p in plain)
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "units_per_s": (statistics.median(p["units"] / p["wall_s"] for p in plain), "1/s"),
        "item_p50_ms": (1000.0 * statistics.median(_item_medians(plain)), "ms"),
        "pass_share": (answered / len(items), "ratio"),
        "oracle_pass_share": (1.0 - oracle_fail, "ratio"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
    }
    extra = {
        "fail_share": (1.0 - answered / len(items), "ratio"),
        "oracle_fail_share": (oracle_fail, "ratio"),
        "oracle_checks": (checks, "count"),
        "passes": (len(plain), "count"),
        "items_per_pass": (len(plain[0]["items"]), "count"),
    }
    if len(items) >= 100:
        extra["item_p90_ms"] = (1000.0 * statistics.quantiles(
            [i["seconds"] for i in items], n=10)[-1], "ms")
    layers = {}
    if traced:
        for key in traced[0]["layers"]:
            values = [p["layers"][key] for p in traced]
            value = statistics.median(values) if key.endswith(("self_s", "evals_per_s")) else values[0]
            quantity = key.rsplit(".", 1)[1]
            unit = tracing.UNITS.get(quantity, "ratio" if quantity.endswith("share") else "count")
            layers[key] = (value, unit)
        overhead = statistics.median(p["wall_s"] for p in traced) - wall
        layers["trace.overhead_s"] = (overhead, "s")
    return e2e, layers, extra


def _item_medians(passes: List[Dict]) -> List[float]:
    """Each item's median latency over the passes, so that one slow
    spell of the machine moves no item's figure on its own."""
    per_item: Dict[str, List[float]] = {}
    for p in passes:
        for i in p["items"]:
            per_item.setdefault(i["id"], []).append(i["seconds"])
    return [statistics.median(v) for v in per_item.values()]


def _machine(versions: Dict) -> Dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(SRC)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "threads": {v: "1" for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        **versions,
    }


if __name__ == "__main__":
    sys.exit(main())
