"""Spread, drift and byte-identity across benchmark runs.

    python3 bench/compare.py RESULTS_DIR [OTHER_RESULTS_DIR]

Reads the run records that bench/run.py writes (.bench-out/results/ by
default).  For each directory and workload it prints, per end-to-end
metric, the median over untraced runs and the spread (interquartile
range over median) against the bound in BENCHMARK.json.  Runs of the
same workload and seed must agree exactly on per-item output digests
and work counters, within and across directories.  With two
directories it also prints how far the second median moved from the
first, in the metric's worse direction.  Exits 1 if anything is out of
line.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> List[Dict]:
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if not path.endswith(".spans.json"):
            with open(path, "r", encoding="utf-8") as fh:
                runs.append(json.load(fh))
    return runs


def fingerprint(run: Dict) -> Dict:
    """What must repeat exactly: digests and work of the first pass, and
    the per-layer counters of a traced run."""
    first = run["worker"]["passes"][0]
    layers = {k: v for k, (v, _) in run["per_layer"].items()
              if not k.endswith(("self_s", "evals_per_s", "overhead_s"))}
    return {"items": {i["id"]: i["sha256"] for i in first["items"]},
            "work": first["work"], "layers": layers}


def spread(values: List[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv: List[str]) -> int:
    dirs = argv or [os.path.join(ROOT, ".bench-out", "results")]
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    bad = 0
    seen: Dict = {}
    medians: List[Dict] = []
    for d in dirs:
        runs = load(d)
        by_workload: Dict[str, Dict[str, List[float]]] = {}
        for run in runs:
            key = (run["workload"], run["seed"], run["trace"])
            fp = fingerprint(run)
            if key in seen and seen[key] != fp:
                print(f"MISMATCH {key}: outputs or work counters differ between runs")
                bad += 1
            seen.setdefault(key, fp)
            if not run["trace"]:
                per = by_workload.setdefault(run["workload"], {})
                for name, (value, _) in run["end_to_end"].items():
                    per.setdefault(name, []).append(value)
        med = {}
        for workload, per in sorted(by_workload.items()):
            print(f"{d} {workload}: {len(per['wall_s'])} untraced runs")
            for name, values in per.items():
                m = statistics.median(values)
                med[(workload, name)] = m
                if len(values) < 4:
                    print(f"  {name:18s} median {m:.6g}")
                    continue
                s = spread(values)
                bound = metrics[name]["bound"]
                flag = "ok" if s <= bound / 3 else ("WIDE" if s <= bound else "OVER")
                if name != "setup_s" and s > bound:
                    bad += 1
                print(f"  {name:18s} median {m:.6g}  spread {s:.4f}  bound {bound}  {flag}")
        medians.append(med)
    if len(medians) == 2:
        print("drift of the second median, in the worse direction:")
        for key, first in sorted(medians[0].items()):
            if key not in medians[1] or not first:
                continue
            second = medians[1][key]
            m = metrics[key[1]]
            worse = (second - first) / first if m["better"] == "lower" else (first - second) / first
            flag = "ok" if worse <= m["bound"] else "REGRESSION"
            bad += flag != "ok"
            print(f"  {key[0]:8s} {key[1]:18s} {first:.6g} -> {second:.6g}  worse by {worse:+.4f}  {flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
