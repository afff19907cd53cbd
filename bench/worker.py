"""One benchmark run of one workload, in a fresh process.

Started by run.py with the thread pools pinned to one thread and ``src``
on PYTHONPATH. It imports logderiv, builds the workload's inputs (that
is the set-up time), then runs timed passes over the items until the
time is up, always at least one. With --trace, a warm-up pass is
followed by alternating untraced and traced passes, so the tracing
overhead is measured in the same process. Oracle checks run on the last
pass's outputs, after the timed passes and after peak memory is read.
The result goes to --result as JSON.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import logderiv.cli  # noqa: F401  (the set-up being measured)
    import oracles
    import workloads

    expected = os.path.realpath(os.environ["BENCH_SRC"])
    if not os.path.realpath(logderiv.cli.__file__).startswith(expected + os.sep):
        print(f"logderiv imported from {logderiv.cli.__file__}, not {expected}", file=sys.stderr)
        return 2
    wl = workloads.BUILDERS[args.workload](args.seed, args.workdir)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        _write(args.result, {"setup_s": setup_s})
        return 0

    import numpy
    import scipy
    import tracing

    # A traced run first makes one untimed warm-up pass: the first pass in a
    # process is ~10% slower (allocator and caches), which would otherwise
    # land on one side of the traced-minus-untraced overhead.
    passes = []
    spans = []
    last = None
    schedule = itertools.chain(
        ["warmup"] if args.trace else [],
        itertools.cycle(("plain", "traced") if args.trace else ("plain",)),
    )
    begin = time.perf_counter()
    for kind in schedule:
        tracer = tracing.Tracer()
        outcomes = []
        if kind == "traced":
            with tracing.installed(tracer):
                start = time.perf_counter()
                for item in wl.items:
                    tracer.item = item.id
                    outcomes.append(workloads.run_item(item))
                wall = time.perf_counter() - start
        else:
            start = time.perf_counter()
            for item in wl.items:
                outcomes.append(workloads.run_item(item))
            wall = time.perf_counter() - start
        passes.append({
            "kind": kind,
            "wall_s": wall,
            "units": wl.units(outcomes),
            "work": workloads.work_counters(outcomes),
            "items": [
                {"id": o.id, "seconds": o.seconds, "status": o.status, "answered": o.answered,
                 "unexpected": o.unexpected,
                 "sha256": hashlib.sha256(workloads.digest_source(o)).hexdigest()}
                for o in outcomes
            ],
        })
        if kind == "traced":
            passes[-1]["layers"] = tracing.layer_table(tracer.spans)
            spans.append([
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "item": s.item, "failed": s.failed, "counters": s.counters}
                for s in tracer.spans
            ])
        last = outcomes
        if time.perf_counter() - begin >= args.seconds and (kind == "traced" or not args.trace):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = _consistency(passes)
    try:
        checks = wl.oracle({o.id: o for o in last})
    except Exception as exc:  # an output the oracle cannot read is a broken run
        problems.append(f"oracle could not read the outputs: {type(exc).__name__}: {exc}")
        checks = []

    _write(args.result, {
        "setup_s": setup_s,
        "unit": wl.unit,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "oracle": oracles.summary(checks),
        "problems": problems,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    })
    if spans:
        _write(args.result[: -len(".json")] + ".spans.json", spans)
    return 0


def _consistency(passes) -> list:
    """Outputs, statuses and work counters must repeat in every pass."""
    problems = []
    first = passes[0]
    for p in passes[1:]:
        for a, b in zip(first["items"], p["items"]):
            if a["sha256"] != b["sha256"]:
                problems.append(f"{a['id']}: output differs between passes")
        if p["work"] != first["work"]:
            problems.append("work counters differ between passes")
    traced = [p["layers"] for p in passes if p["kind"] == "traced"]
    for table in traced[1:]:
        for key, value in table.items():
            if not key.endswith(("self_s", "evals_per_s")) and value != traced[0][key]:
                problems.append(f"{key}: counter differs between traced passes")
    return problems


def _write(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
