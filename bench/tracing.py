"""Spans recorded around calls into the logderiv layers.

A wrapper is installed on the attribute that the *calling* module looks
up at call time (``logderiv.explorer.area_integral`` and so on), so the
program itself is untouched and every call site that goes through that
name is seen.  A span records its name, start, end, parent and the item
it belongs to; spans stay in memory and are written when the run ends.

Each wrapper also reads deterministic work counters (panels, function
evaluations, roots, points) off the returned object, or off the partial
result carried by a raised ToleranceNotMet, because that work was done.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: str
    failed: bool
    counters: Dict[str, int]
    children_s: float = 0.0


@dataclass
class Tracer:
    spans: List[Span] = field(default_factory=list)
    stack: List[int] = field(default_factory=list)
    item: str = ""

    def wrap(
        self,
        name: str,
        fn: Callable,
        counters: Optional[Callable] = None,
        swallowed: bool = False,
    ) -> Callable:
        """Return fn wrapped in a span.

        counters(result, args, kwargs) -> dict of work counters.
        swallowed marks a call site that catches fn's errors silently;
        its calls and failures are counted apart so they stay visible.
        """

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self.stack[-1] if self.stack else None,
                        self.item, False, {"swallowed_calls": 1} if swallowed else {})
            self.spans.append(span)
            self.stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.failed = True
                partial = getattr(exc, "result", None)
                if counters is not None and partial is not None:
                    span.counters.update(counters(partial, args, kwargs))
                if swallowed:
                    span.counters["swallowed_failures"] = 1
                raise
            else:
                span.end = time.perf_counter()
                if counters is not None:
                    span.counters.update(counters(result, args, kwargs))
                return result
            finally:
                self.stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].children_s += span.end - span.start

        return wrapper


def _quad(result, args, kwargs) -> Dict[str, int]:
    return {
        "function_evals": int(result.function_evals),
        "panels": int(result.panels),
        "divergent": int(bool(result.divergent)),
    }


def _roots(result, args, kwargs) -> Dict[str, int]:
    return {"roots": len(result)}


def _points(result, args, kwargs) -> Dict[str, int]:
    xs = args[1] if len(args) > 1 else kwargs["xs"]
    return {"points": int(getattr(xs, "size", len(xs)))}


def _evaluations(result, args, kwargs) -> Dict[str, int]:
    return {"evaluations": int(result.evaluations)}


# (layer name, module whose attribute is replaced, attribute, counters, swallowed).
# The explorer catches ToleranceNotMet from area_integral and feeds the
# unconverged value to the optimizer, so that call site is marked.
HOOKS: Tuple[Tuple[str, str, str, Optional[Callable], bool], ...] = (
    ("cli.main", "logderiv.cli", "main", None, False),
    ("explorer.optimize", "logderiv.cli", "optimize", _evaluations, False),
    ("quadrature.area_integral", "logderiv.explorer", "area_integral", _quad, True),
    ("quadrature.area_integral", "logderiv.quadrature", "area_integral", _quad, False),
    ("quadrature.lp_mean", "logderiv.quadrature", "lp_mean", _quad, False),
    ("quadrature.lp_mean", "logderiv.explorer", "lp_mean", _quad, False),
    ("extremal.sharp_lp_mean", "logderiv.explorer", "sharp_lp_mean", None, False),
    ("levelset.window_concentration", "logderiv.cli", "window_concentration", None, False),
    ("levelset.level_set", "logderiv.levelset", "level_set", None, False),
    ("poles.to_rational", "logderiv.levelset", "to_rational", None, False),
    ("rootiso.isolate_roots", "logderiv.levelset", "isolate_roots", _roots, False),
    ("certify.build_certificate", "logderiv.cli", "build_certificate", None, False),
    ("certify.build_certificate", "logderiv.certify", "build_certificate", None, False),
    ("certify.verify_certificate", "logderiv.cli", "verify_certificate", None, False),
    ("certify.verify_certificate", "logderiv.certify", "verify_certificate", None, False),
    ("poles.eval_level_array", "logderiv.certify", "eval_level_array", _points, False),
    ("polynorm.cheb_norm", "logderiv.polynorm", "cheb_norm", None, False),
    ("polynorm.check_two_sided_positivity", "logderiv.cli", "check_two_sided_positivity", None, False),
)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Replace every hooked attribute by its wrapper; put the originals
    back on exit."""
    saved = []
    try:
        for name, module, attr, counters, swallowed in HOOKS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(name, original, counters, swallowed))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


# Per-layer table: (layer, quantities).  "self_s" is span time minus the
# time covered by child spans; the others are summed counters.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("quadrature.area_integral", ("calls", "self_s", "function_evals", "panels", "failed", "evals_per_s")),
    ("explorer.optimize", ("calls", "self_s")),
    ("quadrature.lp_mean",
     ("calls", "self_s", "function_evals", "panels", "divergent", "failed", "evals_per_s")),
    ("levelset.level_set", ("calls", "self_s", "failed")),
    ("levelset.window_concentration", ("calls", "self_s")),
    ("rootiso.isolate_roots", ("calls", "self_s", "failed", "roots")),
    ("poles.to_rational", ("calls", "self_s")),
    ("certify.build_certificate", ("calls", "self_s")),
    ("certify.verify_certificate", ("calls", "self_s")),
    ("poles.eval_level_array", ("calls", "self_s", "points")),
    ("polynorm.cheb_norm", ("calls", "self_s")),
    ("polynorm.check_two_sided_positivity", ("calls", "self_s")),
    ("extremal.sharp_lp_mean", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)

UNITS = {
    "calls": "count", "self_s": "s", "function_evals": "count", "panels": "count",
    "failed": "count", "evals_per_s": "1/s", "divergent": "count", "roots": "count",
    "points": "count",
}


def layer_table(spans: List[Span]) -> Dict[str, float]:
    """Aggregate one traced pass into the flat per-layer metric dict."""
    acc: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = acc.setdefault(s.name, {"calls": 0, "self_s": 0.0, "failed": 0})
        row["calls"] += 1
        row["self_s"] += (s.end - s.start) - s.children_s
        row["failed"] += int(s.failed)
        for key, value in s.counters.items():
            row[key] = row.get(key, 0) + value
    out: Dict[str, float] = {}
    for layer, quantities in LAYERS:
        row = acc.get(layer, {})
        for q in quantities:
            if q == "evals_per_s":
                self_s = row.get("self_s", 0.0)
                value = row.get("function_evals", 0) / self_s if self_s > 0 else 0.0
            else:
                value = row.get(q, 0.0 if q == "self_s" else 0)
            out[f"{layer}.{q}"] = value
    area = acc.get("quadrature.area_integral", {})
    searched = area.get("swallowed_calls", 0)
    out["explorer.evaluations"] = acc.get("explorer.optimize", {}).get("evaluations", 0)
    out["explorer.unconverged"] = area.get("swallowed_failures", 0)
    out["explorer.unconverged_share"] = out["explorer.unconverged"] / searched if searched else 0.0
    return out
