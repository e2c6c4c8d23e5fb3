"""Span tracing of overq's layers, installed from outside the package.

The tracer wraps the public functions of each overq module, plus a few
methods of ``Series`` and ``SeriesProvider``, and records one span per call:
name, start, end and the span that was open when it started.  A span's self
time is its duration minus the durations of its child spans; a layer's self
time is the sum of the self times of its spans.

Modules import functions by name (``from .eta import expand_eta_quotient``),
so replacing the attribute on the defining module alone would miss those
callers.  ``install`` rebinds the name in every loaded ``overq`` module that
holds the original object.  Modules are looked up in ``sys.modules``:
``import overq.eta`` cannot reach the submodule because ``overq/__init__.py``
exports a function named ``eta`` that shadows the attribute.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("series", "eta", "expr", "identities", "congruences", "oracle", "cli")

# Methods traced in addition to the module-level public functions.
METHODS = {
    ("series", "Series"): {
        "__mul__": "series.mul",
        "__init__": "series.new",
        "invert": "series.invert",
        "__pow__": "series.pow",
        "dissect": "series.dissect",
    },
    ("congruences", "SeriesProvider"): {
        "gf": "congruences.provider.gf",
        "reserve": "congruences.provider.reserve",
        "_bucket": "congruences.provider.bucket",
    },
}

# Multiply size classes by truncation order n.
SMALL_MAX = 1024
MID_MAX = 8192

MUL = "series.mul"
EXPAND = "eta.expand_eta_quotient"
GF = "congruences.provider.gf"
BUCKET = "congruences.provider.bucket"
CHECK_FAMILY = "congruences.check_family"
ROOT = "cli.main"

# Counts that must repeat exactly between jobs of one workload and seed.
REPEATED_COUNTS = (
    "series.mul.calls",
    "congruences.coeffs_checked",
    "congruences.provider.bucket_builds",
)

# Per-layer metrics, name -> unit, in the order they are printed.
METRICS = {
    "series.mul.calls": "count",
    "series.mul.s": "s",
    "series.mul.small.calls": "count",
    "series.mul.small.s": "s",
    "series.mul.mid.calls": "count",
    "series.mul.mid.s": "s",
    "series.mul.large.calls": "count",
    "series.mul.large.s": "s",
    "series.mul.exact.calls": "count",
    "series.mul.exact.s": "s",
    "series.new.calls": "count",
    "series.new.s": "s",
    "series.invert.calls": "count",
    "series.invert.s": "s",
    "series.pow.calls": "count",
    "series.pow.s": "s",
    "series.dissect.s": "s",
    "series.self_s": "s",
    "eta.expand.calls": "count",
    "eta.expand.s": "s",
    "eta.expand.mul_calls": "count",
    "eta.expand.share": "ratio",
    "eta.euler_product.hit_ratio": "ratio",
    "eta.theta.s": "s",
    "eta.self_s": "s",
    "expr.evaluate.calls": "count",
    "expr.evaluate.s": "s",
    "expr.evaluate.self_s": "s",
    "expr.self_s": "s",
    "identities.verify.calls": "count",
    "identities.verify.s": "s",
    "identities.self_s": "s",
    "congruences.provider.gf.calls": "count",
    "congruences.provider.gf.s": "s",
    "congruences.provider.gf.hit_ratio": "ratio",
    "congruences.provider.gf.share": "ratio",
    "congruences.provider.bucket_builds": "count",
    "congruences.provider.bucket_build.s": "s",
    "congruences.check_family.calls": "count",
    "congruences.check_family.self_s": "s",
    "congruences.coeffs_checked": "count",
    "congruences.step.calls": "count",
    "congruences.step.s": "s",
    "congruences.tables.s": "s",
    "congruences.self_s": "s",
    "oracle.count.calls": "count",
    "oracle.count.s": "s",
    "oracle.self_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.verdict_s": "s",
    "trace.overhead_s": "s",
}


class Span:
    __slots__ = ("name", "parent", "outermost", "start", "end", "child_s", "info")

    def __init__(self, name: str, parent: "Span | None", outermost: bool):
        self.name = name
        self.parent = parent
        self.outermost = outermost  # no enclosing span of the same name
        self.child_s = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def ancestors(self):
        span = self.parent
        while span is not None:
            yield span
            span = span.parent


def _mul_info(args, result):
    return result.order, result.ring.modulus is None


def _check_family_info(args, result):
    return result.coeffs_checked


INFO = {MUL: _mul_info, CHECK_FAMILY: _check_family_info}


class Tracer:
    """Keeps spans in memory; ``totals`` reduces them to additive numbers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._open: dict[str, int] = {}
        self._originals: dict[str, object] = {}

    def wrap(self, name: str, fn):
        spans, stack, open_by_name = self.spans, self._stack, self._open
        info = INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = open_by_name.get(name, 0)
            span = Span(name, stack[-1] if stack else None, depth == 0)
            spans.append(span)
            stack.append(span)
            open_by_name[name] = depth + 1
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                open_by_name[name] = depth
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
            if info is not None:
                span.info = info(args, result)
            return result

        self._originals[name] = fn
        return traced

    def install(self) -> None:
        """Wrap every traced callable and rebind it wherever overq holds it."""
        modules = [m for n, m in sys.modules.items() if n == "overq" or n.startswith("overq.")]
        for layer in LAYERS:
            module = sys.modules[f"overq.{layer}"]
            names = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")
            ]
            for attr in names:
                obj = vars(module)[attr]
                if (
                    not callable(obj)
                    or isinstance(obj, type)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is obj:
                            setattr(holder, key, wrapper)
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"overq.{layer}"], cls_name)
            for method, name in methods.items():
                setattr(cls, method, self.wrap(name, vars(cls)[method]))

    def totals(self) -> dict[str, float]:
        """Additive per-process numbers; ``finish`` turns summed totals into metrics."""
        calls: dict[str, int] = {}
        outer: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for span in self.spans:
            name, duration = span.name, span.duration
            calls[name] = calls.get(name, 0) + 1
            if span.outermost:
                outer[name] = outer.get(name, 0.0) + duration
            self_s[name] = self_s.get(name, 0.0) + duration - span.child_s

        t = {"series.mul.calls": 0, "series.mul.s": 0.0, "eta.expand.mul_calls": 0}
        for size in ("small", "mid", "large", "exact"):
            t[f"series.mul.{size}.calls"] = 0
            t[f"series.mul.{size}.s"] = 0.0
        gf_with_mul: set[int] = set()
        builds: set[int] = set()
        coeffs = 0
        for span in self.spans:
            if span.name == MUL:
                n, exact = span.info
                own = span.duration - span.child_s
                size = "small" if n <= SMALL_MAX else "mid" if n <= MID_MAX else "large"
                for key in ("series.mul", f"series.mul.{size}") + (
                    ("series.mul.exact",) if exact else ()
                ):
                    t[f"{key}.calls"] += 1
                    t[f"{key}.s"] += own
                if any(a.name == EXPAND for a in span.ancestors()):
                    t["eta.expand.mul_calls"] += 1
                gf_with_mul.update(id(a) for a in span.ancestors() if a.name == GF)
            elif span.name == EXPAND:
                builds.update(id(a) for a in span.ancestors() if a.name == BUCKET)
            elif span.name == CHECK_FAMILY:
                coeffs += span.info
        bucket_spans = [s for s in self.spans if id(s) in builds]
        euler = self._originals["eta.euler_product"].cache_info()
        counts = ("oracle.count_overpartition_tuples", "oracle.count_opt_tuples")
        t.update(
            {
                "series.new.calls": calls.get("series.new", 0),
                "series.new.s": self_s.get("series.new", 0.0),
                "series.invert.calls": calls.get("series.invert", 0),
                "series.invert.s": outer.get("series.invert", 0.0),
                "series.pow.calls": calls.get("series.pow", 0),
                "series.pow.s": outer.get("series.pow", 0.0),
                "series.dissect.s": outer.get("series.dissect", 0.0),
                "eta.expand.calls": calls.get(EXPAND, 0),
                "eta.expand.s": outer.get(EXPAND, 0.0),
                "eta.theta.s": outer.get("eta.theta_component", 0.0),
                "expr.evaluate.calls": calls.get("expr.evaluate", 0),
                "expr.evaluate.s": outer.get("expr.evaluate", 0.0),
                "expr.evaluate.self_s": self_s.get("expr.evaluate", 0.0),
                "identities.verify.calls": calls.get("identities.verify_identity", 0),
                "identities.verify.s": outer.get("identities.verify_identity", 0.0),
                "congruences.provider.gf.calls": calls.get(GF, 0),
                "congruences.provider.gf.s": outer.get(GF, 0.0),
                "congruences.provider.bucket_builds": len(bucket_spans),
                "congruences.provider.bucket_build.s": sum(s.duration for s in bucket_spans),
                "congruences.check_family.calls": calls.get(CHECK_FAMILY, 0),
                "congruences.check_family.self_s": self_s.get(CHECK_FAMILY, 0.0),
                "congruences.coeffs_checked": coeffs,
                "congruences.step.calls": calls.get("congruences.verify_dissection_step", 0),
                "congruences.step.s": outer.get("congruences.verify_dissection_step", 0.0),
                "congruences.tables.s": outer.get("congruences.replay_binomial_tables", 0.0),
                "oracle.count.calls": sum(calls.get(n, 0) for n in counts),
                "oracle.count.s": sum(outer.get(n, 0.0) for n in counts),
                # Helpers for ratios, summed before they are divided.
                "_root_s": outer.get(ROOT, 0.0),
                "_gf_hits": calls.get(GF, 0) - len(gf_with_mul),
                "_euler_hits": euler.hits,
                "_euler_lookups": euler.hits + euler.misses,
            }
        )
        for layer in LAYERS:
            t[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        return t


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def finish(totals: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one job from its summed per-process totals.

    A ratio with nothing to divide by (no provider calls, say) reads 0.
    """
    metrics = {k: v for k, v in totals.items() if not k.startswith("_")}
    metrics["eta.expand.share"] = _ratio(totals["eta.expand.s"], totals["_root_s"])
    metrics["congruences.provider.gf.share"] = _ratio(
        totals["congruences.provider.gf.s"], totals["_root_s"]
    )
    metrics["congruences.provider.gf.hit_ratio"] = _ratio(
        totals["_gf_hits"], totals["congruences.provider.gf.calls"]
    )
    metrics["eta.euler_product.hit_ratio"] = _ratio(
        totals["_euler_hits"], totals["_euler_lookups"]
    )
    return metrics
