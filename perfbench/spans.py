"""Spans around calls into each layer's public functions.

The benchmark measures its end-to-end metrics with no tracer installed.
For the per-layer run, :class:`Tracer.install` replaces the layer entry
points below with wrappers that record a span per call (name, start,
end, parent span, op id) and the counts each call returns, and
:class:`Tracer.uninstall` puts the originals back.  Spans stay in memory
until the run ends; nothing inside the program is changed.

A layer is the first dotted part of a span name and matches a module of
``src/repro``: ``cfront``, ``sharc``, ``compile``, ``runtime``,
``explore``, ``obs``, plus the ``campaign`` and ``fuzz`` engines and
``bench`` for the benchmark's own op spans.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: int = 0
    #: ``backend`` for runtime spans, ``None`` elsewhere
    tag: Optional[str] = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


#: the static passes, in ``check_program``'s order, with the span each
#: gets; ``parse_program`` runs first, from ``check_source``
STATIC_PASSES = (
    ("parse_program", "cfront.parse"),
    ("infer_program", "sharc.infer"),
    ("typecheck_program", "sharc.typecheck"),
    ("mark_rc_writes", "sharc.instrument"),
    ("mark_elisions", "sharc.checkelim"),
    ("analyze_locksets", "sharc.lockset"),
    ("analyze_absint", "sharc.absint"),
)

#: runtime counters reported per backend: metric suffix -> reader
RUNTIME_COUNTS: dict[str, Callable] = {
    "steps": lambda s: s.steps_total,
    "shadow_updates": lambda s: s.shadow_updates,
    "fastpath_hits": lambda s: s.shadow_fastpath_hits,
    "checks_full": lambda s: s.checks_full,
    "checks_discharged": lambda s: (s.checks_elided
                                    + s.checks_locked_refined
                                    + s.checks_ai_elided),
    "context_switches": lambda s: s.context_switches,
    "rc_writes": lambda s: s.rc_writes,
    "lock_acquisitions": lambda s: s.lock_acquisitions,
}


def _static_counts(name: str, result) -> dict:
    """Counts a static pass returns, keyed by per-layer metric name."""
    if name == "sharc.typecheck":
        return {"sharc.checks_inserted": result.total}
    if name == "sharc.checkelim":
        return {"sharc.checks_elided_static": result.elided}
    if name == "sharc.lockset":
        return {"sharc.lockset_refined": len(result.refinements),
                "sharc.static_races": len(result.races)}
    if name == "sharc.absint":
        return {"sharc.ai_discharged": (result.stats.ai_elided
                                        + result.stats.ai_ranges),
                "sharc.absint_rounds": result.rounds}
    return {}


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        #: counts are kept only while this is set, so that they cover a
        #: fixed input set and repeat exactly for a given seed
        self.counting = False
        #: instrumented run ms per backend, summed while counting
        self.run_ms: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        #: ops recorded so far, and the id of the current one (0: none)
        self.ops = 0
        self._op = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, tag: Optional[str] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               op=self._op, tag=tag))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        assert popped == index, "spans must nest"

    @contextmanager
    def op(self, name: str):
        """One benchmark op: a root span with a new op id that every
        span recorded inside it shares."""
        self.ops += 1
        self._op = self.ops
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)
            self._op = 0

    def count(self, name: str, value: int) -> None:
        if self.counting:
            self.counts[name] += value

    # -- wrapping ------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)  # AttributeError: layer moved
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def _spanned(self, name: str, after: Optional[Callable] = None):
        def factory(original):
            def wrapper(*args, **kwargs):
                index = self.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end(index)
                if after is not None:
                    after(result)
                return result
            return wrapper
        return factory

    def install(self) -> None:
        """Wraps every layer entry point; :meth:`uninstall` restores them."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        checker = importlib.import_module("repro.sharc.checker")
        for attr, name in STATIC_PASSES:
            self._patch(checker, attr, self._spanned(
                name, lambda r, n=name: self._count_static(n, r)))
        self._patch(checker, "check_source", self._spanned("sharc.check"))

        for module in ("repro.compile.closures", "repro.compile.backend"):
            self._patch(importlib.import_module(module), "compile_program",
                        self._compile_wrapper)

        interp = importlib.import_module("repro.runtime.interp")
        self._patch(interp.Interp, "run", self._run_wrapper)

        driver = importlib.import_module("repro.explore.driver")
        campaign = importlib.import_module("repro.explore.campaign")
        pipeline = importlib.import_module("repro.fuzz.pipeline")
        for owner in (driver, campaign):
            self._patch(owner, "run_schedule",
                        self._spanned("explore.schedule"))
        for owner in (driver, pipeline):
            self._patch(owner, "explore_source", self._spanned(
                "explore.sweep", lambda r: self.count(
                    "explore.distinct_traces", r.distinct_traces)))
        self._patch(importlib.import_module("repro.obs.sitestats"),
                    "encode_sites", self._spanned("obs.encode_sites"))
        self._patch(campaign, "run_campaign", self._spanned(
            "campaign.run", lambda r: self.count(
                "campaign.distinct_traces", r.distinct_traces)))
        for owner in (importlib.import_module("repro.fuzz.gen"), pipeline):
            self._patch(owner, "generate_scenario",
                        self._spanned("fuzz.gen"))
        self._patch(pipeline, "fuzz_scenario",
                    self._spanned("fuzz.scenario"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _count_static(self, name: str, result) -> None:
        for key, value in _static_counts(name, result).items():
            self.count(key, value)

    def _compile_wrapper(self, original):
        def wrapper(checked):
            if getattr(checked.program, "_sharc_compiled", None) is not None:
                return original(checked)  # cache hit: no compile work
            index = self.begin("compile.compile")
            try:
                compiled = original(checked)
            finally:
                self.end(index)
            tiers = [cf.tier for cf in compiled.funcs.values()]
            self.count("compile.codegen_funcs", tiers.count("codegen"))
            self.count("compile.closure_funcs", tiers.count("closures"))
            self.count("compile.fallback_funcs", len(compiled.failed))
            return compiled
        return wrapper

    def _run_wrapper(self, original):
        def run(interp, *args, **kwargs):
            backend = ("compiled" if hasattr(interp, "compiled")
                       else "interp")
            if interp.eraser is not None:
                name = "runtime.eraser_run"
            elif interp.instrument:
                name = "runtime.run"
            else:
                name = "runtime.base_run"
            index = self.begin(name, tag=backend)
            try:
                result = original(interp, *args, **kwargs)
            finally:
                self.end(index)
            if name == "runtime.run" and self.counting:
                self.run_ms[backend] += self.spans[index].ms
                for key, read in RUNTIME_COUNTS.items():
                    self.count(f"runtime.{backend}.{key}",
                               read(result.stats))
            return result
        return run

    # -- reduction -----------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Self time per layer in ms, summed over the spans inside ops:
        each span's duration minus the time its direct children cover
        (children nest, so they never overlap one another)."""
        child_ms = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_ms[span.parent] += span.ms
        out: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span.op:
                out[span.name.split(".", 1)[0]] += (span.ms
                                                     - child_ms[index])
        return dict(out)

    def durations(self, name: str, tag: Optional[str] = None) -> list:
        return [s.ms for s in self.spans
                if s.name == name and (tag is None or s.tag == tag)]

    def child_ms(self, parent_name: str, child_names: tuple) -> list:
        """Per ``parent_name`` span, the ms its direct children named in
        ``child_names`` cover."""
        covered = defaultdict(float)
        for span in self.spans:
            if span.parent is not None and span.name in child_names:
                covered[span.parent] += span.ms
        return [covered[i] for i, s in enumerate(self.spans)
                if s.name == parent_name]


def med(values: list) -> float:
    """Median, 0.0 for no samples (a layer idle on this workload)."""
    return median(values) if values else 0.0


#: layers self time is reported for, in pipeline order
LAYERS = ("bench", "cfront", "sharc", "compile", "runtime", "explore",
          "obs", "campaign", "fuzz")


def per_layer(tracer: Tracer, traced_s: list, untraced_s: list) -> dict:
    """The per-layer metrics of a traced run, as name -> (value, unit).
    Times are medians per call over every traced pass, counts cover the
    counted pass, and self times are per op.  ``traced_s`` and
    ``untraced_s`` are the pass walls with and without the tracer on the
    same inputs, for the tracing overhead."""
    out: dict = {}
    d = tracer.durations
    out["cfront.parse_ms"] = (med(d("cfront.parse")), "ms")
    for _, name in STATIC_PASSES[1:]:
        out[f"{name}_ms"] = (med(d(name)), "ms")
    out["sharc.check_ms"] = (med(d("sharc.check")), "ms")
    for key in ("sharc.checks_inserted", "sharc.checks_elided_static",
                "sharc.lockset_refined", "sharc.static_races",
                "sharc.ai_discharged", "sharc.absint_rounds"):
        out[key] = (tracer.counts[key], "count")

    out["compile.compile_ms"] = (med(d("compile.compile")), "ms")
    for key in ("codegen_funcs", "closure_funcs", "fallback_funcs"):
        out[f"compile.{key}"] = (tracer.counts[f"compile.{key}"], "count")

    for backend in ("interp", "compiled"):
        prefix = f"runtime.{backend}."
        counts = {key: tracer.counts[prefix + key] for key in RUNTIME_COUNTS}
        run_s = tracer.run_ms[backend] / 1e3
        out[prefix + "run_ms"] = (med(d("runtime.run", backend)), "ms")
        out[prefix + "steps_per_s"] = (
            counts["steps"] / run_s if run_s else 0.0, "1/s")
        out[prefix + "fastpath_ratio"] = (
            (counts["fastpath_hits"] / counts["shadow_updates"]
             if counts["shadow_updates"] else 0.0), "ratio")
        for key, value in counts.items():
            if key != "fastpath_hits":
                out[prefix + key] = (value, "count")
    base = d("runtime.base_run")
    out["runtime.base_run_ms"] = (med(base), "ms")
    out["runtime.eraser_run_ms"] = (med(d("runtime.eraser_run")), "ms")
    # Only the table1 passes pair each instrumented tree-walker run
    # with an uninstrumented one on the same seed.
    paired = d("runtime.run", "interp") if base else []
    out["runtime.check_cost_ms"] = (
        (sum(paired) - sum(base)) / len(base) if base else 0.0, "ms")

    schedules = d("explore.schedule")
    covered = tracer.child_ms("explore.schedule",
                              ("runtime.run", "compile.compile",
                               "sharc.check"))
    out["explore.schedule_ms"] = (med(schedules), "ms")
    out["explore.outcome_ms"] = (
        med([s - c for s, c in zip(schedules, covered)]), "ms")
    out["explore.sweep_ms"] = (med(d("explore.sweep")), "ms")
    out["explore.distinct_traces"] = (
        tracer.counts["explore.distinct_traces"], "count")
    out["obs.encode_sites_ms"] = (med(d("obs.encode_sites")), "ms")

    self_ms = tracer.self_ms()
    campaign_schedules = sum(
        1 for s in tracer.spans
        if s.name == "explore.schedule" and s.op
        and tracer.spans[s.parent].name == "campaign.run")
    out["campaign.engine_ms"] = (
        (self_ms.get("campaign", 0.0) / campaign_schedules
         if campaign_schedules else 0.0), "ms")
    out["campaign.distinct_traces"] = (
        tracer.counts["campaign.distinct_traces"], "count")
    out["fuzz.gen_ms"] = (med(d("fuzz.gen")), "ms")

    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (self_ms.get(layer, 0.0) / tracer.ops,
                                   "ms")
    out["trace.untraced_pass_s"] = (med(untraced_s), "s")
    out["trace.traced_pass_s"] = (med(traced_s), "s")
    out["trace.overhead_s"] = (med(traced_s) - med(untraced_s), "s")
    return out
