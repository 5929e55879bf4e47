"""Benchmark harness: runs a workload with and without SharC and computes
the Table 1 metrics.

For each workload we perform:

1. a *baseline* run — same interpreter, all checks and reference counting
   disabled (this stands in for compiling the original program);
2. a *SharC* run — full instrumentation;

and report

- **time overhead**: instrumented steps / baseline steps − 1 (steps are
  the deterministic time unit; see :mod:`repro.runtime.stats`),
- **memory overhead**: SharC metadata pages (shadow + RC) / program pages
  (the analogue of the paper's minor-page-fault ratio),
- **%% dynamic accesses**: Table 1's last column,
- annotation and code-change counts for the workload model.

The harness also verifies the run is *clean* (no reports) for annotated
variants — the paper's end state after annotation — and counts false
positives for unannotated variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sharc.checker import CheckedProgram, check_source
from repro.runtime.interp import RunResult, resolve_backend, run_checked
from repro.runtime.stats import time_overhead
from repro.runtime.world import World


@dataclass
class PaperRow:
    """One row of the paper's Table 1, as published."""

    name: str
    threads: int
    lines: str
    annotations: int
    changes: int
    time_overhead: Optional[float]   # fraction; None = not measurable
    mem_overhead: float              # fraction
    pct_dynamic: float               # fraction


@dataclass
class Workload:
    """A runnable model of one Table 1 benchmark."""

    name: str
    description: str
    annotated_source: str
    unannotated_source: str
    paper: PaperRow
    world_factory: Callable[[], World] = World
    annotations: int = 0   # annotations in our model
    changes: int = 0       # other code changes in our model (SCASTs, ...)
    max_steps: int = 3_000_000
    seed: int = 1
    #: scheduling policy; I/O-heavy models keep "random"
    policy: str = "random"


@dataclass
class BenchResult:
    """Measured metrics for one workload."""

    workload: str
    threads_peak: int
    base_steps: int
    sharc_steps: int
    time_overhead: float
    mem_overhead: float
    pct_dynamic: float
    reports: int
    clean: bool
    annotations: int
    changes: int
    paper: PaperRow
    #: locations the static lockset analysis refined to locked(l)
    lockset_refined: int = 0
    #: executor that produced ``sharc_result`` / ``base_result``
    backend: str = "interp"
    #: per-backend instrumented throughput; 0.0 = that backend was not
    #: timed in this measurement
    interp_steps_per_sec: float = 0.0
    compiled_steps_per_sec: float = 0.0
    base_result: Optional[RunResult] = field(repr=False, default=None)
    sharc_result: Optional[RunResult] = field(repr=False, default=None)

    @property
    def wall_seconds(self) -> float:
        """Wall time of the instrumented run (0.0 if not attached)."""
        if self.sharc_result is None:
            return 0.0
        return self.sharc_result.stats.wall_seconds

    @property
    def steps_per_sec(self) -> float:
        """Instrumented-run throughput (0.0 if not attached)."""
        if self.sharc_result is None:
            return 0.0
        return self.sharc_result.stats.steps_per_sec

    @property
    def base_wall_seconds(self) -> float:
        if self.base_result is None:
            return 0.0
        return self.base_result.stats.wall_seconds

    @property
    def checks_per_1k_steps(self) -> float:
        """Shadow-walking check density of the instrumented run."""
        if self.sharc_result is None:
            return 0.0
        return self.sharc_result.stats.checks_per_1k_steps

    @property
    def checks_elided_pct(self) -> float:
        """Fraction of dynamic checks discharged by the eliminator."""
        if self.sharc_result is None:
            return 0.0
        return self.sharc_result.stats.checks_elided_pct

    @property
    def checks_locked_pct(self) -> float:
        """Fraction of dynamic checks discharged through the held-lock
        log thanks to locked(l) lockset refinement."""
        if self.sharc_result is None:
            return 0.0
        return self.sharc_result.stats.checks_locked_pct

    @property
    def compiled_speedup(self) -> float:
        """compiled/interp instrumented throughput ratio (0.0 unless
        both backends were timed)."""
        if self.interp_steps_per_sec and self.compiled_steps_per_sec:
            return self.compiled_steps_per_sec / self.interp_steps_per_sec
        return 0.0

    def bench_entry(self) -> dict:
        """The BENCH_interp.json record for this workload
        (``sharc-bench-interp/6``)."""
        return {
            "backend": self.backend,
            "base_steps": self.base_steps,
            "sharc_steps": self.sharc_steps,
            "base_wall_seconds": round(self.base_wall_seconds, 6),
            "wall_seconds": round(self.wall_seconds, 6),
            "steps_per_sec": round(self.steps_per_sec),
            "time_overhead": round(self.time_overhead, 6),
            "mem_overhead": round(self.mem_overhead, 6),
            "pct_dynamic": round(self.pct_dynamic, 6),
            "reports": self.reports,
            "checks_per_1k_steps": round(self.checks_per_1k_steps, 3),
            "checks_elided_pct": round(self.checks_elided_pct, 6),
            "checks_locked_pct": round(self.checks_locked_pct, 6),
            "lockset_refined": self.lockset_refined,
            "interp_steps_per_sec": round(self.interp_steps_per_sec),
            "compiled_steps_per_sec": round(self.compiled_steps_per_sec),
            "compiled_speedup": round(self.compiled_speedup, 3),
        }

    def row(self) -> dict:
        """A Table 1-shaped row: ours vs the paper's."""
        paper_time = ("n/a" if self.paper.time_overhead is None
                      else f"{self.paper.time_overhead:.0%}")
        ours_time = ("n/a" if self.paper.time_overhead is None
                     else f"{self.time_overhead:.0%}")
        return {
            "name": self.workload,
            "threads": self.threads_peak,
            "annots": self.annotations,
            "annots(paper)": self.paper.annotations,
            "changes": self.changes,
            "changes(paper)": self.paper.changes,
            "time": ours_time,
            "time(paper)": paper_time,
            "mem": f"{self.mem_overhead:.1%}",
            "mem(paper)": f"{self.paper.mem_overhead:.1%}",
            "%dyn": f"{self.pct_dynamic:.1%}",
            "%dyn(paper)": f"{self.paper.pct_dynamic:.1%}",
            "reports": self.reports,
        }


def check_workload(workload: Workload,
                   annotated: bool = True) -> CheckedProgram:
    source = (workload.annotated_source if annotated
              else workload.unannotated_source)
    checked = check_source(source, f"{workload.name}.c")
    return checked


def run_workload(workload: Workload, *, seed: Optional[int] = None,
                 annotated: bool = True,
                 rc_scheme: str = "lp",
                 checkelim: bool = True,
                 lockset: bool = True,
                 backend: Optional[str] = None) -> BenchResult:
    """Runs baseline + SharC and returns the measured row.
    ``checkelim=False`` ablates the static check eliminator and
    ``lockset=False`` the locked(l) refinement in the instrumented run (steps and reports are identical either way; only
    wall time and the check-mix counters move).  ``backend`` picks the
    executor for both runs (steps and reports are backend-invariant as
    well)."""
    checked = check_workload(workload, annotated)
    if annotated and not checked.ok:
        raise AssertionError(
            f"{workload.name}: annotated variant must type-check:\n"
            + checked.render_diagnostics())
    use_seed = workload.seed if seed is None else seed
    base = run_checked(checked, seed=use_seed,
                       world=workload.world_factory(),
                       instrument=False, policy=workload.policy,
                       max_steps=workload.max_steps, backend=backend)
    sharc = run_checked(checked, seed=use_seed,
                        world=workload.world_factory(),
                        instrument=True, rc_scheme=rc_scheme,
                        policy=workload.policy,
                        checkelim=checkelim, lockset=lockset,
                        max_steps=workload.max_steps, backend=backend)
    for result, label in ((base, "baseline"), (sharc, "sharc")):
        if result.error or result.deadlock or result.timeout:
            raise AssertionError(
                f"{workload.name} ({label}): error={result.error} "
                f"deadlock={result.deadlock} timeout={result.timeout}")
    resolved = resolve_backend(backend)
    return BenchResult(
        workload=workload.name,
        threads_peak=sharc.stats.threads_peak,
        backend=resolved,
        interp_steps_per_sec=(sharc.stats.steps_per_sec
                              if resolved == "interp" else 0.0),
        compiled_steps_per_sec=(sharc.stats.steps_per_sec
                                if resolved == "compiled" else 0.0),
        base_steps=base.stats.steps_total,
        sharc_steps=sharc.stats.steps_total,
        time_overhead=time_overhead(base.stats, sharc.stats),
        mem_overhead=sharc.stats.memory_overhead(),
        pct_dynamic=sharc.stats.pct_dynamic,
        reports=len(sharc.reports),
        clean=sharc.clean,
        annotations=workload.annotations,
        changes=workload.changes,
        paper=workload.paper,
        lockset_refined=len(checked.lockset_result.refinements),
        base_result=base,
        sharc_result=sharc,
    )


def format_table(results: list[BenchResult]) -> str:
    """Renders measured-vs-paper rows."""
    headers = ["name", "thr", "annots", "(paper)", "changes", "(paper)",
               "time", "(paper)", "mem", "(paper)", "%dyn", "(paper)",
               "reports"]
    rows = []
    for r in results:
        row = r.row()
        rows.append([row["name"], str(row["threads"]),
                     str(row["annots"]), str(row["annots(paper)"]),
                     str(row["changes"]), str(row["changes(paper)"]),
                     row["time"], row["time(paper)"],
                     row["mem"], row["mem(paper)"],
                     row["%dyn"], row["%dyn(paper)"],
                     str(row["reports"])])
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              for i in range(len(headers))]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)
