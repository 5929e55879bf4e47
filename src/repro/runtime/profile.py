"""Wall-clock profiling for the pipeline and the dynamic checker.

The Table 1 metrics are deliberately deterministic (interpreter steps,
bytes, pages — see :mod:`repro.runtime.stats`); this module adds the
*non*-deterministic dimension the ROADMAP's "as fast as the hardware
allows" goal needs tracked: where wall time actually goes, per phase and
per run, and the interpreter's steps/sec throughput.

Two pieces:

:class:`Profiler`
    Named phase timers (``with profiler.phase("parse")``) plus counters.
    Phases nest by name; re-entering a phase accumulates.

:func:`profile_source`
    Runs the full pipeline (parse+check, baseline run, instrumented run)
    over one source program and returns a :class:`ProfileReport` with
    per-phase seconds, per-check counters, and steps/sec for both runs.

The ``sharc run --profile`` flag and the ``sharc bench`` command (which
writes ``BENCH_interp.json``) are the CLI entry points.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional


class Profiler:
    """Accumulating named phase timers and counters.

    Phases may nest (``with prof.phase("sweep"): with
    prof.phase("run"): ...``).  ``phases`` records *exclusive*
    self-time — the time a phase spent outside its children — so
    :meth:`total_seconds` is real elapsed wall time, not elapsed time
    multiplied by the nesting depth.  ``inclusive`` keeps the
    wall-clock-per-phase view (a parent's inclusive time covers its
    children's)."""

    def __init__(self) -> None:
        #: phase -> exclusive (self) seconds
        self.phases: dict[str, float] = {}
        #: phase -> inclusive (wall) seconds
        self.inclusive: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        #: open phases: [name, start, accumulated child seconds]
        self._stack: list[list] = []

    @contextmanager
    def phase(self, name: str):
        """Times a phase; re-entering the same name accumulates."""
        entry: list = [name, time.perf_counter(), 0.0]
        self._stack.append(entry)
        try:
            yield self
        finally:
            self._stack.pop()
            elapsed = time.perf_counter() - entry[1]
            self.phases[name] = (self.phases.get(name, 0.0)
                                 + elapsed - entry[2])
            self.inclusive[name] = (self.inclusive.get(name, 0.0)
                                    + elapsed)
            if self._stack:
                # Charge the whole span to the enclosing phase's
                # child time, keeping the parent's self-time exclusive.
                self._stack[-1][2] += elapsed

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def total_seconds(self) -> float:
        """Total wall time across all phases.  Self-times sum without
        overlap, so nested phases are not double-counted."""
        return sum(self.phases.values())

    def as_dict(self) -> dict:
        return {
            "phases": {k: round(v, 6) for k, v in self.phases.items()},
            "inclusive": {k: round(v, 6)
                          for k, v in self.inclusive.items()},
            "counters": dict(self.counters),
        }

    def render(self) -> str:
        """A small aligned table: phase, self seconds, share of total."""
        total = self.total_seconds() or 1.0
        lines = ["phase                   seconds    share"]
        for name, secs in self.phases.items():
            lines.append(f"{name:<22} {secs:>9.4f} {secs / total:>7.1%}")
        for name, n in self.counters.items():
            lines.append(f"{name:<22} {n:>9d}")
        return "\n".join(lines)


@dataclass
class ProfileReport:
    """Everything one profiled pipeline execution measured."""

    profiler: Profiler
    base_steps: int = 0
    sharc_steps: int = 0
    base_wall: float = 0.0
    sharc_wall: float = 0.0
    checks: dict[str, int] = field(default_factory=dict)
    reports: int = 0

    @property
    def base_steps_per_sec(self) -> float:
        return self.base_steps / self.base_wall if self.base_wall else 0.0

    @property
    def sharc_steps_per_sec(self) -> float:
        return (self.sharc_steps / self.sharc_wall
                if self.sharc_wall else 0.0)

    def as_dict(self) -> dict:
        out = self.profiler.as_dict()
        out["runs"] = {
            "baseline": {
                "steps": self.base_steps,
                "wall_seconds": round(self.base_wall, 6),
                "steps_per_sec": round(self.base_steps_per_sec),
            },
            "instrumented": {
                "steps": self.sharc_steps,
                "wall_seconds": round(self.sharc_wall, 6),
                "steps_per_sec": round(self.sharc_steps_per_sec),
            },
        }
        out["checks"] = dict(self.checks)
        out["reports"] = self.reports
        return out

    def render(self) -> str:
        lines = [self.profiler.render(), ""]
        lines.append(f"baseline:     {self.base_steps} steps in "
                     f"{self.base_wall:.4f}s "
                     f"({self.base_steps_per_sec:,.0f} steps/sec)")
        lines.append(f"instrumented: {self.sharc_steps} steps in "
                     f"{self.sharc_wall:.4f}s "
                     f"({self.sharc_steps_per_sec:,.0f} steps/sec)")
        return "\n".join(lines)


def profile_source(source: str, filename: str = "<input>", *,
                   seed: int = 0, rc_scheme: str = "lp",
                   max_steps: int = 2_000_000, static: bool = True,
                   backend: Optional[str] = None,
                   profiler: Optional[Profiler] = None) -> ProfileReport:
    """Profiles the full pipeline over one program: static phases, a
    baseline (uninstrumented) run, and the instrumented run.

    ``static=False`` ablates both static discharge tiers in the
    instrumented run (reports and step counts are identical either way;
    only check costs move)."""
    from repro.errors import SharcError
    from repro.sharc.checker import check_source
    from repro.runtime.interp import run_checked

    prof = profiler if profiler is not None else Profiler()
    with prof.phase("parse+typecheck"):
        checked = check_source(source, filename)
    if not checked.ok:
        raise SharcError("static checking failed:\n"
                         + checked.render_diagnostics())
    stats = checked.check_stats
    report = ProfileReport(prof, checks={
        "read_checks": stats.read_checks,
        "write_checks": stats.write_checks,
        "lock_checks": stats.lock_checks,
        "oneref_checks": stats.oneref_checks,
    })
    with prof.phase("baseline"):
        base = run_checked(checked, seed=seed, instrument=False,
                           max_steps=max_steps, backend=backend)
    report.base_steps = base.stats.steps_total
    report.base_wall = base.stats.wall_seconds
    with prof.phase("instrumented"):
        sharc = run_checked(checked, seed=seed, rc_scheme=rc_scheme,
                            max_steps=max_steps, static=static,
                            backend=backend)
    report.sharc_steps = sharc.stats.steps_total
    report.sharc_wall = sharc.stats.wall_seconds
    report.reports = len(sharc.reports)
    prof.count("dynamic_accesses", sharc.stats.accesses_dynamic)
    prof.count("shadow_updates", sharc.stats.shadow_updates)
    prof.count("checks_full", sharc.stats.checks_full)
    prof.count("checks_range", sharc.stats.checks_range)
    prof.count("checks_elided", sharc.stats.checks_elided)
    prof.count("checks_locked_refined", sharc.stats.checks_locked_refined)
    return report
