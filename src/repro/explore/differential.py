"""Differential exploration: SharC's dynamic checker vs the Eraser
lockset baseline, schedule by schedule.

Both detectors watch the same interleavings, so any disagreement is a
property of the *detectors*, not of scheduling luck:

- SharC-only findings are typically ``dynamic`` cells whose accesses
  happen to be consistently locked on this schedule (Eraser's lockset
  never empties) — the paper's argument that barrier/ownership idioms
  need more than lockset reasoning cuts both ways;
- Eraser-only findings are usually lock-discipline violations on cells
  the sharing strategy deliberately exempts (e.g. ``racy``/benign
  annotations) or false positives from lockset refinement.

Every disagreement row carries its (seed, policy) coordinates, so each
one is a replayable counterexample, not a statistic.

The sweep also carries a *static* column: the compile-time lockset
analysis (:mod:`repro.sharc.lockset`) gives one verdict per program with
zero dynamic execution, which is scored against each dynamic checker's
per-schedule verdict — agreeing (both flag, or both clean),
static-only (flagged at compile time, clean on this schedule: the
schedule simply never hit the racy interleaving), or dynamic-only
(raced at runtime but statically invisible — e.g. heap locations the
static abstraction cannot name).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.explore.driver import (
    DEFAULT_MAX_STEPS, ExplorationSummary, _checked_program,
    explore_source,
)


@dataclass(frozen=True)
class StaticAgreement:
    """The static verdict scored against one dynamic checker, schedule
    by schedule."""

    checker: str
    agreeing: int = 0
    static_only: int = 0
    dynamic_only: int = 0

    @property
    def schedules(self) -> int:
        return self.agreeing + self.static_only + self.dynamic_only

    def as_dict(self) -> dict:
        return {"checker": self.checker, "agreeing": self.agreeing,
                "static_only": self.static_only,
                "dynamic_only": self.dynamic_only}

    @staticmethod
    def from_dict(data: dict) -> "StaticAgreement":
        return StaticAgreement(
            checker=data["checker"], agreeing=data["agreeing"],
            static_only=data["static_only"],
            dynamic_only=data["dynamic_only"])

    @staticmethod
    def score(checker: str, static_flagged: bool,
              outcomes) -> "StaticAgreement":
        agreeing = static_only = dynamic_only = 0
        for outcome in outcomes:
            dynamic_flagged = bool(outcome.report_keys)
            if static_flagged and not dynamic_flagged:
                static_only += 1
            elif dynamic_flagged and not static_flagged:
                dynamic_only += 1
            else:
                agreeing += 1
        return StaticAgreement(checker, agreeing, static_only,
                               dynamic_only)


@dataclass(frozen=True)
class Disagreement:
    """One schedule the two checkers judged differently."""

    seed: int
    policy: str
    sharc_keys: tuple[str, ...]
    eraser_keys: tuple[str, ...]

    @property
    def sharc_only(self) -> tuple[str, ...]:
        return tuple(k for k in self.sharc_keys
                     if k not in self.eraser_keys)

    @property
    def eraser_only(self) -> tuple[str, ...]:
        return tuple(k for k in self.eraser_keys
                     if k not in self.sharc_keys)

    def replay_coords(self) -> str:
        return f"seed={self.seed} policy={self.policy}"


@dataclass(frozen=True)
class BackendDivergence:
    """One schedule the two executors disagreed on — a violation of the
    compiled backend's bit-identical-by-seed guarantee, and therefore
    always a bug, never a scheduling effect."""

    seed: int
    policy: str
    field: str  # "trace_hash" | "report_keys" | "steps"
    interp: object
    compiled: object

    def replay_coords(self) -> str:
        return f"seed={self.seed} policy={self.policy}"

    def as_dict(self) -> dict:
        return {"seed": self.seed, "policy": self.policy,
                "field": self.field, "interp": self.interp,
                "compiled": self.compiled}


def backend_divergences(interp_summary: ExplorationSummary,
                        compiled_summary: ExplorationSummary,
                        ) -> list[BackendDivergence]:
    """Diffs two sweeps of the *same* grid run under the interp and
    compiled executors, schedule by schedule.  Crash-tagged outcomes on
    either side are reported as divergences only when the other side did
    not crash too (matching crashes are a harness property)."""
    out: list[BackendDivergence] = []
    compiled_by = {(o.seed, o.policy): o
                   for o in compiled_summary.outcomes}
    for a in interp_summary.outcomes:
        b = compiled_by.get((a.seed, a.policy))
        if b is None:
            continue
        if bool(a.trace_hash) != bool(b.trace_hash):
            out.append(BackendDivergence(
                a.seed, a.policy, "crash", a.error, b.error))
            continue
        for name in ("trace_hash", "report_keys", "steps"):
            va, vb = getattr(a, name), getattr(b, name)
            if va != vb:
                out.append(BackendDivergence(
                    a.seed, a.policy, name,
                    list(va) if isinstance(va, tuple) else va,
                    list(vb) if isinstance(vb, tuple) else vb))
    return out


@dataclass
class DifferentialSummary:
    """Both sweeps plus the per-schedule disagreement table."""

    sharc: ExplorationSummary
    eraser: ExplorationSummary
    disagreements: list[Disagreement] = field(default_factory=list)
    #: compile-time race keys from the static lockset analysis
    static_keys: tuple[str, ...] = ()
    static_vs_sharc: Optional[StaticAgreement] = None
    static_vs_eraser: Optional[StaticAgreement] = None

    @property
    def schedules(self) -> int:
        return self.sharc.schedules

    @property
    def agreeing(self) -> int:
        return self.schedules - len(self.disagreements)

    def as_dict(self) -> dict:
        return {
            "schedules": self.schedules,
            "agreeing": self.agreeing,
            "disagreements": [
                {"seed": d.seed, "policy": d.policy,
                 "sharc_only": list(d.sharc_only),
                 "eraser_only": list(d.eraser_only)}
                for d in self.disagreements],
            "static": {
                "keys": list(self.static_keys),
                "vs_sharc": (self.static_vs_sharc.as_dict()
                             if self.static_vs_sharc else None),
                "vs_eraser": (self.static_vs_eraser.as_dict()
                              if self.static_vs_eraser else None),
            },
            "sharc": self.sharc.as_dict(),
            "eraser": self.eraser.as_dict(),
        }

    def render(self) -> str:
        lines = [
            f"differential sweep over {self.schedules} schedules:",
            f"  sharc : {len(self.sharc.failures)} failing "
            f"({self.sharc.races_per_1k:.1f}/1k), "
            f"{len(self.sharc.first_failures)} distinct reports",
            f"  eraser: {len(self.eraser.failures)} failing "
            f"({self.eraser.races_per_1k:.1f}/1k), "
            f"{len(self.eraser.first_failures)} distinct reports",
            f"  disagreements: {len(self.disagreements)}",
        ]
        if self.static_vs_sharc is not None:
            lines.insert(3, f"  static: {len(self.static_keys)} "
                            f"compile-time race(s)")
            for agr in (self.static_vs_sharc, self.static_vs_eraser):
                if agr is None:
                    continue
                lines.insert(4 + (agr is self.static_vs_eraser),
                             f"    vs {agr.checker:<6}: "
                             f"{agr.agreeing} agreeing, "
                             f"{agr.static_only} static-only, "
                             f"{agr.dynamic_only} dynamic-only")
        for d in self.disagreements[:20]:
            parts = []
            if d.sharc_only:
                parts.append("sharc-only: " + ", ".join(d.sharc_only))
            if d.eraser_only:
                parts.append("eraser-only: " + ", ".join(d.eraser_only))
            lines.append(f"    {d.replay_coords()}  " + "; ".join(parts))
        if len(self.disagreements) > 20:
            lines.append(f"    ... and "
                         f"{len(self.disagreements) - 20} more")
        return "\n".join(lines)


def differential_sweep(source: str, filename: str = "<input>", *,
                       seeds: int = 50, seed_start: int = 0,
                       policies: Sequence[str] = ("random", "pct"),
                       jobs: int = 1,
                       max_steps: int = DEFAULT_MAX_STEPS,
                       world_factory: Optional[Callable] = None,
                       backend: Optional[str] = None,
                       telemetry=None,
                       progress: Optional[Callable] = None,
                       ) -> DifferentialSummary:
    """Runs the same ``seeds x policies`` grid under both checkers and
    diffs the verdicts schedule by schedule; the static lockset verdict
    (computed once, no execution) is scored against each.  ``telemetry``
    and ``progress`` are forwarded to both sweeps (they accumulate
    across the two, so done/total covers the whole campaign); an
    interrupt during the sharc sweep skips the eraser sweep entirely
    and returns a partial summary instead of starting a second
    uninterruptible grid."""
    common = dict(seeds=seeds, seed_start=seed_start, policies=policies,
                  jobs=jobs, max_steps=max_steps,
                  world_factory=world_factory, backend=backend,
                  telemetry=telemetry, progress=progress)
    sharc = explore_source(source, filename, checker="sharc", **common)
    if sharc.interrupted:
        eraser = ExplorationSummary(filename=filename, checker="eraser",
                                    policies=sharc.policies,
                                    interrupted=True)
    else:
        eraser = explore_source(source, filename, checker="eraser",
                                **common)
    # the sharc sweep has already checked the program (it fails fast
    # on one that does not check) into the cache
    static_keys = tuple(
        _checked_program(source, filename).lockset_result.race_keys)
    flagged = bool(static_keys)
    summary = DifferentialSummary(
        sharc=sharc, eraser=eraser, static_keys=static_keys,
        static_vs_sharc=StaticAgreement.score(
            "sharc", flagged, sharc.outcomes),
        static_vs_eraser=StaticAgreement.score(
            "eraser", flagged, eraser.outcomes))
    eraser_by_coords = {(o.seed, o.policy): o for o in eraser.outcomes}
    for s in sharc.outcomes:
        e = eraser_by_coords.get((s.seed, s.policy))
        if e is None:
            continue
        if set(s.report_keys) != set(e.report_keys):
            summary.disagreements.append(Disagreement(
                seed=s.seed, policy=s.policy,
                sharc_keys=s.report_keys, eraser_keys=e.report_keys))
    return summary
