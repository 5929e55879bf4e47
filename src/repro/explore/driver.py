"""The multi-seed, multi-policy exploration driver.

One dynamic run samples exactly one interleaving; this driver sweeps a
program across ``seeds x policies`` schedules — optionally fanned out
over worker processes through the campaign engine's batch worker — and
aggregates, in the deterministic sweep order (policy rank, then seed):

- **failures**: every schedule that produced at least one report, with
  its (seed, policy) replay coordinates;
- **coverage**: how many *distinct context-switch traces* the sweep
  actually executed (two seeds that interleave identically explore the
  same point of the schedule space), and races found per 1k schedules;
- **per-policy breakdown**: which policy finds which reports — PCT and
  the preemption-bounded walk routinely expose races the uniform random
  walk misses at the same budget.

Schedules are deterministic, so every row of the result is replayable:
``run_checked(checked, seed=outcome.seed, policy=outcome.policy)``
reproduces the run bit-for-bit.  Wall-clock accounting goes through
:class:`repro.runtime.profile.Profiler`; the deterministic metrics come
from :class:`repro.runtime.stats.RunStats` as everywhere else.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.runtime.profile import Profiler

#: exploration runs bound their schedules tighter than normal runs —
#: sweeping thousands of schedules at 2M steps each would be pointless
DEFAULT_MAX_STEPS = 200_000

#: generated racy programs spawn aggressively (duplicate spawns widen
#: the interleaving space), and a 1-byte shadow word caps the run at 7
#: threads (the paper's 8n-1 encoding) — aborting mid-schedule would
#: masquerade as a scheduling effect, so exploration runs 2-byte shadow
#: words (15-thread capacity) by default
DEFAULT_SHADOW_BYTES = 2

DEFAULT_POLICIES = ("random", "pct", "pb")


@dataclass(frozen=True)
class ScheduleOutcome:
    """One schedule's result, reduced to its replayable coordinates."""

    seed: int
    policy: str
    checker: str
    report_keys: tuple[str, ...]
    reports: int
    steps: int
    switches: int
    trace_hash: str
    deadlock: bool = False
    error: Optional[str] = None
    timeout: bool = False
    #: shadow-check update / fast-path counters (feed metrics.json's
    #: check hit rate)
    check_updates: int = 0
    check_fastpath: int = 0
    #: per-check-site attribution of this one schedule, encoded via
    #: :func:`repro.obs.sitestats.encode_sites`; set by
    #: :func:`run_schedule` and merged per batch by the sweep worker,
    #: so outcomes folded into a summary carry ``()`` and the merged
    #: counters live in :attr:`ExplorationSummary.site_totals`
    sites: tuple = ()

    @property
    def failing(self) -> bool:
        return self.reports > 0

    def replay_coords(self) -> str:
        return f"seed={self.seed} policy={self.policy}"


@dataclass
class ExplorationSummary:
    """Everything one sweep measured."""

    filename: str
    checker: str
    policies: tuple[str, ...]
    schedules: int = 0
    steps_total: int = 0
    outcomes: list[ScheduleOutcome] = field(default_factory=list)
    failures: list[ScheduleOutcome] = field(default_factory=list)
    #: schedules whose *harness* crashed (not program-level reports) —
    #: error-tagged rather than sweep-aborting, so one bad schedule
    #: cannot take down a thousand-schedule sweep
    crashes: list[ScheduleOutcome] = field(default_factory=list)
    #: set when the sweep was cut short by Ctrl-C; the summary still
    #: holds every outcome collected before the interrupt
    interrupted: bool = False
    #: report key -> the first schedule that produced it, "first" by
    #: the deterministic sweep coordinates ``(policy rank, seed)``
    #: whatever order outcomes are added in
    first_failures: dict[str, ScheduleOutcome] = field(
        default_factory=dict)
    trace_hashes: set[str] = field(default_factory=set)
    #: policy -> {"schedules": n, "failures": n, "traces": set}
    per_policy: dict[str, dict] = field(default_factory=dict)
    #: check-site attribution merged across every schedule
    #: (:mod:`repro.obs.sitestats` layout)
    site_totals: dict = field(default_factory=dict)
    profiler: Profiler = field(default_factory=Profiler)

    def coord_key(self, outcome: ScheduleOutcome) -> tuple:
        """The deterministic sweep order of an outcome: policies in
        declaration order, seeds ascending within a policy — exactly
        the order a serial sweep runs them, independent of arrival."""
        try:
            rank = self.policies.index(outcome.policy)
        except ValueError:  # a policy outside the sweep's declared set
            rank = len(self.policies)
        return (rank, outcome.policy, outcome.seed)

    def add(self, outcome: ScheduleOutcome) -> None:
        self.schedules += 1
        self.steps_total += outcome.steps
        self.outcomes.append(outcome)
        bucket = self.per_policy.setdefault(
            outcome.policy,
            {"schedules": 0, "failures": 0, "crashes": 0,
             "traces": set()})
        bucket["schedules"] += 1
        if not outcome.trace_hash:
            # A crashed schedule has no trace; an empty hash must not
            # count as a distinct point of the schedule space.
            self.crashes.append(outcome)
            bucket["crashes"] += 1
            return
        self.trace_hashes.add(outcome.trace_hash)
        bucket["traces"].add(outcome.trace_hash)
        if outcome.failing:
            self.failures.append(outcome)
            bucket["failures"] += 1
            for key in outcome.report_keys:
                held = self.first_failures.get(key)
                if held is None or (self.coord_key(outcome)
                                    < self.coord_key(held)):
                    self.first_failures[key] = outcome

    @property
    def distinct_traces(self) -> int:
        return len(self.trace_hashes)

    @property
    def completed_schedules(self) -> int:
        """Schedules that actually ran to a verdict — crash-tagged
        outcomes never executed a schedule, so they are excluded from
        every rate denominator (races/1k, coverage)."""
        return self.schedules - len(self.crashes)

    @property
    def races_per_1k(self) -> float:
        if not self.completed_schedules:
            return 0.0
        return 1000.0 * len(self.failures) / self.completed_schedules

    @property
    def first_failure(self) -> Optional[ScheduleOutcome]:
        return self.failures[0] if self.failures else None

    def as_dict(self) -> dict:
        return {
            "filename": self.filename,
            "checker": self.checker,
            "policies": list(self.policies),
            "schedules": self.schedules,
            "steps_total": self.steps_total,
            "failing_schedules": len(self.failures),
            "crashed_schedules": len(self.crashes),
            "completed_schedules": self.completed_schedules,
            "crashes": [
                {"seed": o.seed, "policy": o.policy, "error": o.error}
                for o in sorted(self.crashes, key=self.coord_key)],
            "interrupted": self.interrupted,
            "distinct_traces": self.distinct_traces,
            "races_per_1k": round(self.races_per_1k, 3),
            "distinct_reports": sorted(self.first_failures),
            "first_failures": {
                key: {"seed": o.seed, "policy": o.policy}
                for key, o in self.first_failures.items()},
            "per_policy": {
                policy: {
                    "schedules": b["schedules"],
                    "failures": b["failures"],
                    "crashes": b.get("crashes", 0),
                    "distinct_traces": len(b["traces"]),
                }
                for policy, b in sorted(self.per_policy.items())},
            "profile": self.profiler.as_dict(),
        }

    def render(self) -> str:
        lines = [
            f"explored {self.schedules} schedules of {self.filename} "
            f"[{self.checker}] over policies: "
            + ", ".join(self.policies),
            f"  distinct context-switch traces: {self.distinct_traces}",
            f"  failing schedules: {len(self.failures)} "
            f"({self.races_per_1k:.1f} races / 1k schedules)",
        ]
        if self.interrupted:
            lines.append("  (sweep interrupted; partial results)")
        if self.crashes:
            lines.append(f"  crashed schedules: {len(self.crashes)} "
                         f"(first: {self.crashes[0].error} at "
                         f"{self.crashes[0].replay_coords()})")
        for policy, b in sorted(self.per_policy.items()):
            lines.append(
                f"  {policy:<12} {b['failures']:>4}/{b['schedules']:<4}"
                f" failing, {len(b['traces'])} distinct traces")
        if self.first_failures:
            lines.append("  first failure per report:")
            for key, o in sorted(self.first_failures.items()):
                lines.append(f"    {key}  ->  replay with "
                             f"{o.replay_coords()}")
        else:
            lines.append("  no failing schedule found")
        return "\n".join(lines)


# -- one schedule -------------------------------------------------------------
#
# Worker processes re-check the source; a per-process cache keyed by
# (source hash, filename) amortizes that across the batches each worker
# handles.

_CHECK_CACHE: dict = {}

#: measured serial-run horizons, keyed by
#: ``(source hash, checker, max_steps, max_burst, shadow_bytes)`` —
#: campaign shards and repeated sweeps of the same source reuse the one
#: probe run instead of each paying it (see :func:`_resolve_policies`)
_HORIZON_CACHE: dict = {}


def _source_hash(source: str) -> str:
    return hashlib.sha1(source.encode()).hexdigest()


def _checked_program(source: str, filename: str):
    from repro.sharc.checker import check_source

    key = (_source_hash(source), filename)
    checked = _CHECK_CACHE.get(key)
    if checked is None:
        checked = check_source(source, filename)
        if not checked.ok:
            raise ValueError(f"{filename}: static checking failed:\n"
                             + checked.render_diagnostics())
        _CHECK_CACHE[key] = checked
    return checked


def trace_hash(trace: Sequence[tuple[int, int]]) -> str:
    digest = hashlib.sha1()
    for tid, items in trace:
        digest.update(f"{tid}:{items};".encode())
    return digest.hexdigest()[:16]


def run_schedule(source: str, filename: str, seed: int, policy: str,
                 checker: str = "sharc",
                 max_steps: int = DEFAULT_MAX_STEPS,
                 max_burst: int = 8,
                 world_factory: Optional[Callable] = None,
                 shadow_bytes: int = DEFAULT_SHADOW_BYTES,
                 checkelim: bool = True,
                 lockset: bool = True,
                 backend: Optional[str] = None,
                 collect_sites: bool = True,
                 ) -> ScheduleOutcome:
    """Executes one (seed, policy) schedule and reduces it to an
    outcome.  ``checkelim=False`` ablates the static check eliminator
    and ``lockset=False`` the locked(l) lockset refinement — every
    outcome field is guaranteed identical any way (the soundness
    gates of both passes), so sweeps default to both on.  ``backend``
    picks the executor; outcomes are backend-invariant by the same
    guarantee (bit-identical steps, reports, and traces by seed).

    ``collect_sites=False`` skips encoding the per-check-site
    attribution into the outcome, so campaign workers can sample it
    1-in-N.  Every other field is unaffected."""
    from repro.obs.sitestats import encode_sites
    from repro.runtime.interp import run_checked

    checked = _checked_program(source, filename)
    world = world_factory() if world_factory is not None else None
    result = run_checked(checked, seed=seed, policy=policy,
                         checker=checker, max_steps=max_steps,
                         max_burst=max_burst, world=world,
                         shadow_bytes=shadow_bytes,
                         checkelim=checkelim, lockset=lockset,
                         record_trace=True, backend=backend)
    trace = result.trace or []
    return ScheduleOutcome(
        seed=seed, policy=policy, checker=checker,
        report_keys=tuple(sorted(result.report_counts)),
        reports=len(result.reports),
        steps=result.stats.steps_total,
        switches=max(0, len(trace) - 1),
        trace_hash=trace_hash(trace),
        deadlock=result.deadlock is not None,
        error=result.error,
        timeout=result.timeout,
        check_updates=result.stats.shadow_updates,
        check_fastpath=result.stats.shadow_fastpath_hits,
        sites=(encode_sites(result.stats.sites) if collect_sites
               else ()),
    )


# -- the sweep -------------------------------------------------------------


def _resolve_policies(policies: Sequence[str], source: str,
                      filename: str, checker: str, max_steps: int,
                      max_burst: int,
                      world_factory: Optional[Callable],
                      shadow_bytes: int = DEFAULT_SHADOW_BYTES,
                      ) -> tuple[str, ...]:
    """Pins PCT's horizon to the measured program length.

    PCT's probabilistic guarantee assumes its horizon approximates the
    program's actual scheduled-item count ``k``; the stock default
    (4000) makes change points land past the end of short programs and
    the policy silently degenerates to a priority-ordered serial run.
    ``pct`` / ``pct:D`` specs therefore get ``k`` measured with one
    serial run appended — yielding a fully explicit ``pct:D:k`` spec, so
    every outcome stays replayable verbatim.  Specs that already carry a
    horizon are left alone, and so is every spec when the program does
    not compile: each schedule then records the ``CompileError``.

    The measured horizon is cached alongside ``_CHECK_CACHE``, keyed by
    ``(source hash, checker, max_steps, max_burst, shadow_bytes)``, so
    repeated sweeps of the same source — campaign shards above all —
    pay the serial probe run exactly once per process.
    """
    from repro.compile.closures import CompileError
    from repro.runtime.interp import run_checked

    def needs_horizon(spec: str) -> bool:
        return spec == "pct" or (spec.startswith("pct:")
                                 and spec.count(":") == 1)

    if not any(needs_horizon(p) for p in policies):
        return tuple(policies)
    cache_key = (_source_hash(source), checker, max_steps, max_burst,
                 shadow_bytes)
    horizon = _HORIZON_CACHE.get(cache_key)
    if horizon is None:
        checked = _checked_program(source, filename)
        world = world_factory() if world_factory is not None else None
        try:
            probe = run_checked(checked, seed=0, policy="serial",
                                checker=checker, max_steps=max_steps,
                                max_burst=max_burst, world=world,
                                shadow_bytes=shadow_bytes,
                                record_trace=True)
        except CompileError:
            return tuple(policies)  # every schedule records the error
        horizon = max(1, sum(n for _, n in (probe.trace or [])))
        _HORIZON_CACHE[cache_key] = horizon
    resolved = []
    for spec in policies:
        if needs_horizon(spec):
            depth = spec.partition(":")[2] or "3"
            spec = f"pct:{depth}:{horizon}"
        resolved.append(spec)
    return tuple(resolved)


#: seeds per batch task when a sweep fans out over processes: enough to
#: amortize the per-batch IPC, few enough that results, progress and
#: telemetry heartbeats still stream (one heartbeat per batch)
FANOUT_BATCH = 8


def explore_source(source: str, filename: str = "<input>", *,
                   seeds: int = 50, seed_start: int = 0,
                   policies: Sequence[str] = DEFAULT_POLICIES,
                   checker: str = "sharc", jobs: int = 1,
                   max_steps: int = DEFAULT_MAX_STEPS,
                   max_burst: int = 8,
                   world_factory: Optional[Callable] = None,
                   shadow_bytes: int = DEFAULT_SHADOW_BYTES,
                   backend: Optional[str] = None,
                   telemetry=None,
                   progress: Optional[Callable] = None,
                   ) -> ExplorationSummary:
    """Sweeps ``seeds x policies`` schedules of one program.

    The grid runs through the campaign engine's batch worker
    (:mod:`repro.explore.campaign`), one cell per policy: inline with
    one seed per batch at ``jobs=1``, else over a pool of ``jobs``
    processes that receive the source once, in batches of
    :data:`FANOUT_BATCH` seeds.  Either way outcomes fold in the
    deterministic sweep order — policy rank, then seed — so every
    ``jobs`` value yields the same summary.  ``world_factory`` (a
    picklable zero-argument callable) rebuilds the simulated I/O world
    per run so runs stay independent.  A schedule whose run crashes is
    recorded as an error-tagged outcome instead of aborting the sweep,
    and Ctrl-C returns the partial summary (``interrupted=True``)
    instead of discarding collected outcomes.

    ``telemetry`` (a :class:`repro.obs.telemetry.TelemetryWriter`)
    streams heartbeat records per result batch; ``progress`` is called
    as ``progress(done, total, summary)`` after every outcome.  Both
    observe the sweep without perturbing it — outcomes are computed
    before either hook runs.
    """
    # campaign imports this module, so its worker is imported lazily
    from repro.explore import campaign
    from repro.obs.sitestats import merge_sites

    summary = ExplorationSummary(filename=filename, checker=checker,
                                 policies=tuple(policies))
    with summary.profiler.phase("check"):
        _checked_program(source, filename)  # fail fast, warm the cache
    with summary.profiler.phase("resolve-policies"):
        policies = _resolve_policies(policies, source, filename,
                                     checker, max_steps, max_burst,
                                     world_factory, shadow_bytes)
    summary.policies = policies
    total = seeds * len(policies)
    per = FANOUT_BATCH if jobs > 1 else 1
    batches = [batch for policy in policies
               for batch in campaign._cell_batches(
                   filename, policy, seed_start, seeds, per)]
    if telemetry is not None:
        telemetry.begin_sweep(filename, checker, policies, total,
                              backend=backend)

    pool = None
    with summary.profiler.phase("sweep"):
        try:
            pool = campaign._start_workers(
                [campaign.CampaignTarget(
                    label=filename, source=source, filename=filename,
                    max_steps=max_steps, world_factory=world_factory)],
                jobs, checker=checker, max_burst=max_burst,
                shadow_bytes=shadow_bytes, backend=backend,
                sites_every=1)
            results = campaign._run_batches(batches, pool)
            for (_, policy, _, _), (_, rows, sites) in zip(batches,
                                                           results):
                if sites:
                    merge_sites(summary.site_totals, sites)
                for row in rows:
                    outcome = campaign._row_outcome(row, policy, checker)
                    summary.add(outcome)
                    if telemetry is not None:
                        telemetry.record_outcome(outcome)
                    if progress is not None:
                        progress(summary.schedules, total, summary)
        except KeyboardInterrupt:
            summary.interrupted = True
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()
    if telemetry is not None:
        telemetry.end_sweep(summary)
    summary.profiler.count("schedules", summary.schedules)
    summary.profiler.count("failing_schedules", len(summary.failures))
    summary.profiler.count("distinct_traces", summary.distinct_traces)
    return summary


def explore_workload(name: str, *, annotated: bool = True,
                     **kwargs) -> ExplorationSummary:
    """Sweeps one of the Table 1 workload models by name."""
    from repro.bench.workloads import get_workload

    workload = get_workload(name)
    source = (workload.annotated_source if annotated
              else workload.unannotated_source)
    kwargs.setdefault("max_steps", workload.max_steps)
    kwargs.setdefault("world_factory", workload.world_factory)
    return explore_source(source, f"{name}.c", **kwargs)
