"""The fleet-scale campaign engine: resumable sharded sweeps.

:func:`repro.explore.driver.explore_source` sweeps one program's
``seeds x policies`` grid in memory; a *campaign* runs many workloads
under a large schedule budget, and at that scale it adds durability and
coverage-guided budget on top of the same batch worker:

**Worker efficiency.**  The batch worker — :func:`_start_workers`,
:func:`_run_shard_batch` and the pool-or-inline :func:`_run_batches`,
which ``explore_source`` drives too — receives every target's source
and the sweep settings exactly once, through the pool initializer; a
task is ``(label, policy, seed_start, count)`` and one worker runs the
whole batch, merging sampled site attribution and compacting outcomes
worker-side so IPC cost is per-batch, not per-schedule.  Each worker
checks and compiles a target once (per-process check cache + a compile
cache keyed by ``(source hash, backend)``), and the campaign defaults
to the compiled backend — bit-identical to the tree-walker by seed,
several times faster per schedule.

**Durability.**  Work is carved into *shards* — contiguous seed ranges
of one ``(target, policy)`` cell — leased through the append-only
:class:`repro.explore.queue.WorkQueue` and folded strictly in lease
order.  Each shard's result is written atomically before its ``done``
record; the distinct-trace set lives in the on-disk
:class:`repro.explore.corpus.TraceCorpus`, flushed per shard.  A killed
campaign resumes with ``sharc campaign --resume DIR``: the completed
prefix is refolded from disk (schedules are deterministic, so refolds
reproduce the live fold exactly) and the run continues from the first
missing shard.  The final summary is **bit-identical** to an
uninterrupted run — property-tested across kill points and backends.

**Coverage-guided scheduling.**  Budget beyond the first round-robin
pass flows to the ``(target, policy)`` cells whose recent
new-distinct-trace rate is highest — cells that stopped producing new
interleavings stop consuming budget.  The pick is deterministic (rate,
then fewest schedules spent, then lexicographic cell key) and every
pick is recorded in the lease log, so the campaign's entire schedule
replays from ``queue.jsonl``.

Everything the engine persists is wall-clock-free; rates and ETAs go
through the PR-8 telemetry stream (``telemetry.jsonl``) instead, which
``sharc status`` and ``sharc report`` already consume.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.explore.corpus import TraceCorpus
from repro.explore.driver import (
    DEFAULT_MAX_STEPS, DEFAULT_POLICIES, DEFAULT_SHADOW_BYTES,
    ScheduleOutcome, _checked_program, _resolve_policies,
    _source_hash, run_schedule,
)
from repro.explore.queue import WorkQueue
from repro.runtime.profile import Profiler

#: shard rows carry encoded site counters in the current
#: :data:`repro.obs.sitestats.SITE_FIELDS` layout; bump both tags when
#: it changes, so :func:`load_manifest` refuses an older directory
#: rather than merge rows of two layouts
CAMPAIGN_SCHEMA = "sharc-campaign/2"
SHARD_SCHEMA = "sharc-campaign-shard/2"

#: default shard size: large enough to amortize fold/flush overhead,
#: small enough that kill-and-resume loses little work and coverage
#: feedback stays responsive
DEFAULT_SHARD_SIZE = 32

#: sample full per-site attribution on one seed in N (0 disables);
#: attribution is observational, so sampling changes summary site
#: totals but no schedule outcome
DEFAULT_SITES_EVERY = 8

#: how many recent shards of a cell feed its new-trace rate
RATE_WINDOW = 4

MANIFEST_NAME = "campaign.json"
CORPUS_NAME = "corpus.txt"
SUMMARY_NAME = "summary.json"


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class CampaignTarget:
    """One program a campaign sweeps.

    ``workload`` names a registry workload
    (:func:`repro.bench.workloads.get_workload`) so resume can rebuild
    the unpicklable ``world_factory``; file targets leave it ``None``
    and their source is persisted under ``sources/`` instead.
    """

    label: str
    source: str
    filename: str
    max_steps: int = DEFAULT_MAX_STEPS
    world_factory: Optional[Callable] = None
    workload: Optional[str] = None

    @staticmethod
    def from_workload(name: str, *, annotated: bool = True,
                      max_steps: Optional[int] = None,
                      ) -> "CampaignTarget":
        from repro.bench.workloads import get_workload

        workload = get_workload(name)
        return CampaignTarget(
            label=name,
            source=(workload.annotated_source if annotated
                    else workload.unannotated_source),
            filename=f"{name}.c",
            max_steps=(workload.max_steps if max_steps is None
                       else max_steps),
            world_factory=workload.world_factory,
            workload=name)

    @staticmethod
    def from_file(path: str, *,
                  max_steps: int = DEFAULT_MAX_STEPS,
                  ) -> "CampaignTarget":
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        base = os.path.basename(path)
        return CampaignTarget(label=os.path.splitext(base)[0],
                              source=source, filename=base,
                              max_steps=max_steps)


@dataclass(frozen=True)
class CampaignConfig:
    """The deterministic knobs of a campaign (everything here is
    persisted in the manifest and restored verbatim on resume;
    ``jobs`` is the one exception — it never affects results, only
    wall-clock, so resume may override it)."""

    budget: int = 1000
    shard_size: int = DEFAULT_SHARD_SIZE
    jobs: int = 1
    policies: tuple[str, ...] = DEFAULT_POLICIES
    checker: str = "sharc"
    backend: str = "compiled"
    max_burst: int = 8
    shadow_bytes: int = DEFAULT_SHADOW_BYTES
    sites_every: int = DEFAULT_SITES_EVERY
    seed_start: int = 0

    def as_dict(self) -> dict:
        return {
            "budget": self.budget, "shard_size": self.shard_size,
            "jobs": self.jobs, "policies": list(self.policies),
            "checker": self.checker, "backend": self.backend,
            "max_burst": self.max_burst,
            "shadow_bytes": self.shadow_bytes,
            "sites_every": self.sites_every,
            "seed_start": self.seed_start,
        }

    @staticmethod
    def from_dict(data: dict) -> "CampaignConfig":
        return CampaignConfig(
            budget=int(data["budget"]),
            shard_size=int(data["shard_size"]),
            jobs=int(data.get("jobs", 1)),
            policies=tuple(data["policies"]),
            checker=data["checker"], backend=data["backend"],
            max_burst=int(data["max_burst"]),
            shadow_bytes=int(data["shadow_bytes"]),
            sites_every=int(data["sites_every"]),
            seed_start=int(data.get("seed_start", 0)))


# -- worker side --------------------------------------------------------------
#
# This is the one sweep worker: run_campaign and explore_source both
# start it through _start_workers.  The pool initializer (or, at
# jobs=1, a direct call) ships every target's source and the sweep
# settings ONCE per worker process; batch tasks then carry only
# (label, policy, seed_start, count).  Workers check + compile each
# target lazily on first use; the check is cached per process by source
# and the compile memoised on the checked program, so the compiled
# backend pays its compile exactly once per worker instead of once per
# schedule.

_WORKER: dict = {"targets": None, "settings": None}


def _campaign_worker_init(targets: dict, settings: dict) -> None:
    _WORKER["targets"] = targets
    _WORKER["settings"] = settings


def _warm_target(label: str):
    """Check one target (cached per process).  The compiled backend
    compiles it in the first schedule's run, inside the per-seed
    ``try``, so a ``CompileError`` is an error row like any crash."""
    target = _WORKER["targets"][label]
    _checked_program(target["source"], target["filename"])
    return target


def _run_shard_batch(task: tuple) -> tuple:
    """Runs one batch of contiguous seeds of one (target, policy) cell
    entirely worker-side and returns a compact, JSON-ready payload:
    one small row per schedule plus the batch's merged (sampled) site
    attribution.  IPC cost is therefore per-batch, not per-schedule."""
    from repro.obs.sitestats import encode_sites, merge_sites

    label, policy, seed_start, count = task
    target = _warm_target(label)
    settings = _WORKER["settings"]
    sites_every = settings["sites_every"]
    rows = []
    sites: dict = {}
    for seed in range(seed_start, seed_start + count):
        collect = sites_every > 0 and seed % sites_every == 0
        try:
            out = run_schedule(
                target["source"], target["filename"], seed, policy,
                settings["checker"], target["max_steps"],
                settings["max_burst"], target["world_factory"],
                settings["shadow_bytes"],
                backend=settings["backend"], collect_sites=collect)
        except Exception as exc:  # noqa: BLE001 - sweep survival
            # A crashing schedule (interpreter bug, bad world) becomes
            # an error row; its empty trace keeps it out of coverage.
            rows.append({"seed": seed,
                         "error": f"{type(exc).__name__}: {exc}"})
            continue
        if out.sites:
            merge_sites(sites, out.sites)
        row = {"seed": seed, "trace": out.trace_hash,
               "steps": out.steps, "switches": out.switches,
               "cu": out.check_updates, "cf": out.check_fastpath}
        if out.reports:
            row["reports"] = out.reports
            row["keys"] = list(out.report_keys)
        if out.deadlock:
            row["deadlock"] = True
        if out.timeout:
            row["timeout"] = True
        if out.error:
            row["error"] = out.error
        rows.append(row)
    return (seed_start, rows, encode_sites(sites))


def _row_outcome(row: dict, policy: str, checker: str,
                 ) -> ScheduleOutcome:
    """Rehydrates a shard row into the outcome shape the summary,
    telemetry, and replay tooling already speak."""
    return ScheduleOutcome(
        seed=int(row["seed"]), policy=policy, checker=checker,
        report_keys=tuple(row.get("keys", ())),
        reports=int(row.get("reports", 0)),
        steps=int(row.get("steps", 0)),
        switches=int(row.get("switches", 0)),
        trace_hash=row.get("trace", ""),
        deadlock=bool(row.get("deadlock", False)),
        error=row.get("error"),
        timeout=bool(row.get("timeout", False)),
        check_updates=int(row.get("cu", 0)),
        check_fastpath=int(row.get("cf", 0)))


def _cell_batches(label: str, policy: str, seed_start: int, seeds: int,
                  per: int) -> list[tuple]:
    """Carves ``seeds`` contiguous seeds of one (target, policy) cell
    into batch tasks of at most ``per`` seeds each, in seed order."""
    end = seed_start + seeds
    return [(label, policy, start, min(per, end - start))
            for start in range(seed_start, end, per)]


def _start_workers(targets: Sequence[CampaignTarget], jobs: int, *,
                   checker: str, max_burst: int, shadow_bytes: int,
                   backend: Optional[str], sites_every: int):
    """Initialises the batch worker with every target's source and the
    sweep settings: a pool of ``jobs`` processes when ``jobs > 1``
    (returned; the caller terminates it), else this process (returns
    ``None``)."""
    targets_blob = {
        t.label: {"source": t.source, "filename": t.filename,
                  "max_steps": t.max_steps,
                  "world_factory": t.world_factory}
        for t in targets}
    settings = {"checker": checker, "max_burst": max_burst,
                "shadow_bytes": shadow_bytes, "backend": backend,
                "sites_every": sites_every}
    if jobs > 1:
        return multiprocessing.Pool(
            jobs, initializer=_campaign_worker_init,
            initargs=(targets_blob, settings))
    _campaign_worker_init(targets_blob, settings)
    return None


def _run_batches(batches: Sequence[tuple], pool):
    """Runs batch tasks through ``pool`` (inline when it is ``None``)
    and yields their results lazily, in task order."""
    if pool is None:
        return map(_run_shard_batch, batches)
    return pool.imap(_run_shard_batch, batches)


# -- cells and coverage-guided picking ----------------------------------------


@dataclass
class _Cell:
    """One (target, policy) coordinate of the campaign grid."""

    label: str
    policy: str
    next_seed: int
    spent: int = 0
    shards: int = 0
    #: (schedules, new distinct traces) of the last RATE_WINDOW shards
    recent: list = field(default_factory=list)

    def rate(self) -> Optional[float]:
        if not self.recent:
            return None
        schedules = sum(n for n, _ in self.recent)
        if not schedules:
            return None
        return sum(new for _, new in self.recent) / schedules

    def record(self, schedules: int, new_traces: int) -> None:
        self.spent += schedules
        self.shards += 1
        self.recent.append((schedules, new_traces))
        del self.recent[:-RATE_WINDOW]


def _pick_cell(cells: Sequence[_Cell]) -> tuple[_Cell, Optional[float]]:
    """The coverage-guided pick: unexplored cells first (declaration
    order via the tie-break), then highest recent new-trace rate;
    ties go to the cell with fewest schedules spent, then the
    lexicographically smallest (label, policy).  Fully deterministic —
    the chosen rate is recorded in the lease so campaigns replay."""
    def key(cell: _Cell):
        rate = cell.rate()
        explored = 0 if cell.shards == 0 else 1
        return (explored, -(rate if rate is not None else 0.0),
                cell.spent, cell.label, cell.policy)

    best = min(cells, key=key)
    return best, best.rate()


# -- the summary --------------------------------------------------------------


@dataclass
class CampaignSummary:
    """Everything one campaign measured, deterministically.

    The summary is rebuilt identically whether shards were folded live
    or refolded from disk after a resume — ``as_dict()`` contains no
    wall-clock field, which is what makes the bit-identical-resume
    guarantee testable on the serialized form.  Attribute names shadow
    :class:`~repro.explore.driver.ExplorationSummary` where the PR-8
    telemetry protocol expects them (``schedules``, ``failures``,
    ``crashes``, ``distinct_traces``, ``interrupted``...).
    """

    directory: str
    budget: int
    checker: str
    backend: str
    policies: tuple[str, ...]
    labels: tuple[str, ...]
    schedules: int = 0
    steps_total: int = 0
    shards_done: int = 0
    failures: list = field(default_factory=list)
    crashes: list = field(default_factory=list)
    #: report key -> (label, outcome), "first" by the deterministic
    #: campaign coordinates (label, policy rank, seed) — independent of
    #: which cell the coverage-guided pick ran first
    first_failures: dict = field(default_factory=dict)
    per_cell: dict = field(default_factory=dict)
    site_totals: dict = field(default_factory=dict)
    distinct_traces: int = 0
    new_trace_count: int = 0
    complete: bool = False
    interrupted: bool = False
    profiler: Profiler = field(default_factory=Profiler)

    @property
    def filename(self) -> str:
        return f"campaign:{','.join(self.labels)}"

    def coord_key(self, label: str, outcome: ScheduleOutcome) -> tuple:
        try:
            rank = self.policies.index(outcome.policy)
        except ValueError:
            rank = len(self.policies)
        return (label, rank, outcome.policy, outcome.seed)

    def add(self, label: str, outcome: ScheduleOutcome,
            new_trace: bool) -> None:
        self.schedules += 1
        self.steps_total += outcome.steps
        cell = self.per_cell.setdefault(
            (label, outcome.policy),
            {"schedules": 0, "failures": 0, "crashes": 0,
             "new_traces": 0})
        cell["schedules"] += 1
        if not outcome.trace_hash:
            self.crashes.append((label, outcome))
            cell["crashes"] += 1
            return
        if new_trace:
            self.new_trace_count += 1
            cell["new_traces"] += 1
        if outcome.failing:
            self.failures.append((label, outcome))
            cell["failures"] += 1
            for key in outcome.report_keys:
                held = self.first_failures.get(key)
                if held is None or (self.coord_key(label, outcome)
                                    < self.coord_key(*held)):
                    self.first_failures[key] = (label, outcome)

    @property
    def completed_schedules(self) -> int:
        return self.schedules - len(self.crashes)

    @property
    def races_per_1k(self) -> float:
        if not self.completed_schedules:
            return 0.0
        return 1000.0 * len(self.failures) / self.completed_schedules

    def as_dict(self) -> dict:
        from repro.obs.sitestats import totals

        return {
            "schema": CAMPAIGN_SCHEMA,
            "targets": list(self.labels),
            "checker": self.checker,
            "backend": self.backend,
            "policies": list(self.policies),
            "budget": self.budget,
            "schedules": self.schedules,
            "steps_total": self.steps_total,
            "shards_done": self.shards_done,
            "failing_schedules": len(self.failures),
            "crashed_schedules": len(self.crashes),
            "completed_schedules": self.completed_schedules,
            "races_per_1k": round(self.races_per_1k, 3),
            "distinct_traces": self.distinct_traces,
            "complete": self.complete,
            "interrupted": self.interrupted,
            "crashes": [
                {"target": label, "seed": o.seed, "policy": o.policy,
                 "error": o.error}
                for label, o in sorted(
                    self.crashes,
                    key=lambda lo: self.coord_key(*lo))],
            "distinct_reports": sorted(self.first_failures),
            "first_failures": {
                key: {"target": label, "seed": o.seed,
                      "policy": o.policy}
                for key, (label, o) in self.first_failures.items()},
            "cells": {
                f"{label}/{policy}": dict(stats)
                for (label, policy), stats in sorted(
                    self.per_cell.items())},
            "site_totals": totals(self.site_totals),
        }

    def render(self) -> str:
        lines = [
            f"campaign over {len(self.labels)} target(s) "
            f"[{self.checker}, {self.backend}] — "
            f"{self.schedules}/{self.budget} schedules in "
            f"{self.shards_done} shard(s)",
            f"  distinct context-switch traces: {self.distinct_traces}",
            f"  failing schedules: {len(self.failures)} "
            f"({self.races_per_1k:.1f} races / 1k schedules)",
        ]
        if self.interrupted:
            lines.append("  (campaign interrupted; resume with "
                         f"`sharc campaign --resume {self.directory}`)")
        elif not self.complete:
            lines.append("  (campaign paused; resume with "
                         f"`sharc campaign --resume {self.directory}`)")
        if self.crashes:
            label, first = min(self.crashes,
                               key=lambda lo: self.coord_key(*lo))
            lines.append(f"  crashed schedules: {len(self.crashes)} "
                         f"(first: {first.error} at {label} "
                         f"{first.replay_coords()})")
        for (label, policy), stats in sorted(self.per_cell.items()):
            lines.append(
                f"  {label + '/' + policy:<24} "
                f"{stats['failures']:>4}/{stats['schedules']:<5}"
                f" failing, {stats['new_traces']} new traces")
        if self.first_failures:
            lines.append("  first failure per report:")
            for key, (label, o) in sorted(self.first_failures.items()):
                lines.append(
                    f"    {key}  ->  replay with sharc explore "
                    f"{label}: {o.replay_coords()}")
        else:
            lines.append("  no failing schedule found")
        return "\n".join(lines)


# -- the manifest -------------------------------------------------------------


def _write_manifest(directory: str, targets: Sequence[CampaignTarget],
                    config: CampaignConfig,
                    resolved: dict[str, tuple[str, ...]]) -> None:
    sources_dir = os.path.join(directory, "sources")
    os.makedirs(sources_dir, exist_ok=True)
    entries = []
    for target in targets:
        source_rel = os.path.join("sources", f"{target.label}.c")
        with open(os.path.join(directory, source_rel), "w",
                  encoding="utf-8") as handle:
            handle.write(target.source)
        entries.append({
            "label": target.label,
            "filename": target.filename,
            "max_steps": target.max_steps,
            "workload": target.workload,
            "source": source_rel,
            "source_sha1": _source_hash(target.source),
            "policies": list(resolved[target.label]),
        })
    manifest = {"schema": CAMPAIGN_SCHEMA,
                "config": config.as_dict(), "targets": entries}
    path = os.path.join(directory, MANIFEST_NAME)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def load_manifest(directory: str) -> dict:
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("schema") != CAMPAIGN_SCHEMA:
        raise ValueError(f"{path}: unknown campaign schema "
                         f"{manifest.get('schema')!r}")
    return manifest


def _targets_from_manifest(directory: str, manifest: dict,
                           ) -> tuple[list[CampaignTarget],
                                      dict[str, tuple[str, ...]]]:
    """Rebuilds targets for a resume: sources come from the persisted
    ``sources/`` copies (so the campaign sweeps exactly what it swept
    before, even if the original file changed), world factories are
    re-fetched from the workload registry by name."""
    targets = []
    resolved: dict[str, tuple[str, ...]] = {}
    for entry in manifest["targets"]:
        path = os.path.join(directory, entry["source"])
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        if _source_hash(source) != entry["source_sha1"]:
            raise ValueError(
                f"{path}: persisted source hash mismatch — campaign "
                f"directory was modified; cannot resume safely")
        world_factory = None
        if entry["workload"]:
            from repro.bench.workloads import get_workload

            world_factory = get_workload(entry["workload"]).world_factory
        targets.append(CampaignTarget(
            label=entry["label"], source=source,
            filename=entry["filename"],
            max_steps=int(entry["max_steps"]),
            world_factory=world_factory,
            workload=entry["workload"]))
        resolved[entry["label"]] = tuple(entry["policies"])
    return targets, resolved


# -- the engine ---------------------------------------------------------------


def _run_shard(shard: dict, pool, jobs: int) -> dict:
    """Executes one shard as at most ``jobs`` contiguous batches and
    folds them into the canonical shard payload: rows in seed order,
    batch site merges folded in seed_start order.  Row content is
    batch-boundary-independent and site merging is commutative, so the
    payload is identical for every ``jobs`` value — only wall-clock
    changes."""
    from repro.obs.sitestats import encode_sites, merge_sites

    per = max(1, -(-shard["seeds"] // max(1, jobs)))
    batches = _cell_batches(shard["label"], shard["policy"],
                            shard["seed_start"], shard["seeds"], per)
    rows: list = []
    sites: dict = {}
    for _, batch_rows, batch_sites in _run_batches(batches, pool):
        rows.extend(batch_rows)
        if batch_sites:
            merge_sites(sites, batch_sites)
    return {"schema": SHARD_SCHEMA, "shard": shard["shard"],
            "label": shard["label"], "policy": shard["policy"],
            "seed_start": shard["seed_start"],
            "seeds": shard["seeds"], "rows": rows,
            "sites": encode_sites(sites)}


def _fold_shard(summary: CampaignSummary, lease: dict, payload: dict,
                corpus: TraceCorpus, telemetry=None) -> int:
    """Folds one shard payload into the summary + corpus and returns
    how many of its traces were new.  Rows fold in seed order; this is
    the ONE fold path — live shards and resume refolds both go through
    it, which is what makes resumed summaries bit-identical."""
    from repro.obs.sitestats import merge_sites

    label, policy = lease["label"], lease["policy"]
    new_traces = 0
    for row in sorted(payload["rows"], key=lambda r: r["seed"]):
        outcome = _row_outcome(row, policy, summary.checker)
        is_new = bool(outcome.trace_hash) and corpus.add(
            outcome.trace_hash)
        if is_new:
            new_traces += 1
        summary.add(label, outcome, is_new)
        if telemetry is not None:
            telemetry.record_outcome(outcome)
    if payload.get("sites"):
        merge_sites(summary.site_totals, payload["sites"])
    summary.distinct_traces = len(corpus)
    summary.shards_done += 1
    return new_traces


def run_campaign(targets: Optional[Sequence[CampaignTarget]],
                 directory: str, *,
                 config: Optional[CampaignConfig] = None,
                 resume: bool = False,
                 stop_after: Optional[int] = None,
                 telemetry=None,
                 progress: Optional[Callable] = None,
                 ) -> CampaignSummary:
    """Runs (or resumes) one campaign in ``directory``.

    Fresh campaigns need ``targets`` and ``config``; a resume reads
    both from the persisted manifest (``targets``/``config`` are then
    ignored except ``config.jobs``, which only affects wall-clock).
    ``stop_after`` caps how many *new* shards this invocation runs —
    checkpointing for long campaigns and the kill-simulation hook the
    resume property tests drive.  ``progress`` is called as
    ``progress(done_schedules, budget, summary)`` after every folded
    shard.

    Returns the :class:`CampaignSummary`; when the budget is exhausted
    ``summary.complete`` is set and ``summary.json`` is written (its
    bytes are deterministic — no wall-clock fields — so resumed and
    uninterrupted campaigns produce identical files).
    """
    os.makedirs(directory, exist_ok=True)
    queue = WorkQueue(directory)

    if resume:
        manifest = load_manifest(directory)
        jobs = config.jobs if config is not None else None
        config = CampaignConfig.from_dict(manifest["config"])
        if jobs is not None:
            config = CampaignConfig.from_dict(
                {**config.as_dict(), "jobs": jobs})
        targets, resolved = _targets_from_manifest(directory, manifest)
    else:
        if not targets:
            raise ValueError("a fresh campaign needs at least one "
                             "target")
        config = config or CampaignConfig()
        resolved = {}
        for target in targets:
            resolved[target.label] = _resolve_policies(
                config.policies, target.source, target.filename,
                config.checker, target.max_steps, config.max_burst,
                target.world_factory, config.shadow_bytes)
        _write_manifest(directory, targets, config, resolved)

    labels = tuple(t.label for t in targets)
    all_policies = tuple(dict.fromkeys(
        p for label in labels for p in resolved[label]))
    summary = CampaignSummary(
        directory=directory, budget=config.budget,
        checker=config.checker, backend=config.backend,
        policies=all_policies, labels=labels)
    corpus = TraceCorpus(os.path.join(directory, CORPUS_NAME))
    cells = [_Cell(label=label, policy=policy,
                   next_seed=config.seed_start)
             for label in labels for policy in resolved[label]]
    cell_index = {(c.label, c.policy): c for c in cells}

    # Refold the completed prefix, in lease order, through the same
    # fold path live shards use.  The corpus working set starts empty,
    # so per-shard new-trace counts — and therefore every subsequent
    # coverage-guided pick — replay exactly.
    scheduled = 0
    with summary.profiler.phase("refold"):
        for lease in queue.completed():
            payload = queue.load_shard(lease["shard"])
            new = _fold_shard(summary, lease, payload, corpus)
            cell = cell_index[(lease["label"], lease["policy"])]
            cell.record(lease["seeds"], new)
            cell.next_seed = max(cell.next_seed,
                                 lease["seed_start"] + lease["seeds"])
            scheduled += lease["seeds"]
    shard_id = summary.shards_done

    if telemetry is not None:
        # The telemetry stream narrates THIS invocation: a resume
        # plans only the remaining schedules, so its progress bar and
        # ETA are honest about the work actually left.
        telemetry.begin_sweep(summary.filename, config.checker,
                              all_policies,
                              max(0, config.budget - scheduled),
                              backend=config.backend)

    pool = None
    shards_run = 0
    try:
        pool = _start_workers(
            targets, config.jobs, checker=config.checker,
            max_burst=config.max_burst,
            shadow_bytes=config.shadow_bytes, backend=config.backend,
            sites_every=config.sites_every)
        with summary.profiler.phase("sweep"):
            while scheduled < config.budget:
                if stop_after is not None and shards_run >= stop_after:
                    break
                cell, rate = _pick_cell(cells)
                seeds = min(config.shard_size,
                            config.budget - scheduled)
                shard = {"shard": shard_id, "label": cell.label,
                         "policy": cell.policy,
                         "seed_start": cell.next_seed, "seeds": seeds}
                queue.lease(shard, rate=rate, picked=shard_id)
                payload = _run_shard(shard, pool, config.jobs)
                new = _fold_shard(summary, shard, payload, corpus,
                                  telemetry=telemetry)
                corpus.flush()
                queue.write_shard(shard_id, payload)
                queue.mark_done(shard_id)
                cell.record(seeds, new)
                cell.next_seed += seeds
                scheduled += seeds
                shard_id += 1
                shards_run += 1
                if progress is not None:
                    progress(scheduled, config.budget, summary)
    except KeyboardInterrupt:
        summary.interrupted = True
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()

    summary.complete = (scheduled >= config.budget
                        and not summary.interrupted)
    summary.profiler.count("schedules", summary.schedules)
    summary.profiler.count("distinct_traces", summary.distinct_traces)
    if telemetry is not None:
        telemetry.end_sweep(summary)
    if summary.complete:
        path = os.path.join(directory, SUMMARY_NAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(summary.as_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    return summary


__all__ = [
    "CAMPAIGN_SCHEMA", "SHARD_SCHEMA", "CampaignConfig",
    "CampaignSummary", "CampaignTarget", "DEFAULT_SHARD_SIZE",
    "DEFAULT_SITES_EVERY", "RATE_WINDOW", "load_manifest",
    "run_campaign",
]
