"""The benchmark's three workloads, one per ``sharc`` command.

Each workload builds its inputs from the seed at construction (set-up)
and then runs *passes*: a fixed set of ops whose source text carries a
``// pass N`` line, so that no check or compile cache inside the program
can serve a repeat and every op pays what a one-shot process pays.

- ``table1``: the ``sharc run`` path over the 12 Table 1 model variants.
- ``campaign``: one ``run_campaign`` (jobs=1, compiled backend) over the
  unannotated aget, dillo and stunnel models at a fixed budget.
- ``fuzz``: two ``sample_specs`` scenarios per family, the same ones
  every pass, each through ``fuzz_scenario`` with shrinking on.

Library functions are looked up on their modules at call time, so a
tracer installed with :class:`spans.Tracer` sees every call.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class PassResult:
    """What one pass measured.  ``intervals`` are the (start, end)
    ``perf_counter`` stamps of the pass's timed parts; the ``between``
    hook runs outside them.  ``op_ms[i]`` is the op sample taken over
    ``intervals[i]`` (for ``campaign``, per schedule averaged over a
    shard).  ``work`` counts the ops ``ops_per_s`` divides by."""

    intervals: list
    op_ms: list
    work: int
    attempted: int
    failures: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.intervals)


def overhead_facts(pairs: list, race_keys: int) -> dict:
    """The deterministic end-to-end metrics of a workload's first pass.
    ``pairs`` holds (instrumented steps / base steps, memory overhead)
    per program; like ``repro.bench.table1.averages``, the time and
    memory overheads are arithmetic means (a memory overhead can be 0,
    which rules out a geometric mean)."""
    return {"step_overhead": statistics.fmean(p[0] - 1.0 for p in pairs),
            "mem_overhead": statistics.fmean(p[1] for p in pairs),
            "race_keys": race_keys}


def run_pair(checked, **kwargs) -> tuple:
    """One instrumented and one uninstrumented run at the same
    coordinates: (instrumented steps / base steps, memory overhead)."""
    from repro.runtime import interp

    world = kwargs.pop("world_factory", None)
    sharc = interp.run_checked(checked, world=world() if world else None,
                               **kwargs)
    base = interp.run_checked(checked, world=world() if world else None,
                              instrument=False, **kwargs)
    return (sharc.stats.steps_total / base.stats.steps_total,
            sharc.stats.memory_overhead())


def _tagged(source: str, n: int) -> str:
    return f"{source}\n// pass {n}\n"


def _idle() -> None:
    """The default ``between`` hook of ``run_pass``."""


def _ms(intervals: list) -> list:
    return [(end - start) * 1e3 for start, end in intervals]


# -- table1 ---------------------------------------------------------------


@dataclass
class Variant:
    name: str
    source: str
    annotated: bool
    sched_seed: int
    world_factory: object
    policy: str
    max_steps: int

    @property
    def filename(self) -> str:
        return f"{self.name}.c"

    def verdict_ok(self, checked, result) -> bool:
        """Annotated variants report nothing, unannotated ones report
        at least once, and no run errors, deadlocks or times out."""
        return (checked.ok and result.error is None
                and result.deadlock is None and not result.timeout
                and bool(result.reports) != self.annotated)


class Table1:

    def __init__(self, seed: int, tmp_root: str) -> None:
        from repro.bench.workloads import all_workloads

        rng = random.Random(seed)
        self.variants = [
            Variant(w.name, (w.annotated_source if annotated
                             else w.unannotated_source),
                    annotated, rng.randrange(1 << 16), w.world_factory,
                    w.policy, w.max_steps)
            for w in all_workloads() for annotated in (True, False)]
        self._pairs: list = []
        self._keys: set = set()

    def run_pass(self, n: int, tracer=None, base: bool = False,
                 between=_idle) -> PassResult:
        """One verdict per variant: a cold ``check_source`` plus one
        instrumented tree-walker run.  With ``base`` an uninstrumented
        run on the same seed follows each verdict, outside its timing."""
        from repro.runtime import interp
        from repro.sharc import checker

        intervals, failures = [], []
        for v in self.variants:
            source = _tagged(v.source, n)
            between()
            with _op(tracer, "bench.verdict"):
                t0 = time.perf_counter()
                checked = checker.check_source(source, v.filename)
                result = interp.run_checked(
                    checked, seed=v.sched_seed, world=v.world_factory(),
                    policy=v.policy, max_steps=v.max_steps,
                    backend="interp")
                intervals.append((t0, time.perf_counter()))
            if not v.verdict_ok(checked, result):
                failures.append(f"{v.name} annotated={v.annotated}: "
                                f"{len(result.reports)} reports, "
                                f"error={result.error}")
            if base:
                self._base_run(v, checked, result)
        return PassResult(intervals, _ms(intervals), len(intervals),
                          len(intervals), failures)

    def _base_run(self, v: Variant, checked, result) -> None:
        """Uninstrumented run at the verdict's coordinates, recording
        the first pass's Table 1 facts."""
        from repro.runtime import interp

        base = interp.run_checked(
            checked, seed=v.sched_seed, world=v.world_factory(),
            policy=v.policy, max_steps=v.max_steps, backend="interp",
            instrument=False)
        self._pairs.append((result.stats.steps_total
                            / base.stats.steps_total,
                            result.stats.memory_overhead()))
        if not v.annotated:
            self._keys.update(f"{v.name}:{k}" for k in result.report_counts)

    def facts(self) -> dict:
        """Table 1 overheads and race keys of the first ``base`` pass."""
        return overhead_facts(self._pairs[:len(self.variants)],
                              len(self._keys))


# -- campaign -------------------------------------------------------------


class Campaign:
    TARGETS = ("aget", "dillo", "stunnel")
    #: 9 (target, policy) cells x one 16-seed shard, plus two shards
    #: the coverage-guided picker places
    BUDGET = 176
    SHARD_SIZE = 16

    def __init__(self, seed: int, tmp_root: str) -> None:
        from repro.explore import campaign

        self.tmp_root = tmp_root
        self.seed_start = random.Random(seed).randrange(1 << 20)
        self.targets = [campaign.CampaignTarget.from_workload(
            name, annotated=False) for name in self.TARGETS]
        self.config = campaign.CampaignConfig(
            budget=self.BUDGET, shard_size=self.SHARD_SIZE, jobs=1,
            backend="compiled", seed_start=self.seed_start)
        self._summary = None

    def run_pass(self, n: int, tracer=None, base: bool = False,
                 between=_idle) -> PassResult:
        """One campaign; ``between`` runs after each shard, outside the
        timed intervals."""
        from repro.explore import campaign

        targets = [dataclasses.replace(t, source=_tagged(t.source, n))
                   for t in self.targets]
        directory = tempfile.mkdtemp(prefix="campaign-", dir=self.tmp_root)
        intervals, op_ms = [], []
        last, last_done = 0.0, 0

        def progress(done: int, budget: int, summary) -> None:
            nonlocal last, last_done
            now = time.perf_counter()
            intervals.append((last, now))
            op_ms.append((now - last) * 1e3 / (done - last_done))
            between()
            last, last_done = time.perf_counter(), done

        try:
            with _op(tracer, "bench.campaign"):
                last = time.perf_counter()
                summary = campaign.run_campaign(
                    targets, directory, config=self.config,
                    progress=progress)
                # what follows the last shard: the summary write
                intervals.append((last, time.perf_counter()))
        finally:
            shutil.rmtree(directory)
        failures = [f"crash {label} seed={o.seed} {o.policy}: {o.error}"
                    for label, o in summary.crashes]
        found = {label for label, _ in summary.first_failures.values()}
        failures += [f"{t}: no race key" for t in self.TARGETS
                     if t not in found]
        if summary.schedules != self.BUDGET or not summary.complete:
            failures.append(f"ran {summary.schedules}/{self.BUDGET}")
        if self._summary is None:
            self._summary = summary
        return PassResult(intervals, op_ms, summary.completed_schedules,
                          summary.schedules, failures)

    def facts(self) -> dict:
        from repro.sharc import checker

        pairs = [run_pair(checker.check_source(t.source, t.filename),
                          seed=self.seed_start, policy="random",
                          world_factory=t.world_factory,
                          max_steps=t.max_steps, backend="compiled")
                 for t in self.targets]
        return overhead_facts(pairs, len(self._summary.first_failures))


# -- fuzz -----------------------------------------------------------------


class Fuzz:
    #: scenarios per family in a pass; every pass runs the same
    #: scenarios, so the mix a run measures does not depend on how many
    #: passes fit in it
    PER_FAMILY = 2
    #: The scenario stream is pinned to ``sharc fuzz``'s default gen
    #: seed: scenario cost varies about 5x with its sampled shape, so a
    #: stream drawn from the run's seed moved the timings ~30% between
    #: seeds.  The run's seed picks the schedule seeds instead.
    GEN_SEED = 0

    def __init__(self, seed: int, tmp_root: str) -> None:
        from repro.fuzz import gen, pipeline
        from repro.fuzz.scenarios import SUPPORTED_FAMILIES

        specs = gen.sample_specs(random.Random(self.GEN_SEED),
                                 self.PER_FAMILY * len(SUPPORTED_FAMILIES))
        self.scenarios = [gen.generate_scenario(s) for s in specs]
        self.config = pipeline.FuzzConfig(
            seed_start=random.Random(seed).randrange(1 << 16), jobs=1,
            shrink=True, out_dir=os.path.join(tmp_root, "fuzz-artifacts"))
        self._first: Optional[list] = None

    def run_pass(self, n: int, tracer=None, base: bool = False,
                 between=_idle) -> PassResult:
        from repro.fuzz import pipeline

        report = pipeline.FuzzReport(config=self.config)
        intervals, failures, rows = [], [], []
        for scenario in self.scenarios:
            scenario = dataclasses.replace(
                scenario, source=_tagged(scenario.source, n))
            seen = len(report.violations)
            between()
            with _op(tracer, "bench.scenario"):
                t0 = time.perf_counter()
                row = pipeline.fuzz_scenario(scenario, self.config, report)
                intervals.append((t0, time.perf_counter()))
            rows.append(row)
            failures += [f"{v.kind} {v.scenario}: {v.detail}"
                         for v in report.violations[seen:]]
            if row["crashes"]:
                failures.append(f"{row['scenario']}: "
                                f"{row['crashes']} crashed schedules")
        if self._first is None:
            self._first = rows
        return PassResult(intervals, _ms(intervals), len(intervals),
                          len(intervals), failures)

    def facts(self) -> dict:
        from repro.sharc import checker

        # Runs are short, so each scenario is measured at every sweep
        # seed: one seed per program left the mean memory overhead
        # moving ~9% between run seeds.
        start = self.config.seed_start
        pairs = [run_pair(checked, seed=seed, policy="random",
                          max_steps=self.config.max_steps,
                          backend="interp")
                 for s in self.scenarios
                 for checked in [checker.check_source(s.source, s.filename)]
                 for seed in range(start, start + self.config.seeds)]
        keys = {f"{row['scenario']}:{k}" for row in self._first
                for k in row["sharc_keys"]}
        return overhead_facts(pairs, len(keys))


def _op(tracer, name: str):
    return tracer.op(name) if tracer is not None else nullcontext()


WORKLOADS = {"table1": Table1, "campaign": Campaign, "fuzz": Fuzz}


def make(name: str, seed: int, tmp_root: str):
    """Builds a workload's inputs from ``seed``; ``tmp_root`` is a
    directory inside the checkout for the files a workload writes."""
    return WORKLOADS[name](seed, tmp_root)
