"""Execution statistics feeding the Table 1 metrics.

The paper reports, per benchmark: runtime overhead (instrumented vs
original), memory overhead (minor page faults as a proxy for resident
pages), and the fraction of memory accesses that hit ``dynamic`` objects.
Our analogues:

- *time*: interpreter steps — every expression evaluation costs one step,
  runtime checks and RC updates cost extra steps per the documented cost
  model.  Overhead = steps(instrumented) / steps(baseline) - 1.  Steps are
  deterministic (seeded scheduler), unlike wall time.
- *memory*: 4 KiB pages dirtied by the program vs pages of SharC metadata
  (shadow bitmaps, RC tables, RC logs).
- *%% dynamic accesses*: checked-dynamic accesses / all scalar accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunStats:
    """Counters for one execution."""

    steps_total: int = 0
    steps_checks: int = 0
    steps_rc: int = 0
    steps_io: int = 0

    accesses_total: int = 0
    accesses_dynamic: int = 0
    accesses_locked: int = 0
    reads: int = 0
    writes: int = 0

    pages_program: int = 0
    pages_shadow: int = 0
    pages_rc: int = 0

    data_bytes: int = 0
    shadow_bytes: int = 0
    rc_bytes: int = 0

    threads_peak: int = 0
    #: scheduling decisions, one per pick and one per item of a held
    #: burst (see ``repro.runtime.scheduler.HELD``)
    context_switches: int = 0
    shadow_updates: int = 0
    shadow_fastpath_hits: int = 0
    #: dynamic checks that ran the full per-granule shadow walk
    checks_full: int = 0
    #: dynamic checks routed through the range-batched walk
    #: (library-call summaries and statically marked monotone array walks)
    checks_range: int = 0
    #: statically marked checks discharged by ``ShadowMemory.recheck``
    #: (the elision guard) instead of a shadow walk
    checks_elided: int = 0
    #: dynamic checks discharged through the held-lock log because the
    #: static lockset analysis refined the location to locked(l)
    checks_locked_refined: int = 0
    rc_writes: int = 0
    rc_collections: int = 0
    lock_acquisitions: int = 0

    #: per-check-site attribution: ``(file, line, lvalue, op)`` ->
    #: counter list in the :data:`repro.obs.sitestats.SITE_FIELDS`
    #: layout.  Always collected (a dict lookup per check); pure
    #: observation, so runs stay bit-identical either way.  The
    #: per-site sums reconcile exactly with the ``checks_*`` counters
    #: above (:func:`repro.obs.sitestats.reconcile`).
    sites: dict = field(default_factory=dict)

    #: Benchmark compat, not a field: perfbench's traced run still adds
    #: this to its discharge count.  Goes away with that layer of
    #: perfbench; there is no abstract-interpretation tier.
    checks_ai_elided = 0

    #: wall-clock duration of the run loop.  Observability only — every
    #: Table 1 metric stays in deterministic steps; wall time feeds the
    #: BENCH_interp.json throughput trajectory.
    wall_seconds: float = 0.0

    @property
    def steps_per_sec(self) -> float:
        """Interpreter throughput (steps / wall second); 0 when the run
        was too fast for the clock to resolve."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.steps_total / self.wall_seconds

    @property
    def pct_dynamic(self) -> float:
        """Fraction of accesses to dynamic-mode objects, as in Table 1's
        last column."""
        if self.accesses_total <= 0:
            return 0.0
        return self.accesses_dynamic / self.accesses_total

    @property
    def check_fastpath_rate(self) -> float:
        """Fraction of shadow updates served by the last-granule cache."""
        if self.shadow_updates <= 0:
            return 0.0
        return self.shadow_fastpath_hits / self.shadow_updates

    @property
    def checks_per_1k_steps(self) -> float:
        """Shadow-walking dynamic checks (full + range) per thousand
        interpreter steps — the check *density* the eliminator is trying
        to push down."""
        if self.steps_total <= 0:
            return 0.0
        return 1000.0 * (self.checks_full + self.checks_range) \
            / self.steps_total

    @property
    def checks_elided_pct(self) -> float:
        """Fraction of would-be dynamic checks discharged by the static
        eliminator's runtime guard."""
        total = self.checks_full + self.checks_range + self.checks_elided
        if total <= 0:
            return 0.0
        return self.checks_elided / total

    @property
    def checks_locked_pct(self) -> float:
        """Fraction of would-be dynamic checks discharged through the
        held-lock log thanks to locked(l) lockset refinement."""
        total = (self.checks_full + self.checks_range
                 + self.checks_elided + self.checks_locked_refined)
        if total <= 0:
            return 0.0
        return self.checks_locked_refined / total

    @property
    def metadata_pages(self) -> int:
        return self.pages_shadow + self.pages_rc

    def memory_overhead(self) -> float:
        """SharC metadata (shadow bitmaps + RC tables/logs) relative to
        the program's own data.  Measured in bytes: at interpreter scale
        page-granular accounting is dominated by rounding; the byte ratio
        preserves the orderings Table 1 reports."""
        if self.data_bytes <= 0:
            return 0.0
        return (self.shadow_bytes + self.rc_bytes) / self.data_bytes

    def summary(self) -> str:
        return (f"steps={self.steps_total} (checks={self.steps_checks}, "
                f"rc={self.steps_rc}) accesses={self.accesses_total} "
                f"dynamic={self.pct_dynamic:.1%} "
                f"pages: prog={self.pages_program} "
                f"shadow={self.pages_shadow} rc={self.pages_rc}")


def time_overhead(base: RunStats, instrumented: RunStats) -> float:
    """Relative step-count overhead of the instrumented run.  Guarded
    like every other ratio here: a zero or negative (corrupt) baseline
    yields 0.0 instead of dividing by zero."""
    if base.steps_total <= 0:
        return 0.0
    return instrumented.steps_total / base.steps_total - 1.0
