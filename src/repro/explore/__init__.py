"""Schedule exploration: find, replay, and shrink the races one seed
misses.

The dynamic checker's verdict on a racy program is a single sample from
the interleaving space — the paper itself stresses that race occurrence
is "highly dependent on the scheduler".  This package turns the seeded
deterministic scheduler into a search tool:

- :mod:`repro.explore.driver` — fan a program out over N seeds x M
  scheduling policies (``random``, ``round-robin``, ``serial``, PCT,
  preemption-bounded), inline or over worker processes through the
  campaign's batch worker, and report
  interleaving-space coverage (distinct context-switch traces, races
  found per 1k schedules) plus first-failure replay seeds;
- :mod:`repro.explore.shrink` — delta-debug a failing schedule's
  recorded context-switch trace down to a minimal interleaving that
  still reproduces the report, and emit it as a replayable artifact;
- :mod:`repro.explore.frontends` — render :mod:`repro.formal` programs
  (including the racy-by-construction generator's output) to mini-C so
  they run under the full pipeline;
- :mod:`repro.explore.differential` — run the same schedules under the
  SharC checker and the Eraser lockset baseline and report
  disagreements as replay seeds;
- :mod:`repro.explore.campaign` (+ :mod:`~repro.explore.queue`) — the
  batch worker every sweep fans out through (source shipped once per
  worker, per-batch IPC), and on top of it resumable sharded campaigns:
  a crash-safe work queue whose shard files record every trace, and
  coverage-guided budget allocation.

CLI: ``sharc explore`` / ``sharc campaign`` (see ``--help``).
"""

from repro.explore.campaign import (
    CampaignConfig, CampaignSummary, CampaignTarget, run_campaign,
)
from repro.explore.queue import WorkQueue
from repro.explore.driver import (
    ExplorationSummary, ScheduleOutcome, explore_source, explore_workload,
)
from repro.explore.frontends import racy_c_program, render_c
from repro.explore.shrink import (
    ShrinkResult, load_artifact, replay_artifact, save_artifact,
    shrink_failure,
)
from repro.explore.differential import (
    BackendDivergence, DifferentialSummary, backend_divergences,
    differential_sweep,
)

__all__ = [
    "BackendDivergence",
    "CampaignConfig",
    "CampaignSummary",
    "CampaignTarget",
    "DifferentialSummary",
    "backend_divergences",
    "ExplorationSummary",
    "ScheduleOutcome",
    "ShrinkResult",
    "WorkQueue",
    "differential_sweep",
    "explore_source",
    "explore_workload",
    "load_artifact",
    "racy_c_program",
    "render_c",
    "replay_artifact",
    "run_campaign",
    "save_artifact",
    "shrink_failure",
]
