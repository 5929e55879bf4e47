"""Exploration throughput benchmark: ``sharc bench-explore``.

Schedule-space coverage is bought with sweep throughput — schedules/sec
gates the differential scoring, the fuzz pipeline, and every campaign
budget — so this module tracks it the way ``sharc bench`` tracks
interpreter steps/sec.  It times the same workload/budget two ways and
writes ``BENCH_explore.json`` (schema ``sharc-bench-explore/1``):

- **flat**: one :func:`repro.explore.driver.explore_source` sweep of
  ``budget / len(policies)`` seeds per policy — tree-walking
  interpreter, site attribution on every schedule, batches of
  :data:`~repro.explore.driver.FANOUT_BATCH` seeds;
- **campaign**: the sharded :func:`repro.explore.campaign.run_campaign`
  engine — compiled backend, attribution sampled 1-in-``sites_every``,
  leased shards of ``shard_size`` seeds with a durable fold (lease log,
  shard files).

Both modes fan out through the same batch worker (source shipped once
per worker, per-batch IPC, per-worker check and compile caches), so
what the two rates compare is backend, sharding and site sampling.

.. code-block:: json

    {
      "schema": "sharc-bench-explore/1",
      "workload": "pbzip2",
      "budget": 240,
      "jobs": 4,
      "policies": ["random", "pct", "pb"],
      "modes": {
        "flat":     {"jobs": 4, "backend": "interp",
                     "schedules": 240, "wall_seconds": 27.5,
                     "schedules_per_sec": 8.7,
                     "distinct_traces": 201},
        "campaign": {"jobs": 4, "backend": "compiled",
                     "shard_size": 32, "sites_every": 8,
                     "schedules": 240, "wall_seconds": 8.2,
                     "schedules_per_sec": 29.2,
                     "distinct_traces": 213}
      },
      "speedup": 3.37
    }

``speedup`` is measured on one host in one run, so runner speed cancels
out of the ratio; most of it is the compiled backend, the rest is
sampled attribution minus the campaign's durability cost.

The CI canary (:func:`check_canary`) gates two ways, mirroring
:mod:`repro.bench.canary`: each mode's schedules/sec must stay above
``baseline / factor`` (default factor 3 — a cliff detector that
tolerates runner spread), and the same-run speedup must clear
``--min-speedup`` (runner-independent).  Deterministic axes
(schedule counts, distinct traces) are reported but never gated.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Optional, Sequence

SCHEMA = "sharc-bench-explore/1"
DEFAULT_OUT = "BENCH_explore.json"
DEFAULT_WORKLOAD = "pbzip2"
DEFAULT_BUDGET = 240
DEFAULT_JOBS = 4
DEFAULT_POLICIES = ("random", "pct", "pb")
DEFAULT_FACTOR = 3.0
#: same-run campaign/flat ratio the canary requires; the acceptance
#: target is 3x, but single-shot wall-clock on a loaded runner swings,
#: so the gate sits at half the recorded baseline ratio by default
DEFAULT_MIN_SPEEDUP = 1.5


def _mode_entry(schedules: int, wall: float, distinct: int,
                jobs: int, backend: str, **extra) -> dict:
    entry = {
        "jobs": jobs,
        "backend": backend,
        "schedules": schedules,
        "wall_seconds": round(wall, 3),
        "schedules_per_sec": (round(schedules / wall, 3)
                              if wall > 0 else 0.0),
        "distinct_traces": distinct,
    }
    entry.update(extra)
    return entry


def bench_explore(workload: str = DEFAULT_WORKLOAD, *,
                  budget: int = DEFAULT_BUDGET,
                  jobs: int = DEFAULT_JOBS,
                  shard_size: int = 32,
                  sites_every: int = 8,
                  policies: Sequence[str] = DEFAULT_POLICIES) -> dict:
    """Times flat vs campaign on one workload and returns the payload.

    Both modes run the same ``jobs`` through the same batch worker, so
    the comparison isolates backend (the flat mode pins the
    tree-walker), sharding and site sampling from parallelism.
    """
    from repro.bench.workloads import get_workload
    from repro.explore.campaign import (
        CampaignConfig, CampaignTarget, run_campaign,
    )
    from repro.explore.driver import explore_source

    w = get_workload(workload)
    policies = tuple(policies)
    per_policy = max(1, budget // len(policies))

    t0 = time.perf_counter()
    flat = explore_source(
        w.annotated_source, f"{workload}.c", seeds=per_policy,
        policies=policies, jobs=jobs, max_steps=w.max_steps,
        world_factory=w.world_factory, backend="interp")
    flat_wall = time.perf_counter() - t0

    scratch = tempfile.mkdtemp(prefix="sharc-bench-explore-")
    try:
        config = CampaignConfig(budget=budget, shard_size=shard_size,
                                jobs=jobs, policies=policies,
                                sites_every=sites_every)
        t0 = time.perf_counter()
        camp = run_campaign(
            [CampaignTarget.from_workload(workload)],
            os.path.join(scratch, "campaign"), config=config)
        camp_wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    flat_rate = flat.schedules / flat_wall if flat_wall > 0 else 0.0
    camp_rate = camp.schedules / camp_wall if camp_wall > 0 else 0.0
    return {
        "schema": SCHEMA,
        "workload": workload,
        "budget": budget,
        "jobs": jobs,
        "policies": list(policies),
        "modes": {
            "flat": _mode_entry(flat.schedules, flat_wall,
                                flat.distinct_traces, jobs, "interp"),
            "campaign": _mode_entry(camp.schedules, camp_wall,
                                    camp.distinct_traces, jobs,
                                    config.backend,
                                    shard_size=shard_size,
                                    sites_every=sites_every),
        },
        "speedup": (round(camp_rate / flat_rate, 3)
                    if flat_rate > 0 else 0.0),
    }


def validate_payload(payload: dict) -> list[str]:
    """Schema check for the benchmark smoke tests; returns problems."""
    problems: list[str] = []
    if payload.get("schema") != SCHEMA:
        problems.append(f"schema != {SCHEMA!r}")
    for key, kind in (("workload", str), ("budget", int),
                      ("jobs", int), ("policies", list)):
        if not isinstance(payload.get(key), kind):
            problems.append(f"{key}: expected {kind.__name__}, got "
                            f"{type(payload.get(key)).__name__}")
    modes = payload.get("modes")
    if not isinstance(modes, dict):
        return problems + ["modes missing"]
    for mode in ("flat", "campaign"):
        entry = modes.get(mode)
        if not isinstance(entry, dict):
            problems.append(f"modes.{mode} missing")
            continue
        for key in ("schedules", "distinct_traces", "jobs"):
            value = entry.get(key)
            if not isinstance(value, int) or value < 0:
                problems.append(f"modes.{mode}.{key}: expected "
                                f"non-negative int, got {value!r}")
        for key in ("wall_seconds", "schedules_per_sec"):
            value = entry.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"modes.{mode}.{key}: expected "
                                f"non-negative number, got {value!r}")
        if not isinstance(entry.get("backend"), str):
            problems.append(f"modes.{mode}.backend missing")
    if not isinstance(payload.get("speedup"), (int, float)):
        problems.append("speedup missing")
    return problems


def check_canary(baseline: dict, current: dict, *,
                 factor: float = DEFAULT_FACTOR,
                 min_speedup: float = DEFAULT_MIN_SPEEDUP) -> list[str]:
    """Compares ``current`` against the committed baseline; returns
    problems.  Each mode's schedules/sec must stay above
    ``baseline / factor`` (the cliff gate — tolerant of runner spread),
    and the same-run campaign/flat speedup must clear ``min_speedup``
    (runner-independent; 0 disables)."""
    problems: list[str] = []
    if factor <= 1.0:
        return [f"factor must be > 1 (got {factor})"]
    if min_speedup < 0.0:
        return [f"min-speedup must be >= 0 (got {min_speedup})"]
    base_modes = baseline.get("modes") or {}
    for mode, entry in (current.get("modes") or {}).items():
        base = base_modes.get(mode)
        if base is None:
            continue
        base_rate = base.get("schedules_per_sec") or 0.0
        cur_rate = entry.get("schedules_per_sec") or 0.0
        if base_rate > 0:
            floor = base_rate / factor
            if cur_rate < floor:
                problems.append(
                    f"{mode}: {cur_rate:,.2f} schedules/sec is below "
                    f"the canary floor {floor:,.2f} (baseline "
                    f"{base_rate:,.2f} / factor {factor:g})")
    speedup = current.get("speedup") or 0.0
    if min_speedup > 0.0 and speedup < min_speedup:
        problems.append(
            f"campaign engine is only {speedup:.2f}x the flat explore "
            f"path this run (gate: >= {min_speedup:g}x)")
    return problems


def render_table(payload: dict) -> str:
    lines = [
        f"explore throughput on {payload['workload']} "
        f"(budget {payload['budget']}, jobs {payload['jobs']}, "
        f"policies: {', '.join(payload['policies'])})",
        f"  {'mode':<10} {'backend':>9} {'schedules':>10} "
        f"{'wall (s)':>9} {'sched/s':>9} {'traces':>7}",
    ]
    for mode in ("flat", "campaign"):
        entry = (payload.get("modes") or {}).get(mode) or {}
        lines.append(
            f"  {mode:<10} {entry.get('backend', '?'):>9} "
            f"{entry.get('schedules', 0):>10,} "
            f"{entry.get('wall_seconds', 0.0):>9.2f} "
            f"{entry.get('schedules_per_sec', 0.0):>9.2f} "
            f"{entry.get('distinct_traces', 0):>7,}")
    lines.append(f"  campaign/flat speedup: "
                 f"{payload.get('speedup', 0.0):.2f}x")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.explore_bench",
        description="measure flat vs campaign exploration throughput "
                    "and write BENCH_explore.json; with --baseline, "
                    "gate against a committed payload")
    parser.add_argument("--workload", default=DEFAULT_WORKLOAD,
                        help=f"workload to sweep "
                             f"(default {DEFAULT_WORKLOAD})")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help=f"schedules per mode "
                             f"(default {DEFAULT_BUDGET})")
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS,
                        help=f"worker processes for both modes "
                             f"(default {DEFAULT_JOBS})")
    parser.add_argument("--shard-size", type=int, default=32)
    parser.add_argument("--policy", action="append", default=None,
                        metavar="SPEC",
                        help="scheduling policy spec, repeatable "
                             "(default: random, pct, pb)")
    parser.add_argument("--json", action="store_true",
                        help="print the payload instead of a table")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output path (default {DEFAULT_OUT}; "
                             "'-' to skip writing)")
    parser.add_argument("--baseline", default=None, metavar="OLD.json",
                        help="canary mode: gate schedules/sec against "
                             "this committed payload (exit 1 on a "
                             "cliff)")
    parser.add_argument("--factor", type=float, default=DEFAULT_FACTOR,
                        help=f"allowed slowdown factor vs the baseline "
                             f"(default {DEFAULT_FACTOR:g})")
    parser.add_argument("--min-speedup", type=float,
                        default=DEFAULT_MIN_SPEEDUP, metavar="N",
                        help="fail when the same-run campaign/flat "
                             "ratio is below N (default "
                             f"{DEFAULT_MIN_SPEEDUP:g}; 0 disables)")
    parser.add_argument("--no-gate", action="store_true",
                        help="report the comparison but always exit 0")
    args = parser.parse_args(argv)

    baseline = None
    if args.baseline is not None:
        try:
            with open(args.baseline, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.baseline}: "
                  f"{exc}", file=sys.stderr)
            return 2
        problems = validate_payload(baseline)
        if problems:
            print("error: invalid baseline payload:\n  "
                  + "\n  ".join(problems), file=sys.stderr)
            return 2

    policies = tuple(args.policy) if args.policy else DEFAULT_POLICIES
    try:
        payload = bench_explore(args.workload, budget=args.budget,
                                jobs=args.jobs,
                                shard_size=args.shard_size,
                                policies=policies)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = validate_payload(payload)
    if problems:
        print("error: invalid benchmark payload:\n  "
              + "\n  ".join(problems), file=sys.stderr)
        return 1
    if args.out != "-":
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_table(payload))
        if args.out != "-":
            print(f"\nwrote {args.out}")

    if baseline is not None:
        regressions = check_canary(baseline, payload,
                                   factor=args.factor,
                                   min_speedup=args.min_speedup)
        if regressions:
            print("\nexplore bench canary FAILED:\n  "
                  + "\n  ".join(regressions), file=sys.stderr)
            if args.no_gate:
                print("(--no-gate: exiting 0 anyway)", file=sys.stderr)
                return 0
            return 1
        print("\nexplore bench canary ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
