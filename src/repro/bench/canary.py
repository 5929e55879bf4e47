"""Throughput regression canary: ``python -m repro.bench.canary``.

CI's cheap gate against interpreter performance cliffs.  It re-runs a
small subset of the Table 1 workloads, writes the fresh payload next to
the run, and compares each workload's instrumented ``steps_per_sec``
against the committed ``BENCH_interp.json`` baseline.  The gate fails
only on a *cliff*: current throughput below ``baseline / factor``
(default factor 3), which tolerates the machine-to-machine spread
between the baseline's recording host and a CI runner while still
catching accidental O(n) -> O(n^2) style regressions.

With the default ``--backend both`` the canary also gates the compiled
executor two ways: each workload's *same-run* compiled/interp ratio must
stay above ``--min-speedup`` (the ratio is measured on one host in one
run, so runner speed cancels out — the honest form of "compiled is
still several times the interp baseline"; the default floor of 1.5
leaves room for the ±30%% single-shot jitter observed on loaded
runners), and when the
committed baseline carries a compiled column, compiled throughput gets
the same ``/ factor`` cliff check the interpreter does.

Deterministic axes (step counts) are reported but never gated — a PR
that legitimately changes step accounting updates the baseline file in
the same commit.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.bench.interp_bench import (bench_payload, bench_workloads,
                                      load_payload, validate_payload)

DEFAULT_FACTOR = 3.0
#: same-run compiled/interp ratio each workload must clear (0 = off);
#: measured speedups are 2.3-4.9x but single-shot ratios swing ±30%%
#: under runner load, so the floor sits at 1.5x
DEFAULT_MIN_SPEEDUP = 1.5
#: fast subset: the two cheapest workloads keep the CI gate under a few
#: seconds while still exercising the full checked pipeline.
DEFAULT_WORKLOADS = ["aget", "pbzip2"]


def check_canary(baseline: dict, current: dict, *,
                 factor: float = DEFAULT_FACTOR,
                 min_speedup: float = DEFAULT_MIN_SPEEDUP) -> list[str]:
    """Compares ``current`` against ``baseline``; returns problems.

    A workload regresses when its current ``steps_per_sec`` falls below
    ``baseline_steps_per_sec / factor``; when both runs carry compiled
    throughput, the compiled column gets the same cliff check, and the
    same-run compiled/interp ratio must clear ``min_speedup`` (0
    disables that gate).  Workloads missing from either side are
    skipped (the canary runs a subset of the baseline).
    """
    problems: list[str] = []
    if factor <= 1.0:
        return [f"factor must be > 1 (got {factor})"]
    if min_speedup < 0.0:
        return [f"min-speedup must be >= 0 (got {min_speedup})"]
    base_workloads = baseline.get("workloads") or {}
    for name, entry in (current.get("workloads") or {}).items():
        base = base_workloads.get(name)
        if base is None:
            continue
        base_sps = base.get("steps_per_sec") or 0
        cur_sps = entry.get("steps_per_sec") or 0
        if base_sps > 0:
            floor = base_sps / factor
            if cur_sps < floor:
                problems.append(
                    f"{name}: {cur_sps:,.0f} steps/sec is below the "
                    f"canary floor {floor:,.0f} (baseline "
                    f"{base_sps:,.0f} / factor {factor:g})")
        cur_compiled = entry.get("compiled_steps_per_sec") or 0
        base_compiled = base.get("compiled_steps_per_sec") or 0
        if cur_compiled and base_compiled:
            floor = base_compiled / factor
            if cur_compiled < floor:
                problems.append(
                    f"{name}: compiled {cur_compiled:,.0f} steps/sec is "
                    f"below the canary floor {floor:,.0f} (baseline "
                    f"{base_compiled:,.0f} / factor {factor:g})")
        speedup = entry.get("compiled_speedup") or 0.0
        if min_speedup > 0.0 and speedup > 0.0 \
                and speedup < min_speedup:
            problems.append(
                f"{name}: compiled backend is only {speedup:.2f}x the "
                f"interpreter this run (gate: >= {min_speedup:g}x)")
    return problems


def render_comparison(baseline: dict, current: dict,
                      factor: float = DEFAULT_FACTOR) -> str:
    base_workloads = baseline.get("workloads") or {}
    both = any((entry.get("compiled_steps_per_sec") or 0)
               for entry in (current.get("workloads") or {}).values())
    header = (f"{'workload':<10} {'baseline/s':>12} {'current/s':>12} "
              f"{'ratio':>7}  gate(>1/{factor:g})")
    if both:
        header += f" {'compiled/s':>12} {'speedup':>8}"
    lines = [header]
    for name, entry in (current.get("workloads") or {}).items():
        base = base_workloads.get(name)
        if base is None:
            lines.append(f"{name:<10} {'(no baseline)':>12}")
            continue
        base_sps = base.get("steps_per_sec") or 0
        cur_sps = entry.get("steps_per_sec") or 0
        ratio = cur_sps / base_sps if base_sps else 0.0
        verdict = "ok" if ratio * factor >= 1.0 else "REGRESSED"
        line = (f"{name:<10} {base_sps:>12,} {cur_sps:>12,} "
                f"{ratio:>7.2f}  {verdict}")
        if both:
            line += (f" {entry.get('compiled_steps_per_sec') or 0:>12,} "
                     f"{entry.get('compiled_speedup') or 0.0:>7.2f}x")
        lines.append(line)
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.canary",
        description="fail if interpreter throughput regresses more than "
                    "FACTOR x against the committed BENCH_interp.json")
    parser.add_argument("--baseline", default="BENCH_interp.json",
                        help="committed baseline payload "
                             "(default BENCH_interp.json)")
    parser.add_argument("--out", default="-",
                        help="write the fresh payload here "
                             "(default '-': skip)")
    parser.add_argument("--factor", type=float, default=DEFAULT_FACTOR,
                        help=f"allowed slowdown factor "
                             f"(default {DEFAULT_FACTOR:g})")
    parser.add_argument("--workloads", nargs="*",
                        default=list(DEFAULT_WORKLOADS),
                        help="workload subset to re-run "
                             f"(default: {' '.join(DEFAULT_WORKLOADS)})")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the per-workload seeds")
    parser.add_argument("--no-static", action="store_true",
                        help="ablation: run with both static discharge "
                             "tiers disabled")
    parser.add_argument("--backend", default="both",
                        choices=("interp", "compiled", "both"),
                        help="executor(s) to time (default both, which "
                             "arms the compiled-speedup gate)")
    parser.add_argument("--min-speedup", type=float,
                        default=DEFAULT_MIN_SPEEDUP, metavar="N",
                        help="fail when a workload's same-run compiled/"
                             "interp ratio is below N (default "
                             f"{DEFAULT_MIN_SPEEDUP:g}; 0 disables)")
    parser.add_argument("--no-gate", action="store_true",
                        help="report the comparison but always exit 0 "
                             "(for non-gating CI artifact runs)")
    args = parser.parse_args(argv)

    try:
        baseline = load_payload(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read baseline {args.baseline}: {exc}",
              file=sys.stderr)
        return 2

    static = not args.no_static
    try:
        results = bench_workloads(args.workloads or None, seed=args.seed,
                                  static=static, backend=args.backend)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    current = bench_payload(results, seed=args.seed, static=static)
    problems = validate_payload(current)
    if problems:
        print("error: invalid canary payload:\n  "
              + "\n  ".join(problems), file=sys.stderr)
        return 1
    if args.out != "-":
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(current, handle, indent=2)
            handle.write("\n")

    print(render_comparison(baseline, current, args.factor))
    regressions = check_canary(baseline, current, factor=args.factor,
                               min_speedup=args.min_speedup)
    if regressions:
        print("\nbench canary FAILED:\n  " + "\n  ".join(regressions),
              file=sys.stderr)
        if args.no_gate:
            print("(--no-gate: exiting 0 anyway)", file=sys.stderr)
            return 0
        return 1
    print("\nbench canary ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
