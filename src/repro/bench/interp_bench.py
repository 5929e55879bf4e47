"""Interpreter throughput benchmark: ``sharc bench``.

Where :mod:`repro.bench.table1` reproduces the paper's deterministic
metrics (step overhead, metadata bytes, %%dynamic), this module tracks
the *wall-clock* side of the reproduction — how fast the dynamic checker
actually executes — so that interpreter regressions are visible across
PRs.  It writes ``BENCH_interp.json``:

.. code-block:: json

    {
      "schema": "sharc-bench-interp/6",
      "seed": null,
      "checkelim": true,
      "lockset": true,
      "backend": "both",
      "workloads": {
        "pfscan": {
          "backend": "both",
          "base_steps": 64086,
          "sharc_steps": 108122,
          "base_wall_seconds": 0.08,
          "wall_seconds": 0.21,
          "steps_per_sec": 514867,
          "time_overhead": 0.687,
          "mem_overhead": 0.205,
          "pct_dynamic": 0.338,
          "reports": 0,
          "checks_per_1k_steps": 12.4,
          "checks_elided_pct": 0.858,
          "checks_locked_pct": 0.0,
          "lockset_refined": 0,
          "interp_steps_per_sec": 514867,
          "compiled_steps_per_sec": 2095421,
          "compiled_speedup": 4.07
        },
        "...": {}
      },
      "summary": {
        "total_sharc_steps": 0,
        "total_wall_seconds": 0.0,
        "steps_per_sec": 0,
        "avg_time_overhead": 0.0
      }
    }

``steps_per_sec`` is the instrumented run's throughput; ``time_overhead``
is the deterministic step-count overhead (identical across machines for a
given seed), so the file mixes one machine-dependent axis with the
machine-independent ones that anchor it.

Readers accept only the current schema (:func:`load_payload`).  On the
annotated Table 1 suite both lockset fields are legitimately 0 — every
consistently-locked location already carries a hand-written
``locked(l)``, so there is nothing left for the static refinement to
convert; its wins show up on the unannotated variants (see
EXPERIMENTS.md).

``sharc bench --compare OLD.json`` re-runs the workloads and diffs them
against a previously written payload, exiting nonzero
when throughput regresses beyond ``--compare-threshold`` — the CI
canary's building block.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.bench.harness import BenchResult, run_workload
from repro.bench.workloads import all_workloads

SCHEMA = "sharc-bench-interp/6"
DEFAULT_OUT = "BENCH_interp.json"
#: ``--compare`` flags a workload whose steps/sec fell below
#: ``old * (1 - threshold)``; 0.5 tolerates the usual host jitter while
#: catching complexity cliffs.
DEFAULT_COMPARE_THRESHOLD = 0.5

#: legal values for the ``backend`` knob
_BACKEND_CHOICES = ("interp", "compiled", "both")


def bench_workloads(names: Optional[list[str]] = None, *,
                    seed: Optional[int] = None,
                    checkelim: bool = True,
                    lockset: bool = True,
                    backend: Optional[str] = None) -> list[BenchResult]:
    """Runs the requested workloads (all six by default).

    ``backend`` picks the executor: ``"interp"``/``"compiled"`` time
    that backend alone; ``"both"`` times each workload under both and
    returns the interp row (the canonical deterministic metrics) with
    the compiled throughput column attached — after asserting the two
    runs agree on steps and reports, which bit-identical backends must.
    ``None`` defers to ``$SHARC_BACKEND`` (default interp)."""
    if backend is not None and backend not in _BACKEND_CHOICES:
        raise ValueError(f"unknown backend {backend!r}; "
                         f"available: {', '.join(_BACKEND_CHOICES)}")
    selected = all_workloads()
    if names:
        by_name = {w.name: w for w in selected}
        unknown = [n for n in names if n not in by_name]
        if unknown:
            raise ValueError(
                f"unknown workload(s): {', '.join(unknown)}; "
                f"available: {', '.join(sorted(by_name))}")
        selected = [by_name[n] for n in names]
    if backend != "both":
        return [run_workload(w, seed=seed, checkelim=checkelim,
                             lockset=lockset, backend=backend)
                for w in selected]
    results = []
    for w in selected:
        interp = run_workload(w, seed=seed, checkelim=checkelim,
                              lockset=lockset, backend="interp")
        compiled = run_workload(w, seed=seed, checkelim=checkelim,
                                lockset=lockset, backend="compiled")
        if (compiled.sharc_steps != interp.sharc_steps
                or compiled.reports != interp.reports):
            raise AssertionError(
                f"{w.name}: backends diverged "
                f"(steps {interp.sharc_steps} vs {compiled.sharc_steps}, "
                f"reports {interp.reports} vs {compiled.reports})")
        interp.backend = "both"
        interp.compiled_steps_per_sec = compiled.compiled_steps_per_sec
        results.append(interp)
    return results


def bench_payload(results: list[BenchResult],
                  seed: Optional[int] = None,
                  checkelim: bool = True,
                  lockset: bool = True) -> dict:
    total_steps = sum(r.sharc_steps for r in results)
    total_wall = sum(r.wall_seconds for r in results)
    overheads = [r.time_overhead for r in results]
    speedups = [r.compiled_speedup for r in results
                if r.compiled_speedup > 0.0]
    backends = {r.backend for r in results}
    return {
        "schema": SCHEMA,
        "seed": seed,
        "checkelim": checkelim,
        "lockset": lockset,
        "backend": backends.pop() if len(backends) == 1 else "mixed",
        "workloads": {r.workload: r.bench_entry() for r in results},
        "summary": {
            "total_sharc_steps": total_steps,
            "total_wall_seconds": round(total_wall, 6),
            "steps_per_sec": (round(total_steps / total_wall)
                              if total_wall else 0),
            "avg_time_overhead": (round(sum(overheads) / len(overheads), 6)
                                  if overheads else 0.0),
            "avg_compiled_speedup": (round(sum(speedups) / len(speedups), 3)
                                     if speedups else 0.0),
        },
    }


def load_payload(path: str) -> dict:
    """Reads a payload file; raises ``ValueError`` unless it was written
    at the current :data:`SCHEMA` (re-run ``sharc bench`` to refresh an
    older one)."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"unsupported bench schema "
                         f"{payload.get('schema')!r} (expected {SCHEMA!r})")
    return payload


def validate_payload(payload: dict) -> list[str]:
    """Schema check for the benchmark smoke tests; returns problems."""
    problems: list[str] = []
    if payload.get("schema") != SCHEMA:
        problems.append(f"schema != {SCHEMA!r}")
    workloads = payload.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return problems + ["workloads missing or empty"]
    required = {"base_steps": int, "sharc_steps": int,
                "base_wall_seconds": float, "wall_seconds": float,
                "steps_per_sec": int, "time_overhead": float,
                "mem_overhead": float, "pct_dynamic": float,
                "reports": int, "checks_per_1k_steps": float,
                "checks_elided_pct": float, "checks_locked_pct": float,
                "lockset_refined": int, "backend": str,
                "interp_steps_per_sec": int,
                "compiled_steps_per_sec": int, "compiled_speedup": float}
    for name, entry in workloads.items():
        for key, kind in required.items():
            value = entry.get(key)
            if not isinstance(value, (kind, int) if kind is float else kind):
                problems.append(f"{name}.{key}: expected {kind.__name__}, "
                                f"got {type(value).__name__}")
        if isinstance(entry.get("wall_seconds"), (int, float)) \
                and entry["wall_seconds"] < 0:
            problems.append(f"{name}.wall_seconds negative")
        for pct_key in ("checks_elided_pct", "checks_locked_pct"):
            pct = entry.get(pct_key)
            if isinstance(pct, (int, float)) and not 0.0 <= pct <= 1.0:
                problems.append(f"{name}.{pct_key} out of [0, 1]")
        if entry.get("backend") not in _BACKEND_CHOICES:
            problems.append(f"{name}.backend not one of "
                            f"{', '.join(_BACKEND_CHOICES)}")
    summary = payload.get("summary")
    if not isinstance(summary, dict):
        problems.append("summary missing")
    return problems


def render_table(results: list[BenchResult]) -> str:
    both = any(r.compiled_speedup > 0.0 for r in results)
    header = (f"{'workload':<10} {'sharc steps':>12} {'wall (s)':>9} "
              f"{'steps/sec':>10} {'overhead':>9} {'chk/1k':>7} "
              f"{'elided':>7} {'locked':>7} {'refined':>8}")
    if both:
        header += f" {'compiled/s':>11} {'speedup':>8}"
    lines = [header]
    for r in results:
        line = (f"{r.workload:<10} {r.sharc_steps:>12,} "
                f"{r.wall_seconds:>9.3f} {r.steps_per_sec:>10,.0f} "
                f"{r.time_overhead:>8.1%} "
                f"{r.checks_per_1k_steps:>7.1f} "
                f"{r.checks_elided_pct:>7.1%} "
                f"{r.checks_locked_pct:>7.1%} "
                f"{r.lockset_refined:>8d}")
        if both:
            line += (f" {r.compiled_steps_per_sec:>11,.0f} "
                     f"{r.compiled_speedup:>7.2f}x")
        lines.append(line)
    return "\n".join(lines)


def compare_payloads(old: dict, new: dict, *,
                     threshold: float = DEFAULT_COMPARE_THRESHOLD,
                     compiled_floor: float = 0.0
                     ) -> tuple[str, list[str]]:
    """Diffs two bench payloads.  Returns the rendered
    per-workload delta table and the list of regression messages: a
    workload regresses when its new ``steps_per_sec`` drops below
    ``old * (1 - threshold)``.  When ``compiled_floor`` > 0 and the new
    payload carries compiled throughput, a workload also regresses if
    ``compiled_steps_per_sec`` falls below ``compiled_floor`` times the
    *old* interp throughput — the CI canary's "compiled is still at
    least Nx the committed interpreter baseline" gate (the floor is
    deliberately well under the measured 2.8-4.8x speedups, so host
    jitter does not trip it).  Deterministic axes (step counts,
    overhead) are displayed but never gated — a PR that legitimately
    changes step accounting updates the baseline in the same commit."""
    regressions: list[str] = []
    if not 0.0 < threshold < 1.0:
        return "", [f"threshold must be in (0, 1), got {threshold}"]
    if compiled_floor < 0.0:
        return "", [f"compiled floor must be >= 0, got {compiled_floor}"]
    old_workloads = old.get("workloads") or {}
    lines = [f"{'workload':<10} {'old steps/s':>12} {'new steps/s':>12} "
             f"{'delta':>7} {'old ovh':>8} {'new ovh':>8} "
             f"{'elided':>7}  verdict"]
    for name, entry in (new.get("workloads") or {}).items():
        base = old_workloads.get(name)
        if base is None:
            lines.append(f"{name:<10} {'(new workload)':>12}")
            continue
        old_sps = base.get("steps_per_sec") or 0
        new_sps = entry.get("steps_per_sec") or 0
        delta = (new_sps / old_sps - 1.0) if old_sps else 0.0
        old_ovh = base.get("time_overhead") or 0.0
        new_ovh = entry.get("time_overhead") or 0.0
        elided = entry.get("checks_elided_pct") or 0.0
        regressed = old_sps > 0 and new_sps < old_sps * (1.0 - threshold)
        verdict = "REGRESSED" if regressed else "ok"
        compiled_sps = entry.get("compiled_steps_per_sec") or 0
        old_interp = base.get("interp_steps_per_sec") or 0
        if compiled_floor > 0.0 and compiled_sps and old_interp:
            if compiled_sps < compiled_floor * old_interp:
                verdict = "REGRESSED"
                regressions.append(
                    f"{name}: compiled {compiled_sps:,} steps/sec is "
                    f"below {compiled_floor:g}x the committed interp "
                    f"baseline {old_interp:,} "
                    f"(floor {compiled_floor * old_interp:,.0f})")
        lines.append(f"{name:<10} {old_sps:>12,} {new_sps:>12,} "
                     f"{delta:>+7.1%} {old_ovh:>8.1%} {new_ovh:>8.1%} "
                     f"{elided:>7.1%}  {verdict}")
        if regressed:
            regressions.append(
                f"{name}: {new_sps:,} steps/sec is below the floor "
                f"{old_sps * (1.0 - threshold):,.0f} "
                f"(old {old_sps:,} - {threshold:.0%})")
    return "\n".join(lines), regressions


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sharc bench",
        description="measure interpreter throughput over the Table 1 "
                    "workloads and write BENCH_interp.json")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the per-workload seeds")
    parser.add_argument("--json", action="store_true",
                        help="print the payload instead of a table")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output path (default {DEFAULT_OUT}; "
                             "'-' to skip writing)")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="subset of workload names (default: all)")
    parser.add_argument("--no-checkelim", action="store_true",
                        help="ablation: run with the static check "
                             "eliminator disabled")
    parser.add_argument("--no-lockset", action="store_true",
                        help="ablation: run with the locked(l) lockset "
                             "refinement disabled")
    parser.add_argument("--backend", default="both",
                        choices=_BACKEND_CHOICES,
                        help="executor(s) to time: 'both' (default) "
                             "writes interp and compiled throughput "
                             "columns; 'interp'/'compiled' time one")
    parser.add_argument("--compare", default=None, metavar="OLD.json",
                        help="diff against a previously written payload "
                             f"(schema {SCHEMA}); exits 3 on a "
                             "throughput regression")
    parser.add_argument("--compare-threshold", type=float,
                        default=DEFAULT_COMPARE_THRESHOLD,
                        help="allowed fractional steps/sec drop for "
                             "--compare (default "
                             f"{DEFAULT_COMPARE_THRESHOLD:g})")
    parser.add_argument("--compiled-floor", type=float, default=0.0,
                        metavar="N",
                        help="with --compare: also fail unless compiled "
                             "throughput is at least N times the old "
                             "payload's interp baseline (0 = off)")
    args = parser.parse_args(argv)

    old_payload = None
    if args.compare is not None:
        try:
            old_payload = load_payload(args.compare)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.compare}: {exc}",
                  file=sys.stderr)
            return 2

    checkelim = not args.no_checkelim
    lockset = not args.no_lockset
    try:
        results = bench_workloads(args.workloads, seed=args.seed,
                                  checkelim=checkelim, lockset=lockset,
                                  backend=args.backend)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = bench_payload(results, seed=args.seed, checkelim=checkelim,
                            lockset=lockset)
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
        print(render_table(results))
        if args.out != "-":
            print(f"\nwrote {args.out}")
    if old_payload is not None:
        table, regressions = compare_payloads(
            old_payload, payload, threshold=args.compare_threshold,
            compiled_floor=args.compiled_floor)
        print(f"\ncompare vs {args.compare}:")
        print(table)
        if regressions:
            print("\nbench compare FAILED:\n  "
                  + "\n  ".join(regressions), file=sys.stderr)
            return 3
        print("\nbench compare ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
