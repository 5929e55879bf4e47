"""The committed regression corpus builder.

``python -m repro.fuzz.corpus --out tests/fuzz/corpus --count 12``
generates racy scenarios across the family grid, finds a failing
schedule for each, ddmin-shrinks it, and commits the artifact **only
after proving it replays**: the saved minimal trace must re-execute to
the same trace and reports under both the interp and compiled backends
(the exact check ``tests/fuzz/test_replay_corpus.py`` and the CI corpus
gate re-run forever after).  Artifacts that fail their own replay are
discarded and the builder moves on to the next candidate spec, so the
committed corpus is self-verifying by construction.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Optional, Sequence

from repro.explore.driver import explore_source
from repro.explore.shrink import (
    load_artifact, replay_artifact, save_artifact, shrink_failure,
)
from repro.fuzz.gen import generate_scenario, sample_specs
from repro.fuzz.pipeline import _artifact_extra, replay_corpus
from repro.fuzz.scenarios import Scenario

BACKENDS = ("interp", "compiled")


def build_artifact(scenario: Scenario, out_dir: str, *,
                   seeds: int = 8,
                   policies: Sequence[str] = ("random", "pct"),
                   max_steps: int = 120_000,
                   log=None) -> Optional[str]:
    """One verified corpus artifact for ``scenario``, or None when no
    failing schedule was found (or the shrunk artifact failed its own
    replay gate and was discarded)."""
    def say(msg: str) -> None:
        if log is not None:
            log(msg)

    # Find, shrink and record on the tree-walker, the reference the
    # corpus gate then holds both backends to.
    summary = explore_source(
        scenario.source, scenario.filename, checker="sharc",
        seeds=seeds, policies=policies, max_steps=max_steps,
        backend="interp")
    outcome = summary.first_failure
    if outcome is None:
        say(f"  {scenario.filename}: no failing schedule in "
            f"{summary.schedules} tries, skipping")
        return None
    result = shrink_failure(
        scenario.source, scenario.filename,
        seed=outcome.seed, policy=outcome.policy, checker="sharc",
        target_keys=outcome.report_keys, max_steps=max_steps,
        backend="interp")
    os.makedirs(out_dir, exist_ok=True)
    stem = scenario.filename.rsplit(".", 1)[0]
    path = os.path.join(out_dir, f"{stem}.json")
    # Record the full run-to-completion execution once, so the artifact
    # pins not just the failure but the exact replay — the corpus gate
    # then holds both backends to it bit-for-bit, forever.
    save_artifact(result, path,
                  extra=_artifact_extra(
                      scenario, "regression",
                      "committed corpus entry (injected race)"))
    probe = replay_artifact(load_artifact(path), backend="interp")
    expect = {"trace": [list(e) for e in (probe.trace or [])],
              "steps": probe.stats.steps_total,
              "report_counts": dict(probe.report_counts)}
    save_artifact(result, path,
                  extra=_artifact_extra(
                      scenario, "regression",
                      "committed corpus entry (injected race)",
                      expect=expect))
    rows = replay_corpus_entry(path)
    bad = [r for r in rows if not r["ok"]]
    if bad:
        os.remove(path)
        say(f"  {scenario.filename}: shrunk artifact failed its replay "
            f"gate ({bad[0]['problems'][0]}), discarded")
        return None
    say(f"  {path}: {len(result.trace)} bursts, "
        f"{result.original_switches} -> {result.switches} switches, "
        f"replays clean under {'/'.join(BACKENDS)}")
    return path


def replay_corpus_entry(path: str) -> list[dict]:
    """The per-artifact slice of :func:`repro.fuzz.pipeline.replay_corpus`
    plus a cross-backend bit-identity diff."""
    directory, name = os.path.split(path)
    return replay_corpus(directory, backends=BACKENDS, names=[name])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz.corpus",
        description="build the verified fuzz regression corpus")
    parser.add_argument("--out", default="tests/fuzz/corpus",
                        help="corpus directory (default: %(default)s)")
    parser.add_argument("--count", type=int, default=12,
                        help="artifacts to build (default: %(default)s)")
    parser.add_argument("--gen-seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=8,
                        help="schedule seeds per scenario sweep")
    parser.add_argument("--max-steps", type=int, default=120_000)
    args = parser.parse_args(argv)

    rng = random.Random(args.gen_seed)
    # Over-sample: some scenarios won't fail within the sweep budget or
    # won't survive the replay gate; 4x leaves plenty of headroom.
    specs = [s for s in sample_specs(rng, args.count * 4,
                                     racy_fraction=1.0) if s.racy]
    written: list[str] = []
    for spec in specs:
        if len(written) >= args.count:
            break
        scenario = generate_scenario(spec)
        path = build_artifact(scenario, args.out, seeds=args.seeds,
                              max_steps=args.max_steps, log=print)
        if path is not None:
            written.append(path)
    print(f"corpus: {len(written)} verified artifact(s) in {args.out}")
    return 0 if len(written) >= args.count else 1


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())


__all__ = ["BACKENDS", "build_artifact", "load_artifact", "main",
           "replay_corpus_entry"]
