"""Static-race lint gate: ``python -m repro.sharc.analyze_gate``.

CI's guard against *silent* changes in the static lockset analysis.  It
runs the ``sharc analyze`` pipeline over every example program and every
Table 1 workload source (annotated **and** unannotated variants) and
compares the resulting ``static-race`` keys against the committed golden
file ``ci/analyze_golden.json``:

- a race key the golden file does not list fails the gate — either the
  analysis grew a false positive or a model grew a real race; both need
  a human to look before the golden moves;
- a golden key the analysis no longer reports also fails — the golden
  is stale and must be regenerated in the same commit
  (``--update`` rewrites it).

The expected set is not empty: the unannotated workload models race by
design (that is Table 1's story), and the *annotated* fftw model keeps
two ``static-race`` diagnostics on its planner handoff — the
ownership-transfer false-positive class that lockset reasoning, static
or dynamic, cannot see (EXPERIMENTS.md § "Static lockset analysis").

``--out-dir`` additionally writes each target's full ``sharc analyze
--json`` payload (schema ``sharc-analyze/3``), which CI uploads as
build artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

GOLDEN_SCHEMA = "sharc-analyze-golden/3"
DEFAULT_GOLDEN = "ci/analyze_golden.json"
DEFAULT_EXAMPLES = "examples"


def gate_targets(examples_dir: Optional[str] = DEFAULT_EXAMPLES
                 ) -> list[tuple[str, str]]:
    """(target name, mini-C source) pairs the gate analyzes: every
    ``.c`` file under ``examples_dir`` plus both variants of every
    Table 1 workload model."""
    from repro.bench.workloads import all_workloads

    targets: list[tuple[str, str]] = []
    if examples_dir is not None:
        for path in sorted(Path(examples_dir).glob("*.c")):
            targets.append((f"examples/{path.name}",
                            path.read_text(encoding="utf-8")))
    for workload in all_workloads():
        targets.append((f"workloads/{workload.name}.annotated.c",
                        workload.annotated_source))
        targets.append((f"workloads/{workload.name}.unannotated.c",
                        workload.unannotated_source))
    return targets


def analyze_targets(targets: list[tuple[str, str]],
                    out_dir: Optional[str] = None) -> dict[str, dict]:
    """Runs the analyze pipeline over each target; returns
    name -> payload and optionally writes each payload under
    ``out_dir`` (slashes in target names become dots)."""
    from repro.cli import analyze_payload
    from repro.sharc.checker import check_source

    payloads: dict[str, dict] = {}
    for name, source in targets:
        payloads[name] = analyze_payload(check_source(source, name))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, payload in payloads.items():
            safe = name.replace("/", ".").replace(".c", ".json")
            with open(out / safe, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
    return payloads


def golden_from_payloads(payloads: dict[str, dict]) -> dict:
    return {
        "schema": GOLDEN_SCHEMA,
        "races": {name: sorted(r["key"]
                               for r in payload["static_races"])
                  for name, payload in payloads.items()},
    }


def check_golden(golden: dict, payloads: dict[str, dict]) -> list[str]:
    """Diffs measured static-race keys against the golden; returns
    problems (empty = gate passes)."""
    problems: list[str] = []
    if golden.get("schema") != GOLDEN_SCHEMA:
        problems.append(f"golden schema != {GOLDEN_SCHEMA!r}")
    expected = golden.get("races")
    if not isinstance(expected, dict):
        return problems + ["golden 'races' missing"]
    for name, payload in sorted(payloads.items()):
        if not payload["ok"]:
            problems.append(f"{name}: does not type-check: "
                            + "; ".join(payload["errors"][:3]))
            continue
        want = expected.get(name)
        if want is None:
            problems.append(f"{name}: not in golden (new target? "
                            "regenerate with --update)")
            continue
        got = sorted(r["key"] for r in payload["static_races"])
        for key in got:
            if key not in want:
                problems.append(f"{name}: unexpected {key}")
        for key in want:
            if key not in got:
                problems.append(f"{name}: golden expects {key}, "
                                "no longer reported (stale golden)")
    for name in sorted(set(expected) - set(payloads)):
        problems.append(f"{name}: in golden but not analyzed "
                        "(removed target? regenerate with --update)")
    return problems


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sharc.analyze_gate",
        description="static-race lint gate over examples and the "
                    "Table 1 workload sources")
    parser.add_argument("--golden", default=DEFAULT_GOLDEN,
                        help=f"golden file (default {DEFAULT_GOLDEN})")
    parser.add_argument("--examples-dir", default=DEFAULT_EXAMPLES,
                        help="directory of example .c files "
                             f"(default {DEFAULT_EXAMPLES})")
    parser.add_argument("--out-dir", default=None, metavar="DIR",
                        help="also write each target's analyze --json "
                             "payload here (CI artifacts)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden file from this run "
                             "instead of gating against it")
    args = parser.parse_args(argv)

    payloads = analyze_targets(gate_targets(args.examples_dir),
                               out_dir=args.out_dir)
    races = sum(len(p["static_races"]) for p in payloads.values())
    print(f"analyzed {len(payloads)} target(s): {races} static race(s)")

    if args.update:
        with open(args.golden, "w", encoding="utf-8") as handle:
            json.dump(golden_from_payloads(payloads), handle, indent=2)
            handle.write("\n")
        print(f"golden rewritten: {args.golden}")
        return 0

    try:
        with open(args.golden, encoding="utf-8") as handle:
            golden = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read golden {args.golden}: {exc} "
              "(generate it with --update)", file=sys.stderr)
        return 2
    problems = check_golden(golden, payloads)
    if problems:
        print("analyze gate FAILED:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 1
    print("analyze gate ok: static races match the golden file")
    return 0


if __name__ == "__main__":
    sys.exit(main())
