"""The fuzz campaign: scenarios x detectors x backends vs the oracle.

Every sampled scenario runs the full differential grid — SharC and
Eraser over a ``seeds x policies`` schedule sweep, the static lockset
verdict, and the SharC sweep repeated under the compiled backend — and
the results are scored against the scenario's ground-truth oracle:

- a racy scenario whose injected race *no* SharC schedule reported is a
  ``missed-race`` violation (the sweep gave the checker every chance);
- a race-free scenario with *any* SharC report is a ``false-positive``
  violation — these are ddmin-shrunk and saved as replayable artifacts;
- any interp/compiled outcome mismatch is a ``backend-divergence``
  violation (the bit-identical-by-seed guarantee is unconditional),
  likewise saved with its pinned coordinates;
- a racy scenario where SharC reports something *beyond* the injected
  ground truth is an ``unexpected-race`` violation (the generator's
  race-free scaffolding leaked a conflict).

Eraser misses and Eraser false positives are *expected* on barrier /
ownership-transfer idioms — that asymmetry is the paper's argument for
sharing strategies — so they are recorded as statistics, never as
violations.  The same goes for static-lockset over-approximation on
race-free scenarios.

:func:`replay_corpus` is the other half of the loop: it re-runs a
directory of saved artifacts under one or both backends and checks each
replay is bit-identical to what was committed (same executed trace,
same report keys), which is what ``tests/fuzz/test_replay_corpus.py``
and the CI corpus gate call.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.explore.differential import backend_divergences
from repro.explore.driver import _checked_program, explore_source
from repro.explore.shrink import (
    load_artifact, replay_artifact, save_artifact, shrink_failure,
)
from repro.fuzz.gen import generate_scenario, sample_specs
from repro.fuzz.scenarios import Scenario, ScenarioSpec

FUZZ_REPORT_SCHEMA = "sharc-fuzz/1"

#: violation kinds, in severity order
VIOLATION_KINDS = ("missed-race", "false-positive", "unexpected-race",
                   "backend-divergence")


@dataclass(frozen=True)
class FuzzConfig:
    """Campaign knobs (mirrors the ``sharc fuzz`` CLI surface)."""

    budget: int = 13
    seeds: int = 8
    seed_start: int = 0
    policies: tuple = ("random", "pct")
    gen_seed: int = 0
    jobs: int = 1
    max_steps: int = 120_000
    racy_fraction: float = 0.5
    #: ddmin-shrink false positives / divergences into artifacts
    shrink: bool = True
    #: where shrunk disagreement artifacts land (None: don't write)
    out_dir: Optional[str] = None
    #: also confirm injected races on the formal companion Machine
    #: (seeds to try; 0 disables the extra oracle)
    formal_seeds: int = 0


@dataclass(frozen=True)
class OracleViolation:
    """One oracle disagreement — always replayable, never a statistic."""

    kind: str  # one of VIOLATION_KINDS
    scenario: str  # Scenario.filename
    family: str
    detail: str
    seed: Optional[int] = None
    policy: Optional[str] = None
    #: path of the shrunk replayable artifact, when one was written
    artifact: Optional[str] = None

    def as_dict(self) -> dict:
        return {"kind": self.kind, "scenario": self.scenario,
                "family": self.family, "detail": self.detail,
                "seed": self.seed, "policy": self.policy,
                "artifact": self.artifact}

    @staticmethod
    def from_dict(data: dict) -> "OracleViolation":
        return OracleViolation(
            kind=data["kind"], scenario=data["scenario"],
            family=data["family"], detail=data["detail"],
            seed=data.get("seed"), policy=data.get("policy"),
            artifact=data.get("artifact"))


@dataclass
class FuzzReport:
    """Everything one campaign measured."""

    config: FuzzConfig
    scenarios: list = field(default_factory=list)  # per-scenario rows
    violations: list = field(default_factory=list)
    #: expected-asymmetry statistics (not violations)
    eraser_missed: int = 0
    eraser_false_positives: int = 0
    static_flagged_clean: int = 0
    formal_confirmed: int = 0
    formal_unconfirmed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def families(self) -> dict:
        out: dict = {}
        for row in self.scenarios:
            acc = out.setdefault(row["family"],
                                 {"scenarios": 0, "racy": 0,
                                  "violations": 0})
            acc["scenarios"] += 1
            acc["racy"] += int(row["racy"])
        for violation in self.violations:
            if violation.family in out:
                out[violation.family]["violations"] += 1
        return out

    def as_dict(self) -> dict:
        return {
            "schema": FUZZ_REPORT_SCHEMA,
            "config": {
                "budget": self.config.budget,
                "seeds": self.config.seeds,
                "seed_start": self.config.seed_start,
                "policies": list(self.config.policies),
                "gen_seed": self.config.gen_seed,
                "max_steps": self.config.max_steps,
                "racy_fraction": self.config.racy_fraction,
            },
            "scenarios": list(self.scenarios),
            "violations": [v.as_dict() for v in self.violations],
            "families": self.families,
            "stats": {
                "eraser_missed": self.eraser_missed,
                "eraser_false_positives": self.eraser_false_positives,
                "static_flagged_clean": self.static_flagged_clean,
                "formal_confirmed": self.formal_confirmed,
                "formal_unconfirmed": self.formal_unconfirmed,
            },
        }

    def render(self) -> str:
        racy = sum(1 for r in self.scenarios if r["racy"])
        lines = [
            f"fuzz campaign: {len(self.scenarios)} scenarios "
            f"({racy} racy, {len(self.scenarios) - racy} race-free) "
            f"over {len(self.families)} families, "
            f"{self.config.seeds}x{len(self.config.policies)} "
            "schedules each:",
        ]
        for family, acc in sorted(self.families.items()):
            flag = (f"  !! {acc['violations']} violation(s)"
                    if acc["violations"] else "")
            lines.append(f"  {family:<32} {acc['scenarios']} scenario(s),"
                         f" {acc['racy']} racy{flag}")
        lines.append(
            f"  eraser (expected asymmetry): {self.eraser_missed} "
            f"missed, {self.eraser_false_positives} false-positive "
            "scenario(s)")
        if self.static_flagged_clean:
            lines.append(f"  static lockset flagged "
                         f"{self.static_flagged_clean} clean "
                         "scenario(s) (over-approximation, expected)")
        if self.formal_confirmed or self.formal_unconfirmed:
            lines.append(f"  formal oracle: {self.formal_confirmed} "
                         f"race(s) confirmed, {self.formal_unconfirmed}"
                         " unconfirmed")
        if self.violations:
            lines.append(f"  ORACLE VIOLATIONS: {len(self.violations)}")
            for v in self.violations:
                where = (f" [seed={v.seed} policy={v.policy}]"
                         if v.seed is not None else "")
                saved = f" -> {v.artifact}" if v.artifact else ""
                lines.append(f"    {v.kind}: {v.scenario}{where} "
                             f"{v.detail}{saved}")
        else:
            lines.append("  no oracle violations")
        return "\n".join(lines)


def validate_fuzz_report(payload: dict) -> list:
    """Schema check; returns a list of problems (empty when valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("schema") != FUZZ_REPORT_SCHEMA:
        problems.append(f"schema != {FUZZ_REPORT_SCHEMA!r}")
    if not isinstance(payload.get("scenarios"), list):
        problems.append("scenarios missing or not an array")
    violations = payload.get("violations")
    if not isinstance(violations, list):
        problems.append("violations missing or not an array")
    else:
        for i, row in enumerate(violations):
            if not isinstance(row, dict):
                problems.append(f"violations[{i}]: not an object")
                continue
            if row.get("kind") not in VIOLATION_KINDS:
                problems.append(f"violations[{i}].kind: unknown "
                                f"{row.get('kind')!r}")
            for key in ("scenario", "family", "detail"):
                if not isinstance(row.get(key), str):
                    problems.append(f"violations[{i}].{key}: "
                                    "expected string")
    stats = payload.get("stats")
    if not isinstance(stats, dict):
        problems.append("stats missing")
    else:
        for key in ("eraser_missed", "eraser_false_positives",
                    "static_flagged_clean"):
            value = stats.get(key)
            if not isinstance(value, int) or value < 0:
                problems.append(f"stats.{key}: expected non-negative "
                                f"int, got {value!r}")
    families = payload.get("families")
    if not isinstance(families, dict):
        problems.append("families missing")
    return problems


def _artifact_extra(scenario: Scenario, violation_kind: str,
                    detail: str,
                    expect: Optional[dict] = None) -> dict:
    """The ``fuzz`` metadata block saved artifacts carry, so a shrunk
    disagreement on disk is self-describing and triage never needs the
    campaign that produced it.  ``expect`` (full executed trace, steps,
    report counts captured at save time) pins the replay bit-exactly
    for the corpus gate."""
    block = {
        "spec": scenario.spec.as_dict(),
        "oracle": scenario.oracle.as_dict(),
        "violation": violation_kind,
        "detail": detail,
    }
    if expect is not None:
        block["expect"] = expect
    return {"fuzz": block}


def _shrink_and_save(scenario: Scenario, outcome, config: FuzzConfig,
                     violation_kind: str, detail: str,
                     backend: str) -> Optional[str]:
    """Shrinks ``outcome`` on ``backend``, the one its sweep ran on,
    and saves the artifact; None when shrinking is off or fails."""
    if not (config.shrink and config.out_dir):
        return None
    try:
        result = shrink_failure(
            scenario.source, scenario.filename,
            seed=outcome.seed, policy=outcome.policy,
            checker=outcome.checker,
            target_keys=outcome.report_keys,
            max_steps=config.max_steps, backend=backend)
    except Exception:  # pragma: no cover - shrink is best-effort
        return None
    os.makedirs(config.out_dir, exist_ok=True)
    stem = scenario.filename.rsplit(".", 1)[0]
    path = os.path.join(
        config.out_dir,
        f"{stem}_{violation_kind}_s{outcome.seed}.json")
    save_artifact(result, path,
                  extra=_artifact_extra(scenario, violation_kind,
                                        detail))
    return path


def fuzz_scenario(scenario: Scenario, config: FuzzConfig,
                  report: FuzzReport, telemetry=None) -> dict:
    """Runs one scenario through the full grid and scores the oracle;
    appends any violations to ``report`` and returns the scenario row.
    ``telemetry`` (a :class:`repro.obs.telemetry.TelemetryWriter`)
    streams heartbeats from all three sweeps.

    The SharC sweep runs on both backends, the tree-walker being the
    reference the compiled sweep is diffed against; the Eraser sweep
    follows the default backend.  The compiled sweep runs first, so
    the PCT horizon probe the sweeps share runs compiled."""
    common = dict(seeds=config.seeds, seed_start=config.seed_start,
                  policies=config.policies, jobs=config.jobs,
                  max_steps=config.max_steps, telemetry=telemetry)
    src, fname = scenario.source, scenario.filename
    sharc_c = explore_source(src, fname, checker="sharc",
                             backend="compiled", **common)
    sharc_i = explore_source(src, fname, checker="sharc",
                             backend="interp", **common)
    eraser = explore_source(src, fname, checker="eraser", **common)
    # the sweeps above already checked the source into the cache
    static_keys = tuple(
        _checked_program(src, fname).lockset_result.race_keys)

    oracle = scenario.oracle
    family = scenario.spec.family
    sharc_keys = sorted(set(sharc_i.first_failures)
                        | set(sharc_c.first_failures))
    eraser_keys = sorted(eraser.first_failures)

    # Backend bit-identity is unconditional — check it first.
    for div in backend_divergences(sharc_i, sharc_c):
        detail = (f"{div.field}: interp={div.interp!r} "
                  f"compiled={div.compiled!r}")
        artifact = None
        by_coords = {(o.seed, o.policy): o for o in sharc_i.outcomes}
        outcome = by_coords.get((div.seed, div.policy))
        if outcome is not None and outcome.failing:
            artifact = _shrink_and_save(scenario, outcome, config,
                                        "backend-divergence", detail,
                                        backend="interp")
        report.violations.append(OracleViolation(
            kind="backend-divergence", scenario=fname, family=family,
            detail=detail, seed=div.seed, policy=div.policy,
            artifact=artifact))

    if oracle.kind == "racy":
        for race in oracle.missed_races(sharc_keys):
            report.violations.append(OracleViolation(
                kind="missed-race", scenario=fname, family=family,
                detail=f"injected {race.kind} on {race.global_name} "
                       f"({race.threads[0]} vs {race.threads[1]}) never"
                       f" reported across {sharc_i.schedules} schedules"
                       " x 2 backends"))
        unexpected = oracle.unexpected_keys(sharc_keys)
        if unexpected:
            outcome = next(
                (o for o in sharc_i.failures
                 if any(k in unexpected for k in o.report_keys)), None)
            artifact = None
            if outcome is not None:
                detail = "unexpected keys: " + ", ".join(unexpected)
                artifact = _shrink_and_save(scenario, outcome, config,
                                            "unexpected-race", detail,
                                            backend="interp")
                report.violations.append(OracleViolation(
                    kind="unexpected-race", scenario=fname,
                    family=family, detail=detail, seed=outcome.seed,
                    policy=outcome.policy, artifact=artifact))
            else:
                report.violations.append(OracleViolation(
                    kind="unexpected-race", scenario=fname,
                    family=family,
                    detail="unexpected keys (compiled sweep only): "
                           + ", ".join(unexpected)))
        report.eraser_missed += len(oracle.missed_races(eraser_keys))
        if config.formal_seeds and scenario.formal is not None:
            from repro.fuzz.gen import verify_formal

            found = verify_formal(scenario,
                                  seeds=config.formal_seeds)
            report.formal_confirmed += sum(found.values())
            report.formal_unconfirmed += (
                len(found) - sum(found.values()))
    else:  # race-free by construction
        if sharc_keys:
            outcome, backend = sharc_i.first_failure, "interp"
            if outcome is None:
                outcome, backend = sharc_c.first_failure, "compiled"
            detail = "reports on race-free scenario: " + ", ".join(
                sharc_keys)
            artifact = _shrink_and_save(scenario, outcome, config,
                                        "false-positive", detail,
                                        backend=backend)
            report.violations.append(OracleViolation(
                kind="false-positive", scenario=fname, family=family,
                detail=detail, seed=outcome.seed,
                policy=outcome.policy, artifact=artifact))
        if eraser_keys:
            report.eraser_false_positives += 1
        if static_keys:
            report.static_flagged_clean += 1

    return {
        "scenario": fname,
        "family": family,
        "racy": scenario.spec.racy,
        "gen_seed": scenario.spec.gen_seed,
        "schedules": sharc_i.schedules + sharc_c.schedules,
        "sharc_keys": sharc_keys,
        "eraser_keys": eraser_keys,
        "static_keys": list(static_keys),
        "crashes": len(sharc_i.crashes) + len(sharc_c.crashes),
    }


def fuzz_campaign(config: FuzzConfig,
                  specs: Optional[Sequence[ScenarioSpec]] = None,
                  progress=None, telemetry=None) -> FuzzReport:
    """Runs a whole campaign: sample (or take) specs, generate, sweep,
    score.  ``progress`` (an optional callable taking one string) gets
    a line per scenario for CLI streaming; ``telemetry`` streams
    heartbeat/scenario records for ``sharc status``."""
    rng = random.Random(config.gen_seed)
    if specs is None:
        specs = sample_specs(rng, config.budget,
                             racy_fraction=config.racy_fraction)
    report = FuzzReport(config=config)
    if telemetry is not None:
        # 3 sweeps per scenario (sharc-interp, sharc-compiled, eraser)
        telemetry.add_total(
            3 * len(specs) * config.seeds * len(config.policies))
    for spec in specs:
        scenario = generate_scenario(spec)
        before = len(report.violations)
        row = fuzz_scenario(scenario, config, report,
                            telemetry=telemetry)
        report.scenarios.append(row)
        if telemetry is not None:
            new = [v.as_dict() for v in report.violations[before:]]
            telemetry.scenario(
                row["scenario"],
                "violations" if new else "ok",
                family=row["family"], racy=row["racy"],
                schedules=row["schedules"],
                sharc_keys=row["sharc_keys"],
                oracle_violations=new)
        if progress is not None:
            tag = "racy" if row["racy"] else "clean"
            progress(f"  {row['family']:<32} [{tag}] "
                     f"{row['schedules']} schedules, "
                     f"{len(row['sharc_keys'])} sharc report(s)")
    return report


def replay_corpus(corpus_dir: str,
                  backends: Sequence[str] = ("interp", "compiled"),
                  names: Optional[Sequence[str]] = None,
                  ) -> list[dict]:
    """Replays every ``*.json`` artifact in ``corpus_dir`` under each
    backend and checks three promises: the replayed reports cover the
    saved ``report_keys``; when the artifact carries a recorded
    expectation (``fuzz.expect`` — the full run-to-completion trace,
    step count and report counts captured when the corpus was built),
    the replay reproduces it exactly; and every backend produces the
    bit-identical execution (same trace, steps and reports as the
    first).  Note the *executed* trace legitimately extends past the
    saved minimal trace — ReplayPolicy pins the shrunk prefix and then
    runs the program to completion deterministically; what must never
    change is the completion itself.  Returns one row per (artifact,
    backend) with ``ok`` plus mismatch details — the corpus CI gate
    fails on any ``ok: False`` row."""
    rows: list[dict] = []
    if names is None:
        names = sorted(n for n in os.listdir(corpus_dir)
                       if n.endswith(".json"))
    for name in names:
        path = os.path.join(corpus_dir, name)
        payload = load_artifact(path)
        expected_keys = set(payload.get("report_keys", ()))
        expect = (payload.get("fuzz") or {}).get("expect")
        first: Optional[dict] = None
        for backend in backends:
            row = {"artifact": name, "backend": backend, "ok": True,
                   "problems": []}
            try:
                result = replay_artifact(payload, backend=backend)
            except Exception as exc:  # noqa: BLE001 - gate must report
                row["ok"] = False
                row["problems"].append(
                    f"replay crashed: {type(exc).__name__}: {exc}")
                rows.append(row)
                continue
            got = {
                "trace": [list(e) for e in (result.trace or [])],
                "steps": result.stats.steps_total,
                "report_counts": dict(result.report_counts),
            }
            got_keys = set(got["report_counts"])
            if not expected_keys <= got_keys:
                row["ok"] = False
                row["problems"].append(
                    "missing expected reports: "
                    + ", ".join(sorted(expected_keys - got_keys)))
            reference = expect if expect is not None else first
            if reference is not None:
                against = ("recorded expectation"
                           if reference is expect
                           else f"{backends[0]} replay")
                for key in ("trace", "steps", "report_counts"):
                    if key in reference and reference[key] != got[key]:
                        row["ok"] = False
                        row["problems"].append(
                            f"{key} diverged from {against}: "
                            f"expected {reference[key]!r}, "
                            f"got {got[key]!r}")
            if first is None:
                first = got
            rows.append(row)
    return rows
