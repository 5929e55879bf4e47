"""Schedule identity against a committed golden.

Every program the repo ships (the codegen census list) runs under every
built-in policy on both backends; each run is reduced to one
fingerprint covering steps, every ``RunStats`` counter except wall
time, reports, output, deadlock/error text, thread results, the merged
context-switch trace, the world's written bytes and the scheduler RNG's
final state.  The fingerprints must equal ``golden_schedules.json``, so
any change to the scheduler, the wake-up protocol or the memory/world
fast paths that moves a single RNG draw or step shows up here.

The golden pins behaviour, not a measurement: regenerate it (run this
module as a script) only in a change that means to alter schedules,
and say so in that change.

The golden covers the SharC checker.  The Eraser baseline is held to
the same fingerprint, plus its ``EraserStats``, by comparing the two
backends directly over the same programs and policies.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from tests.conftest import check_ok
from tests.runtime.test_compiled_backend import _census_programs
from repro.bench.workloads import all_workloads
from repro.runtime.interp import make_interp

GOLDEN = Path(__file__).with_name("golden_schedules.json")
POLICIES = ("random", "round-robin", "serial", "pct", "pb")
BACKENDS = ("interp", "compiled")
#: caps the Table 1 models (up to ~390k steps) so the whole golden stays
#: a few seconds of tier-1 time; every other census program finishes
#: well inside it.  A capped run still fingerprints its full state.
MAX_STEPS = 20_000


def _world_factories() -> dict:
    factories = {}
    for w in all_workloads():
        factories[f"{w.name}-annotated"] = w.world_factory
        factories[f"{w.name}-unannotated"] = w.world_factory
    return factories


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def fingerprint(checked, seed: int, policy, backend: str,
                world_factory=None, checker: str = "sharc",
                max_steps: int = MAX_STEPS) -> dict:
    world = world_factory() if world_factory is not None else None
    interp = make_interp(checked, backend=backend, seed=seed, world=world,
                         policy=policy, record_trace=True,
                         checker=checker)
    result = interp.run(max_steps=max_steps)
    stats = dataclasses.asdict(result.stats)
    del stats["wall_seconds"]
    stats["sites"] = sorted(map(repr, stats["sites"].items()))
    payload = (
        stats,
        sorted(result.report_counts.items()),
        [r.render() for r in result.reports],
        result.output,
        result.deadlock, result.error, result.timeout, result.exit_code,
        sorted((tid, repr(v)) for tid, v in result.thread_results.items()),
        list(interp.sched.trace or []),
        sorted((k, bytes(v)) for k, v in interp.world.written.items()),
        sorted((k, bytes(v)) for k, v in interp.world.outbound.items()),
        interp.sched.rng.getstate(),
    )
    if interp.eraser is not None:
        payload += (dataclasses.asdict(interp.eraser.stats),)
    return {"steps": result.stats.steps_total,
            "switches": result.stats.context_switches,
            "fp": _digest(payload)[:24]}


def program_fingerprints(index: int, name: str, source: str) -> dict:
    """Fingerprints of one census program: ``"policy/backend"`` -> run
    summary.  The seed is the program's census index, so the golden
    spans many seeds without multiplying runs."""
    checked = check_ok(source)
    factory = _world_factories().get(name)
    return {f"{policy}/{backend}": fingerprint(checked, index, policy,
                                               backend, factory)
            for policy in POLICIES for backend in BACKENDS}


_CENSUS = list(enumerate(_census_programs()))
census = pytest.mark.parametrize("index,name,source", [
    pytest.param(i, name, source, id=name)
    for i, (name, source) in _CENSUS])


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@census
def test_schedules_match_golden(golden, index, name, source):
    assert program_fingerprints(index, name, source) == golden[name]


@census
def test_eraser_backends_agree(index, name, source):
    checked = check_ok(source)
    factory = _world_factories().get(name)
    runs = {backend: {policy: fingerprint(checked, index, policy,
                                          backend, factory,
                                          checker="eraser")
                      for policy in POLICIES}
            for backend in BACKENDS}
    assert runs["interp"] == runs["compiled"]


def test_golden_covers_the_census(golden):
    assert sorted(golden) == sorted(name for _, (name, _) in _CENSUS)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: program_fingerprints(i, name, source)
         for i, (name, source) in _CENSUS},
        indent=1, sort_keys=True) + "\n")
