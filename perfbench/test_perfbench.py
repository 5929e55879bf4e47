"""The benchmark's own tests.  Run from the repository root with::

    PYTHONPATH=src python -m pytest perfbench -q

They run each workload for one pass (``--seconds 0``) in fresh
processes, so they take a few minutes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("table1", "campaign", "fuzz")


def _run(workload: str, trace: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    """Two runs of every workload and mode, under different hash seeds."""
    return {(w, trace): [_run(w, trace, hash_seed)
                         for hash_seed in ("1", "2")]
            for w in WORKLOADS for trace in (0, 1)}


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_runs_are_correct_and_match_benchmark_json(results, spec,
                                                   workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for result in results[(workload, trace)]:
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            assert ({name: m["unit"] for name, m in
                     result["metrics"].items()}
                    == {m["name"]: m["unit"] for m in spec[key]})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_metrics_repeat_exactly(results, workload):
    first, second = results[(workload, 0)]
    for name in ("step_overhead", "mem_overhead", "race_keys"):
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["attempted"] == second["attempted"]
    first, second = results[(workload, 1)]
    counts = [name for name, m in first["metrics"].items()
              if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def _static_view(checked) -> tuple:
    return checked.instrumented_source(), checked.render_diagnostics()


@pytest.mark.parametrize("workload", ("table1", "fuzz"))
def test_traced_static_path_matches_check_source(tmp_path, workload):
    from repro.sharc import checker

    bench = workloads.make(workload, 3, str(tmp_path))
    programs = ([(v.source, v.filename) for v in bench.variants[:4]]
                if workload == "table1" else
                [(s.source, s.filename) for s in bench.scenarios[:4]])
    for source, filename in programs:
        plain = _static_view(checker.check_source(source, filename))
        tracer = spans.Tracer()
        with tracer:
            traced = _static_view(checker.check_source(source, filename))
        assert traced == plain
        names = [s.name for s in tracer.spans]
        assert names == ["sharc.check"] + [n for _, n in
                                           spans.STATIC_PASSES]
        assert all(s.parent == 0 for s in tracer.spans[1:])


def test_planted_wrong_table1_verdict_is_a_failed_op(tmp_path):
    bench = workloads.make("table1", 3, str(tmp_path))
    racy = next(v for v in bench.variants
                if v.name == "aget" and not v.annotated)
    clean = next(v for v in bench.variants
                 if v.name == "aget" and v.annotated)
    bench.variants = [clean, dataclasses.replace(racy, annotated=True)]
    result = bench.run_pass(0)
    assert result.attempted == 2
    assert len(result.failures) == 1
    assert "aget annotated=True" in result.failures[0]


def test_planted_wrong_fuzz_oracle_is_a_failed_op(tmp_path):
    from repro.fuzz.scenarios import ScenarioOracle

    bench = workloads.make("fuzz", 3, str(tmp_path))
    racy = next(s for s in bench.scenarios if s.spec.racy)
    clean = next(s for s in bench.scenarios if not s.spec.racy)
    planted = dataclasses.replace(racy, oracle=ScenarioOracle("race-free"))
    bench.scenarios = [clean, planted]
    result = bench.run_pass(0)
    assert result.attempted == 2
    assert len(result.failures) == 1
    assert result.failures[0].startswith("false-positive")
