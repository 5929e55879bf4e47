"""CLI tests for profiling (``sharc run --profile``) and the throughput
benchmark (``sharc bench`` -> BENCH_interp.json)."""

import json

import pytest

from repro.cli import main
from repro.bench.interp_bench import (
    SCHEMA, bench_payload, bench_workloads, compare_payloads,
    load_payload, validate_payload,
)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text("""
mutex lk;
int locked(lk) counter = 0;
void *bump(void *arg) {
  mutexLock(&lk); counter = counter + 1; mutexUnlock(&lk);
  return NULL;
}
int main() {
  int t1 = thread_create(bump, NULL);
  int t2 = thread_create(bump, NULL);
  thread_join(t1);
  thread_join(t2);
  return 0;
}
""")
    return str(path)


class TestRunProfile:
    def test_profile_flag_prints_phases_and_throughput(self, clean_file,
                                                       capsys):
        assert main(["run", "--profile", clean_file]) == 0
        out = capsys.readouterr().out
        assert "parse+typecheck" in out
        assert "baseline" in out
        assert "instrumented" in out
        assert "steps/sec" in out

    def test_profile_flag_keeps_exit_code_semantics(self, tmp_path,
                                                    capsys):
        racy = tmp_path / "racy.c"
        racy.write_text("""
int counter = 0;
void *bump(void *arg) {
  int i;
  for (i = 0; i < 10; i++)
    counter = counter + 1;
  return NULL;
}
int main() {
  int t1 = thread_create(bump, NULL);
  int t2 = thread_create(bump, NULL);
  thread_join(t1);
  thread_join(t2);
  return 0;
}
""")
        assert main(["run", "--profile", str(racy)]) == 1

    def test_profile_flag_reports_static_errors_cleanly(self, tmp_path,
                                                        capsys):
        broken = tmp_path / "broken.c"
        broken.write_text(
            "int readonly limit = 1;\n"
            "int main() { limit = 2; return 0; }\n")
        assert main(["run", "--profile", str(broken)]) == 1
        out = capsys.readouterr().out
        assert "static checking failed" in out
        assert "readonly" in out


class TestBenchCommand:
    def test_bench_writes_valid_json(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_interp.json"
        code = main(["bench", "--workloads", "aget", "stunnel",
                     "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert validate_payload(payload) == []
        assert set(payload["workloads"]) == {"aget", "stunnel"}
        entry = payload["workloads"]["aget"]
        assert entry["sharc_steps"] > 0
        assert entry["wall_seconds"] > 0
        assert entry["steps_per_sec"] > 0
        assert entry["reports"] == 0
        text = capsys.readouterr().out
        assert "steps/sec" in text

    def test_bench_json_flag_prints_payload(self, tmp_path, capsys):
        code = main(["bench", "--workloads", "aget", "--json",
                     "--out", str(tmp_path / "b.json")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == SCHEMA

    def test_bench_rejects_unknown_workload(self, capsys):
        code = main(["bench", "--workloads", "nope", "--out", "-"])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err


class TestPayloadValidation:
    def test_validator_flags_missing_fields(self):
        results = bench_workloads(["aget"])
        payload = bench_payload(results)
        del payload["workloads"]["aget"]["steps_per_sec"]
        payload["schema"] = "bogus"
        problems = validate_payload(payload)
        assert any("schema" in p for p in problems)
        assert any("steps_per_sec" in p for p in problems)

    def test_validator_flags_empty_payload(self):
        assert validate_payload({}) != []

    def test_deterministic_metrics_are_stable_across_runs(self):
        first = bench_workloads(["aget"])[0]
        second = bench_workloads(["aget"])[0]
        assert first.base_steps == second.base_steps
        assert first.sharc_steps == second.sharc_steps
        assert first.time_overhead == second.time_overhead
        assert first.reports == second.reports


class TestSchemaV2:
    def test_payload_carries_check_mix_fields(self):
        payload = bench_payload(bench_workloads(["aget"]))
        assert payload["schema"] == SCHEMA
        assert payload["checkelim"] is True
        entry = payload["workloads"]["aget"]
        assert entry["checks_per_1k_steps"] >= 0.0
        assert 0.0 <= entry["checks_elided_pct"] <= 1.0

    def test_v2_payload_missing_new_fields_is_flagged(self):
        payload = bench_payload(bench_workloads(["aget"]))
        del payload["workloads"]["aget"]["checks_elided_pct"]
        problems = validate_payload(payload)
        assert any("checks_elided_pct" in p for p in problems)

class TestSchemaV3:
    def test_payload_carries_locked_check_fields(self):
        payload = bench_payload(bench_workloads(["pfscan"]))
        assert payload["schema"] == SCHEMA
        assert payload["lockset"] is True
        entry = payload["workloads"]["pfscan"]
        assert 0.0 <= entry["checks_locked_pct"] <= 1.0
        assert entry["lockset_refined"] >= 0

    def test_v3_payload_missing_new_fields_is_flagged(self):
        payload = bench_payload(bench_workloads(["aget"]))
        del payload["workloads"]["aget"]["checks_locked_pct"]
        problems = validate_payload(payload)
        assert any("checks_locked_pct" in p for p in problems)


class TestSchemaV4:
    def test_payload_carries_backend_fields(self):
        payload = bench_payload(bench_workloads(["aget"]))
        assert payload["schema"] == SCHEMA
        assert payload["backend"] in ("interp", "compiled")
        entry = payload["workloads"]["aget"]
        assert entry["interp_steps_per_sec"] >= 0
        assert entry["compiled_steps_per_sec"] >= 0
        assert entry["compiled_speedup"] >= 0.0

    def test_v4_payload_missing_new_fields_is_flagged(self):
        payload = bench_payload(bench_workloads(["aget"]))
        del payload["workloads"]["aget"]["compiled_speedup"]
        problems = validate_payload(payload)
        assert any("compiled_speedup" in p for p in problems)

class TestLocksetFlag:
    def test_no_lockset_payload_is_marked_and_unconverted(self, tmp_path):
        out = tmp_path / "off.json"
        assert main(["bench", "--workloads", "pfscan", "--out", str(out),
                     "--no-lockset"]) == 0
        payload = json.loads(out.read_text())
        assert payload["lockset"] is False
        assert payload["workloads"]["pfscan"]["checks_locked_pct"] == 0.0

    def test_step_axis_identical_on_and_off(self):
        on = bench_workloads(["pfscan"], lockset=True)[0]
        off = bench_workloads(["pfscan"], lockset=False)[0]
        assert on.sharc_steps == off.sharc_steps
        assert on.reports == off.reports


class TestBenchCompare:
    def test_identical_payloads_compare_clean(self):
        payload = bench_payload(bench_workloads(["aget"]))
        table, regressions = compare_payloads(payload, payload)
        assert regressions == []
        assert "aget" in table and "ok" in table

    def test_throughput_cliff_is_a_regression(self):
        payload = bench_payload(bench_workloads(["aget"]))
        slower = json.loads(json.dumps(payload))
        entry = slower["workloads"]["aget"]
        entry["steps_per_sec"] = max(1, entry["steps_per_sec"] // 10)
        table, regressions = compare_payloads(payload, slower,
                                              threshold=0.5)
        assert len(regressions) == 1
        assert "aget" in regressions[0]
        assert "REGRESSED" in table

    def test_cli_compare_exits_3_on_regression(self, tmp_path, capsys):
        baseline = bench_payload(bench_workloads(["aget"]))
        for entry in baseline["workloads"].values():
            entry["steps_per_sec"] = entry["steps_per_sec"] * 1000
        old = tmp_path / "old.json"
        old.write_text(json.dumps(baseline))
        code = main(["bench", "--workloads", "aget", "--out", "-",
                     "--compare", str(old),
                     "--compare-threshold", "0.5"])
        assert code == 3
        assert "bench compare FAILED" in capsys.readouterr().err

    def test_cli_compare_ok_round_trip(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--workloads", "aget",
                     "--out", str(out)]) == 0
        assert main(["bench", "--workloads", "aget", "--out", "-",
                     "--compare", str(out)]) == 0
        assert "bench compare ok" in capsys.readouterr().out

    @pytest.mark.parametrize("schema", ["sharc-bench-interp/5",
                                        "sharc-bench-interp/99"])
    def test_other_schema_baseline_is_refused(self, tmp_path, capsys,
                                              schema):
        payload = bench_payload(bench_workloads(["aget"]))
        payload["schema"] = schema
        old = tmp_path / "old.json"
        old.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported bench schema"):
            load_payload(str(old))
        assert main(["bench", "--workloads", "aget", "--out", "-",
                     "--compare", str(old)]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestCheckelimFlag:
    def test_no_checkelim_payload_is_marked_and_unelided(self, tmp_path):
        out = tmp_path / "off.json"
        assert main(["bench", "--workloads", "pfscan", "--out", str(out),
                     "--no-checkelim"]) == 0
        payload = json.loads(out.read_text())
        assert payload["checkelim"] is False
        assert payload["workloads"]["pfscan"]["checks_elided_pct"] == 0.0

    def test_step_axis_identical_on_and_off(self):
        on = bench_workloads(["pfscan"], checkelim=True)[0]
        off = bench_workloads(["pfscan"], checkelim=False)[0]
        assert on.sharc_steps == off.sharc_steps
        assert on.reports == off.reports
        assert on.checks_elided_pct > 0.0
        assert off.checks_elided_pct == 0.0
