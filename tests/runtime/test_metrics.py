"""Tests for the cross-sweep metrics registry (repro.obs.metrics)."""

import json

import pytest

from repro.explore.driver import (ExplorationSummary, ScheduleOutcome,
                                  explore_source)
from repro.obs.metrics import (METRICS_SCHEMA, MetricsRegistry,
                               validate_metrics, write_metrics)

RACY = """
int counter = 0;

void *bump(void *arg) {
  counter = counter + 1;
  return NULL;
}

int main() {
  int t1 = thread_create(bump, NULL);
  int t2 = thread_create(bump, NULL);
  thread_join(t1);
  thread_join(t2);
  return counter;
}
"""


def _outcome(seed, policy, *, reports=0, steps=100, trace_hash="h",
             updates=50, fastpath=20):
    return ScheduleOutcome(
        seed=seed, policy=policy, checker="sharc",
        report_keys=("write conflict:x@1",) if reports else (),
        reports=reports, steps=steps, switches=3,
        trace_hash=trace_hash, check_updates=updates,
        check_fastpath=fastpath)


def _crash(seed, policy, error="RuntimeError: world construction failed"):
    """A crash-tagged outcome: empty trace hash, exception repr, no
    verdict."""
    return ScheduleOutcome(
        seed=seed, policy=policy, checker="sharc", report_keys=(),
        reports=0, steps=0, switches=0, trace_hash="", error=error)


def _summary(outcomes, filename="a.c"):
    summary = ExplorationSummary(filename=filename, checker="sharc",
                                 policies=("random",))
    for outcome in outcomes:
        summary.add(outcome)
    return summary


class TestMetricsRegistry:
    def test_empty_registry_is_valid(self):
        payload = MetricsRegistry().as_dict()
        assert validate_metrics(payload) == []
        assert payload["schema"] == METRICS_SCHEMA
        assert payload["totals"]["schedules"] == 0
        assert payload["totals"]["check_hit_rate"] == 0.0

    def test_totals_accumulate_across_sweeps(self):
        registry = MetricsRegistry()
        registry.record_sweep(_summary([
            _outcome(0, "random", trace_hash="a"),
            _outcome(1, "random", reports=1, trace_hash="b"),
        ]))
        registry.record_sweep(_summary([
            _outcome(0, "pct:3:50", trace_hash="a"),
        ], filename="b.c"))
        payload = registry.as_dict()
        assert validate_metrics(payload) == []
        totals = payload["totals"]
        assert totals["sweeps"] == 2
        assert totals["schedules"] == 3
        assert totals["failing_schedules"] == 1
        assert totals["distinct_traces"] == 2  # "a" shared across sweeps
        assert totals["check_updates"] == 150
        assert totals["check_fastpath_hits"] == 60
        assert totals["check_hit_rate"] == pytest.approx(0.4)
        assert totals["races_per_1k"] == pytest.approx(1000 / 3, abs=0.01)

    def test_per_policy_breakdown(self):
        registry = MetricsRegistry()
        registry.record_sweep(_summary([
            _outcome(0, "random", reports=1, trace_hash="a",
                     updates=100, fastpath=90),
            _outcome(1, "pb", trace_hash="b", updates=100, fastpath=10),
        ]))
        per_policy = registry.as_dict()["per_policy"]
        assert per_policy["random"]["failures"] == 1
        assert per_policy["random"]["check_hit_rate"] == \
            pytest.approx(0.9)
        assert per_policy["pb"]["failures"] == 0
        assert per_policy["pb"]["check_hit_rate"] == pytest.approx(0.1)

    def test_render_mentions_policies(self):
        registry = MetricsRegistry()
        registry.record_sweep(_summary([_outcome(0, "random")]))
        text = registry.render()
        assert "1 sweep(s)" in text
        assert "random" in text

    def test_real_sweep_produces_valid_metrics(self, tmp_path):
        summary = explore_source(RACY, "racy.c", seeds=4,
                                 policies=("random", "round-robin"))
        registry = MetricsRegistry()
        registry.record_sweep(summary)
        path = tmp_path / "metrics.json"
        payload = write_metrics(registry, str(path))
        assert validate_metrics(payload) == []
        reloaded = json.loads(path.read_text())
        assert reloaded == payload
        totals = reloaded["totals"]
        assert totals["schedules"] == 8
        assert totals["check_updates"] > 0
        assert 0.0 <= totals["check_hit_rate"] <= 1.0
        assert set(reloaded["per_policy"]) == {"random", "round-robin"}


class TestCrashAccounting:
    """Crash-tagged schedules flow through the registry as a separate
    column: surfaced in totals and per policy, excluded from every rate
    denominator, and never tripping schema validation."""

    def _registry(self):
        registry = MetricsRegistry()
        registry.record_sweep(_summary([
            _outcome(0, "random", reports=1, trace_hash="a"),
            _crash(1, "random"),
            _crash(2, "random"),
            _outcome(3, "pb", trace_hash="b"),
        ]))
        return registry

    def test_totals_carry_the_crash_column(self):
        payload = self._registry().as_dict()
        assert validate_metrics(payload) == []
        totals = payload["totals"]
        assert totals["schedules"] == 4
        assert totals["crashed_schedules"] == 2
        assert totals["failing_schedules"] == 1

    def test_rates_exclude_crashed_schedules(self):
        payload = self._registry().as_dict()
        # 1 failure over 2 *completed* schedules, not over all 4.
        assert payload["totals"]["races_per_1k"] == \
            pytest.approx(500.0)
        random_row = payload["per_policy"]["random"]
        assert random_row["crashes"] == 2
        assert random_row["schedules"] == 3
        # random: 1 failure / (3 - 2 crashes) completed.
        assert random_row["races_per_1k"] == pytest.approx(1000.0)
        assert payload["per_policy"]["pb"]["crashes"] == 0

    def test_crashes_never_count_as_coverage(self):
        payload = self._registry().as_dict()
        assert payload["totals"]["distinct_traces"] == 2
        assert payload["per_policy"]["random"]["distinct_traces"] == 1

    def test_sweep_ledger_rows_carry_crashes(self):
        payload = self._registry().as_dict()
        assert payload["sweeps"][0]["crashed_schedules"] == 2

    def test_real_crashing_sweep_writes_valid_metrics(self, tmp_path):
        """End to end: a sweep with harness crashes still produces a
        metrics.json that passes the schema gate (write_metrics raises
        on invalid payloads)."""

        class _FlakyWorld:
            def __init__(self):
                self.calls = 0

            def __call__(self):
                from repro.runtime.world import World

                self.calls += 1
                if self.calls % 2 == 0:
                    raise RuntimeError("world construction failed")
                return World()

        summary = explore_source(RACY, "racy.c", seeds=6,
                                 policies=("round-robin",),
                                 world_factory=_FlakyWorld())
        assert summary.crashes, "fixture stopped crashing"
        registry = MetricsRegistry()
        registry.record_sweep(summary)
        path = tmp_path / "metrics.json"
        payload = write_metrics(registry, str(path))
        assert validate_metrics(payload) == []
        reloaded = json.loads(path.read_text())
        assert reloaded["totals"]["crashed_schedules"] == 3
        assert reloaded["totals"]["schedules"] == 6
        assert reloaded["per_policy"]["round-robin"]["crashes"] == 3

    def test_validator_flags_negative_crash_counts(self):
        payload = MetricsRegistry().as_dict()
        payload["totals"]["crashed_schedules"] = -1
        problems = validate_metrics(payload)
        assert any("crashed_schedules" in p for p in problems)


class TestValidateMetrics:
    def test_flags_schema_and_ranges(self):
        assert validate_metrics([]) == ["payload is not an object"]
        payload = MetricsRegistry().as_dict()
        payload["schema"] = "bogus/9"
        payload["totals"]["check_hit_rate"] = 2.0
        payload["totals"]["schedules"] = -1
        problems = validate_metrics(payload)
        assert any("schema" in p for p in problems)
        assert any("check_hit_rate" in p for p in problems)
        assert any("schedules" in p for p in problems)

    def test_flags_missing_sections(self):
        problems = validate_metrics({"schema": METRICS_SCHEMA})
        assert "totals missing" in problems

    def test_flags_missing_static_block(self):
        payload = MetricsRegistry().as_dict()
        del payload["static"]
        problems = validate_metrics(payload)
        assert "static missing" in problems

    def test_flags_bad_static_block(self):
        payload = MetricsRegistry().as_dict()
        payload["static"]["races"] = -3
        payload["static"]["agreement"] = {
            "sharc": {"agreeing": 1, "static_only": "no"}}
        problems = validate_metrics(payload)
        assert any("static.races" in p for p in problems)
        assert any("static.agreement.sharc.static_only" in p
                   for p in problems)
        assert any("static.agreement.sharc.dynamic_only" in p
                   for p in problems)

    def test_empty_registry_static_block_is_valid(self):
        payload = MetricsRegistry().as_dict()
        assert validate_metrics(payload) == []
        assert payload["static"] == {"races": 0, "agreement": {}}


class TestRateEdgeCases:
    def test_zero_denominator_rates_are_zero(self):
        """All-crash sweeps leave every denominator at zero; rates must
        come out 0.0, not NaN or ZeroDivisionError."""
        registry = MetricsRegistry()
        registry.record_sweep(_summary([_crash(0, "random"),
                                        _crash(1, "random")]))
        payload = registry.as_dict()
        assert validate_metrics(payload) == []
        assert payload["totals"]["races_per_1k"] == 0.0
        assert payload["totals"]["check_hit_rate"] == 0.0
        assert payload["per_policy"]["random"]["races_per_1k"] == 0.0
        assert payload["per_policy"]["random"]["check_hit_rate"] == 0.0

    def test_zero_update_outcomes_keep_hit_rate_zero(self):
        registry = MetricsRegistry()
        registry.record_sweep(_summary(
            [_outcome(0, "random", updates=0, fastpath=0)]))
        payload = registry.as_dict()
        assert payload["totals"]["check_hit_rate"] == 0.0
        assert validate_metrics(payload) == []


class TestDisjointPolicyMerge:
    def test_per_policy_merge_across_disjoint_sweeps(self):
        """Two sweeps over non-overlapping policy sets must union in
        per_policy, each bucket carrying only its own sweep's rows."""
        registry = MetricsRegistry()
        a = ExplorationSummary(filename="a.c", checker="sharc",
                               policies=("random",))
        a.add(_outcome(0, "random", reports=1, trace_hash="t1"))
        a.add(_outcome(1, "random", trace_hash="t2"))
        b = ExplorationSummary(filename="b.c", checker="sharc",
                               policies=("pct", "pb"))
        b.add(_outcome(0, "pct", trace_hash="t3"))
        b.add(_outcome(0, "pb", reports=1, trace_hash="t4"))
        registry.record_sweep(a)
        registry.record_sweep(b)
        payload = registry.as_dict()
        assert validate_metrics(payload) == []
        assert set(payload["per_policy"]) == {"random", "pct", "pb"}
        assert payload["per_policy"]["random"]["schedules"] == 2
        assert payload["per_policy"]["random"]["failures"] == 1
        assert payload["per_policy"]["pct"]["schedules"] == 1
        assert payload["per_policy"]["pct"]["failures"] == 0
        assert payload["per_policy"]["pb"]["failures"] == 1
        assert payload["totals"]["schedules"] == 4

    def test_overlapping_policy_buckets_accumulate(self):
        registry = MetricsRegistry()
        for _ in range(2):
            summary = _summary([_outcome(0, "random", reports=1)])
            registry.record_sweep(summary)
        bucket = registry.as_dict()["per_policy"]["random"]
        assert bucket["schedules"] == 2
        assert bucket["failures"] == 2


class TestSitesSection:
    def test_sweep_sites_flow_into_payload(self):
        registry = MetricsRegistry()
        summary = explore_source(RACY, "racy.c", seeds=2,
                                 policies=("random",))
        registry.record_sweep(summary)
        payload = registry.as_dict()
        assert validate_metrics(payload) == []
        rows = payload["sites"]["rows"]
        assert rows, "sweep recorded no check sites"
        assert payload["sites"]["totals"]["cost"] == \
            sum(r["cost"] for r in rows)
        assert all(r["file"] == "racy.c" for r in rows)

    def test_validator_flags_malformed_site_rows(self):
        payload = MetricsRegistry().as_dict()
        payload["sites"]["rows"] = [{"file": "a.c", "line": -1,
                                     "lvalue": "x", "op": "r"}]
        problems = validate_metrics(payload)
        assert problems and any("sites" in p for p in problems)

    def test_render_includes_hot_sites(self):
        registry = MetricsRegistry()
        summary = explore_source(RACY, "racy.c", seeds=1,
                                 policies=("random",))
        registry.record_sweep(summary)
        text = registry.render()
        assert "racy.c:" in text
