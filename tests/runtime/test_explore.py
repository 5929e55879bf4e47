"""Tests for the schedule-exploration engine (repro.explore)."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.explore import (
    explore_source, load_artifact, racy_c_program, replay_artifact,
    save_artifact, shrink_failure,
)
from repro.explore.driver import run_schedule, trace_hash
from repro.runtime.interp import run_checked
from repro.runtime.scheduler import ReplayPolicy

from tests.conftest import check_ok

RACY_COUNTER = """
int counter = 0;
void *bump(void *arg) {
  int i;
  for (i = 0; i < 5; i++)
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
"""

POLICIES = st.sampled_from(
    ["random", "round-robin", "serial", "pct:3:80", "pb:2"])


class TestScheduleDeterminism:
    """Property (satellite b): same seed + policy => bit-identical
    trace, reports, and step counts — both across fresh runs and under
    replay of the recorded trace."""

    @given(seed=st.integers(0, 10_000), policy=POLICIES)
    @settings(max_examples=40, deadline=None)
    def test_same_seed_same_everything(self, seed, policy):
        checked = check_ok(RACY_COUNTER)
        a = run_checked(checked, seed=seed, policy=policy,
                        record_trace=True)
        b = run_checked(checked, seed=seed, policy=policy,
                        record_trace=True)
        assert a.trace == b.trace
        assert a.report_counts == b.report_counts
        assert a.stats.steps_total == b.stats.steps_total
        assert a.stats.accesses_dynamic == b.stats.accesses_dynamic

    @given(seed=st.integers(0, 10_000), policy=POLICIES)
    @settings(max_examples=40, deadline=None)
    def test_trace_replay_is_exact(self, seed, policy):
        checked = check_ok(RACY_COUNTER)
        original = run_checked(checked, seed=seed, policy=policy,
                               record_trace=True)
        replayed = run_checked(checked, seed=0,
                               policy=ReplayPolicy(original.trace),
                               record_trace=True)
        assert replayed.trace == original.trace
        assert replayed.report_counts == original.report_counts
        assert replayed.stats.steps_total == original.stats.steps_total

    def test_different_seeds_explore_different_traces(self):
        checked = check_ok(RACY_COUNTER)
        traces = {tuple(run_checked(checked, seed=s,
                                    record_trace=True).trace)
                  for s in range(10)}
        assert len(traces) > 1


class TestDriver:
    def test_sweep_finds_injected_race(self):
        source, spec = racy_c_program(3)
        summary = explore_source(source, "racy3.c", seeds=40,
                                 policies=("random",),
                                 max_steps=200_000)
        hits = [k for k in summary.first_failures if spec.matches_key(k)]
        assert hits, summary.render()
        # ... and the advertised replay coordinates actually reproduce.
        first = summary.first_failures[hits[0]]
        outcome = run_schedule(source, "racy3.c", first.seed,
                               first.policy)
        assert hits[0] in outcome.report_keys

    def test_serial_never_sees_the_race(self):
        source, spec = racy_c_program(3)
        summary = explore_source(source, "racy3.c", seeds=5,
                                 policies=("serial",),
                                 max_steps=200_000)
        assert not any(spec.matches_key(k)
                       for k in summary.first_failures)
        # Deterministic policy: every seed walks the same trace.
        assert summary.distinct_traces == 1

    def test_coverage_accounting(self):
        summary = explore_source(RACY_COUNTER, seeds=10,
                                 policies=("random", "serial"))
        assert summary.schedules == 20
        assert summary.per_policy["serial"]["schedules"] == 10
        assert 1 <= summary.distinct_traces <= 20
        assert summary.races_per_1k == pytest.approx(
            1000.0 * len(summary.failures) / 20)
        data = summary.as_dict()
        assert data["schedules"] == 20
        assert set(data["per_policy"]) == {"random", "serial"}

    def test_jobs_parallel_matches_inline(self):
        """The fan-out folds in sweep order (policy rank, then seed),
        so a pooled sweep equals the inline one exactly — including
        ``first_failure``, which ``--shrink`` and the fuzz oracle
        minimise."""
        source, _ = racy_c_program(5)
        kwargs = dict(seeds=100, policies=("random", "pb"),
                      max_steps=200_000)
        inline = explore_source(source, "racy5.c", jobs=1, **kwargs)
        fanned = explore_source(source, "racy5.c", jobs=2, **kwargs)
        assert inline.outcomes == fanned.outcomes
        assert [(o.policy, o.seed) for o in inline.outcomes] == [
            (p, s) for p in inline.policies for s in range(100)]
        assert inline.failures == fanned.failures
        assert inline.first_failure == fanned.first_failure
        assert inline.site_totals == fanned.site_totals
        assert inline.site_totals
        as_dict = lambda summary: {
            k: v for k, v in summary.as_dict().items() if k != "profile"}
        assert as_dict(inline) == as_dict(fanned)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_progress_fires_per_schedule(self, jobs):
        source, _ = racy_c_program(3)
        calls = []
        summary = explore_source(
            source, "racy3.c", seeds=10, policies=("random", "pb"),
            jobs=jobs,
            progress=lambda done, total, _: calls.append((done, total)))
        assert len(calls) == summary.schedules == 20
        done = [d for d, _ in calls]
        assert all(a < b for a, b in zip(done, done[1:]))
        assert {t for _, t in calls} == {20}

    def test_pct_horizon_resolved_to_program_length(self):
        summary = explore_source(RACY_COUNTER, seeds=2,
                                 policies=("pct",))
        (resolved,) = summary.policies
        parts = resolved.split(":")
        assert parts[0] == "pct" and len(parts) == 3
        # replayable verbatim: the resolved spec is a valid policy
        run_checked(check_ok(RACY_COUNTER), seed=0, policy=resolved)

    def test_trace_hash_distinguishes(self):
        assert trace_hash([(1, 2), (2, 3)]) == trace_hash([(1, 2), (2, 3)])
        assert trace_hash([(1, 2), (2, 3)]) != trace_hash([(1, 2), (2, 4)])
        assert trace_hash([(1, 2)]) != trace_hash([(1, 21)])


class TestShrink:
    def _failing_outcome(self, source, filename, spec=None, seeds=40):
        summary = explore_source(source, filename, seeds=seeds,
                                 policies=("random",),
                                 max_steps=200_000)
        if spec is None:
            assert summary.first_failure is not None
            return summary.first_failure, None
        for key, outcome in sorted(summary.first_failures.items()):
            if spec.matches_key(key):
                return outcome, key
        pytest.fail("sweep did not find the injected race")

    def test_shrunk_schedule_reproduces_with_fewer_switches(self):
        """Property (satellite b): the shrunk schedule reproduces the
        original report with <= the original number of context
        switches."""
        source, spec = racy_c_program(3)
        outcome, key = self._failing_outcome(source, "racy3.c", spec)
        result = shrink_failure(source, "racy3.c", seed=outcome.seed,
                                policy=outcome.policy,
                                target_keys=[key])
        assert result.switches <= result.original_switches
        checked = check_ok(source, "racy3.c")
        replayed = run_checked(checked, seed=0,
                               policy=ReplayPolicy(result.trace),
                               shadow_bytes=2, record_trace=True)
        assert key in replayed.report_counts

    def test_shrink_is_deterministic(self):
        source, spec = racy_c_program(3)
        outcome, key = self._failing_outcome(source, "racy3.c", spec)
        a = shrink_failure(source, "racy3.c", seed=outcome.seed,
                           policy=outcome.policy, target_keys=[key])
        b = shrink_failure(source, "racy3.c", seed=outcome.seed,
                           policy=outcome.policy, target_keys=[key])
        assert a.trace == b.trace
        assert a.replays == b.replays

    def test_shrink_refuses_passing_schedule(self):
        source, _ = racy_c_program(3)
        with pytest.raises(ValueError, match="does not fail"):
            shrink_failure(source, "racy3.c", seed=0, policy="serial")

    def test_artifact_round_trip(self, tmp_path):
        source, spec = racy_c_program(3)
        outcome, key = self._failing_outcome(source, "racy3.c", spec)
        result = shrink_failure(source, "racy3.c", seed=outcome.seed,
                                policy=outcome.policy,
                                target_keys=[key])
        path = str(tmp_path / "schedule.json")
        save_artifact(result, path)
        payload = load_artifact(path)
        assert payload["report_keys"] == [key]
        assert payload["version"] == 2
        assert not {"max_burst", "shadow_bytes", "workload"} & set(payload)
        replayed = replay_artifact(payload)
        assert key in replayed.report_counts
        again = replay_artifact(payload)
        assert replayed.report_counts == again.report_counts
        assert replayed.trace == again.trace

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError, match="not a schedule artifact"):
            load_artifact(str(path))

    def test_load_refuses_version_1(self, tmp_path):
        """Version 1 artifacts carried a burst cap, shadow width and
        workload of their own; there is no reader for them."""
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"kind": "sharc-schedule",
                                    "version": 1}))
        with pytest.raises(ValueError, match="version 1"):
            load_artifact(str(path))


class TestDifferential:
    """Satellite d: the racy generator's output through the SharC
    checker AND the Eraser baseline under the same seeds."""

    def test_injected_race_flagged_by_at_least_one_checker(self):
        from repro.explore import differential_sweep

        source, spec = racy_c_program(11, kind="lock-elision")
        summary = differential_sweep(source, "racy11.c", seeds=25,
                                     policies=("random",),
                                     max_steps=200_000)
        sharc_hits = [k for k in summary.sharc.first_failures
                      if spec.matches_key(k)]
        eraser_hits = [k for k in summary.eraser.first_failures
                       if spec.matches_key(k)]
        assert sharc_hits or eraser_hits

    def test_disagreements_are_replayable(self):
        from repro.explore import differential_sweep

        source, _ = racy_c_program(11, kind="lock-elision")
        summary = differential_sweep(source, "racy11.c", seeds=8,
                                     policies=("random",),
                                     max_steps=200_000)
        assert summary.schedules == 8
        assert summary.agreeing + len(summary.disagreements) == 8
        for d in summary.disagreements[:3]:
            sharc = run_schedule(source, "racy11.c", d.seed, d.policy,
                                 checker="sharc")
            eraser = run_schedule(source, "racy11.c", d.seed, d.policy,
                                  checker="eraser")
            assert sharc.report_keys == d.sharc_keys
            assert eraser.report_keys == d.eraser_keys

    def test_render_and_dict(self):
        from repro.explore import differential_sweep

        source, _ = racy_c_program(11, kind="lock-elision")
        summary = differential_sweep(source, "racy11.c", seeds=3,
                                     policies=("random",),
                                     max_steps=200_000)
        text = summary.render()
        assert "differential sweep" in text
        data = summary.as_dict()
        assert data["schedules"] == 3
        assert len(data["disagreements"]) == len(summary.disagreements)


class TestDifferentialStatic:
    """The static column: the compile-time lockset verdict scored
    against each dynamic checker, schedule by schedule."""

    def _sweep(self, seeds=4):
        from repro.explore import differential_sweep

        source, spec = racy_c_program(3, kind="write-write")
        return spec, differential_sweep(source, "racy3.c", seeds=seeds,
                                        policies=("random",),
                                        max_steps=200_000)

    def test_static_keys_present_for_seeded_race(self):
        spec, summary = self._sweep()
        assert any(spec.global_name in k for k in summary.static_keys)

    def test_agreement_counts_cover_every_schedule(self):
        _, summary = self._sweep(seeds=5)
        for agr in (summary.static_vs_sharc, summary.static_vs_eraser):
            assert agr is not None
            assert agr.schedules == 5
            assert (agr.agreeing + agr.static_only
                    + agr.dynamic_only) == 5

    def test_as_dict_includes_static_column(self):
        _, summary = self._sweep()
        data = summary.as_dict()
        static = data["static"]
        assert static["keys"] == list(summary.static_keys)
        assert static["vs_sharc"]["checker"] == "sharc"
        assert static["vs_eraser"]["checker"] == "eraser"

    def test_static_agreement_round_trips(self):
        from repro.explore.differential import StaticAgreement

        _, summary = self._sweep()
        for agr in (summary.static_vs_sharc, summary.static_vs_eraser):
            again = StaticAgreement.from_dict(agr.as_dict())
            assert again == agr

    def test_score_classification(self):
        from repro.explore.differential import StaticAgreement

        class Outcome:
            def __init__(self, keys):
                self.report_keys = keys

        outcomes = [Outcome(("k",)), Outcome(()), Outcome(("k", "j"))]
        flagged = StaticAgreement.score("sharc", True, outcomes)
        assert (flagged.agreeing, flagged.static_only,
                flagged.dynamic_only) == (2, 1, 0)
        clean = StaticAgreement.score("sharc", False, outcomes)
        assert (clean.agreeing, clean.static_only,
                clean.dynamic_only) == (1, 0, 2)

    def test_render_mentions_static_column(self):
        _, summary = self._sweep()
        text = summary.render()
        assert "compile-time race(s)" in text
        assert "vs sharc" in text
        assert "vs eraser" in text

    def test_metrics_registry_accumulates_static(self):
        from repro.obs.metrics import MetricsRegistry, validate_metrics

        _, summary = self._sweep()
        registry = MetricsRegistry()
        registry.record_sweep(summary.sharc)
        registry.record_sweep(summary.eraser)
        registry.record_differential(summary)
        payload = registry.as_dict()
        assert validate_metrics(payload) == []
        static = payload["static"]
        assert static["races"] == len(summary.static_keys)
        assert set(static["agreement"]) == {"sharc", "eraser"}
        agr = static["agreement"]["sharc"]
        assert (agr["agreeing"] + agr["static_only"]
                + agr["dynamic_only"]) == summary.schedules
        assert "static races:" in registry.render()


class TestDisagreementCoords:
    def test_replay_coords_multi_digit_seeds(self):
        from repro.explore.differential import Disagreement

        d = Disagreement(seed=1234, policy="pct",
                         sharc_keys=("a",), eraser_keys=())
        assert d.replay_coords() == "seed=1234 policy=pct"
        d2 = Disagreement(seed=40567, policy="round-robin",
                          sharc_keys=(), eraser_keys=("b",))
        assert d2.replay_coords() == "seed=40567 policy=round-robin"

    def test_only_keys_are_set_differences(self):
        from repro.explore.differential import Disagreement

        d = Disagreement(seed=10, policy="random",
                         sharc_keys=("a", "b"), eraser_keys=("b", "c"))
        assert d.sharc_only == ("a",)
        assert d.eraser_only == ("c",)


class TestWorkloadExploration:
    def test_explore_workload_runs(self):
        from repro.explore import explore_workload

        summary = explore_workload("pbzip2", seeds=2,
                                   policies=("random",))
        assert summary.schedules == 2
        assert summary.filename == "pbzip2.c"


class _FlakyWorld:
    """World factory that blows up on every second construction —
    deterministic in a serial sweep, so exactly half the schedules
    crash inside ``run_schedule`` before the program even starts."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        from repro.runtime.world import World

        self.calls += 1
        if self.calls % 2 == 0:
            raise RuntimeError("world construction failed")
        return World()


class TestSweepCrashTolerance:
    """Regression: one crashing schedule used to abort the whole sweep
    (``pool.imap`` re-raises worker exceptions in the parent), throwing
    away every other schedule's result.  Crashes are now error-tagged
    outcomes that stay out of the coverage metrics."""

    def test_crashing_schedules_do_not_abort_the_sweep(self):
        summary = explore_source(RACY_COUNTER, "racy.c", seeds=6,
                                 policies=("round-robin",),
                                 world_factory=_FlakyWorld())
        assert summary.schedules == 6
        assert len(summary.crashes) == 3
        assert not summary.interrupted
        # The surviving half still ran and was measured normally.
        healthy = [o for o in summary.outcomes if o.trace_hash]
        assert len(healthy) == 3
        assert all(o.steps > 0 for o in healthy)

    def test_crash_outcomes_are_tagged_not_counted_as_coverage(self):
        summary = explore_source(RACY_COUNTER, "racy.c", seeds=4,
                                 policies=("round-robin",),
                                 world_factory=_FlakyWorld())
        crash = summary.crashes[0]
        assert crash.trace_hash == ""
        assert "RuntimeError" in crash.error
        assert crash.replay_coords()  # replayable coordinates survive
        # Empty hashes never count as distinct schedule-space points.
        assert "" not in summary.trace_hashes
        bucket = summary.per_policy["round-robin"]
        assert bucket["crashes"] == 2
        assert bucket["schedules"] == 4

    def test_crashes_surface_in_dict_and_rendering(self):
        summary = explore_source(RACY_COUNTER, "racy.c", seeds=2,
                                 policies=("round-robin",),
                                 world_factory=_FlakyWorld())
        payload = summary.as_dict()
        assert payload["crashed_schedules"] == 1
        assert payload["crashes"][0]["error"].startswith("RuntimeError")
        assert payload["interrupted"] is False
        assert "crashed schedules: 1" in summary.render()

    def test_clean_sweep_reports_no_crashes(self):
        summary = explore_source(RACY_COUNTER, "racy.c", seeds=3,
                                 policies=("round-robin",))
        assert summary.crashes == []
        assert summary.as_dict()["crashed_schedules"] == 0
        assert "crashed schedules" not in summary.render()

    def test_crash_outcomes_carry_the_exception_repr(self):
        summary = explore_source(RACY_COUNTER, "racy.c", seeds=4,
                                 policies=("round-robin",),
                                 world_factory=_FlakyWorld())
        for crash in summary.crashes:
            assert crash.error == \
                "RuntimeError: world construction failed"
        payload = summary.as_dict()
        assert [c["error"] for c in payload["crashes"]] == \
            ["RuntimeError: world construction failed"] * 2

    def test_completed_schedules_excludes_crashes(self):
        summary = explore_source(RACY_COUNTER, "racy.c", seeds=6,
                                 policies=("round-robin",),
                                 world_factory=_FlakyWorld())
        assert summary.schedules == 6
        assert summary.completed_schedules == 3
        assert summary.as_dict()["completed_schedules"] == 3

    def test_races_per_1k_uses_the_crash_adjusted_denominator(self):
        """With _FlakyWorld, every *surviving* round-robin schedule of
        the racy counter fails — so the rate must be 1000/1k exactly.
        Counting the 3 crashed schedules in the denominator would dilute
        it to 500/1k, understating the observed race rate."""
        summary = explore_source(RACY_COUNTER, "racy.c", seeds=6,
                                 policies=("round-robin",),
                                 world_factory=_FlakyWorld())
        assert len(summary.failures) == 3
        assert summary.races_per_1k == pytest.approx(1000.0)
        assert summary.as_dict()["races_per_1k"] == \
            pytest.approx(1000.0)

    def test_all_crashing_sweep_has_zero_rate_not_a_crash(self):
        """completed_schedules == 0 must not divide by zero."""

        class _AlwaysBroken:
            def __call__(self):
                raise RuntimeError("no world today")

        summary = explore_source(RACY_COUNTER, "racy.c", seeds=3,
                                 policies=("round-robin",),
                                 world_factory=_AlwaysBroken())
        assert summary.completed_schedules == 0
        assert summary.races_per_1k == 0.0
        assert summary.distinct_traces == 0

    def test_crashes_stay_out_of_coverage_denominators(self):
        flaky = explore_source(RACY_COUNTER, "racy.c", seeds=6,
                               policies=("round-robin",),
                               world_factory=_FlakyWorld())
        clean = explore_source(RACY_COUNTER, "racy.c", seeds=3,
                               policies=("round-robin",))
        # The 3 surviving schedules measure exactly what a clean 3-seed
        # sweep measures: crashes contribute nothing to coverage.
        assert flaky.distinct_traces == clean.distinct_traces
        assert flaky.races_per_1k == clean.races_per_1k


class TestArrivalOrderInvariance:
    """``ExplorationSummary.add`` keys first failures on sweep
    coordinates, so the folded summary does not depend on the order
    outcomes are added in."""

    def _outcomes(self, policies=("round-robin", "random"), seeds=6):
        outcomes = []
        for policy in policies:
            for seed in range(seeds):
                outcomes.append(run_schedule(
                    RACY_COUNTER, "racy.c", seed, policy, "sharc",
                    2000))
        return outcomes

    @staticmethod
    def _fold(outcomes, policies):
        from repro.explore.driver import ExplorationSummary

        summary = ExplorationSummary(filename="racy.c",
                                     checker="sharc",
                                     policies=tuple(policies))
        for outcome in outcomes:
            summary.add(outcome)
        payload = summary.as_dict()
        payload.pop("profile", None)  # the one wall-clock field
        return payload

    @given(shuffle=st.randoms(use_true_random=False))
    @settings(max_examples=15, deadline=None)
    def test_shuffled_arrival_same_summary(self, shuffle):
        policies = ("round-robin", "random")
        outcomes = self._outcomes(policies)
        baseline = self._fold(outcomes, policies)
        shuffled = list(outcomes)
        shuffle.shuffle(shuffled)
        assert self._fold(shuffled, policies) == baseline


class TestOutcomePayloadSize:
    """Satellite: collect_sites=False drops per-outcome site maps so
    campaign workers can sample attribution 1-in-N — guarded by a
    pickle-size regression bound."""

    def test_collect_sites_false_empties_sites(self):
        lean = run_schedule(RACY_COUNTER, "racy.c", 0, "round-robin",
                            collect_sites=False)
        full = run_schedule(RACY_COUNTER, "racy.c", 0, "round-robin",
                            collect_sites=True)
        assert lean.sites == ()
        assert full.sites
        # everything else is identical — sites are observational
        assert lean.trace_hash == full.trace_hash
        assert lean.reports == full.reports
        assert lean.steps == full.steps

    def test_lean_outcome_pickle_stays_small(self):
        import pickle

        lean = run_schedule(RACY_COUNTER, "racy.c", 0, "random",
                            collect_sites=False)
        full = run_schedule(RACY_COUNTER, "racy.c", 0, "random",
                            collect_sites=True)
        lean_size = len(pickle.dumps(lean))
        full_size = len(pickle.dumps(full))
        assert lean_size < full_size
        # regression bound: a lean outcome is a fixed-size record; give
        # it generous headroom but fail on reintroduced payload bloat
        assert lean_size < 1024


class TestHorizonProbeCache:
    """Satellite: the PCT horizon probe (one serial run) happens once
    per (source, checker, limits) per process, not once per sweep."""

    def test_probe_runs_once_across_repeated_resolution(self, monkeypatch):
        from repro.explore import driver
        from repro.runtime import interp

        monkeypatch.setattr(driver, "_HORIZON_CACHE", {})
        calls = []
        real = interp.run_checked

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(interp, "run_checked", counting)
        args = (("pct", "pct:2"), RACY_COUNTER, "racy.c", "sharc",
                2000, None)
        first = driver._resolve_policies(*args)
        assert len(calls) == 1
        second = driver._resolve_policies(*args)
        assert len(calls) == 1  # cache hit: no second probe
        assert first == second
        assert all(spec.count(":") == 2 for spec in first)

    def test_explicit_horizons_skip_the_probe(self, monkeypatch):
        from repro.explore import driver
        from repro.runtime import interp

        monkeypatch.setattr(driver, "_HORIZON_CACHE", {})

        def boom(*args, **kwargs):
            raise AssertionError("probe must not run")

        monkeypatch.setattr(interp, "run_checked", boom)
        resolved = driver._resolve_policies(
            ("random", "pct:3:400", "pb:2"), RACY_COUNTER, "racy.c",
            "sharc", 2000, None)
        assert resolved == ("random", "pct:3:400", "pb:2")

    def test_caches_stay_at_their_bound(self, monkeypatch):
        """Checking more distinct sources than ``CACHE_ENTRIES`` keeps
        both per-process caches at the bound, and the most recent
        sources still hit."""
        from repro.explore import driver
        from repro.runtime import interp

        monkeypatch.setattr(driver, "_CHECK_CACHE", driver._LRU())
        monkeypatch.setattr(driver, "_HORIZON_CACHE", driver._LRU())
        assert driver.CACHE_ENTRIES >= 12  # the largest shipped campaign
        sources = [f"{RACY_COUNTER}// variant {n}\n"
                   for n in range(driver.CACHE_ENTRIES + 3)]
        for source in sources:
            driver._resolve_policies(("pct",), source, "racy.c", "sharc",
                                     2000, None)
        assert len(driver._CHECK_CACHE) == driver.CACHE_ENTRIES
        assert len(driver._HORIZON_CACHE) == driver.CACHE_ENTRIES

        def boom(*args, **kwargs):
            raise AssertionError("a recent source must hit the cache")

        monkeypatch.setattr(interp, "run_checked", boom)
        monkeypatch.setattr("repro.sharc.checker.check_source", boom)
        recent = driver._checked_program(sources[-1], "racy.c")
        assert recent is driver._checked_program(sources[-1], "racy.c")
        driver._resolve_policies(("pct",), sources[3], "racy.c", "sharc",
                                 2000, None)
