"""Tests for the observability layer (repro.obs).

Covers the event bus (filtering, sampling, ring bound), the per-granule
access history, both exporters and their validators, and the
acceptance properties of the tracing design: an untraced run allocates
no tracing state, and every trace the runtime produces is schema-valid.
That a traced run is bit-identical to an untraced one is the identity
oracle's (``test_identity_oracle.py``).
"""

import json

import pytest

from tests.runtime.test_identity_oracle import COUNTER as RACY
from repro.errors import DiagKind, Loc
from repro.obs.events import (
    CATEGORIES, CAT_CHECK, CAT_CONFLICT, CAT_SCHED, Event, TraceBus,
    TraceConfig, parse_filter,
)
from repro.obs.export import (
    chrome_trace, jsonl_records, read_jsonl, render_summary,
    validate_chrome_trace, validate_jsonl_records, write_chrome_trace,
    write_jsonl,
)
from repro.obs.history import AccessHistory
from repro.runtime import interp as interp_module
from repro.runtime.interp import run_checked
from repro.sharc.checker import check_source
from repro.sharc.reports import Access, Report


CLEAN = """
mutex lk;
int locked(lk) counter = 0;

void *bump(void *arg) {
  mutexLock(&lk);
  counter = counter + 1;
  mutexUnlock(&lk);
  return NULL;
}

int main() {
  int t1 = thread_create(bump, NULL);
  thread_join(t1);
  return 0;
}
"""


def _checked(source):
    checked = check_source(source, "obs_test.c")
    assert checked.ok, checked.render_diagnostics()
    return checked


# -- TraceBus ----------------------------------------------------------------


class TestTraceBus:
    def test_emit_uses_clock_and_snapshot_orders(self):
        ticks = iter([5, 9])
        bus = TraceBus(clock=lambda: next(ticks))
        bus.emit(CAT_SCHED, "a", 1)
        bus.emit(CAT_CHECK, "b", 2, dur=3, hit=True)
        events = bus.snapshot()
        assert [e.ts for e in events] == [5, 9]
        assert events[1].dur == 3
        assert events[1].args == {"hit": True}

    def test_explicit_ts_overrides_clock(self):
        bus = TraceBus(clock=lambda: 100)
        bus.emit(CAT_SCHED, "run", 1, dur=7, ts=42)
        assert bus.snapshot()[0].ts == 42

    def test_category_filter_drops_unwanted(self):
        bus = TraceBus(TraceConfig(categories=frozenset({CAT_CHECK})))
        bus.emit(CAT_SCHED, "switch", 1)
        bus.emit(CAT_CHECK, "chkread", 1)
        assert bus.wants(CAT_CHECK) and not bus.wants(CAT_SCHED)
        assert [e.cat for e in bus.snapshot()] == [CAT_CHECK]

    def test_ring_is_bounded_and_counts_drops(self):
        bus = TraceBus(TraceConfig(buffer_size=3))
        for i in range(10):
            bus.emit(CAT_SCHED, "e", 1, ts=i)
        assert len(bus) == 3
        assert [e.ts for e in bus.snapshot()] == [7, 8, 9]


class TestTraceConfig:
    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError, match="unknown trace categories"):
            TraceConfig(categories=frozenset({"bogus"}))

    def test_rejects_bad_buffer_and_sample(self):
        with pytest.raises(ValueError):
            TraceConfig(buffer_size=0)


class TestParseFilter:
    def test_parses_and_strips(self):
        assert parse_filter("check, conflict") == frozenset(
            {"check", "conflict"})

    def test_rejects_unknown_and_empty(self):
        with pytest.raises(ValueError, match="unknown trace categories"):
            parse_filter("check,turbo")
        with pytest.raises(ValueError, match="empty"):
            parse_filter(" , ")

    def test_every_category_is_parseable(self):
        assert parse_filter(",".join(CATEGORIES)) == frozenset(CATEGORIES)


def test_event_dict_round_trip():
    event = Event(CAT_CHECK, "chkwrite", 3, ts=17, dur=4,
                  args={"hit": False, "lvalue": "x"})
    assert Event.from_dict(event.to_dict()) == event
    bare = Event(CAT_SCHED, "switch", 1, ts=0)
    assert Event.from_dict(bare.to_dict()) == bare


# -- AccessHistory -----------------------------------------------------------


class TestAccessHistory:
    def test_records_newest_first_with_modes(self):
        hist = AccessHistory(depth=4)
        loc = Loc("a.c", 1)
        hist.record(0x100, 4, tid=1, lvalue="x", loc=loc,
                    is_write=False, ts=1)
        hist.record(0x100, 4, tid=2, lvalue="x", loc=loc,
                    is_write=True, ts=2)
        accesses = hist.provenance(0x100, 4)
        assert [(a.tid, a.mode) for a in accesses] == [(2, "w"), (1, "r")]

    def test_depth_bounds_the_ring(self):
        hist = AccessHistory(depth=2)
        loc = Loc("a.c", 1)
        for i in range(5):
            hist.record(0x40, 1, tid=i, lvalue="x", loc=loc,
                        is_write=True, ts=i)
        assert [a.tid for a in hist.provenance(0x40)] == [4, 3]

    def test_spanning_access_deduplicated(self):
        hist = AccessHistory()
        # 32 bytes from 0x100 covers granules 0x10 and 0x11.
        hist.record(0x100, 32, tid=7, lvalue="buf", loc=Loc("a.c", 2),
                    is_write=True, ts=5)
        assert len(hist.recent(0x100, 32)) == 1
        assert hist.granules() == 2

    def test_clear_range_forgets(self):
        hist = AccessHistory()
        hist.record(0x200, 16, tid=1, lvalue="p", loc=Loc("a.c", 3),
                    is_write=True, ts=1)
        hist.clear_range(0x200, 16)
        assert hist.provenance(0x200, 16) == ()
        assert hist.granules() == 0

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            AccessHistory(depth=0)


# -- exporters ---------------------------------------------------------------


def _sample_events():
    return [
        Event(CAT_SCHED, "run", 1, ts=0, dur=10, args={"items": 3}),
        Event(CAT_CHECK, "chkwrite", 1, ts=4, dur=1, args={"hit": True}),
        Event(CAT_CONFLICT, "write conflict", 2, ts=9,
              args={"lvalue": "counter"}),
    ]


class TestChromeTrace:
    def test_valid_and_well_shaped(self):
        payload = chrome_trace(_sample_events(), {1: "main"})
        assert validate_chrome_trace(payload) == []
        by_ph = {}
        for entry in payload["traceEvents"]:
            by_ph.setdefault(entry["ph"], []).append(entry)
        # spans become X slices, conflicts instants, plus M metadata
        assert any(e["name"] == "run" and e["dur"] == 10
                   for e in by_ph["X"])
        assert any(e["name"] == "write conflict" and e["s"] == "t"
                   for e in by_ph["i"])
        names = [e for e in by_ph["M"] if e["name"] == "thread_name"]
        assert {e["args"]["name"] for e in names} == {"main", "thread2"}

    def test_validator_flags_problems(self):
        assert validate_chrome_trace({}) == \
            ["traceEvents missing or not an array"]
        bad = {"traceEvents": [
            {"ph": "Z", "name": "x", "pid": 1, "tid": 1, "ts": 0},
            {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0},
            {"ph": "i", "name": "x", "pid": 1, "tid": "one", "ts": -1},
        ]}
        problems = validate_chrome_trace(bad)
        assert any("bad phase" in p for p in problems)
        assert any("needs dur" in p for p in problems)
        assert any("tid" in p for p in problems)
        assert any("ts missing or negative" in p for p in problems)

    def test_write_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), _sample_events(), {1: "main"},
                           meta={"seed": "3"})
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["seed"] == "3"
        assert payload["otherData"]["clock"] == "interpreter-steps"


class TestJsonl:
    def test_records_and_validation(self):
        report = Report(
            DiagKind.WRITE_CONFLICT, 0x10, Access(1, "x", Loc("a.c", 1)),
            Access(2, "x", Loc("a.c", 2)))
        records = jsonl_records(_sample_events(), [report], {1: "main"},
                                meta={"file": "a.c"})
        assert validate_jsonl_records(records) == []
        assert records[0]["threads"] == {"1": "main"}
        assert records[0]["events"] == 3
        assert records[0]["reports"] == 1
        assert records[-1]["record"] == "report"

    def test_validator_flags_problems(self):
        assert validate_jsonl_records([]) == ["empty trace"]
        records = [{"record": "header", "kind": "sharc-trace",
                    "version": 1},
                   {"record": "event", "cat": "bogus", "name": "x",
                    "tid": 1, "ts": 0},
                   {"record": "report"},
                   {"record": "mystery"}]
        problems = validate_jsonl_records(records)
        assert any("bad category" in p for p in problems)
        assert any("report missing kind" in p for p in problems)
        assert any("unknown record" in p for p in problems)

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        report = Report(
            DiagKind.WRITE_CONFLICT, 0x10, Access(1, "x", Loc("a.c", 1)),
            Access(2, "x", Loc("a.c", 2)),
            history=(Access(2, "x", Loc("a.c", 2), mode="w"),))
        events = _sample_events()
        write_jsonl(str(path), events, [report], {1: "main", 2: "bump"})
        header, loaded, report_dicts = read_jsonl(str(path))
        assert header["threads"] == {"1": "main", "2": "bump"}
        assert loaded == events
        assert [Report.from_dict(r) for r in report_dicts] == [report]


def test_render_summary_mentions_counts_and_conflicts():
    text = render_summary(_sample_events(), {1: "main"}, limit=2)
    assert "3 events over steps 0..10" in text
    assert "sched=1" in text and "conflict=1" in text
    assert "counter" in text  # the conflict line
    assert "[       0] sched/run" in text
    assert render_summary([]) == "empty trace (0 events)"


# -- acceptance: tracing off allocates nothing -------------------------------


class TestBitIdentical:
    def test_untraced_run_allocates_no_tracing_state(self):
        checked = _checked(CLEAN)
        result = run_checked(checked, seed=1)
        assert result.clean
        assert result.events is None


# -- acceptance: produced traces are valid and carry provenance --------------


class TestRuntimeTraces:
    def test_traced_run_produces_valid_chrome_and_jsonl(self):
        checked = _checked(RACY)
        result = run_checked(checked, seed=7, trace=TraceConfig())
        assert result.events, "traced run produced no events"
        payload = chrome_trace(result.events, result.thread_names)
        assert validate_chrome_trace(payload) == []
        records = jsonl_records(result.events, result.reports,
                                result.thread_names)
        assert validate_jsonl_records(records) == []
        cats = {e.cat for e in result.events}
        assert {CAT_SCHED, CAT_CHECK, "thread"} <= cats

    def test_conflict_report_carries_history_lines(self):
        checked = _checked(RACY)
        result = None
        for seed in range(20):
            candidate = run_checked(checked, seed=seed,
                                    trace=TraceConfig())
            if candidate.reports:
                result = candidate
                break
        assert result is not None, "no racy schedule in 20 seeds"
        report = result.reports[0]
        assert report.kind in (DiagKind.READ_CONFLICT,
                               DiagKind.WRITE_CONFLICT)
        assert len(report.history) >= 2
        rendered = report.render()
        assert rendered.count(" hist(") >= 2
        assert "[r] " in rendered or "[w] " in rendered

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_repeated_conflict_builds_one_report_per_key(
            self, backend, monkeypatch):
        """A repeat of a reported key only bumps its count: neither the
        report nor its history is built again."""
        checked = _checked(RACY)
        untraced = run_checked(checked, seed=7, backend=backend)
        built, fetched = [], []
        monkeypatch.setattr(interp_module, "Report",
                            lambda *a: built.append(a) or Report(*a))
        provenance = AccessHistory.provenance
        monkeypatch.setattr(
            AccessHistory, "provenance",
            lambda *a: fetched.append(a) or provenance(*a))
        traced = run_checked(checked, seed=7, backend=backend,
                             trace=TraceConfig())
        assert traced.report_counts == untraced.report_counts
        assert sum(traced.report_counts.values()) > len(traced.reports)
        assert len(built) == len(fetched) == len(traced.reports) \
            == len(traced.report_counts)
        assert all(r.history for r in traced.reports)

    def test_trace_filter_restricts_categories(self):
        checked = _checked(RACY)
        config = TraceConfig(categories=parse_filter("check,conflict"))
        result = run_checked(checked, seed=7, trace=config)
        assert result.events
        assert {e.cat for e in result.events} <= {CAT_CHECK, CAT_CONFLICT}
