"""Tests for conflict-report rendering (the Section 2.1 format)."""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DiagKind, Loc
from repro.sharc.reports import Access, Report, oneref_detail


def test_read_conflict_matches_paper_layout():
    report = Report(
        DiagKind.READ_CONFLICT, 0x75324464,
        Access(2, "S->sdata", Loc("pipeline_test.c", 15)),
        Access(1, "nextS->sdata", Loc("pipeline_test.c", 27)))
    assert report.render() == (
        "read conflict(0x75324464):\n"
        " who(2) S->sdata @ pipeline_test.c: 15\n"
        " last(1) nextS->sdata @ pipeline_test.c: 27")


def test_write_conflict_kind():
    report = Report(
        DiagKind.WRITE_CONFLICT, 0x75324544,
        Access(2, "*(fdata + i)", Loc("pipeline_test.c", 52)),
        Access(3, "*(fdata + i)", Loc("pipeline_test.c", 62)))
    assert report.kind is DiagKind.WRITE_CONFLICT
    assert report.render().startswith("write conflict(0x75324544):")


def test_lock_not_held_names_the_lock():
    report = Report(DiagKind.LOCK_NOT_HELD, 0x100,
                    Access(1, "counter", Loc("a.c", 5)),
                    detail="required lock: locked(lk)")
    text = report.render()
    assert "lock not held" in text
    assert "required lock: locked(lk)" in text
    assert report.last is None


def test_oneref_includes_count():
    report = Report(DiagKind.ONEREF_FAILED, 0x200,
                    Access(2, "ldata", Loc("a.c", 17)),
                    detail=oneref_detail(3))
    assert "reference count is 3" in report.render()


def test_str_is_render():
    report = Report(DiagKind.LOCK_NOT_HELD, 0x1,
                    Access(1, "x", Loc("a.c", 1)), detail="required lock: m")
    assert str(report) == report.render()


def test_reports_are_frozen_values():
    a = Access(1, "x", Loc("a.c", 1))
    r1 = Report(DiagKind.READ_CONFLICT, 5, a, a)
    r2 = Report(DiagKind.READ_CONFLICT, 5, a, a)
    assert r1 == r2


def test_history_renders_hist_lines_with_modes():
    who = Access(3, "counter", Loc("racy.c", 6))
    last = Access(2, "counter", Loc("racy.c", 6))
    history = (Access(2, "counter", Loc("racy.c", 6), mode="w"),
               Access(1, "counter", Loc("racy.c", 12), mode="r"))
    text = Report(DiagKind.WRITE_CONFLICT, 0x10040, who, last,
                  history=history).render()
    assert " hist(2) [w] counter @ racy.c: 6" in text
    assert " hist(1) [r] counter @ racy.c: 12" in text


# -- JSON round-trip (property-tested over every DiagKind) -------------------

_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1,
    max_size=20)

_accesses = st.builds(
    Access,
    tid=st.integers(min_value=0, max_value=255),
    lvalue=_texts,
    loc=st.builds(Loc, _texts, st.integers(min_value=0, max_value=9999),
                  st.integers(min_value=0, max_value=200)),
    mode=st.sampled_from(["", "r", "w"]))

_reports = st.builds(
    Report,
    kind=st.sampled_from(list(DiagKind)),  # incl. two-word kinds
    addr=st.integers(min_value=0, max_value=2**32 - 1),
    who=_accesses,
    last=st.none() | _accesses,
    detail=st.sampled_from(["", "required lock: locked(lk)",
                            "reference count is 3, expected 1"]),
    history=st.lists(_accesses, max_size=4).map(tuple))


@given(report=_reports)
def test_report_json_round_trip(report):
    data = json.loads(json.dumps(report.to_dict()))
    assert Report.from_dict(data) == report


@given(access=_accesses)
def test_access_json_round_trip(access):
    data = json.loads(json.dumps(access.to_dict()))
    assert Access.from_dict(data) == access


def test_every_kind_survives_by_enum_value():
    a = Access(1, "x", Loc("a.c", 1))
    for kind in DiagKind:
        report = Report(kind, 0x20, a)
        assert Report.from_dict(report.to_dict()).kind is kind
