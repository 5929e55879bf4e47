"""Tests for the diagnostics infrastructure."""

import pytest

from repro.errors import (
    DiagKind, Diagnostic, DiagnosticSink, LexError, Loc, ParseError,
    Severity, SharcError,
)


class TestLoc:
    def test_str_with_column(self):
        assert str(Loc("a.c", 3, 7)) == "a.c:3:7"

    def test_str_without_column(self):
        assert str(Loc("a.c", 3)) == "a.c:3"

    def test_unknown(self):
        assert Loc.unknown().file == "<unknown>"

    def test_frozen(self):
        with pytest.raises(Exception):
            Loc("a.c", 1).line = 2


class TestDiagnostic:
    def test_render_with_notes(self):
        diag = Diagnostic(DiagKind.MODE_MISMATCH, "bad modes",
                          Loc("a.c", 4, 2), Severity.ERROR,
                          ["try SCAST"])
        text = str(diag)
        assert "a.c:4:2: error: bad modes" in text
        assert "note: try SCAST" in text

    def test_is_error(self):
        err = Diagnostic(DiagKind.PARSE, "x", Loc(), Severity.ERROR)
        warn = Diagnostic(DiagKind.PARSE, "x", Loc(), Severity.WARNING)
        assert err.is_error and not warn.is_error


class TestSink:
    def test_severity_buckets(self):
        sink = DiagnosticSink()
        sink.error(DiagKind.PARSE, "e")
        sink.warning(DiagKind.LIVE_AFTER_SCAST, "w")
        sink.suggest(DiagKind.SCAST_SUGGESTION, "s")
        assert len(sink.errors) == 1
        assert len(sink.warnings) == 1
        assert len(sink.suggestions) == 1
        assert sink.has_errors

    def test_empty_sink_is_falsy_but_usable(self):
        """DiagnosticSink defines __len__; code must never use `sink or
        default` (this bit us once — pinned here)."""
        sink = DiagnosticSink()
        assert len(sink) == 0
        assert not sink           # falsy when empty...
        assert sink is not None   # ...so identity checks are required

    def test_extend_merges(self):
        a, b = DiagnosticSink(), DiagnosticSink()
        a.error(DiagKind.PARSE, "one")
        b.error(DiagKind.PARSE, "two")
        a.extend(b)
        assert len(a) == 2

    def test_render_joins_lines(self):
        sink = DiagnosticSink()
        sink.error(DiagKind.PARSE, "first", Loc("a.c", 1))
        sink.error(DiagKind.PARSE, "second", Loc("a.c", 2))
        text = sink.render()
        assert "first" in text and "second" in text

    def test_iteration(self):
        sink = DiagnosticSink()
        sink.error(DiagKind.PARSE, "x")
        assert [d.message for d in sink] == ["x"]

    def test_identical_diagnostic_is_recorded_once(self):
        sink = DiagnosticSink()
        first = sink.error(DiagKind.PARSE, "x", Loc("a.c", 1, 2))
        again = sink.error(DiagKind.PARSE, "x", Loc("a.c", 1, 2))
        assert again is first
        assert len(sink) == 1
        # Any differing field makes it a new diagnostic.
        sink.error(DiagKind.PARSE, "x", Loc("a.c", 1, 3))
        sink.warning(DiagKind.PARSE, "x", Loc("a.c", 1, 2))
        sink.emit(DiagKind.PARSE, "x", Loc("a.c", 1, 2), notes=["n"])
        assert len(sink) == 4


class TestExceptions:
    def test_sharc_error_carries_loc(self):
        err = SharcError("boom", Loc("a.c", 9))
        assert err.loc.line == 9
        assert "a.c:9" in str(err)

    def test_subclasses(self):
        assert issubclass(LexError, SharcError)
        assert issubclass(ParseError, SharcError)
