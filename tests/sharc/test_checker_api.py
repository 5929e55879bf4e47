"""Tests for the one-call pipeline API (repro.sharc.checker) and the
top-level package surface."""

import pytest

import repro
from repro.errors import SharcError
from repro.sharc.checker import check_and_run, check_source
from repro.sharc import check_source as pkg_check_source


CLEAN = """
int main() { printf("hi\\n"); return 0; }
"""

BROKEN = """
int readonly x = 1;
int main() { x = 2; return 0; }
"""


class TestCheckedProgram:
    def test_ok_property(self):
        assert check_source(CLEAN).ok
        assert not check_source(BROKEN).ok

    def test_filename_threaded_through(self):
        checked = check_source(BROKEN, "myfile.c")
        assert checked.filename == "myfile.c"
        assert "myfile.c" in checked.render_diagnostics()

    def test_source_retained(self):
        checked = check_source(CLEAN, "a.c")
        assert checked.source == CLEAN

    def test_diagnostics_partitioned(self):
        checked = check_source(BROKEN)
        assert checked.errors and not checked.ok
        assert isinstance(checked.warnings, list)
        assert isinstance(checked.suggestions, list)

    def test_inferred_source_parses_back(self):
        from repro.cfront.parser import parse_program
        checked = check_source(CLEAN)
        parse_program(checked.inferred_source())


@pytest.mark.parametrize("source, line", [
    ("int main() { x = 1; return 0; }",
     "t.c:1:16: error: cannot assign to 'x'"),
    ("int main() { int a; a = y; return 0; }",
     "t.c:1:25: error: use of undeclared name 'y'"),
    ("int main() { int a; a = *a; return 0; }",
     "t.c:1:25: error: invalid l-value '*a'"),
    ("struct s { int a; }; int main() { struct s v; v.b = 1; return 0; }",
     "t.c:1:48: error: struct s has no field 'b'"),
    ("int private * dynamic p; int main() { return 0; }",
     "t.c:1:23: error: ill-formed type 'int private *dynamic' (global "
     "'p'): a non-private pointer must not reference a private object "
     "(REF-CTOR)"),
])
def test_each_diagnostic_renders_once(source, line):
    """Inference and type checking walk the same bodies, and
    well-formedness runs before and after solving; each finding still
    prints once."""
    lines = check_source(source, "t.c").render_diagnostics().splitlines()
    assert lines.count(line) == 1
    assert len(lines) == len(set(lines))


class TestCheckAndRun:
    def test_clean_program_runs(self):
        checked, result = check_and_run(CLEAN, seed=1)
        assert checked.ok
        assert result is not None and result.output == "hi\n"

    def test_broken_program_returns_none_result(self):
        checked, result = check_and_run(BROKEN)
        assert not checked.ok
        assert result is None

    def test_require_clean_raises(self):
        with pytest.raises(SharcError, match="static checking failed"):
            check_and_run(BROKEN, require_clean=True)


class TestPackageSurface:
    def test_lazy_toplevel_exports(self):
        assert repro.check_source is pkg_check_source
        assert callable(repro.run_checked)
        assert callable(repro.check_and_run)
        assert repro.__version__

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.frobnicate

    def test_sharc_package_lazy_exports(self):
        import repro.sharc as sharc
        assert sharc.CheckedProgram.__name__ == "CheckedProgram"
        with pytest.raises(AttributeError):
            sharc.nonsense

    def test_run_source_convenience(self):
        from repro.runtime import run_source
        result = run_source(CLEAN, seed=0)
        assert result.output == "hi\n"
        with pytest.raises(SharcError):
            run_source(BROKEN)
