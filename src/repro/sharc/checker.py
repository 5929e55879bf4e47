"""The one-call SharC pipeline: parse -> infer -> check -> instrument.

``check_source`` is the main entry point used by the examples, tests, and
benchmarks::

    checked = check_source(source, "prog.c")
    if checked.ok:
        result = run_checked(checked, seed=1)      # repro.runtime.interp

The returned :class:`CheckedProgram` carries the annotated AST (with
inferred qualifiers and runtime-check metadata on the nodes), all
diagnostics (errors, warnings, SCAST suggestions), and the inference
artifacts the runtime needs (the RC-tracked shape set).

After type checking, two static discharge tiers — check elimination
(:mod:`repro.sharc.checkelim`) and the locked(l) lockset refinement
(:mod:`repro.sharc.lockset`) — mark checks on one shared
evaluation-order walker (:mod:`repro.sharc.evalwalk`).  A run consumes
the marks under one ``static`` switch and is bit-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.errors import Diagnostic, DiagnosticSink, SharcError
from repro.cfront import cast as A
from repro.cfront.parser import parse_program
from repro.cfront.pretty import pretty_program
from repro.sharc.checkelim import ElimStats, mark_elisions
from repro.sharc.inference import InferenceResult, infer_program
from repro.sharc.instrument import (
    InstrumentStats, instrumented_listing, mark_rc_writes,
)
from repro.sharc.lockset import LocksetResult, analyze_locksets
from repro.sharc.typecheck import CheckStats, typecheck_program


@dataclass
class CheckedProgram:
    """The result of running the static half of SharC."""

    program: A.Program
    sink: DiagnosticSink
    inference: InferenceResult
    check_stats: CheckStats
    rc_stats: InstrumentStats
    source: str = ""
    filename: str = "<input>"
    #: check-elimination census (repro.sharc.checkelim).  The marks of
    #: both static discharge tiers are always computed, on one shared
    #: evaluation-order walk (repro.sharc.evalwalk); whether the
    #: interpreter consumes them is its one run-time ``static`` switch.
    elim_stats: ElimStats = field(default_factory=ElimStats)
    #: static lockset analysis (repro.sharc.lockset): locked(l)
    #: refinements and compile-time race findings.  Refinement marks
    #: are consumed under the same ``static`` switch.  Static races are
    #: warnings kept out of ``ok``.
    lockset_result: LocksetResult = field(default_factory=LocksetResult)

    @property
    def ok(self) -> bool:
        """True when the program type-checked with no errors."""
        return not self.sink.has_errors

    @property
    def errors(self) -> list[Diagnostic]:
        return self.sink.errors

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.sink.warnings

    @property
    def suggestions(self) -> list[Diagnostic]:
        return self.sink.suggestions

    def inferred_source(self) -> str:
        """The program with every inferred qualifier made explicit —
        the paper's Figure 2 view."""
        return pretty_program(self.program, show_inferred=True)

    def instrumented_source(self) -> str:
        return instrumented_listing(self.program)

    def render_diagnostics(self) -> str:
        return self.sink.render()


#: Benchmark compat: perfbench's traced run still spans a
#: ``sharc.absint`` pass and reads these zero counters.  Goes away with
#: that layer of perfbench; there is no abstract-interpretation tier.
_NO_ABSINT = SimpleNamespace(
    stats=SimpleNamespace(ai_elided=0, ai_ranges=0), rounds=0)


def analyze_absint(*_args):
    """Benchmark compat no-op; see :data:`_NO_ABSINT`."""
    return _NO_ABSINT


def check_program(program: A.Program, source: str = "",
                  filename: str = "<input>",
                  rc_all: bool = False) -> CheckedProgram:
    """Runs inference, type checking, and instrumentation marking."""
    sink = DiagnosticSink()
    inference = infer_program(program, sink)
    stats = typecheck_program(program, sink)
    rc_stats = mark_rc_writes(program, inference, rc_all=rc_all)
    elim_stats = mark_elisions(program)
    lockset_result = analyze_locksets(program, inference.seeds)
    analyze_absint(program)  # benchmark compat, see _NO_ABSINT
    return CheckedProgram(program, sink, inference, stats, rc_stats,
                          source, filename, elim_stats, lockset_result)


def check_source(source: str, filename: str = "<input>",
                 rc_all: bool = False) -> CheckedProgram:
    """Parses and checks a mini-C translation unit."""
    program = parse_program(source, filename)
    return check_program(program, source, filename, rc_all=rc_all)


def check_and_run(source: str, filename: str = "<input>", *,
                  seed: int = 0, world=None, max_steps: int = 2_000_000,
                  require_clean: bool = False):
    """Convenience: static check then one dynamic run.

    Returns ``(checked, result)``; ``result`` is None when static checking
    failed.  With ``require_clean`` a static error raises
    :class:`SharcError` instead.
    """
    from repro.runtime.interp import run_checked

    checked = check_source(source, filename)
    if not checked.ok:
        if require_clean:
            raise SharcError(
                "static checking failed:\n" + checked.render_diagnostics())
        return checked, None
    result = run_checked(checked, seed=seed, world=world,
                         max_steps=max_steps)
    return checked, result
