"""Diagnostics and source locations for the SharC reproduction.

Every phase of the pipeline (lexing, parsing, inference, type checking,
instrumentation, runtime checking) reports problems through the small set of
classes defined here, so that tools and tests can treat diagnostics
uniformly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Loc:
    """A source location: file name, 1-based line, 1-based column."""

    file: str = "<input>"
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        if self.col:
            return f"{self.file}:{self.line}:{self.col}"
        return f"{self.file}:{self.line}"

    @staticmethod
    def unknown() -> "Loc":
        return Loc("<unknown>", 0, 0)


class Severity(enum.Enum):
    """How serious a diagnostic is."""

    NOTE = "note"
    SUGGESTION = "suggestion"
    WARNING = "warning"
    ERROR = "error"


class DiagKind(enum.Enum):
    """What phase / rule produced a diagnostic.

    The kinds mirror the checks described in the paper: static type errors
    (Figure 4), inference failures (Section 4.1), sharing-cast suggestions
    (Section 2), and the runtime conflict reports (Section 2.1).
    """

    LEX = "lex"
    PARSE = "parse"
    WELLFORMED = "ill-formed type"
    MODE_MISMATCH = "sharing mode mismatch"
    READONLY_WRITE = "write to readonly"
    PRIVATE_SHARED = "private object is shared"
    LOCK_NOT_CONSTANT = "lock expression not constant"
    VOID_SCAST = "sharing cast on void pointer"
    BAD_SCAST = "illegal sharing cast"
    SCAST_SUGGESTION = "sharing cast suggested"
    LIVE_AFTER_SCAST = "pointer live after sharing cast"
    VARARG_NOT_PRIVATE = "vararg pointer argument not private"
    READ_CONFLICT = "read conflict"
    WRITE_CONFLICT = "write conflict"
    LOCK_NOT_HELD = "lock not held"
    ONEREF_FAILED = "object has more than one reference"
    STATIC_RACE = "static race"
    RUNTIME = "runtime error"


@dataclass
class Diagnostic:
    """One report from any phase of the checker."""

    kind: DiagKind
    message: str
    loc: Loc = field(default_factory=Loc)
    severity: Severity = Severity.ERROR
    notes: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        out = f"{self.loc}: {self.severity.value}: {self.message}"
        for note in self.notes:
            out += f"\n  note: {note}"
        return out

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR


class SharcError(Exception):
    """Base class for fatal errors raised by the pipeline."""

    def __init__(self, message: str, loc: Loc | None = None):
        self.loc = loc or Loc.unknown()
        super().__init__(f"{self.loc}: {message}" if loc else message)
        self.message = message


class LexError(SharcError):
    """Raised on malformed input during tokenization."""


class ParseError(SharcError):
    """Raised on a syntax error."""


class TypeError_(SharcError):
    """Raised on an unrecoverable static type error."""


class InterpError(SharcError):
    """Raised when the interpreter hits undefined behaviour (wild pointer,
    double free, ...). The paper assumes a type- and memory-safe program, so
    these indicate a broken test program rather than a SharC violation."""


class DiagnosticSink:
    """Accumulates diagnostics for one run of the pipeline.

    Each diagnostic is recorded once: inference and type checking walk
    the same bodies, and well-formedness runs before and after solving,
    so the same finding can be emitted twice."""

    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []
        self._seen: dict[tuple, Diagnostic] = {}

    def emit(
        self,
        kind: DiagKind,
        message: str,
        loc: Loc | None = None,
        severity: Severity = Severity.ERROR,
        notes: list[str] | None = None,
    ) -> Diagnostic:
        loc = loc or Loc.unknown()
        notes = list(notes or [])
        key = (kind, message, loc, severity, tuple(notes))
        seen = self._seen.get(key)
        # A diagnostic whose notes grew after its emit is no longer
        # identical to a fresh one.
        if seen is not None and seen.notes == notes:
            return seen
        diag = Diagnostic(kind, message, loc, severity, notes)
        self._seen[key] = diag
        self.diagnostics.append(diag)
        return diag

    def error(self, kind: DiagKind, message: str,
              loc: Loc | None = None) -> Diagnostic:
        return self.emit(kind, message, loc, Severity.ERROR)

    def warning(self, kind: DiagKind, message: str,
                loc: Loc | None = None) -> Diagnostic:
        return self.emit(kind, message, loc, Severity.WARNING)

    def suggest(self, kind: DiagKind, message: str,
                loc: Loc | None = None) -> Diagnostic:
        return self.emit(kind, message, loc, Severity.SUGGESTION)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.WARNING]

    @property
    def suggestions(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.SUGGESTION]

    @property
    def has_errors(self) -> bool:
        return any(d.is_error for d in self.diagnostics)

    def extend(self, other: "DiagnosticSink") -> None:
        self.diagnostics.extend(other.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def render(self) -> str:
        return "\n".join(str(d) for d in self.diagnostics)
