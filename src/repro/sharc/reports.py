"""Conflict-report rendering, matching the paper's Section 2.1 format::

    read conflict(0x75324464):
     who(2) S->sdata @ pipeline_test.c: 15
     last(1) nextS->sdata @ pipeline_test.c: 27

A report names the address, the thread and l-value performing the newly
conflicting access, and the thread and l-value of the last recorded access
it conflicts with.

When the run traced access provenance (:mod:`repro.obs`), a report also
carries the granule's recent access *history* — rendered as ``hist``
lines, newest first, each tagged with its read/write mode::

     hist(1) [w] nextS->sdata @ pipeline_test.c: 27
     hist(2) [r] S->sdata @ pipeline_test.c: 14

Reports round-trip through JSON (:meth:`Report.to_dict` /
:meth:`Report.from_dict`) so the JSONL trace exporter can embed them and
tools can reload them losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import DiagKind, Loc


@dataclass(frozen=True)
class Access:
    """One recorded access for reporting purposes.

    ``mode`` ("r"/"w") is only set on history entries; the paper's
    who/last lines carry no mode tag and render unchanged.
    """

    tid: int
    lvalue: str
    loc: Loc
    mode: str = ""

    def render(self, label: str) -> str:
        tag = f"[{self.mode}] " if self.mode else ""
        return (f" {label}({self.tid}) {tag}{self.lvalue} @ "
                f"{self.loc.file}: {self.loc.line}")

    def to_dict(self) -> dict:
        out = {"tid": self.tid, "lvalue": self.lvalue,
               "loc": {"file": self.loc.file, "line": self.loc.line,
                       "col": self.loc.col}}
        if self.mode:
            out["mode"] = self.mode
        return out

    @staticmethod
    def from_dict(data: dict) -> "Access":
        loc = data.get("loc") or {}
        return Access(int(data["tid"]), data["lvalue"],
                      Loc(loc.get("file", "<input>"),
                          int(loc.get("line", 0)), int(loc.get("col", 0))),
                      mode=data.get("mode", ""))


@dataclass(frozen=True)
class Report:
    """One runtime violation."""

    kind: DiagKind
    addr: int
    who: Access
    last: Optional[Access] = None
    detail: str = ""
    #: recent accesses to the conflicting granule(s), newest first —
    #: populated only when the run recorded access provenance
    history: tuple = ()

    def render(self) -> str:
        head = f"{self.kind.value}(0x{self.addr:08x}):"
        lines = [head, self.who.render("who")]
        if self.last is not None:
            lines.append(self.last.render("last"))
        for access in self.history:
            lines.append(access.render("hist"))
        if self.detail:
            lines.append(f" note: {self.detail}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    def to_dict(self) -> dict:
        """A JSON-ready dict; :meth:`from_dict` inverts it exactly."""
        out: dict = {"kind": self.kind.value, "addr": self.addr,
                     "who": self.who.to_dict()}
        if self.last is not None:
            out["last"] = self.last.to_dict()
        if self.detail:
            out["detail"] = self.detail
        if self.history:
            out["history"] = [a.to_dict() for a in self.history]
        return out

    @staticmethod
    def from_dict(data: dict) -> "Report":
        """Inverse of :meth:`to_dict`.  ``kind`` is matched by enum
        *value* (the rendered name, including two-word kinds like
        ``"read conflict"``)."""
        return Report(
            kind=DiagKind(data["kind"]),
            addr=int(data["addr"]),
            who=Access.from_dict(data["who"]),
            last=(Access.from_dict(data["last"])
                  if data.get("last") is not None else None),
            detail=data.get("detail", ""),
            history=tuple(Access.from_dict(a)
                          for a in data.get("history", ())),
        )


def oneref_detail(count: int) -> str:
    """The note of a ``oneref`` failure, on both backends."""
    return f"reference count is {count}, expected 1"
