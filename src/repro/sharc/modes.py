"""Sharing modes — the qualifier vocabulary of Section 2.

A type in SharC carries one of five user-visible sharing modes:

``private``
    Owned by one thread, only that thread may access it (checked statically
    via the sharing analysis).
``readonly``
    Readable by any thread, writable only as a field of a *private* struct
    instance (the initialization exception of Section 2).
``locked(l)``
    Protected by the lock denoted by expression ``l``; a runtime check
    asserts the lock is held at each access.
``racy``
    Intentionally racy; no enforcement.
``dynamic``
    Checked at run time to be read-only or single-thread accessed
    (the n-readers-or-1-writer discipline).

Two additional modes are internal:

``dynamic_in``
    The paper's internal qualifier for function formals: accepts both
    ``private`` and ``dynamic`` actuals without forcing the actual to
    ``dynamic`` (Section 4.1).
``inherit``
    The struct-field polymorphism variable ``q`` of Figure 2: an
    unannotated outermost field qualifier resolves to the qualifier of the
    containing struct instance at each access.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class ModeKind(enum.Enum):
    """The discriminator for :class:`Mode`."""

    PRIVATE = "private"
    READONLY = "readonly"
    LOCKED = "locked"
    RACY = "racy"
    DYNAMIC = "dynamic"
    # Internal modes (never written by users).
    DYNAMIC_IN = "dynamic_in"
    INHERIT = "inherit"

    @property
    def user_visible(self) -> bool:
        return self not in (ModeKind.DYNAMIC_IN, ModeKind.INHERIT)


@dataclass(frozen=True)
class Mode:
    """A sharing mode, possibly with a lock expression (for ``locked``).

    ``lock`` is the *rendered* lock expression (a string such as ``"mut"``
    or ``"nextS->mut"``); the type checker separately verifies that the
    expression is constant (built from unmodified locals and ``readonly``
    values) and resolves it to a lock l-value at instrumentation time.
    """

    kind: ModeKind
    lock: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind is ModeKind.LOCKED and self.lock is None:
            raise ValueError("locked mode requires a lock expression")
        if self.kind is not ModeKind.LOCKED and self.lock is not None:
            raise ValueError(f"{self.kind.value} mode takes no lock")

    def __str__(self) -> str:
        if self.kind is ModeKind.LOCKED:
            return f"locked({self.lock})"
        return self.kind.value

    # -- convenience predicates ------------------------------------------

    @property
    def is_private(self) -> bool:
        return self.kind is ModeKind.PRIVATE

    @property
    def is_readonly(self) -> bool:
        return self.kind is ModeKind.READONLY

    @property
    def is_locked(self) -> bool:
        return self.kind is ModeKind.LOCKED

    @property
    def is_racy(self) -> bool:
        return self.kind is ModeKind.RACY

    @property
    def is_dynamic(self) -> bool:
        return self.kind is ModeKind.DYNAMIC

    @property
    def is_inherit(self) -> bool:
        return self.kind is ModeKind.INHERIT

    @property
    def needs_runtime_check(self) -> bool:
        """True for modes whose accesses are guarded at run time."""
        return self.kind in (ModeKind.DYNAMIC, ModeKind.LOCKED)


# Singletons for the lock-free modes.
PRIVATE = Mode(ModeKind.PRIVATE)
READONLY = Mode(ModeKind.READONLY)
RACY = Mode(ModeKind.RACY)
DYNAMIC = Mode(ModeKind.DYNAMIC)
DYNAMIC_IN = Mode(ModeKind.DYNAMIC_IN)
INHERIT = Mode(ModeKind.INHERIT)


def locked(lock_expr: str) -> Mode:
    """Builds a ``locked(lock_expr)`` mode."""
    return Mode(ModeKind.LOCKED, lock_expr)


def target_compatible(a: Mode, b: Mode) -> bool:
    """Whether two pointer *target* modes are interchangeable.

    Pointer targets are invariant: after ``p = q`` both names alias the same
    cell, so the declared target modes must agree exactly (Section 3.2
    forbids even casts below the first level).  ``dynamic_in`` accepts
    either ``private`` or ``dynamic`` (Section 4.1).
    """
    if a == b:
        return True
    for formal, actual in ((a, b), (b, a)):
        if formal.kind is ModeKind.DYNAMIC_IN and actual.kind in (
                ModeKind.PRIVATE, ModeKind.DYNAMIC, ModeKind.DYNAMIC_IN):
            return True
    return False


def scast_convertible(dst: Mode, src: Mode) -> bool:
    """Whether a sharing cast may convert target mode ``src`` to ``dst``.

    Any pair of modes may be converted by SCAST *at the first target level
    only* (the ``oneref`` check makes this sound); identical modes need no
    cast.  ``inherit`` must have been resolved before asking.
    """
    if src.is_inherit or dst.is_inherit:
        raise ValueError("scast_convertible needs resolved modes")
    return True


@dataclass(frozen=True)
class ModeSummary:
    """Per-program census of annotations — used to report Table 1's
    "Annots." column for our workload models."""

    counts: dict = field(default_factory=dict)

    @staticmethod
    def count(modes: list[Mode]) -> "ModeSummary":
        counts: dict[str, int] = {}
        for mode in modes:
            key = mode.kind.value
            counts[key] = counts.get(key, 0) + 1
        return ModeSummary(counts)

    @property
    def total(self) -> int:
        return sum(self.counts.values())
