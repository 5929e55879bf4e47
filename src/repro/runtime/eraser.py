"""An Eraser-style lockset race detector — the comparison baseline.

The paper's related-work discussion (§6.2) contrasts SharC with Eraser
[Savage et al., SOSP'97]: Eraser monitors *every* memory access through
binary instrumentation (10x–30x overhead), tracks for each location the
set of locks consistently held when it is accessed, and reports when that
candidate set becomes empty.  Its state machine models common idioms
(initialization, read-sharing, read-write locking), but — the paper's
key point — it has no notion of *ownership transfer*: a producer/consumer
handoff looks like an inconsistently-locked location and produces false
positives.  "Our system is the first to attack the root of the problem
by modeling ownership transfer directly."

This module implements the classic lockset algorithm so the claim can be
measured: the comparison benchmark runs the same pipeline under SharC
(clean, low overhead) and under Eraser (false positives on the handoff,
every access instrumented).

State machine, per 16-byte granule (as in the original paper):

- ``VIRGIN``            — never accessed;
- ``EXCLUSIVE(t)``      — accessed by one thread only (initialization);
- ``SHARED``            — read by multiple threads, no write since;
- ``SHARED_MODIFIED``   — written by multiple threads: lockset enforced.

The candidate lockset C(v) starts as "all locks" on first shared access
and is intersected with the accessing thread's held set; in
``SHARED_MODIFIED`` an empty C(v) is reported.

Cost model: every access pays ``ACCESS_COST`` interpreter steps (shadow
word lookup + lockset intersection through a table of lock vectors); this
is what produces the order-of-magnitude gap to SharC's targeted checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import Loc

GRANULE_SHIFT = 4

#: the detail line of every Eraser report
DETAIL = "eraser: candidate lockset is empty"

#: Steps charged per monitored access (a shadow-word load, a state
#: dispatch, and a lockset intersection).  Eraser's published overhead is
#: 10x-30x because *every* access pays this, unlike SharC's mode-targeted
#: checks.
ACCESS_COST = 10


class LockState(enum.Enum):
    VIRGIN = "virgin"
    EXCLUSIVE = "exclusive"
    SHARED = "shared"
    SHARED_MODIFIED = "shared-modified"


@dataclass
class GranuleState:
    """Per-granule lockset-algorithm state."""

    state: LockState = LockState.VIRGIN
    owner: int = 0
    #: candidate lockset; None encodes "all locks" (lazy top element)
    lockset: Optional[frozenset[int]] = None
    #: the last access as ``(tid, lvalue, loc)``
    last: Optional[tuple] = None
    reported: bool = False


@dataclass
class EraserStats:
    accesses: int = 0
    transitions: int = 0
    intersections: int = 0
    reports: int = 0


class EraserChecker:
    """The lockset algorithm over the interpreter's address space."""

    def __init__(self) -> None:
        self.granules: dict[int, GranuleState] = {}
        self.stats = EraserStats()

    def _granules(self, addr: int, size: int) -> range:
        first = addr >> GRANULE_SHIFT
        last = (addr + max(size, 1) - 1) >> GRANULE_SHIFT
        return range(first, last + 1)

    def on_access(self, addr: int, size: int, tid: int, is_write: bool,
                  held: frozenset[int], lvalue: str,
                  loc: Loc) -> list[tuple]:
        """Processes one access; returns the races it newly finds, each
        as ``(granule address, who, last)`` with both accesses as
        ``(tid, lvalue, loc)``.  The caller reports them (a write
        conflict with :data:`DETAIL`)."""
        self.stats.accesses += 1
        races: list[tuple] = []
        who = (tid, lvalue, loc)
        for granule in self._granules(addr, size):
            state = self.granules.get(granule)
            if state is None:
                state = GranuleState()
                self.granules[granule] = state
            race = self._step(state, tid, is_write, held, who, granule)
            if race is not None:
                races.append(race)
            state.last = who
        return races

    def _step(self, st: GranuleState, tid: int, is_write: bool,
              held: frozenset[int], who: tuple,
              granule: int) -> Optional[tuple]:
        if st.state is LockState.VIRGIN:
            st.state = LockState.EXCLUSIVE
            st.owner = tid
            self.stats.transitions += 1
            return None
        if st.state is LockState.EXCLUSIVE:
            if tid == st.owner:
                return None
            # Second thread: leave the initialization state.
            st.lockset = frozenset(held)
            st.state = (LockState.SHARED_MODIFIED if is_write
                        else LockState.SHARED)
            self.stats.transitions += 1
            return self._check(st, who, granule)
        # SHARED / SHARED_MODIFIED: refine the candidate set.
        self.stats.intersections += 1
        st.lockset = (frozenset(held) if st.lockset is None
                      else st.lockset & held)
        if is_write and st.state is LockState.SHARED:
            st.state = LockState.SHARED_MODIFIED
            self.stats.transitions += 1
        return self._check(st, who, granule)

    def _check(self, st: GranuleState, who: tuple,
               granule: int) -> Optional[tuple]:
        if st.state is not LockState.SHARED_MODIFIED:
            return None
        if st.lockset:  # some lock consistently protects the location
            return None
        if st.reported:
            return None
        st.reported = True
        self.stats.reports += 1
        return granule << GRANULE_SHIFT, who, st.last

    def thread_exit(self, tid: int) -> None:
        """Eraser has no happens-before for thread exit: state persists.
        (This is one source of its false positives; kept faithful.)"""

    def free_range(self, addr: int, size: int) -> None:
        for granule in self._granules(addr, size):
            self.granules.pop(granule, None)
