"""Mutexes, condition variables, and held-lock logs (Section 4.2.2).

When a thread acquires a lock, the lock's address is appended to a
thread-private log; a ``locked(e)`` access checks that the address of ``e``
is in the log; release removes it.  That is precisely the paper's
mechanism, and it is what the interpreter consults for lock-held checks.

Blocking (lock contention, condition waits) is mediated by the scheduler:
these objects only track state; the interpreter loops/blocks on them.
Every state change that can unblock a waiter (a release, a read-hold
dropped at thread exit, a barrier trip) calls the table's ``notify``
callback, which the interpreter wires to :meth:`Scheduler.notify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import InterpError, Loc
from repro.obs.events import CAT_LOCK


@dataclass
class Mutex:
    """State of one mutex, keyed by the address of its struct."""

    addr: int
    owner: Optional[int] = None
    #: threads blocked trying to acquire
    waiters: list[int] = field(default_factory=list)


@dataclass
class RWLock:
    """A reader-writer lock (the paper's §7 'more support for locks'
    extension): a ``locked(l)`` object guarded by an rwlock may be *read*
    under a read or write hold, but *written* only under a write hold."""

    addr: int
    writer: Optional[int] = None
    readers: set[int] = field(default_factory=set)


@dataclass
class CondVar:
    """State of one condition variable, keyed by its struct address."""

    addr: int
    #: (tid, mutex_addr) pairs blocked in cond_wait
    waiters: list[tuple[int, int]] = field(default_factory=list)
    #: tids that have been signalled and must reacquire their mutex
    woken: set[int] = field(default_factory=set)


class LockTable:
    """All mutexes/condvars plus per-thread held-lock logs."""

    def __init__(self, notify: Callable[[], None] = lambda: None) -> None:
        self.notify = notify
        self.mutexes: dict[int, Mutex] = {}
        self.condvars: dict[int, CondVar] = {}
        self.rwlocks: dict[int, RWLock] = {}
        self.held_log: dict[int, set[int]] = {}
        #: read-side holds of rwlocks, per thread
        self.read_log: dict[int, set[int]] = {}
        self.acquisitions = 0
        #: optional :class:`repro.obs.events.TraceBus`; attached by the
        #: interpreter when tracing.  Lock semantics never consult it.
        self.bus = None

    def _emit(self, name: str, tid: int, addr: int, **args) -> None:
        if self.bus is not None:
            self.bus.emit(CAT_LOCK, name, tid, lock=f"0x{addr:x}", **args)

    def mutex(self, addr: int) -> Mutex:
        if addr not in self.mutexes:
            self.mutexes[addr] = Mutex(addr)
        return self.mutexes[addr]

    def condvar(self, addr: int) -> CondVar:
        if addr not in self.condvars:
            self.condvars[addr] = CondVar(addr)
        return self.condvars[addr]

    # -- acquisition state machine (driven by the interpreter) ------------------

    def try_acquire(self, addr: int, tid: int) -> bool:
        mutex = self.mutex(addr)
        if mutex.owner is None:
            mutex.owner = tid
            self.held_log.setdefault(tid, set()).add(addr)
            self.acquisitions += 1
            self._emit("acquire", tid, addr)
            return True
        if mutex.owner == tid:
            raise InterpError(
                f"thread {tid} re-acquires non-recursive mutex 0x{addr:x}")
        return False

    def release(self, addr: int, tid: int, loc: Loc | None = None) -> None:
        mutex = self.mutex(addr)
        if mutex.owner != tid:
            raise InterpError(
                f"thread {tid} unlocks mutex 0x{addr:x} owned by "
                f"{mutex.owner}", loc)
        mutex.owner = None
        self.held_log.get(tid, set()).discard(addr)
        self.notify()
        self._emit("release", tid, addr)

    def holds(self, tid: int, addr: int) -> bool:
        """The lock-held runtime check (write-strength hold)."""
        return addr in self.held_log.get(tid, set())

    # -- reader-writer locks ------------------------------------------------

    def rwlock(self, addr: int) -> RWLock:
        if addr not in self.rwlocks:
            self.rwlocks[addr] = RWLock(addr)
        return self.rwlocks[addr]

    def try_rdlock(self, addr: int, tid: int) -> bool:
        rw = self.rwlock(addr)
        if rw.writer is not None:
            return False
        if tid in rw.readers:
            raise InterpError(
                f"thread {tid} re-acquires rwlock 0x{addr:x} for read")
        rw.readers.add(tid)
        self.read_log.setdefault(tid, set()).add(addr)
        self.acquisitions += 1
        self._emit("acquire", tid, addr, side="rd")
        return True

    def try_wrlock(self, addr: int, tid: int) -> bool:
        rw = self.rwlock(addr)
        if rw.writer is not None or rw.readers:
            if rw.writer == tid:
                raise InterpError(
                    f"thread {tid} re-acquires rwlock 0x{addr:x} "
                    "for write")
            return False
        rw.writer = tid
        self.held_log.setdefault(tid, set()).add(addr)
        self.acquisitions += 1
        self._emit("acquire", tid, addr, side="wr")
        return True

    def rw_unlock(self, addr: int, tid: int,
                  loc: Loc | None = None) -> None:
        rw = self.rwlock(addr)
        if rw.writer == tid:
            rw.writer = None
            self.held_log.get(tid, set()).discard(addr)
            self.notify()
            self._emit("release", tid, addr, side="wr")
            return
        if tid in rw.readers:
            rw.readers.discard(tid)
            self.read_log.get(tid, set()).discard(addr)
            self.notify()
            self._emit("release", tid, addr, side="rd")
            return
        raise InterpError(
            f"thread {tid} unlocks rwlock 0x{addr:x} it does not hold",
            loc)

    def holds_for_access(self, tid: int, addr: int,
                         is_write: bool) -> bool:
        """The locked-mode check, rwlock-aware: writes need a write
        hold; reads are satisfied by either side."""
        if addr in self.rwlocks:
            rw = self.rwlocks[addr]
            if is_write:
                return rw.writer == tid
            return rw.writer == tid or tid in rw.readers
        return self.holds(tid, addr)

    def held_by(self, tid: int) -> frozenset[int]:
        return frozenset(self.held_log.get(tid, ()))

    def thread_exit(self, tid: int) -> set[int]:
        """Returns (and forgets) locks still held — a held lock at thread
        exit is a programming error surfaced by the interpreter."""
        for addr in self.read_log.pop(tid, set()):
            self.rwlocks[addr].readers.discard(tid)
            self.notify()
        return self.held_log.pop(tid, set())


@dataclass
class Barrier:
    """An n-party barrier (signaling substrate for fftw-style codes)."""

    addr: int
    parties: int = 0
    arrived: set[int] = field(default_factory=set)
    generation: int = 0
    notify: Callable[[], None] = field(default=lambda: None, repr=False,
                                       compare=False)

    def arrive(self, tid: int) -> int:
        """Registers arrival; returns the generation to wait out."""
        generation = self.generation
        self.arrived.add(tid)
        if len(self.arrived) >= self.parties > 0:
            self.arrived.clear()
            self.generation += 1
            self.notify()
        return generation


class BarrierTable:
    def __init__(self, notify: Callable[[], None] = lambda: None) -> None:
        self.barriers: dict[int, Barrier] = {}
        self.notify = notify

    def barrier(self, addr: int) -> Barrier:
        if addr not in self.barriers:
            self.barriers[addr] = Barrier(addr, notify=self.notify)
        return self.barriers[addr]
