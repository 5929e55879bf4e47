"""Deterministic thread scheduling for the dynamic analysis.

The paper's SharC runs programs natively under pthreads; the analysis'
guarantees depend only on the interleaving semantics, so we run logical
threads (Python generators yielding at every interpreter step) under a
seeded scheduler.  This makes every detected race replayable from its seed
— strictly more convenient than the paper's setup, where "occurrence and
effects are highly dependent on the scheduler".

Scheduling is delegated to pluggable :class:`SchedulingPolicy` objects so
the exploration engine (:mod:`repro.explore`) can sweep interleaving
strategies.  Built-in policies, selectable by spec string:

- ``random`` (default): at each rescheduling point pick a random runnable
  thread and run it for a random burst of steps;
- ``round-robin``: cycle through runnable threads fairly (next runnable
  tid after the last one that ran) with a fixed quantum;
- ``serial``: run each thread to completion or block — useful to provoke
  the fewest interleavings (races that survive this policy are blatant);
- ``pct`` / ``pct:D``: PCT-style random-priority scheduling [Burckhardt
  et al., ASPLOS'10] with ``D`` priority-change points (default 3) —
  always runs the highest-priority runnable thread, demoting the running
  thread at randomly chosen points in the execution;
- ``pb`` / ``pb:K``: a preemption-bounded walk [Musuvathi & Qadeer,
  PLDI'07]: threads run until they block or finish, except for at most
  ``K`` (default 2) randomly placed preemptions.

A :class:`ReplayPolicy` deterministically follows a previously recorded
context-switch trace (see :attr:`Scheduler.trace`), which is what the
schedule shrinker uses to re-execute minimized interleavings.

Blocked threads carry a ``ready`` predicate (lock released, condvar
signalled, join target finished, barrier tripped).  The scheduler keeps
the tid-ordered runnable list between picks and polls the blocked
threads' predicates only after :meth:`Scheduler.notify`, so a pick in
which nothing changed does constant work.  The contract: anything that
can turn a ``ready`` predicate true must call ``notify()``.  ``block``,
``finish`` and ``fail`` do so themselves; the lock table, the barrier
table and the condition-variable signal do it for the runtime.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

from repro.obs.events import CAT_SCHED, CAT_THREAD


class ThreadState(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"


@dataclass
class Thread:
    """One logical thread executing an interpreter generator."""

    tid: int
    gen: Iterator
    name: str = ""
    state: ThreadState = ThreadState.RUNNABLE
    ready: Optional[Callable[[], bool]] = None
    block_note: str = ""
    result: object = None
    error: Optional[BaseException] = None
    #: threads blocked in thread_join on this one
    joiners: list[int] = field(default_factory=list)
    steps: int = 0


class DeadlockError(Exception):
    """All live threads are blocked with unsatisfiable predicates."""


#: burst length of a *run-to-block* burst: the thread runs until it
#: blocks or finishes, or until the run's ``max_steps`` is spent
RUN_TO_BLOCK = 1 << 30
#: burst length of a *held* run-to-block burst: the policy would answer
#: "keep this thread, one item" at every pick until something changes,
#: so the burst also ends after an item that calls
#: :meth:`Scheduler.notify` (the next pick polls the wake-ups there, as
#: a one-item pick would have) and counts one scheduling decision per
#: item it ran
HELD = RUN_TO_BLOCK + 1


# -- policies ---------------------------------------------------------------


class SchedulingPolicy:
    """Chooses which runnable thread runs next and for how long.

    Policies are stateful and single-run: construct a fresh instance (or
    use a spec string, which the scheduler resolves per run) for every
    execution.  All randomness must come from the scheduler's seeded
    ``rng`` so runs stay replayable from their seed.
    """

    name = "policy"

    def pick(self, candidates: list[Thread],
             sched: "Scheduler") -> tuple[Thread, int]:
        """Returns (thread, burst length >= 1), where the length may be
        :data:`RUN_TO_BLOCK` or :data:`HELD`.  ``candidates`` is
        non-empty and ordered by spawn (tid) order."""
        raise NotImplementedError

    def on_spawn(self, thread: Thread, sched: "Scheduler") -> None:
        """Called when a thread is created (PCT assigns priorities)."""

    def note_ran(self, thread: Thread, items: int,
                 sched: "Scheduler") -> None:
        """Called after a burst with the number of generator items the
        thread actually consumed (may be fewer than the granted burst
        when the thread blocked or finished)."""


class RandomPolicy(SchedulingPolicy):
    """The default: uniform thread choice, uniform burst length.

    Draws exactly ``rng.choice`` then ``rng.randint`` per pick — the
    historical sequence, so existing seeds replay bit-identically.
    """

    name = "random"

    def pick(self, candidates, sched):
        thread = sched.rng.choice(candidates)
        burst = sched.rng.randint(1, sched.max_burst)
        return thread, burst


class RoundRobinPolicy(SchedulingPolicy):
    """Fair cyclic scheduling: the runnable thread with the smallest tid
    strictly greater than the last-run tid (wrapping).

    The previous implementation kept an *index* into the runnable list
    and advanced it before use, so the first pick skipped ``candidates[0]``
    and the index drifted whenever the runnable set changed size between
    picks — a thread could be starved indefinitely (see the regression
    test).  Keying on the last-run *tid* is stable under membership
    changes.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._last_tid = 0

    def pick(self, candidates, sched):
        after = [t for t in candidates if t.tid > self._last_tid]
        thread = min(after or candidates, key=lambda t: t.tid)
        self._last_tid = thread.tid
        return thread, sched.max_burst


class SerialPolicy(SchedulingPolicy):
    """Runs the first runnable thread until it blocks or finishes (or
    the run's ``max_steps`` is spent)."""

    name = "serial"

    def pick(self, candidates, sched):
        return candidates[0], RUN_TO_BLOCK


class PCTPolicy(SchedulingPolicy):
    """PCT-style random-priority scheduling.

    Every thread gets a random priority at spawn; the scheduler always
    runs the highest-priority runnable thread.  ``depth`` priority-change
    points are sampled over the first ``horizon`` scheduled items: when
    execution crosses one, the thread running at that moment is demoted
    below every other priority.  With d change points, PCT finds any bug
    of depth d with probability >= 1/(n * k^(d-1)) — the point is that
    low-depth races are found *quickly*, not eventually.

    PCT's guarantee assumes ``horizon`` ~ the program's actual length
    ``k``: points sampled far past the end of execution never fire and
    the policy degenerates into a priority-ordered serial run.  The
    exploration driver measures ``k`` with one serial run and passes it
    via the ``pct:depth:horizon`` spec; standalone users on short
    programs should do the same.
    """

    name = "pct"

    def __init__(self, depth: int = 3, horizon: int = 4000) -> None:
        self.depth = max(0, depth)
        self.horizon = max(1, horizon)
        self._priorities: dict[int, float] = {}
        self._change_points: Optional[list[int]] = None
        self._items = 0
        self._min_priority = 0.0

    def _ensure_points(self, sched: "Scheduler") -> None:
        if self._change_points is None:
            points = sorted(sched.rng.randint(1, self.horizon)
                            for _ in range(self.depth))
            self._change_points = points

    def on_spawn(self, thread, sched):
        self._priorities[thread.tid] = sched.rng.random()

    def note_ran(self, thread, items, sched):
        self._items += items
        self._ensure_points(sched)
        while self._change_points and \
                self._items >= self._change_points[0]:
            self._change_points.pop(0)
            # Demote the thread that crossed the change point below
            # every priority seen so far.
            self._min_priority -= 1.0
            self._priorities[thread.tid] = self._min_priority

    def pick(self, candidates, sched):
        self._ensure_points(sched)
        thread = max(candidates,
                     key=lambda t: (self._priorities.get(t.tid, 0.0),
                                    -t.tid))
        if self._change_points:
            remaining = self._change_points[0] - self._items
            burst = max(1, min(sched.max_burst, remaining))
        else:
            burst = sched.max_burst
        return thread, burst


class PreemptionBoundPolicy(SchedulingPolicy):
    """A preemption-bounded walk: the running thread keeps running until
    it blocks or finishes, except for at most ``bound`` preemptions
    placed at random scheduling points (probability ``rate`` each).

    While preemptions remain, bursts are one item long so *every*
    scheduled item is a potential preemption point; with multi-item
    bursts a short-lived thread can finish inside its first burst and
    the policy never gets a chance to preempt it at all (it collapses
    into the serial order).  Once the bound is spent the only possible
    answer is "keep the current thread", which draws nothing from the
    RNG, so the pick hands out one :data:`HELD` burst instead of one
    pick per item.
    """

    name = "pb"

    def __init__(self, bound: int = 2, rate: float = 0.05) -> None:
        self.bound = max(0, bound)
        self.rate = rate
        self._current: Optional[Thread] = None
        self._used = 0

    def pick(self, candidates, sched):
        # Every RUNNABLE thread is a candidate: no need to scan for it.
        current = self._current
        if current is not None and current.state is ThreadState.RUNNABLE:
            if self._used < self.bound and \
                    sched.rng.random() < self.rate:
                others = [t for t in candidates if t is not current]
                if others:
                    self._used += 1
                    current = sched.rng.choice(others)
        else:
            # The previous thread blocked or finished: switching is free.
            current = candidates[0]
        self._current = current
        return current, HELD if self._used >= self.bound else 1


class ReplayPolicy(SchedulingPolicy):
    """Deterministically follows a recorded (tid, items) trace.

    Entries whose thread is not currently runnable are skipped; once the
    trace is exhausted (or nothing in it can run) the lowest-tid runnable
    thread runs to completion, so replay always terminates and is a
    total, deterministic function of the trace.
    """

    name = "replay"

    def __init__(self, trace: list[tuple[int, int]]) -> None:
        self.trace = [(int(t), int(n)) for t, n in trace]
        self._pos = 0

    def pick(self, candidates, sched):
        while self._pos < len(self.trace):
            tid, items = self.trace[self._pos]
            self._pos += 1
            for thread in candidates:
                if thread.tid == tid:
                    return thread, max(1, items)
        return candidates[0], RUN_TO_BLOCK


#: spec-string registry; ``pct:4`` / ``pb:1`` set the numeric parameter
#: and ``pct:4:800`` additionally sets the PCT horizon.
_POLICY_FACTORIES: dict[str, Callable[..., SchedulingPolicy]] = {
    "random": lambda: RandomPolicy(),
    "round-robin": lambda: RoundRobinPolicy(),
    "serial": lambda: SerialPolicy(),
    "pct": lambda depth=3, horizon=4000: PCTPolicy(
        depth=depth, horizon=horizon),
    "pb": lambda bound=2: PreemptionBoundPolicy(bound=bound),
}

POLICY_NAMES = tuple(_POLICY_FACTORIES)


def make_policy(spec: Union[str, SchedulingPolicy]) -> SchedulingPolicy:
    """Resolves a policy spec (``"random"``, ``"pct:4"``,
    ``"pct:4:800"``, an instance) to a fresh policy object."""
    if isinstance(spec, SchedulingPolicy):
        return spec
    name, *arg_texts = str(spec).split(":")
    if name not in _POLICY_FACTORIES:
        raise ValueError(
            f"unknown scheduling policy {spec!r} "
            f"(known: {', '.join(POLICY_NAMES)})")
    try:
        args = [int(text) for text in arg_texts]
    except ValueError:
        raise ValueError(f"bad policy parameter in {spec!r}")
    try:
        policy = _POLICY_FACTORIES[name](*args)
    except TypeError:
        raise ValueError(f"too many parameters in policy spec {spec!r}")
    policy.name = str(spec)
    return policy


class Scheduler:
    """Owns the thread table and picks who runs next."""

    def __init__(self, seed: int = 0,
                 policy: Union[str, SchedulingPolicy] = "random",
                 max_burst: int = 8, record_trace: bool = False) -> None:
        self.rng = random.Random(seed)
        self._policy = make_policy(policy)
        self.policy = self._policy.name
        #: the policy's ``note_ran``, or None when it keeps the base
        #: no-op — then the per-burst feedback call is skipped
        self._policy_note_ran = (
            None if type(self._policy).note_ran is SchedulingPolicy.note_ran
            else self._policy.note_ran)
        self.max_burst = max(1, max_burst)
        self.threads: dict[int, Thread] = {}
        #: insertion-ordered subset of ``threads`` that is still
        #: RUNNABLE or BLOCKED — the only threads picking ever looks
        #: at, so per-pick scans stay O(live) instead of O(all-time)
        #: in thread-churn programs
        self._live: dict[int, Thread] = {}
        #: the BLOCKED subset of ``_live``, which a wake-up poll calls
        self._blocked: dict[int, Thread] = {}
        #: tid-ordered RUNNABLE threads, handed to the policy as is;
        #: None once spawn, block, wake, finish or fail changed the set
        self._runnable: Optional[list[Thread]] = None
        #: set by :meth:`notify`: re-poll ``_blocked`` at the next pick
        #: (the run loop ends a held burst on it)
        self.notified = False
        self._next_tid = 1
        #: scheduling decisions: one per pick, plus one per further
        #: item of a :data:`HELD` burst (the run loop adds those), so
        #: the count is the one a pick per item would give
        self.context_switches = 0
        #: merged (tid, items) context-switch trace; None when disabled
        self.trace: Optional[list[tuple[int, int]]] = (
            [] if record_trace else None)
        self.items_scheduled = 0
        #: number of RUNNABLE + BLOCKED threads, maintained incrementally
        #: so the interpreter's per-access solo test is O(1)
        self.live_count = 0
        #: optional :class:`repro.obs.events.TraceBus`; never consulted
        #: for scheduling decisions, so traced and untraced runs pick
        #: identical schedules
        self.bus = None
        self._last_run_tid = 0

    # -- thread lifecycle -----------------------------------------------------

    def notify(self) -> None:
        """Something a blocked thread may wait on changed: re-poll the
        blocked threads' predicates at the next pick."""
        self.notified = True

    def spawn(self, gen: Iterator, name: str = "") -> Thread:
        tid = self._next_tid
        self._next_tid += 1
        thread = Thread(tid, gen, name or f"thread{tid}")
        self.threads[tid] = thread
        self._live[tid] = thread
        self.live_count += 1
        self._runnable = None
        self._policy.on_spawn(thread, self)
        if self.bus is not None:
            self.bus.emit(CAT_THREAD, "spawn", tid, entry=thread.name)
        return thread

    def block(self, thread: Thread, ready: Callable[[], bool],
              note: str = "") -> None:
        """Parks ``thread``; ``ready`` is polled at the next pick."""
        thread.state = ThreadState.BLOCKED
        thread.ready = ready
        thread.block_note = note
        self._blocked[thread.tid] = thread
        self._runnable = None
        self.notified = True

    def _retire(self, thread: Thread, state: ThreadState) -> None:
        if thread.tid in self._live:
            self.live_count -= 1
            del self._live[thread.tid]
            self._blocked.pop(thread.tid, None)
            self._runnable = None
        thread.state = state
        thread.ready = None
        self.notified = True  # joiners wait on this

    def finish(self, thread: Thread, result: object) -> None:
        self._retire(thread, ThreadState.DONE)
        thread.result = result
        if self.bus is not None:
            self.bus.emit(CAT_THREAD, "exit", thread.tid, state="done",
                          steps=thread.steps)

    def fail(self, thread: Thread, error: BaseException) -> None:
        self._retire(thread, ThreadState.FAILED)
        thread.error = error
        if self.bus is not None:
            self.bus.emit(CAT_THREAD, "exit", thread.tid, state="failed",
                          error=type(error).__name__)

    # -- picking ----------------------------------------------------------------

    def _wake_ready(self) -> None:
        self.notified = False
        woken = [t for t in self._blocked.values() if t.ready()]
        for thread in woken:
            del self._blocked[thread.tid]
            thread.state = ThreadState.RUNNABLE
            thread.ready = None
            thread.block_note = ""
        if woken:
            self._runnable = None

    def runnable(self) -> list[Thread]:
        """The RUNNABLE threads in tid order (shared: do not mutate)."""
        if self.notified:
            self._wake_ready()
        candidates = self._runnable
        if candidates is None:
            candidates = self._runnable = [
                t for t in self._live.values()
                if t.state is ThreadState.RUNNABLE]
        return candidates

    def live(self) -> list[Thread]:
        return list(self._live.values())

    def pick(self) -> tuple[Optional[Thread], int]:
        """Chooses (thread, burst length).  Returns (None, 0) when no
        thread can run; callers distinguish completion from deadlock via
        :meth:`live`."""
        candidates = self.runnable()
        if not candidates:
            if self._live:
                raise DeadlockError(
                    "deadlock: " + ", ".join(
                        f"{t.name}({t.block_note})"
                        for t in self._live.values()))
            return None, 0
        self.context_switches += 1
        thread, burst = self._policy.pick(candidates, self)
        if self.bus is not None and thread.tid != self._last_run_tid:
            self.bus.emit(CAT_SCHED, "switch", thread.tid,
                          prev=self._last_run_tid, runnable=len(candidates))
        self._last_run_tid = thread.tid
        return thread, burst

    def note_ran(self, thread: Thread, items: int) -> None:
        """Interpreter feedback: ``thread`` consumed ``items`` generator
        items during its last burst.  Feeds the policy (PCT change
        points) and the context-switch trace used for replay/shrinking."""
        if items <= 0:
            return
        self.items_scheduled += items
        trace = self.trace
        if trace is not None:
            if trace and trace[-1][0] == thread.tid:
                trace[-1] = (thread.tid, trace[-1][1] + items)
            else:
                trace.append((thread.tid, items))
        if self._policy_note_ran is not None:
            self._policy_note_ran(thread, items, self)

    def trace_switches(self) -> int:
        """Context switches in the recorded trace (adjacent entries have
        distinct tids after merging, so this is just the length - 1)."""
        if not self.trace:
            return 0
        return len(self.trace) - 1
