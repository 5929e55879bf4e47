"""The structured runtime event bus.

The runtime (interpreter, scheduler, shadow checker, lock table,
refcount engine) emits *typed events* — context switches, access checks,
conflicts, lock operations, RC epoch flips, sharing casts, thread
lifecycle — into a :class:`TraceBus`: a bounded ring buffer filtered
by category.

Design constraints, in order:

1. **Off means off.**  A run without tracing must be *bit-identical* to
   one before this layer existed: same step counts, same reports, same
   scheduler rng sequence.  Every emitter therefore guards on
   ``bus is not None`` (one attribute test), emission never touches any
   ``random.Random``, and events never feed back into the cost model.
2. **Deterministic timestamps.**  Event time is the interpreter's
   deterministic step clock (``Interp.clock()``: ``RunStats.steps_total``
   plus the ticks the running thread has charged since its last
   yield), supplied as the bus's ``clock``, not wall time — so the same
   seed yields the same trace on any machine, and traces are
   diffable/testable.
3. **Bounded.**  The ring holds at most ``buffer_size`` events (oldest
   dropped first).

Categories (the ``--trace-filter`` vocabulary)::

    sched     scheduler bursts and context switches
    check     chkread / chkwrite / lock-held checks (hit + miss)
    conflict  runtime violation reports
    lock      mutex / rwlock acquire and release
    rc        refcount epoch flips and collections
    scast     sharing casts: null-out and oneref verdicts
    thread    thread spawn / exit
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from typing import Callable, Optional

CAT_SCHED = "sched"
CAT_CHECK = "check"
CAT_CONFLICT = "conflict"
CAT_LOCK = "lock"
CAT_RC = "rc"
CAT_SCAST = "scast"
CAT_THREAD = "thread"

#: every category the runtime emits, in rendering order
CATEGORIES = (CAT_SCHED, CAT_CHECK, CAT_CONFLICT, CAT_LOCK, CAT_RC,
              CAT_SCAST, CAT_THREAD)

_CATEGORY_SET = frozenset(CATEGORIES)


def parse_filter(text: str) -> frozenset:
    """Parses a ``--trace-filter`` value (``"check,conflict"``) into a
    category set, rejecting unknown names."""
    cats = frozenset(part.strip() for part in text.split(",")
                     if part.strip())
    unknown = sorted(cats - _CATEGORY_SET)
    if unknown:
        raise ValueError(
            f"unknown trace categories: {', '.join(unknown)} "
            f"(known: {', '.join(CATEGORIES)})")
    if not cats:
        raise ValueError("empty trace filter")
    return cats


@dataclass(frozen=True)
class Event:
    """One structured runtime event.

    ``ts`` is in deterministic interpreter steps; ``dur`` (also steps)
    is non-zero for span-like events (scheduler bursts, checks with
    their charged cost) and zero for instants (conflicts, lock ops).
    """

    cat: str
    name: str
    tid: int
    ts: int
    dur: int = 0
    args: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"cat": self.cat, "name": self.name, "tid": self.tid,
               "ts": self.ts}
        if self.dur:
            out["dur"] = self.dur
        if self.args:
            out["args"] = dict(self.args)
        return out

    @staticmethod
    def from_dict(data: dict) -> "Event":
        return Event(cat=data["cat"], name=data["name"],
                     tid=int(data["tid"]), ts=int(data["ts"]),
                     dur=int(data.get("dur", 0)),
                     args=dict(data["args"]) if data.get("args") else None)


@dataclass(frozen=True)
class TraceConfig:
    """How one run's tracing behaves: ``categories`` of None means
    "everything"; ``buffer_size`` bounds the event ring."""

    categories: Optional[frozenset] = None
    buffer_size: int = 65536

    def __post_init__(self) -> None:
        if self.categories is not None:
            unknown = sorted(set(self.categories) - _CATEGORY_SET)
            if unknown:
                raise ValueError(
                    f"unknown trace categories: {', '.join(unknown)}")
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")


class TraceBus:
    """The bounded, category-filtered event ring."""

    def __init__(self, config: Optional[TraceConfig] = None,
                 clock: Optional[Callable[[], int]] = None) -> None:
        self.config = config if config is not None else TraceConfig()
        self.clock = clock if clock is not None else (lambda: 0)
        self._ring: deque = deque(maxlen=self.config.buffer_size)
        self._wanted = self.config.categories  # None = all

    def wants(self, cat: str) -> bool:
        """Cheap pre-test so emitters can skip arg construction."""
        return self._wanted is None or cat in self._wanted

    def emit(self, cat: str, name: str, tid: int, dur: int = 0,
             ts: Optional[int] = None, **args) -> None:
        """Appends one event (subject to the filter).  ``ts`` defaults
        to the bus clock; span emitters that only know their start time
        after the fact pass it explicitly."""
        if self._wanted is not None and cat not in self._wanted:
            return
        self._ring.append(Event(cat, name, tid,
                                self.clock() if ts is None else ts, dur,
                                args if args else None))

    def snapshot(self) -> list:
        """The retained events, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)
