"""Reader/writer shadow memory (Section 4.2.1).

For every 16 bytes of program memory SharC keeps ``n`` extra bytes encoding
which threads have accessed the granule:

- bit 0 set — a single thread is *reading and writing* the granule;
- bit ``t`` set (t >= 1) — thread ``t`` reads the granule, and also writes
  it when bit 0 is set too.

With ``n`` shadow bytes, up to ``8n - 1`` threads are supported — the
paper's explicitly stated limitation, reproduced (and tested) here.

The checks implement Figure 6's judgments:

- ``chkread``: fails when another thread is the writer;
- ``chkwrite``: fails when any *other* thread has read or written.

On success the accessing thread's bit is set atomically (one interpreter
step — the model's analogue of ``cmpxchg``).  When a thread exits its bits
are cleared everywhere it touched; the paper makes this efficient by
logging a thread's first access to each granule, which is also exactly how
we implement it.  ``free()`` clears a granule outright — including the
freed granules' entries in the per-thread logs, so a later thread exit
never walks (or, under address reuse, touches) granules belonging to a
different object.

Storage layout
--------------

Granule bitmaps live in fixed-size integer pages keyed by
``granule >> PAGE_SHIFT`` — the software analogue of the paper's
shadow-page tables — instead of one hash entry per granule, so the common
sequential-scan patterns index into a flat list.

On top of the paged store sits a per-thread *last-granule cache*: when a
thread re-checks exactly the granule range it most recently checked with
no intervening shadow mutation, the check degenerates to the paper's
"plain load and test, no ``cmpxchg``" fast path and skips every dict
lookup (this is what keeps pfscan at ~12%% overhead despite 80%% checked
accesses).  ``updates`` and ``slow`` accounting are identical on both
paths.

Two further entry points serve the static check-elimination pass
(:mod:`repro.sharc.checkelim`):

- ``recheck`` — the cache-hit prefix of ``chkread``/``chkwrite`` exposed
  on its own.  A statically elided check calls it to prove the elision is
  still valid at runtime (no intervening shadow mutation); on a hit the
  accounting is byte-for-byte what the full check would have done, which
  is what keeps elimination-on and elimination-off runs bit-identical.
- ``chkread_range``/``chkwrite_range`` — bulk equivalents of the scalar
  checks that hoist the page lookup out of the per-granule loop.  They
  perform *exactly* the same conflict detection, bitmap updates, logging
  and cache maintenance as a scalar check over the same range; only the
  ``range_calls`` counter tells them apart.  ``chkread``/``chkwrite``
  delegate to them automatically above ``range_threshold`` granules.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.errors import Loc
from repro.sharc.reports import Access

GRANULE_SHIFT = 4  # 16-byte granules
SHADOW_PAGE = 4096

#: granules per bitmap page (list-of-int pages keyed by granule >> k)
PAGE_SHIFT = 10
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

#: accesses spanning at least this many granules take the page-sliced
#: range walk (``chkread_range``/``chkwrite_range``); a module-level
#: default so tests can lower it and force the range path on small
#: buffers even when the interpreter builds the shadow internally
DEFAULT_RANGE_THRESHOLD = 8


class LastAccess(NamedTuple):
    """Most recent recorded access to a granule, for conflict reports.
    A named tuple: a check that misses its cache builds one."""

    tid: int
    lvalue: str
    loc: Loc
    is_write: bool

    def as_access(self) -> Access:
        return Access(self.tid, self.lvalue, self.loc)


class TooManyThreads(Exception):
    """Raised when a thread id exceeds the 8n-1 encoding capacity."""


class ShadowMemory:
    """Per-granule access bitmaps plus first-access logs."""

    def __init__(self, nbytes: int = 1) -> None:
        self.nbytes = nbytes
        self.max_threads = 8 * nbytes - 1
        #: paged bitmap store: page index -> PAGE_SIZE granule bitmaps
        self._pages: dict[int, list[int]] = {}
        self.last: dict[int, LastAccess] = {}
        #: most recent *writer* per granule — ``chkread`` conflicts mean
        #: "another thread is the writer", so the report must name the
        #: writer, not whichever thread merely touched the granule last
        self.last_writer: dict[int, LastAccess] = {}
        #: granules first-touched per thread (for O(touched) exit clearing)
        self.thread_log: dict[int, set[int]] = {}
        #: how many shadow updates were performed (cost accounting)
        self.updates = 0
        #: fast-path cache hits (per granule, like ``updates``)
        self.fastpath_hits = 0
        #: how many checks went through the range-batched walk
        self.range_calls = 0
        #: accesses spanning more than this many granules take the
        #: page-sliced range walk; tests pin it (per instance, or via
        #: the module-level DEFAULT_RANGE_THRESHOLD) to force either path
        self.range_threshold = DEFAULT_RANGE_THRESHOLD
        #: every granule ever checked (memory-overhead accounting survives
        #: thread exits and frees)
        self.touched: set[int] = set()
        #: per-thread last-granule cache: tid -> (first, last, is_write,
        #: version).  Any shadow mutation bumps ``_version``, invalidating
        #: every cached range at once.
        self._cache: dict[int, tuple[int, int, bool, int]] = {}
        self._version = 0
        #: optional :class:`repro.obs.history.AccessHistory`; attached by
        #: the interpreter when tracing.  Never consulted by the checks —
        #: checking behaviour is identical with or without it.
        self.history = None

    # -- helpers -------------------------------------------------------------

    @property
    def bits(self) -> dict[int, int]:
        """Granule -> bitmap view of the paged store (non-zero entries
        only).  A snapshot for introspection and tests; mutations must go
        through the checks."""
        out: dict[int, int] = {}
        for page_idx, page in self._pages.items():
            base = page_idx << PAGE_SHIFT
            for slot, value in enumerate(page):
                if value:
                    out[base + slot] = value
        return out

    def _check_tid(self, tid: int) -> None:
        if tid < 1:
            # Bit 0 is the "single thread reads and writes" writer bit;
            # a thread id of 0 would silently alias it and corrupt the
            # encoding, so it is rejected outright.
            raise ValueError(
                f"thread id {tid} is reserved (bit 0 encodes the writer); "
                "thread ids start at 1")
        if tid > self.max_threads:
            raise TooManyThreads(
                f"thread id {tid} exceeds the {self.max_threads}-thread "
                f"capacity of {self.nbytes} shadow byte(s) (8n-1)")

    @staticmethod
    def granules(addr: int, size: int) -> range:
        first = addr >> GRANULE_SHIFT
        last = (addr + max(size, 1) - 1) >> GRANULE_SHIFT
        return range(first, last + 1)

    def _log(self, tid: int, granule: int) -> None:
        self.thread_log.setdefault(tid, set()).add(granule)
        self.touched.add(granule)

    def _threads_in(self, bits: int) -> int:
        """The bitmask of thread bits (bit 0 masked off)."""
        return bits & ~1

    # -- the checks ---------------------------------------------------------

    def recheck(self, addr: int, size: int, tid: int,
                is_write: bool) -> bool:
        """Runtime guard for a statically elided check: exactly the
        cache-hit prefix of ``chkread``/``chkwrite``.  Returns True when
        the thread's most recent check covered this very range with no
        intervening shadow mutation — in which case the full check would
        have taken the fast path and this call has already performed its
        entire effect (the per-granule ``updates``/``fastpath_hits``
        accounting; a cache hit writes neither bitmaps nor ``last``).
        Returns False otherwise, having done nothing: the caller must
        fall back to the full check."""
        if size <= 0:
            # A zero-size access touches no memory, hence no granules:
            # the full check is a no-op, so the guard holds vacuously.
            return True
        first = addr >> GRANULE_SHIFT
        last = (addr + (size if size > 1 else 1) - 1) >> GRANULE_SHIFT
        cached = self._cache.get(tid)
        if cached is None or cached[0] != first or cached[1] != last \
                or cached[3] != self._version \
                or (is_write and not cached[2]):
            return False
        n = last - first + 1
        self.updates += n
        self.fastpath_hits += n
        return True

    def recheck_locked(self, addr: int, size: int, tid: int,
                       is_write: bool, lvalue: str, loc: Loc) -> bool:
        """Runtime guard for a ``locked(l)``-refined check.  Stronger
        than :meth:`recheck` (which needs the thread's *immediately*
        preceding check to cover the same range): this probes the
        granule bitmaps directly and succeeds whenever the full
        ``chkread``/``chkwrite`` would find no conflict and no granule
        needing the slow atomic update — i.e. whenever the full check
        would have charged cost 1 and mutated nothing but the
        last-access maps and the cache.  On success those exact effects
        are replayed (``updates`` accounting, ``last``/``last_writer``
        records, cache entry), so refined and unrefined runs stay
        byte-for-byte identical in reports, costs, and shadow state.
        Returns False having done *nothing* when any granule would go
        slow or conflict: the caller must fall back to the full check,
        which then reports/updates exactly as it would have anyway."""
        if size <= 0:
            return True  # no granules: the full check is a no-op
        first = addr >> GRANULE_SHIFT
        last = (addr + (size if size > 1 else 1) - 1) >> GRANULE_SHIFT
        cached = self._cache.get(tid)
        if cached is not None and cached[0] == first \
                and cached[1] == last and cached[3] == self._version \
                and (cached[2] or not is_write):
            n = last - first + 1
            self.updates += n
            self.fastpath_hits += n
            return True
        self._check_tid(tid)
        mybit = 1 << tid
        want = (mybit | 1) if is_write else mybit
        pages = self._pages
        for granule in range(first, last + 1):
            page = pages.get(granule >> PAGE_SHIFT)
            bits = page[granule & PAGE_MASK] if page is not None else 0
            if bits & want != want:
                return False  # full check would take the slow path
            if is_write:
                if bits & ~1 & ~mybit:
                    return False  # would report a write conflict
            elif (bits & 1) and (bits & ~1 & ~mybit):
                return False  # would report a read conflict
        acc = LastAccess(tid, lvalue, loc, is_write)
        for granule in range(first, last + 1):
            self.updates += 1
            self.last[granule] = acc
            if is_write:
                self.last_writer[granule] = acc
        self._cache[tid] = (first, last, is_write, self._version)
        return True

    def chkread(self, addr: int, size: int, tid: int, lvalue: str,
                loc: Loc) -> tuple[Optional[LastAccess], int]:
        """Records a read; returns (conflicting access | None, number of
        granules needing the slow atomic update).  A granule whose bits
        already record this thread's read takes the fast path: a plain
        load and test, no ``cmpxchg`` — this is what keeps SharC's
        overhead at 12%% on pfscan despite 80%% checked accesses."""
        if size <= 0:
            # A zero-size access (memcpy(p, q, 0), a zero-length summary
            # range) reads no bytes, so it cannot race: no granule walk,
            # no bitmap updates, no conflict.  Clamping it to one granule
            # would check — and report against — memory the program never
            # touches.
            return None, 0
        first = addr >> GRANULE_SHIFT
        last = (addr + (size if size > 1 else 1) - 1) >> GRANULE_SHIFT
        if last - first >= self.range_threshold:
            return self._chk_range(first, last, tid, lvalue, loc, False)
        cached = self._cache.get(tid)
        if cached is not None and cached[0] == first \
                and cached[1] == last and cached[3] == self._version:
            # A cached conflict-free read or write of the same range:
            # the thread's bits are known set and nothing changed since.
            n = last - first + 1
            self.updates += n
            self.fastpath_hits += n
            return None, 0
        self._check_tid(tid)
        conflict: Optional[LastAccess] = None
        slow = 0
        mybit = 1 << tid
        pages = self._pages
        acc = LastAccess(tid, lvalue, loc, False)
        for granule in range(first, last + 1):
            self.updates += 1
            page = pages.get(granule >> PAGE_SHIFT)
            slot = granule & PAGE_MASK
            bits = page[slot] if page is not None else 0
            if (bits & 1) and (bits & ~1 & ~mybit):
                # Writer bit plus some other thread's bit.  That other
                # bit may belong to a *reader* who already had their
                # conflict reported while this thread stays the writer —
                # bits alone cannot tell the two apart, so consult the
                # writer record and only report when the writer really
                # is another thread (a thread never races with itself).
                if conflict is None:
                    candidate = (self.last_writer.get(granule)
                                 or self.last.get(granule))
                    if candidate is not None and candidate.tid != tid:
                        conflict = candidate
            if not bits & mybit:
                slow += 1
                if page is None:
                    page = pages[granule >> PAGE_SHIFT] = [0] * PAGE_SIZE
                page[slot] = bits | mybit
                self._log(tid, granule)
            self.last[granule] = acc
        if slow:
            self._version += 1
        if conflict is None:
            self._cache[tid] = (first, last, False, self._version)
        return conflict, slow

    def chkwrite(self, addr: int, size: int, tid: int, lvalue: str,
                 loc: Loc) -> tuple[Optional[LastAccess], int]:
        """Records a write; returns (conflicting access | None, number of
        granules needing the slow atomic update)."""
        if size <= 0:
            return None, 0  # zero-size: no granules (see chkread)
        first = addr >> GRANULE_SHIFT
        last = (addr + (size if size > 1 else 1) - 1) >> GRANULE_SHIFT
        if last - first >= self.range_threshold:
            return self._chk_range(first, last, tid, lvalue, loc, True)
        cached = self._cache.get(tid)
        if cached is not None and cached[2] and cached[0] == first \
                and cached[1] == last and cached[3] == self._version:
            # Only a cached *write* proves exclusive ownership; a cached
            # read says nothing about other readers.
            n = last - first + 1
            self.updates += n
            self.fastpath_hits += n
            return None, 0
        self._check_tid(tid)
        conflict: Optional[LastAccess] = None
        slow = 0
        mybit = 1 << tid
        want = mybit | 1
        pages = self._pages
        acc = LastAccess(tid, lvalue, loc, True)
        for granule in range(first, last + 1):
            self.updates += 1
            page = pages.get(granule >> PAGE_SHIFT)
            slot = granule & PAGE_MASK
            bits = page[slot] if page is not None else 0
            if bits & ~1 & ~mybit:
                if conflict is None:
                    conflict = self.last.get(granule)
            if bits & want != want:
                slow += 1
                if page is None:
                    page = pages[granule >> PAGE_SHIFT] = [0] * PAGE_SIZE
                page[slot] = bits | want
                self._log(tid, granule)
            self.last[granule] = acc
            self.last_writer[granule] = acc
        if slow:
            self._version += 1
        if conflict is None:
            self._cache[tid] = (first, last, True, self._version)
        return conflict, slow

    def chkread_range(self, addr: int, size: int, tid: int, lvalue: str,
                      loc: Loc) -> tuple[Optional[LastAccess], int]:
        """Range-batched ``chkread``: one call covering every granule of
        ``[addr, addr+size)``.  Semantically identical to ``chkread``
        over the same range (same conflicts, bitmap updates, logs, cache,
        single version bump); the walk hoists the page lookup out of the
        per-granule loop."""
        if size <= 0:
            return None, 0  # zero-size: no granules (see chkread)
        first = addr >> GRANULE_SHIFT
        last = (addr + (size if size > 1 else 1) - 1) >> GRANULE_SHIFT
        return self._chk_range(first, last, tid, lvalue, loc, False)

    def chkwrite_range(self, addr: int, size: int, tid: int, lvalue: str,
                       loc: Loc) -> tuple[Optional[LastAccess], int]:
        """Range-batched ``chkwrite``; see :meth:`chkread_range`."""
        if size <= 0:
            return None, 0  # zero-size: no granules (see chkread)
        first = addr >> GRANULE_SHIFT
        last = (addr + (size if size > 1 else 1) - 1) >> GRANULE_SHIFT
        return self._chk_range(first, last, tid, lvalue, loc, True)

    def _chk_range(self, first: int, last: int, tid: int, lvalue: str,
                   loc: Loc, is_write: bool
                   ) -> tuple[Optional[LastAccess], int]:
        cached = self._cache.get(tid)
        if cached is not None and cached[0] == first \
                and cached[1] == last and cached[3] == self._version \
                and (cached[2] or not is_write):
            n = last - first + 1
            self.updates += n
            self.fastpath_hits += n
            return None, 0
        self._check_tid(tid)
        self.range_calls += 1
        conflict: Optional[LastAccess] = None
        slow = 0
        mybit = 1 << tid
        want = (mybit | 1) if is_write else mybit
        pages = self._pages
        last_map = self.last
        writer_map = self.last_writer
        acc = LastAccess(tid, lvalue, loc, is_write)
        granule = first
        while granule <= last:
            # One page lookup per up-to-PAGE_SIZE granules instead of
            # one per granule.
            page_idx = granule >> PAGE_SHIFT
            page_end = min(last, ((page_idx + 1) << PAGE_SHIFT) - 1)
            page = pages.get(page_idx)
            self.updates += page_end - granule + 1
            for g in range(granule, page_end + 1):
                slot = g & PAGE_MASK
                bits = page[slot] if page is not None else 0
                if is_write:
                    if bits & ~1 & ~mybit and conflict is None:
                        conflict = last_map.get(g)
                elif (bits & 1) and (bits & ~1 & ~mybit) \
                        and conflict is None:
                    # Same self-conflict guard as the scalar chkread.
                    candidate = writer_map.get(g) or last_map.get(g)
                    if candidate is not None and candidate.tid != tid:
                        conflict = candidate
                if bits & want != want:
                    slow += 1
                    if page is None:
                        page = pages[page_idx] = [0] * PAGE_SIZE
                    page[slot] = bits | want
                    self._log(tid, g)
                last_map[g] = acc
                if is_write:
                    writer_map[g] = acc
            granule = page_end + 1
        if slow:
            self._version += 1
        if conflict is None:
            self._cache[tid] = (first, last, is_write, self._version)
        return conflict, slow

    # -- lifecycle ------------------------------------------------------------

    def clear_range(self, addr: int, size: int) -> None:
        """``free()``: the range is no longer accessed by anyone.  The
        freed granules are purged from every thread's first-access log as
        well — otherwise a later ``clear_thread`` would walk (and, were
        the address reused, clear bits of) a *different* object that
        landed at the same granules, and the logs would grow without
        bound as stack slabs are freed on every function return."""
        granules = self.granules(addr, size)
        for granule in granules:
            page = self._pages.get(granule >> PAGE_SHIFT)
            if page is not None:
                page[granule & PAGE_MASK] = 0
            self.last.pop(granule, None)
            self.last_writer.pop(granule, None)
        for log in self.thread_log.values():
            log.difference_update(granules)
        self._version += 1
        if self.history is not None:
            # Freed (or scast-reset) memory must not leak another
            # object's provenance into later reports at the same address.
            self.history.clear_range(addr, size)

    def clear_thread(self, tid: int) -> None:
        """Thread exit: two threads whose executions do not overlap do not
        race, so the exiting thread's bits are erased."""
        mask = ~(1 << tid)
        for granule in self.thread_log.pop(tid, set()):
            page = self._pages.get(granule >> PAGE_SHIFT)
            if page is None:
                continue
            slot = granule & PAGE_MASK
            bits = page[slot] & mask
            if self._threads_in(bits) == 0:
                bits = 0
            page[slot] = bits
        self._cache.pop(tid, None)
        self._version += 1

    def reset_granules(self, addr: int, size: int) -> None:
        """A sharing cast clears past accesses: the user explicitly moved
        the object to a new sharing regime (Section 3.3, scast rule)."""
        self.clear_range(addr, size)

    # -- accounting --------------------------------------------------------------

    def shadow_pages(self) -> int:
        """4 KiB pages of shadow memory ever dirtied."""
        per_page = SHADOW_PAGE // self.nbytes
        return len({g // per_page for g in self.touched})
