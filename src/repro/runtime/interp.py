"""The instrumented-program interpreter — SharC's dynamic analysis.

The type checker attached :class:`~repro.sharc.typecheck.AccessInfo` to
every l-value occurrence needing a runtime check, ``sharc_oneref`` /
``sharc_src_write`` to sharing casts, and ``rc_track`` marks to pointer
writes needing reference-count updates.  This interpreter executes the AST
under a seeded scheduler and performs those checks:

- ``chkread``/``chkwrite`` against the 16-byte-granule shadow memory
  (Figure 6's judgments) — conflicts become reports in the paper's format;
- lock-held checks against the per-thread lock log;
- ``oneref`` + null-out for sharing casts (Figure 7's procedure), clearing
  the object's reader/writer sets afterwards (the scast semantics rule);
- reference-count updates through the selected scheme (Levanoni–Petrank by
  default), normalized to object base addresses so interior pointers count
  toward their object, as Heapsafe does.

Running with ``instrument=False`` executes the same program with every
check skipped and RC off — the baseline for the time-overhead metric.
Running with ``static=False`` ignores the marks of both static
discharge tiers (:mod:`repro.runtime.dyncheck`), so every dynamic check
takes the shadow walk; steps, reports and schedules are identical.

Threads are Python generators yielding accumulated step costs (or
``("block", predicate, note)``); the scheduler interleaves them
deterministically per seed, so every reported race is replayable.
A tick is charged to ``Interp._pending`` alone; the run loop moves what
a thread yields, and what it charged before its burst ended or it
stopped, into ``RunStats.steps_total``.  Readers in mid-burst (the bus
clock, history stamps) read :meth:`Interp.clock`, the sum of the two.
The AST marks and memos read here, and each node's ``KIND``, are
declared on the node classes (:mod:`repro.cfront.cast`), so every read
is a plain attribute read.

Only a node that can reach a scheduling point runs as a generator.  A
*flat* expression can never yield or touch a checked access: a literal,
a string, ``sizeof``, a register-like scalar local, ``=`` / ``op=`` /
``++`` / ``--`` on one, ``- ! ~``, binary operators and casts over flat
operands, ``&`` of a flat address, or an array-valued l-value.  Nor can
the *address* of an l-value (``x``, ``a[i]``, ``s.f``, ``p->f``,
``*p``) whose parts are flat.  ``Interp._is_flat`` decides both once per
node and memoizes them on it (``sharc_flat``, ``sharc_flat_addr``); a
function body is marked on its first call.  A parent hands a flat child
straight to the plain ``_eval_flat`` / ``_flat_addr``, a flat statement
runs with plain calls, and the statements of a block share one
generator frame.  A node that is not flat pays one generator:
``eval_expr`` evaluates a binary operator and a memory read itself, and
an expression statement hands an assignment to ``_eval_assign``.

Both paths charge the same ticks in the same order (one per node entry
plus one per l-value, each before its node can raise an
``InterpError``), so steps and an aborted run's clock do not depend on
the path.  A register slot sits in the live frame slab, so its load and
store skip ``space.read``'s block check, as the compiled backend's do,
and pay only the page census.  Each operator's arithmetic, the address
arithmetic and null errors of index, member and deref, and the store
(byte mask, census, rc) are written once and shared by both paths.
"""

from __future__ import annotations

import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.errors import DiagKind, InterpError, Loc
from repro.cfront import cast as A
from repro.cfront.cast import (
    E_ASSIGN, E_BINOP, E_CALL, E_CAST, E_COMMA, E_COND, E_IDENT, E_INDEX,
    E_LIT, E_MEMBER, E_NULL, E_SCAST, E_SIZEOF, E_STR, E_UNOP, S_BREAK,
    S_COMPOUND, S_CONTINUE, S_DECL, S_DOWHILE, S_EXPR, S_FOR, S_IF,
    S_RETURN, S_WHILE,
)
from repro.cfront.pretty import pretty_expr
from repro.obs.events import (
    CAT_CHECK, CAT_CONFLICT, CAT_SCAST, CAT_SCHED, TraceBus, TraceConfig,
)
from repro.obs.history import AccessHistory
from repro.obs.sitestats import (
    I_CONFLICTS, I_COST, I_MISS, I_RANGE, I_SOLO, new_counter,
)
from repro.cfront.ctypes import ArrayType, FuncType, QualType, StructType
from repro.sharc.checker import CheckedProgram
from repro.sharc.reports import Access, Report, oneref_detail
from repro.sharc.typecheck import AccessInfo
from repro.runtime.addrspace import PAGE_SIZE, AddressSpace
from repro.runtime.builtins import IMPLS
from repro.runtime.dyncheck import dynamic_check
from repro.runtime.eraser import (
    ACCESS_COST, DETAIL as ERASER_DETAIL, EraserChecker,
)
from repro.runtime.locks import LockTable
from repro.runtime.refcount import make_scheme
from repro.runtime.scheduler import (
    HELD, RUN_TO_BLOCK, DeadlockError, Scheduler, Thread, ThreadState,
)
from repro.runtime.shadow import ShadowMemory, TooManyThreads
from repro.runtime.stats import RunStats
from repro.runtime.world import World


# -- dispatch tags ---------------------------------------------------------
#
# ``eval_expr``/``_eval_flat``/``exec_stmt``/``_flat_addr`` are the
# interpreter's hottest functions; a per-class isinstance chain costs
# several failed checks per node.  Each node class declares its kind as
# a small int (``KIND``, :mod:`repro.cfront.cast`); integer comparisons
# ordered by measured frequency do the same dispatch at a fraction of
# the cost.  Binary operators get the same treatment per operator.

(_B_ANDAND, _B_OROR, _B_ADD, _B_SUB, _B_MUL, _B_DIV, _B_MOD, _B_EQ,
 _B_NE, _B_LT, _B_GT, _B_LE, _B_GE, _B_BAND, _B_BOR, _B_XOR, _B_SHL,
 _B_SHR) = range(18)

_BINOP_K = {
    "&&": _B_ANDAND, "||": _B_OROR, "+": _B_ADD, "-": _B_SUB,
    "*": _B_MUL, "/": _B_DIV, "%": _B_MOD, "==": _B_EQ, "!=": _B_NE,
    "<": _B_LT, ">": _B_GT, "<=": _B_LE, ">=": _B_GE, "&": _B_BAND,
    "|": _B_BOR, "^": _B_XOR, "<<": _B_SHL, ">>": _B_SHR,
}


class ThreadExit(Exception):
    """thread_exit() unwinding."""

    def __init__(self, value):
        self.value = value


class ProgramExit(Exception):
    """exit() unwinding."""

    def __init__(self, code: int):
        self.code = code


#: what ends a thread's generator, handled by ``Interp._thread_stopped``
_THREAD_STOPS = (StopIteration, ProgramExit, TooManyThreads, InterpError)
#: step budget of a counted burst, which runs its items whatever they cost
_NO_BUDGET = 1 << 62


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


@dataclass
class Frame:
    """One activation record; locals live in a 16-aligned slab."""

    func: A.FuncDef
    env: dict[str, int] = field(default_factory=dict)
    rc_slots: list[int] = field(default_factory=list)
    slab: int = 0
    slab_size: int = 0


class FrameLayout(NamedTuple):
    """A function's frame slab: the byte offset of every parameter and
    local, the slab size, ``(offset, rc-tracked?)`` per parameter in
    order, and the offsets of the rc-tracked locals."""

    offsets: dict[str, int]
    size: int
    param_slots: tuple[tuple[int, bool], ...]
    rc_offsets: tuple[int, ...]


def frame_layout(func: A.FuncDef, structs) -> FrameLayout:
    """The function's frame layout, computed once and memoized on the
    ``FuncDef`` (the instrumenter has set ``rc_locals`` by then).  The
    single source of truth for frame layout: ``Interp.call_function``
    builds environments from it and the compiled backend
    (:mod:`repro.compile`) bakes the offsets into its generated code,
    so both backends place every local at the same address."""
    layout = func.sharc_layout
    if layout is not None:
        return layout
    from repro.sharc.defaults import collect_local_decls
    ftype = func.qtype.base
    assert isinstance(ftype, FuncType)
    entries: list[tuple[str, QualType]] = list(
        zip(func.param_names, ftype.params))
    entries.extend((d.name, d.qtype)
                   for d in collect_local_decls(func))
    offset = 0
    offsets: dict[str, int] = {}
    for name, qtype in entries:
        size = qtype.base.size(structs)
        align = qtype.base.align(structs)
        offset = (offset + align - 1) // align * align
        offsets[name] = offset
        offset += size
    tracked = dict.fromkeys(func.rc_locals)
    layout = FrameLayout(
        offsets, max(offset, 1),
        tuple((offsets[n], n in tracked) for n in func.param_names),
        tuple(offsets[n] for n in tracked if n in offsets))
    func.sharc_layout = layout
    return layout


@dataclass
class RunResult:
    """Everything one dynamic run produced."""

    reports: list[Report] = field(default_factory=list)
    report_counts: dict[str, int] = field(default_factory=dict)
    output: str = ""
    stats: RunStats = field(default_factory=RunStats)
    thread_results: dict[int, object] = field(default_factory=dict)
    deadlock: Optional[str] = None
    error: Optional[str] = None
    timeout: bool = False
    exit_code: int = 0
    #: merged (tid, items) context-switch trace; populated only when the
    #: run was started with ``record_trace=True``
    trace: Optional[list[tuple[int, int]]] = None
    #: structured runtime events (:class:`repro.obs.events.Event`);
    #: populated only when the run was started with a trace config
    events: Optional[list] = None
    #: tid -> thread entry-function name, for trace exports
    thread_names: dict[int, str] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when the run finished with no sharing violations and no
        runtime errors."""
        return (not self.reports and self.error is None
                and self.deadlock is None and not self.timeout)

    def render_reports(self) -> str:
        return "\n".join(r.render() for r in self.reports)


class Interp:
    """One configured execution of a checked program."""

    def __init__(self, checked: CheckedProgram, *, seed: int = 0,
                 world: Optional[World] = None, policy: str = "random",
                 rc_scheme: str = "lp", instrument: bool = True,
                 shadow_bytes: int = 1, max_burst: int = 8,
                 checker: str = "sharc",
                 static: bool = True,
                 record_trace: bool = False,
                 trace: Optional[TraceConfig] = None) -> None:
        self.checked = checked
        self.program = checked.program
        self.structs = self.program.structs
        self.instrument = instrument
        #: consume the static discharge marks — check elimination's
        #: ``elide``/``range_walk`` (repro.sharc.checkelim) and the
        #: lockset refinement's ``refined_lock`` (repro.sharc.lockset)?
        #: Off = the ablation baseline (``--no-static``); the identity
        #: gate guarantees both settings are bit-identical in reports,
        #: steps, and scheduler RNG.
        self.static = static
        #: "sharc" (mode-targeted checks) or "eraser" (the lockset
        #: baseline of Section 6.2: every access monitored)
        self.eraser = None
        if checker == "eraser" and instrument:
            self.eraser = EraserChecker()
            self.instrument = False  # SharC checks off; Eraser on
        elif checker not in ("sharc", "eraser"):
            raise ValueError(f"unknown checker {checker!r}")
        self.space = AddressSpace()
        self.shadow = ShadowMemory(shadow_bytes)
        self.sched = Scheduler(seed, policy, max_burst,
                               record_trace=record_trace)
        self.locks = LockTable(self.sched.notify)
        from repro.runtime.locks import BarrierTable
        self.barriers = BarrierTable(self.sched.notify)
        self.rc = make_scheme(rc_scheme if instrument else "off")
        self.world = world if world is not None else World()
        self.rng = random.Random(seed ^ 0x5EED)
        self.output: list[str] = []
        self.reports: list[Report] = []
        self._report_keys: dict[tuple, int] = {}
        self.stats = RunStats()
        self.functions = {f.name: f for f in self.program.functions()}
        self.globals_env: dict[str, int] = {}
        self._strings: dict[str, int] = {}
        self._exit_code = 0
        self._halted = False
        self._pending = 0
        # Structured tracing (repro.obs).  None everywhere when off: the
        # only cost an untraced run pays is `is not None` tests, and the
        # bus clock is the deterministic step counter, so traced and
        # untraced runs are bit-identical in steps/reports/rng.
        self.bus: Optional[TraceBus] = None
        self.history: Optional[AccessHistory] = None
        if trace is not None:
            self.bus = TraceBus(trace,
                                clock=self.clock)
            self.history = AccessHistory()
            self.shadow.history = self.history
            self.locks.bus = self.bus
            self.rc.bus = self.bus
            self.sched.bus = self.bus

    # -- cost accounting ------------------------------------------------------

    def _tick(self, n: int = 1) -> None:
        self._pending += n

    def clock(self) -> int:
        """The step clock: every tick charged so far, collected into
        ``steps_total`` by the run loop or still pending."""
        return self.stats.steps_total + self._pending

    def _charge_check(self, n: int = 1) -> None:
        self._tick(n)
        self.stats.steps_checks += n

    def _charge_rc(self, n: int) -> None:
        self._tick(n)
        self.stats.steps_rc += n

    def _flush(self) -> int:
        cost, self._pending = self._pending, 0
        return cost

    # -- reports -----------------------------------------------------------------

    def _report(self, kind: DiagKind, addr: int, tid: int, lvalue: str,
                loc: Loc, last=None, detail: str = "",
                span: Optional[int] = None) -> None:
        """Counts one violation under its key (kind, l-value, line, line
        of ``last``) and builds its :class:`Report` only when the key is
        new: a repeat costs one dict update.  ``last`` is the access it
        conflicts with, a tuple that starts ``(tid, lvalue, loc)``: a
        shadow :class:`~repro.runtime.shadow.LastAccess` or an Eraser
        granule's last access; ``span`` bytes from ``addr`` give the
        history a traced run attaches."""
        key = (kind.value, lvalue, loc.line,
               -1 if last is None else last[2].line)
        count = self._report_keys.get(key)
        if count is not None:
            self._report_keys[key] = count + 1
            return
        self._report_keys[key] = 1
        hist = (self.history.provenance(addr, span)
                if span is not None and self.history is not None else ())
        report = Report(kind, addr, Access(tid, lvalue, loc),
                        None if last is None
                        else Access(last[0], last[1], last[2]),
                        detail, hist)
        self.reports.append(report)
        if self.bus is not None:
            self.bus.emit(
                CAT_CONFLICT, report.kind.value, report.who.tid,
                lvalue=report.who.lvalue, addr=f"0x{report.addr:x}",
                loc=f"{report.who.loc.file}:{report.who.loc.line}")

    # -- runtime checks -------------------------------------------------------------

    def _solo(self) -> bool:
        """True while only one thread is live (single-threaded phases of
        the program: before the first spawn, after the last join).  The
        scheduler maintains the live count so this is O(1) — it runs on
        every checked access."""
        return self.sched.live_count <= 1

    def _eraser_access(self, node: A.Expr, addr: int, size: int,
                       thread: Thread, is_write: bool) -> None:
        """Lockset-baseline monitoring: every (non-register) access.
        The l-value text is memoized on the node, like its size."""
        lvalue = node.sharc_lvalue
        if lvalue is None:
            try:
                lvalue = pretty_expr(node)
            except TypeError:
                lvalue = "<expr>"
            node.sharc_lvalue = lvalue
        for granule, who, last in self.eraser.on_access(
                addr, size, thread.tid, is_write,
                self.locks.held_by(thread.tid), lvalue, node.loc):
            self._report(DiagKind.WRITE_CONFLICT, granule, *who, last,
                         ERASER_DETAIL)
        self._charge_check(ACCESS_COST)

    def _apply_check(self, info: AccessInfo, addr: int, size: int,
                     thread: Thread, frame: Frame, is_write: bool):
        """Performs one attached runtime check.  A generator only
        because lock checks evaluate their lock expression in the
        current environment; dynamic checks run the site's closure
        (:mod:`repro.runtime.dyncheck`), the same one the compiled
        backend binds.  The check kind was resolved once at
        instrumentation time (``info.is_lock``)."""
        if info.is_lock:
            yield from self._lock_check(info, addr, size, thread, frame,
                                        is_write)
        else:
            dynamic_check(info, size, is_write)(self, thread, addr)

    def _lock_check(self, info: AccessInfo, addr: int, size: int,
                    thread: Thread, frame: Frame, is_write: bool):
        self._charge_check(1)
        lock_addr = 0
        if info.lock_ast is not None:
            lock_qt = info.lock_ast.ctype
            if lock_qt is not None and (lock_qt.is_struct
                                        or lock_qt.is_array):
                # locked(m) naming a mutex object denotes its address.
                lock_addr = yield from self.eval_lvalue(
                    info.lock_ast, thread, frame)
            else:
                lock_addr = yield from self.eval_expr(
                    info.lock_ast, thread, frame)
        self._lock_verdict(info, addr, size, thread, is_write, lock_addr)

    def _lock_verdict(self, info: AccessInfo, addr: int, size: int,
                      thread: Thread, is_write: bool, lock_addr) -> None:
        """The held test of a ``locked`` check and all that follows it:
        report, history and bus events, census.  Compiled bodies call it
        too, after the check tick and the lock expression."""
        held = self.locks.holds_for_access(thread.tid,
                                           int(lock_addr), is_write)
        if not held:
            self._report(DiagKind.LOCK_NOT_HELD, addr, thread.tid,
                         info.lvalue_text, info.loc,
                         detail=f"required lock: {info.mode}", span=size)
        if self.history is not None:
            self.history.record(addr, size, thread.tid,
                                info.lvalue_text, info.loc, is_write,
                                self.clock())
        if self.bus is not None:
            self.bus.emit(CAT_CHECK, "chklock", thread.tid, dur=1,
                          hit=held, lvalue=info.lvalue_text)
        self.stats.accesses_locked += 1

    def summary_access(self, node: A.Call, arg_index: int, addr: int,
                       length: int, thread: Thread) -> None:
        """Applies a library call's read/write summary over the byte range
        it actually touched (Section 4.4)."""
        if not self.instrument:
            return
        access = node.arg_access
        if not access or arg_index not in access:
            return
        rw, info = access[arg_index]
        self.stats.accesses_dynamic += 1
        self.stats.accesses_total += 1
        is_write = "w" in rw
        site = self.stats.sites.get(info.site_key_w if is_write
                                    else info.site_key_r)
        if site is None:
            site = self.stats.sites[info.site_key_w if is_write
                                    else info.site_key_r] = new_counter()
        if self._solo():
            site[I_SOLO] += 1
            site[I_COST] += 1
            self._charge_check(1)
            if self.history is not None:
                self.history.record(addr, length, thread.tid,
                                    info.lvalue_text, info.loc, is_write,
                                    self.clock())
            return
        slow = 0
        conflict = None
        if is_write or "r" in rw:
            # A library summary covers the whole touched byte range in
            # one go — the natural consumer of the range-batched walk.
            chk = (self.shadow.chkwrite_range if is_write
                   else self.shadow.chkread_range)
            conflict, slow = chk(addr, length, thread.tid,
                                 info.lvalue_text, info.loc)
            self.stats.checks_range += 1
            site[I_RANGE] += 1
            if slow:
                site[I_MISS] += 1
            if conflict is not None:
                site[I_CONFLICTS] += 1
                self._report(DiagKind.WRITE_CONFLICT if is_write
                             else DiagKind.READ_CONFLICT, addr, thread.tid,
                             info.lvalue_text, info.loc, conflict,
                             span=length)
        if self.history is not None and rw:
            self.history.record(addr, length, thread.tid,
                                info.lvalue_text, info.loc, is_write,
                                self.clock())
        cost = 1 + 3 * slow
        self._charge_check(cost)
        site[I_COST] += cost
        if self.bus is not None:
            self.bus.emit(CAT_CHECK,
                          "chkwrite" if is_write else "chkread",
                          thread.tid, dur=cost, hit=(slow == 0),
                          conflict=conflict is not None, summary=True,
                          lvalue=info.lvalue_text)

    # -- reference counting -----------------------------------------------------------

    def _object_base(self, value: object) -> int:
        """Normalizes a pointer to its object's base address, so interior
        pointers count toward the whole object (Heapsafe-style)."""
        if not isinstance(value, int) or value == 0:
            return 0
        block = self.space.block_of(value)
        return block.start if block is not None else value

    def _rc_peek(self, slot: int) -> int:
        """Collector-side slot read, normalized to object bases so an
        interior pointer counts toward its whole object."""
        return self._object_base(self.space.peek(slot))

    def _rc_write(self, thread: Thread, slot: int, old: object,
                  new: object) -> None:
        if not self.instrument:
            return
        cost = self.rc.record_write(thread.tid, slot,
                                    self._object_base(old),
                                    self._object_base(new))
        self._charge_rc(cost)
        self.stats.rc_writes += 1

    # -- memory access helpers ------------------------------------------------------

    def _sizeof_node(self, node: A.Expr) -> int:
        """Scalar size of an access through ``node``, memoized on the
        node: the type layout is static, so it is computed once per
        occurrence instead of on every execution."""
        size = node.sharc_size
        if size is None:
            qt = node.ctype
            if qt is None:
                size = 8
            else:
                try:
                    size = qt.base.size(self.structs)
                except KeyError:
                    size = 8
            node.sharc_size = size
        return size

    def _access(self, node: A.Expr, addr: int, thread: Thread,
                is_write: bool) -> Optional[AccessInfo]:
        """A memory access up to its scheduling point: census, Eraser
        event and dynamic check.  Returns the site's ``locked`` check
        when it has one, for the caller to run as a generator (its lock
        expression may yield)."""
        size = node.sharc_size
        if size is None:
            size = self._sizeof_node(node)
        stats = self.stats
        stats.accesses_total += 1
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        if self.eraser is not None:
            self._eraser_access(node, addr, size, thread, is_write)
        if self.instrument:
            info = node.sharc_write if is_write else node.sharc_read
            if info is not None:
                if info.is_lock:
                    return info
                dynamic_check(info, size, is_write)(self, thread, addr)
        return None

    def _do_read(self, node: A.Expr, addr: int, thread: Thread,
                 frame: Frame):
        """Generator: a memory load through ``node`` — :meth:`_access`,
        any lock check, one scheduling point, then ``space.read``."""
        lock = self._access(node, addr, thread, False)
        if lock is not None:
            yield from self._lock_check(lock, addr, self._sizeof_node(node),
                                        thread, frame, False)
        yield self._flush()
        return self.space.read(addr, node.loc)

    def _do_write(self, node: A.Expr, addr: int, value: object,
                  thread: Thread, frame: Frame, rc_track: bool = False):
        """Generator: a memory store through ``node`` — :meth:`_access`,
        any lock check, one scheduling point, then :meth:`_store`.
        Returns the stored value."""
        lock = self._access(node, addr, thread, True)
        if lock is not None:
            yield from self._lock_check(lock, addr, self._sizeof_node(node),
                                        thread, frame, True)
        yield self._flush()
        return self._store(node, addr, value, thread, rc_track)

    def _reg_load(self, addr: int):
        """A register local's load.  Not a memory access in compiled C:
        no check, no scheduling point.  Its slot sits in the live frame
        slab, so it skips ``space.read``'s block check, as codegen's
        ``fast_read`` does, and pays only the page census."""
        space = self.space
        space.pages_touched.add(addr // PAGE_SIZE)
        return space.cells.get(addr, 0)

    def _store(self, node: A.Expr, addr: int, value: object,
               thread: Thread, rc_track: bool):
        """Stores ``value`` through ``node``, after any scheduling point:
        a 1-byte target keeps the low byte; a register slot pays only
        the page census (see :meth:`_reg_load`), memory goes through
        ``space.write``; an rc-tracked slot logs the write.  Returns the
        stored value, which is the value of an assignment or of a
        prefix ``++``/``--``."""
        size = node.sharc_size
        if size is None:
            size = self._sizeof_node(node)
        if size == 1 and isinstance(value, int):
            value &= 0xFF
        space = self.space
        if node.sharc_reg:
            space.pages_touched.add(addr // PAGE_SIZE)
            old = space.cells.get(addr, 0)
            space.cells[addr] = value
        else:
            old = space.write(addr, value, node.loc)
        if rc_track:
            self._rc_write(thread, addr, old, value)
        return value

    # -- l-values ------------------------------------------------------------------

    def eval_lvalue(self, e: A.Expr, thread: Thread, frame: Frame):
        """Generator: resolves an l-value expression to an address.  An
        address that cannot reach a scheduling point
        (``sharc_flat_addr``, see :meth:`_is_flat`) goes to the plain
        :meth:`_flat_addr`.  Both charge one tick per l-value entry and
        share the address arithmetic and its null errors."""
        if e.sharc_flat is None:
            self._is_flat(e)
        if e.sharc_flat_addr:
            return self._flat_addr(e, thread, frame.env)
        self._pending += 1
        k = e.KIND
        env = frame.env
        if k == E_INDEX:
            if e.sharc_elem_size is None:
                raise InterpError("index was not resolved statically",
                                  e.loc)
            arr, idx = e.arr, e.idx
            if e.sharc_on_array:
                base = (self._flat_addr(arr, thread, env)
                        if arr.sharc_flat_addr else
                        (yield from self.eval_lvalue(arr, thread, frame)))
            else:
                base = (self._eval_flat(arr, thread, env) if arr.sharc_flat
                        else (yield from self.eval_expr(arr, thread, frame)))
            idx = (self._eval_flat(idx, thread, env) if idx.sharc_flat
                   else (yield from self.eval_expr(idx, thread, frame)))
            return self._index_addr(e, base, idx)
        if k == E_MEMBER:
            if e.sharc_offset is None:
                raise InterpError(
                    f"member {e.name!r} was not resolved statically",
                    e.loc)
            obj = e.obj
            if e.arrow:
                base = (self._eval_flat(obj, thread, env) if obj.sharc_flat
                        else (yield from self.eval_expr(obj, thread, frame)))
            else:
                base = (self._flat_addr(obj, thread, env)
                        if obj.sharc_flat_addr else
                        (yield from self.eval_lvalue(obj, thread, frame)))
            return self._deref_addr(e, base) + e.sharc_offset
        if k == E_UNOP and e.op == "*":
            operand = e.operand
            addr = (self._eval_flat(operand, thread, env)
                    if operand.sharc_flat else
                    (yield from self.eval_expr(operand, thread, frame)))
            return self._deref_addr(e, addr)
        raise InterpError(f"not an l-value: {type(e).__name__}", e.loc)

    def _flat_addr(self, e: A.Expr, thread: Thread, env: dict) -> int:
        """Resolves an l-value whose address cannot yield with plain
        calls: :meth:`eval_lvalue`'s address and ticks without its
        generator frames."""
        self._pending += 1
        k = e.KIND
        if k == E_IDENT:
            addr = env.get(e.name)
            if addr is None:
                addr = self.globals_env.get(e.name)
                if addr is None:
                    raise InterpError(f"no storage for {e.name!r}", e.loc)
            return addr
        if k == E_INDEX:
            base = (self._flat_addr(e.arr, thread, env) if e.sharc_on_array
                    else self._eval_flat(e.arr, thread, env))
            return self._index_addr(e, base,
                                    self._eval_flat(e.idx, thread, env))
        if k == E_MEMBER:
            base = (self._eval_flat(e.obj, thread, env) if e.arrow
                    else self._flat_addr(e.obj, thread, env))
            return self._deref_addr(e, base) + e.sharc_offset
        return self._deref_addr(e, self._eval_flat(e.operand, thread, env))

    @staticmethod
    def _index_addr(e: A.Index, base, idx) -> int:
        """The address of ``base[idx]`` once both are evaluated."""
        if not base:
            raise InterpError("null pointer indexing", e.loc)
        return int(base) + int(idx) * e.sharc_elem_size

    @staticmethod
    def _deref_addr(e: A.Expr, addr) -> int:
        """The address a pointer value denotes, for ``*p`` and, before
        the field offset, ``p->f`` / ``s.f``."""
        if not addr:
            raise InterpError("null pointer dereference", e.loc)
        return int(addr)

    # -- expressions ---------------------------------------------------------------------

    def eval_expr(self, e: A.Expr, thread: Thread, frame: Frame):
        """Generator: evaluates an expression to a runtime value.  A flat
        subtree (:meth:`_is_flat`) goes to the plain :meth:`_eval_flat`;
        a parent that knows a child is flat calls that itself, so the
        code below sees only nodes that can yield.  It evaluates a
        binary operator and a memory read without a further generator;
        its branches are ordered by measured node frequency."""
        flat = e.sharc_flat
        if flat is None:
            flat = self._is_flat(e)
        if flat:
            return self._eval_flat(e, thread, frame.env)
        k = e.KIND
        if k == E_ASSIGN:
            return (yield from self._eval_assign(e, thread, frame))
        self._pending += 1
        env = frame.env
        if k == E_IDENT or k == E_MEMBER or k == E_INDEX or (
                k == E_UNOP and e.op == "*"):
            if k == E_IDENT:
                name = e.name
                if name not in env and (
                        name in self.functions
                        or name not in self.globals_env and name in IMPLS):
                    return ("fn", name)
            if e.sharc_flat_addr:
                addr = self._flat_addr(e, thread, env)
            else:
                addr = yield from self.eval_lvalue(e, thread, frame)
            if e.sharc_is_arr:
                return addr
            # a memory read: _do_read, without its generator
            lock = self._access(e, addr, thread, False)
            if lock is not None:
                yield from self._lock_check(lock, addr,
                                            self._sizeof_node(e), thread,
                                            frame, False)
            yield self._flush()
            return self.space.read(addr, e.loc)
        if k == E_BINOP:
            meta = e.sharc_binop
            opk = meta[0]
            lhs = e.lhs
            lhs = (self._eval_flat(lhs, thread, env) if lhs.sharc_flat
                   else (yield from self.eval_expr(lhs, thread, frame)))
            if (opk == _B_ANDAND or opk == _B_OROR) and \
                    _truthy(lhs) == (opk == _B_OROR):  # short circuit
                return int(opk == _B_OROR)
            rhs = e.rhs
            rhs = (self._eval_flat(rhs, thread, env) if rhs.sharc_flat
                   else (yield from self.eval_expr(rhs, thread, frame)))
            return self._binop_value(e, meta, lhs, rhs)
        if k == E_UNOP:
            op = e.op
            operand = e.operand
            if op == "++" or op == "--":  # on memory: a register is flat
                addr = (self._flat_addr(operand, thread, env)
                        if operand.sharc_flat_addr else
                        (yield from self.eval_lvalue(operand, thread, frame)))
                old = yield from self._do_read(operand, addr, thread, frame)
                new = yield from self._do_write(
                    operand, addr, (old or 0) + self._step(e), thread, frame,
                    e.rc_track)
                return old if e.postfix else new
            if op == "&":
                return (yield from self.eval_lvalue(operand, thread, frame))
            value = (self._eval_flat(operand, thread, env)
                     if operand.sharc_flat else
                     (yield from self.eval_expr(operand, thread, frame)))
            return self._unop_value(e, value)
        if k == E_CALL:
            return (yield from self._eval_call(e, thread, frame))
        if k == E_CAST:
            value = yield from self.eval_expr(e.expr, thread, frame)
            return self._cast_value(e, value)
        if k == E_SCAST:
            return (yield from self._eval_scast(e, thread, frame))
        if k == E_COND:
            cond = e.cond
            cond = (self._eval_flat(cond, thread, env) if cond.sharc_flat
                    else (yield from self.eval_expr(cond, thread, frame)))
            part = e.then if _truthy(cond) else e.other
            return (self._eval_flat(part, thread, env) if part.sharc_flat
                    else (yield from self.eval_expr(part, thread, frame)))
        if k == E_COMMA:
            value = 0
            for part in e.parts:
                value = (self._eval_flat(part, thread, env)
                         if part.sharc_flat else
                         (yield from self.eval_expr(part, thread, frame)))
            return value
        raise InterpError(f"cannot evaluate {type(e).__name__}", e.loc)

    def _is_flat(self, e: A.Expr) -> bool:
        """Is ``e`` flat (see the module docstring)?  Decided once per
        node and memoized on it as ``sharc_flat``, beside
        ``sharc_flat_addr`` on an l-value (its address cannot yield; a
        node with no address has no mark) and the static facts the
        evaluators read: ``sharc_is_arr`` on an l-value, ``sharc_binop``
        on a binary operator or ``op=``.  Children are decided first, so
        every node under a decided one is decided too."""
        flat = e.sharc_flat
        if flat is not None:
            return flat
        for child in A.child_exprs(e):
            self._is_flat(child)
        k = e.KIND
        if k == E_IDENT or k == E_MEMBER or k == E_INDEX or (
                k == E_UNOP and e.op == "*"):
            if k == E_IDENT:
                addr = True
            elif k == E_MEMBER:
                addr = e.sharc_offset is not None and (
                    e.obj.sharc_flat if e.arrow
                    else e.obj.sharc_flat_addr)
            elif k == E_INDEX:
                addr = e.sharc_elem_size is not None and (
                    e.arr.sharc_flat_addr
                    if e.sharc_on_array else e.arr.sharc_flat
                ) and e.idx.sharc_flat
            else:
                addr = e.operand.sharc_flat
            e.sharc_flat_addr = addr
            qt = e.ctype
            is_arr = qt is not None and qt.is_array
            e.sharc_is_arr = is_arr
            # an array evaluates to its address; a register local is
            # not a memory access
            flat = addr and (is_arr or e.sharc_reg)
        elif k == E_LIT or k == E_NULL or k == E_STR or k == E_SIZEOF:
            flat = True
        elif k == E_UNOP:
            op = e.op
            if op == "&":
                flat = e.operand.sharc_flat_addr
            elif op == "++" or op == "--":
                flat = e.operand.sharc_reg
            else:
                flat = op in ("-", "!", "~") and e.operand.sharc_flat
        elif k == E_BINOP:
            e.sharc_binop = self._binop_meta(
                e.op, e.lhs.ctype, e.rhs.ctype)
            flat = e.lhs.sharc_flat and e.rhs.sharc_flat
        elif k == E_ASSIGN:
            if e.op != "=":
                e.sharc_binop = self._binop_meta(
                    self._COMPOUND[e.op], e.lhs.ctype, e.rhs.ctype)
            flat = e.rhs.sharc_flat and e.lhs.sharc_reg
        elif k == E_CAST:
            flat = e.expr.sharc_flat
        else:
            # calls and sharing casts can yield; ?: and comma are rare
            # and keep one evaluator each, the generator
            flat = False
        e.sharc_flat = flat
        return flat

    def _eval_flat(self, e: A.Expr, thread: Thread, env: dict):
        """Evaluates a flat subtree with plain calls: :meth:`eval_expr`'s
        values and ticks without its generator frames."""
        k = e.KIND
        if k == E_IDENT and not e.sharc_is_arr:
            # a register local: the eval_expr and eval_lvalue entries,
            # then _reg_load, inline
            self._pending += 2
            addr = env[e.name]
            space = self.space
            space.pages_touched.add(addr // PAGE_SIZE)
            return space.cells.get(addr, 0)
        self._pending += 1
        if k == E_LIT:
            return e.value
        if k == E_BINOP:
            meta = e.sharc_binop
            opk = meta[0]
            lhs = self._eval_flat(e.lhs, thread, env)
            if (opk == _B_ANDAND or opk == _B_OROR) and \
                    _truthy(lhs) == (opk == _B_OROR):  # short circuit
                return int(opk == _B_OROR)
            return self._binop_value(e, meta, lhs,
                                     self._eval_flat(e.rhs, thread, env))
        if k == E_ASSIGN:
            return self._assign_reg(e, self._eval_flat(e.rhs, thread, env),
                                    thread, env)
        if k == E_UNOP:
            op = e.op
            if op == "++" or op == "--":
                return self._incdec_reg(e, thread, env)
            if op == "&":
                return self._flat_addr(e.operand, thread, env)
            return self._unop_value(e, self._eval_flat(e.operand, thread,
                                                       env))
        if k == E_CAST:
            return self._cast_value(e, self._eval_flat(e.expr, thread, env))
        if k == E_NULL:
            return 0
        if k == E_STR:
            if e.value not in self._strings:
                self._strings[e.value] = self.space.alloc_c_string(e.value)
            return self._strings[e.value]
        if k == E_SIZEOF:
            if e.of_type is not None:
                return e.of_type.base.size(self.structs)
            return self._sizeof_node(e.of_expr)
        # an array-valued l-value evaluates to its address
        return self._flat_addr(e, thread, env)

    def _cast_value(self, e: A.CastExpr, value):
        to = e.to
        if isinstance(value, float) and to.is_integral:
            return int(value)
        if isinstance(value, int) and to.is_integral and \
                to.base.size(self.structs) == 1:
            return value & 0xFF
        if isinstance(value, int) and to.is_arith and not to.is_integral:
            return float(value)
        return value

    @staticmethod
    def _unop_value(e: A.Unop, value):
        if e.op == "-":
            return -value
        if e.op == "!":
            return 0 if _truthy(value) else 1
        if e.op == "~":
            return ~int(value)
        raise InterpError(f"unknown unary {e.op}", e.loc)

    def _step(self, e: A.Unop) -> int:
        """What ``++``/``--`` adds to its operand: plus or minus the
        pointee size for a pointer, one otherwise.  Memoized on the
        node as ``sharc_step``."""
        step = e.sharc_step
        if step is None:
            step = 1
            qt = e.operand.ctype
            if qt is not None and qt.is_pointer:
                step = qt.pointee().base.size(self.structs)
            if e.op == "--":
                step = -step
            e.sharc_step = step
        return step

    def _incdec_reg(self, e: A.Unop, thread: Thread, env: dict):
        """``++``/``--`` on a register local, after its eval_expr entry:
        the l-value tick, the load, then :meth:`_store`."""
        self._pending += 1
        operand = e.operand
        addr = env[operand.name]
        old = self._reg_load(addr)
        new = self._store(operand, addr, (old or 0) + self._step(e), thread,
                          e.rc_track)
        return old if e.postfix else new

    def _ptr_scale(self, qt: Optional[QualType]) -> int:
        if qt is None:
            return 1
        if qt.is_pointer or qt.is_array:
            return qt.pointee().base.size(self.structs)
        return 1

    def _binop_meta(self, op: str, lq: Optional[QualType],
                    rq: Optional[QualType]) -> tuple:
        """Static facts about one binop occurrence, computed once: the
        op code plus pointer-arithmetic scales derived from the operand
        types (which never change between executions)."""
        opk = _BINOP_K.get(op, -1)
        l_ptr = lq is not None and (lq.is_pointer or lq.is_array)
        r_ptr = rq is not None and (rq.is_pointer or rq.is_array)
        # Scales are only consulted for +/-, but computing them eagerly
        # must not fail on exotic pointees (e.g. void*) that the lazy
        # path never reached for comparisons.
        try:
            lscale = self._ptr_scale(lq) if l_ptr else 1
        except (KeyError, AttributeError):
            lscale = 1
        try:
            rscale = self._ptr_scale(rq) if r_ptr else 1
        except (KeyError, AttributeError):
            rscale = 1
        return (opk, l_ptr, r_ptr, lscale, rscale)

    @staticmethod
    def _binop_value(e: A.Expr, meta: tuple, lhs, rhs):
        """The value of a binary operator over its evaluated operands
        (for ``&&`` / ``||``, once the left one did not decide it),
        ``meta`` from :meth:`_binop_meta`.  ``/`` and ``%`` truncate
        toward zero as in C.  Shared by both expression paths and
        compound assignment (``e`` is then the ``Assign``)."""
        opk = meta[0]
        if opk == _B_ANDAND or opk == _B_OROR:
            return 1 if _truthy(rhs) else 0
        if opk == _B_ADD:
            l_ptr, r_ptr = meta[1], meta[2]
            if l_ptr and not r_ptr:
                return int(lhs) + int(rhs) * meta[3]
            if r_ptr and not l_ptr:
                return int(rhs) + int(lhs) * meta[4]
            return lhs + rhs
        if opk == _B_LT:
            return 1 if lhs < rhs else 0
        if opk == _B_SUB:
            l_ptr = meta[1]
            if l_ptr and meta[2]:
                return (int(lhs) - int(rhs)) // meta[3]
            if l_ptr:
                return int(lhs) - int(rhs) * meta[3]
            return lhs - rhs
        if opk == _B_EQ:
            return 1 if lhs == rhs else 0
        if opk == _B_NE:
            return 1 if lhs != rhs else 0
        if opk == _B_GT:
            return 1 if lhs > rhs else 0
        if opk == _B_LE:
            return 1 if lhs <= rhs else 0
        if opk == _B_GE:
            return 1 if lhs >= rhs else 0
        if opk == _B_MUL:
            return lhs * rhs
        if opk == _B_DIV:
            if rhs == 0:
                raise InterpError("division by zero", e.loc)
            if isinstance(lhs, float) or isinstance(rhs, float):
                return lhs / rhs
            return int(lhs / rhs) if (lhs < 0) != (rhs < 0) else lhs // rhs
        if opk == _B_MOD:
            if rhs == 0:
                raise InterpError("modulo by zero", e.loc)
            return int(lhs) - int(int(lhs) / int(rhs)) * int(rhs)
        if opk == _B_BAND:
            return int(lhs) & int(rhs)
        if opk == _B_BOR:
            return int(lhs) | int(rhs)
        if opk == _B_XOR:
            return int(lhs) ^ int(rhs)
        if opk == _B_SHL:
            return int(lhs) << int(rhs)
        if opk == _B_SHR:
            return int(lhs) >> int(rhs)
        raise InterpError(f"unknown operator {e.op}", e.loc)

    _COMPOUND = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
                 "&=": "&", "|=": "|", "^=": "^", "<<=": "<<",
                 ">>=": ">>"}

    def _eval_assign(self, e: A.Assign, thread: Thread, frame: Frame):
        """Generator: an assignment that is not flat.  It charges its own
        eval_expr entry, so an expression statement hands it over
        without :meth:`eval_expr`.  Returns the stored value."""
        self._pending += 1
        lhs, rhs = e.lhs, e.rhs
        lhs_qt = lhs.ctype
        if e.op == "=" and lhs_qt is not None and lhs_qt.is_struct:
            # Struct assignment: block copy.
            src = yield from self.eval_lvalue(rhs, thread, frame)
            dst = yield from self.eval_lvalue(lhs, thread, frame)
            size = lhs_qt.base.size(self.structs)
            if self.instrument:
                info = lhs.sharc_write
                if info is not None:
                    yield from self._apply_check(info, dst, size, thread,
                                                 frame, is_write=True)
                rinfo = rhs.sharc_read
                if rinfo is not None:
                    yield from self._apply_check(rinfo, src, size, thread,
                                                 frame, is_write=False)
            self.space.copy_range(dst, src, size, e.loc)
            self.stats.accesses_total += 2
            self.stats.writes += 1
            self.stats.reads += 1
            return 0
        env = frame.env
        value = (self._eval_flat(rhs, thread, env) if rhs.sharc_flat
                 else (yield from self.eval_expr(rhs, thread, frame)))
        if lhs.sharc_reg:
            return self._assign_reg(e, value, thread, env)
        addr = (self._flat_addr(lhs, thread, env)
                if lhs.sharc_flat_addr
                else (yield from self.eval_lvalue(lhs, thread, frame)))
        if e.op != "=":
            old = yield from self._do_read(lhs, addr, thread, frame)
            value = self._binop_value(e, e.sharc_binop, old, value)
        # a memory store: _do_write, without its generator
        lock = self._access(lhs, addr, thread, True)
        if lock is not None:
            yield from self._lock_check(lock, addr, self._sizeof_node(lhs),
                                        thread, frame, True)
        yield self._flush()
        return self._store(lhs, addr, value, thread,
                           e.rc_track)

    def _assign_reg(self, e: A.Assign, value, thread: Thread, env: dict):
        """The rest of an assignment to a register local once its right
        side is ``value``: the target's l-value tick, for ``op=`` the
        load and the operator, then :meth:`_store`.  Shared by both
        expression paths; returns the stored value."""
        self._pending += 1
        lhs = e.lhs
        addr = env[lhs.name]
        if e.op != "=":
            value = self._binop_value(e, e.sharc_binop, self._reg_load(addr),
                                      value)
        return self._store(lhs, addr, value, thread,
                           e.rc_track)

    def _eval_scast(self, e: A.SCastExpr, thread: Thread, frame: Frame):
        """Figure 7: null out the source slot, then check the reference
        count; also clears the object's reader/writer sets (the operational
        scast rule)."""
        src = e.expr
        addr = (self._flat_addr(src, thread, frame.env)
                if src.sharc_flat_addr else
                (yield from self.eval_lvalue(src, thread, frame)))
        if src.sharc_reg:
            value = self._reg_load(addr)
        else:
            value = yield from self._do_read(src, addr, thread, frame)
        # Null out the source (checked as a write to the source's cell).
        if self.instrument:
            info = e.sharc_src_write
            if info is not None:
                size = self._sizeof_node(src)
                yield from self._apply_check(info, addr, size, thread,
                                             frame, is_write=True)
        old = self.space.write(addr, 0, e.loc)
        self.stats.accesses_total += 1
        self.stats.writes += 1
        if self.bus is not None:
            self.bus.emit(CAT_SCAST, "null-out", thread.tid,
                          addr=f"0x{addr:x}")
        if e.rc_track:
            self._rc_write(thread, addr, old, 0)
        if self.instrument and e.sharc_oneref and value:
            base = self._object_base(value)
            count, cost = self.rc.count(thread.tid, base, self._rc_peek)
            self._charge_rc(cost)
            self.stats.rc_collections += 1
            if self.bus is not None:
                self.bus.emit(CAT_SCAST, "oneref", thread.tid,
                              target=f"0x{base:x}", count=count + 1,
                              ok=count == 0)
            if count > 0:
                self._report(DiagKind.ONEREF_FAILED, base, thread.tid,
                             pretty_expr(src), e.loc,
                             detail=oneref_detail(count + 1))
            block = self.space.block_of(int(value))
            if block is not None:
                # Past accesses no longer constitute unintended sharing.
                self.shadow.reset_granules(block.start, block.size)
        return value

    # -- calls --------------------------------------------------------------------------

    def _eval_call(self, e: A.Call, thread: Thread, frame: Frame):
        callee_name: Optional[str] = None
        if isinstance(e.callee, A.Ident) and e.callee.name not in frame.env:
            callee_name = e.callee.name
        else:
            value = yield from self.eval_expr(e.callee, thread, frame)
            if isinstance(value, tuple) and value and value[0] == "fn":
                callee_name = value[1]
            else:
                raise InterpError("call through non-function value",
                                  e.loc)
        env = frame.env
        args = []
        for arg in e.args:
            args.append(self._eval_flat(arg, thread, env) if arg.sharc_flat
                        else (yield from self.eval_expr(arg, thread, frame)))
        if callee_name in self.functions:
            result = yield from self.call_function(
                thread, self.functions[callee_name], args)
            return result
        if callee_name in IMPLS:
            self._tick(1)
            result = IMPLS[callee_name](self, thread, e, args)
            if hasattr(result, "__next__"):
                result = yield from result
            return result if result is not None else 0
        raise InterpError(f"call of undefined function {callee_name!r}",
                          e.loc)

    def _enter_function(self, thread: Thread, func: A.FuncDef,
                        args: list) -> Frame:
        """A fresh frame for ``func``: slab, locals and parameter
        stores.  Every caller pops it with :meth:`_pop_frame`."""
        if func.body is None:
            raise InterpError(f"call of undefined function {func.name!r}",
                              func.loc)
        if func.body.sharc_flat is None:
            self._mark_body(func.body)
        layout = frame_layout(func, self.structs)
        frame = Frame(func, slab_size=layout.size)
        frame.slab = slab = self.space.alloc(layout.size, "stack")
        for name, off in layout.offsets.items():
            frame.env[name] = slab + off
        frame.rc_slots = [slab + off for off in layout.rc_offsets]
        for (off, tracked), value in zip(layout.param_slots, args):
            addr = slab + off
            old = self.space.write(addr, value, func.loc)
            if tracked:
                self._rc_write(thread, addr, old, value)
        return frame

    def call_function(self, thread: Thread, func: A.FuncDef, args: list):
        """Generator: executes a user function body in a fresh frame."""
        frame = self._enter_function(thread, func, args)
        try:
            yield from self.exec_stmt(func.body, thread, frame)
            result = 0
        except _Return as ret:
            result = ret.value
        finally:
            self._pop_frame(thread, frame)
        return result

    def _mark_body(self, body: A.Stmt) -> None:
        """Decides flatness (:meth:`_is_flat`) for every expression of a
        function body, once, and marks each statement ``sharc_flat``
        when it is an expression statement over a flat expression or a
        block of only such statements: :meth:`_exec_flat` runs it with
        no generator."""
        for s in A.walk_stmts(body):
            for e in A.stmt_exprs(s):
                self._is_flat(e)
            s.sharc_flat = all(
                sub.__class__ is A.ExprStmt and self._is_flat(sub.expr)
                for sub in (s.stmts if s.__class__ is A.Compound else (s,)))

    def _pop_frame(self, thread: Thread, frame: Frame) -> None:
        for slot in frame.rc_slots:
            old = self.space.peek(slot)
            if old:
                self._rc_write(thread, slot, old, 0)
                # The cell must actually be zeroed (threadexit semantics):
                # the LP collector reads current slot values via peek.
                self.space.cells[slot] = 0
        block = self.space.blocks.get(frame.slab)
        if block is not None:
            block.freed = True
            self.shadow.clear_range(block.start, block.size)

    # -- statements -------------------------------------------------------------------------

    def _exec_flat(self, s: A.Stmt, thread: Thread, env: dict) -> None:
        """Runs a flat statement (see :meth:`_mark_body`)."""
        if s.__class__ is A.Compound:
            for sub in s.stmts:
                self._eval_flat(sub.expr, thread, env)
        else:
            self._eval_flat(s.expr, thread, env)

    def exec_stmt(self, s: A.Stmt, thread: Thread, frame: Frame):
        """Generator: executes one statement.  The statements of a block
        run in this same frame, so only a nested block, loop body or
        ``if`` branch that is not flat (:meth:`_mark_body`) gets a
        generator of its own; a flat child expression is evaluated
        with plain calls."""
        env = frame.env
        for s in s.stmts if s.__class__ is A.Compound else (s,):
            k = s.KIND
            if k == S_EXPR:
                e = s.expr
                if e.sharc_flat:
                    self._eval_flat(e, thread, env)
                elif e.__class__ is A.Assign:
                    yield from self._eval_assign(e, thread, frame)
                else:
                    yield from self.eval_expr(e, thread, frame)
            elif k == S_IF:
                cond = s.cond
                cond = (self._eval_flat(cond, thread, env) if cond.sharc_flat
                        else (yield from self.eval_expr(cond, thread, frame)))
                branch = s.then if _truthy(cond) else s.other
                if branch is None:
                    pass
                elif branch.sharc_flat:
                    self._exec_flat(branch, thread, env)
                else:
                    yield from self.exec_stmt(branch, thread, frame)
            elif k == S_COMPOUND:
                if s.sharc_flat:
                    self._exec_flat(s, thread, env)
                else:
                    yield from self.exec_stmt(s, thread, frame)
            elif k == S_WHILE or k == S_FOR:
                # a while loop is a for loop without init and step
                cond, body, step = s.cond, s.body, None
                if k == S_FOR:
                    init, step = s.init, s.step
                    if isinstance(init, A.DeclStmt):
                        yield from self.exec_stmt(init, thread, frame)
                    elif init is None:
                        pass
                    elif init.sharc_flat:
                        self._eval_flat(init, thread, env)
                    else:
                        yield from self.eval_expr(init, thread, frame)
                while True:
                    if cond is not None:
                        value = (self._eval_flat(cond, thread, env)
                                 if cond.sharc_flat else
                                 (yield from self.eval_expr(cond, thread,
                                                            frame)))
                        if not _truthy(value):
                            break
                    try:
                        if body.sharc_flat:
                            self._exec_flat(body, thread, env)
                        else:
                            yield from self.exec_stmt(body, thread, frame)
                    except _Break:
                        break
                    except _Continue:
                        pass
                    if step is None:
                        pass
                    elif step.sharc_flat:
                        self._eval_flat(step, thread, env)
                    else:
                        yield from self.eval_expr(step, thread, frame)
                    yield self._flush()  # preemption point on back-edges
            elif k == S_DECL:
                for d in s.decls:
                    init = d.init
                    if init is None:
                        continue
                    value = (self._eval_flat(init, thread, env)
                             if init.sharc_flat else
                             (yield from self.eval_expr(init, thread, frame)))
                    addr = env[d.name]
                    size = d.qtype.base.size(self.structs)
                    if size == 1 and isinstance(value, int):
                        value &= 0xFF
                    old = self.space.write(addr, value, d.loc)
                    self.stats.accesses_total += 1
                    self.stats.writes += 1
                    if d.rc_track:
                        self._rc_write(thread, addr, old, value)
            elif k == S_RETURN:
                value = s.value
                if value is None:
                    value = 0
                elif value.sharc_flat:
                    value = self._eval_flat(value, thread, env)
                else:
                    value = yield from self.eval_expr(value, thread, frame)
                raise _Return(value)
            elif k == S_DOWHILE:
                cond, body = s.cond, s.body
                while True:
                    try:
                        if body.sharc_flat:
                            self._exec_flat(body, thread, env)
                        else:
                            yield from self.exec_stmt(body, thread, frame)
                    except _Break:
                        break
                    except _Continue:
                        pass
                    value = (self._eval_flat(cond, thread, env)
                             if cond.sharc_flat else
                             (yield from self.eval_expr(cond, thread, frame)))
                    if not _truthy(value):
                        break
                    yield self._flush()
            elif k == S_BREAK:
                raise _Break()
            elif k == S_CONTINUE:
                raise _Continue()

    # -- threads ------------------------------------------------------------------------------

    def spawn_function(self, name: str, args: list) -> Thread:
        func = self.functions.get(name)
        if func is None:
            raise InterpError(f"thread entry {name!r} is not defined")
        thread = self.sched.spawn(None, name)  # type: ignore[arg-type]
        thread.gen = self._thread_body(thread, func, args)
        self.stats.threads_peak = max(self.stats.threads_peak,
                                      self.sched.live_count)
        return thread

    def _thread_body(self, thread: Thread, func: A.FuncDef, args: list):
        """Thread entry: runs the body in this generator, not through
        :meth:`call_function`, since every scheduler item resumes each
        frame of the suspended yield-from chain."""
        frame = self._enter_function(thread, func, args)
        try:
            yield from self.exec_stmt(func.body, thread, frame)
            result = 0
        except _Return as ret:
            result = ret.value
        except ThreadExit as te:
            result = te.value
        finally:
            self._pop_frame(thread, frame)
        return result

    def _thread_exited(self, thread: Thread) -> None:
        self.shadow.clear_thread(thread.tid)
        leaked = self.locks.thread_exit(thread.tid)
        for addr in leaked:
            self._report(DiagKind.RUNTIME, addr, thread.tid,
                         f"mutex(0x{addr:x})", Loc(),
                         detail="thread exited still holding this lock")

    # -- program setup and main loop ----------------------------------------------------------

    def _init_globals(self, thread: Thread) -> None:
        """Allocates globals; initializers run in main's prologue."""
        for g in self.program.globals():
            if g.storage == "extern":
                continue
            size = g.qtype.base.size(self.structs)
            addr = self.space.alloc(size, "global")
            self.globals_env[g.name] = addr

    def _global_init_gen(self, thread: Thread, frame: Frame):
        for g in self.program.globals():
            if g.init is None or g.name not in self.globals_env:
                continue
            value = yield from self.eval_expr(g.init, thread, frame)
            addr = self.globals_env[g.name]
            size = g.qtype.base.size(self.structs)
            if size == 1 and isinstance(value, int):
                value &= 0xFF
            old = self.space.write(addr, value, g.loc)
            if g.rc_track:
                self._rc_write(thread, addr, old, value)

    def _main_body(self, thread: Thread):
        main = self.functions.get("main")
        if main is None:
            raise InterpError("program has no main()")
        yield from self._global_init_gen(thread, Frame(main))
        return (yield from self._thread_body(thread, main, []))

    def run(self, max_steps: int = 2_000_000) -> RunResult:
        result = RunResult()
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 20000))
        started = time.perf_counter()
        try:
            main_thread = self.sched.spawn(None, "main")  # type: ignore
            self._init_globals(main_thread)
            main_thread.gen = self._main_body(main_thread)
            self.stats.threads_peak = 1
            self._run_loop(result, max_steps)
        finally:
            sys.setrecursionlimit(old_limit)
            self.stats.wall_seconds = time.perf_counter() - started
        self._finalize(result)
        return result

    def _run_loop(self, result: RunResult, max_steps: int) -> None:
        """Runs picked bursts until every thread is done, the run halts
        or ``max_steps`` is spent.  Per item it only advances the
        generator and sums the cost; ``thread.steps`` takes the burst's
        sum once, before anything that reads it (``finish`` / ``fail``
        publish it on the bus).

        A run-to-block burst (``RUN_TO_BLOCK`` or ``HELD``) ends at the
        first item that brings the run to ``max_steps``.  A held burst
        stands for one pick per item, so it also ends after an item
        that called ``notify()`` (the next pick polls the wake-ups
        there) and counts one scheduling decision per item."""
        sched = self.sched
        pick = sched.pick
        note_ran = sched.note_ran
        stats = self.stats
        bus = self.bus
        steps = 0
        while steps < max_steps and not self._halted:
            try:
                thread, burst = pick()
            except DeadlockError as dead:
                result.deadlock = str(dead)
                return
            if thread is None:
                return  # all threads done
            held = burst == HELD
            budget = max_steps - steps if burst >= RUN_TO_BLOCK \
                else _NO_BUDGET
            # Generator items consumed this burst — the replayable unit
            # of the context-switch trace (terminal items count: they
            # advance the generator too).
            ran = 0
            used = 0
            stop_run = False
            advance = thread.gen.__next__
            burst_start = stats.steps_total
            for _ in range(burst):
                try:
                    item = advance()
                except _THREAD_STOPS as stop:
                    ran += 1
                    # Ticks charged since the thread's last yield (all
                    # of them when it dies on an error) are its own.
                    used += self._pending
                    stats.steps_total += self._pending
                    self._pending = 0
                    thread.steps += used
                    steps += used
                    used = 0
                    stop_run = self._thread_stopped(thread, stop, result)
                    break
                ran += 1
                if type(item) is int:
                    # _flush() yields the ticks charged since the last
                    # yield — by far the common case, so it is tested
                    # first.
                    cost = item
                    stats.steps_total += cost
                elif isinstance(item, tuple) and item:
                    if item[0] == "block":
                        sched.block(thread, item[1], item[2])
                        steps += 1
                        break
                    if item[0] == "io":
                        # Explicit I/O latency / atomic-op cost from
                        # builtins.
                        cost = int(item[1])
                        stats.steps_total += cost
                        stats.steps_io += cost
                    else:
                        cost = 0
                else:
                    cost = item if isinstance(item, int) else 0
                used += cost if cost > 0 else 1
                if used >= budget or held and sched.notified:
                    break
            # Ticks charged since the last yield of a burst that ended
            # on a block or io item are the thread's own, too.
            used += self._pending
            stats.steps_total += self._pending
            self._pending = 0
            if held:
                sched.context_switches += ran - 1
            if used:
                steps += used
                thread.steps += used
            if bus is not None and ran:
                # One slice per scheduler burst: start = step counter
                # when the burst began, duration = steps it consumed.
                bus.emit(CAT_SCHED, "run", thread.tid, ts=burst_start,
                         dur=stats.steps_total - burst_start,
                         items=ran)
            note_ran(thread, ran)
            if stop_run:
                return

    def _thread_stopped(self, thread: Thread, stop: BaseException,
                        result: RunResult) -> bool:
        """Retires a thread whose generator ended or raised; True when
        the whole run stops with it."""
        if isinstance(stop, StopIteration):
            self.sched.finish(thread, stop.value)
            self._thread_exited(thread)
            return False
        if isinstance(stop, ProgramExit):
            self._exit_code = stop.code
            self._halted = True
            self.sched.finish(thread, stop.code)
            self._thread_exited(thread)
            return True
        result.error = str(stop)
        self.sched.fail(thread, stop)
        if isinstance(stop, TooManyThreads):
            return True
        self._thread_exited(thread)
        return False

    def _finalize(self, result: RunResult) -> None:
        result.reports = list(self.reports)
        result.report_counts = {
            f"{k[0]} {k[1]}@{k[2]}": count
            for k, count in self._report_keys.items()}
        result.output = "".join(self.output)
        result.exit_code = self._exit_code
        result.thread_results = {
            t.tid: t.result for t in self.sched.threads.values()}
        for t in self.sched.threads.values():
            if t.error is not None and result.error is None:
                result.error = str(t.error)
        self.stats.pages_program = len(self.space.pages_touched)
        self.stats.pages_shadow = (self.shadow.shadow_pages()
                                   if self.instrument else 0)
        self.stats.pages_rc = self.rc.metadata_pages()
        self.stats.data_bytes = sum(b.size
                                    for b in self.space.blocks.values())
        self.stats.shadow_bytes = (len(self.shadow.touched)
                                   * self.shadow.nbytes
                                   if self.instrument else 0)
        self.stats.rc_bytes = self.rc.metadata_bytes()
        self.stats.context_switches = self.sched.context_switches
        self.stats.shadow_updates = self.shadow.updates
        self.stats.shadow_fastpath_hits = self.shadow.fastpath_hits
        self.stats.lock_acquisitions = self.locks.acquisitions
        self.stats.rc_collections = self.rc.stats.collections
        result.stats = self.stats
        result.thread_names = {t.tid: t.name
                               for t in self.sched.threads.values()}
        if self.bus is not None:
            result.events = self.bus.snapshot()
        live = [t for t in self.sched.threads.values()
                if t.state in (ThreadState.RUNNABLE, ThreadState.BLOCKED)]
        if live and result.deadlock is None and result.error is None \
                and not self._halted:
            result.timeout = True


def _truthy(value) -> bool:
    if isinstance(value, tuple):
        return True
    return bool(value)


BACKENDS = ("interp", "compiled")


def resolve_backend(backend: Optional[str]) -> str:
    """Resolves a ``backend`` argument: an explicit value wins, ``None``
    falls back to the ``SHARC_BACKEND`` environment variable (which is
    how CI runs the whole suite once more under the tree-walker), and
    the default is the compiled backend.  The tree-walker stays the
    reference that identity checks pin explicitly."""
    if backend is None:
        backend = os.environ.get("SHARC_BACKEND") or "compiled"
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; "
                         f"expected one of {', '.join(BACKENDS)}")
    return backend


def make_interp(checked: CheckedProgram, *,
                backend: Optional[str] = None, **kwargs) -> Interp:
    """Instantiates the right executor for ``backend`` — the tree-walker
    (:class:`Interp`) or the compiled backend
    (:class:`repro.compile.CompiledInterp`).  Both run the same checked
    program bit-identically by seed; only steps/sec differs."""
    if resolve_backend(backend) == "compiled":
        from repro.compile import CompiledInterp
        return CompiledInterp(checked, **kwargs)
    return Interp(checked, **kwargs)


def run_checked(checked: CheckedProgram, *, seed: int = 0,
                world: Optional[World] = None, policy: str = "random",
                rc_scheme: str = "lp", instrument: bool = True,
                shadow_bytes: int = 1, max_burst: int = 8,
                max_steps: int = 2_000_000,
                checker: str = "sharc",
                static: bool = True,
                record_trace: bool = False,
                trace: Optional[TraceConfig] = None,
                backend: Optional[str] = None) -> RunResult:
    """Executes a statically checked program once.  ``policy`` may be a
    spec string (``"random"``, ``"pct:4"``, ...) or a
    :class:`~repro.runtime.scheduler.SchedulingPolicy` instance.
    ``trace`` enables structured event tracing (:mod:`repro.obs`);
    ``static=False`` ablates both static discharge tiers (check
    elimination and the locked(l) lockset refinement).  ``backend``
    selects the executor: ``"interp"`` (the tree-walker) or
    ``"compiled"`` (:mod:`repro.compile`), which runs
    the same program bit-identically — same steps, reports, and
    scheduler RNG — at a multiple of the throughput; ``None`` defers
    to ``SHARC_BACKEND``, then to ``"compiled"``."""
    interp = make_interp(checked, backend=backend, seed=seed, world=world,
                         policy=policy, rc_scheme=rc_scheme,
                         instrument=instrument, shadow_bytes=shadow_bytes,
                         max_burst=max_burst, checker=checker,
                         static=static,
                         record_trace=record_trace, trace=trace)
    result = interp.run(max_steps=max_steps)
    if record_trace:
        result.trace = list(interp.sched.trace or [])
    return result


def run_source(source: str, filename: str = "<input>", **kwargs
               ) -> RunResult:
    """Checks and runs a source program, raising on static errors."""
    from repro.errors import SharcError
    from repro.sharc.checker import check_source

    checked = check_source(source, filename)
    if not checked.ok:
        raise SharcError("static checking failed:\n"
                         + checked.render_diagnostics())
    return run_checked(checked, **kwargs)
