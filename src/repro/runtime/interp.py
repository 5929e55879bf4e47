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

Threads are Python generators yielding accumulated step costs (or
``("block", predicate, note)``); the scheduler interleaves them
deterministically per seed, so every reported race is replayable.

Expressions take one of two paths.  A *flat* subtree — literals,
``NULL``, register-like scalar locals, and ``- ! ~``, binary operators
and casts over flat operands — can never yield or touch a checked
access, so ``eval_expr`` evaluates it with plain recursive calls;
everything else runs as nested generators.  Both paths charge the same
ticks in the same order (one per node entry plus one per l-value, all
before any ``InterpError`` is raised) and read register slots through
``space.read``, so steps, the page census and an aborted run's clock do
not depend on the path.  Each operator's arithmetic is written once and
shared by both paths and by compound assignment.
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
from repro.sharc.reports import (
    Access, Report, lock_not_held, oneref_failed, read_conflict,
    write_conflict,
)
from repro.sharc.typecheck import AccessInfo
from repro.runtime.addrspace import AddressSpace
from repro.runtime.builtins import IMPLS
from repro.runtime.dyncheck import dynamic_check
from repro.runtime.eraser import ACCESS_COST, EraserChecker
from repro.runtime.locks import LockTable
from repro.runtime.refcount import make_scheme
from repro.runtime.scheduler import (
    HELD, RUN_TO_BLOCK, DeadlockError, Scheduler, Thread, ThreadState,
)
from repro.runtime.shadow import ShadowMemory, TooManyThreads
from repro.runtime.stats import RunStats
from repro.runtime.world import World


# -- expression/statement dispatch tags -----------------------------------
#
# ``eval_expr``/``exec_stmt``/``eval_lvalue`` are the interpreter's hottest
# functions; a per-class isinstance chain costs several failed checks per
# node.  One dict lookup mapping the node's class to a small int, then
# integer comparisons ordered by measured frequency, does the same dispatch
# at a fraction of the cost.

(_E_LIT, _E_NULL, _E_STR, _E_SIZEOF, _E_IDENT, _E_MEMBER, _E_INDEX,
 _E_UNOP, _E_BINOP, _E_ASSIGN, _E_CALL, _E_CAST, _E_SCAST, _E_COND,
 _E_COMMA) = range(15)

_EXPR_KIND = {
    A.IntLit: _E_LIT, A.CharLit: _E_LIT, A.FloatLit: _E_LIT,
    A.NullLit: _E_NULL, A.StrLit: _E_STR, A.SizeofExpr: _E_SIZEOF,
    A.Ident: _E_IDENT, A.Member: _E_MEMBER, A.Index: _E_INDEX,
    A.Unop: _E_UNOP, A.Binop: _E_BINOP, A.Assign: _E_ASSIGN,
    A.Call: _E_CALL, A.CastExpr: _E_CAST, A.SCastExpr: _E_SCAST,
    A.CondExpr: _E_COND, A.CommaExpr: _E_COMMA,
}

(_S_COMPOUND, _S_DECL, _S_EXPR, _S_IF, _S_WHILE, _S_DOWHILE, _S_FOR,
 _S_RETURN, _S_BREAK, _S_CONTINUE) = range(10)

(_B_ANDAND, _B_OROR, _B_ADD, _B_SUB, _B_MUL, _B_DIV, _B_MOD, _B_EQ,
 _B_NE, _B_LT, _B_GT, _B_LE, _B_GE, _B_BAND, _B_BOR, _B_XOR, _B_SHL,
 _B_SHR) = range(18)

_BINOP_K = {
    "&&": _B_ANDAND, "||": _B_OROR, "+": _B_ADD, "-": _B_SUB,
    "*": _B_MUL, "/": _B_DIV, "%": _B_MOD, "==": _B_EQ, "!=": _B_NE,
    "<": _B_LT, ">": _B_GT, "<=": _B_LE, ">=": _B_GE, "&": _B_BAND,
    "|": _B_BOR, "^": _B_XOR, "<<": _B_SHL, ">>": _B_SHR,
}

_STMT_KIND = {
    A.Compound: _S_COMPOUND, A.DeclStmt: _S_DECL, A.ExprStmt: _S_EXPR,
    A.If: _S_IF, A.While: _S_WHILE, A.DoWhile: _S_DOWHILE,
    A.For: _S_FOR, A.Return: _S_RETURN, A.Break: _S_BREAK,
    A.Continue: _S_CONTINUE,
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
    layout = getattr(func, "sharc_layout", None)
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
    tracked = dict.fromkeys(getattr(func, "rc_locals", ()))
    layout = FrameLayout(
        offsets, max(offset, 1),
        tuple((offsets[n], n in tracked) for n in func.param_names),
        tuple(offsets[n] for n in tracked if n in offsets))
    func.sharc_layout = layout  # type: ignore[attr-defined]
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
                 checkelim: bool = True,
                 lockset: bool = True,
                 record_trace: bool = False,
                 trace: Optional[TraceConfig] = None) -> None:
        self.checked = checked
        self.program = checked.program
        self.structs = self.program.structs
        self.instrument = instrument
        #: consume the static check-elimination marks
        #: (repro.sharc.checkelim)?  Off = the ablation baseline; the
        #: soundness gate guarantees both settings are bit-identical in
        #: reports, steps, and scheduler RNG.
        self.checkelim = checkelim
        #: consume the static lockset refinement marks
        #: (repro.sharc.lockset)?  Same ablation contract as checkelim:
        #: ``--no-lockset`` is bit-identical in reports, steps, and
        #: scheduler RNG.
        self.lockset = lockset
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
                                clock=lambda: self.stats.steps_total)
            self.history = AccessHistory(trace.history_depth)
            self.shadow.history = self.history
            self.locks.bus = self.bus
            self.rc.bus = self.bus
            self.sched.bus = self.bus

    # -- cost accounting ------------------------------------------------------

    def _tick(self, n: int = 1) -> None:
        self._pending += n
        self.stats.steps_total += n

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

    def _report(self, report: Report) -> None:
        key = (report.kind.value, report.who.lvalue, report.who.loc.line,
               report.last.loc.line if report.last else -1)
        if key in self._report_keys:
            self._report_keys[key] += 1
            return
        self._report_keys[key] = 1
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
        lvalue = getattr(node, "sharc_lvalue", None)
        if lvalue is None:
            try:
                lvalue = pretty_expr(node)
            except TypeError:
                lvalue = "<expr>"
            node.sharc_lvalue = lvalue  # type: ignore[attr-defined]
        for report in self.eraser.on_access(addr, size, thread.tid,
                                            is_write,
                                            self.locks.held_by(thread.tid),
                                            lvalue, node.loc):
            self._report(report)
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
        held = self.locks.holds_for_access(thread.tid,
                                           int(lock_addr), is_write)
        if not held:
            hist = (self.history.provenance(addr, size)
                    if self.history is not None else ())
            self._report(lock_not_held(
                addr, Access(thread.tid, info.lvalue_text, info.loc),
                str(info.mode), hist))
        if self.history is not None:
            self.history.record(addr, size, thread.tid,
                                info.lvalue_text, info.loc, is_write,
                                self.stats.steps_total)
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
        access = getattr(node, "arg_access", None)
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
                                    self.stats.steps_total)
            return
        slow = 0
        conflict = None
        counted = False
        if is_write:
            # A library summary covers the whole touched byte range in
            # one go — the natural consumer of the range-batched walk.
            conflict, slow = self.shadow.chkwrite_range(
                addr, length, thread.tid, info.lvalue_text, info.loc)
            counted = True
            if conflict is not None:
                who = Access(thread.tid, info.lvalue_text, info.loc)
                hist = (self.history.provenance(addr, length)
                        if self.history is not None else ())
                self._report(write_conflict(addr, who,
                                            conflict.as_access(), hist))
        elif "r" in rw:
            conflict, slow = self.shadow.chkread_range(
                addr, length, thread.tid, info.lvalue_text, info.loc)
            counted = True
            if conflict is not None:
                who = Access(thread.tid, info.lvalue_text, info.loc)
                hist = (self.history.provenance(addr, length)
                        if self.history is not None else ())
                self._report(read_conflict(addr, who,
                                           conflict.as_access(), hist))
        if counted:
            self.stats.checks_range += 1
            site[I_RANGE] += 1
            if slow:
                site[I_MISS] += 1
            if conflict is not None:
                site[I_CONFLICTS] += 1
        if self.history is not None and rw:
            self.history.record(addr, length, thread.tid,
                                info.lvalue_text, info.loc, is_write,
                                self.stats.steps_total)
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
        size = getattr(node, "sharc_size", None)
        if size is None:
            qt = node.ctype
            if qt is None:
                size = 8
            else:
                try:
                    size = qt.base.size(self.structs)
                except KeyError:
                    size = 8
            node.sharc_size = size  # type: ignore[attr-defined]
        return size

    def _do_read(self, node: A.Expr, addr: int, thread: Thread,
                 frame: Frame):
        if getattr(node, "sharc_reg", False):
            # Register-allocatable local: not a memory access in compiled
            # C, never racy — no census, no scheduling point.
            return self.space.read(addr, node.loc)
        size = self._sizeof_node(node)
        stats = self.stats
        stats.accesses_total += 1
        stats.reads += 1
        if self.eraser is not None:
            self._eraser_access(node, addr, size, thread, False)
        if self.instrument:
            info = getattr(node, "sharc_read", None)
            if info is not None:
                if info.is_lock:
                    yield from self._lock_check(info, addr, size, thread,
                                                frame, False)
                else:
                    dynamic_check(info, size, False)(self, thread, addr)
        yield self._flush()
        return self.space.read(addr, node.loc)

    def _do_write(self, node: A.Expr, addr: int, value: object,
                  thread: Thread, frame: Frame,
                  rc_track: bool = False):
        size = self._sizeof_node(node)
        if size == 1 and isinstance(value, int):
            value &= 0xFF
        if getattr(node, "sharc_reg", False):
            old = self.space.write(addr, value, node.loc)
            if rc_track:
                self._rc_write(thread, addr, old, value)
            return old
        self.stats.accesses_total += 1
        self.stats.writes += 1
        if self.eraser is not None:
            self._eraser_access(node, addr, size, thread, True)
        if self.instrument:
            info = getattr(node, "sharc_write", None)
            if info is not None:
                if info.is_lock:
                    yield from self._lock_check(info, addr, size, thread,
                                                frame, True)
                else:
                    dynamic_check(info, size, True)(self, thread, addr)
        yield self._flush()
        old = self.space.write(addr, value, node.loc)
        if rc_track:
            self._rc_write(thread, addr, old, value)
        return old

    # -- l-values ------------------------------------------------------------------

    def eval_lvalue(self, e: A.Expr, thread: Thread, frame: Frame):
        """Generator: resolves an l-value expression to an address."""
        self._pending += 1
        self.stats.steps_total += 1
        k = _EXPR_KIND.get(e.__class__, -1)
        if k == _E_IDENT:
            env = frame.env
            if e.name in env:
                return env[e.name]
            if e.name in self.globals_env:
                return self.globals_env[e.name]
            raise InterpError(f"no storage for {e.name!r}", e.loc)
        if k == _E_UNOP and e.op == "*":
            addr = yield from self.eval_expr(e.operand, thread, frame)
            if not addr:
                raise InterpError("null pointer dereference", e.loc)
            return int(addr)
        if k == _E_MEMBER:
            offset = getattr(e, "sharc_offset", None)
            if offset is None:
                raise InterpError(
                    f"member {e.name!r} was not resolved statically",
                    e.loc)
            if e.arrow:
                base = yield from self.eval_expr(e.obj, thread, frame)
            else:
                base = yield from self.eval_lvalue(e.obj, thread, frame)
            if not base:
                raise InterpError("null pointer dereference", e.loc)
            return int(base) + offset
        if k == _E_INDEX:
            elem_size = getattr(e, "sharc_elem_size", None)
            if elem_size is None:
                raise InterpError("index was not resolved statically",
                                  e.loc)
            if getattr(e, "sharc_on_array", False):
                base = yield from self.eval_lvalue(e.arr, thread, frame)
            else:
                base = yield from self.eval_expr(e.arr, thread, frame)
            idx = yield from self.eval_expr(e.idx, thread, frame)
            if not base:
                raise InterpError("null pointer indexing", e.loc)
            return int(base) + int(idx) * elem_size
        raise InterpError(f"not an l-value: {type(e).__name__}", e.loc)

    # -- expressions ---------------------------------------------------------------------

    def eval_expr(self, e: A.Expr, thread: Thread, frame: Frame):
        """Generator: evaluates an expression to a runtime value.  A flat
        subtree (:meth:`_is_flat`) goes to the plain :meth:`_eval_flat`,
        which charges the same ticks in the same order — one per node
        entry plus one per l-value, all before any ``InterpError`` — and
        reads register slots through ``space.read``.  Other branches are
        ordered by measured node frequency."""
        flat = getattr(e, "sharc_flat", None)
        if flat or flat is None and self._is_flat(e):
            return self._eval_flat(e, frame.env)
        self._pending += 1
        self.stats.steps_total += 1
        k = _EXPR_KIND.get(e.__class__, -1)
        if k == _E_IDENT or k == _E_MEMBER or k == _E_INDEX or (
                k == _E_UNOP and e.op == "*"):
            if k == _E_IDENT:
                # eval_lvalue's Ident case, inline (a register-like
                # scalar is flat and never gets here)
                name = e.name
                addr = frame.env.get(name)
                if addr is None:
                    if name in self.functions:
                        return ("fn", name)
                    addr = self.globals_env.get(name)
                    if addr is None and name in IMPLS:
                        return ("fn", name)
                self._pending += 1  # the eval_lvalue entry
                self.stats.steps_total += 1
                if addr is None:
                    raise InterpError(f"no storage for {name!r}", e.loc)
            else:
                addr = yield from self.eval_lvalue(e, thread, frame)
            is_arr = getattr(e, "sharc_is_arr", None)
            if is_arr is None:
                qt = e.ctype
                is_arr = qt is not None and qt.is_array
                e.sharc_is_arr = is_arr  # type: ignore[attr-defined]
            if is_arr:
                return addr
            value = yield from self._do_read(e, addr, thread, frame)
            return value
        if k == _E_BINOP:
            value = yield from self._eval_binop(e, thread, frame)
            return value
        if k == _E_UNOP:
            value = yield from self._eval_unop(e, thread, frame)
            return value
        if k == _E_ASSIGN:
            value = yield from self._eval_assign(e, thread, frame)
            return value
        if k == _E_CALL:
            value = yield from self._eval_call(e, thread, frame)
            return value
        if k == _E_STR:
            if e.value not in self._strings:
                self._strings[e.value] = self.space.alloc_c_string(e.value)
            return self._strings[e.value]
        if k == _E_SIZEOF:
            if e.of_type is not None:
                return e.of_type.base.size(self.structs)
            return self._sizeof_node(e.of_expr)
        if k == _E_CAST:
            value = yield from self.eval_expr(e.expr, thread, frame)
            return self._cast_value(e, value)
        if k == _E_SCAST:
            value = yield from self._eval_scast(e, thread, frame)
            return value
        if k == _E_COND:
            cond = yield from self.eval_expr(e.cond, thread, frame)
            if _truthy(cond):
                value = yield from self.eval_expr(e.then, thread, frame)
            else:
                value = yield from self.eval_expr(e.other, thread, frame)
            return value
        if k == _E_COMMA:
            value = 0
            for part in e.parts:
                value = yield from self.eval_expr(part, thread, frame)
            return value
        raise InterpError(f"cannot evaluate {type(e).__name__}", e.loc)

    def _is_flat(self, e: A.Expr) -> bool:
        """Is ``e`` flat (see the module docstring)?  Memoized on the
        node as ``sharc_flat``, with a flat binop's ``sharc_binop``."""
        flat = getattr(e, "sharc_flat", None)
        if flat is not None:
            return flat
        k = _EXPR_KIND.get(e.__class__, -1)
        if k == _E_LIT or k == _E_NULL:
            flat = True
        elif k == _E_IDENT:  # register-like locals are never arrays
            flat = getattr(e, "sharc_reg", False)
        elif k == _E_UNOP:
            flat = e.op in ("-", "!", "~") and self._is_flat(e.operand)
        elif k == _E_BINOP:
            flat = self._is_flat(e.lhs) and self._is_flat(e.rhs)
            if flat and getattr(e, "sharc_binop", None) is None:
                e.sharc_binop = self._binop_meta(  # type: ignore
                    e.op, e.lhs.ctype, e.rhs.ctype)
        elif k == _E_CAST:
            flat = self._is_flat(e.expr)
        else:
            flat = False
        e.sharc_flat = flat  # type: ignore[attr-defined]
        return flat

    def _eval_flat(self, e: A.Expr, env: dict):
        """Evaluates a flat subtree with plain calls: ``eval_expr``'s
        values and ticks without its generator frames."""
        k = _EXPR_KIND[e.__class__]
        if k == _E_IDENT:
            # the eval_expr and eval_lvalue entries; a register local's
            # read is not a memory access (see _do_read)
            self._pending += 2
            self.stats.steps_total += 2
            return self.space.read(env[e.name], e.loc)
        self._pending += 1
        self.stats.steps_total += 1
        if k == _E_LIT:
            return e.value
        if k == _E_BINOP:
            meta = e.sharc_binop
            opk = meta[0]
            lhs = self._eval_flat(e.lhs, env)
            if (opk == _B_ANDAND or opk == _B_OROR) and \
                    _truthy(lhs) == (opk == _B_OROR):  # short circuit
                return int(opk == _B_OROR)
            return self._binop_value(e, meta, lhs,
                                     self._eval_flat(e.rhs, env))
        if k == _E_UNOP:
            return self._unop_value(e, self._eval_flat(e.operand, env))
        if k == _E_CAST:
            return self._cast_value(e, self._eval_flat(e.expr, env))
        return 0  # NULL

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

    def _eval_unop(self, e: A.Unop, thread: Thread, frame: Frame):
        if e.op == "&":
            addr = yield from self.eval_lvalue(e.operand, thread, frame)
            return addr
        if e.op in ("++", "--"):
            addr = yield from self.eval_lvalue(e.operand, thread, frame)
            old = yield from self._do_read(e.operand, addr, thread, frame)
            scale = 1
            qt = e.operand.ctype
            if qt is not None and qt.is_pointer:
                scale = qt.pointee().base.size(self.structs)
            delta = scale if e.op == "++" else -scale
            new = (old or 0) + delta
            yield from self._do_write(
                e.operand, addr, new, thread, frame,
                rc_track=getattr(e, "rc_track", False))
            return old if e.postfix else new
        value = yield from self.eval_expr(e.operand, thread, frame)
        return self._unop_value(e, value)

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

    def _eval_binop(self, e: A.Binop, thread: Thread, frame: Frame):
        meta = getattr(e, "sharc_binop", None)
        if meta is None:
            meta = self._binop_meta(e.op, e.lhs.ctype, e.rhs.ctype)
            e.sharc_binop = meta  # type: ignore[attr-defined]
        opk = meta[0]
        lhs = yield from self.eval_expr(e.lhs, thread, frame)
        if (opk == _B_ANDAND or opk == _B_OROR) and \
                _truthy(lhs) == (opk == _B_OROR):  # short circuit
            return int(opk == _B_OROR)
        rhs = yield from self.eval_expr(e.rhs, thread, frame)
        return self._binop_value(e, meta, lhs, rhs)

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
        lhs_qt = e.lhs.ctype
        if e.op == "=" and lhs_qt is not None and lhs_qt.is_struct:
            # Struct assignment: block copy.
            src = yield from self.eval_lvalue(e.rhs, thread, frame)
            dst = yield from self.eval_lvalue(e.lhs, thread, frame)
            size = lhs_qt.base.size(self.structs)
            if self.instrument:
                info = getattr(e.lhs, "sharc_write", None)
                if info is not None:
                    yield from self._apply_check(info, dst, size, thread,
                                                 frame, is_write=True)
                rinfo = getattr(e.rhs, "sharc_read", None)
                if rinfo is not None:
                    yield from self._apply_check(rinfo, src, size, thread,
                                                 frame, is_write=False)
            self.space.copy_range(dst, src, size, e.loc)
            self.stats.accesses_total += 2
            self.stats.writes += 1
            self.stats.reads += 1
            return 0
        value = yield from self.eval_expr(e.rhs, thread, frame)
        addr = yield from self.eval_lvalue(e.lhs, thread, frame)
        if e.op != "=":
            old = yield from self._do_read(e.lhs, addr, thread, frame)
            meta = getattr(e, "sharc_binop", None)
            if meta is None:
                meta = self._binop_meta(self._COMPOUND[e.op], lhs_qt,
                                        e.rhs.ctype)
                e.sharc_binop = meta  # type: ignore[attr-defined]
            value = self._binop_value(e, meta, old, value)
        yield from self._do_write(e.lhs, addr, value, thread, frame,
                                  rc_track=getattr(e, "rc_track", False))
        return value

    def _eval_scast(self, e: A.SCastExpr, thread: Thread, frame: Frame):
        """Figure 7: null out the source slot, then check the reference
        count; also clears the object's reader/writer sets (the operational
        scast rule)."""
        addr = yield from self.eval_lvalue(e.expr, thread, frame)
        value = yield from self._do_read(e.expr, addr, thread, frame)
        # Null out the source (checked as a write to the source's cell).
        if self.instrument:
            info = getattr(e, "sharc_src_write", None)
            if info is not None:
                size = self._sizeof_node(e.expr)
                yield from self._apply_check(info, addr, size, thread,
                                             frame, is_write=True)
        old = self.space.write(addr, 0, e.loc)
        self.stats.accesses_total += 1
        self.stats.writes += 1
        if self.bus is not None:
            self.bus.emit(CAT_SCAST, "null-out", thread.tid,
                          addr=f"0x{addr:x}")
        if getattr(e, "rc_track", False):
            self._rc_write(thread, addr, old, 0)
        if self.instrument and getattr(e, "sharc_oneref", False) and value:
            base = self._object_base(value)
            count, cost = self.rc.count(thread.tid, base, self._rc_peek)
            self._charge_rc(cost)
            self.stats.rc_collections += 1
            if self.bus is not None:
                self.bus.emit(CAT_SCAST, "oneref", thread.tid,
                              target=f"0x{base:x}", count=count + 1,
                              ok=count == 0)
            if count > 0:
                self._report(oneref_failed(
                    base, Access(thread.tid, pretty_expr(e.expr), e.loc),
                    count + 1))
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
        args = []
        for arg in e.args:
            value = yield from self.eval_expr(arg, thread, frame)
            args.append(value)
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

    def call_function(self, thread: Thread, func: A.FuncDef, args: list):
        """Generator: executes a user function body in a fresh frame."""
        if func.body is None:
            raise InterpError(f"call of undefined function {func.name!r}",
                              func.loc)
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
        try:
            yield from self.exec_stmt(func.body, thread, frame)
            result = 0
        except _Return as ret:
            result = ret.value
        finally:
            self._pop_frame(thread, frame)
        return result

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

    def exec_stmt(self, s: A.Stmt, thread: Thread, frame: Frame):
        """Generator: executes one statement."""
        if self._halted:
            raise ProgramExit(self._exit_code)
        k = _STMT_KIND.get(s.__class__, -1)
        if k == _S_EXPR:
            yield from self.eval_expr(s.expr, thread, frame)
            return
        if k == _S_COMPOUND:
            for sub in s.stmts:
                yield from self.exec_stmt(sub, thread, frame)
            return
        if k == _S_DECL:
            for d in s.decls:
                if d.init is not None:
                    value = yield from self.eval_expr(d.init, thread,
                                                      frame)
                    addr = frame.env[d.name]
                    size = d.qtype.base.size(self.structs)
                    if size == 1 and isinstance(value, int):
                        value &= 0xFF
                    old = self.space.write(addr, value, d.loc)
                    self.stats.accesses_total += 1
                    self.stats.writes += 1
                    if getattr(d, "rc_track", False):
                        self._rc_write(thread, addr, old, value)
            return
        if k == _S_IF:
            cond = yield from self.eval_expr(s.cond, thread, frame)
            if _truthy(cond):
                yield from self.exec_stmt(s.then, thread, frame)
            elif s.other is not None:
                yield from self.exec_stmt(s.other, thread, frame)
            return
        if k == _S_WHILE:
            while True:
                cond = yield from self.eval_expr(s.cond, thread, frame)
                if not _truthy(cond):
                    return
                try:
                    yield from self.exec_stmt(s.body, thread, frame)
                except _Break:
                    return
                except _Continue:
                    pass
                yield self._flush()  # preemption point on back-edges
        if k == _S_DOWHILE:
            while True:
                try:
                    yield from self.exec_stmt(s.body, thread, frame)
                except _Break:
                    return
                except _Continue:
                    pass
                cond = yield from self.eval_expr(s.cond, thread, frame)
                if not _truthy(cond):
                    return
                yield self._flush()
        if k == _S_FOR:
            if isinstance(s.init, A.DeclStmt):
                yield from self.exec_stmt(s.init, thread, frame)
            elif s.init is not None:
                yield from self.eval_expr(s.init, thread, frame)
            while True:
                if s.cond is not None:
                    cond = yield from self.eval_expr(s.cond, thread, frame)
                    if not _truthy(cond):
                        return
                try:
                    yield from self.exec_stmt(s.body, thread, frame)
                except _Break:
                    return
                except _Continue:
                    pass
                if s.step is not None:
                    yield from self.eval_expr(s.step, thread, frame)
                yield self._flush()
        if k == _S_RETURN:
            value = 0
            if s.value is not None:
                value = yield from self.eval_expr(s.value, thread, frame)
            raise _Return(value)
        if k == _S_BREAK:
            raise _Break()
        if k == _S_CONTINUE:
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
        try:
            result = yield from self.call_function(thread, func, args)
        except ThreadExit as te:
            result = te.value
        return result

    def _thread_exited(self, thread: Thread) -> None:
        self.shadow.clear_thread(thread.tid)
        leaked = self.locks.thread_exit(thread.tid)
        for addr in leaked:
            self._report(Report(
                DiagKind.RUNTIME, addr,
                Access(thread.tid, f"mutex(0x{addr:x})", Loc()),
                detail="thread exited still holding this lock"))

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
            if getattr(g, "rc_track", False):
                self._rc_write(thread, addr, old, value)

    def _main_body(self, thread: Thread):
        main = self.functions.get("main")
        if main is None:
            raise InterpError("program has no main()")
        boot = Frame(main)
        yield from self._global_init_gen(thread, boot)
        try:
            result = yield from self.call_function(thread, main, [])
        except ThreadExit as te:
            result = te.value
        return result

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
                    self._pending = 0
                    thread.steps += used
                    steps += used
                    used = 0
                    stop_run = self._thread_stopped(thread, stop, result)
                    break
                ran += 1
                if type(item) is int:
                    # _flush() yields already-charged evaluation cost —
                    # by far the common case, so it is tested first.
                    cost = item
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
                checkelim: bool = True,
                lockset: bool = True,
                record_trace: bool = False,
                trace: Optional[TraceConfig] = None,
                backend: Optional[str] = None) -> RunResult:
    """Executes a statically checked program once.  ``policy`` may be a
    spec string (``"random"``, ``"pct:4"``, ...) or a
    :class:`~repro.runtime.scheduler.SchedulingPolicy` instance.
    ``trace`` enables structured event tracing (:mod:`repro.obs`);
    ``checkelim=False`` ablates the static check eliminator and
    ``lockset=False`` the locked(l) qualifier refinement.  ``backend``
    selects the executor: ``"interp"`` (the tree-walker) or
    ``"compiled"`` (:mod:`repro.compile`), which runs
    the same program bit-identically — same steps, reports, and
    scheduler RNG — at a multiple of the throughput; ``None`` defers
    to ``SHARC_BACKEND``, then to ``"compiled"``."""
    interp = make_interp(checked, backend=backend, seed=seed, world=world,
                         policy=policy, rc_scheme=rc_scheme,
                         instrument=instrument, shadow_bytes=shadow_bytes,
                         max_burst=max_burst, checker=checker,
                         checkelim=checkelim, lockset=lockset,
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
