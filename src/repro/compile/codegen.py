"""Flattened-body code generation: one Python generator per function.

The tree-walking interpreter (:mod:`repro.runtime.interp`) re-dispatches
on every node visit and keeps one generator frame per compound
statement and per expression that can yield, so every scheduler item
resumes a chain of frames.  This module instead emits Python *source*
for the whole function body — statements inlined, expression
temporaries in evaluation order, variable slots resolved to frame-slab
offsets, access sizes and pointer scales precomputed from the static
types, check sites bound to their :mod:`repro.runtime.dyncheck`
closures — compiles it with ``exec``, and runs each activation as a
single generator frame.
A scheduler item then resumes thread-body -> body (callees inlined the
same way) and nothing else.

Bit-identity contract (checked by the identity oracle): an identical
step clock (``Interp.clock()``) at every observable point (yield,
``history.record``, bus emission, raise), identical yield count per
access and per loop back-edge, identical report text, identical
scheduler RNG consumption.  The generated code follows the
interpreter's cost model mechanically:

- constant entry ticks accumulate in a compile-time counter and are
  flushed as one ``I._pending += k`` (plus ``steps_checks`` for a check
  tick) before anything observable — a yield, a check, a possible
  ``InterpError``, a call, a bus emission; the run loop moves them
  into ``steps_total`` when the body yields them;
- raising operations (division, null-pointer guards, unknown callees)
  flush first, so an aborted run's clock matches the tree-walker's;
- each non-register memory access compiles to the inlined
  ``_do_read``/``_do_write`` sequence with exactly one ``yield``;
- loop back-edges compile to the same single flush-yield, with
  ``continue`` routed through it (the loop head carries the back-edge
  so native ``continue`` still pays the preemption point).

The contract covers the page census and the cells too.  In a function
no pointer into whose frame slab can exist (no ``&local``, no array or
struct local) every slab slot except the rc-tracked ones — which
``_rc_write`` and the LP collector ``peek`` — lives in a generator
local ``_rK`` instead of a cell: no other code can
name its address, so only the census can observe it.  A parameter
loads once from the cell the prologue wrote; every other register slot
starts as the ``_U`` sentinel, and its first touch in the activation
pays the exact ``pages_touched.add`` the cell access would have (a
first read also loads the cell).  The census only grows, so a touch
that an earlier touch of the same slot dominates adds nothing: a
compile-time "touched" set skips the census there, for cell slots as
well.  The set is intersected at ``if`` / ``?:`` joins and reset after
``&&`` / ``||`` right-hand sides, loop bodies and loop steps.

Register slots rest on one assumption the paper makes through Deputy:
the program has no out-of-bounds accesses.  The address space only
traps addresses outside every live block, so an overrun from a heap or
global buffer into a neighbouring frame slab reads or writes that
slab's cell under the tree-walker, while the compiled body holds the
value in a local; for such a program the two backends may diverge.
The fuzz generator indexes in bounds by construction.

Codegen is total: lock checks and struct block copies included, every
node is emitted directly, and a body it cannot express raises
``CompileError`` out of the whole compile.  Nothing runs on the
tree-walker mid-run; that backend is only the reference.
"""

from __future__ import annotations

import re

from repro.errors import DiagKind, InterpError
from repro.cfront import cast as A
from repro.runtime.addrspace import PAGE_SIZE
from repro.runtime.builtins import IMPLS
from repro.runtime.dyncheck import dynamic_check
from repro.cfront.cast import (
    E_ASSIGN, E_BINOP, E_CALL, E_CAST, E_COMMA, E_COND, E_IDENT, E_INDEX,
    E_LIT, E_MEMBER, E_NULL, E_SCAST, E_SIZEOF, E_STR, E_UNOP, S_BREAK,
    S_COMPOUND, S_CONTINUE, S_DECL, S_DOWHILE, S_EXPR, S_FOR, S_IF,
    S_RETURN, S_WHILE,
)
from repro.runtime.interp import (
    Frame, Interp, _Break, _Continue, _truthy, frame_layout, _BINOP_K,
    _B_ANDAND, _B_OROR, _B_ADD, _B_SUB, _B_MUL, _B_DIV, _B_MOD, _B_EQ,
    _B_NE, _B_LT, _B_GT, _B_LE, _B_GE, _B_BAND, _B_BOR, _B_XOR, _B_SHL,
    _B_SHR,
)
from repro.cfront.pretty import pretty_expr
from repro.obs.events import CAT_SCAST
from repro.sharc.defaults import collect_local_decls, function_exprs
from repro.sharc.reports import oneref_detail
from repro.compile.closures import CompileError, CompiledFunction

#: the value of a register slot the activation has not touched yet
_UNSET = object()


class FunctionCodegen:
    """Emits one flat Python generator for one mini-C function body."""

    _COMPOUND = Interp._COMPOUND

    def __init__(self, pc, func: A.FuncDef) -> None:
        self.pc = pc
        self.structs = pc.structs
        self.functions = pc.functions
        self.global_names = pc.global_names
        self.func = func
        self.layout = frame_layout(func, pc.structs)
        self.offsets = self.layout.offsets
        self.lines: list[str] = []
        self.indent = 1
        self.pend = 0          # entry ticks not yet emitted
        self.pend_check = False  # is one of them a check tick?
        self.ntmp = 0
        self.consts: list[object] = []
        self.cmap: dict[int, str] = {}
        # emission mode for break/continue: "native" loops place the
        # back-edge at the loop head; do-while needs exception routing
        self.loop_modes: list[str] = []
        self.uses_fast = False  # emitted a slab-slot fast-path access?
        #: slab offsets held in generator locals ``_rK`` (see the module
        #: docstring); decided before any code is emitted
        self.regs = self._plan_registers()
        #: register slots the emitted code names
        self.used_regs: set[int] = set()
        #: slab offsets whose census an earlier touch dominates
        self.touched: set[int] = set()
        #: temps that always hold 0 or 1 (comparison and logic results)
        self.bools: set[str] = set()
        #: per-activation bindings of run constants the body reads
        self.bound: dict[str, str] = {}

    # -- static facts ------------------------------------------------------

    def _plan_registers(self) -> frozenset:
        """The slab offsets that live in generator locals: all but the
        rc-tracked ones, in a function where no pointer into the slab
        can exist — no ``&local`` and no array or struct local."""
        func = self.func
        types = list(func.qtype.base.params)
        types += [d.qtype for d in collect_local_decls(func)]
        if any(qt.is_struct or qt.is_array for qt in types):
            return frozenset()
        cells = set(func.rc_locals)
        for e in function_exprs(func):
            if isinstance(e, A.Unop) and e.op == "&" \
                    and isinstance(e.operand, A.Ident) \
                    and e.operand.name in self.offsets:
                return frozenset()
            if e.rc_track:  # an Assign or SCAST
                target = e.expr if isinstance(e, A.SCastExpr) else e.lhs
                if isinstance(target, A.Ident):
                    cells.add(target.name)
        return frozenset(off for name, off in self.offsets.items()
                         if name not in cells)

    def _sizeof(self, node: A.Expr) -> int:
        """Replicates ``Interp._sizeof_node`` (incl. its fallbacks)."""
        qt = node.ctype
        if qt is None:
            return 8
        try:
            return qt.base.size(self.structs)
        except KeyError:
            return 8

    def _ptr_scale(self, qt) -> int:
        if qt is None:
            return 1
        if qt.is_pointer or qt.is_array:
            return qt.pointee().base.size(self.structs)
        return 1

    def _is_array(self, e: A.Expr) -> bool:
        qt = e.ctype
        return qt is not None and qt.is_array

    # -- emission helpers --------------------------------------------------

    def w(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def tick(self, n: int = 1) -> None:
        self.pend += n

    def flush(self) -> None:
        if self.pend:
            check = "; st.steps_checks += 1" if self.pend_check else ""
            self.w(f"I._pending += {self.pend}{check}")
            self.pend = 0
            self.pend_check = False

    def tmp(self) -> str:
        self.ntmp += 1
        return f"_t{self.ntmp}"

    def const(self, value) -> str:
        key = id(value)
        name = self.cmap.get(key)
        if name is None:
            name = f"_c{len(self.consts)}"
            self.consts.append(value)
            self.cmap[key] = name
        return name

    def run_const(self, attr: str) -> str:
        """``I.<attr>`` for a run constant (``eraser``, ``instrument``:
        both set only in ``Interp.__init__``), bound to a local once
        per activation."""
        local = f"_{attr}"
        self.bound[local] = f"I.{attr}"
        return local

    def truth(self, v: str) -> str:
        """``_truthy(v)`` as a condition; a 0/1 temp or an int literal
        tests the same bare."""
        if v in self.bools or self._INT.fullmatch(v):
            return v
        return f"_truthy({v})"

    def emit_yield(self) -> None:
        """The one scheduling point: flush + yield accumulated cost."""
        self.flush()
        self.w("_fc = I._pending; I._pending = 0")
        self.w("yield _fc")

    # -- known-good address fast path --------------------------------------
    #
    # Addresses of the form ``(slab + K)`` are inside the activation's
    # own stack block, and ``I.globals_env['x']`` is a named global's
    # own slot — both live and in-bounds by construction, so
    # ``AddressSpace.read``/``write``'s wild-pointer and use-after-free
    # guards cannot fire.  The only observable effects are the page
    # census and the cell itself, which these emit inline — one dict
    # operation instead of a method call per access.  Computed addresses
    # (pointer dereferences, indexing) never match: they can point
    # anywhere and keep the full guarded path.

    _SLAB_ADDR = re.compile(r"\(slab \+ (\d+)\)")
    _GLOBAL_ADDR = re.compile(r"I\.globals_env\[[^]]+\]")

    def is_slab_addr(self, addr: str) -> bool:
        return self._SLAB_ADDR.fullmatch(addr) is not None

    def is_safe_addr(self, addr: str) -> bool:
        return (self._SLAB_ADDR.fullmatch(addr) is not None
                or self._GLOBAL_ADDR.fullmatch(addr) is not None)

    _STABLE = re.compile(r"_[tc]\d+|-?\d+")
    _INT = re.compile(r"-?\d+")

    def _reuse(self, v: str) -> bool:
        """True when ``v`` is a single-assignment temp, a constant or
        an int literal: re-consuming it later is free and cannot
        observe a different value, so no defensive copy into a fresh
        temp is needed."""
        return self._STABLE.fullmatch(v) is not None

    def _slot(self, addr: str) -> int | None:
        """The slab offset ``addr`` names, or None for a global."""
        m = self._SLAB_ADDR.fullmatch(addr)
        return int(m.group(1)) if m is not None else None

    def _census(self, addr: str, off: int | None) -> None:
        """The page census of one access, skipped when an earlier touch
        of the same slab slot dominates this one."""
        if off not in self.touched:
            self.w(f"_pt.add({addr} // {PAGE_SIZE})")
            if off is not None:
                self.touched.add(off)

    def _first_touch(self, addr: str, off: int, load: bool) -> str:
        """A register slot's local, paying the census (and, for a read,
        the cell load) on the activation's first touch unless an
        earlier touch dominates."""
        r = f"_r{off}"
        self.used_regs.add(off)
        if off not in self.touched:
            self.w(f"if {r} is _U:")
            self.w(f"    _pt.add({addr} // {PAGE_SIZE})")
            if load:
                self.w(f"    {r} = _cells.get({addr}, 0)")
            self.touched.add(off)
        return r

    def fast_read(self, addr: str) -> str:
        self.uses_fast = True
        t = self.tmp()
        off = self._slot(addr)
        if off in self.regs:
            self.w(f"{t} = {self._first_touch(addr, off, True)}")
            return t
        self._census(addr, off)
        self.w(f"{t} = _cells.get({addr}, 0)")
        return t

    def fast_write(self, addr: str, value: str,
                   want_old: bool = False) -> str | None:
        """Store; returns a temp holding the previous value when the
        caller needs it (rc logging), as ``space.write`` does."""
        self.uses_fast = True
        off = self._slot(addr)
        if off in self.regs:
            if want_old:  # rc-tracked slots never plan as registers
                raise CompileError("rc write to a register slot")
            self.w(f"{self._first_touch(addr, off, False)} = {value}")
            return None
        self._census(addr, off)
        old = None
        if want_old:
            old = self.tmp()
            self.w(f"{old} = _cells.get({addr}, 0)")
        self.w(f"_cells[{addr}] = {value}")
        return old

    # -- l-values ----------------------------------------------------------

    def gen_lvalue(self, e: A.Expr) -> str:
        """Emits code resolving ``e`` to an address; returns the
        expression (inline for locals/globals, a temp otherwise).
        Charges the interpreter's ``eval_lvalue`` entry tick."""
        self.tick(1)
        k = e.KIND
        if k == E_IDENT:
            name = e.name
            if name in self.offsets:
                return f"(slab + {self.offsets[name]})"
            if name in self.global_names:
                return f"I.globals_env[{name!r}]"
            self.flush()
            self.w(f"raise InterpError({f'no storage for {name!r}'!r}, "
                   f"{self.const(e.loc)})")
            return "0"  # unreachable
        if k == E_UNOP and e.op == "*":
            v = self.gen_expr(e.operand)
            self.flush()
            t = self.tmp()
            self.w(f"{t} = {v}")
            self.w(f"if not {t}:")
            self.w(f"    raise InterpError('null pointer dereference', "
                   f"{self.const(e.loc)})")
            self.w(f"{t} = int({t})")
            return t
        if k == E_MEMBER:
            offset = e.sharc_offset
            if offset is None:
                self.flush()
                self.w(f"raise InterpError("
                       f"{f'member {e.name!r} was not resolved statically'!r}"
                       f", {self.const(e.loc)})")
                return "0"
            base = (self.gen_expr(e.obj) if e.arrow
                    else self.gen_lvalue(e.obj))
            self.flush()
            t = self.tmp()
            self.w(f"{t} = {base}")
            self.w(f"if not {t}:")
            self.w(f"    raise InterpError('null pointer dereference', "
                   f"{self.const(e.loc)})")
            self.w(f"{t} = int({t}) + {offset}")
            return t
        if k == E_INDEX:
            elem_size = e.sharc_elem_size
            if elem_size is None:
                self.flush()
                self.w(f"raise InterpError("
                       f"'index was not resolved statically', "
                       f"{self.const(e.loc)})")
                return "0"
            if e.sharc_on_array:
                base = self.gen_lvalue(e.arr)
            else:
                base = self.gen_expr(e.arr)
            if self._reuse(base):
                bt = base
            else:
                bt = self.tmp()
                self.w(f"{bt} = {base}")
            idx = self.gen_expr(e.idx)
            self.flush()
            t = self.tmp()
            self.w(f"if not {bt}:")
            self.w(f"    raise InterpError('null pointer indexing', "
                   f"{self.const(e.loc)})")
            self.w(f"{t} = int({bt}) + int({idx}) * {elem_size}")
            return t
        self.flush()
        self.w(f"raise InterpError("
               f"{f'not an l-value: {type(e).__name__}'!r}, "
               f"{self.const(e.loc)})")
        return "0"

    # -- inlined access sequences ------------------------------------------

    def _emit_check(self, info, at: str, size: int,
                    is_write: bool) -> None:
        """One attached runtime check (``Interp._apply_check``)."""
        if info.is_lock:
            self._emit_lock_check(info, at, size, is_write)
        else:
            dyn = dynamic_check(info, size, is_write)
            self.w(f"if {self.run_const('instrument')}: "
                   f"{self.const(dyn)}(I, th, {at})")

    def _emit_lock_check(self, info, at: str, size: int,
                         is_write: bool) -> None:
        """The ``Interp._lock_check`` sequence under ``instrument``:
        the check tick, the lock expression (its l-value for a mutex
        object, else its value), then ``Interp._lock_verdict``.  For
        the common ``locked(m)`` on a global mutex the lock is one
        ``globals_env`` lookup, flushed with the check tick in one
        line."""
        la = info.lock_ast
        self.flush()
        self.w(f"if {self.run_const('instrument')}:")
        self.indent += 1
        touched = set(self.touched)
        self.tick(1)
        self.pend_check = True
        if la is None:
            lock = "0"
        elif la.ctype is not None and (la.ctype.is_struct
                                       or la.ctype.is_array):
            lock = self.gen_lvalue(la)
        else:
            lock = self.gen_expr(la)
        self.flush()
        self.w(f"I._lock_verdict({self.const(info)}, {at}, {size}, th, "
               f"{is_write}, {lock})")
        self.indent -= 1
        self.touched = touched

    def _gen_scast(self, e: A.Expr) -> str:
        """The ``_eval_scast`` sequence (Figure 7): read the source,
        null out its slot (checked as a write), then run the oneref
        reference-count check — same charges, counters, bus payloads,
        reports, and shadow resets as the tree-walker, with the
        AST-derived constants (size, rc flags, pretty-printed source)
        folded in at compile time."""
        src = e.expr
        addr = self.gen_lvalue(src)
        if src.sharc_reg:
            # _do_read's register path: plain load, no census/yield.
            if self.is_safe_addr(addr):
                vt = self.fast_read(addr)
            else:
                self.flush()
                vt = self.tmp()
                self.w(f"{vt} = space.read({addr}, "
                       f"{self.const(src.loc)})")
        else:
            vt = self.gen_read_access(src, addr)
        loc = self.const(e.loc)
        size = self._sizeof(src)
        info = e.sharc_src_write
        self.flush()
        if info is not None:
            self._emit_check(info, addr, size, True)
        rc = e.rc_track
        if self.is_safe_addr(addr):
            ot = self.fast_write(addr, "0", want_old=rc)
        elif rc:
            ot = self.tmp()
            self.w(f"{ot} = space.write({addr}, 0, {loc})")
        else:
            self.w(f"space.write({addr}, 0, {loc})")
        self.w("st.accesses_total += 1; st.writes += 1")
        self.w("if I.bus is not None:")
        self.w(f"    I.bus.emit({self.const(CAT_SCAST)}, 'null-out', "
               f"th.tid, addr='0x%x' % {addr})")
        if rc:
            self.w(f"I._rc_write(th, {addr}, {ot}, 0)")
        if e.sharc_oneref:
            ptxt = pretty_expr(src)
            bt, ct, cot, bkt = (self.tmp(), self.tmp(), self.tmp(),
                                self.tmp())
            self.w(f"if {self.run_const('instrument')} and {vt}:")
            self.indent += 1
            self.w(f"{bt} = I._object_base({vt})")
            self.w(f"{ct}, {cot} = I.rc.count(th.tid, {bt}, "
                   f"I._rc_peek)")
            self.w(f"I._charge_rc({cot})")
            self.w("st.rc_collections += 1")
            self.w("if I.bus is not None:")
            self.w(f"    I.bus.emit({self.const(CAT_SCAST)}, 'oneref', "
                   f"th.tid, target='0x%x' % {bt}, count={ct} + 1, "
                   f"ok={ct} == 0)")
            self.w(f"if {ct} > 0:")
            self.w(f"    I._report({self.const(DiagKind.ONEREF_FAILED)}, "
                   f"{bt}, th.tid, {ptxt!r}, {loc}, detail="
                   f"{self.const(oneref_detail)}({ct} + 1))")
            self.w(f"{bkt} = space.block_of(int({vt}))")
            self.w(f"if {bkt} is not None:")
            self.w(f"    I.shadow.reset_granules({bkt}.start, "
                   f"{bkt}.size)")
            self.indent -= 1
        return vt

    def gen_read_access(self, e: A.Expr, addr: str,
                        safe: bool = False) -> str:
        """The ``_do_read`` sequence for a non-register access at
        ``addr``: census, check, one yield, load.  Returns a temp."""
        size = self._sizeof(e)
        info = e.sharc_read
        safe = safe or self.is_safe_addr(addr)
        self.flush()
        if self.is_slab_addr(addr) or self._reuse(addr):
            at = addr  # effect-free; no temp needed
        else:
            at = self.tmp()
            self.w(f"{at} = {addr}")
        self.w("st.accesses_total += 1; st.reads += 1")
        self.w(f"if {self.run_const('eraser')} is not None: "
               f"I._eraser_access({self.const(e)}, {at}, {size}, "
               f"th, False)")
        if info is not None:
            self._emit_check(info, at, size, False)
        self.emit_yield()
        if safe:
            return self.fast_read(at)
        t = self.tmp()
        self.w(f"{t} = space.read({at}, {self.const(e.loc)})")
        return t

    def gen_write_access(self, e: A.Expr, addr: str, value: str,
                         rc: bool, safe: bool = False) -> str:
        """The ``_do_write`` sequence (non-register): mask, census,
        check, one yield, store, rc.  Returns the *stored* value
        expression (masked for a 1-byte target), which is also the
        value of the assignment or prefix ``++``/``--``."""
        size = self._sizeof(e)
        info = e.sharc_write
        safe = safe or self.is_safe_addr(addr)
        self.flush()
        if size == 1:
            wt = self.tmp()
            self.w(f"{wt} = {value} & 0xFF "
                   f"if isinstance({value}, int) else {value}")
        elif self._reuse(value):
            wt = value
        else:
            wt = self.tmp()
            self.w(f"{wt} = {value}")
        self.w("st.accesses_total += 1; st.writes += 1")
        self.w(f"if {self.run_const('eraser')} is not None: "
               f"I._eraser_access({self.const(e)}, {addr}, {size}, "
               f"th, True)")
        if info is not None:
            self._emit_check(info, addr, size, True)
        self.emit_yield()
        if safe:
            ot = self.fast_write(addr, wt, want_old=rc)
            if rc:
                self.w(f"I._rc_write(th, {addr}, {ot}, {wt})")
        elif rc:
            ot = self.tmp()
            self.w(f"{ot} = space.write({addr}, {wt}, "
                   f"{self.const(e.loc)})")
            self.w(f"I._rc_write(th, {addr}, {ot}, {wt})")
        else:
            self.w(f"space.write({addr}, {wt}, {self.const(e.loc)})")
        return wt

    # -- expressions -------------------------------------------------------

    def gen_expr(self, e: A.Expr) -> str:
        """Emits code evaluating ``e``; returns the value expression.
        Charges the ``eval_expr`` entry tick.  Returned inline strings
        are effect- and raise-free (safe to consume later); everything
        with effects is materialized into a temp at its evaluation
        position."""
        self.tick(1)
        k = e.KIND
        if k == E_LIT:
            return repr(e.value)
        if k == E_NULL:
            return "0"
        if k == E_IDENT:
            return self._gen_ident(e)
        if k == E_BINOP:
            return self._gen_binop(e)
        if k == E_MEMBER or k == E_INDEX or (
                k == E_UNOP and e.op == "*"):
            addr = self.gen_lvalue(e)  # charges the eval_lvalue entry
            if self._is_array(e):
                return addr
            return self.gen_read_access(e, addr)
        if k == E_UNOP:
            return self._gen_unop(e)
        if k == E_ASSIGN:
            return self._gen_assign(e)
        if k == E_CALL:
            return self._gen_call(e)
        if k == E_STR:
            t = self.tmp()
            text = self.const(e.value)
            self.w(f"{t} = I._strings.get({text})")
            self.w(f"if {t} is None:")
            self.w(f"    {t} = I._strings[{text}] = "
                   f"space.alloc_c_string({text})")
            return t
        if k == E_SIZEOF:
            if e.of_type is not None:
                return repr(e.of_type.base.size(self.structs))
            return repr(self._sizeof(e.of_expr))
        if k == E_CAST:
            return self._gen_cast(e)
        if k == E_SCAST:
            return self._gen_scast(e)
        if k == E_COND:
            return self._gen_cond(e)
        if k == E_COMMA:
            t = self.tmp()
            self.w(f"{t} = 0")
            for part in e.parts:
                v = self.gen_expr(part)
                self.w(f"{t} = {v}")
            return t
        raise CompileError(f"cannot compile {type(e).__name__}")

    def _gen_ident(self, e: A.Ident) -> str:
        name = e.name
        if name in self.offsets:
            off = self.offsets[name]
            if self._is_array(e):
                self.tick(1)
                return f"(slab + {off})"
            if e.sharc_reg:
                self.tick(1)
                return self.fast_read(f"(slab + {off})")
            self.tick(1)
            return self.gen_read_access(e, f"(slab + {off})")
        if name in self.functions:
            return self.const(("fn", name))
        if name not in self.global_names and name in IMPLS:
            return self.const(("fn", name))
        if name in self.global_names:
            self.tick(1)
            if self._is_array(e):
                return f"I.globals_env[{name!r}]"
            return self.gen_read_access(e, f"I.globals_env[{name!r}]")
        self.tick(1)
        self.flush()
        self.w(f"raise InterpError({f'no storage for {name!r}'!r}, "
               f"{self.const(e.loc)})")
        return "0"

    def _gen_unop(self, e: A.Unop) -> str:
        if e.op == "&":
            return self.gen_lvalue(e.operand)
        if e.op in ("++", "--"):
            return self._gen_incdec(e)
        v = self.gen_expr(e.operand)
        t = self.tmp()
        if e.op == "-":
            self.w(f"{t} = -{v}")
        elif e.op == "!":
            self.w(f"{t} = 0 if {self.truth(v)} else 1")
            self.bools.add(t)
        elif e.op == "~":
            self.w(f"{t} = ~int({v})")
        else:
            raise CompileError(f"unknown unary {e.op}")
        return t

    def _gen_incdec(self, e: A.Unop) -> str:
        operand = e.operand
        qt = operand.ctype
        scale = 1
        if qt is not None and qt.is_pointer:
            scale = qt.pointee().base.size(self.structs)
        delta = scale if e.op == "++" else -scale
        rc = e.rc_track
        if operand.sharc_reg:
            self.tick(1)  # eval_lvalue entry (register: no access seq)
            off = self.offsets[operand.name]
            addr = f"(slab + {off})"
            ot = self.fast_read(addr)
            nt = self.tmp()
            self.w(f"{nt} = ({ot} or 0) + {delta}")
            wt = nt
            if self._sizeof(operand) == 1:
                wt = self.tmp()
                self.w(f"{wt} = {nt} & 0xFF "
                       f"if isinstance({nt}, int) else {nt}")
            pt = self.fast_write(addr, wt, want_old=rc)
            if rc:
                self.w(f"I._rc_write(th, {addr}, {pt}, {wt})")
            return ot if e.postfix else wt
        addr = self.gen_lvalue(operand)
        safe = self.is_safe_addr(addr)
        if self.is_slab_addr(addr) or self._reuse(addr):
            at = addr
        else:
            at = self.tmp()
            self.w(f"{at} = {addr}")
        old = self.gen_read_access(operand, at, safe=safe)
        nt = self.tmp()
        self.w(f"{nt} = ({old} or 0) + {delta}")
        wt = self.gen_write_access(operand, at, nt, rc, safe=safe)
        return old if e.postfix else wt

    def _gen_binop(self, e: A.Binop) -> str:
        opk = _BINOP_K.get(e.op, -1)
        if opk == -1:
            raise CompileError(f"unknown operator {e.op}")
        if opk == _B_ANDAND or opk == _B_OROR:
            want = "1" if opk == _B_OROR else "0"
            lv = self.gen_expr(e.lhs)
            self.flush()
            t = self.tmp()
            test = self.truth(lv)
            self.w(f"if {test}:" if opk == _B_OROR else f"if not {test}:")
            self.w(f"    {t} = {want}")
            self.w("else:")
            self.indent += 1
            touched = set(self.touched)
            rv = self.gen_expr(e.rhs)
            self.flush()
            self.w(f"{t} = 1 if {self.truth(rv)} else 0")
            self.touched = touched
            self.indent -= 1
            self.bools.add(t)
            return t
        lv = self.gen_expr(e.lhs)
        if self._reuse(lv):
            lt = lv
        else:
            lt = self.tmp()
            self.w(f"{lt} = {lv}")
        rv = self.gen_expr(e.rhs)
        if self._reuse(rv):
            rt = rv
        else:
            rt = self.tmp()
            self.w(f"{rt} = {rv}")
        return self._gen_binop_arm(e, opk, lt, rt)

    def _zero_check(self, divisor: str, message: str, loc) -> None:
        """The divide-by-zero guard; a nonzero int literal divisor
        cannot trip it, so it gets none."""
        if self._INT.fullmatch(divisor) and int(divisor) != 0:
            return
        self.flush()
        self.w(f"if {divisor} == 0:")
        self.w(f"    raise InterpError({message!r}, {self.const(loc)})")

    def _gen_binop_arm(self, e: A.Expr, opk: int, lt: str,
                       rt: str) -> str:
        """One ``Interp._binop_value`` arm over two evaluated temps
        (``e`` is the ``Binop``, or the ``Assign`` of ``x op= v``)."""
        lq, rq = e.lhs.ctype, e.rhs.ctype
        l_ptr = lq is not None and (lq.is_pointer or lq.is_array)
        r_ptr = rq is not None and (rq.is_pointer or rq.is_array)
        try:
            lscale = self._ptr_scale(lq) if l_ptr else 1
        except (KeyError, AttributeError):
            lscale = 1
        try:
            rscale = self._ptr_scale(rq) if r_ptr else 1
        except (KeyError, AttributeError):
            rscale = 1
        t = self.tmp()
        if opk == _B_ADD:
            if l_ptr and not r_ptr:
                self.w(f"{t} = int({lt}) + int({rt}) * {lscale}")
            elif r_ptr and not l_ptr:
                self.w(f"{t} = int({rt}) + int({lt}) * {rscale}")
            else:
                self.w(f"{t} = {lt} + {rt}")
            return t
        if opk == _B_SUB:
            if l_ptr and r_ptr:
                self.w(f"{t} = (int({lt}) - int({rt})) // {lscale}")
            elif l_ptr:
                self.w(f"{t} = int({lt}) - int({rt}) * {lscale}")
            else:
                self.w(f"{t} = {lt} - {rt}")
            return t
        cmps = {_B_LT: "<", _B_GT: ">", _B_LE: "<=", _B_GE: ">=",
                _B_EQ: "==", _B_NE: "!="}
        if opk in cmps:
            self.w(f"{t} = 1 if {lt} {cmps[opk]} {rt} else 0")
            self.bools.add(t)
            return t
        if opk == _B_MUL:
            self.w(f"{t} = {lt} * {rt}")
            return t
        if opk == _B_DIV:
            self._zero_check(rt, "division by zero", e.loc)
            self.w(f"if isinstance({lt}, float) "
                   f"or isinstance({rt}, float):")
            self.w(f"    {t} = {lt} / {rt}")
            self.w(f"else:")
            self.w(f"    {t} = int({lt} / {rt}) "
                   f"if ({lt} < 0) != ({rt} < 0) else {lt} // {rt}")
            return t
        if opk == _B_MOD:
            self._zero_check(rt, "modulo by zero", e.loc)
            self.w(f"{t} = int({lt}) "
                   f"- int(int({lt}) / int({rt})) * int({rt})")
            return t
        bits = {_B_BAND: "&", _B_BOR: "|", _B_XOR: "^", _B_SHL: "<<",
                _B_SHR: ">>"}
        if opk in bits:
            self.w(f"{t} = int({lt}) {bits[opk]} int({rt})")
            return t
        raise CompileError(f"unknown operator {e.op}")

    def _gen_cast(self, e: A.CastExpr) -> str:
        v = self.gen_expr(e.expr)
        to = e.to
        to_int = to.is_integral
        to_byte = to_int and to.base.size(self.structs) == 1
        to_float = to.is_arith and not to_int
        t = self.tmp()
        self.w(f"{t} = {v}")
        # the tree-walker's early-return chain: a float narrowed to a
        # byte type stops at int(), it is NOT masked afterwards
        branches = []
        if to_int:
            branches.append(f"if isinstance({t}, float): {t} = int({t})")
        if to_byte:
            branches.append(f"if isinstance({t}, int): {t} = {t} & 0xFF")
        elif to_float:
            branches.append(
                f"if isinstance({t}, int): {t} = float({t})")
        for i, b in enumerate(branches):
            self.w(("el" if i else "") + b)
        return t

    def _gen_cond(self, e: A.CondExpr) -> str:
        cv = self.gen_expr(e.cond)
        self.flush()
        t = self.tmp()
        self.w(f"if {self.truth(cv)}:")
        self.indent += 1
        before = set(self.touched)
        tv = self.gen_expr(e.then)
        self.flush()
        self.w(f"{t} = {tv}")
        self.indent -= 1
        self.w("else:")
        self.indent += 1
        then_touched, self.touched = self.touched, before
        ov = self.gen_expr(e.other)
        self.flush()
        self.w(f"{t} = {ov}")
        self.touched &= then_touched
        self.indent -= 1
        return t

    # -- assignment --------------------------------------------------------

    def _gen_assign(self, e: A.Assign) -> str:
        lhs = e.lhs
        lhs_qt = lhs.ctype
        if e.op == "=" and lhs_qt is not None and lhs_qt.is_struct:
            # block copy: source, destination, write and read checks
            # (no yield, no Eraser hook), one copy_range
            src = self.gen_lvalue(e.rhs)
            dst = self.gen_lvalue(lhs)
            size = lhs_qt.base.size(self.structs)
            self.flush()
            for info, addr, is_write in (
                    (lhs.sharc_write, dst, True),
                    (e.rhs.sharc_read, src, False)):
                if info is not None:
                    self._emit_check(info, addr, size, is_write)
            self.w(f"space.copy_range({dst}, {src}, {size}, "
                   f"{self.const(e.loc)})")
            self.w("st.accesses_total += 2; st.writes += 1; st.reads += 1")
            return "0"
        rc = e.rc_track
        compound = e.op != "="
        # x op= v: the binary operator's arm over the old value
        opk = _BINOP_K[self._COMPOUND[e.op]] if compound else -1
        rv = self.gen_expr(e.rhs)
        if self._reuse(rv):
            vt = rv
        else:
            vt = self.tmp()
            self.w(f"{vt} = {rv}")
        if lhs.sharc_reg:
            self.tick(1)  # eval_lvalue entry
            off = self.offsets[lhs.name]
            addr = f"(slab + {off})"
            if compound:
                ot = self.fast_read(addr)
                vt = self._gen_binop_arm(e, opk, ot, vt)
            wt = vt
            if self._sizeof(lhs) == 1:
                wt = self.tmp()
                self.w(f"{wt} = {vt} & 0xFF "
                       f"if isinstance({vt}, int) else {vt}")
            pt = self.fast_write(addr, wt, want_old=rc)
            if rc:
                self.w(f"I._rc_write(th, {addr}, {pt}, {wt})")
            return wt
        addr = self.gen_lvalue(lhs)
        safe = self.is_safe_addr(addr)
        if self.is_slab_addr(addr) or self._reuse(addr):
            at = addr
        else:
            at = self.tmp()
            self.w(f"{at} = {addr}")
        if compound:
            old = self.gen_read_access(lhs, at, safe=safe)
            vt = self._gen_binop_arm(e, opk, old, vt)
        return self.gen_write_access(lhs, at, vt, rc, safe=safe)

    # -- calls -------------------------------------------------------------

    def _gen_args(self, e: A.Call) -> list[str]:
        """Evaluates the arguments in order; each value is a temp, a
        constant or an int literal, safe to name more than once."""
        vals = []
        for a in e.args:
            v = self.gen_expr(a)
            if self._reuse(v):
                vals.append(v)
                continue
            t = self.tmp()
            self.w(f"{t} = {v}")
            vals.append(t)
        return vals

    def _gen_impl_invoke(self, e: A.Call, impl_expr: str, args: str,
                         t: str) -> str:
        """A builtin's call tick, call and result into temp ``t``."""
        self.tick(1)
        self.flush()
        self.w(f"{t} = {impl_expr}(I, th, {self.const(e)}, {args})")
        self.w(f"if hasattr({t}, '__next__'): "
               f"{t} = yield from {t}")
        self.w(f"if {t} is None: {t} = 0")
        return t

    def _gen_user_call(self, name: str, args: list[str]) -> str:
        """A statically-resolved user-function call, its activation
        inlined here — same slab allocation, parameter stores, and
        frame pop as ``CompiledInterp.call_function``, unrolled from
        the callee's memoized frame layout, and the callee's compiled
        generator (``ProgramCompiler.bodies``) ``yield from``-ed
        directly, removing one generator frame from every item's
        resume chain."""
        callee = self.functions[name]
        layout = frame_layout(callee, self.structs)
        self.flush()
        t, frt, slt = self.tmp(), self.tmp(), self.tmp()
        rc_slots = ", ".join(f"{slt} + {off}" for off in layout.rc_offsets)
        self.w(f"{slt} = space.alloc({layout.size}, 'stack')")
        self.w(f"{frt} = _Frame({self.const(callee)}, rc_slots=[{rc_slots}], "
               f"slab={slt}, slab_size={layout.size})")
        for (off, rc), v in zip(layout.param_slots, args):
            self.uses_fast = True
            addr = f"{slt} + {off}" if off else slt
            if rc:
                self.w(f"_a = {addr}")
                self.w(f"_pt.add(_a // {PAGE_SIZE})")
                self.w(f"_ov = _cells.get(_a, 0)")
                self.w(f"_cells[_a] = {v}")
                self.w(f"I._rc_write(th, _a, _ov, {v})")
            else:
                self.w(f"_pt.add({addr if not off else f'({addr})'} "
                       f"// {PAGE_SIZE})")
                self.w(f"_cells[{addr}] = {v}")
        self.w("try:")
        self.w(f"    {t} = yield from _B[{self.pc.body_index[name]}]"
               f"(I, th, {frt})")
        self.w("finally:")
        self.w(f"    I._pop_frame(th, {frt})")
        return t

    def _gen_call(self, e: A.Call) -> str:
        if isinstance(e.callee, A.Ident) \
                and e.callee.name not in self.offsets:
            name = e.callee.name
            args = self._gen_args(e)
            if name in self.functions:
                return self._gen_user_call(name, args)
            if name in IMPLS:
                return self._gen_impl_invoke(
                    e, self.const(IMPLS[name]), f"[{', '.join(args)}]",
                    self.tmp())
            self.flush()
            self.w(f"raise InterpError("
                   f"{f'call of undefined function {name!r}'!r}, "
                   f"{self.const(e.loc)})")
            return "0"
        cv = self.gen_expr(e.callee)
        self.flush()
        ct = self.tmp()
        self.w(f"{ct} = {cv}")
        self.w(f"if not (isinstance({ct}, tuple) and {ct} "
               f"and {ct}[0] == 'fn'):")
        self.w(f"    raise InterpError('call through non-function "
               f"value', {self.const(e.loc)})")
        self.w(f"{ct} = {ct}[1]")
        args = self._gen_args(e)
        self.flush()
        at = self.tmp()
        self.w(f"{at} = [{', '.join(args)}]")
        ft = self.tmp()
        t = self.tmp()
        self.w(f"{ft} = I.functions.get({ct})")
        self.w(f"if {ft} is not None:")
        self.w(f"    {t} = yield from I.call_function(th, {ft}, {at})")
        self.w("else:")
        self.indent += 1
        self.w(f"{ft} = _IMPLS.get({ct})")
        self.w(f"if {ft} is None:")
        self.w(f"    raise InterpError('call of undefined function "
               f"%r' % ({ct},), {self.const(e.loc)})")
        self._gen_impl_invoke(e, ft, at, t)
        self.indent -= 1
        return t

    # -- statements --------------------------------------------------------

    def gen_stmt(self, s: A.Stmt) -> None:
        k = s.KIND
        if k == S_EXPR:
            self.gen_expr(s.expr)
            return
        if k == S_COMPOUND:
            for sub in s.stmts:
                self.gen_stmt(sub)
            return
        if k == S_DECL:
            for d in s.decls:
                if d.init is None:
                    continue
                v = self.gen_expr(d.init)
                off = self.offsets[d.name]
                size = d.qtype.base.size(self.structs)
                if size != 1 and self._reuse(v):
                    vt = v
                else:
                    vt = self.tmp()
                    self.w(f"{vt} = {v}")
                if size == 1:
                    self.w(f"if isinstance({vt}, int): "
                           f"{vt} = {vt} & 0xFF")
                addr = f"(slab + {off})"
                if d.rc_track:
                    ot = self.fast_write(addr, vt, want_old=True)
                    self.w("st.accesses_total += 1; st.writes += 1")
                    self.w(f"I._rc_write(th, {addr}, {ot}, {vt})")
                else:
                    self.fast_write(addr, vt)
                    self.w("st.accesses_total += 1; st.writes += 1")
            return
        if k == S_IF:
            cv = self.gen_expr(s.cond)
            self.flush()
            self.w(f"if {self.truth(cv)}:")
            self.indent += 1
            before = set(self.touched)
            self.gen_stmt(s.then)
            self.flush()
            self.w("pass")
            self.indent -= 1
            then_touched, self.touched = self.touched, before
            if s.other is not None:
                self.w("else:")
                self.indent += 1
                self.gen_stmt(s.other)
                self.flush()
                self.w("pass")
                self.indent -= 1
            self.touched &= then_touched
            return
        if k == S_WHILE:
            self._gen_loop(cond=s.cond, body=s.body)
            return
        if k == S_DOWHILE:
            self._gen_dowhile(s)
            return
        if k == S_FOR:
            if isinstance(s.init, A.DeclStmt):
                self.gen_stmt(s.init)
            elif s.init is not None:
                self.gen_expr(s.init)
            self._gen_loop(cond=s.cond, body=s.body, step=s.step)
            return
        if k == S_RETURN:
            if s.value is None:
                self.flush()
                self.w("return 0")
                return
            v = self.gen_expr(s.value)
            self.flush()
            self.w(f"return {v}")
            return
        if k == S_BREAK:
            self.flush()
            if self.loop_modes and self.loop_modes[-1] == "exc":
                self.w("raise _BRK()")
            else:
                self.w("break")
            return
        if k == S_CONTINUE:
            self.flush()
            if self.loop_modes and self.loop_modes[-1] == "exc":
                self.w("raise _CNT()")
            else:
                self.w("continue")
            return
        raise CompileError(f"cannot compile {type(s).__name__}")

    def _gen_loop(self, cond, body, step=None) -> None:
        """``while``/``for``: the back-edge flush-yield sits at the
        loop head (skipped on the first iteration), so a native
        ``continue`` still executes step + preemption point in the
        interpreter's exact order: cond, body, [step], yield, cond...
        A failing condition exits without paying a back-edge, as the
        tree-walker does."""
        ft = self.tmp()
        self.flush()
        self.w(f"{ft} = False")
        self.w("while True:")
        self.indent += 1
        self.w(f"if {ft}:")
        self.indent += 1
        entry = set(self.touched)
        if step is not None:
            self.gen_expr(step)
        self.emit_yield()
        self.touched = entry
        self.indent -= 1
        self.w(f"{ft} = True")
        if cond is not None:
            cv = self.gen_expr(cond)
            self.flush()
            self.w(f"if not {self.truth(cv)}: break")
        # every iteration, and every exit, has run the condition
        tested = set(self.touched)
        self.loop_modes.append("native")
        self.gen_stmt(body)
        self.loop_modes.pop()
        self.flush()
        self.touched = tested
        self.indent -= 1

    def _gen_dowhile(self, s: A.DoWhile) -> None:
        """do-while: ``continue`` must fall through to the condition
        (not the loop head), so break/continue route via exceptions."""
        self.flush()
        self.w("while True:")
        self.indent += 1
        self.w("try:")
        self.indent += 1
        entry = set(self.touched)
        self.loop_modes.append("exc")
        self.gen_stmt(s.body)
        self.loop_modes.pop()
        self.flush()
        self.w("pass")
        self.indent -= 1
        # ``continue`` and ``break`` leave the body anywhere
        self.touched = set(entry)
        self.w("except _BRK: break")
        self.w("except _CNT: pass")
        cv = self.gen_expr(s.cond)
        self.flush()
        self.w(f"if not {self.truth(cv)}: break")
        self.emit_yield()
        self.touched = entry
        self.indent -= 1

    # -- whole function ----------------------------------------------------

    def compile(self) -> CompiledFunction:
        self.gen_stmt(self.func.body)
        self.flush()
        self.w("return 0")
        # Unreachable, but makes every body a generator even when it
        # has no scheduling point, so all activations share one protocol.
        self.w("yield")
        header = ["st = I.stats", "space = I.space", "slab = fr.slab"]
        header += [f"{local} = {attr}"
                   for local, attr in sorted(self.bound.items())]
        if self.uses_fast:
            header.append("_cells = space.cells")
            header.append("_pt = space.pages_touched")
        params = {self.offsets[name] for name in self.func.param_names}
        unset = []
        for off in sorted(self.used_regs):
            if off in params:
                header.append(f"_r{off} = _cells.get(slab + {off}, _U)")
            else:
                unset.append(f"_r{off}")
        if unset:
            header.append(" = ".join(unset) + " = _U")
        names = ", ".join(f"_c{i}" for i in range(len(self.consts)))
        src = "\n".join(
            ["def _make(_C, _truthy, InterpError, _IMPLS, _BRK, _CNT, "
             "_Frame, _U, _B):"]
            + ([f"    {names}, = _C"] if names else [])
            + ["    def _body(I, th, fr):"]
            + ["        " + ln for ln in header]
            + ["    " + ln for ln in self.lines]
            + ["    return _body"])
        ns: dict = {}
        try:
            code = compile(src, f"<sharc-compiled:{self.func.name}>",
                           "exec")
        except SyntaxError as exc:  # surface the emitter bug, gently
            raise CompileError(f"codegen emitted bad source: {exc}")
        exec(code, ns)
        body = ns["_make"](tuple(self.consts), _truthy, InterpError,
                           IMPLS, _Break, _Continue, Frame, _UNSET,
                           self.pc.bodies)
        return CompiledFunction(
            self.func, self.layout.size, body,
            param_slots=self.layout.param_slots,
            rc_offs=self.layout.rc_offsets,
            register_slots=tuple(sorted(self.regs)))
