"""The compile layer's shared pieces: the compiled-program artifact,
the whole-program driver, and the specialized dynamic-check closures.

Every defined function body is compiled by
:class:`repro.compile.codegen.FunctionCodegen` into one Python
generator.  A function codegen declines lands in
``CompiledProgram.failed`` and runs under the inherited tree-walker
(see :class:`repro.compile.backend.CompiledInterp`), which is
bit-identical by construction — same ``steps_total`` at every yield,
same reports, same scheduler RNG consumption, same traces — just
slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfront import cast as A
from repro.obs.events import CAT_CHECK
from repro.sharc.checker import CheckedProgram
from repro.sharc.reports import Access, read_conflict, write_conflict


class CompileError(Exception):
    """This function can't be compiled; run it under the tree-walker."""


# -- check sites -----------------------------------------------------------

def _make_dyn_check(info, size, is_write):
    """``Interp._dynamic_check`` with one AccessInfo's constants folded
    in: branch structure, counter order, costs, and bus payloads are
    replicated exactly (the static marks decide at compile time which
    guards are even reachable; the runtime ablation switches
    ``I.checkelim``/``I.lockset``/``I.absint`` are still consulted)."""
    elide = info.elide
    refined = info.lockset_refined
    rlock = info.refined_lock
    range_walk = info.range_walk
    ai_elide = info.ai_elide
    ai_range = info.ai_range
    lvtext = info.lvalue_text
    loc = info.loc
    skey = info.site_key_w if is_write else info.site_key_r
    op = "chkwrite" if is_write else "chkread"
    make_report = write_conflict if is_write else read_conflict

    def dyn(I, th, addr):
        stats = I.stats
        stats.accesses_dynamic += 1
        site = stats.sites.get(skey)
        if site is None:
            site = stats.sites[skey] = [0] * 9
        tid = th.tid
        if I.sched.live_count <= 1:
            site[0] += 1  # solo
            site[8] += 1  # cost
            I._pending += 1
            stats.steps_total += 1
            stats.steps_checks += 1
            if I.history is not None:
                I.history.record(addr, size, tid, lvtext, loc, is_write,
                                 stats.steps_total)
            return
        shadow = I.shadow
        if elide and I.checkelim \
                and shadow.recheck(addr, size, tid, is_write):
            stats.checks_elided += 1
            site[3] += 1  # elided
            site[8] += 1  # cost
            if I.history is not None:
                I.history.record(addr, size, tid, lvtext, loc, is_write,
                                 stats.steps_total)
            I._pending += 1
            stats.steps_total += 1
            stats.steps_checks += 1
            if I.bus is not None:
                I.bus.emit(CAT_CHECK, op, tid, dur=1, hit=True,
                           conflict=False, elided=True, lvalue=lvtext)
            return
        if refined and I.lockset \
                and I.locks.holds_for_access(
                    tid, I.globals_env.get(rlock, -1), is_write) \
                and shadow.recheck_locked(addr, size, tid, is_write,
                                          lvtext, loc):
            stats.checks_locked_refined += 1
            site[4] += 1  # locked
            site[8] += 1  # cost
            if I.history is not None:
                I.history.record(addr, size, tid, lvtext, loc, is_write,
                                 stats.steps_total)
            I._pending += 1
            stats.steps_total += 1
            stats.steps_checks += 1
            if I.bus is not None:
                I.bus.emit(CAT_CHECK, op, tid, dur=1, hit=True,
                           conflict=False, locked=True, lvalue=lvtext)
            return
        if ai_elide and I.absint \
                and shadow.recheck(addr, size, tid, is_write):
            stats.checks_ai_elided += 1
            site[5] += 1  # ai
            site[8] += 1  # cost
            if I.history is not None:
                I.history.record(addr, size, tid, lvtext, loc, is_write,
                                 stats.steps_total)
            I._pending += 1
            stats.steps_total += 1
            stats.steps_checks += 1
            if I.bus is not None:
                I.bus.emit(CAT_CHECK, op, tid, dur=1, hit=True,
                           conflict=False, ai=True, lvalue=lvtext)
            return
        if (range_walk and I.checkelim) or (ai_range and I.absint):
            chk = shadow.chkwrite_range if is_write else shadow.chkread_range
            stats.checks_range += 1
            site[2] += 1  # range
        else:
            chk = shadow.chkwrite if is_write else shadow.chkread
            stats.checks_full += 1
            site[1] += 1  # full
        conflict, slow = chk(addr, size, tid, lvtext, loc)
        if slow:
            site[6] += 1  # miss
        if conflict is not None:
            site[7] += 1  # conflicts
            who = Access(tid, lvtext, loc)
            hist = (I.history.provenance(addr, size)
                    if I.history is not None else ())
            I._report(make_report(addr, who, conflict.as_access(), hist))
        if I.history is not None:
            I.history.record(addr, size, tid, lvtext, loc, is_write,
                             stats.steps_total)
        cost = 1 + 3 * slow
        site[8] += cost
        I._pending += cost
        stats.steps_total += cost
        stats.steps_checks += cost
        if I.bus is not None:
            I.bus.emit(CAT_CHECK, op, tid, dur=cost, hit=(slow == 0),
                       conflict=conflict is not None, lvalue=lvtext)
    return dyn


# -- compiled artifact -----------------------------------------------------

@dataclass
class CompiledFunction:
    """One function body, closed over its static facts.  The frame
    prologue (``CompiledInterp._push_frame`` and inlined call sites) is
    precomputed too: name->slot items, parameter slots with their rc
    flags, and the rc-tracked slot offsets in the same set-iteration
    order the interpreter's ``_make_frame`` produces (same strings
    inserted in the same order hash identically within one process)."""

    func: A.FuncDef
    slab_size: int
    #: generator function ``body(I, th, fr)``; its return value is the
    #: call's result
    body: object
    env_items: tuple
    #: [(offset, rc_tracked?)] per parameter, in order
    param_slots: list
    rc_offs: list
    #: does the body consult ``frame.env`` (lock-expression evaluation,
    #: tree-walker delegation)?  If not, the prologue can skip
    #: populating the dict entirely.
    needs_env: bool
    #: the compile tier that produced the body (reported per layer)
    tier: str = "codegen"


@dataclass
class CompiledProgram:
    funcs: dict[str, CompiledFunction] = field(default_factory=dict)
    #: function name -> reason, for bodies that fell back to the
    #: tree-walker (bit-identical by construction, just slower)
    failed: dict[str, str] = field(default_factory=dict)


# -- whole-program compiler ------------------------------------------------

class ProgramCompiler:
    def __init__(self, checked: CheckedProgram) -> None:
        program = checked.program
        self.structs = program.structs
        self.functions = {f.name: f for f in program.functions()}
        self.global_names = {g.name for g in program.globals()
                             if g.storage != "extern"}

    def compile(self) -> CompiledProgram:
        """Codegens every defined function; one it declines is recorded
        in ``failed`` and left to the inherited tree-walker."""
        from repro.compile.codegen import FunctionCodegen
        cp = CompiledProgram()
        #: exposed while compiling so codegen call sites can bind the
        #: (eventually fully populated) dict for direct-call dispatch
        self.funcs_out = cp.funcs
        for name, func in self.functions.items():
            if func.body is None:
                continue
            try:
                cp.funcs[name] = FunctionCodegen(self, func).compile()
            except Exception as exc:
                cp.failed[name] = f"{type(exc).__name__}: {exc}"
        return cp


def compile_program(checked: CheckedProgram) -> CompiledProgram:
    """Compiles (and caches, per program object) every function body.
    The artifact is execution-state-free — generated bodies capture
    only static facts — so one compile serves every seed/policy/ablation
    run of the program, including ``sharc explore``'s per-process check
    cache."""
    cached = getattr(checked.program, "_sharc_compiled", None)
    if cached is not None:
        return cached
    cp = ProgramCompiler(checked).compile()
    checked.program._sharc_compiled = cp  # type: ignore[attr-defined]
    return cp
