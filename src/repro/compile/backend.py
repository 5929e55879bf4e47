"""The compiled executor: an :class:`~repro.runtime.interp.Interp`
whose user-function bodies run as generated Python generators.

Only how function bodies run is overridden (``call_function`` and the
thread/main entry points).  Everything else — scheduler,
shadow memory, lock table, RC scheme, RNG streams, tracing bus, global
initialization, builtins — is the inherited machinery, shared verbatim
with the tree-walker, which is what makes compiled runs bit-identical
by seed (same steps, reports, and trace hashes; only wall time
changes).  Every function body is compiled; none runs on the
tree-walker.
"""

from __future__ import annotations

from repro.cfront import cast as A
from repro.errors import InterpError
from repro.runtime.addrspace import PAGE_SIZE
from repro.runtime.interp import Frame, Interp, ThreadExit
from repro.runtime.scheduler import Thread
from repro.sharc.checker import CheckedProgram

from repro.compile.closures import CompiledProgram, compile_program


class CompiledInterp(Interp):
    """One configured execution of a checked program, compiled.

    Frames keep the tree-walker's layout: one slab per activation, the
    parameters stored into its cells by the prologue.  A body whose
    slab no pointer can reach holds its non-rc-tracked slots in
    generator locals instead (``CompiledFunction.register_slots``): it
    loads each parameter once from the cell the prologue wrote, and
    pays the page census of every other slot on its first touch, so
    the census, steps and reports stay those of the tree-walker —
    for programs without out-of-bounds accesses, which the paper
    assumes (an overrun into a register slot's cell is invisible to
    the compiled body; see :mod:`repro.compile.codegen`)."""

    def __init__(self, checked: CheckedProgram, **kwargs) -> None:
        super().__init__(checked, **kwargs)
        self.compiled: CompiledProgram = compile_program(checked)

    def _push_frame(self, thread: Thread, cf, args: list) -> Frame:
        """Builds a frame for a compiled function: slab allocation,
        rc-slot materialization, and parameter stores — exactly the
        sequence ``Interp.call_function`` performs, with the layout
        precomputed at compile time."""
        frame = Frame(cf.func, slab_size=cf.slab_size)
        space = self.space
        frame.slab = slab = space.alloc(cf.slab_size, "stack")
        frame.rc_slots = [slab + off for off in cf.rc_offs]
        # Parameter stores land in the just-allocated slab (live and
        # in-bounds by construction), so ``space.write``'s guards cannot
        # fire — only the page census and the cells are observable.
        cells = space.cells
        pages = space.pages_touched
        for (off, rc), value in zip(cf.param_slots, args):
            addr = slab + off
            pages.add(addr // PAGE_SIZE)
            if rc:
                old = cells.get(addr, 0)
                cells[addr] = value
                self._rc_write(thread, addr, old, value)
            else:
                cells[addr] = value
        return frame

    def _thread_body(self, thread: Thread, func: A.FuncDef, args: list):
        """Thread entry with one fewer generator frame: the compiled
        body is resumed directly instead of hopping through
        ``call_function``.  Every scheduler item re-walks the suspended
        yield-from chain, so a frame shaved here is saved on each of the
        thread's resumes, not just at entry."""
        cf = self.compiled.funcs[func.name]
        frame = self._push_frame(thread, cf, args)
        try:
            result = yield from cf.body(self, thread, frame)
        except ThreadExit as te:
            result = te.value
        finally:
            self._pop_frame(thread, frame)
        return result

    def _main_body(self, thread: Thread):
        """Main-thread entry, same direct binding as ``_thread_body``
        (global initializers still tree-walk in a boot frame first)."""
        main = self.functions.get("main")
        if main is None:
            raise InterpError("program has no main()")
        yield from self._global_init_gen(thread, Frame(main))
        cf = self.compiled.funcs["main"]
        frame = self._push_frame(thread, cf, [])
        try:
            result = yield from cf.body(self, thread, frame)
        except ThreadExit as te:
            result = te.value
        finally:
            self._pop_frame(thread, frame)
        return result

    def call_function(self, thread: Thread, func: A.FuncDef,
                      args: list):
        """Generator: executes a compiled function body in a fresh
        frame.  Mirrors ``Interp.call_function`` exactly — same slab
        allocation, parameter writes, rc bookkeeping, and frame pop."""
        cf = self.compiled.funcs[func.name]
        frame = self._push_frame(thread, cf, args)
        try:
            result = yield from cf.body(self, thread, frame)
        finally:
            self._pop_frame(thread, frame)
        return result
