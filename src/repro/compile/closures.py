"""The compile layer's shared pieces: the compiled-program artifact and
the whole-program driver.

Every defined function body is compiled by
:class:`repro.compile.codegen.FunctionCodegen` into one Python
generator.  The compile is total: a body codegen cannot express raises
:class:`CompileError` out of :func:`compile_program`, and the run that
needed it fails with that error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfront import cast as A
from repro.sharc.checker import CheckedProgram


class CompileError(Exception):
    """Codegen cannot express this function body."""


# -- compiled artifact -----------------------------------------------------

@dataclass
class CompiledFunction:
    """One function body, closed over its static facts.  The frame
    prologue (``CompiledInterp._push_frame`` and inlined call sites) is
    precomputed too: parameter slots with their rc flags and the
    rc-tracked slot offsets, both read from the memoized
    :func:`~repro.runtime.interp.frame_layout` the tree-walker's frames
    use, so both backends pop rc slots in the same order."""

    func: A.FuncDef
    slab_size: int
    #: generator function ``body(I, th, fr)``; its return value is the
    #: call's result
    body: object
    #: ((offset, rc_tracked?), ...) per parameter, in order
    param_slots: tuple
    rc_offs: tuple
    #: slab offsets the body keeps in generator locals instead of
    #: cells (empty when a pointer into the slab could exist)
    register_slots: tuple = ()
    #: always "codegen"; kept for perfbench/spans.py's tier counts
    tier: str = "codegen"


@dataclass
class CompiledProgram:
    funcs: dict[str, CompiledFunction] = field(default_factory=dict)
    #: always empty; kept for perfbench/spans.py's fallback count
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
        """Codegens every defined function; a ``CompileError``
        propagates."""
        from repro.compile.codegen import FunctionCodegen
        cp = CompiledProgram()
        #: exposed while compiling so codegen call sites can bind the
        #: (eventually fully populated) dict for direct-call dispatch
        self.funcs_out = cp.funcs
        for name, func in self.functions.items():
            cp.funcs[name] = FunctionCodegen(self, func).compile()
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
