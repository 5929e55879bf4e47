"""The compile layer's shared pieces: the compiled-program artifact and
the whole-program driver.

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
from repro.sharc.checker import CheckedProgram


class CompileError(Exception):
    """This function can't be compiled; run it under the tree-walker."""


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
