"""The compiled execution backend (``backend="compiled"``).

Compiles each type-checked, instrumented mini-C function body into one
generated Python generator — variable slots, access sizes, and
check-site specializations resolved at compile time — and executes it
under the same scheduler/shadow-memory/RC/tracing machinery as the
tree-walking interpreter, bit-identically by seed and several times
faster.  A function the code generator declines fails the compile
with ``CompileError``.  See :mod:`repro.compile.codegen` for the code generator,
:mod:`repro.compile.closures` for the compiled-program artifact and
driver, and :mod:`repro.compile.backend` for the executor.
"""

from repro.compile.backend import CompiledInterp
from repro.compile.closures import (
    CompileError, CompiledFunction, CompiledProgram, ProgramCompiler,
    compile_program,
)

__all__ = [
    "CompiledInterp", "CompileError", "CompiledFunction",
    "CompiledProgram", "ProgramCompiler", "compile_program",
]
