"""Well-formedness of qualified types.

The REF-CTOR rule of Figure 4 says ``m ref (m' s)`` is well formed when
``m = m'`` or ``m = private``; its purpose is to forbid a shared pointer to
a ``private`` object (another thread could reach the private cell through
it).  In full SharC the generalization is:

- a non-``private`` pointer must not reference a ``private`` object;
- all other mode pairs are fine (e.g. ``readonly`` pointer to ``racy``
  mutex internals, as in Figure 2's ``mutex racy * readonly mut``).

Additional structural rules checked here (Section 4.1):

- a struct field's *outermost* qualifier must not be ``private`` (within a
  private struct it already is private; within a shared struct it would be
  unsound);
- a ``locked`` qualifier's lock expression must be built from unmodified
  locals and ``readonly`` values (checked contextually by the type
  checker; here we verify the expression parses).
"""

from __future__ import annotations

from repro.errors import DiagKind, DiagnosticSink, Loc, ParseError
from repro.cfront import cast as A
from repro.cfront.ctypes import FuncType, PtrType, QualType
from repro.sharc import modes as M
from repro.sharc.defaults import collect_local_decls, lock_expr


def check_type_wellformed(program: A.Program, qt: QualType,
                          sink: DiagnosticSink,
                          where: str = "", loc: Loc | None = None) -> bool:
    """Checks REF-CTOR and lock-expression syntax throughout ``qt``.

    Returns False if any problem was reported.  Positions whose mode is
    still ``None`` (inference pending) are skipped — inference re-checks
    the final types.
    """
    ok = True
    for pos in qt.walk():
        mode = pos.mode
        if mode is not None and mode.is_locked:
            try:
                lock_expr(program, mode.lock)
            except ParseError as exc:
                sink.error(DiagKind.WELLFORMED,
                           f"unparseable lock expression "
                           f"{mode.lock!r}{where}: {exc.message}",
                           loc or pos.loc)
                ok = False
        if isinstance(pos.base, PtrType):
            target = pos.base.target
            if (mode is not None and target.mode is not None
                    and not mode.is_private
                    and not mode.is_inherit
                    and target.mode.is_private):
                sink.error(
                    DiagKind.WELLFORMED,
                    f"ill-formed type '{pos}'{where}: a non-private "
                    "pointer must not reference a private object "
                    "(REF-CTOR)",
                    loc or pos.loc)
                ok = False
    return ok


def check_struct_fields(program: A.Program, sink: DiagnosticSink) -> bool:
    """Rejects explicit outermost ``private`` on struct fields."""
    ok = True
    for decl in program.decls:
        if not isinstance(decl, A.StructDef):
            continue
        for fname, ftype in decl.fields:
            if (ftype.explicit and ftype.mode is not None
                    and ftype.mode.is_private):
                sink.error(
                    DiagKind.WELLFORMED,
                    f"field '{fname}' of struct {decl.name} cannot be "
                    "declared private: unannotated fields inherit the "
                    "struct instance's qualifier (Section 4.1)",
                    decl.loc)
                ok = False
            if not check_type_wellformed(
                    program, ftype, sink,
                    f" (field '{decl.name}.{fname}')", decl.loc):
                ok = False
    return ok


def check_program_types(program: A.Program, sink: DiagnosticSink) -> bool:
    """Well-formedness over all declared types in the program."""
    ok = check_struct_fields(program, sink)
    for decl in program.decls:
        if isinstance(decl, A.VarDecl):
            if not check_type_wellformed(program, decl.qtype, sink,
                                         f" (global '{decl.name}')",
                                         decl.loc):
                ok = False
        elif isinstance(decl, A.FuncDef):
            func = decl.qtype.base
            assert isinstance(func, FuncType)
            if not check_type_wellformed(program, func.ret, sink,
                                         f" (return of '{decl.name}')",
                                         decl.loc):
                ok = False
            for name, param in zip(decl.param_names, func.params):
                if not check_type_wellformed(
                        program, param, sink,
                        f" (parameter '{name}' of '{decl.name}')",
                        decl.loc):
                    ok = False
            for local in collect_local_decls(decl):
                if not check_type_wellformed(
                        program, local.qtype, sink,
                        f" (local '{local.name}' in '{decl.name}')",
                        local.loc):
                    ok = False
    return ok
