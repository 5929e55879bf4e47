"""The Section 4.1 defaulting rules, applied before inference proper.

SharC keeps the annotation burden low with a handful of predictable rules:

1. *Struct qualifier polymorphism* — an unannotated outermost field
   qualifier is the qualifier of the containing struct instance (the ``q``
   variable of Figure 2).  We encode it as the internal ``inherit`` mode,
   resolved at each access.  As a consequence, an explicit outermost
   ``private`` on a field is rejected (see
   :func:`repro.sharc.wellformed.check_program_types`).
2. *Lock fields are readonly* — a field or variable used in a ``locked``
   qualifier must be ``readonly`` for soundness, so SharC infers that.
3. *Racy types* — type definitions may be inherently racy (pthread's mutex
   and cond); any position of such a type defaults to ``racy``.
4. *Pointer-target inheritance* — outside struct definitions, an
   unannotated pointer target takes the pointer's own *explicit* mode
   (``int * dynamic`` becomes ``int dynamic * dynamic``); inside struct
   definitions unannotated pointer targets default to ``dynamic``.
5. *Arrays* are one object of the base type: the element mode is the
   array's mode (represented structurally; see ``ArrayType``).

Everything still unannotated after these rules is decided by the sharing
analysis (``private`` vs ``dynamic``).
"""

from __future__ import annotations

from repro.cfront import cast as A
from repro.cfront.ctypes import (
    ArrayType, FuncType, PtrType, QualType, StructTable, StructType,
)
from repro.cfront.parser import parse_expression
from repro.sharc import modes as M


def _is_racy_struct(qt: QualType, structs: StructTable) -> bool:
    base = qt.base
    if isinstance(base, ArrayType):
        base = base.elem.base
    return isinstance(base, StructType) and structs.is_racy(base.name)


def lock_expr(program: A.Program, text: str) -> A.Expr:
    """A fresh tree of the ``locked(text)`` lock expression.  Each
    program parses each distinct lock string once; every call returns
    its own copy, since typing and field substitution change the tree
    in place.  A string that does not parse raises on every call."""
    parsed = program.lock_exprs.get(text)
    if parsed is None:
        parsed = program.lock_exprs[text] = parse_expression(text)
    return A.clone_expr(parsed)


def _lock_idents(program: A.Program, lock_text: str) -> set[str]:
    """The identifiers mentioned by a ``locked(...)`` expression."""
    expr = lock_expr(program, lock_text)
    names: set[str] = set()
    for node in A.walk_expr(expr):
        if isinstance(node, A.Ident):
            names.add(node.name)
        elif isinstance(node, A.Member):
            names.add(node.name)
    return names


def _apply_deep_defaults(qt: QualType, structs: StructTable,
                         in_struct: bool, copied: bool = False) -> None:
    """Fills nested (below-outermost) positions per rules 3 and 4."""
    if isinstance(qt.base, ArrayType):
        # Arrays are a single object: the element position mirrors the
        # array's own mode and is filled once the array's is known.
        _apply_deep_defaults(qt.base.elem, structs, in_struct, copied)
        return
    if isinstance(qt.base, PtrType):
        target = qt.base.target
        target_copied = False
        if target.mode is None and not isinstance(target.base, FuncType):
            if _is_racy_struct(target, structs):
                target.mode = M.RACY
            elif in_struct:
                target.mode = M.DYNAMIC
            elif qt.mode is not None and (qt.explicit or copied):
                # Rule 4: the target copies the pointer's explicit mode,
                # recursively (int **dynamic -> int dynamic *dynamic
                # *dynamic).
                target.mode = qt.mode
                target_copied = True
        _apply_deep_defaults(target, structs, in_struct, target_copied)
    if isinstance(qt.base, FuncType):
        _apply_deep_defaults(qt.base.ret, structs, False)
        for param in qt.base.params:
            _apply_deep_defaults(param, structs, False)


def apply_struct_defaults(program: A.Program) -> None:
    """Applies rules 1–4 to every struct definition in ``program``."""
    structs = program.structs
    for name in structs.names():
        fields = structs.fields(name)
        lock_names: set[str] = set()
        for _, ftype in fields:
            for pos in ftype.walk():
                if pos.mode is not None and pos.mode.is_locked:
                    lock_names |= _lock_idents(program, pos.mode.lock)
        for fname, ftype in fields:
            if ftype.mode is None:
                if fname in lock_names:
                    # Rule 2: the lock path must be immutable.
                    ftype.mode = M.READONLY
                elif _is_racy_struct(ftype, structs):
                    ftype.mode = M.RACY
                elif isinstance(ftype.base, FuncType):
                    pass  # function fields have no cell of their own
                else:
                    ftype.mode = M.INHERIT
            _apply_deep_defaults(ftype, structs, in_struct=True)


def apply_decl_defaults(qt: QualType, structs: StructTable) -> None:
    """Applies rules 3 and 4 to a variable/param/return type."""
    if qt.mode is None and _is_racy_struct(qt, structs):
        qt.mode = M.RACY
    _apply_deep_defaults(qt, structs, in_struct=False)


def _decl_types_of_stmt(stmt: A.Stmt):
    for s in A.walk_stmts(stmt):
        if isinstance(s, A.DeclStmt):
            for d in s.decls:
                yield d
        elif isinstance(s, A.For) and isinstance(s.init, A.DeclStmt):
            for d in s.init.decls:
                yield d


def collect_local_decls(func: A.FuncDef) -> list[A.VarDecl]:
    """All local variable declarations in a function body, collected
    once and memoized on the ``FuncDef`` (no pass adds or removes a
    declaration).  Callers must not change the list."""
    decls = func.sharc_locals
    if decls is None:
        decls = ([] if func.body is None
                 else list(_decl_types_of_stmt(func.body)))
        func.sharc_locals = decls
    return decls


def function_exprs(func: A.FuncDef) -> list[A.Expr]:
    """Every expression in a function body, in :func:`A.all_exprs`
    order, collected once and memoized on the ``FuncDef`` (no pass
    reshapes an expression tree).  Callers must not change the list."""
    exprs = func.sharc_exprs
    if exprs is None:
        exprs = [] if func.body is None else list(A.all_exprs(func.body))
        func.sharc_exprs = exprs
    return exprs


def apply_program_defaults(program: A.Program) -> None:
    """Applies all defaulting rules to a parsed program, in place.

    After this pass, every struct-field position has a concrete (possibly
    internal) mode, and the remaining ``None`` positions — in globals,
    locals, parameters, and return types — are exactly the positions the
    sharing analysis must decide.
    """
    apply_struct_defaults(program)

    # Collect lock identifiers used by locked() annotations anywhere, to
    # promote the named globals/locals to readonly (rule 2).
    lock_names: set[str] = set()
    for decl in program.decls:
        if isinstance(decl, A.FuncDef):
            types = [p for p in decl.qtype.base.params]
            types.append(decl.qtype.base.ret)
            for d in collect_local_decls(decl):
                types.append(d.qtype)
            for t in types:
                for pos in t.walk():
                    if pos.mode is not None and pos.mode.is_locked:
                        lock_names |= _lock_idents(program, pos.mode.lock)

    for decl in program.decls:
        if isinstance(decl, A.VarDecl):
            if decl.qtype.mode is None and decl.name in lock_names:
                decl.qtype.mode = M.READONLY
            apply_decl_defaults(decl.qtype, program.structs)
        elif isinstance(decl, A.FuncDef):
            func = decl.qtype.base
            assert isinstance(func, FuncType)
            apply_decl_defaults(func.ret, program.structs)
            for param in func.params:
                apply_decl_defaults(param, program.structs)
            for local in collect_local_decls(decl):
                if local.qtype.mode is None and local.name in lock_names:
                    local.qtype.mode = M.READONLY
                apply_decl_defaults(local.qtype, program.structs)
