"""Shared expression-type computation for inference and type checking.

Both the constraint-generation phase (Section 4.1) and the static checking
phase (Figure 4, generalized) need the qualified type of every expression.
:class:`TypeWalker` computes these *sharing declared type objects*: the type
of a variable reference is the declaration's own :class:`QualType`, so
qualifier variables attached during inference line up across uses, and the
final inferred modes are visible to the checking phase without copying.

Struct qualifier polymorphism (the ``q`` of Figure 2) is resolved here: a
field access whose field has the internal ``inherit`` mode produces a
wrapper type sharing the *instance's* mode/qualifier variable.

Subclasses override the ``on_*`` hooks:

- :class:`repro.sharc.inference.ConstraintWalker` emits constraint edges,
- :class:`repro.sharc.typecheck.CheckWalker` validates modes and attaches
  runtime-check metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import DiagKind, DiagnosticSink, Loc
from repro.cfront import cast as A
from repro.cfront.ctypes import (
    ArrayType, FuncType, Prim, PtrType, QualType, StructTable, StructType,
    make_prim,
)
from repro.cfront.pretty import pretty_expr
from repro.sharc import modes as M
from repro.sharc.defaults import collect_local_decls
from repro.sharc.libc import BUILTINS, builtin_type, is_builtin

INT = make_prim("int", M.PRIVATE)
LONG = make_prim("long", M.PRIVATE)
ULONG = make_prim("unsigned long", M.PRIVATE)
DOUBLE = make_prim("double", M.PRIVATE)
VOID = make_prim("void", M.PRIVATE)

#: Type given to NULL; never linked by constraints.
NULL_TYPE = QualType(PtrType(QualType(Prim("void"), M.PRIVATE)), M.PRIVATE)

#: Type of string literals: the characters are readonly.
STR_TYPE = QualType(PtrType(QualType(Prim("char"), M.READONLY)), M.PRIVATE)


@dataclass
class LValue:
    """The resolved cell an l-value expression denotes.

    ``qt`` is the cell's qualified type position (aliasing the declaration
    or struct table, or an inherit-resolving wrapper).  For member accesses
    ``container_mode``/``container_qt`` describe the struct instance (used
    by the readonly-write rule) and ``obj_expr`` is the instance expression
    (used to resolve sibling-field lock names).
    """

    qt: QualType
    node: A.Expr
    kind: str  # "var" | "deref" | "member" | "index"
    name: str = ""
    is_local: bool = False
    container_qt: Optional[QualType] = None
    obj_expr: Optional[A.Expr] = None
    struct_name: Optional[str] = None

    @property
    def text(self) -> str:
        return pretty_expr(self.node)


def _inherit_wrapper(field_qt: QualType, instance: QualType) -> QualType:
    """A view of ``field_qt`` whose outermost mode is the instance's."""
    wrapper = QualType(field_qt.base, instance.mode, instance.explicit,
                       loc=field_qt.loc)
    wrapper.qvar = instance.qvar
    return wrapper


def effective_field_type(field_qt: QualType,
                         instance: QualType) -> QualType:
    """Resolves struct qualifier polymorphism for one field access."""
    if field_qt.mode is not None and field_qt.mode.is_inherit:
        return _inherit_wrapper(field_qt, instance)
    return field_qt


class TypeWalker:
    """Walks every function body, computing expression types.

    The walker is flow-insensitive: statement order does not matter, and
    locals are in scope for the whole function (the workloads use unique
    local names per function, as does virtually all real C after CIL
    normalization).
    """

    def __init__(self, program: A.Program,
                 sink: Optional[DiagnosticSink] = None) -> None:
        self.program = program
        self.structs: StructTable = program.structs
        # Note: DiagnosticSink defines __len__, so an empty sink is falsy —
        # an identity check is required here.
        self.sink = sink if sink is not None else DiagnosticSink()
        self.globals: dict[str, QualType] = {}
        self.functions: dict[str, A.FuncDef] = {}
        for decl in program.decls:
            if isinstance(decl, A.VarDecl):
                self.globals[decl.name] = decl.qtype
            elif isinstance(decl, A.FuncDef):
                if decl.name not in self.functions or decl.body is not None:
                    self.functions[decl.name] = decl
        self.locals: dict[str, QualType] = {}
        self.current_func: Optional[A.FuncDef] = None

    # -- overridable hooks ---------------------------------------------------

    def on_read(self, lv: LValue, node: A.Expr) -> None:
        """An l-value is converted to an r-value (cell read)."""

    def on_write(self, lv: LValue, node: A.Expr) -> None:
        """A cell is written (assignment target, ++/--)."""

    def on_assign(self, lhs_t: QualType, rhs_t: QualType,
                  rhs: Optional[A.Expr], node: A.Expr | A.VarDecl) -> None:
        """A value of type ``rhs_t`` flows into a cell of type ``lhs_t``."""

    def on_call(self, func: Optional[A.FuncDef], ftype: FuncType,
                builtin_name: Optional[str], node: A.Call,
                arg_types: list[Optional[QualType]]) -> None:
        """A call with resolved callee type and argument types."""

    def on_scast(self, to: QualType, src_t: Optional[QualType],
                 node: A.SCastExpr) -> None:
        """A sharing cast."""

    def on_cast(self, to: QualType, src_t: Optional[QualType],
                node: A.CastExpr) -> None:
        """A plain C cast."""

    def on_return(self, value_t: Optional[QualType],
                  node: A.Return) -> None:
        """A return statement in the current function."""

    def on_func_ref(self, func: A.FuncDef, node: A.Expr) -> None:
        """A function name used as a value (address taken)."""

    # -- program traversal -----------------------------------------------------

    def walk_program(self) -> None:
        for decl in self.program.decls:
            if isinstance(decl, A.VarDecl) and decl.init is not None:
                init_t = self.type_of(decl.init)
                self.on_assign(decl.qtype, init_t, decl.init, decl)
        for func in self.program.functions():
            self.walk_func(func)

    def walk_func(self, func: A.FuncDef) -> None:
        self.current_func = func
        ftype = func.qtype.base
        assert isinstance(ftype, FuncType)
        self.locals = {}
        for name, ptype in zip(func.param_names, ftype.params):
            self.locals[name] = ptype
        for decl in collect_local_decls(func):
            self.locals[decl.name] = decl.qtype
        if func.body is not None:
            self.walk_stmt(func.body)
        self.current_func = None
        self.locals = {}

    def walk_stmt(self, s: A.Stmt) -> None:
        if isinstance(s, A.Compound):
            for sub in s.stmts:
                self.walk_stmt(sub)
        elif isinstance(s, A.DeclStmt):
            for d in s.decls:
                if d.init is not None:
                    init_t = self.type_of(d.init)
                    self.on_assign(d.qtype, init_t, d.init, d)
        elif isinstance(s, A.ExprStmt):
            self.type_of(s.expr)
        elif isinstance(s, A.If):
            self.type_of(s.cond)
            self.walk_stmt(s.then)
            if s.other is not None:
                self.walk_stmt(s.other)
        elif isinstance(s, A.While):
            self.type_of(s.cond)
            self.walk_stmt(s.body)
        elif isinstance(s, A.DoWhile):
            self.walk_stmt(s.body)
            self.type_of(s.cond)
        elif isinstance(s, A.For):
            if isinstance(s.init, A.DeclStmt):
                self.walk_stmt(s.init)
            elif s.init is not None:
                self.type_of(s.init)
            if s.cond is not None:
                self.type_of(s.cond)
            if s.step is not None:
                self.type_of(s.step)
            self.walk_stmt(s.body)
        elif isinstance(s, A.Return):
            value_t = self.type_of(s.value) if s.value is not None else None
            self.on_return(value_t, s)
        # Break/Continue/empty: nothing to do.

    # -- l-values ---------------------------------------------------------------

    def lvalue_of(self, e: A.Expr) -> Optional[LValue]:
        """Resolves an l-value expression to its cell, or None if ``e`` is
        not an l-value (reported by subclasses where it matters)."""
        if isinstance(e, A.Ident):
            if e.name in self.locals:
                return LValue(self.locals[e.name], e, "var", e.name,
                              is_local=True)
            if e.name in self.globals:
                return LValue(self.globals[e.name], e, "var", e.name)
            return None
        if isinstance(e, A.Unop) and e.op == "*":
            ptr_t = self.type_of(e.operand)
            if ptr_t is None or not (ptr_t.is_pointer or ptr_t.is_array):
                return None
            return LValue(ptr_t.pointee(), e, "deref")
        if isinstance(e, A.Member):
            if e.arrow:
                obj_t = self.type_of(e.obj)
                if obj_t is None or not obj_t.is_pointer:
                    return None
                instance = obj_t.base.target
            else:
                obj_lv = self.lvalue_of(e.obj)
                if obj_lv is None:
                    return None
                instance = obj_lv.qt
            base = instance.base
            if isinstance(base, ArrayType):
                base = base.elem.base
            if not isinstance(base, StructType):
                return None
            if not self.structs.is_defined(base.name):
                return None
            try:
                field_qt = dict(self.structs.fields(base.name))[e.name]
            except KeyError:
                self.sink.error(
                    DiagKind.PARSE,
                    f"struct {base.name} has no field {e.name!r}", e.loc)
                return None
            eff = effective_field_type(field_qt, instance)
            # Layout metadata for the interpreter.
            layout = self.structs.layout(base.name)
            e.sharc_struct = base.name
            e.sharc_offset = layout.field(e.name).offset
            return LValue(eff, e, "member", e.name,
                          container_qt=instance, obj_expr=e.obj,
                          struct_name=base.name)
        if isinstance(e, A.Index):
            arr_lv = self.lvalue_of(e.arr)
            self.type_of(e.idx)
            if arr_lv is not None and arr_lv.qt.is_array:
                # Arrays are one object of the base type (Section 4.1):
                # the element inherits the array cell's mode.
                elem = arr_lv.qt.base.elem
                e.sharc_elem_size = elem.base.size(self.structs)
                e.sharc_on_array = True
                wrapper = QualType(elem.base, arr_lv.qt.mode,
                                   arr_lv.qt.explicit, loc=elem.loc)
                wrapper.qvar = arr_lv.qt.qvar
                return LValue(wrapper, e, "index",
                              container_qt=arr_lv.container_qt,
                              obj_expr=arr_lv.obj_expr,
                              struct_name=arr_lv.struct_name)
            arr_t = self.type_of(e.arr)
            if arr_t is None or not (arr_t.is_pointer or arr_t.is_array):
                return None
            pointee = arr_t.pointee()
            e.sharc_elem_size = pointee.base.size(self.structs)
            e.sharc_on_array = False
            return LValue(pointee, e, "index")
        return None

    # -- expressions -----------------------------------------------------------

    def type_of(self, e: A.Expr) -> Optional[QualType]:
        """Computes (and caches on the node) the r-value type of ``e``."""
        t = self._type_of(e)
        e.ctype = t
        return t

    def _type_of(self, e: A.Expr) -> Optional[QualType]:
        if isinstance(e, (A.IntLit, A.CharLit)):
            return INT
        if isinstance(e, A.FloatLit):
            return DOUBLE
        if isinstance(e, A.StrLit):
            # String literals are mode-polymorphic per occurrence: the
            # characters adopt whatever mode the context requires
            # (readonly in annotated code, dynamic/private elsewhere).
            # The cells are written once while interning, so any mode is
            # dynamically safe for the read-only uses C allows.
            t = e.str_type
            if t is None:
                t = QualType(PtrType(QualType(Prim("char"), None)),
                             M.PRIVATE)
                e.str_type = t
            return t
        if isinstance(e, A.NullLit):
            return NULL_TYPE
        if isinstance(e, A.SizeofExpr):
            if e.of_expr is not None:
                self.type_of(e.of_expr)
            return ULONG
        if isinstance(e, A.Ident):
            if e.name not in self.locals and e.name in self.functions:
                func = self.functions[e.name]
                self.on_func_ref(func, e)
                return QualType(PtrType(func.qtype), M.PRIVATE)
            if e.name not in self.locals and is_builtin(e.name):
                return QualType(PtrType(builtin_type(e.name)), M.PRIVATE)
            lv = self.lvalue_of(e)
            if lv is None:
                self.sink.error(DiagKind.PARSE,
                                f"use of undeclared name {e.name!r}", e.loc)
                return None
            if lv.qt.is_array:
                return lv.qt  # arrays decay without a cell read
            self.on_read(lv, e)
            return lv.qt
        if isinstance(e, (A.Member, A.Index)) or (
                isinstance(e, A.Unop) and e.op == "*"):
            lv = self.lvalue_of(e)
            if lv is None:
                self.sink.error(DiagKind.PARSE,
                                f"invalid l-value {pretty_expr(e)!r}", e.loc)
                return None
            if lv.qt.is_array:
                return lv.qt
            self.on_read(lv, e)
            return lv.qt
        if isinstance(e, A.Unop):
            return self._type_of_unop(e)
        if isinstance(e, A.Binop):
            return self._type_of_binop(e)
        if isinstance(e, A.Assign):
            return self._type_of_assign(e)
        if isinstance(e, A.Call):
            return self._type_of_call(e)
        if isinstance(e, A.CastExpr):
            src_t = self.type_of(e.expr)
            self.on_cast(e.to, src_t, e)
            return e.to
        if isinstance(e, A.SCastExpr):
            lv = self.lvalue_of(e.expr)
            e.src_lv = lv
            if lv is not None:
                # The source is read and then nulled; record the read here,
                # the write is attached by the type checker.
                self.on_read(lv, e.expr)
                e.expr.ctype = lv.qt
                src_t: Optional[QualType] = lv.qt
            else:
                src_t = self.type_of(e.expr)
            self.on_scast(e.to, src_t, e)
            return e.to
        if isinstance(e, A.CondExpr):
            self.type_of(e.cond)
            then_t = self.type_of(e.then)
            other_t = self.type_of(e.other)
            if then_t is not None and then_t.is_pointer:
                return then_t
            return other_t if other_t is not None else then_t
        if isinstance(e, A.CommaExpr):
            t: Optional[QualType] = None
            for part in e.parts:
                t = self.type_of(part)
            return t
        raise TypeError(f"unhandled expression {e!r}")

    def _type_of_unop(self, e: A.Unop) -> Optional[QualType]:
        if e.op == "&":
            lv = self.lvalue_of(e.operand)
            if lv is None:
                self.sink.error(
                    DiagKind.PARSE,
                    f"cannot take the address of {pretty_expr(e.operand)!r}",
                    e.loc)
                return None
            e.operand.ctype = lv.qt
            return QualType(PtrType(lv.qt), M.PRIVATE)
        if e.op in ("++", "--"):
            lv = self.lvalue_of(e.operand)
            if lv is None:
                self.sink.error(DiagKind.PARSE,
                                "++/-- needs an l-value", e.loc)
                return None
            e.operand.ctype = lv.qt
            self.on_read(lv, e.operand)
            self.on_write(lv, e.operand)
            return lv.qt
        operand_t = self.type_of(e.operand)
        if e.op in ("!",):
            return INT
        return operand_t

    def _type_of_binop(self, e: A.Binop) -> Optional[QualType]:
        lhs_t = self.type_of(e.lhs)
        rhs_t = self.type_of(e.rhs)
        if e.op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
            return INT
        lhs_ptr = lhs_t is not None and (lhs_t.is_pointer or lhs_t.is_array)
        rhs_ptr = rhs_t is not None and (rhs_t.is_pointer or rhs_t.is_array)
        if lhs_ptr and rhs_ptr and e.op == "-":
            return LONG
        if lhs_ptr:
            return lhs_t
        if rhs_ptr:
            return rhs_t
        if lhs_t is not None and isinstance(lhs_t.base, Prim) and \
                lhs_t.base.is_floating:
            return lhs_t
        if rhs_t is not None and isinstance(rhs_t.base, Prim) and \
                rhs_t.base.is_floating:
            return rhs_t
        return lhs_t if lhs_t is not None else rhs_t

    def _type_of_assign(self, e: A.Assign) -> Optional[QualType]:
        lv = self.lvalue_of(e.lhs)
        rhs_t = self.type_of(e.rhs)
        if lv is None:
            self.sink.error(
                DiagKind.PARSE,
                f"cannot assign to {pretty_expr(e.lhs)!r}", e.loc)
            return rhs_t
        e.lhs.ctype = lv.qt
        if e.op != "=":
            self.on_read(lv, e.lhs)
        self.on_write(lv, e.lhs)
        if e.op == "=":
            self.on_assign(lv.qt, rhs_t, e.rhs, e)
        return lv.qt

    def _resolve_callee(self, e: A.Call):
        """Returns (func_def | None, FuncType | None, builtin_name | None)."""
        callee = e.callee
        if isinstance(callee, A.Ident) and callee.name not in self.locals:
            if is_builtin(callee.name):
                # The per-call-site instance is cached on the node so the
                # checking phase sees the modes inference resolved.
                bt = e.builtin_sig
                if bt is None:
                    bt = builtin_type(callee.name)
                    e.builtin_sig = bt
                assert isinstance(bt.base, FuncType)
                return None, bt.base, callee.name
            if callee.name in self.functions:
                func = self.functions[callee.name]
                assert isinstance(func.qtype.base, FuncType)
                return func, func.qtype.base, None
        callee_t = self.type_of(callee)
        if callee_t is None:
            return None, None, None
        base = callee_t.base
        if isinstance(base, PtrType):
            base = base.target.base
        if isinstance(base, FuncType):
            return None, base, None
        self.sink.error(DiagKind.PARSE,
                        f"call of non-function {pretty_expr(callee)!r}",
                        e.loc)
        return None, None, None

    def _type_of_call(self, e: A.Call) -> Optional[QualType]:
        func, ftype, builtin_name = self._resolve_callee(e)
        if ftype is None:
            for arg in e.args:
                self.type_of(arg)
            return None
        arg_types = [self.type_of(arg) for arg in e.args]
        self.on_call(func, ftype, builtin_name, e, arg_types)
        return ftype.ret
