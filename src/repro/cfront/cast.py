"""AST node definitions for the mini-C subset ("cast" = C AST).

Nodes are plain dataclasses.  Later phases fill in ``Expr.ctype`` and
set *marks*, attributes that are not fields, each declared below as a
class-level default on the class it lands on: a reader says
``node.mark`` and an instance dict holds only the marks set on it.
Typing sets ``sharc_struct``, ``sharc_offset``, ``sharc_elem_size``,
``sharc_on_array``, ``str_type``, ``builtin_sig`` and ``src_lv``;
checking ``sharc_reg``, ``sharc_read``, ``sharc_write``,
``sharc_oneref``, ``sharc_src_write`` and ``arg_access``;
instrumentation ``rc_track`` and ``rc_locals``.  The other marks are
memos of the passes and executors that read them.  Each node class
also declares its ``KIND`` (an ``E_*`` or ``S_*`` code) to dispatch on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import Loc
from repro.cfront.ctypes import QualType, StructTable


#: expression kinds (``Expr.KIND``)
(E_LIT, E_NULL, E_STR, E_SIZEOF, E_IDENT, E_MEMBER, E_INDEX, E_UNOP,
 E_BINOP, E_ASSIGN, E_CALL, E_CAST, E_SCAST, E_COND, E_COMMA) = range(15)
#: statement kinds (``Stmt.KIND``)
(S_COMPOUND, S_DECL, S_EXPR, S_IF, S_WHILE, S_DOWHILE, S_FOR, S_RETURN,
 S_BREAK, S_CONTINUE) = range(10)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expressions."""

    loc: Loc = field(default_factory=Loc, kw_only=True)
    ctype: Optional[QualType] = field(default=None, kw_only=True, repr=False)
    checks: list = field(default_factory=list, kw_only=True, repr=False)

    KIND = -1
    # marks (see the module docstring): class attributes, not fields
    rc_track = sharc_reg = sharc_oneref = sharc_on_array = False
    sharc_flat_addr = sharc_is_arr = False
    sharc_read = sharc_write = sharc_src_write = sharc_flat = None
    sharc_binop = sharc_size = sharc_step = sharc_lvalue = None
    sharc_elem_size = sharc_offset = sharc_struct = None


@dataclass
class Ident(Expr):
    name: str
    KIND = E_IDENT


@dataclass
class IntLit(Expr):
    value: int
    KIND = E_LIT


@dataclass
class FloatLit(Expr):
    value: float
    KIND = E_LIT


@dataclass
class CharLit(Expr):
    value: int
    KIND = E_LIT


@dataclass
class StrLit(Expr):
    value: str
    KIND = E_STR
    str_type = None


@dataclass
class NullLit(Expr):
    """The ``NULL`` literal (also produced by integer 0 in pointer
    contexts during type checking)."""

    KIND = E_NULL


@dataclass
class Unop(Expr):
    """Unary operator.  ``op`` is one of ``- ! ~ * & ++ --``; for the
    increment/decrement forms ``postfix`` distinguishes ``x++`` from
    ``++x``."""

    op: str
    operand: Expr
    postfix: bool = False
    KIND = E_UNOP


@dataclass
class Binop(Expr):
    """Binary operator (arithmetic, comparison, logical, bitwise)."""

    op: str
    lhs: Expr
    rhs: Expr
    KIND = E_BINOP


@dataclass
class Assign(Expr):
    """Assignment; ``op`` is ``=`` or a compound form such as ``+=``."""

    op: str
    lhs: Expr
    rhs: Expr
    KIND = E_ASSIGN


@dataclass
class Call(Expr):
    callee: Expr
    args: list[Expr] = field(default_factory=list)
    KIND = E_CALL
    builtin_sig = None
    arg_access = None


@dataclass
class Member(Expr):
    """``obj.name`` (``arrow`` False) or ``obj->name`` (``arrow`` True)."""

    obj: Expr
    name: str
    arrow: bool = False
    KIND = E_MEMBER


@dataclass
class Index(Expr):
    arr: Expr
    idx: Expr
    KIND = E_INDEX


@dataclass
class CastExpr(Expr):
    """A plain C cast ``(type) expr`` — cannot change sharing modes."""

    to: QualType
    expr: Expr
    KIND = E_CAST


@dataclass
class SCastExpr(Expr):
    """A sharing cast ``SCAST(type, expr)`` (Section 2): nulls out the
    source l-value and checks the reference count is one."""

    to: QualType
    expr: Expr
    KIND = E_SCAST
    src_lv = None


@dataclass
class CondExpr(Expr):
    cond: Expr
    then: Expr
    other: Expr
    KIND = E_COND


@dataclass
class CommaExpr(Expr):
    parts: list[Expr] = field(default_factory=list)
    KIND = E_COMMA


@dataclass
class SizeofExpr(Expr):
    """``sizeof(type)`` or ``sizeof expr``."""

    of_type: Optional[QualType] = None
    of_expr: Optional[Expr] = None
    KIND = E_SIZEOF


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for statements."""

    loc: Loc = field(default_factory=Loc, kw_only=True)

    KIND = -1
    sharc_flat = None


@dataclass
class VarDecl:
    """One declared variable (local or global)."""

    name: str
    qtype: QualType
    init: Optional[Expr] = None
    storage: Optional[str] = None  # "extern" | "static" | None
    loc: Loc = field(default_factory=Loc)

    rc_track = False


@dataclass
class DeclStmt(Stmt):
    decls: list[VarDecl] = field(default_factory=list)
    KIND = S_DECL


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]
    KIND = S_EXPR


@dataclass
class Compound(Stmt):
    stmts: list[Stmt] = field(default_factory=list)
    KIND = S_COMPOUND


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    other: Optional[Stmt] = None
    KIND = S_IF


@dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]
    KIND = S_WHILE


@dataclass
class DoWhile(Stmt):
    body: Stmt = None  # type: ignore[assignment]
    cond: Expr = None  # type: ignore[assignment]
    KIND = S_DOWHILE


@dataclass
class For(Stmt):
    init: Optional[Union[Expr, DeclStmt]] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None  # type: ignore[assignment]
    KIND = S_FOR


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None
    KIND = S_RETURN


@dataclass
class Break(Stmt):
    KIND = S_BREAK

@dataclass
class Continue(Stmt):
    KIND = S_CONTINUE

# ---------------------------------------------------------------------------
# Top-level declarations
# ---------------------------------------------------------------------------


@dataclass
class FuncDef:
    """A function definition (or prototype when ``body`` is None)."""

    name: str
    qtype: QualType  # base is FuncType
    param_names: list[str] = field(default_factory=list)
    body: Optional[Compound] = None
    loc: Loc = field(default_factory=Loc)

    rc_locals = ()
    sharc_locals = sharc_exprs = sharc_layout = None


@dataclass
class StructDef:
    """A struct definition at the top level."""

    name: str
    fields: list[tuple[str, QualType]] = field(default_factory=list)
    loc: Loc = field(default_factory=Loc)


@dataclass
class TypedefDecl:
    """A typedef; ``racy`` marks inherently racy types (Section 4.1)."""

    name: str
    qtype: QualType
    racy: bool = False
    loc: Loc = field(default_factory=Loc)


TopLevel = Union[VarDecl, FuncDef, StructDef, TypedefDecl]


@dataclass
class Program:
    """A parsed translation unit."""

    decls: list[TopLevel] = field(default_factory=list)
    structs: StructTable = field(default_factory=StructTable)
    typedefs: dict[str, QualType] = field(default_factory=dict)
    filename: str = "<input>"
    #: ``locked(...)`` text -> its parsed tree; see
    #: :func:`repro.sharc.defaults.lock_expr`
    lock_exprs: dict = field(default_factory=dict, repr=False,
                             compare=False)

    def functions(self) -> list[FuncDef]:
        return [d for d in self.decls
                if isinstance(d, FuncDef) and d.body is not None]

    def prototypes(self) -> list[FuncDef]:
        return [d for d in self.decls
                if isinstance(d, FuncDef) and d.body is None]

    def globals(self) -> list[VarDecl]:
        return [d for d in self.decls if isinstance(d, VarDecl)]

    def function(self, name: str) -> Optional[FuncDef]:
        best: Optional[FuncDef] = None
        for d in self.decls:
            if isinstance(d, FuncDef) and d.name == name:
                best = d if d.body is not None or best is None else best
        return best


# ---------------------------------------------------------------------------
# Generic traversal helpers
# ---------------------------------------------------------------------------


def clone_expr(e: Expr) -> Expr:
    """A copy of the tree under ``e`` that shares no node, list or type
    with it (locations and names are immutable and shared)."""
    copy = object.__new__(type(e))
    for name, value in vars(e).items():
        if isinstance(value, Expr):
            value = clone_expr(value)
        elif isinstance(value, list):
            value = [clone_expr(v) for v in value]
        elif isinstance(value, QualType):
            value = value.clone()
        setattr(copy, name, value)
    return copy


def child_exprs(e: Expr) -> list[Expr]:
    """Immediate sub-expressions of ``e``."""
    if isinstance(e, Unop):
        return [e.operand]
    if isinstance(e, (Binop, Assign)):
        return [e.lhs, e.rhs]
    if isinstance(e, Call):
        return [e.callee, *e.args]
    if isinstance(e, Member):
        return [e.obj]
    if isinstance(e, Index):
        return [e.arr, e.idx]
    if isinstance(e, (CastExpr, SCastExpr)):
        return [e.expr]
    if isinstance(e, CondExpr):
        return [e.cond, e.then, e.other]
    if isinstance(e, CommaExpr):
        return list(e.parts)
    if isinstance(e, SizeofExpr):
        return [e.of_expr] if e.of_expr is not None else []
    return []


def walk_expr(e: Expr):
    """Yields ``e`` and every nested sub-expression, pre-order."""
    yield e
    for child in child_exprs(e):
        yield from walk_expr(child)


def stmt_exprs(s: Stmt) -> list[Expr]:
    """Immediate expressions of a statement (not recursing into
    sub-statements)."""
    if isinstance(s, ExprStmt):
        return [s.expr]
    if isinstance(s, DeclStmt):
        return [d.init for d in s.decls if d.init is not None]
    if isinstance(s, If):
        return [s.cond]
    if isinstance(s, (While, DoWhile)):
        return [s.cond]
    if isinstance(s, For):
        out = []
        if isinstance(s.init, Expr):
            out.append(s.init)
        elif isinstance(s.init, DeclStmt):
            out.extend(d.init for d in s.init.decls if d.init is not None)
        if s.cond is not None:
            out.append(s.cond)
        if s.step is not None:
            out.append(s.step)
        return out
    if isinstance(s, Return):
        return [s.value] if s.value is not None else []
    return []


def child_stmts(s: Stmt) -> list[Stmt]:
    """Immediate sub-statements of ``s``."""
    if isinstance(s, Compound):
        return list(s.stmts)
    if isinstance(s, If):
        return [s.then] + ([s.other] if s.other is not None else [])
    if isinstance(s, While):
        return [s.body]
    if isinstance(s, DoWhile):
        return [s.body]
    if isinstance(s, For):
        out: list[Stmt] = []
        if isinstance(s.init, DeclStmt):
            out.append(s.init)
        out.append(s.body)
        return out
    return []


def walk_stmts(s: Stmt):
    """Yields ``s`` and all nested statements, pre-order."""
    yield s
    for child in child_stmts(s):
        yield from walk_stmts(child)


def all_exprs(s: Stmt):
    """Yields every expression (recursively) under statement ``s``."""
    for stmt in walk_stmts(s):
        for e in stmt_exprs(stmt):
            yield from walk_expr(e)
