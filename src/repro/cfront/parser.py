"""Recursive-descent parser for the mini-C subset with SharC qualifiers.

Qualifier placement follows the paper's examples (Figures 1 and 2):

- after a base type, the qualifier applies to that base:
  ``char locked(mut) * sdata`` — the pointed-to chars are lock-protected;
- after a ``*``, the qualifier applies to the pointer cell itself:
  ``char * locked(mut) sdata`` — the pointer field is lock-protected;
- a qualifier may also precede the base type (applying to it), which reads
  naturally for simple declarations: ``private int x;``.

Sharing casts are written ``SCAST(type, expr)`` as in Section 2.
"""

from __future__ import annotations

import functools
from typing import Optional

from repro.errors import Loc, ParseError
from repro.cfront.lexer import Token, TokenKind, tokenize
from repro.cfront import cast as A
from repro.cfront.ctypes import (
    ArrayType, FuncType, Prim, PtrType, QualType, StructTable, StructType,
)
from repro.sharc import modes as M

PRIM_WORDS = frozenset({
    "void", "char", "short", "int", "long", "unsigned", "signed",
    "float", "double",
})

MODE_WORDS = frozenset({"private", "readonly", "locked", "racy", "dynamic"})

STORAGE_WORDS = frozenset({"extern", "static"})

ASSIGN_OPS = frozenset({
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
})

# Binary operator precedence (higher binds tighter).
BINOP_PREC = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


def _canonical_prim(words: list[str]) -> str:
    """Normalizes a multiset of primitive specifier words to one name."""
    kinds = set(words)
    if "double" in kinds:
        return "double"
    if "float" in kinds:
        return "float"
    if "void" in kinds:
        return "void"
    unsigned = "unsigned" in kinds
    if "char" in kinds:
        return "unsigned char" if unsigned else "char"
    if "short" in kinds:
        return "unsigned short" if unsigned else "short"
    if "long" in kinds:
        return "unsigned long" if unsigned else "long"
    return "unsigned int" if unsigned else "int"


class Parser:
    """Parses a token stream into a :class:`repro.cfront.cast.Program`."""

    def __init__(self, tokens: list[Token], filename: str = "<input>",
                 typedefs: Optional[dict[str, QualType]] = None,
                 structs=None) -> None:
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.program = A.Program(filename=filename)
        if structs is not None:
            self.program.structs = structs
        if typedefs:
            self.program.typedefs.update(typedefs)

    # -- token helpers -----------------------------------------------------

    # ``pos`` never passes the closing EOF token, so the current token
    # needs no bounds check.

    def peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def at(self, kind: TokenKind, text: str | None = None) -> bool:
        return self.tokens[self.pos].is_(kind, text)

    def at_punct(self, text: str) -> bool:
        token = self.tokens[self.pos]
        return token.kind is TokenKind.PUNCT and token.text == text

    def at_kw(self, text: str) -> bool:
        token = self.tokens[self.pos]
        return token.kind is TokenKind.KEYWORD and token.text == text

    def accept_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.next()
            return True
        return False

    def accept_kw(self, text: str) -> bool:
        if self.at_kw(text):
            self.next()
            return True
        return False

    def expect_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            raise ParseError(
                f"expected {text!r}, found {self.peek().text!r}",
                self.peek().loc)
        return self.next()

    def expect_kw(self, text: str) -> Token:
        if not self.at_kw(text):
            raise ParseError(
                f"expected {text!r}, found {self.peek().text!r}",
                self.peek().loc)
        return self.next()

    def expect_ident(self) -> Token:
        if not self.at(TokenKind.IDENT):
            raise ParseError(
                f"expected identifier, found {self.peek().text!r}",
                self.peek().loc)
        return self.next()

    # -- type parsing --------------------------------------------------------

    def _is_typedef_name(self, token: Token) -> bool:
        return (token.kind is TokenKind.IDENT
                and token.text in self.program.typedefs)

    def at_type_start(self, offset: int = 0) -> bool:
        token = self.peek(offset)
        if token.kind is TokenKind.KEYWORD:
            return (token.text in PRIM_WORDS or token.text == "struct"
                    or token.text in MODE_WORDS or token.text == "const"
                    or token.text == "volatile")
        return self._is_typedef_name(token)

    def parse_mode(self) -> Optional[M.Mode]:
        """Parses one sharing-mode qualifier if present."""
        token = self.peek()
        if token.kind is not TokenKind.KEYWORD:
            return None
        if token.text in ("private", "readonly", "racy", "dynamic"):
            self.next()
            return {
                "private": M.PRIVATE,
                "readonly": M.READONLY,
                "racy": M.RACY,
                "dynamic": M.DYNAMIC,
            }[token.text]
        if token.text == "locked":
            self.next()
            self.expect_punct("(")
            expr = self.parse_expr()
            self.expect_punct(")")
            from repro.cfront.pretty import pretty_expr
            return M.locked(pretty_expr(expr))
        return None

    def _skip_cv(self) -> None:
        while self.at_kw("const") or self.at_kw("volatile"):
            self.next()

    def parse_base_type(self) -> QualType:
        """Parses declaration specifiers: ``[mode] type-specifier [mode]``.

        The returned :class:`QualType` has ``explicit`` set when the user
        wrote a sharing mode.
        """
        loc = self.peek().loc
        self._skip_cv()
        mode = self.parse_mode()
        self._skip_cv()
        base = None
        if self.at_kw("struct") or self.at_kw("union"):
            base = self._parse_struct_specifier()
        elif self.peek().kind is TokenKind.KEYWORD and \
                self.peek().text in PRIM_WORDS:
            words = []
            while (self.peek().kind is TokenKind.KEYWORD
                   and self.peek().text in PRIM_WORDS):
                words.append(self.next().text)
            base = Prim(_canonical_prim(words))
        elif self._is_typedef_name(self.peek()):
            name = self.next().text
            aliased = self.program.typedefs[name].clone()
            self._skip_cv()
            post_mode = self.parse_mode()
            chosen = post_mode or mode
            if chosen is not None:
                aliased.mode = chosen
                aliased.explicit = True
            aliased.loc = loc
            return aliased
        else:
            raise ParseError(
                f"expected a type, found {self.peek().text!r}", loc)
        self._skip_cv()
        post_mode = self.parse_mode()
        self._skip_cv()
        chosen = post_mode or mode
        return QualType(base, chosen, explicit=chosen is not None, loc=loc)

    def _parse_struct_specifier(self):
        self.next()  # struct / union (unions are laid out like structs)
        name_token = self.expect_ident()
        name = name_token.text
        if self.at_punct("{"):
            self.next()
            fields: list[tuple[str, QualType]] = []
            # Pre-register so fields can point to the struct itself.
            if not self.program.structs.is_defined(name):
                self.program.structs.define(name, fields)
            while not self.accept_punct("}"):
                base = self.parse_base_type()
                while True:
                    fname, ftype = self.parse_declarator(base)
                    fields.append((fname, ftype))
                    if not self.accept_punct(","):
                        break
                self.expect_punct(";")
            self.program.structs.define(name, fields)
            self.program.decls.append(
                A.StructDef(name, fields, name_token.loc))
        return StructType(name)

    def parse_declarator(self, base: QualType,
                         abstract: bool = False) -> tuple[str, QualType]:
        """Parses ``('*' [mode])* direct-declarator`` around ``base``.

        Returns the declared name ('' for abstract declarators) and the
        full qualified type.
        """
        qtype = base.clone() if base.qvar is None else base
        while self.accept_punct("*"):
            self._skip_cv()
            mode = self.parse_mode()
            qtype = QualType(PtrType(qtype), mode,
                             explicit=mode is not None, loc=self.peek().loc)
        return self._parse_direct_declarator(qtype, abstract)

    def _parse_direct_declarator(self, qtype: QualType,
                                 abstract: bool) -> tuple[str, QualType]:
        name = ""
        inner_ptr: Optional[QualType] = None
        if self.at_punct("(") and self.peek(1).is_(TokenKind.PUNCT, "*"):
            # Function-pointer declarator: ( * [mode] name ) ( params )
            self.next()
            self.expect_punct("*")
            mode = self.parse_mode()
            if self.at(TokenKind.IDENT):
                name = self.next().text
            elif not abstract:
                raise ParseError("expected identifier in declarator",
                                 self.peek().loc)
            self.expect_punct(")")
            params, param_names, varargs = self._parse_params()
            func = QualType(FuncType(qtype, params, varargs),
                            None, loc=self.peek().loc)
            inner_ptr = QualType(PtrType(func), mode,
                                 explicit=mode is not None,
                                 loc=self.peek().loc)
            qtype = inner_ptr
        elif self.at(TokenKind.IDENT):
            name = self.next().text
        elif not abstract:
            raise ParseError(
                f"expected identifier in declarator, found "
                f"{self.peek().text!r}", self.peek().loc)
        # Suffixes: arrays and function parameter lists.
        while True:
            if self.at_punct("["):
                self.next()
                length = None
                if self.at(TokenKind.INT):
                    length = self.next().value
                self.expect_punct("]")
                mode = qtype.mode
                elem = QualType(qtype.base, qtype.mode, qtype.explicit,
                                loc=qtype.loc)
                qtype = QualType(ArrayType(elem, length), mode,
                                 explicit=qtype.explicit, loc=qtype.loc)
            elif self.at_punct("(") and inner_ptr is None:
                params, param_names, varargs = self._parse_params()
                qtype = QualType(FuncType(qtype, params, varargs),
                                 None, loc=qtype.loc)
                qtype.base.param_names = param_names  # type: ignore[attr-defined]
            else:
                break
        return name, qtype

    def _parse_params(self) -> tuple[list[QualType], list[str], bool]:
        self.expect_punct("(")
        params: list[QualType] = []
        names: list[str] = []
        varargs = False
        if self.accept_punct(")"):
            return params, names, varargs
        if self.at_kw("void") and self.peek(1).is_(TokenKind.PUNCT, ")"):
            self.next()
            self.expect_punct(")")
            return params, names, varargs
        while True:
            if self.accept_punct("..."):
                varargs = True
                break
            base = self.parse_base_type()
            pname, ptype = self.parse_declarator(base, abstract=True)
            # Arrays decay to pointers in parameter position.
            if isinstance(ptype.base, ArrayType):
                ptype = QualType(PtrType(ptype.base.elem), ptype.mode,
                                 ptype.explicit, loc=ptype.loc)
            params.append(ptype)
            names.append(pname)
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return params, names, varargs

    def parse_type_name(self) -> QualType:
        """Parses a type name, as used in casts and ``sizeof``."""
        base = self.parse_base_type()
        _, qtype = self.parse_declarator(base, abstract=True)
        return qtype

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> A.Expr:
        return self._parse_comma()

    def _parse_comma(self) -> A.Expr:
        first = self.parse_assign()
        if not self.at_punct(","):
            return first
        parts = [first]
        while self.accept_punct(","):
            parts.append(self.parse_assign())
        return A.CommaExpr(parts, loc=first.loc)

    def parse_assign(self) -> A.Expr:
        lhs = self._parse_conditional()
        token = self.peek()
        if token.kind is TokenKind.PUNCT and token.text in ASSIGN_OPS:
            self.next()
            rhs = self.parse_assign()
            return A.Assign(token.text, lhs, rhs, loc=token.loc)
        return lhs

    def _parse_conditional(self) -> A.Expr:
        cond = self._parse_binop(1)
        if self.at_punct("?"):
            loc = self.next().loc
            then = self.parse_expr()
            self.expect_punct(":")
            other = self._parse_conditional()
            return A.CondExpr(cond, then, other, loc=loc)
        return cond

    def _parse_binop(self, min_prec: int) -> A.Expr:
        lhs = self._parse_unary()
        while True:
            token = self.peek()
            prec = BINOP_PREC.get(token.text) \
                if token.kind is TokenKind.PUNCT else None
            if prec is None or prec < min_prec:
                return lhs
            self.next()
            rhs = self._parse_binop(prec + 1)
            lhs = A.Binop(token.text, lhs, rhs, loc=token.loc)

    def _at_cast(self) -> bool:
        """Heuristic: '(' followed by a type start is a cast."""
        if not self.at_punct("("):
            return False
        return self.at_type_start(1)

    def _parse_unary(self) -> A.Expr:
        token = self.peek()
        if token.kind is TokenKind.PUNCT:
            if token.text in ("-", "!", "~", "*", "&"):
                self.next()
                operand = self._parse_unary()
                return A.Unop(token.text, operand, loc=token.loc)
            if token.text == "+":
                self.next()
                return self._parse_unary()
            if token.text in ("++", "--"):
                self.next()
                operand = self._parse_unary()
                return A.Unop(token.text, operand, postfix=False,
                              loc=token.loc)
            if self._at_cast():
                self.next()
                to = self.parse_type_name()
                self.expect_punct(")")
                expr = self._parse_unary()
                return A.CastExpr(to, expr, loc=token.loc)
        if token.is_(TokenKind.KEYWORD, "sizeof"):
            self.next()
            if self.at_punct("(") and self.at_type_start(1):
                self.next()
                of_type = self.parse_type_name()
                self.expect_punct(")")
                return A.SizeofExpr(of_type=of_type, loc=token.loc)
            operand = self._parse_unary()
            return A.SizeofExpr(of_expr=operand, loc=token.loc)
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            token = self.peek()
            if token.is_(TokenKind.PUNCT, "("):
                self.next()
                args = []
                if not self.at_punct(")"):
                    while True:
                        args.append(self.parse_assign())
                        if not self.accept_punct(","):
                            break
                self.expect_punct(")")
                expr = A.Call(expr, args, loc=token.loc)
            elif token.is_(TokenKind.PUNCT, "["):
                self.next()
                idx = self.parse_expr()
                self.expect_punct("]")
                expr = A.Index(expr, idx, loc=token.loc)
            elif token.is_(TokenKind.PUNCT, "."):
                self.next()
                name = self.expect_ident().text
                expr = A.Member(expr, name, arrow=False, loc=token.loc)
            elif token.is_(TokenKind.PUNCT, "->"):
                self.next()
                name = self.expect_ident().text
                expr = A.Member(expr, name, arrow=True, loc=token.loc)
            elif token.is_(TokenKind.PUNCT, "++") or \
                    token.is_(TokenKind.PUNCT, "--"):
                self.next()
                expr = A.Unop(token.text, expr, postfix=True, loc=token.loc)
            else:
                return expr

    def _parse_primary(self) -> A.Expr:
        token = self.peek()
        if token.kind is TokenKind.INT:
            self.next()
            return A.IntLit(token.value, loc=token.loc)
        if token.kind is TokenKind.FLOAT:
            self.next()
            return A.FloatLit(token.value, loc=token.loc)
        if token.kind is TokenKind.CHAR:
            self.next()
            return A.CharLit(token.value, loc=token.loc)
        if token.kind is TokenKind.STRING:
            self.next()
            return A.StrLit(token.value, loc=token.loc)
        if token.is_(TokenKind.KEYWORD, "NULL"):
            self.next()
            return A.NullLit(loc=token.loc)
        if token.is_(TokenKind.KEYWORD, "SCAST"):
            self.next()
            self.expect_punct("(")
            to = self.parse_type_name()
            self.expect_punct(",")
            expr = self.parse_assign()
            self.expect_punct(")")
            return A.SCastExpr(to, expr, loc=token.loc)
        if token.kind is TokenKind.IDENT:
            self.next()
            return A.Ident(token.text, loc=token.loc)
        if token.is_(TokenKind.PUNCT, "("):
            self.next()
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {token.text!r} in expression",
                         token.loc)

    # -- statements ------------------------------------------------------------

    def parse_stmt(self) -> A.Stmt:
        token = self.peek()
        if token.is_(TokenKind.PUNCT, "{"):
            return self.parse_compound()
        if token.is_(TokenKind.KEYWORD, "if"):
            self.next()
            self.expect_punct("(")
            cond = self.parse_expr()
            self.expect_punct(")")
            then = self.parse_stmt()
            other = None
            if self.accept_kw("else"):
                other = self.parse_stmt()
            return A.If(cond, then, other, loc=token.loc)
        if token.is_(TokenKind.KEYWORD, "while"):
            self.next()
            self.expect_punct("(")
            cond = self.parse_expr()
            self.expect_punct(")")
            body = self.parse_stmt()
            return A.While(cond, body, loc=token.loc)
        if token.is_(TokenKind.KEYWORD, "do"):
            self.next()
            body = self.parse_stmt()
            self.expect_kw("while")
            self.expect_punct("(")
            cond = self.parse_expr()
            self.expect_punct(")")
            self.expect_punct(";")
            return A.DoWhile(body, cond, loc=token.loc)
        if token.is_(TokenKind.KEYWORD, "for"):
            self.next()
            self.expect_punct("(")
            init: Optional[A.Expr | A.DeclStmt] = None
            if not self.at_punct(";"):
                if self.at_type_start():
                    init = self._parse_decl_stmt(expect_semi=False)
                else:
                    init = self.parse_expr()
            self.expect_punct(";")
            cond = None if self.at_punct(";") else self.parse_expr()
            self.expect_punct(";")
            step = None if self.at_punct(")") else self.parse_expr()
            self.expect_punct(")")
            body = self.parse_stmt()
            return A.For(init, cond, step, body, loc=token.loc)
        if token.is_(TokenKind.KEYWORD, "return"):
            self.next()
            value = None if self.at_punct(";") else self.parse_expr()
            self.expect_punct(";")
            return A.Return(value, loc=token.loc)
        if token.is_(TokenKind.KEYWORD, "break"):
            self.next()
            self.expect_punct(";")
            return A.Break(loc=token.loc)
        if token.is_(TokenKind.KEYWORD, "continue"):
            self.next()
            self.expect_punct(";")
            return A.Continue(loc=token.loc)
        if token.kind is TokenKind.KEYWORD and token.text in (
                "switch", "goto", "case", "default"):
            raise ParseError(
                f"{token.text!r} is outside the supported C subset "
                "(see DESIGN.md)", token.loc)
        if self.at_type_start() and not self._looks_like_expr():
            return self._parse_decl_stmt()
        if self.accept_punct(";"):
            return A.Compound([], loc=token.loc)
        expr = self.parse_expr()
        self.expect_punct(";")
        return A.ExprStmt(expr, loc=token.loc)

    def _looks_like_expr(self) -> bool:
        """Disambiguates ``x * y;`` style statements.  A typedef name
        followed by an operator other than ``*`` or an identifier is an
        expression use."""
        token = self.peek()
        if token.kind is not TokenKind.IDENT:
            return False
        nxt = self.peek(1)
        if nxt.kind is TokenKind.PUNCT and nxt.text not in ("*",):
            return True
        return False

    def _parse_decl_stmt(self, expect_semi: bool = True) -> A.DeclStmt:
        loc = self.peek().loc
        storage = None
        if self.at_kw("static") or self.at_kw("extern"):
            storage = self.next().text
        base = self.parse_base_type()
        decls: list[A.VarDecl] = []
        while True:
            name, qtype = self.parse_declarator(base)
            init = None
            if self.accept_punct("="):
                init = self.parse_assign()
            decls.append(A.VarDecl(name, qtype, init, storage,
                                   loc=self.peek().loc))
            if not self.accept_punct(","):
                break
        if expect_semi:
            self.expect_punct(";")
        return A.DeclStmt(decls, loc=loc)

    def parse_compound(self) -> A.Compound:
        loc = self.expect_punct("{").loc
        stmts: list[A.Stmt] = []
        while not self.accept_punct("}"):
            stmts.append(self.parse_stmt())
        return A.Compound(stmts, loc=loc)

    # -- top level -----------------------------------------------------------

    def parse_typedef(self) -> None:
        loc = self.expect_kw("typedef").loc
        base = self.parse_base_type()
        name, qtype = self.parse_declarator(base)
        self.expect_punct(";")
        racy = qtype.mode is not None and qtype.mode.is_racy
        if racy and isinstance(qtype.base, StructType):
            self.program.structs.mark_racy(qtype.base.name)
        stored = qtype.clone()
        if racy:
            # The raciness is a property of the type, recorded in the
            # struct table; the typedef alias itself carries no mode.
            stored.mode = None
            stored.explicit = False
        self.program.typedefs[name] = stored
        self.program.decls.append(A.TypedefDecl(name, stored, racy, loc))

    def parse_top_level(self) -> None:
        if self.at_kw("typedef"):
            self.parse_typedef()
            return
        storage = None
        if self.at_kw("static") or self.at_kw("extern"):
            storage = self.next().text
        base = self.parse_base_type()
        if self.accept_punct(";"):
            return  # bare struct definition
        name, qtype = self.parse_declarator(base)
        if isinstance(qtype.base, FuncType):
            param_names = getattr(qtype.base, "param_names",
                                  [""] * len(qtype.base.params))
            if self.at_punct("{"):
                body = self.parse_compound()
                self.program.decls.append(
                    A.FuncDef(name, qtype, param_names, body, qtype.loc))
            else:
                self.expect_punct(";")
                self.program.decls.append(
                    A.FuncDef(name, qtype, param_names, None, qtype.loc))
            return
        decls = [A.VarDecl(name, qtype, None, storage, qtype.loc)]
        if self.accept_punct("="):
            decls[0].init = self.parse_assign()
        while self.accept_punct(","):
            name, qtype = self.parse_declarator(base)
            init = None
            if self.accept_punct("="):
                init = self.parse_assign()
            decls.append(A.VarDecl(name, qtype, init, storage, qtype.loc))
        self.expect_punct(";")
        self.program.decls.extend(decls)

    def parse_program(self) -> A.Program:
        while not self.at(TokenKind.EOF):
            self.parse_top_level()
        return self.program


PRELUDE = """
// SharC reproduction prelude: pthread-like types.  The internals of locks
// and condition variables are racy by nature (Section 4.1).
typedef struct __mutex { int __owner; int __locked; } racy mutex;
typedef struct __cond { int __waiters; } racy cond;
typedef struct __rwlock { int __readers; int __writer; } racy rwlock;
typedef struct __barrier { int __parties; } racy barrier;
"""


@functools.cache
def _prelude() -> A.Program:
    """The prelude, parsed once per process; never handed out itself."""
    return Parser(tokenize(PRELUDE, "<prelude>"), "<prelude>").parse_program()


def prelude_tables() -> tuple[dict[str, QualType], StructTable]:
    """Fresh copies of the prelude's typedef and struct tables, sharing
    no type object with the cached parse or with earlier copies."""
    pre = _prelude()
    return ({name: qt.clone() for name, qt in pre.typedefs.items()},
            pre.structs.copy())


def parse_program(source: str, filename: str = "<input>",
                  prelude: bool = True) -> A.Program:
    """Parses ``source`` (optionally prefixed by the pthread prelude)."""
    typedefs: dict[str, QualType] = {}
    structs = None
    if prelude:
        typedefs, structs = prelude_tables()
    parser = Parser(tokenize(source, filename), filename,
                    typedefs=typedefs, structs=structs)
    return parser.parse_program()


def parse_expression(source: str, filename: str = "<lock>") -> A.Expr:
    """Parses a single expression — used to resolve ``locked(...)`` lock
    strings at instrumentation time."""
    parser = Parser(tokenize(source, filename), filename)
    return parser.parse_expr()
