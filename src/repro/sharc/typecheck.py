"""Static checking and runtime-check placement (Figure 4, generalized).

After inference every type position has a concrete mode.  This phase:

- validates assignments, argument passing, returns, and casts: pointer
  targets are *invariant* in their modes at every depth
  (``target_compatible``); a mismatch at the first target level is an error
  accompanied by an ``SCAST`` suggestion (the paper's workflow for the
  pipeline example), a deeper mismatch is an error with no cast possible
  (Section 3.2);
- enforces the write rules: ``readonly`` cells are writable only as fields
  of ``private`` struct instances;
- verifies ``locked(e)`` lock expressions are constant (built from
  unmodified locals and readonly values) and resolves them to evaluable
  ASTs, substituting sibling-field names with accesses through the struct
  instance;
- checks sharing casts: the source must be a pointer l-value, ``void*``
  sharing casts are forbidden (Section 4), and modes below the first
  target level must agree; warns when the nulled-out source is live
  afterwards;
- enforces the library rules of Section 4.4: unsummarized pointer
  arguments (and all vararg pointer arguments) must be ``private``;
  summarized arguments accept any mode except ``locked``;
- attaches :class:`AccessInfo` metadata to every l-value occurrence whose
  mode needs a runtime check (``dynamic``/``dynamic_in`` -> chkread /
  chkwrite; ``locked`` -> lock-held check), which the interpreter consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import DiagKind, DiagnosticSink, Loc
from repro.cfront import cast as A
from repro.cfront.ctypes import (
    ArrayType, FuncType, Prim, PtrType, QualType, shape_equal,
)
from repro.cfront.parser import parse_expression
from repro.cfront.pretty import pretty_expr, pretty_type
from repro.sharc import modes as M
from repro.sharc.defaults import collect_local_decls
from repro.sharc.exprtypes import LValue, NULL_TYPE, TypeWalker
from repro.sharc.libc import BUILTINS


@dataclass
class AccessInfo:
    """Runtime-check metadata for one l-value occurrence.

    The check kind is resolved once here, at instrumentation time — the
    interpreter consults ``is_lock``/``is_dynamic`` on every access, so
    they are plain precomputed fields rather than per-access mode
    dispatch."""

    mode: M.Mode
    lvalue_text: str
    loc: Loc
    lock_ast: Optional[A.Expr] = None
    #: precomputed dispatch: lock-held check vs dynamic discipline check
    is_lock: bool = field(init=False, default=False)
    is_dynamic: bool = field(init=False, default=False)
    #: static check-elimination marks (repro.sharc.checkelim).  ``elide``:
    #: a prior check of the same lvalue dominates this one with no yield
    #: point between — the interpreter may discharge it via the
    #: ``ShadowMemory.recheck`` guard.  ``range_walk``: this access is a
    #: monotone array walk inside a call-free loop — route it through the
    #: range-batched check APIs.
    elide: bool = field(init=False, default=False)
    range_walk: bool = field(init=False, default=False)
    #: static lockset refinement marks (repro.sharc.lockset).  A refined
    #: access is still ``dynamic`` — the interpreter merely gets to
    #: discharge it through the held-lock log + ``recheck`` guard when
    #: ``refined_lock`` (a program global mutex) is indeed held.
    lockset_refined: bool = field(init=False, default=False)
    refined_lock: Optional[str] = field(init=False, default=None)
    #: precomputed per-site attribution keys (repro.obs.sitestats):
    #: ``(file, line, lvalue, op)`` for the read and write flavour of
    #: this occurrence, built once here so the hot check paths never
    #: allocate a key tuple per access
    site_key_r: tuple = field(init=False, default=())
    site_key_w: tuple = field(init=False, default=())
    #: the site's dynamic-check closures per ``(size, is_write)``, built
    #: from the fields above on first use (repro.runtime.dyncheck)
    checks: dict = field(init=False, default_factory=dict, repr=False,
                         compare=False)

    def __post_init__(self) -> None:
        self.is_lock = self.mode.is_locked
        self.is_dynamic = self.mode.kind in (M.ModeKind.DYNAMIC,
                                             M.ModeKind.DYNAMIC_IN)
        self.site_key_r = (self.loc.file, self.loc.line,
                           self.lvalue_text, "r")
        self.site_key_w = (self.loc.file, self.loc.line,
                           self.lvalue_text, "w")

    @property
    def is_checked(self) -> bool:
        return self.is_lock or self.is_dynamic


@dataclass
class CheckStats:
    """Census of inserted runtime checks (reported by the harness)."""

    read_checks: int = 0
    write_checks: int = 0
    lock_checks: int = 0
    oneref_checks: int = 0
    suggestions: int = 0

    @property
    def total(self) -> int:
        return (self.read_checks + self.write_checks + self.lock_checks
                + self.oneref_checks)


def _stmt_subtree_exprs(stmt: A.Stmt):
    """All expressions under one statement, pre-order."""
    return list(A.all_exprs(stmt))


def _target_of(qt: QualType) -> Optional[QualType]:
    if isinstance(qt.base, PtrType):
        return qt.base.target
    if isinstance(qt.base, ArrayType):
        return qt.base.elem
    return None


def _is_voidish(qt: QualType) -> bool:
    return isinstance(qt.base, Prim) and qt.base.is_void


def _mode_of(qt: Optional[QualType]) -> M.Mode:
    if qt is None or qt.mode is None:
        return M.PRIVATE
    return qt.mode


class CheckWalker(TypeWalker):
    """The checking phase walker; see module docstring."""

    def __init__(self, program: A.Program, sink: DiagnosticSink) -> None:
        super().__init__(program, sink)
        self.stats = CheckStats()
        self._assigned_locals: set[str] = set()
        self._addr_taken: set[str] = set()
        self._scast_sources: list[tuple[str, Loc]] = []

    # -- per-function setup -------------------------------------------------

    def walk_func(self, func: A.FuncDef) -> None:
        self._assigned_locals = self._collect_assigned(func)
        self._addr_taken = self._collect_addr_taken(func)
        self._scast_sources = []
        super().walk_func(func)
        self._check_liveness_after_scast(func)

    @staticmethod
    def _collect_addr_taken(func: A.FuncDef) -> set[str]:
        names: set[str] = set()
        if func.body is None:
            return names
        for e in A.all_exprs(func.body):
            if isinstance(e, A.Unop) and e.op == "&" and \
                    isinstance(e.operand, A.Ident):
                names.add(e.operand.name)
        return names

    def _is_register_like(self, lv: LValue) -> bool:
        """A private scalar local whose address is never taken lives in a
        register in compiled C; its accesses are not memory accesses.
        The interpreter uses this mark to keep the accesses-census (and
        the %%dynamic column) comparable to the paper's."""
        return (lv.kind == "var" and lv.is_local
                and lv.name not in self._addr_taken
                and not lv.qt.is_struct and not lv.qt.is_array
                and _mode_of(lv.qt).kind in (M.ModeKind.PRIVATE,
                                             M.ModeKind.READONLY))

    @staticmethod
    def _collect_assigned(func: A.FuncDef) -> set[str]:
        """Locals that may not appear in lock expressions because their
        value can change: assigned more than once, mutated in place, or
        address-taken.  A single initializing assignment is allowed —
        the local is constant from then on, which is what the paper's
        "unmodified locals" rule is protecting."""
        names: set[str] = set()
        assign_counts: dict[str, int] = {}
        if func.body is None:
            return names
        for e in A.all_exprs(func.body):
            if isinstance(e, A.Assign) and isinstance(e.lhs, A.Ident):
                assign_counts[e.lhs.name] = \
                    assign_counts.get(e.lhs.name, 0) + 1
                if e.op != "=":
                    names.add(e.lhs.name)
            elif isinstance(e, A.Unop) and e.op in ("++", "--") and \
                    isinstance(e.operand, A.Ident):
                names.add(e.operand.name)
            elif isinstance(e, A.Unop) and e.op == "&" and \
                    isinstance(e.operand, A.Ident):
                names.add(e.operand.name)
        names.update(n for n, count in assign_counts.items() if count > 1)
        return names

    # -- lock expressions ----------------------------------------------------

    def _resolve_lock(self, mode: M.Mode, lv: LValue,
                      node: A.Expr) -> Optional[A.Expr]:
        """Builds the evaluable lock expression for a ``locked`` access."""
        assert mode.lock is not None
        try:
            lock = parse_expression(mode.lock)
        except Exception:  # well-formedness already reported it
            return None
        if lv.struct_name is not None and lv.obj_expr is not None:
            field_names = {fname for fname, _
                           in self.structs.fields(lv.struct_name)}
            lock = self._substitute_fields(lock, field_names, lv)
        # Type the resolved expression so the interpreter has layout
        # metadata (member offsets) for evaluating it at each access.
        self.type_of(lock)
        self._check_lock_constant(lock, node)
        return lock

    def _substitute_fields(self, e: A.Expr, fields: set[str],
                           lv: LValue) -> A.Expr:
        """Replaces bare sibling-field names with accesses through the
        struct instance (``mut`` -> ``S->mut`` for access ``S->sdata``)."""
        if isinstance(e, A.Ident) and e.name in fields:
            arrow = isinstance(lv.node, A.Member) and lv.node.arrow
            return A.Member(lv.obj_expr, e.name, arrow=arrow, loc=e.loc)
        for attr in ("operand", "lhs", "rhs", "obj", "arr", "idx"):
            child = getattr(e, attr, None)
            if isinstance(child, A.Expr):
                setattr(e, attr, self._substitute_fields(child, fields, lv))
        return e

    def _check_lock_constant(self, lock: A.Expr, node: A.Expr) -> None:
        """Lock expressions must use only unmodified locals and readonly
        values (Section 2), so the lock identity cannot change.  A mutex
        *object* (struct-typed variable) names its own address, which is
        constant by construction."""
        for sub in A.walk_expr(lock):
            if isinstance(sub, A.Ident):
                lv = self.lvalue_of(sub)
                if lv is None:
                    continue
                if lv.qt.is_struct or lv.qt.is_array:
                    continue  # the lock object itself: address is fixed
                if lv.is_local:
                    if sub.name in self._assigned_locals:
                        self.sink.error(
                            DiagKind.LOCK_NOT_CONSTANT,
                            f"lock expression uses local '{sub.name}' "
                            "which is modified in this function",
                            node.loc)
                elif not _mode_of(lv.qt).is_readonly and \
                        not _mode_of(lv.qt).is_racy:
                    self.sink.error(
                        DiagKind.LOCK_NOT_CONSTANT,
                        f"lock expression uses global '{sub.name}' "
                        "which is not readonly", node.loc)
            elif isinstance(sub, A.Member):
                lv = self.lvalue_of(sub)
                if lv is None:
                    continue
                if lv.qt.is_struct or lv.qt.is_array:
                    continue
                if not _mode_of(lv.qt).is_readonly:
                    self.sink.error(
                        DiagKind.LOCK_NOT_CONSTANT,
                        f"lock path component '{pretty_expr(sub)}' is not "
                        "readonly", node.loc)

    # -- access hooks -----------------------------------------------------------

    def _locked_in_private_instance(self, lv: LValue) -> bool:
        """A locked field of a *private* struct instance needs no lock
        check: the object is unreachable by other threads, exactly like
        the readonly initialization exception of Section 2.  (Accesses
        with no containing instance — globals, locked arrays — are never
        exempt.)"""
        return (lv.kind in ("member", "index")
                and lv.container_qt is not None
                and _mode_of(lv.container_qt).is_private)

    def on_read(self, lv: LValue, node: A.Expr) -> None:
        mode = _mode_of(lv.qt)
        if self._is_register_like(lv):
            node.sharc_reg = True  # type: ignore[attr-defined]
        if mode.kind in (M.ModeKind.DYNAMIC, M.ModeKind.DYNAMIC_IN):
            node.sharc_read = AccessInfo(mode, lv.text, node.loc)
            self.stats.read_checks += 1
        elif mode.is_locked:
            if self._locked_in_private_instance(lv):
                return
            lock = self._resolve_lock(mode, lv, node)
            node.sharc_read = AccessInfo(mode, lv.text, node.loc, lock)
            self.stats.lock_checks += 1

    def on_write(self, lv: LValue, node: A.Expr) -> None:
        mode = _mode_of(lv.qt)
        if self._is_register_like(lv):
            node.sharc_reg = True  # type: ignore[attr-defined]
        if mode.is_readonly:
            container = _mode_of(lv.container_qt)
            if lv.kind not in ("member", "index") or \
                    lv.container_qt is None or not container.is_private:
                self.sink.error(
                    DiagKind.READONLY_WRITE,
                    f"write to readonly l-value '{lv.text}' (readonly is "
                    "writable only as a field of a private struct)",
                    node.loc)
            return
        if mode.kind in (M.ModeKind.DYNAMIC, M.ModeKind.DYNAMIC_IN):
            node.sharc_write = AccessInfo(mode, lv.text, node.loc)
            self.stats.write_checks += 1
        elif mode.is_locked:
            if self._locked_in_private_instance(lv):
                return
            lock = self._resolve_lock(mode, lv, node)
            node.sharc_write = AccessInfo(mode, lv.text, node.loc, lock)
            self.stats.lock_checks += 1

    # -- compatibility ------------------------------------------------------------

    def _compat(self, lhs_t: Optional[QualType],
                rhs_t: Optional[QualType],
                rhs_expr: Optional[A.Expr], loc: Loc,
                what: str) -> None:
        """Checks that a value of ``rhs_t`` may flow into ``lhs_t``."""
        if lhs_t is None or rhs_t is None or rhs_t is NULL_TYPE:
            return
        lt = _target_of(lhs_t)
        rt = _target_of(rhs_t)
        if lt is None or rt is None:
            return  # arithmetic / pointer-integer flows are permitted
        if isinstance(lt.base, FuncType) or isinstance(rt.base, FuncType):
            return  # function pointers: shapes checked by the frontend
        if _is_voidish(lt) or _is_voidish(rt):
            # void* flows compare only the first target level, and SCAST
            # cannot fix a mismatch (void* sharing casts are forbidden).
            self._compat_level(lt, rt, rhs_expr, loc, what,
                               castable=False)
            return
        if not shape_equal(lt, rt):
            # Differing base shapes are a plain C type matter; SharC only
            # rules on sharing modes, so accept what the frontend accepted.
            return
        self._compat_level(lt, rt, rhs_expr, loc, what, castable=True)
        # Deeper levels must agree exactly.
        lt2, rt2 = _target_of(lt), _target_of(rt)
        while lt2 is not None and rt2 is not None:
            if _mode_of(lt2) != _mode_of(rt2) and not \
                    M.target_compatible(_mode_of(lt2), _mode_of(rt2)):
                self.sink.error(
                    DiagKind.MODE_MISMATCH,
                    f"{what}: sharing modes differ below the first "
                    f"target level ({_mode_of(lt2)} vs {_mode_of(rt2)}); "
                    "no sharing cast can convert this (Section 3.2)", loc)
                return
            lt2, rt2 = _target_of(lt2), _target_of(rt2)

    def _compat_level(self, lt: QualType, rt: QualType,
                      rhs_expr: Optional[A.Expr], loc: Loc, what: str,
                      castable: bool) -> None:
        lm, rm = _mode_of(lt), _mode_of(rt)
        if M.target_compatible(lm, rm):
            return
        message = (f"{what}: pointer target modes are incompatible "
                   f"({lm} vs {rm})")
        diag = self.sink.error(DiagKind.MODE_MISMATCH, message, loc)
        if castable and rhs_expr is not None:
            to_type = QualType(PtrType(QualType(rt.base, lm)), None)
            suggestion = (f"SCAST({pretty_type(to_type)}, "
                          f"{pretty_expr(rhs_expr)})")
            diag.notes.append(f"suggested sharing cast: {suggestion}")
            self.sink.suggest(
                DiagKind.SCAST_SUGGESTION,
                f"replace '{pretty_expr(rhs_expr)}' with '{suggestion}'",
                loc)
            self.stats.suggestions += 1

    # -- assignment / call / return hooks ---------------------------------------

    def on_assign(self, lhs_t, rhs_t, rhs, node) -> None:
        loc = node.loc if isinstance(node, A.Expr) else node.loc
        self._compat(lhs_t, rhs_t, rhs, loc, "assignment")

    def on_return(self, value_t, node) -> None:
        if self.current_func is None:
            return
        ftype = self.current_func.qtype.base
        assert isinstance(ftype, FuncType)
        if value_t is not None:
            self._compat(ftype.ret, value_t, node.value, node.loc,
                         "return value")

    def on_cast(self, to, src_t, node) -> None:
        """A plain cast may not change sharing modes."""
        if src_t is None or src_t is NULL_TYPE:
            return
        lt, rt = _target_of(to), _target_of(src_t)
        if lt is None or rt is None:
            return
        if _is_voidish(lt) or _is_voidish(rt):
            if not M.target_compatible(_mode_of(lt), _mode_of(rt)):
                self.sink.error(
                    DiagKind.MODE_MISMATCH,
                    f"cast changes sharing mode ({_mode_of(rt)} to "
                    f"{_mode_of(lt)}); use SCAST", node.loc)
            return
        if not shape_equal(lt, rt):
            return
        pairs = zip(lt.walk(), rt.walk())
        for a, b in pairs:
            if not M.target_compatible(_mode_of(a), _mode_of(b)):
                self.sink.error(
                    DiagKind.MODE_MISMATCH,
                    f"cast changes sharing mode ({_mode_of(b)} to "
                    f"{_mode_of(a)}); use SCAST", node.loc)
                return

    def on_call(self, func, ftype, builtin_name, node, arg_types) -> None:
        n_params = len(ftype.params)
        if len(node.args) < n_params or (
                len(node.args) > n_params and not ftype.varargs):
            self.sink.error(
                DiagKind.PARSE,
                f"call passes {len(node.args)} arguments, expected "
                f"{n_params}{' or more' if ftype.varargs else ''}",
                node.loc)
            return
        if builtin_name is not None:
            self._check_builtin_call(builtin_name, ftype, node, arg_types)
            return
        callee = func.name if func is not None else "function pointer"
        for i, (param, arg_t) in enumerate(zip(ftype.params, arg_types)):
            self._compat(param, arg_t, node.args[i], node.args[i].loc,
                         f"argument {i + 1} of {callee}")
        self._check_varargs(ftype, node, arg_types)

    def _check_varargs(self, ftype: FuncType, node: A.Call,
                       arg_types) -> None:
        """Vararg pointer arguments must be private (Section 4.4)."""
        if not ftype.varargs:
            return
        for i in range(len(ftype.params), len(node.args)):
            arg_t = arg_types[i]
            if arg_t is None or arg_t is NULL_TYPE:
                continue
            target = _target_of(arg_t)
            if target is not None and not _mode_of(target).is_private \
                    and not _mode_of(target).is_readonly:
                self.sink.error(
                    DiagKind.VARARG_NOT_PRIVATE,
                    f"vararg pointer argument "
                    f"'{pretty_expr(node.args[i])}' must be private, "
                    f"got {_mode_of(target)}", node.args[i].loc)

    def _check_builtin_call(self, name: str, ftype: FuncType,
                            node: A.Call, arg_types) -> None:
        b = BUILTINS[name]
        node.arg_access = {}  # type: ignore[attr-defined]
        for i, (param, arg_t) in enumerate(zip(ftype.params, arg_types)):
            if arg_t is None or arg_t is NULL_TYPE:
                continue
            if i == b.spawn_arg or i == b.spawn_fn or \
                    name == "thread_exit":
                # Data handed across threads is inherently shared; the
                # seed analysis forces it dynamic, which is exactly right.
                continue
            target = _target_of(arg_t)
            if target is None:
                continue
            if isinstance(target.base, FuncType):
                continue
            mode = _mode_of(target)
            if i in b.summary:
                rw = b.summary[i]
                if mode.is_locked:
                    self.sink.error(
                        DiagKind.MODE_MISMATCH,
                        f"library call {name} cannot take a locked "
                        f"argument '{pretty_expr(node.args[i])}' "
                        "(summaries accept any mode except locked, "
                        "Section 4.4)", node.args[i].loc)
                    continue
                if "w" in rw and mode.is_readonly:
                    self.sink.error(
                        DiagKind.READONLY_WRITE,
                        f"library call {name} writes through readonly "
                        f"argument '{pretty_expr(node.args[i])}'",
                        node.args[i].loc)
                    continue
                if mode.kind in (M.ModeKind.DYNAMIC,
                                 M.ModeKind.DYNAMIC_IN):
                    info = AccessInfo(mode, pretty_expr(node.args[i]),
                                      node.args[i].loc)
                    node.arg_access[i] = (rw, info)
                    if "r" in rw:
                        self.stats.read_checks += 1
                    if "w" in rw:
                        self.stats.write_checks += 1
                continue
            # Unsummarized pointer argument: must be private (or the racy
            # internals of locks, which the signature declares racy).
            sig_mode = _mode_of(_target_of(param))
            if sig_mode.is_racy:
                if not mode.is_racy:
                    self.sink.error(
                        DiagKind.MODE_MISMATCH,
                        f"argument '{pretty_expr(node.args[i])}' of "
                        f"{name} must be the racy internals of a lock, "
                        f"got {mode}", node.args[i].loc)
                continue
            if not mode.is_private:
                self.sink.error(
                    DiagKind.MODE_MISMATCH,
                    f"library call {name} requires private pointer "
                    f"argument, '{pretty_expr(node.args[i])}' is {mode}",
                    node.args[i].loc)
        self._check_varargs(ftype, node, arg_types)

    # -- sharing casts --------------------------------------------------------------

    def on_scast(self, to, src_t, node) -> None:
        lv: Optional[LValue] = getattr(node, "src_lv", None)
        if lv is None or not (lv.qt.is_pointer or lv.qt.is_array):
            self.sink.error(
                DiagKind.BAD_SCAST,
                "SCAST source must be a pointer l-value (it is nulled "
                "out)", node.loc)
            return
        if not to.is_pointer:
            self.sink.error(DiagKind.BAD_SCAST,
                            "SCAST target type must be a pointer",
                            node.loc)
            return
        lt = _target_of(to)
        rt = _target_of(lv.qt)
        assert lt is not None and rt is not None
        if _is_voidish(lt) or _is_voidish(rt):
            self.sink.error(
                DiagKind.VOID_SCAST,
                "sharing casts on (void *) are forbidden: cast to a "
                "concrete type first (Section 4)", node.loc)
            return
        if not shape_equal(lt, rt):
            self.sink.error(
                DiagKind.BAD_SCAST,
                f"SCAST changes the base type ({lt.base} vs {rt.base})",
                node.loc)
            return
        lt2, rt2 = _target_of(lt), _target_of(rt)
        while lt2 is not None and rt2 is not None:
            if not M.target_compatible(_mode_of(lt2), _mode_of(rt2)):
                self.sink.error(
                    DiagKind.BAD_SCAST,
                    "SCAST may only convert the first target level; "
                    f"deeper modes differ ({_mode_of(lt2)} vs "
                    f"{_mode_of(rt2)})", node.loc)
                return
            lt2, rt2 = _target_of(lt2), _target_of(rt2)
        # Legal: record the oneref check and the null-out write.
        node.sharc_oneref = True  # type: ignore[attr-defined]
        self.stats.oneref_checks += 1
        mode = _mode_of(lv.qt)
        if mode.is_locked and self._locked_in_private_instance(lv):
            pass  # initialization of a still-private object
        elif mode.is_locked:
            lock = self._resolve_lock(mode, lv, node)
            node.sharc_src_write = AccessInfo(  # type: ignore[attr-defined]
                mode, lv.text, node.loc, lock)
            self.stats.lock_checks += 1
        elif mode.kind in (M.ModeKind.DYNAMIC, M.ModeKind.DYNAMIC_IN):
            node.sharc_src_write = AccessInfo(  # type: ignore[attr-defined]
                mode, lv.text, node.loc, None)
            self.stats.write_checks += 1
        if mode.is_readonly and not (
                lv.kind in ("member", "index")
                and _mode_of(lv.container_qt).is_private):
            self.sink.error(
                DiagKind.READONLY_WRITE,
                f"SCAST nulls out readonly l-value '{lv.text}'", node.loc)
        if lv.kind == "var" and lv.is_local:
            self._scast_sources.append((lv.name, node.loc))

    def _check_liveness_after_scast(self, func: A.FuncDef) -> None:
        """Warns when a local is *definitely* read after being nulled by a
        sharing cast: the read appears in a later statement of the same
        block sequence, with no intervening reassignment.  Reads in
        sibling branches or earlier statements do not warn."""
        if func.body is None or not self._scast_sources:
            return
        for name, cast_loc in self._scast_sources:
            for compound in A.walk_stmts(func.body):
                if not isinstance(compound, A.Compound):
                    continue
                cast_idx = None
                for i, stmt in enumerate(compound.stmts):
                    if any(isinstance(e, A.SCastExpr)
                           and e.loc == cast_loc
                           for e in _stmt_subtree_exprs(stmt)):
                        cast_idx = i
                        break
                if cast_idx is None:
                    continue
                self._scan_following(name, cast_loc,
                                     compound.stmts[cast_idx + 1:])

    def _scan_following(self, name: str, cast_loc: Loc,
                        stmts: list[A.Stmt]) -> None:
        for stmt in stmts:
            for e in _stmt_subtree_exprs(stmt):
                if isinstance(e, A.Assign) and \
                        isinstance(e.lhs, A.Ident) and e.lhs.name == name:
                    return  # reassigned before any read
                if isinstance(e, A.Ident) and e.name == name:
                    self.sink.warning(
                        DiagKind.LIVE_AFTER_SCAST,
                        f"'{name}' is live after being nulled out by a "
                        f"sharing cast (read at line {e.loc.line})",
                        cast_loc)
                    return


def typecheck_program(program: A.Program,
                      sink: DiagnosticSink) -> CheckStats:
    """Runs the checking phase over an inferred program."""
    walker = CheckWalker(program, sink)
    walker.walk_program()
    return walker.stats
