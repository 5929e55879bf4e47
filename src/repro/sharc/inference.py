"""Qualifier inference (Section 4.1): defaults + seeds + constraints.

``infer_program`` is the entry point.  It mutates the parsed program's
types in place so that after it returns every type position carries a
concrete sharing mode (possibly the internal ``inherit`` on struct fields,
resolved per access, or ``dynamic_in`` on formals).

Pipeline:

1. apply the defaulting rules (:mod:`repro.sharc.defaults`),
2. check declared types are well-formed (:mod:`repro.sharc.wellformed`),
3. run the seed analysis (:mod:`repro.sharc.seeds`) and seed the constraint
   graph; an explicit ``private`` on an inherently-shared position is an
   error,
4. walk all bodies generating constraint edges
   (:class:`ConstraintWalker`),
5. solve and write modes back; remaining untouched positions are
   ``private``,
6. enforce REF-CTOR by promotion: an inferred-private target under a
   non-private pointer is promoted to ``dynamic``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DiagKind, DiagnosticSink
from repro.cfront import cast as A
from repro.cfront.ctypes import (
    ArrayType, FuncType, PtrType, QualType,
)
from repro.sharc import modes as M
from repro.sharc.constraints import ConstraintGraph, EdgeKind
from repro.sharc.defaults import (
    apply_program_defaults, collect_local_decls, function_exprs,
)
from repro.sharc.exprtypes import NULL_TYPE, TypeWalker
from repro.sharc.libc import BUILTINS
from repro.sharc.seeds import SeedInfo, compute_seeds, seed_types
from repro.sharc.wellformed import check_program_types


@dataclass
class InferenceResult:
    """Artifacts of the inference phase."""

    graph: ConstraintGraph
    seeds: SeedInfo
    #: pointee shape keys that may be subject to a sharing cast — only
    #: pointers to these need reference-count updates (Section 4.3).
    scast_shapes: set = field(default_factory=set)


class ConstraintWalker(TypeWalker):
    """Generates qualifier-constraint edges from every function body."""

    def __init__(self, program: A.Program, graph: ConstraintGraph,
                 seeds: SeedInfo, sink: DiagnosticSink) -> None:
        super().__init__(program, sink)
        self.graph = graph
        self.seeds = seeds

    # -- linking helpers ---------------------------------------------------

    def link_value(self, lhs: QualType | None, rhs: QualType | None,
                   kind: EdgeKind) -> None:
        """Links the nested positions of two types after ``lhs <- rhs``."""
        if lhs is None or rhs is None:
            return
        if lhs is NULL_TYPE or rhs is NULL_TYPE:
            return
        lt = rt = None
        if lhs.is_pointer:
            lt = lhs.base.target
        elif lhs.is_array:
            lt = lhs.base.elem
        if rhs.is_pointer:
            rt = rhs.base.target
        elif rhs.is_array:
            rt = rhs.base.elem
        if lt is None or rt is None:
            return
        self._link_target(lt, rt, kind)

    def _link_target(self, lt: QualType, rt: QualType,
                     kind: EdgeKind) -> None:
        """Links two positions describing the *same* cell."""
        if isinstance(lt.base, FuncType) or isinstance(rt.base, FuncType):
            if isinstance(lt.base, FuncType) and \
                    isinstance(rt.base, FuncType):
                self._link_func(lt.base, rt.base)
            return
        if kind is EdgeKind.BODY:
            self.graph.link(lt, rt, EdgeKind.BODY)
        else:
            # CALL: rt is the actual's position, lt the formal's.
            self.graph.link(rt, lt, EdgeKind.CALL_IN)
        lt_void = lt.base.shape_key() == ("prim", "void")
        rt_void = rt.base.shape_key() == ("prim", "void")
        if lt_void or rt_void:
            return
        self.link_value(lt, rt, kind)

    def _link_func(self, lf: FuncType, rf: FuncType) -> None:
        """Two function signatures become interchangeable (fn pointers
        alias by type): link params and return pairwise, full strength."""
        for lp, rp in zip(lf.params, rf.params):
            self.link_value(lp, rp, EdgeKind.BODY)
        self.link_value(lf.ret, rf.ret, EdgeKind.BODY)

    # -- hooks ---------------------------------------------------------------

    def on_assign(self, lhs_t, rhs_t, rhs, node) -> None:
        self.link_value(lhs_t, rhs_t, EdgeKind.BODY)

    def on_return(self, value_t, node) -> None:
        if self.current_func is None or value_t is None:
            return
        ftype = self.current_func.qtype.base
        assert isinstance(ftype, FuncType)
        self.link_value(ftype.ret, value_t, EdgeKind.BODY)

    def on_cast(self, to, src_t, node) -> None:
        # A plain cast cannot change modes; unify so inference is
        # consistent, the checker validates equality.
        self.link_value(to, src_t, EdgeKind.BODY)

    def on_scast(self, to, src_t, node) -> None:
        # The first target level is converted; deeper positions must agree.
        if src_t is None or not to.is_pointer or not src_t.is_pointer:
            return
        self.link_value(to.base.target, src_t.base.target, EdgeKind.BODY)

    def on_call(self, func, ftype, builtin_name, node, arg_types) -> None:
        if builtin_name is not None:
            b = BUILTINS[builtin_name]
            for i, (param, arg_t) in enumerate(
                    zip(ftype.params, arg_types)):
                self.link_value(param, arg_t, EdgeKind.BODY)
            if b.spawn_fn is not None:
                self._link_spawn(node, arg_types, b)
            return
        for param, arg_t in zip(ftype.params, arg_types):
            self.link_value(param, arg_t, EdgeKind.CALL_IN)

    def _link_spawn(self, node: A.Call, arg_types, b) -> None:
        """thread_create: the data argument is handed to the thread roots;
        link it with each candidate root's formal (both are shared)."""
        if b.spawn_arg is None or len(node.args) <= b.spawn_arg:
            return
        arg_t = arg_types[b.spawn_arg]
        fn_expr = node.args[b.spawn_fn]
        roots: list[str] = []
        if isinstance(fn_expr, A.Ident) and fn_expr.name in self.functions:
            roots = [fn_expr.name]
        else:
            roots = list(self.seeds.thread_roots)
        for root in roots:
            func = self.functions.get(root)
            if func is None:
                continue
            rft = func.qtype.base
            assert isinstance(rft, FuncType)
            if rft.params:
                self.link_value(rft.params[0], arg_t, EdgeKind.BODY)


def all_declared_positions(program: A.Program) -> list[QualType]:
    """Every qualified position in globals, params, returns, and locals."""
    positions: list[QualType] = []
    for decl in program.decls:
        if isinstance(decl, A.VarDecl):
            positions.extend(decl.qtype.walk())
        elif isinstance(decl, A.FuncDef):
            ftype = decl.qtype.base
            assert isinstance(ftype, FuncType)
            positions.extend(ftype.ret.walk())
            for param in ftype.params:
                positions.extend(param.walk())
            for local in collect_local_decls(decl):
                positions.extend(local.qtype.walk())
    return positions


def _promote_refctor(positions: list[QualType]) -> None:
    """Promotes inferred-private targets under non-private pointers to
    ``dynamic`` (REF-CTOR).  Explicit private targets were already
    rejected by well-formedness checking."""
    changed = True
    while changed:
        changed = False
        for pos in positions:
            if not isinstance(pos.base, PtrType):
                continue
            mode = pos.mode
            target = pos.base.target
            if mode is None or target.mode is None:
                continue
            if (not mode.is_private and not mode.is_inherit
                    and mode.kind is not M.ModeKind.DYNAMIC_IN
                    and target.mode.is_private and not target.explicit):
                target.mode = M.DYNAMIC
                changed = True


def collect_scast_shapes(program: A.Program) -> set:
    """Pointee shapes appearing in sharing casts (RC-tracking set)."""
    shapes = set()
    for func in program.functions():
        assert func.body is not None
        for e in function_exprs(func):
            if isinstance(e, A.SCastExpr) and e.to.is_pointer:
                shapes.add(e.to.base.target.base.shape_key())
    return shapes


def infer_program(program: A.Program,
                  sink: DiagnosticSink) -> InferenceResult:
    """Runs the complete inference pipeline over a parsed program."""
    apply_program_defaults(program)
    check_program_types(program, sink)

    seeds = compute_seeds(program)
    graph = ConstraintGraph()

    for pos in seed_types(program, seeds):
        if pos.mode is None:
            graph.seed_dynamic(pos)
        elif pos.mode.is_private and pos.explicit:
            sink.error(
                DiagKind.PRIVATE_SHARED,
                f"position '{pos}' is inherently shared (reachable from a "
                "spawned thread) but annotated private", pos.loc)

    walker = ConstraintWalker(program, graph, seeds, sink)
    walker.walk_program()

    positions = all_declared_positions(program)
    graph.assign_modes(positions + graph.extra_positions())
    for pos in positions:
        if pos.mode is None:
            pos.mode = M.PRIVATE

    _promote_refctor(positions)
    # Re-check well-formedness on the now fully concrete types.
    check_program_types(program, sink)

    return InferenceResult(graph, seeds, collect_scast_shapes(program))
