"""Reference-count instrumentation marking and the rewritten-source view.

The access checks themselves (chkread / chkwrite / lock-held / oneref) are
attached to AST nodes by the type checker.  This pass adds what Section 4.3
describes: a whole-program, flow-insensitive, type-based analysis decides
*which pointer writes need reference-count updates* — only pointers whose
pointee shape may be subject to a sharing cast are tracked, which is the
optimization that makes reference counting affordable before the
Levanoni–Petrank adaptation takes it the rest of the way.

``instrumented_listing`` renders the program with its runtime checks shown
as comments, mirroring the source-to-source output of the real SharC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfront import cast as A
from repro.cfront.ctypes import PtrType, QualType
from repro.cfront.pretty import pretty_program
from repro.sharc.defaults import collect_local_decls, function_exprs
from repro.sharc.inference import InferenceResult


@dataclass
class InstrumentStats:
    """How many sites got reference-count instrumentation."""

    rc_writes: int = 0
    rc_locals: int = 0
    tracked_shapes: set = field(default_factory=set)


def _pointee_shape(qt: QualType | None):
    if qt is None or not isinstance(qt.base, PtrType):
        return None
    return qt.base.target.base.shape_key()


def mark_rc_writes(program: A.Program, inference: InferenceResult,
                   rc_all: bool = False) -> InstrumentStats:
    """Marks pointer-write sites needing reference-count updates.

    With ``rc_all`` True every pointer write is tracked — the naive scheme
    the paper rejects (Section 4.3's >60% overhead); used by the RC
    ablation benchmark.
    """
    stats = InstrumentStats(tracked_shapes=set(inference.scast_shapes))

    def tracked(qt: QualType | None) -> bool:
        shape = _pointee_shape(qt)
        if shape is None:
            return False
        return rc_all or shape in stats.tracked_shapes

    for func in program.functions():
        assert func.body is not None
        rc_locals: list[str] = []
        for decl in collect_local_decls(func):
            if tracked(decl.qtype):
                decl.rc_track = True
                rc_locals.append(decl.name)
                stats.rc_locals += 1
        ftype = func.qtype.base
        for pname, ptype in zip(func.param_names, ftype.params):
            if tracked(ptype):
                rc_locals.append(pname)
                stats.rc_locals += 1
        func.rc_locals = rc_locals
        for e in function_exprs(func):
            if isinstance(e, A.Assign) and tracked(e.lhs.ctype):
                e.rc_track = True
                stats.rc_writes += 1
            elif isinstance(e, A.SCastExpr) and tracked(e.to):
                e.rc_track = True
                stats.rc_writes += 1
    for g in program.globals():
        if tracked(g.qtype):
            g.rc_track = True
    return stats


def _check_line(info, fallback_kind: str) -> str:
    """One ``// loc: check(...)`` listing line for an access check."""
    if info.mode.is_locked:
        # Name the lock expression: two lock-held checks at the same
        # lvalue guarding different locks must be distinguishable.
        if info.lock_ast is not None:
            from repro.cfront.pretty import pretty_expr
            lock = pretty_expr(info.lock_ast)
        else:
            lock = "?"
        body = f"lock-held({info.lvalue_text}, {lock})"
    else:
        body = f"{fallback_kind}({info.lvalue_text})"
    flags = []
    if info.elide:
        flags.append("elide")
    if info.range_walk:
        flags.append("range")
    if info.refined_lock is not None:
        flags.append(f"locked:{info.refined_lock}")
    suffix = f" [{','.join(flags)}]" if flags else ""
    return f"// {info.loc}: {body}{suffix}"


def instrumented_listing(program: A.Program) -> str:
    """The program rendered with inferred qualifiers, followed by a table
    of the runtime checks the interpreter will perform."""
    lines = [pretty_program(program, show_inferred=True), "",
             "// --- runtime checks ---"]
    for func in program.functions():
        assert func.body is not None
        for e in function_exprs(func):
            read = e.sharc_read
            write = e.sharc_write
            if read is not None:
                lines.append(_check_line(read, "chkread"))
            if write is not None:
                lines.append(_check_line(write, "chkwrite"))
            if e.sharc_oneref:
                src = e.sharc_src_write
                lv = e.src_lv
                text = (src.lvalue_text if src
                        else lv.text if lv is not None else "?")
                lines.append(f"// {e.loc}: oneref({text}) + null-out")
            if e.rc_track:
                lines.append(f"// {e.loc}: refcount update")
    return "\n".join(lines) + "\n"
