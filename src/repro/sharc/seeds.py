"""Seeding the sharing analysis (Section 4.1).

For an object to be shared it must be read or written by a function spawned
as a thread.  The locations available to such a function are:

- *locals* — not seeds (only shared if their address escapes, which the
  constraint analysis tracks through ``&``),
- *formals* — the thread argument is inherently shared: its pointee seeds
  the analysis as ``dynamic``,
- *globals* — every global touched by any function reachable from a thread
  root is a seed.

Function pointers are resolved by assuming they may alias any function of
the appropriate type, which is sound under the paper's type-safety
assumption.  The initial thread (``main``) participates in sharing through
the same globals, so its accesses to seeded globals are checked too; but
``main`` itself is not a root (a program with no spawns shares nothing).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfront import cast as A
from repro.cfront.ctypes import FuncType, PtrType, QualType
from repro.sharc.defaults import collect_local_decls, function_exprs
from repro.sharc.libc import BUILTINS, is_builtin


@dataclass
class SpawnSite:
    """One ``thread_create(fn, arg)`` call."""

    call: A.Call
    fn_names: list[str]  # resolved thread-root candidates
    arg: A.Expr | None


@dataclass
class SeedInfo:
    """Result of the seeding analysis."""

    thread_roots: set[str] = field(default_factory=set)
    reachable: set[str] = field(default_factory=set)
    touched_globals: set[str] = field(default_factory=set)
    spawn_sites: list[SpawnSite] = field(default_factory=list)
    #: name -> FuncDef for quick lookup
    functions: dict[str, A.FuncDef] = field(default_factory=dict)


def _local_names(func: A.FuncDef) -> set[str]:
    names = set(func.param_names)
    for decl in collect_local_decls(func):
        names.add(decl.name)
    return names


@dataclass
class FuncFacts:
    """Per-function syntactic facts used by the seed computation."""

    direct_calls: set[str] = field(default_factory=set)
    #: shapes of indirect calls (via pointer-typed callees)
    indirect_shapes: set[tuple] = field(default_factory=set)
    globals_touched: set[str] = field(default_factory=set)
    #: functions referenced as values (address taken / stored)
    fn_refs: set[str] = field(default_factory=set)
    spawns: list[SpawnSite] = field(default_factory=list)


def collect_func_facts(program: A.Program, func: A.FuncDef,
                       fn_names: set[str]) -> FuncFacts:
    """Scans one function body for calls, spawns, and global accesses."""
    facts = FuncFacts()
    locals_ = _local_names(func)
    if func.body is None:
        return facts
    for e in function_exprs(func):
        if isinstance(e, A.Call):
            callee = e.callee
            if isinstance(callee, A.Ident):
                name = callee.name
                if is_builtin(name):
                    b = BUILTINS[name]
                    if b.spawn_fn is not None and len(e.args) > b.spawn_fn:
                        fn_expr = e.args[b.spawn_fn]
                        arg_expr = (e.args[b.spawn_arg]
                                    if b.spawn_arg is not None
                                    and len(e.args) > b.spawn_arg else None)
                        if isinstance(fn_expr, A.Ident) and \
                                fn_expr.name in fn_names:
                            roots = [fn_expr.name]
                        else:
                            # Spawn through a pointer: any matching shape.
                            roots = [f.name for f in program.functions()
                                     if _thread_shape(f)]
                        facts.spawns.append(SpawnSite(e, roots, arg_expr))
                elif name in fn_names and name not in locals_:
                    facts.direct_calls.add(name)
                else:
                    # Unknown name: treated as an indirect call through a
                    # variable; shape resolved during inference.
                    pass
            else:
                facts.indirect_shapes.add(("<expr>",))
        elif isinstance(e, A.Ident):
            name = e.name
            if name in locals_ or is_builtin(name):
                continue
            if name in fn_names:
                facts.fn_refs.add(name)
            else:
                facts.globals_touched.add(name)
    return facts


def _thread_shape(func: A.FuncDef) -> bool:
    """True if ``func`` has the thread-entry shape ``void *(void *)``."""
    ftype = func.qtype.base
    if not isinstance(ftype, FuncType) or len(ftype.params) != 1:
        return False
    return (ftype.params[0].is_pointer
            and ftype.ret.is_pointer)


def compute_seeds(program: A.Program) -> SeedInfo:
    """Runs the whole-program seed analysis.

    Indirect calls and function references are handled conservatively: a
    function whose address is taken anywhere is treated as callable from
    any function that performs an indirect call or mentions it.
    """
    info = SeedInfo()
    fn_names = {f.name for f in program.functions()}
    for f in program.functions():
        info.functions[f.name] = f

    facts = {f.name: collect_func_facts(program, f, fn_names)
             for f in program.functions()}

    global_names = {g.name for g in program.globals()}

    # Thread roots: every function passed to thread_create anywhere.
    for fname, fact in facts.items():
        for spawn in fact.spawns:
            info.spawn_sites.append(spawn)
            info.thread_roots.update(spawn.fn_names)

    # Reachability from roots over direct calls + referenced functions.
    # A function whose address escapes inside a reachable function is
    # conservatively reachable (function pointers alias by type).
    worklist = list(info.thread_roots)
    while worklist:
        name = worklist.pop()
        if name in info.reachable or name not in facts:
            continue
        info.reachable.add(name)
        fact = facts[name]
        for callee in fact.direct_calls | fact.fn_refs:
            if callee not in info.reachable:
                worklist.append(callee)

    # Also: functions referenced as values from *anywhere* that match an
    # indirect call performed by a reachable function are reachable.  We
    # over-approximate by adding all fn_refs of reachable functions above;
    # fields holding function pointers are resolved by the inference
    # phase when linking call sites.

    for name in info.reachable:
        info.touched_globals |= facts[name].globals_touched

    return info


def seed_types(program: A.Program, info: SeedInfo) -> list[QualType]:
    """Returns the qualified-type positions that must be ``dynamic``:

    - every unannotated position of a touched global,
    - the pointee (and deeper positions) of each thread root's formal,
    - the pointee of each thread root's return type (the value is handed
      to ``thread_join`` in another thread).
    """
    seeded: list[QualType] = []
    for g in program.globals():
        if g.name in info.touched_globals:
            seeded.extend(g.qtype.walk())
    for root in info.thread_roots:
        func = info.functions.get(root)
        if func is None:
            continue
        ftype = func.qtype.base
        assert isinstance(ftype, FuncType)
        for param in ftype.params:
            if isinstance(param.base, PtrType):
                seeded.extend(param.base.target.walk())
        if isinstance(ftype.ret.base, PtrType):
            seeded.extend(ftype.ret.base.target.walk())
    return seeded
