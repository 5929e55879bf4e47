"""Random well-typed program generation for the soundness property tests.

Programs are correct by construction: every statement is built from
variables whose declared types satisfy the corresponding Figure 4 rule, so
``typecheck`` accepts them (a property the tests assert) and the machine
can run them under arbitrary schedules.

The generated shapes deliberately exercise the interesting transitions:
globals shared through ``dynamic``, heap cells moving between threads via
``scast``, private cells dereferenced by their owners, and spawns that
overlap thread lifetimes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.formal.lang import (
    Assign, Deref, Global, IntType, Mode, New, Null, Num, Program,
    RefType, Scast, Seq, Skip, Spawn, ThreadDef, Var, seq_of,
)

# The type vocabulary.
D_INT = IntType(Mode.DYNAMIC)
P_INT = IntType(Mode.PRIVATE)
D_REF_D = RefType(Mode.DYNAMIC, D_INT)
P_REF_D = RefType(Mode.PRIVATE, D_INT)
P_REF_P = RefType(Mode.PRIVATE, P_INT)

LOCAL_TYPES = [P_INT, P_REF_D, P_REF_P, D_INT]
GLOBAL_TYPES = [D_INT, D_REF_D]


def gen_program(rng: random.Random, n_threads: int = 3,
                n_stmts: int = 8, n_globals: int = 3,
                n_locals: int = 4) -> Program:
    """One random well-typed program."""
    globals_ = [Global(f"g{i}", rng.choice(GLOBAL_TYPES))
                for i in range(n_globals)]
    thread_names = [f"t{i}" for i in range(n_threads)]
    threads = []
    for i, name in enumerate(thread_names):
        locals_ = [(f"{name}_x{j}", rng.choice(LOCAL_TYPES))
                   for j in range(n_locals)]
        # Worker threads may spawn later workers (never earlier ones, so
        # spawn graphs are acyclic and runs terminate).
        spawnable = thread_names[i + 1:]
        body = _gen_body(rng, globals_, locals_, spawnable, n_stmts)
        threads.append(ThreadDef(name, locals_, body))
    # main spawns a few workers and also runs a body of its own.
    main_locals = [(f"m_x{j}", rng.choice(LOCAL_TYPES))
                   for j in range(n_locals)]
    stmts = [Spawn(rng.choice(thread_names))
             for _ in range(rng.randint(1, max(1, n_threads)))]
    body = _gen_body(rng, globals_, main_locals, thread_names, n_stmts)
    main = ThreadDef("main", main_locals, Seq(seq_of(stmts), body))
    return Program(globals_, threads + [main], main="main")


def _vars_of(pool, wanted) -> list[str]:
    return [name for name, ty in pool if ty == wanted]


def _gen_body(rng: random.Random, globals_, locals_, spawnable,
              n_stmts: int):
    pool = [(g.name, g.type) for g in globals_] + list(locals_)
    stmts = []
    for _ in range(n_stmts):
        stmt = _gen_stmt(rng, pool, locals_, spawnable)
        if stmt is not None:
            stmts.append(stmt)
    return seq_of(stmts) if stmts else Skip()


def _gen_stmt(rng: random.Random, pool, locals_, spawnable):
    choices = ["const", "copy_int", "new", "null", "copy_ref",
               "deref_read", "deref_write", "scast", "spawn"]
    kind = rng.choice(choices)
    int_vars = _vars_of(pool, D_INT) + _vars_of(pool, P_INT)
    if kind == "const" and int_vars:
        return Assign(Var(rng.choice(int_vars)), Num(rng.randint(0, 9)))
    if kind == "copy_int" and len(int_vars) >= 2:
        dst, src = rng.sample(int_vars, 2)
        return Assign(Var(dst), Var(src))
    ref_vars = (_vars_of(pool, D_REF_D) + _vars_of(pool, P_REF_D)
                + _vars_of(pool, P_REF_P))
    if kind == "new" and ref_vars:
        name = rng.choice(ref_vars)
        ty = dict(pool)[name]
        return Assign(Var(name), New(ty.target()))
    if kind == "null" and ref_vars:
        return Assign(Var(rng.choice(ref_vars)), Null())
    if kind == "copy_ref":
        # Same target type required (ASSIGN is invariant below the top).
        to_d = _vars_of(pool, D_REF_D) + _vars_of(pool, P_REF_D)
        if len(to_d) >= 2:
            dst, src = rng.sample(to_d, 2)
            return Assign(Var(dst), Var(src))
    # Deref needs a *private* reference (DEREF rule).
    local_p_ref_d = [n for n, t in locals_ if t == P_REF_D]
    local_p_ref_p = [n for n, t in locals_ if t == P_REF_P]
    if kind == "deref_read" and int_vars and (
            local_p_ref_d or local_p_ref_p):
        src = rng.choice(local_p_ref_d + local_p_ref_p)
        return Assign(Var(rng.choice(int_vars)), Deref(src))
    if kind == "deref_write" and (local_p_ref_d or local_p_ref_p):
        dst = rng.choice(local_p_ref_d + local_p_ref_p)
        return Assign(Deref(dst), Num(rng.randint(0, 9)))
    if kind == "scast":
        # l := scast_{m1 int} x: x : private ref (m2 int) local;
        # l : m ref (m1 int).  Generate both directions:
        #   private ref (private int) := scast[private int] x_prd
        #   (dynamic->private: claim a shared cell)
        #   dyn/private ref (dynamic int) := scast[dynamic int] x_prp
        #   (private->dynamic: publish a private cell)
        direction = rng.choice(["claim", "publish"])
        if direction == "claim":
            srcs = [n for n, t in locals_ if t == P_REF_D]
            dsts = _vars_of(pool, P_REF_P)
            if srcs and dsts:
                return Assign(Var(rng.choice(dsts)),
                              Scast(P_INT, rng.choice(srcs)))
        else:
            srcs = [n for n, t in locals_ if t == P_REF_P]
            dsts = _vars_of(pool, P_REF_D) + _vars_of(pool, D_REF_D)
            if srcs and dsts:
                return Assign(Var(rng.choice(dsts)),
                              Scast(D_INT, rng.choice(srcs)))
    if kind == "spawn" and spawnable:
        return Spawn(rng.choice(spawnable))
    # Fall back to something always possible.
    if int_vars:
        return Assign(Var(rng.choice(int_vars)), Num(rng.randint(0, 9)))
    return None


# -- racy-by-construction programs --------------------------------------------
#
# The exploration engine (repro.explore) needs ground truth: a program
# that *definitely* contains a race, at a *known* location, whose
# detection is schedule-dependent.  gen_racy_program injects one into an
# otherwise well-typed random program and reports where it put it.


@dataclass(frozen=True)
class RaceSpec:
    """Where the injected race lives — the oracle the exploration tests
    match detector reports against."""

    #: "write-write" (two unsynchronized writes to a dynamic cell) or
    #: "lock-elision" (the cell is lock-protected but one thread skips
    #: the lock — only meaningful once rendered to mini-C, where locks
    #: exist; the formal program is identical to the write-write one)
    kind: str
    #: name of the racy dynamic int global
    global_name: str
    #: the two racing thread names
    threads: tuple[str, str]
    #: the values each injected write stores (distinct, for debugging)
    values: tuple[int, int]

    def matches_key(self, key: str) -> bool:
        """Same test against an interp ``report_counts`` key
        (``"<kind> <lvalue>@<line>"`` — the kind is multi-word, e.g.
        ``"write conflict"``, and lvalues never contain spaces)."""
        lvalue = key.rsplit("@", 1)[0].split()[-1]
        return lvalue == self.global_name

    def as_dict(self) -> dict:
        return {"kind": self.kind, "global": self.global_name,
                "threads": list(self.threads),
                "values": list(self.values)}

    @staticmethod
    def from_dict(data: dict) -> "RaceSpec":
        return RaceSpec(kind=data["kind"], global_name=data["global"],
                        threads=tuple(data["threads"]),
                        values=tuple(data["values"]))


def inject_races(rng: random.Random, program: Program,
                 kinds: "list[str] | tuple[str, ...]",
                 ) -> tuple[Program, tuple[RaceSpec, ...]]:
    """Injects one race per entry of ``kinds`` into ``program``.

    Each race is a fresh ``dynamic int`` global written once by each of
    two sampled worker threads; main spawns every racing thread up front
    so their lifetimes can overlap under *some* schedule.  For a single
    ``"write-write"``/``"lock-elision"`` entry the rng consumption is
    exactly what :func:`gen_racy_program` always drew, so seeded
    programs are unchanged.
    """
    victims = [t.name for t in program.threads if t.name != "main"]
    if len(victims) < 2:
        raise ValueError("need at least two worker threads to race")
    globals_ = list(program.globals)
    specs: list[RaceSpec] = []
    #: thread name -> statements to inject, in race order
    plan: dict[str, list] = {}
    for kind in kinds:
        if kind not in ("write-write", "lock-elision"):
            raise ValueError(f"unknown race kind {kind!r}")
        racy_name = f"race{len(globals_)}"
        globals_.append(Global(racy_name, IntType(Mode.DYNAMIC)))
        first, second = rng.sample(victims, 2)
        values = (rng.randint(10, 49), rng.randint(50, 99))
        plan.setdefault(first, []).append(
            Assign(Var(racy_name), Num(values[0])))
        plan.setdefault(second, []).append(
            Assign(Var(racy_name), Num(values[1])))
        specs.append(RaceSpec(kind=kind, global_name=racy_name,
                              threads=(first, second), values=values))
    spawn_first: list[str] = []
    for spec in specs:
        for name in spec.threads:
            if name not in spawn_first:
                spawn_first.append(name)
    threads: list[ThreadDef] = []
    for tdef in program.threads:
        body = tdef.body
        if tdef.name == "main":
            # Spawns may duplicate main's own random spawns; extra
            # instances only add interleavings.
            for name in reversed(spawn_first):
                body = Seq(Spawn(name), body)
        else:
            for stmt in plan.get(tdef.name, ()):
                body = _inject(rng, body, stmt)
        threads.append(ThreadDef(tdef.name, list(tdef.locals), body))
    return Program(globals_, threads, main=program.main), tuple(specs)


def gen_racy_program(rng: random.Random, kind: str = "write-write",
                     n_threads: int = 3, n_stmts: int = 8,
                     n_globals: int = 3, n_locals: int = 4,
                     ) -> tuple[Program, RaceSpec]:
    """A random well-typed program with one injected race.

    The race: a fresh ``dynamic int`` global written once by each of two
    worker threads, both spawned by main before its own body runs, with
    random filler statements around the writes.  Whether a dynamic
    detector *observes* the conflict depends entirely on the
    interleaving — under the ``serial`` policy the two writes never
    overlap; under schedule sweeps they frequently do.  That gap is the
    exploration engine's reason to exist.
    """
    if kind not in ("write-write", "lock-elision"):
        raise ValueError(f"unknown race kind {kind!r}")
    n_threads = max(2, n_threads)
    program = gen_program(rng, n_threads=n_threads, n_stmts=n_stmts,
                          n_globals=n_globals, n_locals=n_locals)
    racy_program, specs = inject_races(rng, program, [kind])
    return racy_program, specs[0]


def _flatten(stmt) -> list:
    """Seq tree -> statement list (inverse of seq_of)."""
    if isinstance(stmt, Seq):
        return _flatten(stmt.first) + _flatten(stmt.second)
    if isinstance(stmt, Skip):
        return []
    return [stmt]


def _inject(rng: random.Random, body, stmt):
    """Inserts ``stmt`` at a random position in ``body``."""
    stmts = _flatten(body)
    stmts.insert(rng.randint(0, len(stmts)), stmt)
    return seq_of(stmts)
