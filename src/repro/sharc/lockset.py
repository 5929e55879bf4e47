"""Static lockset analysis: must-held locks + `locked(l)` refinement.

SharC's inference (Section 4.1) marks every possibly-shared location
``dynamic``, pushing all of its accesses onto the runtime checker; the
paper's users recover performance by hand-annotating ``locked(l)``.
This pass recovers a large slice of those annotations automatically, in
the style of lightweight whole-program lockset analyses for C (RacerF;
Mine's static analysis of concurrent embedded C): for every abstract
location the seed analysis marks possibly-shared, compute the
intersection of the lock sets that *must* be held across all of its
accesses.

The analysis is flow-insensitive in the heap but tracks lock context
flow-sensitively through each function body, interprocedurally, on the
evaluation-order walk it shares with check elimination
(:class:`repro.sharc.evalwalk.EvalWalker`: ``continue`` edges meet into
the loop back edge, ``break`` edges into the loop exit):

1. **Relative summaries** — every function gets a summary describing
   its effect on an incoming held-lock set ``H`` as
   ``H' = (H - minus) | plus`` (plus a taint flag for unknown lock
   operations), composed over direct calls to a fixpoint.
2. **Entry sets** — concrete must-held-at-entry sets, seeded empty at
   ``main`` and every thread root, met (set intersection) over all
   call sites to a fixpoint.
3. **Recording** — one walk per reachable function records, for every
   dynamic-checked access of a *nameable* location (globals, global
   array elements, struct fields), the named locks surely held there.

Locks are tracked by name only when the argument of an acquire/release
is ``&g`` or ``g`` for a program global ``g``; anything else (locks
through pointers, trylocks, reader-writer locks) raises the *taint*
flag for that context.  Taint is per-context, not a global top: it
flows through call chains (callee summaries, call sites) where it can
suppress static race reports, but it never adds a named lock and
never leaks into the must-held summaries of functions outside the
tainted call chain.

Two consumers:

- **Qualifier refinement**: a location whose accesses share a
  non-empty named lock intersection keeps its ``dynamic`` mode but has
  every access's ``refined_lock`` set to the chosen lock.  The
  interpreter may then discharge such a check through the held-lock
  log + ``ShadowMemory.recheck`` guard instead of a shadow-bitmap
  walk.  Exactly like check elimination, the runtime guard makes a
  wrong mark cost one lookup rather than a missed race, so runs are
  bit-identical in reports, step counts, and scheduler RNG with the
  ``--no-static`` ablation.
- **Static race reports**: a location with a write, accesses from two
  thread contexts, an *empty* lock intersection, and no taint is
  reported as a compile-time ``static-race`` diagnostic carrying both
  access sites — found with zero dynamic execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cfront import cast as A
from repro.errors import DiagKind, Diagnostic, Loc, Severity
from repro.sharc.evalwalk import EvalWalker
from repro.sharc.libc import is_builtin
from repro.sharc.seeds import SeedInfo
from repro.sharc.typecheck import AccessInfo

#: builtin names that acquire / release the mutex named by argument 0.
ACQUIRES = frozenset({"mutex_lock", "mutexLock", "pthread_mutex_lock"})
RELEASES = frozenset({"mutex_unlock", "mutexUnlock",
                      "pthread_mutex_unlock"})
#: condition wait re-acquires its mutex before returning: lock-neutral.
COND_WAITS = frozenset({"cond_wait", "condWait", "pthread_cond_wait"})
#: operations that may leave an unnamed lock held (or released): the
#: taint top element.  Trylock success is data-dependent; rwlocks use a
#: separate runtime discipline this pass does not model.
TAINTING = frozenset({"mutex_trylock", "rwlock_rdlock", "rwlock_wrlock",
                      "rwlock_unlock"})
SPAWNS = frozenset({"thread_create"})


def _lock_name(arg: Optional[A.Expr],
               global_names: frozenset) -> Optional[str]:
    """The canonical name of a lock argument: ``&g`` or ``g`` for a
    program global ``g``; ``None`` for anything fancier."""
    if arg is None:
        return None
    if arg.__class__ is A.Unop and arg.op == "&":
        arg = arg.operand
    if arg.__class__ is A.Ident and arg.name in global_names:
        return arg.name
    return None


def loc_key(node: A.Expr, global_names: frozenset) -> Optional[tuple]:
    """Abstract location of one checked l-value occurrence.

    ``("global", g)`` for globals and global arrays (element accesses
    collapse onto the array), ``("field", struct, field)`` for struct
    members.  Locals and unresolvable derefs return ``None`` — skipped
    locations are only ever missed refinements / missed race reports,
    never wrong ones.
    """
    cls = node.__class__
    if cls is A.Ident:
        if node.name in global_names:
            return ("global", node.name)
        return None
    if cls is A.Index:
        if node.sharc_on_array:
            return loc_key(node.arr, global_names)
        return None
    if cls is A.Member:
        struct = node.sharc_struct
        if struct is not None:
            return ("field", struct, node.name)
        return None
    return None


def key_text(key: tuple) -> str:
    if key[0] == "global":
        return key[1]
    return f"{key[1]}.{key[2]}"


class _LockState:
    """Held-lock state, usable both relatively and concretely.

    Relative reading (phase 1): applying the state to an incoming held
    set ``H`` yields ``(H - minus) | plus`` (``kill_all``: minus is
    every lock).  Concrete reading (phases 2-3): start from
    ``plus = entry set`` and simply never consult ``minus``.
    """

    __slots__ = ("minus", "plus", "kill_all", "taint")

    def __init__(self, minus=(), plus=(), kill_all=False, taint=False):
        self.minus = set(minus)
        self.plus = set(plus)
        self.kill_all = kill_all
        self.taint = taint

    def copy(self) -> "_LockState":
        return _LockState(self.minus, self.plus, self.kill_all,
                          self.taint)

    def acquire(self, name: str) -> None:
        self.plus.add(name)
        self.minus.discard(name)

    def release(self, name: str) -> None:
        self.plus.discard(name)
        if not self.kill_all:
            self.minus.add(name)

    def release_unknown(self) -> None:
        """An unresolvable unlock may release anything — but erasing
        the named held set here would let one pointer-typed unlock in
        a callee wipe every caller's must-held summary, and the
        untainted empty lockset then reports the caller's
        consistently-locked accesses as static races.  Instead the
        named locks stay and the *context* is tainted: taint flows
        through the call chain (summaries, call sites) and suppresses
        race reports there, while unrelated functions keep their
        summaries; a refinement kept alive by a lock this unlock in
        fact released costs one guarded runtime lookup, never a
        missed race."""
        self.taint = True

    def apply(self, s: "Summary") -> None:
        """Composes a callee's summary onto this state."""
        if s.kill_all:
            self.plus = set(s.plus)
            self.minus.clear()
            self.kill_all = True
        else:
            self.plus = (self.plus - s.minus) | s.plus
            if not self.kill_all:
                self.minus |= s.minus
        self.taint = self.taint or s.taint

    def meet(self, other: "_LockState") -> None:
        """Path join: a lock is surely held only if held on both."""
        self.plus &= other.plus
        if other.kill_all:
            self.kill_all = True
            self.minus.clear()
        elif not self.kill_all:
            self.minus |= other.minus
        self.taint = self.taint or other.taint

    def freeze(self) -> "Summary":
        return Summary(frozenset(self.minus), frozenset(self.plus),
                       self.kill_all, self.taint)


@dataclass(frozen=True)
class Summary:
    """One function's relative lock effect (see :class:`_LockState`)."""

    minus: frozenset = frozenset()
    plus: frozenset = frozenset()
    kill_all: bool = False
    taint: bool = False


@dataclass
class AccessSite:
    """One dynamic-checked access of a nameable location, with the
    named locks surely held when it executes.  Loop bodies are walked
    twice; revisits intersect ``held`` (loop-invariant locks survive)
    and accumulate ``tainted``."""

    key: tuple
    func: str
    loc: Loc
    is_write: bool
    held: set
    tainted: bool
    lvalue: str
    info: AccessInfo


@dataclass
class LocationInfo:
    """Everything the analysis learned about one abstract location."""

    key: tuple
    sites: list = field(default_factory=list)

    @property
    def text(self) -> str:
        return key_text(self.key)

    @property
    def lockset(self) -> frozenset:
        """Intersection of named locks held over every access."""
        sets = [site.held for site in self.sites]
        out = set(sets[0]) if sets else set()
        for s in sets[1:]:
            out &= s
        return frozenset(out)

    @property
    def tainted(self) -> bool:
        return any(site.tainted for site in self.sites)

    @property
    def writes(self) -> int:
        return sum(1 for s in self.sites if s.is_write)

    @property
    def reads(self) -> int:
        return len(self.sites) - self.writes


@dataclass
class Refinement:
    """One location refined from inferred ``dynamic`` to ``locked(l)``
    checking."""

    key: tuple
    lock: str
    sites: int
    reads: int
    writes: int
    first_loc: Loc

    @property
    def text(self) -> str:
        return key_text(self.key)

    def render(self) -> str:
        return (f"lockset: refined '{self.text}' to locked({self.lock})"
                f" — {self.sites} access site(s), {self.reads} read / "
                f"{self.writes} write (first at {self.first_loc})")


@dataclass
class LocksetResult:
    """Output of :func:`analyze_locksets`."""

    summaries: dict = field(default_factory=dict)
    #: must-held set at function entry; functions never reached from
    #: ``main`` or a thread root are absent.
    entries: dict = field(default_factory=dict)
    locations: dict = field(default_factory=dict)
    refinements: list = field(default_factory=list)
    #: compile-time race findings (STATIC_RACE warnings); kept out of
    #: the error sink so they never flip ``CheckedProgram.ok``.
    races: list = field(default_factory=list)
    #: thread roots spawned more than once (>=2 sites, or in a loop).
    multi_spawned: frozenset = frozenset()
    #: functions whose summary or entry set was still changing when its
    #: fixpoint ran out of rounds, and so fell back to a sound default
    unconverged: tuple = ()

    @property
    def refined_sites(self) -> int:
        return sum(r.sites for r in self.refinements)

    @property
    def race_keys(self) -> list:
        """Stable machine keys for the static findings, comparable
        against the dynamic checkers' report keys."""
        return sorted({f"static-race {d.message_key}" for d in self.races}
                      ) if self.races else []

    def report_lines(self) -> list:
        lines = [r.render() for r in self.refinements]
        lines.extend(str(d) for d in self.races)
        return lines

    def summary(self) -> str:
        return (f"lockset: {len(self.refinements)} location(s) refined "
                f"to locked ({self.refined_sites} check site(s)), "
                f"{len(self.races)} static race(s)")


@dataclass
class StaticRace:
    """A compile-time race finding with both access sites."""

    key: tuple
    write: AccessSite
    other: AccessSite
    contexts: tuple

    @property
    def text(self) -> str:
        return key_text(self.key)

    def diagnostic(self) -> Diagnostic:
        diag = Diagnostic(
            DiagKind.STATIC_RACE,
            f"possible data race on '{self.text}': written with no "
            "consistent lock held",
            self.write.loc, Severity.WARNING,
            [f"write in '{self.write.func}' at {self.write.loc}",
             (f"conflicting "
              f"{'write' if self.other.is_write else 'read'} in "
              f"'{self.other.func}' at {self.other.loc}"),
             "thread contexts: " + ", ".join(self.contexts)])
        # Stable key used by the differential sweep to line static
        # findings up against dynamic report keys.
        diag.message_key = f"{self.text}@{self.write.loc.line}"
        return diag


class _Walker(EvalWalker):
    """Held-lock tracking over the shared evaluation-order walk."""

    def __init__(self, global_names: frozenset, defined: dict,
                 summaries: dict) -> None:
        super().__init__()
        self.global_names = global_names
        self.defined = defined            # name -> FuncDef (has body)
        self.summaries = summaries        # name -> Summary
        #: direct defined callees seen (filled in every walk)
        self.calls: set = set()
        # recording-mode hooks (phase 2/3); None in summary mode
        self.on_call: Optional[callable] = None      # (name, held_state)
        self.on_access: Optional[callable] = None    # (node, info, is_w, st)
        self.on_spawn: Optional[callable] = None     # (call, loop_depth)
        self.loop_depth = 0

    def check(self, node: A.Expr, info, is_write: bool,
              st: _LockState) -> None:
        if self.on_access is not None:
            self.on_access(node, info, is_write, st)

    def loop_enter(self, s) -> None:
        self.loop_depth += 1

    def loop_exit(self, s) -> None:
        self.loop_depth -= 1

    def call(self, e: A.Call, st: _LockState) -> None:
        if e.callee.__class__ is not A.Ident:
            st.taint = True  # an indirect callee may lock anything
            return
        name = e.callee.name
        if name in ACQUIRES:
            lock = _lock_name(e.args[0] if e.args else None,
                              self.global_names)
            if lock is not None:
                st.acquire(lock)
            else:
                st.taint = True
            return
        if name in RELEASES:
            lock = _lock_name(e.args[0] if e.args else None,
                              self.global_names)
            if lock is not None:
                st.release(lock)
            else:
                st.release_unknown()
            return
        if name in COND_WAITS:
            return
        if name in TAINTING:
            st.taint = True
            return
        if name in SPAWNS:
            if self.on_spawn is not None:
                self.on_spawn(e, self.loop_depth)
            return
        if name in self.defined:
            self.calls.add(name)
            if self.on_call is not None:
                self.on_call(name, st)
            st.apply(self.summaries.get(name, Summary()))
            return
        if not is_builtin(name):
            # An undefined function could do anything with locks.
            st.taint = True


def _compute_summaries(walker: _Walker, funcs: list,
                       rounds: Optional[int] = None) -> tuple:
    """Phase 1: relative (minus, plus, taint) summaries to fixpoint.
    Returns the summaries and the names forced to top."""
    summaries = {f.name: Summary() for f in funcs}
    calls: dict = {}
    walker.summaries = summaries
    if rounds is None:
        rounds = 2 * len(funcs) + 4
    last_changed: set = set()
    unstable: set = set()
    for round_ in range(rounds):
        last_changed = set()
        for func in funcs:
            walker.calls = set()
            st = _LockState()
            walker.stmt(func.body, st)
            calls[func.name] = walker.calls
            new = st.freeze()
            if new != summaries[func.name]:
                summaries[func.name] = new
                last_changed.add(func.name)
        if not last_changed:
            break
    else:
        # Did not converge (deep mutual recursion): give up soundly —
        # but only on the functions still oscillating and their
        # transitive callers, whose summaries were computed against
        # stale callee values.  Unrelated functions keep their stable
        # summaries instead of the whole program collapsing to top.
        callers: dict = {}
        for caller, callees in calls.items():
            for callee in callees:
                callers.setdefault(callee, set()).add(caller)
        worklist = list(last_changed)
        while worklist:
            name = worklist.pop()
            if name in unstable:
                continue
            unstable.add(name)
            worklist.extend(callers.get(name, ()))
        for name in unstable:
            summaries[name] = Summary(kill_all=True, taint=True)
    walker.func_calls = calls
    return summaries, tuple(sorted(unstable))


def analyze_locksets(program: A.Program,
                     seeds: SeedInfo) -> LocksetResult:
    """Runs the whole-program analysis and writes refinement marks back
    onto the typechecker's :class:`AccessInfo` records in place."""
    result = LocksetResult()
    funcs = program.functions()
    if not funcs:
        return result
    global_names = frozenset(g.name for g in program.globals())
    defined = {f.name: f for f in funcs}
    walker = _Walker(global_names, defined, {})

    result.summaries, result.unconverged = _compute_summaries(walker, funcs)
    walker.summaries = result.summaries

    # Phase 2: concrete must-held entry sets, met over call sites.
    entries: dict = {}
    for root in set(seeds.thread_roots) | {"main"}:
        if root in defined:
            entries[root] = frozenset()
    for _ in range(2 * len(funcs) + 4):
        changed: set = set()
        for func in funcs:
            entry = entries.get(func.name)
            if entry is None:
                continue

            def meet_entry(name, st, _entries=entries):
                held = frozenset(st.plus)
                old = _entries.get(name)
                new = held if old is None else old & held
                if new != old:
                    _entries[name] = new
                    changed.add(name)

            walker.on_call = meet_entry
            walker.stmt(func.body, _LockState(plus=entry))
        walker.on_call = None
        if not changed:
            break
    else:
        # Still shrinking: nothing is known held on any entry.
        result.unconverged = tuple(sorted(changed.union(
            result.unconverged)))
        entries = dict.fromkeys(entries, frozenset())
    result.entries = entries

    # Phase 3: one recording pass per reachable function.
    sites: dict = {}          # id(info) -> AccessSite
    spawn_weight: dict = {}   # root name -> spawn multiplicity

    def record(node, info, is_write, st):
        key = loc_key(node, global_names)
        if key is None:
            return
        site = sites.get(id(info))
        if site is not None:
            site.held &= st.plus
            site.tainted = site.tainted or st.taint
            site.is_write = site.is_write or is_write
            return
        sites[id(info)] = AccessSite(
            key, walker._current_func, info.loc, is_write,
            set(st.plus), st.taint, info.lvalue_text, info)

    def spawn(call, loop_depth):
        weight = 2 if loop_depth > 0 else 1
        fn_expr = call.args[0] if call.args else None
        if fn_expr is not None and fn_expr.__class__ is A.Ident \
                and fn_expr.name in defined:
            roots = [fn_expr.name]
        else:
            roots = list(seeds.thread_roots)  # spawn through a pointer
        for root in roots:
            spawn_weight[root] = spawn_weight.get(root, 0) + weight

    walker.on_access = record
    walker.on_spawn = spawn
    for func in funcs:
        entry = entries.get(func.name)
        if entry is None:
            continue  # unreachable from main and every thread root
        walker._current_func = func.name
        walker.stmt(func.body, _LockState(plus=entry))
    walker.on_access = None
    walker.on_spawn = None
    result.multi_spawned = frozenset(
        name for name, w in spawn_weight.items() if w >= 2)

    for site in sites.values():
        result.locations.setdefault(
            site.key, LocationInfo(site.key)).sites.append(site)

    # Consumer 1: qualifier refinement.
    for key in sorted(result.locations):
        info = result.locations[key]
        lockset = info.lockset
        if not lockset:
            continue
        lock = sorted(lockset)[0]
        if lock not in global_names:
            continue  # refined checks resolve the lock as a global
        for site in info.sites:
            site.info.refined_lock = lock
        result.refinements.append(Refinement(
            key, lock, len(info.sites), info.reads, info.writes,
            min((s.loc for s in info.sites),
                key=lambda loc: (loc.line, loc.col))))

    # Consumer 2: static race reports.
    reach = _per_root_reachability(walker.func_calls, defined,
                                   set(seeds.thread_roots) | {"main"})
    for key in sorted(result.locations):
        info = result.locations[key]
        race = _find_race(info, reach, result.multi_spawned)
        if race is not None:
            result.races.append(race.diagnostic())
    return result


def _per_root_reachability(func_calls: dict, defined: dict,
                           roots: set) -> dict:
    """``func name -> frozenset of roots that can reach it`` over the
    direct-call graph (reflexively)."""
    reached_by: dict = {name: set() for name in defined}
    for root in roots:
        if root not in defined:
            continue
        worklist, seen = [root], set()
        while worklist:
            name = worklist.pop()
            if name in seen:
                continue
            seen.add(name)
            reached_by[name].add(root)
            worklist.extend(func_calls.get(name, ()))
    # Thread roots are also conservatively reachable through spawn-by-
    # pointer from anywhere; their own bodies always run in their root.
    return {name: frozenset(val) for name, val in reached_by.items()}


def _find_race(info: LocationInfo, reach: dict,
               multi_spawned: frozenset) -> Optional[StaticRace]:
    """A location races statically when it is written, two thread
    contexts can access it, its named lockset is empty, and no access
    is tainted by an unknown lock operation."""
    if info.lockset or info.tainted or not info.writes:
        return None
    contexts = set()
    write_contexts = set()
    for site in info.sites:
        roots = reach.get(site.func, frozenset())
        # A thread root's own body runs in that thread even if no
        # direct call edge leads to it.
        contexts |= roots
        if site.is_write:
            write_contexts |= roots
    if not write_contexts:
        return None
    # "main" alone cannot race; a single root can only race against a
    # second instance of itself.
    two_threads = (len(contexts) >= 2
                   or bool(contexts & multi_spawned))
    if not two_threads or contexts == {"main"}:
        return None
    write = next(s for s in info.sites if s.is_write)
    other = next((s for s in info.sites
                  if reach.get(s.func, frozenset()) - reach.get(
                      write.func, frozenset())), None)
    if other is None:
        other = next((s for s in info.sites if s is not write), write)
    return StaticRace(info.key, write, other, tuple(sorted(contexts)))
