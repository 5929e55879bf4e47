"""Static check elimination: discharge dynamic checks before they run.

Each ``chkread``/``chkwrite`` costs a shadow walk; this pass makes
them *rarer*, the standard lever of lightweight static race analyses
(RacerF; Miné's static analysis of embedded parallel C).  Two
transformations, both driven by the evaluation-order walk it shares
with the lockset refinement (:class:`repro.sharc.evalwalk.EvalWalker`):

- **Redundant-check elimination** (``AccessInfo.elide``): a check is
  marked when a previous check of the same lvalue, at least as strong
  (a write check covers a later read check), reaches it on every path
  with no intervening *yield point* — calls (which may spawn, lock, or
  run library summaries) and sharing casts (which reset granule
  bitmaps) are the kill points.
  Loop bodies are walked twice so covers carried around the back-edge
  (``h[i]`` in a scan loop covering itself) are found; the back-edge
  state is met with every ``continue`` point and the post-loop state
  with every ``break`` point, so a cover survives a loop only if it
  holds on every path that leaves it.

- **Range-walk marking** (``AccessInfo.range_walk``): an indexed
  access inside a call-free loop whose index variable is monotonically
  stepped is routed through the range-batched
  ``ShadowMemory.chkread_range``/``chkwrite_range`` APIs, which hoist
  the page lookup out of the per-granule walk.

Soundness is *not* this pass's burden, by design.  The scheduler may
preempt a thread at any yield and another thread may mutate the shadow
state between two statically adjacent checks, so a purely static
elision could change which conflicts are observed.  Instead every
``elide`` mark is guarded at runtime by ``ShadowMemory.recheck`` — the
exact cache-hit prefix of the full check — so an elided check either
replays precisely the fast path the full check would have taken (same
cost, same counters, no conflict possible) or falls back to the full
check.  Runs with the interpreter's ``static`` switch on and off are
therefore bit-identical in reports, step counts, and scheduler RNG;
the marks only decide how often the cheap guard gets to answer
first.  The pass can accordingly mark aggressively: a wrong
(never-hitting) mark costs one predicate test, not a missed race.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfront import cast as A
from repro.sharc.evalwalk import EvalWalker

#: cover strength: a read check proves the thread's read bit is set, a
#: write check proves exclusive ownership (which covers later reads too)
_READ, _WRITE = 1, 2


@dataclass
class ElimStats:
    """Census of statically discharged check sites."""

    elided_reads: int = 0
    elided_writes: int = 0
    range_reads: int = 0
    range_writes: int = 0

    @property
    def elided(self) -> int:
        return self.elided_reads + self.elided_writes

    @property
    def ranges(self) -> int:
        return self.range_reads + self.range_writes

    def summary(self) -> str:
        return (f"checkelim: {self.elided} elidable check site(s) "
                f"({self.elided_reads} read, {self.elided_writes} "
                f"write), {self.ranges} range-walk site(s)")


def mark_elisions(program: A.Program) -> ElimStats:
    """Annotates every function's checked accesses in place."""
    stats = ElimStats()
    walker = _Walker(stats)
    for func in program.functions():
        if func.body is not None:
            walker.stmt(func.body, _Covers())
    return stats


class _Covers(dict):
    """``lvalue text -> cover strength``."""

    def copy(self) -> "_Covers":
        return _Covers(self)

    def meet(self, other: dict) -> None:
        """Path join: a cover survives only at the weaker of its
        strengths on the two paths (absent = strength 0 = dropped)."""
        for key, strength in list(self.items()):
            theirs = other.get(key, 0)
            if not theirs:
                del self[key]
            elif theirs < strength:
                self[key] = theirs


def _idents(e: A.Expr) -> set:
    return {sub.name for sub in A.walk_expr(e)
            if sub.__class__ is A.Ident}


class _Walker(EvalWalker):
    """Cover marking over the shared evaluation-order walk.  Calls (which
    may spawn, lock, run a library read/write summary, or touch the
    shadow version) and sharing casts (which reset the object's granule
    bitmaps) are yield points that clear every cover."""

    def __init__(self, stats: ElimStats) -> None:
        super().__init__()
        self.stats = stats

    def check(self, node: A.Expr, info, is_write: bool,
              st: _Covers) -> None:
        """One runtime check firing at ``node``: mark it elidable if a
        covering check reaches it, then record its own cover."""
        need = _WRITE if is_write else _READ
        key = info.lvalue_text
        if st.get(key, 0) >= need:
            if not info.elide:
                info.elide = True
                if is_write:
                    self.stats.elided_writes += 1
                else:
                    self.stats.elided_reads += 1
        else:
            st[key] = need

    def call(self, e, st: _Covers) -> None:
        st.clear()

    scast = call

    def loop_exit(self, s) -> None:
        self._mark_ranges(s.body, getattr(s, "step", None))

    # -- range-walk detection -------------------------------------------------

    def _mark_ranges(self, body, step) -> None:
        """Marks indexed accesses of a monotone, call-free loop for the
        range-batched check APIs."""
        exprs = list(A.all_exprs(body))
        if step is not None:
            exprs.extend(A.walk_expr(step))
        for e in exprs:
            if e.__class__ in (A.Call, A.SCastExpr):
                return
        stepped = set()
        for e in exprs:
            cls = e.__class__
            if cls is A.Unop and e.op in ("++", "--") \
                    and e.operand.__class__ is A.Ident:
                stepped.add(e.operand.name)
            elif cls is A.Assign and e.lhs.__class__ is A.Ident:
                if e.op in ("+=", "-="):
                    stepped.add(e.lhs.name)
                elif e.op == "=" and e.rhs.__class__ is A.Binop \
                        and e.rhs.op in ("+", "-") \
                        and e.lhs.name in _idents(e.rhs):
                    stepped.add(e.lhs.name)
        if not stepped:
            return
        for e in exprs:
            if e.__class__ is not A.Index:
                continue
            if not (_idents(e.idx) & stepped):
                continue
            for attr, is_write in (("sharc_read", False),
                                   ("sharc_write", True)):
                info = getattr(e, attr)
                if info is None or not info.is_dynamic or info.range_walk:
                    continue
                info.range_walk = True
                if is_write:
                    self.stats.range_writes += 1
                else:
                    self.stats.range_reads += 1
