"""The evaluation-order walk both static discharge tiers run on.

Check elimination (:mod:`repro.sharc.checkelim`) and the lockset
refinement (:mod:`repro.sharc.lockset`) each carry a dataflow state
through a function body in the order ``Interp.eval_expr`` /
``Interp.exec_stmt`` evaluates it.  :class:`EvalWalker` owns that
order — l-values, expressions, statements, branch joins and the
two-pass loop walk — and leaves each tier five hooks: a dynamic access
check, a call (after its callee and arguments are walked), a sharing
cast (after its checks), and loop enter / exit.

A state offers ``copy()`` and an in-place ``meet(other)``, the path
join; the meet is symmetric, so a branch walks one arm on a copy, the
other on the state itself, and meets the two.  A loop body is walked
twice: pass 1 is the straight-line walk, pass 2 re-enters with the
state carried around the back edge, so loop-carried facts (a scan
loop's self-cover, a loop-invariant held lock) are found.  The head is
re-entered from the end of the body and from every ``continue``, so
each continue snapshot is met into the back edge.  The loop is left
from the condition and from every ``break``, so the post-loop state is
the meet of every exit (zero iterations included) and every break
snapshot.
"""

from __future__ import annotations

from repro.cfront import cast as A

#: expressions that evaluate nothing checked (sizeof's operand is never
#: evaluated at runtime)
_INERT = (A.IntLit, A.CharLit, A.FloatLit, A.NullLit, A.StrLit,
          A.SizeofExpr)


class EvalWalker:
    """Evaluation-order walk; subclasses override the hooks."""

    def __init__(self) -> None:
        #: per enclosing loop pass: (continue snapshots, break snapshots)
        self._jumps: list[tuple[list, list]] = []

    # -- hooks ----------------------------------------------------------------

    def check(self, node: A.Expr, info, is_write: bool, st) -> None:
        """One ``dynamic`` check firing at ``node``."""

    def call(self, e: A.Call, st) -> None:
        """A call, after its callee and arguments are walked."""

    def scast(self, e: A.SCastExpr, st) -> None:
        """A sharing cast, after its read and source-write checks."""

    def loop_enter(self, s: A.Stmt) -> None:
        pass

    def loop_exit(self, s: A.Stmt) -> None:
        pass

    # -- expressions ----------------------------------------------------------

    def _access(self, node: A.Expr, attr: str, is_write: bool, st) -> None:
        info = getattr(node, attr)
        if info is not None and info.is_dynamic:
            self.check(node, info, is_write, st)

    def lvalue(self, e: A.Expr, st) -> None:
        """Address computation only: the reads embedded in the address
        expression fire, the node's own access check does not."""
        cls = e.__class__
        if cls is A.Unop and e.op == "*":
            self.expr(e.operand, st)
        elif cls is A.Member:
            if e.arrow:
                self.expr(e.obj, st)
            else:
                self.lvalue(e.obj, st)
        elif cls is A.Index:
            if e.sharc_on_array:
                self.lvalue(e.arr, st)
            else:
                self.expr(e.arr, st)
            self.expr(e.idx, st)

    def expr(self, e, st) -> None:
        if e is None:
            return
        cls = e.__class__
        if cls is A.Ident:
            self._access(e, "sharc_read", False, st)
        elif cls in _INERT:
            return
        elif cls is A.Member or cls is A.Index:
            self.lvalue(e, st)
            self._access(e, "sharc_read", False, st)
        elif cls is A.Unop:
            if e.op == "&":
                self.lvalue(e.operand, st)
            elif e.op == "*":
                self.expr(e.operand, st)
                self._access(e, "sharc_read", False, st)
            elif e.op in ("++", "--"):
                op = e.operand
                self.lvalue(op, st)
                self._access(op, "sharc_read", False, st)
                self._access(op, "sharc_write", True, st)
            else:
                self.expr(e.operand, st)
        elif cls is A.Binop:
            self.expr(e.lhs, st)
            if e.op in ("&&", "||"):
                branch = st.copy()
                self.expr(e.rhs, branch)
                st.meet(branch)
            else:
                self.expr(e.rhs, st)
        elif cls is A.Assign:
            lhs = e.lhs
            if e.op == "=" and lhs.ctype is not None and lhs.ctype.is_struct:
                self.lvalue(e.rhs, st)
                self.lvalue(lhs, st)
                self._access(lhs, "sharc_write", True, st)
                self._access(e.rhs, "sharc_read", False, st)
                return
            self.expr(e.rhs, st)
            self.lvalue(lhs, st)
            if e.op != "=":
                self._access(lhs, "sharc_read", False, st)
            self._access(lhs, "sharc_write", True, st)
        elif cls is A.Call:
            if e.callee.__class__ is not A.Ident:
                self.expr(e.callee, st)
            for arg in e.args:
                self.expr(arg, st)
            self.call(e, st)
        elif cls is A.SCastExpr:
            self.lvalue(e.expr, st)
            self._access(e.expr, "sharc_read", False, st)
            self._access(e, "sharc_src_write", True, st)
            self.scast(e, st)
        elif cls is A.CastExpr:
            self.expr(e.expr, st)
        elif cls is A.CondExpr:
            self.expr(e.cond, st)
            then_st = st.copy()
            self.expr(e.then, then_st)
            self.expr(e.other, st)
            st.meet(then_st)
        elif cls is A.CommaExpr:
            for part in e.parts:
                self.expr(part, st)

    # -- statements -----------------------------------------------------------

    def stmt(self, s, st) -> None:
        if s is None:
            return
        cls = s.__class__
        if cls is A.Compound:
            for sub in s.stmts:
                self.stmt(sub, st)
        elif cls is A.ExprStmt:
            self.expr(s.expr, st)
        elif cls is A.DeclStmt:
            for d in s.decls:
                self.expr(d.init, st)
        elif cls is A.If:
            self.expr(s.cond, st)
            then_st = st.copy()
            self.stmt(s.then, then_st)
            self.stmt(s.other, st)
            st.meet(then_st)
        elif cls is A.While or cls is A.DoWhile or cls is A.For:
            self.loop(s, st)
        elif cls is A.Return:
            self.expr(s.value, st)
        elif (cls is A.Continue or cls is A.Break) and self._jumps:
            # The innermost loop's head (continue) or exit (break) is
            # reached from here; its meet must include this state.
            continues, breaks = self._jumps[-1]
            (continues if cls is A.Continue else breaks).append(st.copy())

    def loop(self, s, st) -> None:
        cls = s.__class__
        self.loop_enter(s)
        if cls is A.For:
            if isinstance(s.init, A.DeclStmt):
                self.stmt(s.init, st)
            else:
                self.expr(s.init, st)
        exits = []
        if cls is not A.DoWhile:
            self.expr(s.cond, st)
            exits.append(st.copy())  # zero-iteration exit
        step = s.step if cls is A.For else None
        for _ in range(2):
            continues, breaks = [], []
            self._jumps.append((continues, breaks))
            self.stmt(s.body, st)
            self._jumps.pop()
            for snap in continues:
                st.meet(snap)
            self.expr(step, st)
            self.expr(s.cond, st)
            exits.append(st.copy())
            exits.extend(breaks)
        # The post-loop state is the meet of every exit (``st`` is the
        # last one already).
        for other in exits:
            st.meet(other)
        self.loop_exit(s)
