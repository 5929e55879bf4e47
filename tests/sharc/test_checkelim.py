"""Tests for the static check eliminator (:mod:`repro.sharc.checkelim`).

These pin the *marking* behaviour: which dynamic checks get the
``elide`` hint, which array walks get the ``range`` hint, and what the
instrumented listing shows for both.  The run-time half — that consuming
the marks never changes reports, steps, or scheduling — is the identity
oracle's (``tests/runtime/test_identity_oracle.py``)."""

from repro.cfront import cast as A
from repro.sharc.checkelim import mark_elisions
from tests.conftest import check_ok


def _marks(checked):
    """(elided lvalues, range lvalues) actually attached to the AST."""
    elided, ranged = [], []
    for func in checked.program.functions():
        for e in A.all_exprs(func.body):
            for attr in ("sharc_read", "sharc_write"):
                info = getattr(e, attr, None)
                if info is None:
                    continue
                if info.elide:
                    elided.append(info.lvalue_text)
                if info.range_walk:
                    ranged.append(info.lvalue_text)
    return elided, ranged


def _prog(body: str) -> str:
    # The globals must really be cross-thread shared, or inference gives
    # them a static mode and no dynamic checks exist to elide.
    return f"""
    int g = 0;
    int h = 0;
    int buf[64];
    void helper() {{ }}
    void *w(void *a) {{
      int x; int i;
      {body}
      return NULL;
    }}
    int main() {{
      int t1 = thread_create(w, NULL);
      int t2 = thread_create(w, NULL);
      thread_join(t1);
      thread_join(t2);
      return 0;
    }}
    """


class TestRedundantCheckElision:
    def test_second_read_of_same_lvalue_is_elided(self):
        checked = check_ok(_prog("x = g; x = x + g;"))
        elided, _ = _marks(checked)
        assert elided == ["g"]
        assert checked.elim_stats.elided_reads == 1

    def test_call_between_checks_blocks_elision(self):
        # A call is a yield point: another thread may mutate the shadow
        # state before the second read executes.
        checked = check_ok(_prog("x = g; helper(); x = x + g;"))
        elided, _ = _marks(checked)
        assert elided == []

    def test_write_covers_a_later_read(self):
        checked = check_ok(_prog("g = 1; x = g;"))
        elided, _ = _marks(checked)
        assert "g" in elided
        assert checked.elim_stats.elided_reads >= 1

    def test_read_does_not_cover_a_later_write(self):
        # chkread only proves read permission; the write still needs the
        # full writer-bit check.
        checked = check_ok(_prog("x = g; g = 1;"))
        assert checked.elim_stats.elided_writes == 0

    def test_checks_of_different_lvalues_are_independent(self):
        checked = check_ok(_prog("x = g; x = x + h;"))
        elided, _ = _marks(checked)
        assert elided == []

    def test_branch_meet_requires_both_arms(self):
        both = check_ok(_prog(
            "if (x) { x = g; } else { x = g + 1; } x = x + g;"))
        one = check_ok(_prog(
            "if (x) { x = g; } else { x = 1; } x = x + g;"))
        assert _marks(both)[0] == ["g"]
        assert _marks(one)[0] == []

    def test_loop_carried_cover_found_on_second_pass(self):
        # buf[i] = buf[i] + 1: iteration n's write covers iteration
        # n+1's read of the *textually* same lvalue — the runtime
        # recheck guard is what makes that safe when i moved.
        checked = check_ok(_prog(
            "for (i = 0; i < 8; i++) buf[i] = buf[i] + 1;"))
        assert checked.elim_stats.elided_reads >= 1

    def test_break_snapshot_meets_into_the_loop_exit(self):
        # A break leaves the loop with the state at the break, so the
        # post-loop state is the meet of every exit and every break
        # snapshot: the g cover holds on all of them here and survives.
        with_break = check_ok(_prog(
            "x = g; while (x) { if (h) break; x = x - 1; } x = x + g;"))
        without = check_ok(_prog(
            "x = g; while (x) { x = x - 1; } x = x + g;"))
        assert "g" in _marks(with_break)[0]
        assert "g" in _marks(without)[0]

    def test_break_path_kill_reaches_the_loop_exit(self):
        # A call on the break path kills the g cover on that exit, so
        # the post-loop read of g is not elided.
        killed = check_ok(_prog(
            "x = g; while (x) { if (h) { helper(); break; } x = x - 1; }"
            " x = x + g;"))
        assert "g" not in _marks(killed)[0]

    def test_post_break_elision_runs_bit_identical(self):
        from repro.runtime.interp import run_checked

        checked = check_ok(_prog(
            "x = g; while (x) { if (h) break; x = x - 1; } x = x + g;"))
        post_loop = [e for func in checked.program.functions()
                     for e in A.all_exprs(func.body)
                     if e.__class__ is A.Ident and e.name == "g"][-1]
        assert post_loop.sharc_read.elide
        for seed in range(4):
            on = run_checked(checked, seed=seed, static=True,
                             record_trace=True)
            off = run_checked(checked, seed=seed, static=False,
                              record_trace=True)
            assert (on.stats.steps_total, on.trace, on.report_counts,
                    on.output) == (off.stats.steps_total, off.trace,
                                   off.report_counts, off.output)

    def test_continue_path_kill_reaches_the_back_edge(self):
        # The continue edge re-enters the loop head having skipped the
        # body tail.  Here the continue path calls helper() — a yield
        # point that kills the g cover — and only the tail (skipped on
        # continue) re-establishes it, so the head read of g must NOT
        # be elided: on a continue iteration another thread may have
        # taken the granule during the call.  Without the call on the
        # continue path the head read's own cover legitimately carries
        # around both edges.
        racy = check_ok(_prog(
            "while (x < 8) { x = g;"
            " if (h) { helper(); x = x + 1; continue; }"
            " g = x; x = x + 1; }"))
        control = check_ok(_prog(
            "while (x < 8) { x = g;"
            " if (h) { x = x + 1; continue; }"
            " g = x; x = x + 1; }"))
        assert "g" not in _marks(racy)[0]
        assert "g" in _marks(control)[0]

    def test_continue_path_kill_in_for_and_dowhile(self):
        for_loop = check_ok(_prog(
            "for (i = 0; i < 8; i++) { x = g;"
            " if (h) { helper(); continue; }"
            " g = x; }"))
        do_loop = check_ok(_prog(
            "do { x = g;"
            " if (h) { helper(); x = x + 1; continue; }"
            " g = x; x = x + 1; } while (x < 8);"))
        assert "g" not in _marks(for_loop)[0]
        assert "g" not in _marks(do_loop)[0]

    def test_continue_in_nested_loop_does_not_kill_outer(self):
        # The inner loop's continue targets the inner loop; the outer
        # loop's loop-carried cover is untouched.
        checked = check_ok(_prog(
            "while (x < 8) { x = g; g = x;"
            " for (i = 0; i < 2; i++) { if (i) continue; x = x + 1; }"
            " x = x + 1; }"))
        assert "g" in _marks(checked)[0]

    def test_remarking_is_a_no_op(self):
        # Existing marks persist; a second pass finds nothing new to
        # count, so accidental double-marking can't inflate the stats.
        checked = check_ok(_prog("x = g; x = x + g;"))
        assert checked.elim_stats.elided == 1
        again = mark_elisions(checked.program)
        assert again.elided == 0
        assert _marks(checked)[0] == ["g"]


class TestRangeMarking:
    def test_monotone_array_walk_is_range_marked(self):
        checked = check_ok(_prog(
            "for (i = 0; i < 64; i++) x = x + buf[i];"))
        _, ranged = _marks(checked)
        assert "buf[i]" in ranged
        assert checked.elim_stats.range_reads >= 1

    def test_downward_walk_is_range_marked(self):
        checked = check_ok(_prog(
            "for (i = 63; i >= 0; i--) buf[i] = i;"))
        assert checked.elim_stats.range_writes >= 1

    def test_call_in_body_blocks_range_marking(self):
        checked = check_ok(_prog(
            "for (i = 0; i < 64; i++) { helper(); x = x + buf[i]; }"))
        assert checked.elim_stats.ranges == 0

    def test_unstepped_index_is_not_range_marked(self):
        # j never moves inside the loop, so buf[j] is no array walk.
        # (buf[x] with x = x + ... WOULD count: x is stepped.)
        checked = check_ok(_prog(
            "int j; j = 3; for (i = 0; i < 64; i++) x = x + buf[j];"))
        _, ranged = _marks(checked)
        assert "buf[j]" not in ranged


class TestWorkloadCensus:
    """The acceptance anchor: the Table 1 models the benchmark measures
    actually carry marks (pfscan and dillo are the array-walking ones)."""

    def _stats(self, name):
        from repro.bench.workloads import all_workloads
        workload = {w.name: w for w in all_workloads()}[name]
        return check_ok(workload.annotated_source).elim_stats

    def test_pfscan_has_elision_and_range_sites(self):
        stats = self._stats("pfscan")
        assert stats.elided >= 1
        assert stats.ranges >= 2

    def test_dillo_has_elision_sites(self):
        stats = self._stats("dillo")
        assert stats.elided >= 2


class TestListing:
    def test_listing_flags_elided_and_range_checks(self):
        from repro.sharc.instrument import instrumented_listing
        checked = check_ok(_prog(
            "x = g; x = x + g; for (i = 0; i < 64; i++) x = x + buf[i];"))
        listing = instrumented_listing(checked.program)
        table = listing.split("// --- runtime checks ---")[1]
        assert "chkread(g) [elide]" in table
        # The loop read is both loop-carried-covered and a range walk.
        assert "chkread(buf[i]) [elide,range]" in table
        # The un-elided first read is listed bare.
        assert "chkread(g)\n" in table

    def test_golden_check_table(self):
        """Golden test of the whole check table for one small program:
        order, lock naming, and flags."""
        from repro.sharc.instrument import instrumented_listing
        checked = check_ok("""
mutex lk;
int locked(lk) c = 0;
int g = 0;
void *w(void *a) {
  int x;
  mutexLock(&lk);
  c = c + 1;
  mutexUnlock(&lk);
  x = g;
  x = x + g;
  return NULL;
}
int main() {
  int t1 = thread_create(w, NULL);
  int t2 = thread_create(w, NULL);
  thread_join(t1);
  thread_join(t2);
  return 0;
}
""")
        listing = instrumented_listing(checked.program)
        table = [line for line in listing.splitlines()
                 if line.startswith("// test.c:")]
        assert table == [
            "// test.c:8:3: lock-held(c, lk)",
            "// test.c:8:7: lock-held(c, lk)",
            "// test.c:10:7: chkread(g)",
            "// test.c:11:11: chkread(g) [elide]",
        ]
