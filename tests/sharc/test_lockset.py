"""Tests for the static lockset analysis (``repro.sharc.lockset``).

The analysis has two consumers — ``locked(l)`` qualifier refinement and
compile-time ``static-race`` diagnostics — and both are exercised here
through the public pipeline (``check_source(...).lockset_result``), the
same way the interpreter and the CLI consume them.
"""

from tests.conftest import check_ok

LOCKED_COUNTER = """
mutex lk;
int counter = 0;
void *bump(void *arg) {
  int i;
  for (i = 0; i < 5; i++) {
    mutexLock(&lk);
    counter = counter + 1;
    mutexUnlock(&lk);
  }
  return NULL;
}
int main() {
  int t1 = thread_create(bump, NULL);
  int t2 = thread_create(bump, NULL);
  thread_join(t1);
  thread_join(t2);
  mutexLock(&lk);
  int c = counter;
  mutexUnlock(&lk);
  return c;
}
"""

UNLOCKED_READ = """
mutex lk;
int counter = 0;
void *bump(void *arg) {
  mutexLock(&lk);
  counter = counter + 1;
  mutexUnlock(&lk);
  return NULL;
}
int main() {
  int t1 = thread_create(bump, NULL);
  int t2 = thread_create(bump, NULL);
  thread_join(t1);
  thread_join(t2);
  return counter;
}
"""

# The loop body's ``i == 3`` path releases m and continues; the body's
# ``g = g + 1`` is on line 7.
CONTINUE_UNLOCK = """int g;
mutex m;
void *worker(void *a) {
  int i = 0;
  mutexLock(&m);
  while (i < 6) {
    g = g + 1;
    if (i == 3) {
      mutexUnlock(&m);
      i++;
      continue;
    }
    mutexUnlock(&m);
    mutexLock(&m);
    i++;
  }
  return NULL;
}
int main() {
  int t1 = thread_create(worker, NULL);
  int t2 = thread_create(worker, NULL);
  thread_join(t1);
  thread_join(t2);
  return 0;
}
"""


class TestRefinement:
    def test_consistently_locked_global_is_refined(self):
        ls = check_ok(LOCKED_COUNTER).lockset_result
        assert len(ls.refinements) == 1
        r = ls.refinements[0]
        assert r.text == "counter"
        assert r.lock == "lk"
        # bump reads + writes it, main reads it: 2 reads, 1 write site
        assert r.sites == 3
        assert r.reads == 2
        assert r.writes == 1
        assert not ls.races

    def test_refinement_marks_access_infos(self):
        checked = check_ok(LOCKED_COUNTER)
        marked = [s.info for li in
                  checked.lockset_result.locations.values()
                  for s in li.sites if s.info.refined_lock is not None]
        assert marked
        assert all(m.refined_lock == "lk" for m in marked)

    def test_refinement_shows_in_instrumented_listing(self):
        checked = check_ok(LOCKED_COUNTER)
        assert "[locked:lk]" in checked.instrumented_source()

    def test_one_unlocked_access_empties_the_intersection(self):
        """main's bare ``return counter`` kills the refinement — and,
        because a write and a second thread context exist, promotes the
        location to a static race."""
        ls = check_ok(UNLOCKED_READ).lockset_result
        assert not ls.refinements
        assert any(d.message_key.startswith("counter@")
                   for d in ls.races)

    def test_lock_held_through_a_callee(self):
        """The interprocedural summary: the lock is acquired in the
        caller, the access happens in a helper."""
        ls = check_ok("""
        mutex lk;
        int total = 0;
        void add(int n) { total = total + n; }
        void *w(void *arg) {
          mutexLock(&lk);
          add(3);
          mutexUnlock(&lk);
          return NULL;
        }
        int main() {
          int t1 = thread_create(w, NULL);
          int t2 = thread_create(w, NULL);
          thread_join(t1); thread_join(t2);
          mutexLock(&lk);
          int c = total;
          mutexUnlock(&lk);
          return c;
        }
        """).lockset_result
        assert [r.text for r in ls.refinements] == ["total"]
        assert ls.refinements[0].lock == "lk"

    def test_acquiring_callee_summary(self):
        """A helper that acquires and *leaves* the lock held counts for
        accesses made after the call returns."""
        ls = check_ok("""
        mutex lk;
        int total = 0;
        void enter(void) { mutexLock(&lk); }
        void leave(void) { mutexUnlock(&lk); }
        void *w(void *arg) {
          enter();
          total = total + 1;
          leave();
          return NULL;
        }
        int main() {
          int t1 = thread_create(w, NULL);
          int t2 = thread_create(w, NULL);
          thread_join(t1); thread_join(t2);
          enter();
          int c = total;
          leave();
          return c;
        }
        """).lockset_result
        assert [r.text for r in ls.refinements] == ["total"]

    def test_lock_through_pointer_taints(self):
        """A lock named only through a pointer is the top element: no
        refinement may rely on it."""
        ls = check_ok("""
        mutex lk;
        int total = 0;
        void *w(void *arg) {
          mutex *p = &lk;
          mutexLock(p);
          total = total + 1;
          mutexUnlock(p);
          return NULL;
        }
        int main() {
          int t1 = thread_create(w, NULL);
          int t2 = thread_create(w, NULL);
          thread_join(t1); thread_join(t2);
          return 0;
        }
        """).lockset_result
        assert not ls.refinements

    def test_pointer_unlock_in_callee_keeps_caller_locks(self):
        """A callee that unlocks through a pointer taints its call
        chain but must NOT erase the caller's named must-held set —
        erasing it (the old global-top behavior) left the caller's
        consistently-locked write with an empty, untainted lockset,
        i.e. a spurious static race."""
        ls = check_ok("""
        mutex lk;
        mutex other;
        int total = 0;
        void drop(void) {
          mutex *p = &other;
          mutexUnlock(p);
        }
        void *w(void *arg) {
          mutexLock(&lk);
          drop();
          total = total + 1;
          mutexUnlock(&lk);
          return NULL;
        }
        int main() {
          int t1 = thread_create(w, NULL);
          int t2 = thread_create(w, NULL);
          thread_join(t1); thread_join(t2);
          return 0;
        }
        """).lockset_result
        assert not ls.races
        assert [r.lock for r in ls.refinements] == ["lk"]

    def test_taint_stays_inside_its_call_chain(self):
        """The pointer-locking worker taints itself; an unrelated
        worker with a clean named-lock discipline keeps its
        refinement."""
        ls = check_ok("""
        mutex lk;
        mutex plk;
        int clean = 0;
        int messy = 0;
        void *tainted(void *arg) {
          mutex *p = &plk;
          mutexLock(p);
          messy = messy + 1;
          mutexUnlock(p);
          return NULL;
        }
        void *neat(void *arg) {
          mutexLock(&lk);
          clean = clean + 1;
          mutexUnlock(&lk);
          return NULL;
        }
        int main() {
          int t1 = thread_create(tainted, NULL);
          int t2 = thread_create(tainted, NULL);
          int t3 = thread_create(neat, NULL);
          int t4 = thread_create(neat, NULL);
          thread_join(t1); thread_join(t2);
          thread_join(t3); thread_join(t4);
          return 0;
        }
        """).lockset_result
        assert [(r.text, r.lock) for r in ls.refinements] == \
            [("clean", "lk")]
        assert not ls.races  # 'messy' is tainted, never a static race

    def test_two_locks_intersection_survives(self):
        """Accesses under {a,b} and {a} intersect to {a}."""
        ls = check_ok("""
        mutex a;
        mutex b;
        int x = 0;
        void *w1(void *arg) {
          mutexLock(&a);
          mutexLock(&b);
          x = x + 1;
          mutexUnlock(&b);
          mutexUnlock(&a);
          return NULL;
        }
        void *w2(void *arg) {
          mutexLock(&a);
          x = x + 1;
          mutexUnlock(&a);
          return NULL;
        }
        int main() {
          int t1 = thread_create(w1, NULL);
          int t2 = thread_create(w2, NULL);
          thread_join(t1); thread_join(t2);
          return 0;
        }
        """).lockset_result
        assert [r.lock for r in ls.refinements] == ["a"]


class TestStaticRaces:
    def test_unlocked_shared_write_is_a_static_race(self):
        checked = check_ok("""
        int shared = 0;
        void *w(void *arg) { shared = shared + 1; return NULL; }
        int main() {
          int t1 = thread_create(w, NULL);
          int t2 = thread_create(w, NULL);
          thread_join(t1); thread_join(t2);
          return shared;
        }
        """)
        ls = checked.lockset_result
        assert any(d.message_key.startswith("shared@")
                   for d in ls.races)
        assert any(k.startswith("static-race shared@")
                   for k in ls.race_keys)
        # races are warnings: the program still type-checks
        assert checked.ok

    def test_read_only_sharing_is_not_a_race(self):
        ls = check_ok("""
        int config = 7;
        void *w(void *arg) { int x = config; return NULL; }
        int main() {
          int t1 = thread_create(w, NULL);
          int t2 = thread_create(w, NULL);
          thread_join(t1); thread_join(t2);
          return 0;
        }
        """).lockset_result
        assert not ls.races

    def test_single_thread_context_is_not_a_race(self):
        """One worker spawned once: the write needs a second thread
        context to conflict with (main's own accesses count)."""
        ls = check_ok("""
        int slot = 0;
        void *w(void *arg) { slot = 5; return NULL; }
        int main() {
          int t = thread_create(w, NULL);
          thread_join(t);
          return 0;
        }
        """).lockset_result
        assert not ls.races

    def test_doubly_spawned_root_races_with_itself(self):
        ls = check_ok("""
        int slot = 0;
        void *w(void *arg) { slot = slot + 1; return NULL; }
        int main() {
          int t1 = thread_create(w, NULL);
          int t2 = thread_create(w, NULL);
          thread_join(t1); thread_join(t2);
          return 0;
        }
        """).lockset_result
        assert "w" in ls.multi_spawned
        assert any(d.message_key.startswith("slot@")
                   for d in ls.races)

    def test_diagnostic_carries_both_sites(self):
        ls = check_ok(UNLOCKED_READ.replace("mutexLock(&lk);", "")
                      .replace("mutexUnlock(&lk);", "")).lockset_result
        diag = next(d for d in ls.races
                    if d.message_key.startswith("counter@"))
        assert "possible data race on 'counter'" in diag.message
        notes = " ".join(diag.notes)
        assert "write in" in notes
        assert "conflicting" in notes
        assert diag.message_key.startswith("counter@")

    def test_seeded_racy_program_caught_with_zero_execution(self):
        """Acceptance criterion: the generator's injected race is found
        by ``check_source`` alone — no interpreter involved."""
        from repro.explore.frontends import racy_c_program

        src, spec = racy_c_program(3, kind="write-write")
        ls = check_ok(src, "racy3.c").lockset_result
        assert any(spec.global_name in k for k in ls.race_keys)

    def test_continue_path_unlock_reaches_the_loop_head(self):
        """The ``i == 3`` path releases ``m`` and re-enters the loop head
        through ``continue``, so the next ``g = g + 1`` runs unlocked:
        ``g`` is a static race, not a locked(m) refinement — the same
        race the dynamic checker reports."""
        from repro.runtime.interp import run_checked

        checked = check_ok(CONTINUE_UNLOCK)
        ls = checked.lockset_result
        assert [d.message_key for d in ls.races] == ["g@7"]
        assert not any(r.text == "g" for r in ls.refinements)
        dynamic = set()
        for seed in range(30):
            dynamic |= set(run_checked(checked, seed=seed).report_counts)
        assert {"read conflict g@7", "write conflict g@7"} <= dynamic


class TestResultSurface:
    def test_summary_and_report_lines(self):
        ls = check_ok(LOCKED_COUNTER).lockset_result
        assert "1 location(s) refined" in ls.summary()
        lines = ls.report_lines()
        assert any("refined 'counter' to locked(lk)" in line
                   for line in lines)

    def test_race_keys_sorted_and_unique(self):
        from repro.explore.frontends import racy_c_program

        src, _ = racy_c_program(3, kind="write-write")
        keys = check_ok(src, "racy3.c").lockset_result.race_keys
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_annotated_locked_globals_are_not_analyzed(self):
        """locked(l)-annotated data already has its discipline; only
        inferred-dynamic locations are candidates."""
        ls = check_ok("""
        mutex lk;
        int locked(lk) c = 0;
        void *w(void *arg) {
          mutexLock(&lk); c = c + 1; mutexUnlock(&lk);
          return NULL;
        }
        int main() {
          int t1 = thread_create(w, NULL);
          int t2 = thread_create(w, NULL);
          thread_join(t1); thread_join(t2);
          return 0;
        }
        """).lockset_result
        assert not ls.refinements
        assert not ls.races


class TestSummaryFallback:
    def test_nonconvergence_poisons_only_the_unstable_chain(self):
        """When the summary fixpoint runs out of rounds, only the
        still-oscillating functions and their transitive callers fall
        to top; an unrelated function keeps its stable summary (the
        old fallback collapsed every summary to global top)."""
        from repro.cfront.parser import parse_program
        from repro.sharc.lockset import (
            Summary, _Walker, _compute_summaries)

        program = parse_program("""
        mutex a;
        void g(void);
        void f(void) { g(); }
        void g(void) { f(); mutexLock(&a); }
        void h(void) { mutexLock(&a); }
        int main() { return 0; }
        """, "t.c")
        funcs = [f for f in program.functions() if f.body is not None]
        walker = _Walker(frozenset(["a"]), {f.name: f for f in funcs},
                         {})
        # Two rounds are not enough for the f <-> g cycle: the `else`
        # fallback fires, but must leave h's converged summary alone.
        summaries, unconverged = _compute_summaries(walker, funcs,
                                                    rounds=2)
        assert unconverged == ("f", "g")
        assert summaries["f"] == Summary(kill_all=True, taint=True)
        assert summaries["g"] == Summary(kill_all=True, taint=True)
        assert summaries["h"] == Summary(plus=frozenset(["a"]))
        assert summaries["main"] == Summary()


class TestWorkloadRegression:
    """Pins EXPERIMENTS.md's Table 1 static-race census: annotated
    fftw keeps exactly its two documented ownership-transfer false
    positives (the planner handoff lockset reasoning cannot see), and
    the taint fixes above must not perturb any workload's keys."""

    def _races(self, name, variant):
        from repro.bench.workloads import get_workload

        workload = get_workload(name)
        source = (workload.annotated_source if variant == "annotated"
                  else workload.unannotated_source)
        return check_ok(source, f"{name}.c").lockset_result.race_keys

    def test_annotated_fftw_has_exactly_the_two_documented_fps(self):
        assert self._races("fftw", "annotated") == [
            "static-race plan.checksum@62",
            "static-race plan.data@63",
        ]

    def test_unannotated_fftw_adds_exactly_two_more(self):
        assert self._races("fftw", "unannotated") == [
            "static-race plan.checksum@62",
            "static-race plan.data@63",
            "static-race plan.n@75",
            "static-race plan.reps@77",
        ]

    def test_other_annotated_workloads_stay_statically_clean(self):
        for name in ("pfscan", "aget", "pbzip2", "dillo", "stunnel"):
            assert self._races(name, "annotated") == [], name
