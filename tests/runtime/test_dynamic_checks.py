"""Dynamic-checking tests: conflict reports, lock checks, summaries,
false sharing, and the report format of Section 2.1."""

import pytest

from tests.conftest import check_ok, run_clean, run_ok
from repro.errors import DiagKind
from repro.runtime.interp import run_checked


RACE = """
int shared = 0;
void *w(void *a) {{
  int i;
  for (i = 0; i < {n}; i++)
    shared = shared + 1;
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


class TestConflictReports:
    def test_race_detected(self):
        result = run_ok(RACE.format(n=10), seed=1)
        assert result.reports
        kinds = {r.kind for r in result.reports}
        assert kinds & {DiagKind.READ_CONFLICT, DiagKind.WRITE_CONFLICT}

    def test_report_format_matches_paper(self):
        result = run_ok(RACE.format(n=10), seed=1)
        text = result.reports[0].render()
        # e.g.  write conflict(0x00001000):
        #        who(3) shared @ test.c: 6
        #        last(2) shared @ test.c: 6
        assert "conflict(0x" in text
        assert " who(" in text
        assert " last(" in text
        assert "@ test.c:" in text

    def test_reports_deduplicated(self):
        result = run_ok(RACE.format(n=50), seed=1)
        # Many racy iterations, but one report per (site, last-site) pair.
        assert len(result.reports) < 10

    def test_non_overlapping_threads_do_not_race(self):
        run_clean("""
        int shared = 0;
        void *w(void *a) { shared = shared + 1; return NULL; }
        int main() {
          thread_join(thread_create(w, NULL));
          thread_join(thread_create(w, NULL));
          printf("%d\\n", shared);
          return 0;
        }
        """)

    def test_read_sharing_is_allowed(self):
        run_clean("""
        int readonly limit = 9;
        int racy sum = 0;
        void *w(void *a) { sum = sum + limit; return NULL; }
        int main() {
          int t1 = thread_create(w, NULL);
          int t2 = thread_create(w, NULL);
          thread_join(t1); thread_join(t2);
          return 0;
        }
        """)

    def test_dynamic_read_sharing_without_writer_is_clean(self):
        """n readers, no writer: the dynamic discipline allows it."""
        run_clean("""
        int answer = 42;
        void *w(void *a) { int x = answer; return NULL; }
        int main() {
          answer = 42;   // main writes before any reader exists...
          int t1 = thread_create(w, NULL);
          int t2 = thread_create(w, NULL);
          thread_join(t1); thread_join(t2);
          return 0;
        }
        """, seed=3)


class TestLockChecks:
    def test_unlocked_access_reported_on_every_schedule(self):
        source = """
        mutex lk;
        int locked(lk) v = 0;
        void *w(void *a) { v = 1; return NULL; }
        int main() {
          thread_join(thread_create(w, NULL));
          return 0;
        }
        """
        checked = check_ok(source)
        for seed in range(5):
            result = run_checked(checked, seed=seed)
            assert any(r.kind is DiagKind.LOCK_NOT_HELD
                       for r in result.reports), seed

    def test_correct_locking_is_clean(self):
        run_clean("""
        mutex lk;
        int locked(lk) v = 0;
        void *w(void *a) {
          mutexLock(&lk); v = v + 1; mutexUnlock(&lk);
          return NULL;
        }
        int main() {
          thread_join(thread_create(w, NULL));
          return 0;
        }
        """)

    def test_wrong_lock_reported(self):
        result = run_ok("""
        mutex right; mutex wrong;
        int locked(right) v = 0;
        void *w(void *a) {
          mutexLock(&wrong);
          v = 1;
          mutexUnlock(&wrong);
          return NULL;
        }
        int main() {
          thread_join(thread_create(w, NULL));
          return 0;
        }
        """)
        assert any(r.kind is DiagKind.LOCK_NOT_HELD
                   and r.detail == "required lock: locked(right)"
                   for r in result.reports)

    def test_struct_field_lock_resolved_through_instance(self):
        """locked(mut) on a field checks the *instance's* mutex."""
        run_clean("""
        typedef struct box { mutex *mut; int locked(mut) v; } box_t;
        mutex m;
        void *w(void *a) {
          box_t *b = a;
          mutexLock(b->mut);
          b->v = b->v + 1;
          mutexUnlock(b->mut);
          return NULL;
        }
        int main() {
          box_t *b = malloc(sizeof(box_t));
          b->mut = &m;
          b->v = 0;
          thread_join(thread_create(w, SCAST(box_t dynamic *, b)));
          return 0;
        }
        """)


class TestFalseSharing:
    def test_adjacent_objects_in_one_granule_conflict(self):
        """Section 4.5: races may be reported for two separate objects
        that are close together.  Two int fields of one struct share a
        16-byte granule."""
        result = run_ok("""
        typedef struct pairc { int a; int b; } pairc_t;
        pairc_t box;
        void *w1(void *x) {
          int i;
          for (i = 0; i < 30; i++) box.a = i;
          return NULL;
        }
        void *w2(void *x) {
          int i;
          for (i = 0; i < 30; i++) box.b = i;
          return NULL;
        }
        int main() {
          int t1 = thread_create(w1, NULL);
          int t2 = thread_create(w2, NULL);
          thread_join(t1); thread_join(t2);
          return 0;
        }
        """, seed=1)
        assert result.reports  # a false positive, faithfully reproduced

    def test_separate_mallocs_never_falsely_share(self):
        """...while the 16-byte-aligned allocator prevents false sharing
        between distinct heap objects (the paper's mitigation)."""
        run_clean("""
        char *a; char *b;
        void *w1(void *x) { a[0] = 1; return NULL; }
        void *w2(void *x) { b[0] = 2; return NULL; }
        int main() {
          a = malloc(1);
          b = malloc(1);
          int t1 = thread_create(w1, NULL);
          int t2 = thread_create(w2, NULL);
          thread_join(t1); thread_join(t2);
          return 0;
        }
        """, seed=1)


class TestSummaryChecks:
    def test_memcpy_ranges_checked(self):
        """A library write summary applies chkwrite over the whole range:
        cross-thread memcpy into the same buffer conflicts."""
        result = run_ok("""
        char *buf;
        void *w(void *a) {
          char tmp[16];
          int i;
          for (i = 0; i < 20; i++)
            memcpy(buf, tmp, 16);
          return NULL;
        }
        int main() {
          buf = malloc(16);
          int t1 = thread_create(w, NULL);
          int t2 = thread_create(w, NULL);
          thread_join(t1); thread_join(t2);
          return 0;
        }
        """, seed=1)
        assert any(r.kind is DiagKind.WRITE_CONFLICT
                   for r in result.reports)

    def test_disjoint_ranges_clean(self):
        run_clean("""
        char *buf;
        void *w1(void *a) { memset(buf, 1, 16); return NULL; }
        void *w2(void *a) { memset(buf + 16, 2, 16); return NULL; }
        int main() {
          buf = malloc(32);
          int t1 = thread_create(w1, NULL);
          int t2 = thread_create(w2, NULL);
          thread_join(t1); thread_join(t2);
          return 0;
        }
        """, seed=2)


class TestInstrumentationToggle:
    def test_uninstrumented_run_reports_nothing(self):
        checked = check_ok(RACE.format(n=10))
        result = run_checked(checked, seed=1, instrument=False)
        assert not result.reports
        assert result.stats.steps_checks == 0

    def test_instrumented_run_costs_more_steps(self):
        checked = check_ok(RACE.format(n=10))
        base = run_checked(checked, seed=1, instrument=False)
        inst = run_checked(checked, seed=1, instrument=True)
        assert inst.stats.steps_total > base.stats.steps_total

    def test_pct_dynamic_counts(self):
        checked = check_ok(RACE.format(n=10))
        result = run_checked(checked, seed=1)
        assert 0.0 < result.stats.pct_dynamic <= 1.0
