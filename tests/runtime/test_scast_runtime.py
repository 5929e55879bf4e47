"""Runtime behaviour of sharing casts (Figure 7, Section 4.2.3)."""

import pytest

from tests.conftest import check_ok, run_clean, run_ok
from repro.errors import DiagKind
from repro.runtime.interp import run_checked


class TestNullOut:
    def test_source_is_nulled(self):
        result = run_clean("""
        int main() {
          char *a = malloc(4);
          char private *b = SCAST(char private *, a);
          printf("%d\\n", a == NULL);
          free(b);
          return 0;
        }
        """)
        # (The read of `a` after the cast produces a liveness warning
        # statically — by design — but the value is observably NULL.)
        assert result.output == "1\n"

    def test_cast_returns_the_pointer(self):
        result = run_clean("""
        int main() {
          char *a = malloc(4);
          a[0] = 7;
          char private *b = SCAST(char private *, a);
          printf("%d\\n", b[0]);
          free(b);
          return 0;
        }
        """)
        assert result.output == "7\n"

    def test_null_source_casts_to_null(self):
        result = run_clean("""
        int main() {
          char *a = NULL;
          char private *b = SCAST(char private *, a);
          printf("%d\\n", b == NULL);
          return 0;
        }
        """)
        assert result.output == "1\n"


class TestOneref:
    def test_single_reference_passes(self):
        run_clean("""
        int main() {
          char *a = malloc(4);
          char private *b = SCAST(char private *, a);
          free(b);
          return 0;
        }
        """)

    def test_second_reference_fails(self):
        result = run_ok("""
        char *keep;
        void *w(void *x) { char c = keep[0]; return NULL; }
        int main() {
          int t = thread_create(w, NULL);
          char *a = malloc(4);
          keep = a;
          char private *b = SCAST(char private *, a);
          thread_join(t);
          return 0;
        }
        """, seed=1)
        assert any(r.kind is DiagKind.ONEREF_FAILED
                   and r.detail == "reference count is 2, expected 1"
                   for r in result.reports)

    def test_reference_in_struct_field_counted(self):
        result = run_ok("""
        typedef struct holder { char *data; } holder_t;
        holder_t *h;
        void *w(void *x) { holder_t *p = h; return NULL; }
        int main() {
          int t = thread_create(w, NULL);
          h = malloc(sizeof(holder_t));
          char *a = malloc(4);
          h->data = a;
          char private *b = SCAST(char private *, a);
          thread_join(t);
          return 0;
        }
        """, seed=1)
        assert any(r.kind is DiagKind.ONEREF_FAILED
                   for r in result.reports)

    def test_interior_pointer_counts_toward_object(self):
        """An interior pointer (base + offset) is a reference to the
        object, as in Heapsafe-style per-object counting."""
        result = run_ok("""
        int main() {
          char *a = malloc(32);
          char *mid = a + 16;
          char private *b = SCAST(char private *, a);
          mid[0] = 1;
          return 0;
        }
        """)
        assert any(r.kind is DiagKind.ONEREF_FAILED
                   for r in result.reports)

    def test_overwritten_reference_not_counted(self):
        run_clean("""
        int main() {
          char *a = malloc(4);
          char *alias = a;
          alias = NULL;   // the second reference dies
          char private *b = SCAST(char private *, a);
          free(b);
          return 0;
        }
        """)

    def test_frame_exit_releases_references(self):
        """A helper's local copy dies with its frame and must not be
        counted at a later cast."""
        run_clean("""
        char peek_char(char *p) { char local = p[0]; return local; }
        int main() {
          char *a = malloc(4);
          a[0] = 5;
          char c = peek_char(a);
          char private *b = SCAST(char private *, a);
          free(b);
          return 0;
        }
        """)


class TestSetClearing:
    def test_cast_clears_reader_writer_sets(self):
        """After a sharing cast, past accesses no longer constitute
        sharing (the operational scast rule): two threads may touch the
        same buffer in different epochs separated by casts."""
        run_clean("""
        mutex lk;
        cond cv;
        char dynamic * locked(lk) slot = NULL;
        int racy rounds = 0;
        void *w(void *x) {
          char *mine;
          mutexLock(&lk);
          while (slot == NULL)
            condWait(&cv, &lk);
          mine = SCAST(char private *, slot);
          mutexUnlock(&lk);
          mine[0] = mine[0] + 1;   // same bytes another thread wrote
          free(mine);
          rounds = 1;
          return NULL;
        }
        int main() {
          int t = thread_create(w, NULL);
          char *buf = malloc(8);
          buf[0] = 1;
          mutexLock(&lk);
          slot = SCAST(char dynamic *, buf);
          condSignal(&cv);
          mutexUnlock(&lk);
          thread_join(t);
          return 0;
        }
        """, seed=3)

    def test_without_cast_the_same_flow_reports(self):
        """Identical data flow minus the casts: the handoff is a race."""
        result = run_ok("""
        char *slot;
        int racy ready = 0;
        void *w(void *x) {
          while (!ready) thread_yield();
          slot[0] = slot[0] + 1;
          return NULL;
        }
        int main() {
          int t = thread_create(w, NULL);
          char *buf = malloc(8);
          slot = buf;
          buf[0] = 1;       // written while the worker may read
          ready = 1;
          thread_join(t);
          return 0;
        }
        """, seed=5)
        assert result.reports


class TestRcSchemes:
    @pytest.mark.parametrize("scheme", ["lp", "naive"])
    def test_both_schemes_catch_double_reference(self, scheme):
        source = """
        int main() {
          char *a = malloc(4);
          char *alias = a;
          char private *b = SCAST(char private *, a);
          alias[0] = 1;
          return 0;
        }
        """
        checked = check_ok(source)
        result = run_checked(checked, rc_scheme=scheme)
        assert any(r.kind is DiagKind.ONEREF_FAILED
                   for r in result.reports), scheme

    @pytest.mark.parametrize("scheme", ["lp", "naive"])
    def test_both_schemes_pass_clean_transfer(self, scheme):
        source = """
        int main() {
          char *a = malloc(4);
          char private *b = SCAST(char private *, a);
          free(b);
          return 0;
        }
        """
        checked = check_ok(source)
        result = run_checked(checked, rc_scheme=scheme)
        assert not result.reports, scheme
