"""Static-checking tests: write rules, lock constancy, SCAST legality,
library policies, suggestions, and liveness warnings."""

from tests.conftest import check, check_ok, error_kinds


SPAWN = """
void *w(void *d) {{ {wbody} return NULL; }}
int main() {{ thread_create(w, NULL); {mbody} return 0; }}
"""


class TestReadonlyWrites:
    def test_write_to_readonly_global_rejected(self):
        checked = check("""
        int readonly limit = 10;
        int main() { limit = 20; return 0; }
        """)
        assert "READONLY_WRITE" in error_kinds(checked)

    def test_readonly_global_initializer_allowed(self):
        check_ok("int readonly limit = 10; int main() { return 0; }")

    def test_readonly_field_of_private_struct_writable(self):
        check_ok("""
        typedef struct cfg { int readonly version; } cfg_t;
        int main() {
          cfg_t *c = malloc(sizeof(cfg_t));
          c->version = 3;
          return 0;
        }
        """)

    def test_readonly_field_of_dynamic_struct_not_writable(self):
        checked = check("""
        typedef struct cfg { int readonly version; } cfg_t;
        void *w(void *d) {
          cfg_t *c = d;
          c->version = 4;
          return NULL;
        }
        int main() { thread_create(w, NULL); return 0; }
        """)
        assert "READONLY_WRITE" in error_kinds(checked)

    def test_readonly_reads_always_allowed(self):
        check_ok("""
        int readonly limit = 10;
        void *w(void *d) { int x = limit; return NULL; }
        int main() { thread_create(w, NULL); return 0; }
        """)


class TestLockedChecks:
    def test_locked_global_with_global_mutex(self):
        check_ok("""
        mutex lk;
        int locked(lk) counter;
        void *w(void *d) {
          mutexLock(&lk);
          counter = counter + 1;
          mutexUnlock(&lk);
          return NULL;
        }
        int main() { thread_create(w, NULL); return 0; }
        """)

    def test_lock_expression_must_be_constant(self):
        # The defaulting rules promote a lock-named local to readonly, so
        # reassigning it surfaces as a readonly-write error; an explicit
        # non-readonly annotation would surface as LOCK_NOT_CONSTANT.
        checked = check("""
        mutex a; mutex b;
        void f() {
          mutex *m;
          int locked(m) *p;
          m = &a;
          m = &b;     // reassigned: not constant
          p = NULL;
        }
        int main() { f(); return 0; }
        """)
        assert error_kinds(checked) & {"LOCK_NOT_CONSTANT",
                                       "READONLY_WRITE"}

    def test_single_assignment_local_lock_ok(self):
        check_ok("""
        mutex a;
        void f() {
          mutex *m = &a;
          int locked(m) *p;
          p = NULL;
        }
        int main() { f(); return 0; }
        """)

    def test_locked_field_initializable_while_private(self):
        check_ok("""
        typedef struct s { mutex *mut;
                           char locked(mut) * locked(mut) d; } s_t;
        int main() {
          s_t *x = malloc(sizeof(s_t));
          x->d = NULL;   // private instance: no lock needed
          return 0;
        }
        """)

    def test_lock_path_through_nonreadonly_member_rejected(self):
        checked = check("""
        typedef struct s { mutex * dynamic mref;
                           int locked(mref) v; } s_t;
        void *w(void *d) {
          s_t *h = d;
          int x = h->v;
          return NULL;
        }
        int main() { thread_create(w, NULL); return 0; }
        """)
        assert "LOCK_NOT_CONSTANT" in error_kinds(checked)


class TestAssignmentCompat:
    def test_private_to_dynamic_target_mismatch(self):
        checked = check(SPAWN.format(
            wbody="char *shared = d; char private *mine; mine = shared;",
            mbody=""))
        assert "MODE_MISMATCH" in error_kinds(checked)

    def test_suggestion_names_the_cast(self):
        checked = check(SPAWN.format(
            wbody="char *shared = d; char private *mine; mine = shared;",
            mbody=""))
        texts = [d.message for d in checked.suggestions]
        assert any("SCAST(char private *, shared)" in t for t in texts)

    def test_deep_mismatch_not_castable(self):
        checked = check("""
        int main() {
          char dynamic * dynamic * p1;
          char private * dynamic * p2;
          p1 = p2;
          return 0;
        }
        """)
        kinds = error_kinds(checked)
        assert "MODE_MISMATCH" in kinds or "WELLFORMED" in kinds
        assert not checked.suggestions  # no cast can fix depth-2

    def test_null_assignable_to_any_pointer(self):
        check_ok("""
        int main() {
          char dynamic *a = NULL;
          char private *b = NULL;
          return 0;
        }
        """)

    def test_plain_cast_cannot_change_modes(self):
        checked = check(SPAWN.format(
            wbody="char *s = d; char private *p; "
                  "p = (char private *) s;",
            mbody=""))
        assert "MODE_MISMATCH" in error_kinds(checked)

    def test_return_type_checked(self):
        checked = check("""
        char dynamic *leak(char private *p) { return p; }
        void *w(void *d) { return NULL; }
        int main() { thread_create(w, NULL); return 0; }
        """)
        assert "MODE_MISMATCH" in error_kinds(checked)

    def test_argument_mismatch_with_suggestion(self):
        checked = check(SPAWN.format(
            wbody="char *shared = d; use(shared);",
            mbody="")
            + "void use(char private *p) { p[0] = 1; }")
        assert "MODE_MISMATCH" in error_kinds(checked)
        assert checked.suggestions


class TestScastLegality:
    def test_void_scast_forbidden(self):
        checked = check("""
        int main() {
          void *v = malloc(4);
          void *w = SCAST(void private *, v);
          return 0;
        }
        """)
        assert "VOID_SCAST" in error_kinds(checked)

    def test_source_must_be_lvalue(self):
        checked = check("""
        char *mk() { return malloc(4); }
        int main() {
          char private *p = SCAST(char private *, mk());
          return 0;
        }
        """)
        assert "BAD_SCAST" in error_kinds(checked)

    def test_base_type_change_rejected(self):
        checked = check("""
        int main() {
          char *c = malloc(4);
          long private *l = SCAST(long private *, c);
          return 0;
        }
        """)
        assert "BAD_SCAST" in error_kinds(checked)

    def test_deep_mode_change_rejected(self):
        checked = check(SPAWN.format(
            wbody="char dynamic * dynamic * pp = d; "
                  "char private * private * qq;"
                  "qq = SCAST(char private * private *, pp);",
            mbody=""))
        assert "BAD_SCAST" in error_kinds(checked)

    def test_legal_cast_counts_oneref(self):
        checked = check_ok("""
        int main() {
          char *a = malloc(4);
          char private *b = SCAST(char private *, a);
          free(b);
          return 0;
        }
        """)
        assert checked.check_stats.oneref_checks == 1


class TestLiveness:
    def test_live_after_scast_warns(self):
        checked = check_ok("""
        int main() {
          char *a = malloc(4);
          char private *b = SCAST(char private *, a);
          a[0] = 1;   // a is null here!
          return 0;
        }
        """)
        assert any(d.kind.name == "LIVE_AFTER_SCAST"
                   for d in checked.warnings)

    def test_no_warning_when_reassigned(self):
        checked = check_ok("""
        int main() {
          char *a = malloc(4);
          char private *b = SCAST(char private *, a);
          a = malloc(4);
          a[0] = 1;
          free(b);
          return 0;
        }
        """)
        assert not any(d.kind.name == "LIVE_AFTER_SCAST"
                       for d in checked.warnings)

    def test_no_warning_for_sibling_branch(self):
        checked = check_ok("""
        int main() {
          char *a = malloc(4);
          char private *b;
          if (1) {
            b = SCAST(char private *, a);
            free(b);
          } else {
            a[0] = 1;
          }
          return 0;
        }
        """)
        assert not any(d.kind.name == "LIVE_AFTER_SCAST"
                       for d in checked.warnings)


class TestLibraryRules:
    def test_unsummarized_requires_private(self):
        # atoi is summarized; mutex_lock's arg must be racy.
        checked = check(SPAWN.format(
            wbody="char *s = d; mutexLock(s);", mbody=""))
        assert "MODE_MISMATCH" in error_kinds(checked)

    def test_summarized_accepts_dynamic(self):
        check_ok(SPAWN.format(
            wbody="char *s = d; long n = strlen(s);", mbody=""))

    def test_summarized_rejects_locked(self):
        checked = check("""
        mutex lk;
        char locked(lk) * readonly buf = malloc(8);
        void *w(void *d) {
          mutexLock(&lk);
          long n = strlen(buf);
          mutexUnlock(&lk);
          return NULL;
        }
        int main() { thread_create(w, NULL); return 0; }
        """)
        assert "MODE_MISMATCH" in error_kinds(checked)

    def test_write_summary_rejects_readonly(self):
        checked = check("""
        char readonly * readonly msg = "hi";
        int main() { memset(msg, 0, 2); return 0; }
        """)
        assert "READONLY_WRITE" in error_kinds(checked)

    def test_read_summary_accepts_readonly(self):
        check_ok("""
        char readonly * readonly msg = "hi";
        int main() { long n = strlen(msg); return 0; }
        """)

    def test_vararg_pointer_must_be_private(self):
        checked = check(SPAWN.format(
            wbody='char *s = d; printf("%s", s);', mbody=""))
        assert "VARARG_NOT_PRIVATE" in error_kinds(checked)

    def test_vararg_readonly_accepted(self):
        check_ok("""
        char readonly * readonly msg = "hi";
        int main() { printf("%s\\n", msg); return 0; }
        """)

    def test_arity_mismatch_reported(self):
        checked = check("int main() { strlen(); return 0; }")
        assert checked.errors


class TestCheckPlacement:
    def test_dynamic_accesses_get_checks(self):
        checked = check_ok(SPAWN.format(
            wbody="char *p = d; char c = p[0]; p[1] = c;", mbody=""))
        assert checked.check_stats.read_checks >= 1
        assert checked.check_stats.write_checks >= 1

    def test_private_accesses_get_no_checks(self):
        checked = check_ok("""
        int main() {
          int x = 1;
          int y = x + 1;
          return y;
        }
        """)
        assert checked.check_stats.total == 0

    def test_racy_accesses_get_no_checks(self):
        checked = check_ok("""
        int racy flag;
        void *w(void *d) { flag = 1; return NULL; }
        int main() { thread_create(w, NULL); return 0; }
        """)
        assert checked.check_stats.total == 0

    def test_locked_accesses_counted(self):
        checked = check_ok("""
        mutex lk;
        int locked(lk) c;
        void *w(void *d) {
          mutexLock(&lk); c = 1; mutexUnlock(&lk);
          return NULL;
        }
        int main() { thread_create(w, NULL); return 0; }
        """)
        assert checked.check_stats.lock_checks >= 1


class TestReadonlyArrays:
    def test_write_to_readonly_global_array_rejected(self):
        checked = check("""
        int readonly table[4];
        int main() { table[0] = 1; return 0; }
        """)
        assert "READONLY_WRITE" in error_kinds(checked)

    def test_readonly_array_field_of_private_struct_writable(self):
        check_ok("""
        typedef struct cfg { int readonly dims[3]; } cfg_t;
        int main() {
          cfg_t *c = malloc(sizeof(cfg_t));
          c->dims[0] = 7;
          return 0;
        }
        """)

    def test_locked_global_array_gets_checks(self):
        checked = check_ok("""
        mutex lk;
        int locked(lk) table[4];
        void *w(void *a) {
          mutexLock(&lk);
          table[0] = table[0] + 1;
          mutexUnlock(&lk);
          return NULL;
        }
        int main() { thread_join(thread_create(w, NULL)); return 0; }
        """)
        assert checked.check_stats.lock_checks >= 2


class TestLockExpressions:
    """Each distinct ``locked(...)`` string is parsed once per check;
    every access still gets a tree of its own, since typing and
    sibling-field substitution change the tree in place."""

    SOURCE = """
    typedef struct box { mutex *mut; int locked(mut) v; } box_t;
    mutex mut;
    int locked(mut) g;
    void *w(void *d) {
      box_t *S = d;
      mutexLock(&mut); g = g + 1; mutexUnlock(&mut);
      mutexLock(S->mut); S->v = S->v + 1; mutexUnlock(S->mut);
      mutexLock(&mut); g = 2; mutexUnlock(&mut);
      return NULL;
    }
    int main() {
      box_t *b = malloc(sizeof(box_t));
      thread_create(w, b);
      return 0;
    }
    """

    def test_same_text_resolves_per_access(self):
        from repro.cfront import cast as A
        from repro.cfront.pretty import pretty_expr

        checked = check_ok(self.SOURCE)
        w = checked.program.function("w")
        locks = [(info.lvalue_text, info.lock_ast)
                 for e in A.all_exprs(w.body)
                 for info in (getattr(e, "sharc_read", None),
                              getattr(e, "sharc_write", None))
                 if info is not None and info.is_lock]
        assert [(text, pretty_expr(lock)) for text, lock in locks] == [
            ("g", "mut"), ("g", "mut"), ("S->v", "S->mut"),
            ("S->v", "S->mut"), ("g", "mut")]
        program = checked.program
        (mut,) = [g for g in program.globals() if g.name == "mut"]
        field = dict(program.structs.fields("box"))["mut"]
        assert [lock.ctype for _, lock in locks] == [
            mut.qtype, mut.qtype, field, field, mut.qtype]
        # no two accesses share a node of their lock trees
        nodes = [id(n) for _, lock in locks for n in A.walk_expr(lock)
                 if not isinstance(n, A.Ident) or n.name == "mut"]
        assert len(nodes) == len(set(nodes))
        assert set(checked.program.lock_exprs) == {"mut"}
