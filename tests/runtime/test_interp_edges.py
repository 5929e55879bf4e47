"""Interpreter edge-case tests: the corners that bite."""

import pytest

from tests.conftest import check_ok, run_clean, run_ok
from repro.runtime.interp import run_checked


class TestCompoundOps:
    def test_compound_assign_on_member(self):
        assert run_clean("""
        typedef struct acc { long total; } acc_t;
        int main() {
          acc_t a;
          a.total = 10;
          a.total += 5;
          a.total *= 2;
          printf("%ld\\n", a.total);
          return 0;
        }
        """).output == "30\n"

    def test_compound_assign_on_array_element(self):
        assert run_clean("""
        int main() {
          int v[3];
          v[1] = 4;
          v[1] <<= 2;
          v[1] |= 1;
          printf("%d\\n", v[1]);
          return 0;
        }
        """).output == "17\n"

    def test_pointer_compound_add_scales(self):
        assert run_clean("""
        int main() {
          long *v = malloc(40);
          long *p = v;
          p += 3;
          *p = 7;
          printf("%ld\\n", v[3]);
          return 0;
        }
        """).output == "7\n"

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_compound_divide_and_modulo_truncate(self, backend):
        """``x /= y`` and ``x %= y`` truncate toward zero like ``x / y``
        and ``x % y``, in a register local and in memory."""
        assert run_clean("""
        int g[2];
        int main() {
          int a = -7;
          int b = -7;
          a /= 2;
          b %= 2;
          g[0] = 7;
          g[1] = 7;
          g[0] /= -2;
          g[1] %= -2;
          printf("%d %d %d %d\\n", a, b, g[0], g[1]);
          return 0;
        }
        """, backend=backend).output == "-3 -1 -3 1\n"

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    @pytest.mark.parametrize("op,message", [("/=", "division by zero"),
                                            ("%=", "modulo by zero")])
    def test_compound_divide_by_zero(self, backend, op, message):
        checked = check_ok("""
        int main() {
          int a = 5;
          int z = 0;
          a %s z;
          return a;
        }
        """ % op)
        assert message in run_checked(checked, backend=backend).error

    def test_increment_on_member(self):
        assert run_clean("""
        typedef struct ctr { int n; } ctr_t;
        int main() {
          ctr_t c;
          c.n = 0;
          c.n++;
          ++c.n;
          printf("%d\\n", c.n);
          return 0;
        }
        """).output == "2\n"

    def test_postfix_vs_prefix_value(self):
        assert run_clean("""
        int main() {
          int x = 5;
          int a = x++;
          int b = ++x;
          printf("%d %d %d\\n", a, b, x);
          return 0;
        }
        """).output == "5 7 7\n"


class TestLocked_compound:
    def test_compound_assign_checks_read_and_write(self):
        checked = check_ok("""
        mutex lk;
        int locked(lk) c = 0;
        void *w(void *a) {
          c += 1;          // no lock held: both accesses illegal
          return NULL;
        }
        int main() { thread_join(thread_create(w, NULL)); return 0; }
        """)
        result = run_checked(checked, seed=0)
        assert result.reports


class TestGlobals:
    def test_global_initializer_with_call(self):
        """C99-style relaxation: global initializers run in main's
        prologue, so allocation calls are allowed (used by the aget
        model)."""
        assert run_clean("""
        char dynamic * readonly buf = malloc(32);
        int main() {
          buf[0] = 65;
          printf("%c\\n", buf[0]);
          return 0;
        }
        """).output == "A\n"

    def test_global_initializer_order(self):
        assert run_clean("""
        int a = 10;
        int b = 32;
        int main() { printf("%d\\n", a + b); return 0; }
        """).output == "42\n"

    def test_extern_global_gets_no_storage(self):
        # extern declarations alone must not allocate (or crash).
        checked = check_ok("""
        extern int other;
        int mine = 3;
        int main() { return mine; }
        """)
        result = run_checked(checked)
        assert result.error is None


class TestScopesAndShadowing:
    def test_frame_isolation_between_calls(self):
        assert run_clean("""
        int probe(int set) {
          int local;
          if (set)
            local = 99;
          return local;   // fresh frame: zero-initialized
        }
        int main() {
          probe(1);
          printf("%d\\n", probe(0));
          return 0;
        }
        """).output == "0\n"

    def test_recursive_frames_are_independent(self):
        assert run_clean("""
        int depth(int n) {
          int mine = n;
          if (n > 0)
            depth(n - 1);
          return mine;     // untouched by the recursive call
        }
        int main() { printf("%d\\n", depth(5)); return 0; }
        """).output == "5\n"


class TestMisc:
    def test_rand_is_seeded(self):
        checked = check_ok("""
        int main() { printf("%d\\n", rand() % 100); return 0; }
        """)
        a = run_checked(checked, seed=5)
        b = run_checked(checked, seed=5)
        c = run_checked(checked, seed=6)
        assert a.output == b.output
        assert a.output != c.output or True  # seeds *may* collide

    def test_srand_controls_sequence(self):
        result = run_clean("""
        int main() {
          srand(7);
          int a = rand();
          srand(7);
          int b = rand();
          printf("%d\\n", a == b);
          return 0;
        }
        """)
        assert result.output == "1\n"

    def test_sizeof_struct(self):
        assert run_clean("""
        typedef struct big { long a; char b; } big_t;
        int main() {
          printf("%ld\\n", sizeof(big_t) + 0);
          return 0;
        }
        """).output == "16\n"

    def test_negative_modulo_c_semantics(self):
        assert run_clean("""
        int main() {
          printf("%d %d\\n", -9 % 4, 9 % -4);
          return 0;
        }
        """).output == "-1 1\n"

    def test_max_steps_reports_timeout(self):
        checked = check_ok("int main() { while (1) ; return 0; }")
        result = run_checked(checked, max_steps=500)
        assert result.timeout

    def test_float_to_int_cast_truncates(self):
        assert run_clean("""
        int main() {
          double d = 3.9;
          int i = (int) d;
          printf("%d\\n", i);
          return 0;
        }
        """).output == "3\n"

    def test_char_literal_arithmetic(self):
        assert run_clean("""
        int main() {
          char c = 'a' + 2;
          printf("%c\\n", c);
          return 0;
        }
        """).output == "c\n"
