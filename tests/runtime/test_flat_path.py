"""The tree-walker's flat path against the compiled backend.

``Interp`` evaluates a flat subtree (one that can never reach a
scheduling point: literals, register-like scalar locals, ``=`` /
``op=`` / ``++`` / ``--`` on them, ``- ! ~ &``, binary operators and
casts over flat operands) with plain recursive calls instead of nested
generators, and resolves an l-value whose address cannot yield
(``x``, ``a[i]``, ``s.f``, ``p->f``, ``*p`` over flat parts) the same
way.  The compiled backend implements the same cost model
independently, so a flat path that drifts in its ticks, values, error
text, the clock of an aborted run or the page census shows up here as a
fingerprint or census mismatch.  Each case also asserts the flatness
marks of the expressions it exercises, and pins the C result.
"""

from __future__ import annotations

import pytest

from tests.conftest import check_ok
from tests.runtime.test_identity_oracle import (
    check_identity, straddling_source,
)
from repro.cfront import cast as A

#: name -> (source, expected output, expected error).  Every right-hand
#: side assigned to ``r`` must be flat.
PROGRAMS = {
    # a divide or modulo by zero inside a flat subtree aborts its
    # thread; the ticks it charged first reach the next flush
    "div-mod-by-zero": ("""
int total;
void *divide(void *arg) {
  int a; int z; int r;
  a = 7; z = 0;
  r = (a + 1) / (z * 3);
  total = r;
  return NULL;
}
void *modulo(void *arg) {
  int a; int z; int r;
  a = -7; z = 0;
  r = -a % (z & 1);
  total = r;
  return NULL;
}
int main() {
  int i; int s;
  int t1 = thread_create(divide, NULL);
  int t2 = thread_create(modulo, NULL);
  s = 0;
  for (i = 0; i < 20; i++) { s = s + i % 3; }
  thread_join(t1);
  thread_join(t2);
  printf("%d\\n", s);
  return 0;
}
""", "19\n", "by zero"),
    "andand-oror": ("""
int main() {
  int a; int b; int z; int r;
  a = 3; b = 0; z = 0;
  r = (a && b) || (!b && a > 2);
  printf("%d", r);
  r = b && a / z;
  printf(" %d", r);
  r = a || a % z;
  printf(" %d", r);
  r = (b || a - 3) && 1;
  printf(" %d\\n", r);
  return 0;
}
""", "1 0 1 0\n", None),
    "char-casts-masks": ("""
int main() {
  int v; int r; char ch;
  v = 300;
  r = (char) v;
  ch = r;
  printf("%d", ch);
  r = (char) (v + 200);
  printf(" %d", r);
  r = (int) (char) -1 & 0x7f;
  printf(" %d", r);
  r = ~v & 0xFF;
  printf(" %d", r);
  r = -7 / 2 + -7 % 2 * 10;
  printf(" %d\\n", r);
  return 0;
}
""", "44 244 127 211 -13\n", None),
    # register stores: the value of an assignment is the stored value
    "register-assigns": ("""
int main() {
  int a; int b; int r; char c;
  a = 5; b = 7;
  r = (a += 3) * 2;
  b -= a;
  b <<= 2;
  c = 250;
  c += 10;
  r = r + (c = 300);
  a = b = -1;
  printf("%d %d %d %d\\n", a, b, c, r);
  return 0;
}
""", "-1 -1 44 60\n", None),
    # op= by zero on a register aborts its thread after the load
    "register-div-mod-by-zero": ("""
int total;
void *divide(void *arg) {
  int a; int z;
  a = 7; z = 0;
  a /= z;
  total = a;
  return NULL;
}
void *modulo(void *arg) {
  int a; int z;
  a = -7; z = 0;
  a %= z * 2;
  total = a;
  return NULL;
}
int main() {
  int i; int s;
  int t1 = thread_create(divide, NULL);
  int t2 = thread_create(modulo, NULL);
  s = 0;
  for (i = 0; i < 20; i++) { s += i % 3; }
  thread_join(t1);
  thread_join(t2);
  printf("%d\\n", s);
  return 0;
}
""", "19\n", "by zero"),
    "register-incdec": ("""
int g[4];
int main() {
  int i; int r; char c; int *p;
  i = 5;
  i++; ++i; i--;
  c = 255;
  r = c++;
  r = r * 10 + ++c;
  c = 0;
  --c;
  p = g;
  p++; ++p; p--;
  *p = 9;
  r = r + *++p;
  printf("%d %d %d %d %d\\n", i, r, c, g[1], p - g);
  return 0;
}
""", "6 2551 255 9 2\n", None),
    # a flat address over a NULL pointer: each thread dies on its
    # first access, with the ticks of the whole address charged
    "null-addresses": ("""
struct S { int f; int h; };
struct S s;
int a[4];
void *index_null(void *arg) {
  int i; int *q; int r;
  i = 2; q = NULL;
  r = a[i] + q[i + 1];
  return NULL;
}
void *arrow_null(void *arg) {
  struct S *p; int r;
  p = NULL;
  r = s.f + p->h;
  return NULL;
}
void *deref_null(void *arg) {
  int *p; int r;
  p = NULL;
  r = s.h;
  *p = r;
  return NULL;
}
int main() {
  int t1 = thread_create(index_null, NULL);
  int t2 = thread_create(arrow_null, NULL);
  int t3 = thread_create(deref_null, NULL);
  a[1] = 4; s.f = 3;
  thread_join(t1);
  thread_join(t2);
  thread_join(t3);
  printf("%d\\n", a[1] + s.f);
  return 0;
}
""", "7\n", "null pointer"),
}


def _exprs(checked, kinds) -> list:
    return [e for f in checked.program.functions() if f.body is not None
            for e in A.all_exprs(f.body) if isinstance(e, kinds)]


def _flat_roots(checked, lhs: str = "r") -> list:
    return [e.rhs for e in _exprs(checked, A.Assign)
            if isinstance(e.lhs, A.Ident) and e.lhs.name == lhs]


def _is_lvalue(e) -> bool:
    return isinstance(e, (A.Index, A.Member)) or (
        isinstance(e, A.Unop) and e.op == "*")


#: name -> the nodes whose marks it asserts, and the mark: every
#: right-hand side assigned to ``r``, every register store or ``++`` /
#: ``--``, or the address of every l-value
MARKS = {
    "div-mod-by-zero": (_flat_roots, "sharc_flat"),
    "andand-oror": (_flat_roots, "sharc_flat"),
    "char-casts-masks": (_flat_roots, "sharc_flat"),
    "register-assigns": (lambda c: _exprs(c, A.Assign), "sharc_flat"),
    "register-div-mod-by-zero": (
        lambda c: [e for e in _exprs(c, A.Assign) if e.op != "="],
        "sharc_flat"),
    "register-incdec": (
        lambda c: [e for e in _exprs(c, A.Unop) if e.op in ("++", "--")],
        "sharc_flat"),
    "null-addresses": (
        lambda c: [e for e in _exprs(c, A.Expr) if _is_lvalue(e)],
        "sharc_flat_addr"),
}


def _identical_everywhere(checked):
    """Holds the identity oracle's contract (page census, per-thread
    step costs, steps, trace, reports, output, error text, scheduler
    RNG) at six coordinates.  Returns the reference run's result."""
    for seed in (0, 1, 2):
        for policy in ("random", "serial"):
            rows = check_identity(checked, seed, policy)
            if (seed, policy) == (0, "random"):
                _, (_, result) = rows[0]
    return result


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_flat_program_matches_compiled(name):
    source, output, error = PROGRAMS[name]
    checked = check_ok(source)
    result = _identical_everywhere(checked)
    assert result.output == output
    if error is None:
        assert result.error is None
    else:
        assert error in result.error
    nodes, mark = MARKS[name]
    roots = nodes(checked)
    assert roots and all(getattr(e, mark) for e in roots)


def test_flat_read_pays_the_page_census():
    """``far`` sits alone on the page after the one ``f``'s slab starts
    on, and only a flat subtree reads it: that read alone counts the
    page."""
    read = check_ok(straddling_source("t = c + 1;", 0,
                                      "x = (far * 2 + t) & 0xFF;"))
    unread = check_ok(straddling_source("t = c + 1;", 0,
                                        "x = (t * 2 + t) & 0xFF;"))
    with_far = _identical_everywhere(read).stats.pages_program
    without = _identical_everywhere(unread).stats.pages_program
    assert with_far == without + 1
    assert all(getattr(e, "sharc_flat", False)
               for e in _flat_roots(read, "x"))


def test_byte_assignment_value_is_the_stored_byte():
    """The value of ``=``, ``op=`` and prefix ``++`` / ``--`` on a
    1-byte l-value is the byte it stores, as in C, for a register
    (flat) and a memory target alike, on both backends (the oracle
    holds their output identical)."""
    checked = check_ok("""
char g;
int main() {
  char c; int s; int t; int u; int v; int w;
  c = 255;
  s = ++c;
  c = 3;
  t = (c -= 5);
  g = 250;
  u = (g += 10);
  g = 0;
  v = --g;
  w = (g = 300);
  printf("%d %d %d %d %d\\n", s, t, u, v, w);
  return 0;
}
""")
    assert _identical_everywhere(checked).output == "0 254 4 255 44\n"
