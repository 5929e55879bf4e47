"""The tree-walker's flat path against the compiled backend.

``Interp.eval_expr`` hands a flat subtree (literals, ``NULL``,
register-like scalar locals, and ``- ! ~``, binary operators and casts
over flat operands) to plain recursive calls instead of nested
generators.  The compiled backend implements the same cost model
independently, so a flat path that drifts in its ticks, values, error
text, the clock of an aborted run or the page census shows up here as a
fingerprint or census mismatch.  Each case also asserts that the
expressions it exercises were evaluated flat, and pins the C result.
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
}


def _flat_roots(checked, lhs: str = "r") -> list:
    return [e.rhs for f in checked.program.functions() if f.body is not None
            for e in A.all_exprs(f.body)
            if isinstance(e, A.Assign) and isinstance(e.lhs, A.Ident)
            and e.lhs.name == lhs]


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
    roots = _flat_roots(checked)
    assert roots and all(getattr(e, "sharc_flat", False) for e in roots)


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
