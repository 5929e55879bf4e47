"""The page census of register slots, where the schedule golden is
blind.

Compiled code keeps a register slot in a generator local and pays the
slot's page census only on its first touch in the activation; a
compile-time "touched" set drops the census where an earlier touch
dominates.  Frame slabs are small and almost never straddle a 4 KiB
page, so a census dropped on a path where the slot was in fact
untouched changes nothing the census programs can see: the page is
counted through a neighbouring slot anyway.

Each program here pads the globals so that ``f``'s frame slab starts
16 bytes before a page boundary.  Its four int slots (``c``, ``i``,
``t``, ``x``) fill the near page; ``far``, the last slot, alone lives
on the next page.  ``far`` is first touched only inside one construct,
on a path this run does not take, and touched again after it — read
first, or written first.  If the touched set leaked out of the
construct, the far page would go uncounted (and a read would see the
unset sentinel).
"""

from __future__ import annotations

import pytest

from tests.conftest import check_ok
from tests.runtime.test_schedule_golden import fingerprint
from repro.compile import compile_program
from repro.runtime.addrspace import PAGE_SIZE
from repro.runtime.interp import make_interp

#: construct -> (its statement in ``f``, the ``c`` that makes the run
#: skip the touch of ``far`` inside it).  The do-while's condition
#: reads ``far``, so its first touch there must not count the body's.
CONSTRUCTS = {
    "if-arm": ("if (c) { far = 1; }", 0),
    "andand-rhs": ("t = c && far;", 0),
    "oror-rhs": ("t = c || far;", 1),
    "cond-arm": ("t = c ? far : 2;", 0),
    "for-step": ("for (i = 0; i < 3; far = i) { break; }", 0),
    "dowhile-continue": ("do { if (c) continue; far = 1; } while (far < 0);",
                         1),
    "while-break": ("while (1) { if (c) break; far = 1; break; }", 1),
}

TEMPLATE = """
char pad[%(pad)d];
int f(int c) {
  int i; int t; int x; int far;
  t = 0;
  %(construct)s
  %(after)s
  return x;
}
int main() {
  return f(%(arg)d);
}
"""

#: the touch after the construct: a read first, or a write first
AFTER = {"read": "x = far + t;", "write": "far = 5; x = far + t;"}

#: ``f``'s slab offset of ``far``: after four ints
FAR = 16


def _source(construct: str, arg: int, after: str, pad: int) -> str:
    return TEMPLATE % {"pad": pad, "construct": construct, "arg": arg,
                       "after": after}


def _f_slab(checked) -> tuple[int, int]:
    """(start, size) of ``f``'s frame slab: the last stack block."""
    interp = make_interp(checked, backend="interp", seed=0)
    interp.run()
    block = [b for b in interp.space.blocks.values()
             if b.kind == "stack"][-1]
    return block.start, block.size


def _straddling(construct: str, arg: int, after: str):
    """The program with ``pad`` chosen so ``far`` is the only slot on
    the page after the one ``f``'s slab starts on."""
    start, _ = _f_slab(check_ok(_source(construct, arg, after, 16)))
    shift = (PAGE_SIZE - FAR - start) % PAGE_SIZE
    checked = check_ok(_source(construct, arg, after, 16 + shift))
    start, size = _f_slab(checked)
    assert start % PAGE_SIZE == PAGE_SIZE - FAR
    assert size == FAR + 4
    return checked


@pytest.mark.parametrize("after", sorted(AFTER))
@pytest.mark.parametrize("name", sorted(CONSTRUCTS))
def test_far_page_census_matches_across_backends(name, after):
    construct, arg = CONSTRUCTS[name]
    checked = _straddling(construct, arg, AFTER[after])
    cf = compile_program(checked).funcs["f"]
    assert FAR in cf.register_slots
    pages = {}
    for backend in ("interp", "compiled"):
        interp = make_interp(checked, backend=backend, seed=0)
        result = interp.run()
        assert result.error is None
        pages[backend] = (result.stats.pages_program, result.exit_code)
    assert pages["compiled"] == pages["interp"]
    for policy in ("random", "serial"):
        assert (fingerprint(checked, 0, policy, "compiled")
                == fingerprint(checked, 0, policy, "interp"))
