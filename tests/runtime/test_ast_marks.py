"""Every mark a phase sets on an AST node is declared on the node's class.

The executors read marks as plain attributes (``node.sharc_reg``), so a
mark that some phase sets without a class-level default would make a
read of an unmarked node raise.  After a check and a run of every
shipped program on both backends (Eraser too, which memoizes its own
mark), every instance attribute of every node that is not a dataclass
field must be declared on the node's class.
"""

from __future__ import annotations

import dataclasses

from repro.cfront import cast as A
from repro.explore.driver import _checked_program
from repro.runtime.interp import make_interp
from repro.sharc.typecheck import AccessInfo
from tests.runtime.test_identity_oracle import (
    LATTICE, MAX_STEPS, _coordinate, programs,
)

_NODES = (A.Expr, A.Stmt, A.VarDecl, A.FuncDef)


def _nodes(program: A.Program):
    """Every node reachable from the program's declarations, lock
    expressions of access checks included."""
    seen: set[int] = set()
    stack: list = list(program.decls)
    while stack:
        x = stack.pop()
        if isinstance(x, (list, tuple)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, AccessInfo):
            stack.append(x.lock_ast)
        elif isinstance(x, _NODES) and id(x) not in seen:
            seen.add(id(x))
            yield x
            stack.extend(vars(x).values())


def _undeclared(node) -> list[str]:
    fields = {f.name for f in dataclasses.fields(node)}
    return [name for name in vars(node)
            if name not in fields and not hasattr(type(node), name)]


def test_every_mark_is_declared_on_its_class():
    undeclared = set()
    for index, program in enumerate(programs()):
        checked = _checked_program(program.source, "test.c")
        seed, policy = _coordinate(index)
        runs = [(backend, "sharc") for backend in LATTICE["backend"]]
        runs.append(("interp", "eraser"))
        for backend, checker in runs:
            world = (program.world_factory()
                     if program.world_factory is not None else None)
            make_interp(checked, backend=backend, seed=seed, world=world,
                        policy=policy, checker=checker).run(
                            max_steps=MAX_STEPS)
        for node in _nodes(checked.program):
            undeclared.update((type(node).__name__, name)
                              for name in _undeclared(node))
    assert sorted(undeclared) == []
