"""Schedule identity against a committed golden.

The first 62 programs of the identity oracle's list (the Table 1
variants, examples, fuzz corpus, a fuzz-scenario sample, explore's racy
generator and the gate program) run under every built-in policy on
both backends, each run reduced to the oracle's fingerprint.  The
fingerprints must equal ``golden_schedules.json``, so any change to the
scheduler, the wake-up protocol or the memory/world fast paths that
moves a single RNG draw or step shows up here, even where it moves
every configuration of the oracle alike.

The golden pins behaviour, not a measurement: regenerate it (run this
module as a script) only in a change that means to alter schedules,
and say so in that change.

The golden covers the SharC checker.  The Eraser baseline has no
golden; its rows of the oracle run here under every policy too.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.conftest import check_ok
from tests.runtime.test_identity_oracle import (
    POLICIES, check_identity, fingerprint, programs,
)

GOLDEN = Path(__file__).with_name("golden_schedules.json")
BACKENDS = ("interp", "compiled")


def program_fingerprints(index: int, program) -> dict:
    """Fingerprints of one pinned program: ``"policy/backend"`` -> run
    summary.  The seed is the program's index, so the golden spans many
    seeds without multiplying runs."""
    checked = check_ok(program.source)
    return {f"{policy}/{backend}": fingerprint(checked, index, policy,
                                               backend,
                                               program.world_factory)
            for policy in POLICIES for backend in BACKENDS}


_CENSUS = [(i, p) for i, p in enumerate(programs()) if p.pinned]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


census = pytest.mark.parametrize("index,program", [
    pytest.param(i, p, id=p.name) for i, p in _CENSUS])


@census
def test_schedules_match_golden(golden, index, program):
    assert program_fingerprints(index, program) == golden[program.name]


@census
def test_eraser_backends_agree(index, program):
    checked = check_ok(program.source)
    for policy in POLICIES:
        check_identity(checked, index, policy, program.world_factory,
                       checker="eraser")


def test_golden_covers_the_census(golden):
    assert sorted(golden) == sorted(p.name for _, p in _CENSUS)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {p.name: program_fingerprints(i, p) for i, p in _CENSUS},
        indent=1, sort_keys=True) + "\n")
