"""The identity oracle: SharC's checks observe a run without changing it.

Every program the repo ships (:func:`programs`) runs at one coordinate,
its seed and policy fixed by its index, in every configuration of
:data:`LATTICE`: backend x static discharge tiers x tracing.  Each run
reduces to one fingerprint (:func:`observe`) in two parts:

- the *contract*: steps and every ``RunStats`` counter but the check
  mix, report counts, reports (a traced run's without their ``hist``
  provenance lines), output, exit/deadlock/error/timeout, thread results
  and per-thread steps, the context-switch trace, the world's bytes and
  the scheduler RNG state.  It matches across every configuration.
- the *check mix* (:data:`MIX`): it matches across every axis but those
  in :data:`MIX_AXES`, which may move checks between kinds but never
  change their sum.  Every run's sites reconcile with its counters.

Traced rows also agree on their :func:`timeline`: the step clock
stamped on every bus event and on the history of every report.
:data:`PINNED_TIMELINES` pins that clock across commits for a few
programs.  Eraser rows vary the backend only.  The sweep path (``run_schedule``,
trace hash included) agrees with the direct run in every configuration
it can take.  Every program's lockset summaries converge.

The soundness column runs each program with a known race set on the
reference configuration over :data:`SOUNDNESS_SEEDS` x every built-in
policy: the union of its reports hits every injected race, a race-free
scenario reports nothing, and the formal Machine confirms every race of
a scenario that carries a formal companion.

A new run knob joins the oracle as one more line of :data:`LATTICE`.
``golden_schedules.json`` pins the first 62 programs' fingerprints
across commits (``test_schedule_golden.py``).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import random
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest

from tests.conftest import check_ok
from repro.compile import compile_program
from repro.explore.driver import _checked_program, run_schedule, trace_hash
from repro.fuzz.gen import verify_formal
from repro.fuzz.scenarios import ScenarioOracle
from repro.obs.events import TraceConfig
from repro.obs.sitestats import reconcile
from repro.runtime.addrspace import PAGE_SIZE
from repro.runtime.interp import make_interp

REPO = Path(__file__).resolve().parents[2]
POLICIES = ("random", "round-robin", "serial", "pct", "pb")
#: caps the Table 1 models (up to ~390k steps) so one run stays a few
#: milliseconds; every other program finishes well inside it.  A capped
#: run still fingerprints its full state.
MAX_STEPS = 20_000

#: configuration axis -> its values, the reference first
LATTICE = {
    "backend": ("interp", "compiled"),
    "static": (True, False),
    "trace": (None, TraceConfig()),
}
CONFIGS = [dict(zip(LATTICE, values))
           for values in itertools.product(*LATTICE.values())]
REFERENCE = CONFIGS[0]
#: the axes that may move checks between the kinds of the check mix
MIX_AXES = ("static",)
#: the axes an Eraser row varies
ERASER_AXES = ("backend",)
#: the axes ``run_schedule`` takes
SWEEP_AXES = ("backend", "static")
#: the check-mix counters; the first four sum to the same total in
#: every configuration
MIX = ("checks_full", "checks_range", "checks_elided",
       "checks_locked_refined", "sites")
SOUNDNESS_SEEDS = range(4)
#: program -> digest of its traced :func:`timeline` on every backend.
#: Every configuration shares the step clock, so only a pin across
#: commits sees a clock that stamps the wrong step.
PINNED_TIMELINES = {
    "counter": "fd9c80ce3ca753bc511b1726",
    "gate-program": "b9c8cce77d4732a1458c63f9",
    "racy0": "47eadf4827b17e11af15ce51",
}


# -- the programs ------------------------------------------------------------


class Program(NamedTuple):
    name: str
    source: str
    world_factory: Optional[Callable] = None
    #: the ground truth of a program with a known race set
    oracle: Optional[ScenarioOracle] = None
    #: the fuzz scenario it came from, with its formal companion
    scenario: Optional[object] = None
    #: pinned across commits by ``golden_schedules.json``
    pinned: bool = False


#: the compiled backend's gate program: locks, arrays, a sharing cast,
#: helper calls and a race
GATE = """
mutex lk;
int locked(lk) total = 0;
int shared = 0;
int buf[32];
int bump(int v) { return v + 1; }
void *w(void *a) {
  int i; int x;
  for (i = 0; i < 12; i++) {
    x = shared;
    shared = bump(x) + buf[i];
    buf[i] = buf[i] + 1;
    mutexLock(&lk); total = total + 1; mutexUnlock(&lk);
  }
  return NULL;
}
int main() {
  int *a = malloc(4);
  int private *p = SCAST(int private *, a);
  *p = 7;
  free(p);
  int t1 = thread_create(w, NULL);
  int t2 = thread_create(w, NULL);
  thread_join(t1);
  thread_join(t2);
  return 0;
}
"""

#: a racy counter: every traced report carries provenance
COUNTER = """
int counter = 0;

void *bump(void *arg) {
  int i;
  for (i = 0; i < 8; i++) {
    counter = counter + 1;
  }
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

#: check elimination's program: covers carried around a scan loop
SCAN = """
int shared = 0;
int buf[32];
void *w(void *a) {
  int i; int x;
  for (i = 0; i < 16; i++) {
    x = shared;
    shared = x + buf[i];
    buf[i] = buf[i] + 1;
  }
  return NULL;
}
int main() {
  int t1 = thread_create(w, NULL);
  int t2 = thread_create(w, NULL);
  thread_join(t1);
  thread_join(t2);
  return 0;
}
"""

#: the lockset refinement's program: one consistently locked counter
#: (refined), one read-mostly locked config (refined), and one unlocked
#: racy global (static race; conflicts keep firing dynamically)
MIXED = """
mutex lk;
int counter = 0;
int config = 0;
int racy_g = 0;
void *w(void *a) {
  int i; int c;
  for (i = 0; i < 8; i++) {
    mutexLock(&lk);
    c = config;
    counter = counter + c + 1;
    mutexUnlock(&lk);
    racy_g = racy_g + 1;
  }
  return NULL;
}
int main() {
  mutexLock(&lk);
  config = 2;
  mutexUnlock(&lk);
  int t1 = thread_create(w, NULL);
  int t2 = thread_create(w, NULL);
  thread_join(t1);
  thread_join(t2);
  mutexLock(&lk);
  int c = counter;
  mutexUnlock(&lk);
  return c;
}
"""

#: both tiers at once: a racy scan loop (elide, range) and a counter
#: bumped twice under its lock (locked, and elide on the second bump)
BOTH = """
mutex lk;
int counter = 0;
int buf[16];
void *w(void *a) {
  int i;
  for (i = 0; i < 16; i++) {
    buf[i] = buf[i] + 1;
  }
  mutexLock(&lk);
  counter = counter + 1;
  counter = counter + 1;
  mutexUnlock(&lk);
  return NULL;
}
int main() {
  int t1 = thread_create(w, NULL);
  int t2 = thread_create(w, NULL);
  thread_join(t1);
  thread_join(t2);
  mutexLock(&lk);
  int c = counter;
  mutexUnlock(&lk);
  return c;
}
"""

#: struct block copies: into and out of a ``locked(m)`` global, into a
#: struct whose lock is reached through memory (``bx->mu``), through a
#: racy global, and ``*d = *s`` in a helper with no struct local
STRUCTS = """
struct pair { int a; int b; };
typedef struct box {
  mutex *mu;
  struct pair locked(mu) val;
} box_t;
mutex m;
struct pair locked(m) guarded;
struct pair loose;

void copy(struct pair *d, struct pair *s) {
  *d = *s;
}

void *worker(void *arg) {
  box_t *bx = arg;
  struct pair mine;
  int i;
  for (i = 0; i < 3; i++) {
    mutexLock(&m);
    mine = guarded;
    mine.a = mine.a + 1;
    guarded = mine;
    mutexUnlock(&m);
    mine = guarded;
    loose = mine;
    copy(&mine, &loose);
    mutexLock(bx->mu);
    bx->val = mine;
    mutexUnlock(bx->mu);
    mine = bx->val;
  }
  return NULL;
}

int main() {
  struct pair *x = malloc(sizeof(struct pair));
  struct pair *y = malloc(sizeof(struct pair));
  box_t *b = malloc(sizeof(box_t));
  b->mu = &m;
  box_t dynamic *bx = SCAST(box_t dynamic *, b);
  x->a = 1;
  x->b = 2;
  copy(y, x);
  int t1 = thread_create(worker, bx);
  int t2 = thread_create(worker, bx);
  thread_join(t1);
  thread_join(t2);
  copy(x, y);
  printf("%d %d\\n", guarded.a, y->b);
  return 0;
}
"""

RANGE_LENS = (4, 8, 16, 24)


def range_walk_source(array_len: int) -> str:
    """A writer/reader pair walking a shared dynamic array: the access
    pattern the range-batched checks exist for, racy by design so the
    conflict paths are walked too."""
    return f"""
int dynamic buf[{array_len}];
int total = 0;
void *writer(void *arg) {{
  int i;
  for (i = 0; i < {array_len}; i++) buf[i] = i + 1;
  return NULL;
}}
void *reader(void *arg) {{
  int i;
  int acc = 0;
  for (i = 0; i < {array_len}; i++) acc = acc + buf[i];
  total = acc;
  return NULL;
}}
int main() {{
  int t1 = thread_create(writer, NULL);
  int t2 = thread_create(reader, NULL);
  thread_join(t1);
  thread_join(t2);
  return 0;
}}
"""


# The page census of register slots.  Compiled code keeps a register
# slot in a generator local and pays the slot's page census only on its
# first touch in the activation; a compile-time "touched" set drops the
# census where an earlier touch dominates.  Frame slabs almost never
# straddle a page, so each straddling program pads the globals until
# ``f``'s slab starts FAR bytes before a page boundary: its four int
# slots (``c``, ``i``, ``t``, ``x``) fill the near page and ``far``
# alone lives on the next.  ``far`` is first touched only inside one
# construct, on a path the run does not take, and touched again after
# it, read first or written first.  A touched set leaking out of the
# construct leaves the far page uncounted.

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

#: the touch after the construct: a read first, or a write first
AFTER = {"read": "x = far + t;", "write": "far = 5; x = far + t;"}

STRADDLE = """
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

#: ``f``'s slab offset of ``far``: after four ints
FAR = 16


def _f_slab(source: str) -> tuple[int, int]:
    """(start, size) of ``f``'s frame slab: the last stack block."""
    interp = make_interp(check_ok(source), backend="interp", seed=0)
    interp.run()
    block = [b for b in interp.space.blocks.values()
             if b.kind == "stack"][-1]
    return block.start, block.size


def straddling_source(construct: str, arg: int, after: str) -> str:
    """The straddling program: ``pad`` chosen so ``far``, a register
    slot, is the only slot on the page after the one ``f``'s slab
    starts on."""
    def source(pad: int) -> str:
        return STRADDLE % {"pad": pad, "construct": construct,
                           "arg": arg, "after": after}

    start, _ = _f_slab(source(16))
    text = source(16 + (PAGE_SIZE - FAR - start) % PAGE_SIZE)
    start, size = _f_slab(text)
    assert start % PAGE_SIZE == PAGE_SIZE - FAR
    assert size == FAR + 4
    assert FAR in compile_program(check_ok(text)).funcs["f"].register_slots
    return text


@functools.cache
def programs() -> tuple[Program, ...]:
    """Every program the repo ships.  First the 62 the golden pins: both
    variants of each Table 1 model, ``examples/*.c``, the fuzz corpus, a
    fixed fuzz-scenario sample, explore's racy generator and the gate
    program.  Then the lock-elision kind of the racy generator, the
    straddling programs and the inline programs of the static tiers,
    struct copies, range walks and tracing."""
    from repro.bench.workloads import all_workloads
    from repro.explore.frontends import racy_c_program
    from repro.fuzz.gen import generate_scenario, sample_specs

    pinned = []
    for w in all_workloads():
        pinned.append(Program(f"{w.name}-annotated", w.annotated_source,
                              w.world_factory))
        pinned.append(Program(f"{w.name}-unannotated",
                              w.unannotated_source, w.world_factory))
    for path in sorted((REPO / "examples").glob("*.c")):
        pinned.append(Program(f"examples/{path.name}", path.read_text()))
    for path in sorted((REPO / "tests/fuzz/corpus").glob("*.json")):
        pinned.append(Program(f"corpus/{path.stem}",
                              json.loads(path.read_text())["source"]))
    for i, spec in enumerate(sample_specs(random.Random(0), 26)):
        scenario = generate_scenario(spec)
        pinned.append(Program(f"scenario{i}-{spec.family}",
                              scenario.source, oracle=scenario.oracle,
                              scenario=scenario))
    for g in range(10):
        source, race = racy_c_program(g)
        pinned.append(Program(f"racy{g}", source,
                              oracle=ScenarioOracle("racy", (race,))))
    pinned.append(Program("gate-program", GATE))

    more = []
    for g in range(10):
        source, race = racy_c_program(g, kind="lock-elision")
        more.append(Program(f"racy{g}-lock-elision", source,
                            oracle=ScenarioOracle("racy", (race,))))
    for name in sorted(CONSTRUCTS):
        construct, arg = CONSTRUCTS[name]
        for after in sorted(AFTER):
            more.append(Program(
                f"straddle-{name}-{after}",
                straddling_source(construct, arg, AFTER[after])))
    more += [Program("counter", COUNTER), Program("scan", SCAN),
             Program("mixed", MIXED), Program("both-tiers", BOTH),
             Program("struct-copies", STRUCTS)]
    more += [Program(f"range-walk{n}", range_walk_source(n))
             for n in RANGE_LENS]
    return tuple(p._replace(pinned=True) for p in pinned) + tuple(more)


# -- the fingerprint ---------------------------------------------------------


def observe(checked, seed: int, policy, backend: str,
            world_factory=None, checker: str = "sharc",
            max_steps: int = MAX_STEPS, static: bool = True,
            trace: Optional[TraceConfig] = None):
    """One run as ``(payload, result)``: the payload holds everything
    the run can show, the check mix included."""
    world = world_factory() if world_factory is not None else None
    interp = make_interp(checked, backend=backend, seed=seed, world=world,
                         policy=policy, record_trace=True,
                         checker=checker, static=static, trace=trace)
    result = interp.run(max_steps=max_steps)
    stats = dataclasses.asdict(result.stats)
    del stats["wall_seconds"]
    stats["sites"] = sorted(map(repr, stats["sites"].items()))
    payload = {
        "stats": stats,
        "report_counts": sorted(result.report_counts.items()),
        "reports": [dataclasses.replace(r, history=()).render()
                    for r in result.reports],
        "output": result.output,
        "deadlock": result.deadlock,
        "error": result.error,
        "timeout": result.timeout,
        "exit_code": result.exit_code,
        "thread_results": sorted((tid, repr(v)) for tid, v
                                 in result.thread_results.items()),
        "trace": list(interp.sched.trace or []),
        "written": sorted((k, bytes(v))
                          for k, v in interp.world.written.items()),
        "outbound": sorted((k, bytes(v))
                           for k, v in interp.world.outbound.items()),
        "rng": interp.sched.rng.getstate(),
        "thread_steps": sorted((t.tid, t.steps)
                               for t in interp.sched.threads.values()),
    }
    if interp.eraser is not None:
        payload["eraser"] = dataclasses.asdict(interp.eraser.stats)
    return payload, result


def timeline(result) -> tuple:
    """A traced run's step-clock stamps: each bus event's ``(cat, name,
    tid, ts, dur)`` and each report with its ``hist`` lines."""
    return ([(e.cat, e.name, e.tid, e.ts, e.dur) for e in result.events],
            [r.render() for r in result.reports])


def contract(payload: dict) -> dict:
    return {**payload, "stats": {k: v for k, v in payload["stats"].items()
                                 if k not in MIX}}


def mix(payload: dict) -> dict:
    return {k: payload["stats"][k] for k in MIX}


def mix_total(payload: dict) -> int:
    return sum(payload["stats"][k] for k in MIX[:-1])


def fingerprint(checked, seed: int, policy, backend: str,
                world_factory=None, checker: str = "sharc",
                max_steps: int = MAX_STEPS) -> dict:
    """The golden's summary of one untraced ``static`` run."""
    payload, result = observe(checked, seed, policy, backend,
                              world_factory, checker, max_steps)
    del payload["thread_steps"]  # not in the golden's digest
    digest = hashlib.sha256(repr(tuple(payload.values())).encode())
    return {"steps": result.stats.steps_total,
            "switches": result.stats.context_switches,
            "fp": digest.hexdigest()[:24]}


def _within(axes) -> list:
    """The configurations that differ from the reference only on
    ``axes``."""
    return [c for c in CONFIGS
            if all(c[a] == REFERENCE[a] for a in LATTICE if a not in axes)]


def _mix_peer(rows: list, config: dict):
    """The first row whose configuration matches ``config`` on every
    axis that may move the check mix."""
    return next(row for c, row in rows
                if all(c[a] == config[a] for a in MIX_AXES))


def check_identity(checked, seed: int, policy, world_factory=None,
                   checker: str = "sharc", axes=tuple(LATTICE)) -> list:
    """Runs ``checked`` at one coordinate in every configuration of its
    rows (those varying only ``axes``; an Eraser row varies no axis but
    :data:`ERASER_AXES`), asserts the contract, and returns ``(config,
    (payload, result))`` per row, the reference first."""
    if checker != "sharc":
        axes = [a for a in axes if a in ERASER_AXES]
    rows = []
    for config in _within(axes):
        payload, result = observe(checked, seed, policy,
                                  world_factory=world_factory,
                                  checker=checker, **config)
        assert reconcile(result.stats.sites, result.stats) == [], config
        rows.append((config, (payload, result)))
    reference = rows[0][1][0]
    for config, (payload, _) in rows[1:]:
        assert contract(payload) == contract(reference), config
        assert mix_total(payload) == mix_total(reference), config
        assert mix(payload) == mix(_mix_peer(rows, config)[0]), config
    traced = [(c, timeline(result)) for c, (_, result) in rows
              if c["trace"] is not None]
    for config, stamps in traced[1:]:
        assert stamps == traced[0][1], config
    return rows


def check_sweep(source: str, seed: int, policy, world_factory=None,
                axes=SWEEP_AXES) -> list:
    """Runs ``source`` through ``run_schedule`` at one coordinate in
    every configuration varying only ``axes`` (a subset of
    :data:`SWEEP_AXES`), asserts the outcomes agree, and returns
    ``(config, outcome)`` per row, the reference first."""
    outcomes = [(config, run_schedule(
        source, "test.c", seed, policy, max_steps=MAX_STEPS,
        world_factory=world_factory, shadow_bytes=1,
        **{a: config[a] for a in SWEEP_AXES}))
        for config in _within(axes)]
    first = outcomes[0][1]
    for config, outcome in outcomes:
        assert (dataclasses.replace(outcome, sites=())
                == dataclasses.replace(first, sites=())), config
        assert outcome.sites == _mix_peer(outcomes, config).sites, config
    return outcomes


def _coordinate(index: int) -> tuple[int, str]:
    return index, POLICIES[index % len(POLICIES)]


def _params(select=lambda p: True):
    return [pytest.param(i, p, id=p.name)
            for i, p in enumerate(programs()) if select(p)]


@pytest.mark.parametrize("index,program", _params())
def test_identity(index, program):
    # the sweep path's own cached check, so both paths share one compile
    checked = _checked_program(program.source, "test.c")
    assert checked.lockset_result.unconverged == ()
    seed, policy = _coordinate(index)
    _, (reference, _) = check_identity(checked, seed, policy,
                                       program.world_factory)[0]
    check_identity(checked, seed, policy, program.world_factory,
                   checker="eraser")

    # the sweep path, in every configuration it takes
    _, first = check_sweep(program.source, seed, policy,
                           program.world_factory)[0]
    assert first.steps == reference["stats"]["steps_total"]
    assert first.trace_hash == trace_hash(reference["trace"])
    assert first.report_keys == tuple(k for k, _ in
                                      reference["report_counts"])


@pytest.mark.parametrize("index,program",
                         _params(lambda p: p.name in PINNED_TIMELINES))
def test_traced_timeline_is_pinned(index, program):
    checked = _checked_program(program.source, "test.c")
    seed, policy = _coordinate(index)
    for backend in LATTICE["backend"]:
        _, result = observe(checked, seed, policy, backend,
                            program.world_factory, trace=TraceConfig())
        digest = hashlib.sha256(repr(timeline(result)).encode())
        assert digest.hexdigest()[:24] == PINNED_TIMELINES[program.name], \
            backend


@pytest.mark.parametrize("index,program",
                         _params(lambda p: p.oracle is not None))
def test_soundness(index, program):
    checked = check_ok(program.source)
    keys = set()
    for seed in SOUNDNESS_SEEDS:
        for policy in POLICIES:
            payload, _ = observe(checked, seed, policy,
                                 world_factory=program.world_factory,
                                 **REFERENCE)
            keys.update(k for k, _ in payload["report_counts"])
    if program.oracle.kind == "race-free":
        assert keys == set()
    else:
        assert program.oracle.missed_races(sorted(keys)) == []
    if program.scenario is not None and program.scenario.formal:
        assert all(verify_formal(program.scenario).values())


def test_the_oracle_covers_every_shipped_program():
    listed = programs()
    assert len(listed) == 62 + 10 + 14 + 5 + len(RANGE_LENS)
    assert sum(p.pinned for p in listed) == 62
    assert sum(p.oracle is not None for p in listed) == 46
    assert sum(bool(p.scenario and p.scenario.formal) for p in listed) == 13
    assert len({p.name for p in listed}) == len(listed)
