"""Run-to-block bursts.

Once a preemption-bounded walk has spent its bound, its pick hands the
running thread one *held* burst instead of one pick per item.  The
reference below is the one-pick-per-item walk; every run must
fingerprint identically under both, on both backends.  The programs
aim at the three places where a held burst has to stop early: an item
that wakes a blocked thread, a spawn inside the burst, and a run that
hits ``max_steps`` mid-burst.

Every run-to-block burst (``serial``, the tail of a replay and the held
burst) honours ``max_steps``.  Those tests run in a subprocess with a
timeout, so a burst that ignores it fails instead of hanging the suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.obs.events import TraceConfig
from repro.runtime.interp import make_interp
from repro.runtime.scheduler import PreemptionBoundPolicy
from tests.conftest import check_ok
from tests.runtime.test_identity_oracle import fingerprint

BACKENDS = ("interp", "compiled")


class OnePickPerItem(PreemptionBoundPolicy):
    """The reference walk: the same decisions, one item per pick."""

    def pick(self, candidates, sched):
        thread, _ = super().pick(candidates, sched)
        return thread, 1


# The unlock wakes the waiter; main takes the lock back before it
# blocks, so the waiter is RUNNABLE at the free switch only if the
# wake-ups were polled right after the unlock.
REACQUIRE = """
mutex lk;
int locked(lk) x = 0;
int racy y = 0;
void *waiter(void *arg) {
  mutexLock(&lk); x = x + 1; mutexUnlock(&lk);
  return NULL;
}
void *helper(void *arg) { return NULL; }
int main() {
  int i;
  mutexLock(&lk);
  int w = thread_create(waiter, NULL);
  int h = thread_create(helper, NULL);
  for (i = 0; i < 10; i++) x = x + 1;
  thread_join(h);
  mutexUnlock(&lk);
  y = y + 1;
  mutexLock(&lk);
  x = x + 1;
  int h2 = thread_create(helper, NULL);
  thread_join(h2);
  mutexUnlock(&lk);
  thread_join(w);
  return 0;
}
"""

SPAWN = """
int racy total = 0;
void *worker(void *arg) {
  int i;
  for (i = 0; i < 3; i++) total = total + 1;
  return NULL;
}
int main() {
  int t[4];
  int i;
  for (i = 0; i < 4; i++) t[i] = thread_create(worker, NULL);
  total = total + 10;
  for (i = 0; i < 4; i++) thread_join(t[i]);
  return 0;
}
"""

# Runs past MAX_STEPS, so the run stops inside a held burst.
LONG = """
int racy spins = 0;
void *worker(void *arg) {
  int i;
  for (i = 0; i < 40; i++) spins = spins + 1;
  return NULL;
}
int main() {
  int t = thread_create(worker, NULL);
  int i;
  for (i = 0; i < 300; i++) spins = spins + 1;
  thread_join(t);
  return 0;
}
"""
MAX_STEPS = 600

PROGRAMS = {"reacquire": REACQUIRE, "spawn": SPAWN, "long": LONG}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bound", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_held_bursts_match_one_pick_per_item(name, bound, backend):
    checked = check_ok(PROGRAMS[name])
    for seed in range(5):
        held = fingerprint(checked, seed, f"pb:{bound}", backend,
                           max_steps=MAX_STEPS)
        reference = fingerprint(checked, seed,
                                OnePickPerItem(bound=bound), backend,
                                max_steps=MAX_STEPS)
        assert held == reference, (name, bound, seed)


@pytest.mark.parametrize("backend", BACKENDS)
def test_held_burst_is_one_traced_slice(backend):
    checked = check_ok(SPAWN)
    interp = make_interp(checked, backend=backend, policy="pb:0",
                         trace=TraceConfig())
    result = interp.run()
    slices = [e for e in result.events if e.name == "run"]
    # main runs to its first join in one burst, then every worker to
    # its end: the run's few picks, one slice each.
    assert len(slices) < result.stats.context_switches
    assert sum(e.args["items"] for e in slices) == \
        interp.sched.items_scheduled


# Each worker dies on its division before its first yield.
DIVIDE_BY_ZERO = """
int racy sum = 0;
void *worker(void *arg) {
  int z = 0;
  int x = (1 + 2 + 3 + 4 + 5 + 6) / z;
  return NULL;
}
int main() {
  int i;
  int t1 = thread_create(worker, NULL);
  int t2 = thread_create(worker, NULL);
  for (i = 0; i < 30; i++) sum = sum + i;
  thread_join(t1);
  thread_join(t2);
  return 0;
}
"""


@pytest.mark.parametrize("backend", BACKENDS)
def test_dying_thread_keeps_its_steps(backend):
    """A thread that dies before its next yield is charged the ticks it
    ran, not the next thread that yields."""
    checked = check_ok(DIVIDE_BY_ZERO)
    interp = make_interp(checked, backend=backend, seed=3,
                         trace=TraceConfig())
    result = interp.run()
    assert "division by zero" in result.error
    spans: dict[int, int] = {}
    for e in result.events:
        if e.name == "run":
            spans[e.tid] = spans.get(e.tid, 0) + e.dur
    workers = [t for t in interp.sched.threads.values() if t.tid != 1]
    assert [t.state.value for t in workers] == ["failed", "failed"]
    for t in workers:
        assert t.steps == spans[t.tid] == 15


JOINS = """
int racy g = 0;
void *worker(void *arg) {
  g = g + 1;
  return NULL;
}
int main() {
  int t1 = thread_create(worker, NULL);
  int t2 = thread_create(worker, NULL);
  thread_join(t1);
  thread_join(t2);
  return 0;
}
"""


@pytest.mark.parametrize("backend", BACKENDS)
def test_blocking_thread_keeps_its_steps(backend):
    """A burst that ends on a ``block`` item charges the ticks run
    since the thread's last yield to that thread, not to the next
    thread that yields."""
    checked = check_ok(JOINS)
    interp = make_interp(checked, backend=backend, seed=3,
                         trace=TraceConfig())
    result = interp.run()
    spans: dict[int, int] = {}
    for e in result.events:
        if e.name == "run":
            spans[e.tid] = spans.get(e.tid, 0) + e.dur
    steps = {t.tid: t.steps for t in interp.sched.threads.values()}
    assert steps == spans


def _run_with_timeout(code: str) -> str:
    """Runs ``code`` in a fresh interpreter; a hang fails the test
    instead of the whole suite."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=60,
                          env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("policy", [
    "'serial'", "'pb:0'", "'random'", "ReplayPolicy([])"])
def test_run_to_block_burst_stops_at_max_steps(policy):
    out = _run_with_timeout(f"""
        from repro.sharc.checker import check_source
        from repro.runtime.interp import run_checked
        from repro.runtime.scheduler import ReplayPolicy
        checked = check_source(
            "int g; int main() {{ while (1) {{ g = g + 1; }} return 0; }}")
        result = run_checked(checked, policy={policy}, max_steps=5000)
        print(result.timeout, result.stats.steps_total)
    """)
    timeout, steps = out.split()
    assert timeout == "True"
    assert 4000 < int(steps) <= 5000


def test_pct_horizon_probe_of_a_spinning_main_finishes():
    out = _run_with_timeout("""
        from repro.explore.driver import explore_source
        source = '''
        int racy flag = 0;
        void *setter(void *arg) { flag = 1; return NULL; }
        int main() {
          int t = thread_create(setter, NULL);
          while (!flag) { }
          thread_join(t);
          return 0;
        }
        '''
        summary = explore_source(source, seeds=2, policies=("pct",),
                                 max_steps=20000)
        print(*sorted({o.policy for o in summary.outcomes}))
    """)
    # The serial probe stops at max_steps, which caps PCT's horizon.
    depth, horizon = out.split(":")[1:]
    assert depth == "3" and 0 < int(horizon) <= 20000
