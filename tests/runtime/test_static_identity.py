"""The static discharge tiers' identity gate: running with ``static`` on
vs off must be *bit-identical* — same reports, same step counts, same
scheduling decisions — across seeds and scheduling policies.  The only
thing allowed to differ is the check-mix accounting (full vs range vs
elided vs locked) and therefore wall time.

This holds by construction for both tiers.  An elided check (check
elimination) still runs the ``ShadowMemory.recheck`` guard, which is
exactly the cache-hit prefix of the full check, and falls back to the
full check on a miss.  A refined check (the lockset refinement) runs
the held-lock-log test plus ``ShadowMemory.recheck_locked``, which
succeeds only when the full check would have been conflict-free at
cost 1 and then replays that fast path's exact effects.  These tests
keep the construction honest.  A test that needs one tier alone clears
the other tier's marks on its checked program (:func:`only_tier`)."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import check_ok
from repro.cfront import cast as A
from repro.explore.driver import run_schedule
from repro.runtime.interp import run_checked

# Check elimination's program: covers carried around a scan loop.
RACY = """
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

# The lockset refinement's program: one consistently locked counter
# (refined), one read-mostly locked config (refined), and one unlocked
# racy global (static race; conflicts keep firing dynamically).
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

# Both tiers at once: a racy scan loop (elide, range) and a counter
# bumped twice under its lock (locked, and elide on the second bump).
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

PROGRAMS = {"RACY": RACY, "MIXED": MIXED, "BOTH": BOTH}
POLICIES = ["random", "round-robin", "pct", "pb"]


def _run(checked, seed, policy, static):
    return run_checked(checked, seed=seed, policy=policy,
                       static=static, record_trace=True)


def _total(s):
    return (s.checks_full + s.checks_range + s.checks_elided
            + s.checks_locked_refined)


def only_tier(checked, tier: str):
    """Clears every mark but ``tier``'s (``"checkelim"`` or
    ``"lockset"``) on a freshly checked, never-run program, so a
    ``static`` run consumes that tier alone."""
    for func in checked.program.functions():
        for e in A.all_exprs(func.body):
            for attr in ("sharc_read", "sharc_write", "sharc_src_write"):
                info = getattr(e, attr, None)
                if info is None:
                    continue
                if tier == "checkelim":
                    info.refined_lock = None
                else:
                    info.elide = info.range_walk = False
    return checked


def _assert_identical(on, off):
    assert on.stats.steps_total == off.stats.steps_total
    assert on.trace == off.trace  # every context switch, in order
    assert on.report_counts == off.report_counts
    assert [r.render() for r in on.reports] == \
        [r.render() for r in off.reports]
    assert on.output == off.output
    assert (on.deadlock, on.error, on.timeout, on.exit_code) == \
        (off.deadlock, off.error, off.timeout, off.exit_code)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=40),
       policy=st.sampled_from(POLICIES))
def test_on_off_runs_are_bit_identical(name, seed, policy):
    checked = check_ok(PROGRAMS[name])
    _assert_identical(_run(checked, seed, policy, True),
                      _run(checked, seed, policy, False))


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=40),
       policy=st.sampled_from(POLICIES))
def test_explore_outcomes_are_identical(name, seed, policy):
    """The ``sharc explore`` path (trace hash included) can't tell the
    two configurations apart either."""
    on = run_schedule(PROGRAMS[name], "t.c", seed, policy, static=True)
    off = run_schedule(PROGRAMS[name], "t.c", seed, policy, static=False)
    assert on.trace_hash == off.trace_hash
    assert on.report_keys == off.report_keys
    assert (on.steps, on.switches, on.deadlock, on.error) == \
        (off.steps, off.switches, off.deadlock, off.error)


@pytest.mark.parametrize("tier", ["checkelim", "lockset"])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_each_tier_alone_is_bit_identical(tier, seed):
    """Either tier's marks alone keep the run identical, and the tier
    left on really discharges checks."""
    checked = only_tier(check_ok(BOTH), tier)
    on = _run(checked, seed, "random", True)
    off = _run(checked, seed, "random", False)
    _assert_identical(on, off)
    if tier == "checkelim":
        assert on.stats.checks_elided > 0
        assert on.stats.checks_locked_refined == 0
    else:
        assert on.stats.checks_locked_refined > 0
        assert on.stats.checks_elided == on.stats.checks_range == 0
    assert _total(on.stats) == _total(off.stats)


class TestCheckMix:
    """What IS allowed to change: how the same checks get discharged."""

    def test_elision_actually_fires(self):
        checked = check_ok(RACY)
        on = _run(checked, 3, "random", True)
        assert on.stats.checks_elided > 0
        assert on.stats.checks_elided_pct > 0.0

    def test_off_run_never_elides(self):
        checked = check_ok(RACY)
        off = _run(checked, 3, "random", False)
        assert off.stats.checks_elided == 0
        assert off.stats.checks_elided_pct == 0.0

    def test_refined_checks_actually_fire(self):
        checked = check_ok(MIXED)
        on = _run(checked, 3, "random", True)
        assert on.stats.checks_locked_refined > 0
        assert on.stats.checks_locked_pct > 0.0

    def test_off_run_never_takes_the_locked_path(self):
        checked = check_ok(MIXED)
        off = _run(checked, 3, "random", False)
        assert off.stats.checks_locked_refined == 0
        assert off.stats.checks_locked_pct == 0.0

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_total_dynamic_checks_are_conserved(self, name):
        # Every check an on-run discharges (elided, or through the
        # held-lock log), the off-run walks in full: the grand total of
        # check *sites hit* is the same run to run.
        checked = check_ok(PROGRAMS[name])
        on = _run(checked, 3, "random", True)
        off = _run(checked, 3, "random", False)
        assert _total(on.stats) == _total(off.stats)
        assert on.stats.accesses_dynamic == off.stats.accesses_dynamic

    def test_shadow_state_identical_after_runs(self):
        """The discharged fast paths replay the full check's effects,
        so even the shadow update counts agree."""
        checked = check_ok(MIXED)
        on = _run(checked, 5, "random", True)
        off = _run(checked, 5, "random", False)
        assert on.stats.shadow_updates == off.stats.shadow_updates


class TestWorkloadReduction:
    """Check elimination's acceptance criterion: >= 20%% fewer full
    shadow walks on at least two Table 1 workloads, with everything
    observable identical."""

    def _pair(self, name):
        from repro.bench.workloads import all_workloads
        workload = {w.name: w for w in all_workloads()}[name]
        from repro.bench.harness import run_workload
        on = run_workload(workload, static=True)
        off = run_workload(workload, static=False)
        return on, off

    def _assert_reduced(self, name):
        on, off = self._pair(name)
        assert on.sharc_steps == off.sharc_steps
        assert on.reports == off.reports
        walked_on = (on.sharc_result.stats.checks_full
                     + on.sharc_result.stats.checks_range)
        walked_off = (off.sharc_result.stats.checks_full
                      + off.sharc_result.stats.checks_range)
        assert walked_on <= 0.8 * walked_off, \
            f"{name}: {walked_on} vs {walked_off} shadow walks"

    def test_pfscan_walks_drop_at_least_20_pct(self):
        self._assert_reduced("pfscan")

    def test_dillo_walks_drop_at_least_20_pct(self):
        self._assert_reduced("dillo")


class TestWorkloadAcceptance:
    """The lockset refinement's acceptance criterion: on the unannotated
    pfscan/dillo/fftw it converts a nonzero fraction of dynamic checks
    to locked(l) checks, with everything observable bit-identical."""

    def _pair(self, name, seed=None):
        from repro.bench.workloads import get_workload
        from repro.bench.harness import run_workload
        workload = get_workload(name)
        on = run_workload(workload, annotated=False, seed=seed,
                          static=True)
        off = run_workload(workload, annotated=False, seed=seed,
                           static=False)
        return on, off

    @pytest.mark.parametrize("name", ["pfscan", "dillo", "fftw"])
    def test_nonzero_conversion_and_identity(self, name):
        on, off = self._pair(name)
        assert on.sharc_steps == off.sharc_steps
        assert on.reports == off.reports
        s_on = on.sharc_result.stats
        s_off = off.sharc_result.stats
        assert s_on.checks_locked_refined > 0, \
            f"{name}: no checks were converted to locked(l)"
        assert s_off.checks_locked_refined == 0
        assert sorted(on.sharc_result.report_counts.items()) == \
            sorted(off.sharc_result.report_counts.items())
        assert on.lockset_refined > 0  # refined locations reported

    @pytest.mark.parametrize("name", ["pfscan", "dillo", "fftw"])
    @pytest.mark.parametrize("seed", [2, 23])
    def test_identity_across_seeds(self, name, seed):
        on, off = self._pair(name, seed=seed)
        assert on.sharc_steps == off.sharc_steps
        assert sorted(on.sharc_result.report_counts.items()) == \
            sorted(off.sharc_result.report_counts.items())
        assert on.sharc_result.stats.checks_locked_refined > 0
