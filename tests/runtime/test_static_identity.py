"""The static discharge tiers' floors: the marks really discharge
checks, an off run never does, and on the Table 1 workloads the tiers
cut full shadow walks and convert checks to locked(l) ones.  That a
``static`` run is bit-identical to an off run, and moves checks only
between kinds of the check mix, is the identity oracle's contract
(``test_identity_oracle.py``); here its static axis alone sweeps more
seeds and policies of the tiers' own programs, and each tier alone: a
test that needs one tier clears the other tier's marks on its checked
program (:func:`only_tier`)."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import check_ok
from tests.runtime.test_identity_oracle import (
    BOTH, MIXED, POLICIES, SCAN, check_identity, check_sweep,
)
from repro.cfront import cast as A
from repro.runtime.interp import run_checked

PROGRAMS = {"RACY": SCAN, "MIXED": MIXED, "BOTH": BOTH}


def _run(checked, seed, policy, static):
    return run_checked(checked, seed=seed, policy=policy,
                       static=static, record_trace=True)


def _total(s):
    return (s.checks_full + s.checks_range + s.checks_elided
            + s.checks_locked_refined)


def _on_off(checked, seed, policy):
    """The oracle's static rows at one coordinate: the on and off
    results, their contract and check total asserted equal."""
    (_, (_, on)), (_, (_, off)) = check_identity(checked, seed, policy,
                                                 axes=("static",))
    return on, off


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=40),
       policy=st.sampled_from(POLICIES))
def test_on_off_runs_are_bit_identical(name, seed, policy):
    _on_off(check_ok(PROGRAMS[name]), seed, policy)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=40),
       policy=st.sampled_from(POLICIES))
def test_explore_outcomes_are_identical(name, seed, policy):
    """The ``sharc explore`` path (trace hash included) can't tell the
    two configurations apart either."""
    check_sweep(PROGRAMS[name], seed, policy, axes=("static",))


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


@pytest.mark.parametrize("tier", ["checkelim", "lockset"])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_each_tier_alone_is_bit_identical(tier, seed):
    """Either tier's marks alone keep the run identical, and the tier
    left on really discharges checks."""
    checked = only_tier(check_ok(BOTH), tier)
    _, (_, on) = check_identity(checked, seed, "random")[0]
    if tier == "checkelim":
        assert on.stats.checks_elided > 0
        assert on.stats.checks_locked_refined == 0
    else:
        assert on.stats.checks_locked_refined > 0
        assert on.stats.checks_elided == on.stats.checks_range == 0


class TestCheckMix:
    """What IS allowed to change: how the same checks get discharged."""

    def test_elision_actually_fires(self):
        checked = check_ok(SCAN)
        on = _run(checked, 3, "random", True)
        assert on.stats.checks_elided > 0
        assert on.stats.checks_elided_pct > 0.0

    def test_off_run_never_elides(self):
        checked = check_ok(SCAN)
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
        on, off = _on_off(check_ok(PROGRAMS[name]), 3, "random")
        assert _total(on.stats) == _total(off.stats)
        assert on.stats.accesses_dynamic == off.stats.accesses_dynamic

    def test_shadow_state_identical_after_runs(self):
        """The discharged fast paths replay the full check's effects,
        so even the shadow update counts agree."""
        on, off = _on_off(check_ok(MIXED), 5, "random")
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
