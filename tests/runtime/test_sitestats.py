"""Per-check-site cost attribution (repro.obs.sitestats).

The load-bearing property is *exact reconciliation*: the per-site sums
must equal the global ``RunStats`` check counters on every run, under
both execution backends — attribution that drifts from the counters it
claims to explain is worse than none.
"""

import pytest

from tests.runtime.test_identity_oracle import COUNTER as RACY
from repro.obs.sitestats import (
    I_COST, SITE_FIELDS, decode_sites, encode_sites, merge_sites,
    new_counter, reconcile, render_hot_sites, site_id, site_rows,
    totals,
)
from repro.runtime.interp import run_checked
from repro.sharc.checker import check_source


LOCKED = """
mutex lk;
int locked(lk) counter = 0;
void *bump(void *arg) {
  mutexLock(&lk); counter = counter + 1; mutexUnlock(&lk);
  return NULL;
}
int main() {
  int t1 = thread_create(bump, NULL);
  int t2 = thread_create(bump, NULL);
  thread_join(t1);
  thread_join(t2);
  return 0;
}
"""


def _run(source, filename="t.c", **kwargs):
    checked = check_source(source, filename)
    assert checked.ok, checked.render_diagnostics()
    return run_checked(checked, seed=1, **kwargs)


class TestCounterPlumbing:
    def test_new_counter_matches_field_layout(self):
        assert len(new_counter()) == len(SITE_FIELDS)
        assert set(new_counter()) == {0}

    def test_site_id_format(self):
        assert site_id(("a.c", 4, "buf[i]", "r")) == "a.c:4 r buf[i]"

    def test_encode_decode_roundtrip(self):
        sites = {("a.c", 1, "x", "w"): [1, 2, 3, 4, 5, 6, 7, 8],
                 ("a.c", 2, "y", "r"): [8, 7, 6, 5, 4, 3, 2, 1]}
        assert decode_sites(encode_sites(sites)) == sites

    def test_encode_is_deterministic_and_hashable(self):
        sites = {("b.c", 2, "y", "r"): [1] * 8,
                 ("a.c", 1, "x", "w"): [2] * 8}
        encoded = encode_sites(sites)
        assert encoded == encode_sites(dict(reversed(sites.items())))
        hash(encoded)  # picklable/frozen-dataclass requirement

    def test_merge_accepts_dicts_and_encodings(self):
        key = ("a.c", 1, "x", "w")
        acc = {}
        merge_sites(acc, {key: [1] * 8})
        merge_sites(acc, encode_sites({key: [2] * 8}))
        assert acc == {key: [3] * 8}

    def test_merge_does_not_alias_source_counters(self):
        key = ("a.c", 1, "x", "w")
        src = {key: [1] * 8}
        acc = merge_sites({}, src)
        acc[key][0] += 10
        assert src[key][0] == 1

    def test_rows_sorted_by_cost_then_key(self):
        sites = {("a.c", 1, "x", "w"): [0] * 7 + [5],
                 ("a.c", 2, "y", "r"): [0] * 7 + [9],
                 ("a.c", 3, "z", "r"): [0] * 7 + [5]}
        rows = site_rows(sites)
        assert [r["lvalue"] for r in rows] == ["y", "x", "z"]
        assert site_rows(sites, limit=1)[0]["cost"] == 9

    def test_totals_sum_every_field(self):
        sites = {("a.c", 1, "x", "w"): [1, 2, 3, 4, 5, 6, 7, 8],
                 ("a.c", 2, "y", "r"): [1, 1, 1, 1, 1, 0, 0, 9]}
        got = totals(sites)
        assert got["solo"] == 2 and got["cost"] == 17
        # "checks" counts discharge kinds only (solo..locked), not
        # the miss/conflict/cost bookkeeping fields.
        assert got["checks"] == (1 + 2 + 3 + 4 + 5) + 5

    def test_render_annotates_source_lines(self):
        sites = {("t.c", 2, "x", "w"): [0, 4, 0, 0, 0, 1, 0, 7]}
        text = render_hot_sites(sites, source="int a;\nx = 1;\n")
        assert "t.c:2 x" in text
        assert "x = 1;" in text
        assert render_hot_sites({}) == "no check sites recorded"


class TestReconciliation:
    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_racy_program_reconciles(self, backend):
        result = _run(RACY, backend=backend)
        assert result.stats.sites, "no sites recorded"
        assert reconcile(result.stats.sites, result.stats) == []

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_locked_refinement_reconciles(self, backend):
        result = _run(LOCKED, backend=backend)
        assert reconcile(result.stats.sites, result.stats) == []

    def test_ablations_shift_kinds_not_totals(self):
        """static off turns elided checks into full walks; the site
        totals must follow and still reconcile."""
        on = _run(RACY, static=True)
        off = _run(RACY, static=False)
        assert reconcile(off.stats.sites, off.stats) == []
        assert totals(off.stats.sites)["elided"] == 0
        assert totals(on.stats.sites)["checks"] == \
            totals(off.stats.sites)["checks"]

    def test_reconcile_reports_drift(self):
        result = _run(RACY)
        sites = {k: list(v) for k, v in result.stats.sites.items()}
        key = next(iter(sites))
        sites[key][1] += 1  # forge one extra full walk
        problems = reconcile(sites, result.stats)
        assert problems and any("full" in p for p in problems)

    @pytest.mark.parametrize("name", ["pfscan", "dillo", "fftw"])
    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_table1_workloads_reconcile(self, name, backend):
        """The acceptance bar: per-site totals reconcile exactly with
        the stats.py counters on the Table 1 workloads, both
        backends."""
        from repro.bench.workloads import get_workload

        workload = get_workload(name)
        checked = check_source(workload.annotated_source, f"{name}.c")
        assert checked.ok
        result = run_checked(checked, seed=workload.seed,
                             world=workload.world_factory(),
                             max_steps=workload.max_steps,
                             backend=backend)
        assert result.stats.sites
        assert reconcile(result.stats.sites, result.stats) == []
        assert totals(result.stats.sites)["cost"] > 0


class TestSweepAggregation:
    def test_explore_merges_sites_across_schedules(self):
        from repro.explore.driver import explore_source, run_schedule

        summary = explore_source(RACY, "racy.c", seeds=3,
                                 policies=("random", "round-robin"))
        assert summary.site_totals
        per_schedule = {}
        for outcome in summary.outcomes:
            merge_sites(per_schedule, run_schedule(
                RACY, "racy.c", outcome.seed, outcome.policy).sites)
        assert per_schedule == summary.site_totals

    def test_outcome_sites_pickle_across_pool(self):
        import pickle

        from repro.explore.driver import explore_source, run_schedule

        kwargs = dict(seeds=2, policies=("random",))
        fanned = explore_source(RACY, "racy.c", jobs=2, **kwargs)
        inline = explore_source(RACY, "racy.c", jobs=1, **kwargs)
        assert fanned.site_totals == inline.site_totals
        outcome = run_schedule(RACY, "racy.c", 0, "random")
        assert pickle.loads(pickle.dumps(outcome)) == outcome
        assert outcome.sites[0][1][I_COST] >= 0
