"""Range-batched checks vs scalar loops under the *compiled* backend.

``chkread_range``/``chkwrite_range`` are the page-sliced batch walk the
check eliminator routes monotone array walks through; the scalar path
(``static=False``) performs one full ``chkread``/``chkwrite`` per
element instead.  The existing equivalence tests pin this down at the
shadow-memory unit level and for whole programs under the tree-walking
interpreter only; these properties close the gap by holding the
*compiled* executor to the same contract: the batched and scalar walks
— and the two backends — must be bit-identical in everything except the
check-mix accounting.
"""

from hypothesis import given, settings, strategies as st

import repro.runtime.shadow as shadow_mod
from repro.errors import Loc
from repro.runtime.interp import make_interp, run_checked
from repro.runtime.shadow import GRANULE_SHIFT, ShadowMemory

from ..conftest import check_ok

G = 1 << GRANULE_SHIFT
LOC = Loc("t.c", 1)

POLICIES = ["random", "round-robin", "pct", "pb"]
ARRAY_LENS = [4, 8, 16, 24]


def _walk_source(array_len: int) -> str:
    """A writer/reader pair walking a shared dynamic array — the access
    pattern the range-batched APIs exist for (and racy by design, so the
    equivalence must hold on the conflict paths too, not just the
    fast paths)."""
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


_CHECKED = {n: None for n in ARRAY_LENS}


def _checked(array_len):
    if _CHECKED[array_len] is None:
        _CHECKED[array_len] = check_ok(_walk_source(array_len))
    return _CHECKED[array_len]


def _run(checked, seed, policy, *, backend, static=True):
    return run_checked(checked, seed=seed, policy=policy,
                       backend=backend, static=static,
                       record_trace=True)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=30),
       policy=st.sampled_from(POLICIES),
       array_len=st.sampled_from(ARRAY_LENS))
def test_range_walk_and_scalar_loop_agree_under_compiled(seed, policy,
                                                         array_len):
    """Property: under the compiled backend, the range-batched run and
    the scalar per-element run are bit-identical — same schedule, steps,
    reports — with only the check mix allowed to differ."""
    checked = _checked(array_len)
    ranged = _run(checked, seed, policy, backend="compiled")
    scalar = _run(checked, seed, policy, backend="compiled",
                  static=False)
    # The two configurations really took different check paths.
    assert ranged.stats.checks_range > 0
    assert scalar.stats.checks_range == 0
    assert scalar.stats.checks_full > ranged.stats.checks_full
    # ... and agree on everything observable.
    assert ranged.stats.steps_total == scalar.stats.steps_total
    assert ranged.trace == scalar.trace
    assert ranged.report_counts == scalar.report_counts
    assert [r.render() for r in ranged.reports] \
        == [r.render() for r in scalar.reports]
    assert (ranged.deadlock, ranged.error, ranged.timeout,
            ranged.exit_code) \
        == (scalar.deadlock, scalar.error, scalar.timeout,
            scalar.exit_code)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=30),
       policy=st.sampled_from(POLICIES),
       array_len=st.sampled_from(ARRAY_LENS))
def test_backends_agree_on_the_range_batched_path(seed, policy,
                                                  array_len):
    """Property: interp and compiled runs of the same range-heavy
    program agree bit-for-bit *including* the check-mix counters — the
    compiled backend must route exactly the same accesses through the
    range APIs, not just reach the same verdict."""
    checked = _checked(array_len)
    interp = _run(checked, seed, policy, backend="interp")
    compiled = _run(checked, seed, policy, backend="compiled")
    assert interp.stats.steps_total == compiled.stats.steps_total
    assert interp.trace == compiled.trace
    assert interp.report_counts == compiled.report_counts
    assert interp.stats.checks_range == compiled.stats.checks_range
    assert interp.stats.checks_full == compiled.stats.checks_full
    assert interp.stats.checks_elided == compiled.stats.checks_elided


class TestRangeThresholdKnob:
    """DEFAULT_RANGE_THRESHOLD is the module-level knob tests use to
    force either path; the executors' internally built shadows must
    inherit it."""

    def test_compiled_shadow_inherits_the_module_default(
            self, monkeypatch):
        monkeypatch.setattr(shadow_mod, "DEFAULT_RANGE_THRESHOLD", 3)
        interp = make_interp(_checked(8), backend="compiled", seed=0)
        assert interp.shadow.range_threshold == 3

    def test_threshold_flips_the_scalar_delegation(self, monkeypatch):
        """Scalar checks spanning >= threshold granules auto-delegate
        to the range walk; the conflict verdict must not care which
        path ran."""
        monkeypatch.setattr(shadow_mod, "DEFAULT_RANGE_THRESHOLD", 1)
        low = ShadowMemory(nbytes=1)
        assert low.range_threshold == 1
        monkeypatch.setattr(shadow_mod, "DEFAULT_RANGE_THRESHOLD",
                            1 << 60)
        high = ShadowMemory(nbytes=1)
        for shadow in (low, high):
            shadow.chkwrite(0x100, 4 * G, 1, "buf", LOC)
            conflict, _ = shadow.chkwrite(0x100, 4 * G, 2, "buf", LOC)
            assert conflict is not None
            assert conflict.tid == 1
        assert low.range_calls > 0
        assert high.range_calls == 0

    def test_compiled_run_is_insensitive_to_the_threshold(
            self, monkeypatch):
        """The explicit range APIs batch regardless of the scalar
        delegation threshold, so whole-program behaviour is identical
        at both extremes."""
        results = []
        for threshold in (1, 1 << 60):
            monkeypatch.setattr(shadow_mod, "DEFAULT_RANGE_THRESHOLD",
                                threshold)
            result = _run(_checked(16), 5, "random",
                          backend="compiled")
            results.append((result.stats.steps_total, result.trace,
                            result.report_counts,
                            result.stats.checks_range))
        assert results[0] == results[1]
        assert results[0][3] > 0
