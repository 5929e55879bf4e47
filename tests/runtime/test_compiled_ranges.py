"""The range-batched checks' threshold knob under the compiled backend.

``chkread_range``/``chkwrite_range`` are the page-sliced batch walk the
check eliminator routes monotone array walks through;
``DEFAULT_RANGE_THRESHOLD`` decides when a scalar check delegates to
it.  That the batched and scalar walks, and the two backends, run the
range-walk programs bit-identically is the identity oracle's
(``test_identity_oracle.py``).
"""

import repro.runtime.shadow as shadow_mod
from repro.errors import Loc
from repro.runtime.interp import make_interp, run_checked
from repro.runtime.shadow import GRANULE_SHIFT, ShadowMemory

from ..conftest import check_ok
from .test_identity_oracle import RANGE_LENS, range_walk_source

G = 1 << GRANULE_SHIFT
LOC = Loc("t.c", 1)

_CHECKED = {n: None for n in RANGE_LENS}


def _checked(array_len):
    if _CHECKED[array_len] is None:
        _CHECKED[array_len] = check_ok(range_walk_source(array_len))
    return _CHECKED[array_len]


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
            result = run_checked(_checked(16), seed=5,
                                 backend="compiled", record_trace=True)
            results.append((result.stats.steps_total, result.trace,
                            result.report_counts,
                            result.stats.checks_range))
        assert results[0] == results[1]
        assert results[0][3] > 0
