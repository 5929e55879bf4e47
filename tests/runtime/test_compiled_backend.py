"""The compiled backend's soundness gate: ``backend="compiled"`` vs
``backend="interp"`` must be *bit-identical* by seed — same step counts,
same context-switch trace, same reports, same output — across seeds and
scheduling policies.  Only wall time may differ.

This holds by construction: the compiled executor subclasses the
tree-walker and overrides nothing but how function bodies produce their
scheduler items (generated source instead of AST dispatch); scheduler, shadow memory, lock table, RC scheme, RNG
streams, and tracing are the inherited machinery, shared verbatim.
These tests keep the construction honest.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import check_ok
from repro.compile import compile_program
from repro.explore.driver import run_schedule
from repro.runtime.interp import (
    BACKENDS, Interp, make_interp, resolve_backend, run_checked,
)

#: exercises locks, arrays, a sharing cast, helper calls, and a race —
#: the paths where compiled and interpreted execution could plausibly
#: diverge
RACY = """
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

POLICIES = ["random", "round-robin", "pct", "pb"]


def _run(checked, seed, policy, backend):
    return run_checked(checked, seed=seed, policy=policy,
                       backend=backend, record_trace=True)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=40),
       policy=st.sampled_from(POLICIES))
def test_backends_are_bit_identical(seed, policy):
    checked = check_ok(RACY)
    interp = _run(checked, seed, policy, "interp")
    compiled = _run(checked, seed, policy, "compiled")
    assert interp.stats.steps_total == compiled.stats.steps_total
    assert interp.trace == compiled.trace  # every switch, in order
    assert interp.report_counts == compiled.report_counts
    assert [r.render() for r in interp.reports] == \
        [r.render() for r in compiled.reports]
    assert interp.output == compiled.output
    assert (interp.deadlock, interp.error, interp.timeout,
            interp.exit_code) == \
        (compiled.deadlock, compiled.error, compiled.timeout,
         compiled.exit_code)
    # The checks themselves are discharged identically too.
    assert interp.stats.accesses_dynamic == compiled.stats.accesses_dynamic
    assert interp.stats.shadow_updates == compiled.stats.shadow_updates


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=40),
       policy=st.sampled_from(POLICIES))
def test_explore_outcomes_are_identical(seed, policy):
    """The ``sharc explore`` path (trace hash included) can't tell the
    two backends apart either."""
    interp = run_schedule(RACY, "t.c", seed, policy, backend="interp")
    compiled = run_schedule(RACY, "t.c", seed, policy,
                            backend="compiled")
    assert interp.trace_hash == compiled.trace_hash
    assert interp.report_keys == compiled.report_keys
    assert (interp.steps, interp.switches, interp.deadlock,
            interp.error) == \
        (compiled.steps, compiled.switches, compiled.deadlock,
         compiled.error)


class TestBackendResolution:
    def test_default_is_compiled(self, monkeypatch):
        monkeypatch.delenv("SHARC_BACKEND", raising=False)
        assert resolve_backend(None) == "compiled"

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("SHARC_BACKEND", "compiled")
        assert resolve_backend("interp") == "interp"
        monkeypatch.setenv("SHARC_BACKEND", "interp")
        assert resolve_backend("compiled") == "compiled"

    def test_env_var_fills_in_none(self, monkeypatch):
        # This is how CI runs the whole tier-1 suite on the tree-walker.
        monkeypatch.setenv("SHARC_BACKEND", "interp")
        assert resolve_backend(None) == "interp"

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("jit")

    def test_make_interp_dispatches(self):
        from repro.compile import CompiledInterp

        checked = check_ok(RACY)
        assert type(make_interp(checked, backend="interp")) is Interp
        assert isinstance(make_interp(checked, backend="compiled"),
                          CompiledInterp)
        assert set(BACKENDS) == {"interp", "compiled"}


class TestCompilationArtifact:
    def test_compile_is_cached_per_program(self):
        # One compile serves every seed/policy run of the program.
        checked = check_ok(RACY)
        first = make_interp(checked, backend="compiled")
        second = make_interp(checked, backend="compiled")
        assert first.compiled is second.compiled

    def test_compiled_run_is_actually_faster_on_a_hot_loop(self):
        # Not a benchmark — just a smoke check that the backend isn't
        # silently falling back to tree-walking everything.  A generous
        # 1.2x floor keeps this immune to host jitter; the real 3-5x
        # gate lives in the bench canary.
        source = """
        int acc = 0;
        int main() {
          int i;
          for (i = 0; i < 60000; i++)
            acc = acc + i;
          return 0;
        }
        """
        checked = check_ok(source)
        # Warm both paths (first compiled run pays the compile).
        run_checked(checked, seed=1, backend="compiled")
        interp = run_checked(checked, seed=1, backend="interp")
        compiled = run_checked(checked, seed=1, backend="compiled")
        assert interp.stats.steps_total == compiled.stats.steps_total
        assert (compiled.stats.steps_per_sec
                > 1.2 * interp.stats.steps_per_sec)


class TestBenchBackendInvariance:
    def test_run_workload_metrics_match_across_backends(self):
        from repro.bench.harness import run_workload
        from repro.bench.workloads import all_workloads

        workload = {w.name: w for w in all_workloads()}["aget"]
        interp = run_workload(workload, backend="interp")
        compiled = run_workload(workload, backend="compiled")
        assert interp.sharc_steps == compiled.sharc_steps
        assert interp.base_steps == compiled.base_steps
        assert interp.reports == compiled.reports
        assert interp.time_overhead == compiled.time_overhead
        assert interp.mem_overhead == compiled.mem_overhead
        assert interp.backend == "interp"
        assert compiled.backend == "compiled"
        assert interp.interp_steps_per_sec > 0
        assert interp.compiled_steps_per_sec == 0.0
        assert compiled.compiled_steps_per_sec > 0
        assert compiled.interp_steps_per_sec == 0.0


REPO = Path(__file__).resolve().parents[2]


def _census_programs() -> list[tuple[str, str]]:
    """(id, source) for every program the repo ships: both variants of
    each Table 1 model, ``examples/*.c``, the fuzz corpus artifacts,
    a fixed fuzz-scenario sample, explore's racy generator, and this
    module's gate program."""
    from repro.bench.workloads import all_workloads
    from repro.explore.frontends import racy_c_program
    from repro.fuzz.gen import generate_scenario, sample_specs

    programs = []
    for w in all_workloads():
        programs.append((f"{w.name}-annotated", w.annotated_source))
        programs.append((f"{w.name}-unannotated", w.unannotated_source))
    for path in sorted((REPO / "examples").glob("*.c")):
        programs.append((f"examples/{path.name}", path.read_text()))
    for path in sorted((REPO / "tests/fuzz/corpus").glob("*.json")):
        programs.append((f"corpus/{path.stem}",
                         json.loads(path.read_text())["source"]))
    for i, spec in enumerate(sample_specs(random.Random(0), 26)):
        programs.append((f"scenario{i}-{spec.family}",
                         generate_scenario(spec).source))
    for g in range(10):
        programs.append((f"racy{g}", racy_c_program(g)[0]))
    programs.append(("gate-program", RACY))
    return programs


#: "program/function" -> why the function keeps its slab slots in
#: cells: a pointer into its slab can exist (an address-taken local, an
#: array or struct local), or it hands nodes to the tree-walker, which
#: reads locals through ``frame.env``.  Every other shipped function
#: holds all its non-rc-tracked slots in generator locals.
CELL_SLOT_FUNCTIONS = {
    "aget-annotated/getter": "array or struct local",
    "aget-unannotated/getter": "array or struct local",
    "pbzip2-annotated/main": "array or struct local",
    "pbzip2-unannotated/main": "array or struct local",
    "dillo-annotated/dns_worker": "array or struct local",
    "dillo-annotated/main": "array or struct local",
    "dillo-unannotated/dns_worker": "array or struct local",
    "dillo-unannotated/main": "array or struct local",
    "stunnel-annotated/handler": "array or struct local",
    "stunnel-annotated/main": "array or struct local",
    "stunnel-unannotated/handler": "array or struct local",
    "stunnel-unannotated/main": "array or struct local",
    "examples/pipeline_annotated.c/thrFunc": "delegation",
    "examples/pipeline_annotated.c/main": "delegation",
}


def _cell_slot_reason(func, cf, offsets) -> str | None:
    """Why ``func`` may not hold slab slots in generator locals."""
    from repro.cfront import cast as A
    from repro.sharc.defaults import collect_local_decls

    if any(isinstance(e, A.Unop) and e.op == "&"
           and isinstance(e.operand, A.Ident) and e.operand.name in offsets
           for e in A.all_exprs(func.body)):
        return "address-taken"
    types = list(func.qtype.base.params)
    types += [d.qtype for d in collect_local_decls(func)]
    if any(qt.is_struct or qt.is_array for qt in types):
        return "array or struct local"
    if cf.needs_env:
        return "delegation"
    return None


def _rc_tracked_names(func) -> set:
    """Locals ``_rc_write`` logs (the LP collector peeks their cells)."""
    from repro.cfront import cast as A

    names = set(getattr(func, "rc_locals", ()))
    for e in A.all_exprs(func.body):
        if getattr(e, "rc_track", False):
            target = getattr(e, "lhs", None) or getattr(e, "expr", None)
            if isinstance(target, A.Ident):
                names.add(target.name)
    return names


@pytest.mark.parametrize("name,source", [
    pytest.param(name, source, id=name)
    for name, source in _census_programs()])
def test_codegen_census(name, source):
    """Codegen accepts every defined function of every shipped program:
    none silently degrades to the tree-walker.  And every function no
    pointer into whose slab can exist keeps all its slots but the
    rc-tracked ones in generator locals; the rest are listed in
    ``CELL_SLOT_FUNCTIONS`` with their reason."""
    from repro.runtime.interp import frame_layout

    checked = check_ok(source)
    compiled = compile_program(checked)
    assert compiled.failed == {}, \
        f"codegen rejected: {sorted(compiled.failed.items())}"
    defined = {f.name for f in checked.program.functions()
               if f.body is not None}
    assert set(compiled.funcs) == defined, \
        f"not compiled: {sorted(defined - set(compiled.funcs))}"
    for fname, cf in compiled.funcs.items():
        key = f"{name}/{fname}"
        offsets = frame_layout(cf.func, checked.program.structs).offsets
        reason = _cell_slot_reason(cf.func, cf, offsets)
        assert reason == CELL_SLOT_FUNCTIONS.get(key), key
        rc = _rc_tracked_names(cf.func)
        expected = () if reason else tuple(sorted(
            off for local, off in offsets.items() if local not in rc))
        assert cf.register_slots == expected, key
