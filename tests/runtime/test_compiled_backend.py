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
#: array or struct local).  Every other shipped function holds all its
#: non-rc-tracked slots in generator locals.
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
}


def _cell_slot_reason(func, offsets) -> str | None:
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
    """Codegen accepts every defined function of every shipped program
    (``compile_program`` raises otherwise).  And every function no
    pointer into whose slab can exist keeps all its slots but the
    rc-tracked ones in generator locals; the rest are listed in
    ``CELL_SLOT_FUNCTIONS`` with their reason."""
    from repro.runtime.interp import frame_layout

    checked = check_ok(source)
    compiled = compile_program(checked)
    defined = {f.name for f in checked.program.functions()
               if f.body is not None}
    assert set(compiled.funcs) == defined, \
        f"not compiled: {sorted(defined - set(compiled.funcs))}"
    for fname, cf in compiled.funcs.items():
        key = f"{name}/{fname}"
        offsets = frame_layout(cf.func, checked.program.structs).offsets
        reason = _cell_slot_reason(cf.func, offsets)
        assert reason == CELL_SLOT_FUNCTIONS.get(key), key
        rc = _rc_tracked_names(cf.func)
        expected = () if reason else tuple(sorted(
            off for local, off in offsets.items() if local not in rc))
        assert cf.register_slots == expected, key


#: struct block copies, which no other shipped program has: into and
#: out of a ``locked(m)`` global, into a struct whose lock is reached
#: through memory (``bx->mu``), through a racy global, and ``*d = *s``
#: in a helper with no struct local
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


@pytest.mark.parametrize("checker", ["sharc", "eraser"])
def test_struct_copies_are_bit_identical(checker):
    from tests.runtime.test_schedule_golden import fingerprint

    checked = check_ok(STRUCTS)
    for policy in ("random", "pct", "pb", "serial"):
        for seed in range(4):
            runs = [fingerprint(checked, seed, policy, backend,
                                checker=checker)
                    for backend in ("interp", "compiled")]
            assert runs[0] == runs[1], (policy, seed)
    # the copy helper's slots live in generator locals
    assert compile_program(checked).funcs["copy"].register_slots


@pytest.mark.parametrize("policies", [("random",), ("random", "pct")])
def test_compile_error_is_a_counted_crash(monkeypatch, policies):
    """A body codegen rejects fails the compiled run; the sweep records
    every schedule as a crash instead of tree-walking the program."""
    from repro.compile.closures import CompileError
    from repro.compile.codegen import FunctionCodegen
    from repro.explore.driver import explore_source

    def reject(self):
        raise CompileError(f"planted in {self.func.name}")

    monkeypatch.setattr(FunctionCodegen, "compile", reject)
    source = RACY + f"\n// compile-error sweep {'+'.join(policies)}\n"
    summary = explore_source(source, "planted.c", seeds=3,
                             policies=policies, backend="compiled")
    assert summary.as_dict()["crashed_schedules"] == 3 * len(policies)
    assert summary.crashes[0].error.startswith("CompileError:")


def test_horizon_probe_runs_on_the_sweep_backend(monkeypatch):
    """A tree-walker sweep measures its PCT horizon on the tree-walker:
    a program the compiled backend rejects resolves the same
    ``pct:3:k`` spec as one it compiles."""
    from repro.compile.closures import CompileError
    from repro.compile.codegen import FunctionCodegen
    from repro.explore.driver import explore_source

    def sweep(tag):
        return explore_source(RACY + f"\n// horizon probe, {tag}\n",
                              "probe.c", seeds=2, policies=("pct",),
                              backend="interp")

    clean = sweep("compiles")

    def reject(self):
        raise CompileError(f"planted in {self.func.name}")

    monkeypatch.setattr(FunctionCodegen, "compile", reject)
    planted = sweep("planted CompileError")
    assert clean.policies[0].startswith("pct:3:")
    assert planted.policies == clean.policies
    assert planted.as_dict()["crashed_schedules"] == 0
