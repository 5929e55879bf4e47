"""The compiled backend's own machinery: backend resolution, the
per-program compile cache, the codegen census of every shipped program
and how a codegen failure surfaces.  That the two backends run every
program bit-identically is the identity oracle's contract
(``test_identity_oracle.py``); here its backend axis alone sweeps more
seeds and policies of the gate and struct-copy programs."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import check_ok
from tests.runtime.test_identity_oracle import (
    GATE, POLICIES, STRUCTS, check_identity, check_sweep, programs,
)
from repro.compile import compile_program
from repro.runtime.interp import (
    BACKENDS, Interp, make_interp, resolve_backend, run_checked,
)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=40),
       policy=st.sampled_from(POLICIES))
def test_backends_are_bit_identical(seed, policy):
    check_identity(check_ok(GATE), seed, policy, axes=("backend",))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=40),
       policy=st.sampled_from(POLICIES))
def test_explore_outcomes_are_identical(seed, policy):
    """The ``sharc explore`` path (trace hash included) can't tell the
    two backends apart either."""
    check_sweep(GATE, seed, policy, axes=("backend",))


@pytest.mark.parametrize("checker", ["sharc", "eraser"])
def test_struct_copies_are_bit_identical(checker):
    checked = check_ok(STRUCTS)
    for policy in ("random", "pct", "pb", "serial"):
        for seed in range(4):
            check_identity(checked, seed, policy, checker=checker,
                           axes=("backend",))
    # the copy helper's slots live in generator locals
    assert compile_program(checked).funcs["copy"].register_slots


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

        checked = check_ok(GATE)
        assert type(make_interp(checked, backend="interp")) is Interp
        assert isinstance(make_interp(checked, backend="compiled"),
                          CompiledInterp)
        assert set(BACKENDS) == {"interp", "compiled"}


class TestCompilationArtifact:
    def test_compile_is_cached_per_program(self):
        # One compile serves every seed/policy run of the program.
        checked = check_ok(GATE)
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
    "struct-copies/worker": "address-taken",
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
    pytest.param(p.name, p.source, id=p.name) for p in programs()])
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
    source = GATE + f"\n// compile-error sweep {'+'.join(policies)}\n"
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
        return explore_source(GATE + f"\n// horizon probe, {tag}\n",
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
