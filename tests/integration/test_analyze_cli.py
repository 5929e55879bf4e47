"""CLI tests for ``sharc analyze`` — the static lockset view."""

import json

import pytest

from repro.cli import ANALYZE_SCHEMA, main


@pytest.fixture
def locked_file(tmp_path):
    path = tmp_path / "locked.c"
    path.write_text("""
mutex lk;
int counter = 0;
void *bump(void *arg) {
  mutexLock(&lk); counter = counter + 1; mutexUnlock(&lk);
  return NULL;
}
int main() {
  int t1 = thread_create(bump, NULL);
  int t2 = thread_create(bump, NULL);
  thread_join(t1); thread_join(t2);
  mutexLock(&lk);
  int c = counter;
  mutexUnlock(&lk);
  return c;
}
""")
    return str(path)


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.c"
    path.write_text("""
int shared = 0;
void *w(void *arg) { shared = shared + 1; return NULL; }
int main() {
  int t1 = thread_create(w, NULL);
  int t2 = thread_create(w, NULL);
  thread_join(t1); thread_join(t2);
  return shared;
}
""")
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.c"
    path.write_text("""
int readonly limit = 1;
int main() { limit = 2; return 0; }
""")
    return str(path)


class TestHumanOutput:
    def test_sections_and_exit_zero(self, locked_file, capsys):
        assert main(["analyze", locked_file]) == 0
        out = capsys.readouterr().out
        assert "== inferred modes ==" in out
        assert "== shared locations ==" in out
        assert "== refinements ==" in out
        assert "refined 'counter' to locked(lk)" in out
        assert "lockset:" in out

    def test_static_races_section(self, racy_file, capsys):
        assert main(["analyze", racy_file]) == 0
        out = capsys.readouterr().out
        assert "== static races ==" in out
        assert "possible data race on 'shared'" in out

    def test_broken_file_exits_one(self, broken_file, capsys):
        assert main(["analyze", broken_file]) == 1
        assert "readonly" in capsys.readouterr().out


class TestFailOnRace:
    def test_races_exit_two(self, racy_file):
        assert main(["analyze", racy_file, "--fail-on-race"]) == 2

    def test_clean_file_still_zero(self, locked_file):
        assert main(["analyze", locked_file, "--fail-on-race"]) == 0


class TestJson:
    def test_payload_schema_and_content(self, locked_file, capsys):
        assert main(["analyze", locked_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == ANALYZE_SCHEMA
        assert payload["ok"] is True
        assert payload["errors"] == []
        names = {g["name"] for g in payload["globals"]}
        assert {"lk", "counter"} <= names
        assert "bump" in payload["formals"]
        locations = {l["location"]: l for l in payload["locations"]}
        assert locations["counter"]["lockset"] == ["lk"]
        assert locations["counter"]["writes"] >= 1
        refinements = {r["location"]: r for r in payload["refinements"]}
        assert refinements["counter"]["lock"] == "lk"
        assert payload["static_races"] == []

    def test_static_race_entries(self, racy_file, capsys):
        assert main(["analyze", racy_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        races = payload["static_races"]
        assert races
        assert races[0]["key"].startswith("static-race shared@")
        assert "possible data race" in races[0]["message"]
        assert any("conflicting" in n for n in races[0]["notes"])

    def test_out_writes_file(self, locked_file, tmp_path, capsys):
        out = str(tmp_path / "analysis.json")
        assert main(["analyze", locked_file, "--json",
                     "--out", out]) == 0
        assert "written to" in capsys.readouterr().out
        with open(out, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["schema"] == ANALYZE_SCHEMA

    def test_json_fail_on_race_still_emits_payload(self, racy_file,
                                                   capsys):
        assert main(["analyze", racy_file, "--json",
                     "--fail-on-race"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["static_races"]


class TestWorkloadSources:
    """The CI lint gate runs analyze over the Table 1 workload sources;
    keep that path healthy from the test suite too."""

    def test_annotated_workloads_analyze_clean(self, tmp_path):
        from repro.bench.workloads import all_workloads

        for workload in all_workloads():
            path = tmp_path / f"{workload.name}.c"
            path.write_text(workload.annotated_source)
            code = main(["analyze", str(path), "--json",
                         "--out", str(tmp_path / "out.json")])
            assert code == 0, workload.name


class TestAnalyzeGate:
    """The committed golden file must match what the analysis reports
    *today* — CI's lint gate, exercised from the suite so a drifting
    golden fails before the workflow does."""

    def test_committed_golden_matches(self, tmp_path, capsys):
        from repro.sharc.analyze_gate import main as gate_main

        # Run from the repo root (tests execute there): default golden
        # and examples directory.
        assert gate_main(["--out-dir", str(tmp_path / "art")]) == 0
        assert "analyze gate ok" in capsys.readouterr().out
        written = list((tmp_path / "art").glob("*.json"))
        assert len(written) == 13  # 1 example + 6 workloads x 2 variants

    def test_unexpected_race_fails_gate(self, tmp_path, capsys):
        import json

        from repro.sharc.analyze_gate import (analyze_targets,
                                              check_golden, gate_targets,
                                              golden_from_payloads,
                                              main as gate_main)

        payloads = analyze_targets(gate_targets(examples_dir=None))
        golden = golden_from_payloads(payloads)
        golden["races"]["workloads/pfscan.unannotated.c"].pop()
        assert any("unexpected" in p
                   for p in check_golden(golden, payloads))
        # ...and end to end through the CLI entry point:
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(golden))
        assert gate_main(["--golden", str(path),
                          "--examples-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "analyze gate FAILED" in err
        assert "unexpected" in err
        # stale entries fail too, symmetrically
        golden2 = golden_from_payloads(payloads)
        golden2["races"]["workloads/aget.unannotated.c"].append(
            "static-race ghost@1")
        assert any("stale" in p for p in check_golden(golden2, payloads))

    def test_missing_golden_asks_for_update(self, tmp_path, capsys):
        from repro.sharc.analyze_gate import main as gate_main

        assert gate_main(["--golden", str(tmp_path / "nope.json"),
                          "--examples-dir", str(tmp_path)]) == 2
        assert "--update" in capsys.readouterr().err

    def test_other_golden_schema_fails_gate(self):
        from repro.sharc.analyze_gate import (analyze_targets,
                                              check_golden, gate_targets,
                                              golden_from_payloads)

        payloads = analyze_targets(gate_targets(examples_dir=None))
        golden = golden_from_payloads(payloads)
        assert check_golden(golden, payloads) == []
        golden["schema"] = "sharc-analyze-golden/2"
        assert any("golden schema" in p
                   for p in check_golden(golden, payloads))
