"""CLI tests for tracing: --trace-out, --metrics-out, sharc trace."""

import json

import pytest

from repro.cli import main
from repro.obs.export import read_jsonl, validate_chrome_trace
from repro.obs.metrics import METRICS_SCHEMA, validate_metrics

RACY = """
int counter = 0;
void *bump(void *arg) {
  int i;
  for (i = 0; i < 10; i++)
    counter = counter + 1;
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


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.c"
    path.write_text(RACY)
    return str(path)


class TestRunTraceOut:
    def test_writes_valid_chrome_trace(self, racy_file, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(["run", racy_file, "--seed", "7",
                     "--trace-out", str(out)])
        assert code in (0, 1)  # 1 when the racy schedule reports
        assert "trace written to" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["seed"] == "7"
        names = {e["args"]["name"]
                 for e in payload["traceEvents"]
                 if e.get("name") == "thread_name"}
        assert "main" in names

    def test_jsonl_extension_and_filter(self, racy_file, tmp_path):
        out = tmp_path / "trace.jsonl"
        main(["run", racy_file, "--seed", "7", "--trace-out", str(out),
              "--trace-filter", "check,conflict"])
        header, events, _reports = read_jsonl(str(out))
        assert header["kind"] == "sharc-trace"
        assert events
        assert {e.cat for e in events} <= {"check", "conflict"}

    def test_rejects_bad_filter(self, racy_file, tmp_path, capsys):
        code = main(["run", racy_file, "--trace-out",
                     str(tmp_path / "t.json"), "--trace-filter", "turbo"])
        assert code == 2
        assert "unknown trace categories" in capsys.readouterr().err

    def test_profile_and_trace_are_exclusive(self, racy_file, tmp_path,
                                             capsys):
        code = main(["run", racy_file, "--profile", "--trace-out",
                     str(tmp_path / "t.json")])
        assert code == 2
        assert "--profile" in capsys.readouterr().err


class TestExploreMetricsOut:
    def test_writes_valid_metrics(self, racy_file, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        main(["explore", racy_file, "--seeds", "3",
              "--metrics-out", str(out)])
        assert "metrics written to" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert validate_metrics(payload) == []
        assert payload["schema"] == METRICS_SCHEMA
        assert payload["totals"]["schedules"] > 0
        assert payload["totals"]["check_updates"] > 0
        assert payload["static"]["lockset_unconverged"] == 0


class TestTraceCommand:
    def test_pretty_prints_jsonl(self, racy_file, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main(["run", racy_file, "--seed", "7", "--trace-out", str(out)])
        capsys.readouterr()
        code = main(["trace", str(out), "--limit", "3"])
        assert code == 0
        text = capsys.readouterr().out
        assert "events over steps" in text
        assert "by category:" in text

    def test_converts_jsonl_to_chrome(self, racy_file, tmp_path, capsys):
        jsonl = tmp_path / "trace.jsonl"
        main(["run", racy_file, "--seed", "7", "--trace-out", str(jsonl)])
        chrome = tmp_path / "timeline.json"
        code = main(["trace", str(jsonl), "--out", str(chrome)])
        assert code == 0
        assert validate_chrome_trace(json.loads(chrome.read_text())) == []

    def test_replays_shrunk_artifact_into_timeline(self, racy_file,
                                                   tmp_path, capsys):
        artifact = tmp_path / "repro.json"
        main(["explore", racy_file, "--seeds", "10", "--shrink",
              "--out", str(artifact)])
        capsys.readouterr()
        assert artifact.exists(), "sweep found no failure to shrink"
        timeline = tmp_path / "timeline.json"
        code = main(["trace", str(artifact), "--out", str(timeline)])
        assert code == 0
        text = capsys.readouterr().out
        assert "events over steps" in text
        payload = json.loads(timeline.read_text())
        assert validate_chrome_trace(payload) == []
        cats = {e.get("cat") for e in payload["traceEvents"]}
        assert "conflict" in cats  # the replay reproduces the race

    def test_rejects_garbage_file(self, tmp_path, capsys):
        bad = tmp_path / "junk.jsonl"
        bad.write_text("{\"record\": \"mystery\"}\n")
        code = main(["trace", str(bad)])
        assert code != 0
