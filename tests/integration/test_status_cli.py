"""End-to-end campaign telemetry: ``sharc explore --telemetry-out``
feeding ``sharc status`` and ``sharc report``, plus the interrupt-flush
path (Ctrl-C mid-sweep must still leave partial metrics and a
``final`` telemetry record behind).
"""

import json
import os

import pytest

from repro.cli import main
from repro.obs.metrics import validate_metrics
from repro.obs.telemetry import read_telemetry, validate_telemetry

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


@pytest.fixture
def campaign(tmp_path, racy_file):
    """A tiny completed campaign directory: telemetry + metrics."""
    camp = tmp_path / "camp"
    code = main(["explore", racy_file, "--seeds", "8",
                 "--policy", "random", "--policy", "pct", "--quiet",
                 "--telemetry-out", str(camp),
                 "--metrics-out", str(camp / "metrics.json")])
    assert code in (0, 1)  # 1 = violations found, still a clean sweep
    return str(camp)


class TestExploreTelemetry:
    def test_campaign_dir_contents_validate(self, campaign):
        records = read_telemetry(os.path.join(campaign,
                                              "telemetry.jsonl"))
        assert validate_telemetry(records) == []
        assert records[-1]["kind"] == "final"
        assert records[-1]["interrupted"] is False
        with open(os.path.join(campaign, "metrics.json")) as handle:
            payload = json.load(handle)
        assert validate_metrics(payload) == []
        assert payload["sites"]["rows"], "no check sites attributed"

    def test_quiet_output_has_no_ansi(self, racy_file, tmp_path,
                                      capsys):
        main(["explore", racy_file, "--seeds", "2", "--quiet", "--telemetry-out", str(tmp_path / "c")])
        assert "\x1b" not in capsys.readouterr().out

    def test_non_tty_progress_is_plain_lines(self, racy_file,
                                             tmp_path, capsys):
        """capsys stdout is not a TTY, so progress must be clean
        newline-terminated lines with no cursor control."""
        main(["explore", racy_file, "--seeds", "2",
              "--telemetry-out", str(tmp_path / "c")])
        out = capsys.readouterr().out
        assert "\x1b" not in out and "\r" not in out
        assert "schedules" in out

    def test_sites_flag_prints_hot_listing(self, racy_file, capsys):
        code = main(["explore", racy_file, "--seeds", "2",
                     "--quiet", "--sites", "5"])
        assert code in (0, 1)
        out = capsys.readouterr().out
        assert "racy.c:" in out
        assert "cost" in out


class TestStatusCommand:
    def test_renders_from_stream_alone(self, campaign, capsys):
        assert main(["status", campaign]) == 0
        out = capsys.readouterr().out
        assert "16/16" in out
        assert "distinct traces" in out

    def test_json_is_schema_valid(self, campaign, capsys):
        assert main(["status", campaign, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"] == "finished"
        assert payload["done"] == payload["total"] == 16
        assert payload["violations"], "racy program must violate"

    def test_accepts_stream_path_directly(self, campaign, capsys):
        path = os.path.join(campaign, "telemetry.jsonl")
        assert main(["status", path]) == 0
        assert "16/16" in capsys.readouterr().out

    def test_missing_campaign_exits_2(self, tmp_path, capsys):
        assert main(["status", str(tmp_path / "nope")]) == 2
        assert "no telemetry" in capsys.readouterr().err

    def test_watch_exits_when_finished(self, campaign, capsys):
        code = main(["status", campaign, "--watch",
                     "--interval", "0.01"])
        assert code == 0
        assert "16/16" in capsys.readouterr().out


class TestReportCommand:
    def test_html_is_self_contained(self, campaign, capsys):
        out_path = os.path.join(campaign, "report.html")
        assert main(["report", campaign, "--out", out_path]) == 0
        with open(out_path, encoding="utf-8") as handle:
            doc = handle.read()
        assert doc.startswith("<!doctype html>")
        assert "Hot check sites" in doc
        assert "<svg" in doc  # coverage curve
        assert "racy.c" in doc
        # self-contained: no external fetches of any kind
        assert "http://" not in doc and "https://" not in doc
        assert "<script" not in doc

    def test_default_output_path(self, campaign):
        assert main(["report", campaign]) == 0
        assert os.path.exists(os.path.join(campaign, "report.html"))

    def test_report_site_totals_match_metrics(self, campaign):
        with open(os.path.join(campaign, "metrics.json")) as handle:
            payload = json.load(handle)
        main(["report", campaign])
        with open(os.path.join(campaign, "report.html")) as handle:
            doc = handle.read()
        for row in payload["sites"]["rows"]:
            assert f"{row['file']}:{row['line']} {row['lvalue']}" in doc

    def test_missing_campaign_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "telemetry" in capsys.readouterr().err

    @pytest.mark.parametrize("schema", ["sharc-metrics/5",
                                        "sharc-metrics/6",
                                        "sharc-metrics/99"])
    def test_other_metrics_schema_exits_2(self, campaign, capsys, schema):
        path = os.path.join(campaign, "metrics.json")
        with open(path) as handle:
            payload = json.load(handle)
        payload["schema"] = schema
        with open(path, "w") as handle:
            json.dump(payload, handle)
        assert main(["report", campaign]) == 2
        assert schema in capsys.readouterr().err


class TestInterruptFlush:
    def test_partial_metrics_and_final_record_on_ctrl_c(
            self, racy_file, tmp_path, monkeypatch, capsys):
        """Ctrl-C mid-sweep: the already-collected outcomes must still
        reach metrics.json, and the telemetry stream must close with
        ``final`` carrying ``interrupted: true``."""
        import repro.explore.campaign as campaign

        real = campaign.run_schedule
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 3:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign, "run_schedule", flaky)
        camp = tmp_path / "camp"
        code = main(["explore", racy_file, "--seeds", "8", "--quiet", "--telemetry-out", str(camp),
                     "--metrics-out", str(camp / "metrics.json")])
        assert code in (0, 1, 130)

        records = read_telemetry(str(camp / "telemetry.jsonl"))
        assert records[-1]["kind"] == "final"
        assert records[-1]["interrupted"] is True
        assert records[-1]["done"] == 3

        with open(camp / "metrics.json") as handle:
            payload = json.load(handle)
        assert validate_metrics(payload) == []
        assert payload["totals"]["schedules"] == 3
        assert "(partial: interrupted)" in capsys.readouterr().out

    def test_status_reports_interrupted_state(
            self, racy_file, tmp_path, monkeypatch, capsys):
        import repro.explore.campaign as campaign

        real = campaign.run_schedule
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign, "run_schedule", flaky)
        camp = tmp_path / "camp"
        main(["explore", racy_file, "--seeds", "8", "--quiet", "--telemetry-out", str(camp)])
        capsys.readouterr()
        assert main(["status", str(camp), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"] == "interrupted"


class TestFuzzTelemetry:
    def test_fuzz_writes_validating_stream(self, tmp_path, capsys):
        camp = tmp_path / "soak"
        code = main(["fuzz", "--budget", "1", "--seeds", "2",
                     "--policy", "random", "--no-shrink",
                     "--telemetry-out", str(camp)])
        assert code in (0, 1)
        records = read_telemetry(str(camp / "telemetry.jsonl"))
        assert validate_telemetry(records) == []
        kinds = [r["kind"] for r in records]
        assert "scenario" in kinds
        assert kinds[-1] == "final"
        # and the report renders the scenario table
        assert main(["report", str(camp)]) == 0
        with open(camp / "report.html", encoding="utf-8") as handle:
            assert "Fuzz scenarios" in handle.read()
