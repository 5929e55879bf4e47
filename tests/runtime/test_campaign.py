"""Tests for the fleet-scale campaign engine (repro.explore.campaign).

The load-bearing guarantee is bit-identical resume: a campaign killed
after any shard and resumed (any number of times, with any job count,
under either backend) must write the same ``summary.json`` bytes as an
uninterrupted run.  Everything else — trace dedup, deterministic
lease logs, coverage-guided budget flow — hangs off that fold-order
discipline, so most tests here compare serialized artifacts, not
in-memory objects.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.explore.campaign import (
    CAMPAIGN_SCHEMA, MANIFEST_NAME, CampaignConfig, CampaignTarget,
    load_manifest, run_campaign,
)
from repro.obs.telemetry import (
    CampaignStatus, read_telemetry, validate_telemetry,
)

from tests.runtime.test_explore import RACY_COUNTER


def racy_target(label: str = "racy") -> CampaignTarget:
    return CampaignTarget(label=label, source=RACY_COUNTER,
                          filename="racy.c", max_steps=2000)


def small_config(**overrides) -> CampaignConfig:
    base = dict(budget=24, shard_size=6, jobs=1,
                policies=("random", "round-robin"), checker="sharc",
                backend="interp", sites_every=4)
    base.update(overrides)
    return CampaignConfig(**base)


def summary_bytes(directory: str) -> bytes:
    with open(os.path.join(directory, "summary.json"), "rb") as handle:
        return handle.read()


class TestCampaignBasics:
    def test_budget_exhausted_and_summary_written(self, tmp_path):
        directory = str(tmp_path / "camp")
        summary = run_campaign([racy_target()], directory,
                               config=small_config())
        assert summary.complete and not summary.interrupted
        assert summary.schedules == 24
        assert summary.shards_done == 4
        payload = json.loads(summary_bytes(directory))
        assert payload["schema"] == CAMPAIGN_SCHEMA == "sharc-campaign/3"
        assert payload["schedules"] == 24
        assert payload["complete"] is True
        assert payload["distinct_traces"] == summary.distinct_traces
        # the racy counter races under the random policy
        assert payload["failing_schedules"] > 0
        assert payload["distinct_reports"]
        # site attribution is sampled but present
        assert payload["site_totals"]["checks"] > 0

    def test_summary_has_no_wall_clock(self, tmp_path):
        """Determinism precondition: nothing time-dependent may leak
        into the persisted summary."""
        directory = str(tmp_path / "camp")
        run_campaign([racy_target()], directory, config=small_config())
        text = summary_bytes(directory).decode()
        for needle in ("wall", "seconds", "elapsed", "time"):
            assert needle not in text

    def test_directory_holds_queue_shards_sources_summary(self, tmp_path):
        """The shard files are the one durable record of traces: a
        campaign directory holds no second copy of them."""
        directory = str(tmp_path / "camp")
        summary = run_campaign([racy_target()], directory,
                               config=small_config())
        assert sorted(os.listdir(directory)) == [
            "campaign.json", "queue.jsonl", "shards", "sources",
            "summary.json"]
        traces = set()
        for name in os.listdir(os.path.join(directory, "shards")):
            with open(os.path.join(directory, "shards", name),
                      encoding="utf-8") as handle:
                traces.update(row["trace"]
                              for row in json.load(handle)["rows"])
        assert len(traces) == summary.distinct_traces

    def test_fresh_campaign_requires_targets(self, tmp_path):
        with pytest.raises(ValueError, match="at least one target"):
            run_campaign([], str(tmp_path / "camp"),
                         config=small_config())

    def test_manifest_persists_sources_and_policies(self, tmp_path):
        directory = str(tmp_path / "camp")
        run_campaign([racy_target()], directory, config=small_config())
        manifest = load_manifest(directory)
        entry = manifest["targets"][0]
        assert entry["label"] == "racy"
        assert tuple(entry["policies"]) == ("random", "round-robin")
        with open(os.path.join(directory, entry["source"]),
                  encoding="utf-8") as handle:
            assert handle.read() == RACY_COUNTER


class TestResumeBitIdentical:
    """Satellite: kill-at-arbitrary-shard resume property."""

    @given(kill_after=st.integers(min_value=1, max_value=3),
           backend=st.sampled_from(["interp", "compiled"]))
    @settings(max_examples=6, deadline=None)
    def test_kill_and_resume_matches_uninterrupted(self, tmp_path_factory,
                                                   kill_after, backend):
        config = small_config(backend=backend)
        straight = str(tmp_path_factory.mktemp("straight"))
        run_campaign([racy_target()], straight, config=config)

        paused = str(tmp_path_factory.mktemp("paused"))
        partial = run_campaign([racy_target()], paused, config=config,
                               stop_after=kill_after)
        assert not partial.complete
        assert partial.shards_done == kill_after
        assert not os.path.exists(os.path.join(paused, "summary.json"))
        resumed = run_campaign(None, paused, resume=True)
        assert resumed.complete

        assert summary_bytes(paused) == summary_bytes(straight)

    def test_resume_after_every_shard(self, tmp_path):
        """The worst case: a kill after every single shard — the whole
        campaign runs as refold + one live shard per invocation."""
        config = small_config()
        straight = str(tmp_path / "straight")
        run_campaign([racy_target()], straight, config=config)

        choppy = str(tmp_path / "choppy")
        summary = run_campaign([racy_target()], choppy, config=config,
                               stop_after=1)
        while not summary.complete:
            summary = run_campaign(None, choppy, resume=True,
                                   stop_after=1)
        assert summary_bytes(choppy) == summary_bytes(straight)
        # the lease logs replay the same campaign schedule
        straight_q = open(os.path.join(straight, "queue.jsonl")).read()
        choppy_q = open(os.path.join(choppy, "queue.jsonl")).read()
        assert choppy_q == straight_q

    def test_resume_refuses_tampered_sources(self, tmp_path):
        directory = str(tmp_path / "camp")
        run_campaign([racy_target()], directory, config=small_config(),
                     stop_after=1)
        source_path = os.path.join(directory, "sources", "racy.c")
        with open(source_path, "a", encoding="utf-8") as handle:
            handle.write("\n// drift\n")
        with pytest.raises(ValueError, match="hash mismatch"):
            run_campaign(None, directory, resume=True)

    def test_resume_refuses_old_site_layout(self, tmp_path):
        """A ``sharc-campaign/1`` directory's shard rows carry 9-wide
        site counters; resume must refuse it rather than merge them
        into 8-wide ones."""
        directory = str(tmp_path / "camp")
        run_campaign([racy_target()], directory, config=small_config(),
                     stop_after=1)
        path = os.path.join(directory, MANIFEST_NAME)
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["schema"] = "sharc-campaign/1"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="sharc-campaign/1"):
            run_campaign(None, directory, resume=True)

    def test_resume_refuses_schema_2(self, tmp_path):
        """A ``sharc-campaign/2`` manifest config still names a burst
        cap and a shadow width; there is no reader for it."""
        directory = str(tmp_path / "camp")
        run_campaign([racy_target()], directory, config=small_config(),
                     stop_after=1)
        path = os.path.join(directory, MANIFEST_NAME)
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["schema"] = "sharc-campaign/2"
        manifest["config"].update(max_burst=8, shadow_bytes=2)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="sharc-campaign/2"):
            run_campaign(None, directory, resume=True)

    def test_resume_ignores_caller_config_except_jobs(self, tmp_path):
        """The manifest is authoritative on resume: a caller config
        with a different budget must not change the campaign."""
        directory = str(tmp_path / "camp")
        run_campaign([racy_target()], directory, config=small_config(),
                     stop_after=1)
        summary = run_campaign(None, directory, resume=True,
                               config=CampaignConfig(budget=999, jobs=1))
        assert summary.complete
        assert summary.budget == 24
        assert summary.schedules == 24


class TestDeterminism:
    def test_two_fresh_runs_identical_artifacts(self, tmp_path):
        """Pick determinism: the whole campaign — leases, shard files,
        summary — replays bit-for-bit from the same inputs."""
        config = small_config()
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_campaign([racy_target()], a, config=config)
        run_campaign([racy_target()], b, config=config)
        assert summary_bytes(a) == summary_bytes(b)
        assert (open(os.path.join(a, "queue.jsonl")).read()
                == open(os.path.join(b, "queue.jsonl")).read())
        shard = os.path.join("shards", "shard-00000.json")
        assert (open(os.path.join(a, shard), "rb").read()
                == open(os.path.join(b, shard), "rb").read())

    def test_jobs_do_not_change_results(self, tmp_path):
        """Batched worker IPC must be observationally pure: jobs only
        changes wall-clock, never a byte of any persisted artifact."""
        serial = str(tmp_path / "serial")
        pooled = str(tmp_path / "pooled")
        run_campaign([racy_target()], serial,
                     config=small_config(budget=12, shard_size=6,
                                         jobs=1))
        run_campaign([racy_target()], pooled,
                     config=small_config(budget=12, shard_size=6,
                                         jobs=2))
        assert summary_bytes(serial) == summary_bytes(pooled)
        shard = os.path.join("shards", "shard-00000.json")
        assert (open(os.path.join(serial, shard), "rb").read()
                == open(os.path.join(pooled, shard), "rb").read())


class TestCoverageGuidedScheduling:
    def test_budget_flows_to_productive_cells(self, tmp_path):
        """serial explores exactly one interleaving, so its new-trace
        rate collapses after the first shard; random keeps producing
        novel traces.  The picker must starve the former."""
        directory = str(tmp_path / "camp")
        summary = run_campaign(
            [racy_target()], directory,
            config=small_config(budget=40, shard_size=4,
                                policies=("serial", "random")))
        cells = summary.per_cell
        assert cells[("racy", "random")]["schedules"] > \
            cells[("racy", "serial")]["schedules"]
        assert cells[("racy", "serial")]["new_traces"] == 1

    def test_picks_are_recorded_in_lease_log(self, tmp_path):
        directory = str(tmp_path / "camp")
        run_campaign([racy_target()], directory, config=small_config())
        leases = [json.loads(line) for line in
                  open(os.path.join(directory, "queue.jsonl"))
                  if json.loads(line)["kind"] == "lease"]
        assert [lease["picked"] for lease in leases] == [0, 1, 2, 3]
        # the first pick of each cell happens before any rate exists
        assert leases[0]["rate"] is None


class TestCampaignCLI:
    def _write_source(self, tmp_path) -> str:
        path = tmp_path / "racy.c"
        path.write_text(RACY_COUNTER)
        return str(path)

    def test_run_pause_resume_roundtrip(self, tmp_path, capsys):
        source = self._write_source(tmp_path)
        directory = str(tmp_path / "camp")
        argv = ["campaign", directory, source, "--budget", "16",
                "--shard-size", "4", "--backend", "interp",
                "--policy", "random", "--json", "--quiet"]
        rc = cli_main(argv + ["--stop-after", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert rc in (0, 1)  # 1 == failures found, still a clean run
        assert payload["complete"] is False
        assert payload["schedules"] == 8

        rc = cli_main(["campaign", directory, "--resume", "--json",
                       "--quiet"])
        payload = json.loads(capsys.readouterr().out)
        assert rc in (0, 1)
        assert payload["complete"] is True
        assert payload["schedules"] == 16
        assert payload == json.loads(summary_bytes(directory))

    def test_resume_rejects_targets(self, tmp_path, capsys):
        source = self._write_source(tmp_path)
        directory = str(tmp_path / "camp")
        rc = cli_main(["campaign", directory, source, "--resume"])
        assert rc == 2
        assert "--resume" in capsys.readouterr().err

    def test_resume_without_manifest(self, tmp_path, capsys):
        rc = cli_main(["campaign", str(tmp_path / "nothere"),
                       "--resume"])
        assert rc == 2
        assert "manifest" in capsys.readouterr().err

    def test_fresh_without_targets(self, tmp_path, capsys):
        rc = cli_main(["campaign", str(tmp_path / "camp")])
        assert rc == 2
        assert "at least one" in capsys.readouterr().err

    def test_tampered_resume_exits_2(self, tmp_path, capsys):
        source = self._write_source(tmp_path)
        directory = str(tmp_path / "camp")
        cli_main(["campaign", directory, source, "--budget", "8",
                  "--shard-size", "4", "--backend", "interp",
                  "--policy", "random", "--quiet", "--stop-after", "1"])
        capsys.readouterr()
        with open(os.path.join(directory, "sources", "racy.c"), "a",
                  encoding="utf-8") as handle:
            handle.write("// drift\n")
        rc = cli_main(["campaign", directory, "--resume", "--quiet"])
        assert rc == 2
        assert "hash mismatch" in capsys.readouterr().err


class TestCampaignTelemetry:
    def test_stream_validates_and_status_finishes(self, tmp_path,
                                                  capsys):
        source = tmp_path / "racy.c"
        source.write_text(RACY_COUNTER)
        directory = str(tmp_path / "camp")
        cli_main(["campaign", directory, str(source), "--budget", "8",
                  "--shard-size", "4", "--backend", "interp",
                  "--policy", "random", "--quiet"])
        capsys.readouterr()
        stream = os.path.join(directory, "telemetry.jsonl")
        records = read_telemetry(stream)
        assert validate_telemetry(records) == []
        status = CampaignStatus.from_file(stream)
        assert status.finished
        assert status.done == 8
