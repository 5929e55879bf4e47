"""Units for the campaign engine's durable piece: the crash-safe work
queue (lease log + atomic shard results)."""

from __future__ import annotations

import json
import os

import pytest

from repro.explore.queue import WorkQueue


class TestWorkQueue:
    def _shard(self, n, seed_start=0, seeds=8):
        return {"shard": n, "label": "w", "policy": "random",
                "seed_start": seed_start, "seeds": seeds}

    def test_records_round_trip(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.lease(self._shard(0), rate=None, picked=0)
        queue.mark_done(0)
        kinds = [r["kind"] for r in queue.records()]
        assert kinds == ["lease", "done"]
        lease = queue.records()[0]
        assert lease["rate"] is None and lease["picked"] == 0
        assert lease["seed_start"] == 0 and lease["seeds"] == 8

    def test_torn_tail_tolerated(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.lease(self._shard(0), rate=0.5, picked=0)
        with open(queue.queue_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "done", "sha')  # killed mid-append
        records = queue.records()
        assert len(records) == 1
        assert records[0]["kind"] == "lease"

    def test_completed_needs_done_and_result(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.lease(self._shard(0), rate=None, picked=0)
        queue.lease(self._shard(1, seed_start=8), rate=1.0, picked=1)
        queue.write_shard(0, {"rows": []})
        queue.mark_done(0)
        # shard 1: leased but never finished -> not completed
        done = queue.completed()
        assert [r["shard"] for r in done] == [0]

    def test_completed_dedupes_re_leased_shards(self, tmp_path):
        """An orphan lease re-leased after a kill must fold once."""
        queue = WorkQueue(str(tmp_path))
        queue.lease(self._shard(0), rate=None, picked=0)  # orphan
        queue.lease(self._shard(0), rate=None, picked=0)  # re-lease
        queue.write_shard(0, {"rows": []})
        queue.mark_done(0)
        assert len(queue.completed()) == 1

    def test_write_shard_is_atomic(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.write_shard(3, {"rows": [1, 2], "shard": 3})
        assert queue.load_shard(3) == {"rows": [1, 2], "shard": 3}
        assert not os.path.exists(queue.shard_path(3) + ".tmp")
        # deterministic serialization: same payload, same bytes
        before = open(queue.shard_path(3), "rb").read()
        queue.write_shard(3, {"shard": 3, "rows": [1, 2]})
        assert open(queue.shard_path(3), "rb").read() == before

    def test_corrupt_shard_treated_as_absent(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        with open(queue.shard_path(0), "w", encoding="utf-8") as handle:
            handle.write('{"rows": [')  # torn by a kill mid-write...
        assert queue.load_shard(0) is None
        queue.lease(self._shard(0), rate=None, picked=0)
        queue.mark_done(0)
        # ...which cannot happen post-rename, but even then the shard
        # re-runs rather than folding garbage
        assert queue.completed() == []

    def test_empty_queue(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        assert queue.records() == []
        assert queue.completed() == []
        assert queue.load_shard(7) is None

    def test_lease_records_are_json_lines(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.lease(self._shard(0), rate=0.123456789, picked=0)
        line = open(queue.queue_path, encoding="utf-8").read()
        record = json.loads(line)
        assert record["rate"] == pytest.approx(0.123457)
