"""Crash-safe campaign telemetry: the ``telemetry.jsonl`` stream.

An explore/fuzz campaign is a long-running black box unless it
narrates itself.  :class:`TelemetryWriter` appends one JSON record per
event to an on-disk stream — flushed and fsynced per record batch from
the multiprocessing fan-out, so a killed campaign still leaves a
readable account up to its last batch — and ``sharc status DIR`` tails
the stream to render a live view (:class:`CampaignStatus`) of a
running *or* finished campaign, from the file alone.

Record kinds (every record carries ``kind`` and ``t``, seconds since
the stream opened, from an injectable monotonic clock):

- ``start``: stream header — schema tag, campaign label, planned total;
- ``sweep-start``: one per :func:`~repro.explore.driver.explore_source`
  sweep — filename, checker, backend, policies, schedule count;
- ``progress``: the heartbeat — cumulative schedules done/total,
  schedules/sec, ETA, distinct-trace coverage (the curve is the
  sequence of these records), failing/crash counts, per-policy and
  per-backend breakdowns;
- ``violation``: first sighting of each distinct report key, with its
  replay coordinates;
- ``sweep-end``: the sweep's final tallies;
- ``scenario``: one fuzz-pipeline scenario verdict;
- ``final``: campaign end (also written on KeyboardInterrupt — the
  ``interrupted`` flag distinguishes the two).

Telemetry is pure observation: the writer touches only its own file
handle and counters, never the scheduler RNG, step charges, or
reports, so runs stay bit-identical by seed with telemetry on or off
(the tier-1 identity suites run both ways).
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from typing import Callable, Optional

TELEMETRY_SCHEMA = "sharc-telemetry/1"

RECORD_KINDS = ("start", "sweep-start", "progress", "violation",
                "sweep-end", "scenario", "final")

#: default outcomes-per-progress-record — matches the explore fan-out's
#: batch size (``FANOUT_BATCH``), so one heartbeat lands per result batch
DEFAULT_FLUSH_EVERY = 8


class TelemetryWriter:
    """Appends schema-tagged records to ``path``.

    ``clock`` is any zero-argument monotonic-seconds callable
    (injectable so rate/ETA math is testable); ``flush_every`` is the
    outcome batch size between ``progress`` heartbeats.  Every record
    is flushed and fsynced as written — crash safety beats throughput
    at these rates (a heartbeat per 8 schedules is ~Hz-scale).
    """

    def __init__(self, path: str, *, campaign: str = "",
                 total: int = 0,
                 flush_every: int = DEFAULT_FLUSH_EVERY,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.path = path
        self.campaign = campaign
        self.flush_every = max(1, flush_every)
        self._clock = clock if clock is not None else time.monotonic
        self._t0 = self._clock()
        self._handle = open(path, "w", encoding="utf-8")
        # cumulative across sweeps
        self.total = total
        self.done = 0
        self.failing = 0
        self.crashes = 0
        self.trace_hashes: set = set()
        self.violations: set = set()
        self._per_policy: dict[str, dict] = {}
        self._per_backend: dict[str, dict] = {}
        # current sweep
        self._sweep_label = ""
        self._sweep_backend = "interp"
        self._sweep_done = 0
        self._sweep_total = 0
        self._pending = 0
        self.emit("start", schema=TELEMETRY_SCHEMA,
                  campaign=campaign, total=total)

    # -- low-level ---------------------------------------------------------

    def emit(self, kind: str, **fields) -> None:
        """Writes one record and makes it durable."""
        record = {"kind": kind,
                  "t": round(self._clock() - self._t0, 6)}
        record.update(fields)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- campaign protocol -------------------------------------------------

    def add_total(self, n: int) -> None:
        """Grows the planned-schedule total (campaigns that discover
        work as they go, e.g. fuzz scenario streams)."""
        self.total += n

    def begin_sweep(self, filename: str, checker: str,
                    policies, total: int,
                    backend: Optional[str] = None) -> None:
        from repro.runtime.interp import resolve_backend

        self._sweep_label = f"{filename} [{checker}]"
        self._sweep_backend = resolve_backend(backend)
        self._sweep_done = 0
        self._sweep_total = total
        self._pending = 0
        if self.done + total > self.total:
            self.total = self.done + total
        self.emit("sweep-start", filename=filename, checker=checker,
                  backend=self._sweep_backend,
                  policies=list(policies), schedules=total)

    def record_outcome(self, outcome) -> None:
        """Folds one schedule outcome in; emits a heartbeat every
        ``flush_every`` outcomes."""
        self.done += 1
        self._sweep_done += 1
        self._pending += 1
        crashed = not outcome.trace_hash
        if crashed:
            self.crashes += 1
        else:
            self.trace_hashes.add(outcome.trace_hash)
            if outcome.reports > 0:
                self.failing += 1
        pol = self._per_policy.setdefault(
            outcome.policy, {"schedules": 0, "failures": 0,
                             "crashes": 0, "traces": set()})
        pol["schedules"] += 1
        back = self._per_backend.setdefault(
            self._sweep_backend, {"schedules": 0, "failures": 0,
                                  "crashes": 0, "traces": set()})
        back["schedules"] += 1
        if crashed:
            pol["crashes"] += 1
            back["crashes"] += 1
        else:
            pol["traces"].add(outcome.trace_hash)
            back["traces"].add(outcome.trace_hash)
            if outcome.reports > 0:
                pol["failures"] += 1
                back["failures"] += 1
            for key in outcome.report_keys:
                if key not in self.violations:
                    self.violations.add(key)
                    self.emit("violation", report=key,
                              seed=outcome.seed, policy=outcome.policy,
                              checker=outcome.checker)
        if self._pending >= self.flush_every:
            self.progress()

    def progress(self) -> None:
        """Emits the heartbeat record unconditionally."""
        self._pending = 0
        elapsed = self._clock() - self._t0
        rate = self.done / elapsed if elapsed > 0 else 0.0
        remaining = max(0, self.total - self.done)
        eta = remaining / rate if rate > 0 else None

        def fold(buckets: dict) -> dict:
            return {name: {"schedules": b["schedules"],
                           "failures": b["failures"],
                           "crashes": b["crashes"],
                           "distinct_traces": len(b["traces"])}
                    for name, b in sorted(buckets.items())}

        self.emit("progress", done=self.done, total=self.total,
                  sweep=self._sweep_label,
                  sweep_done=self._sweep_done,
                  sweep_total=self._sweep_total,
                  rate=round(rate, 3),
                  eta_seconds=(round(eta, 1)
                               if eta is not None else None),
                  distinct_traces=len(self.trace_hashes),
                  failing=self.failing, crashes=self.crashes,
                  violations=len(self.violations),
                  per_policy=fold(self._per_policy),
                  per_backend=fold(self._per_backend))

    def end_sweep(self, summary) -> None:
        if self._pending:
            self.progress()
        self.emit("sweep-end", filename=summary.filename,
                  checker=summary.checker,
                  backend=self._sweep_backend,
                  schedules=summary.schedules,
                  failing=len(summary.failures),
                  crashes=len(summary.crashes),
                  distinct_traces=summary.distinct_traces,
                  interrupted=summary.interrupted)

    def scenario(self, name: str, verdict: str, **fields) -> None:
        self.emit("scenario", name=name, verdict=verdict, **fields)

    def final(self, interrupted: bool = False) -> None:
        if self._pending:
            self.progress()
        self.emit("final", done=self.done, total=self.total,
                  failing=self.failing, crashes=self.crashes,
                  violations=sorted(self.violations),
                  distinct_traces=len(self.trace_hashes),
                  interrupted=interrupted)
        self.close()


# -- reading the stream ----------------------------------------------------


def read_telemetry(path: str) -> list:
    """Parses a telemetry stream, tolerating a truncated final line
    (the crash-safety contract: a killed writer leaves at most one
    partial record, which is dropped)."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break  # truncated tail
            records.append(record)
    return records


def validate_telemetry(records) -> list:
    """Schema check over a parsed stream; returns problems (empty when
    valid)."""
    problems: list[str] = []
    if not records:
        return ["empty telemetry stream"]
    head = records[0]
    if head.get("kind") != "start":
        problems.append("first record is not 'start'")
    elif head.get("schema") != TELEMETRY_SCHEMA:
        problems.append(f"schema != {TELEMETRY_SCHEMA!r}")
    last_t = None
    for i, record in enumerate(records):
        kind = record.get("kind")
        if kind not in RECORD_KINDS:
            problems.append(f"record {i}: unknown kind {kind!r}")
            continue
        t = record.get("t")
        if not isinstance(t, (int, float)) or t < 0:
            problems.append(f"record {i}: bad timestamp {t!r}")
            continue
        if last_t is not None and t < last_t:
            problems.append(f"record {i}: timestamp goes backwards")
        last_t = t
        if kind == "progress":
            for key in ("done", "total", "distinct_traces", "failing",
                        "crashes"):
                value = record.get(key)
                if not isinstance(value, int) or value < 0:
                    problems.append(f"record {i}: progress.{key}: "
                                    f"expected non-negative int, "
                                    f"got {value!r}")
            for key in ("per_policy", "per_backend"):
                if not isinstance(record.get(key), dict):
                    problems.append(f"record {i}: progress.{key} "
                                    "missing")
    return problems


class CampaignStatus:
    """A telemetry stream folded into one renderable view."""

    def __init__(self) -> None:
        self.campaign = ""
        self.schema = ""
        self.done = 0
        self.total = 0
        self.rate = 0.0
        self.eta_seconds: Optional[float] = None
        self.distinct_traces = 0
        self.failing = 0
        self.crashes = 0
        self.sweep = ""
        self.sweep_done = 0
        self.sweep_total = 0
        self.per_policy: dict[str, dict] = {}
        self.per_backend: dict[str, dict] = {}
        self.violations: list[dict] = []
        self.sweeps: list[dict] = []
        self.scenarios: list[dict] = []
        #: (done, distinct_traces) samples — the coverage curve
        self.coverage_curve: list[tuple[int, int]] = []
        self.finished = False
        self.interrupted = False
        self.elapsed = 0.0

    @classmethod
    def from_records(cls, records) -> "CampaignStatus":
        status = cls()
        for record in records:
            kind = record.get("kind")
            status.elapsed = record.get("t", status.elapsed)
            if kind == "start":
                status.campaign = record.get("campaign", "")
                status.schema = record.get("schema", "")
                status.total = record.get("total", 0)
            elif kind == "progress":
                status.done = record.get("done", status.done)
                status.total = record.get("total", status.total)
                status.rate = record.get("rate", 0.0)
                status.eta_seconds = record.get("eta_seconds")
                status.distinct_traces = record.get(
                    "distinct_traces", 0)
                status.failing = record.get("failing", 0)
                status.crashes = record.get("crashes", 0)
                status.sweep = record.get("sweep", "")
                status.sweep_done = record.get("sweep_done", 0)
                status.sweep_total = record.get("sweep_total", 0)
                status.per_policy = record.get("per_policy", {})
                status.per_backend = record.get("per_backend", {})
                status.coverage_curve.append(
                    (status.done, status.distinct_traces))
            elif kind == "violation":
                status.violations.append(record)
            elif kind == "sweep-end":
                status.sweeps.append(record)
            elif kind == "scenario":
                status.scenarios.append(record)
            elif kind == "final":
                status.finished = True
                status.interrupted = record.get("interrupted", False)
                status.done = record.get("done", status.done)
                status.failing = record.get("failing", status.failing)
                status.crashes = record.get("crashes", status.crashes)
                status.distinct_traces = record.get(
                    "distinct_traces", status.distinct_traces)
        return status

    @classmethod
    def from_file(cls, path: str) -> "CampaignStatus":
        return cls.from_records(read_telemetry(path))

    @property
    def state(self) -> str:
        if self.interrupted:
            return "interrupted"
        return "finished" if self.finished else "running"

    def as_dict(self) -> dict:
        return {
            "schema": self.schema,
            "campaign": self.campaign,
            "state": self.state,
            "done": self.done,
            "total": self.total,
            "rate": self.rate,
            "eta_seconds": self.eta_seconds,
            "elapsed": self.elapsed,
            "distinct_traces": self.distinct_traces,
            "failing": self.failing,
            "crashes": self.crashes,
            "sweep": self.sweep,
            "per_policy": self.per_policy,
            "per_backend": self.per_backend,
            "violations": [
                {"report": v.get("report"), "seed": v.get("seed"),
                 "policy": v.get("policy"),
                 "checker": v.get("checker")}
                for v in self.violations],
            "sweeps": [dict(s) for s in self.sweeps],
            "scenarios": [dict(s) for s in self.scenarios],
            "coverage_curve": [list(p) for p in self.coverage_curve],
        }

    def render(self) -> str:
        pct = 100.0 * self.done / self.total if self.total else 0.0
        bar_w = 30
        filled = int(bar_w * min(1.0, self.done / self.total)) \
            if self.total else 0
        bar = "#" * filled + "-" * (bar_w - filled)
        eta = (f"eta {self.eta_seconds:.0f}s"
               if self.eta_seconds is not None and not self.finished
               else self.state)
        lines = [
            f"{self.campaign or 'campaign'} [{bar}] "
            f"{self.done}/{self.total} ({pct:.0f}%)  "
            f"{self.rate:.1f} sched/s  {eta}",
            f"  distinct traces: {self.distinct_traces}  "
            f"failing: {self.failing}  crashes: {self.crashes}  "
            f"violations: {len(self.violations)}",
        ]
        if self.sweep and not self.finished:
            lines.append(f"  current sweep: {self.sweep} "
                         f"({self.sweep_done}/{self.sweep_total})")
        for name, row in sorted(self.per_policy.items()):
            lines.append(
                f"  {name:<12} {row.get('failures', 0):>4}"
                f"/{row.get('schedules', 0):<5} failing, "
                f"{row.get('distinct_traces', 0)} traces")
        if len(self.per_backend) > 1:
            for name, row in sorted(self.per_backend.items()):
                lines.append(
                    f"  backend {name:<8} "
                    f"{row.get('schedules', 0)} schedules, "
                    f"{row.get('failures', 0)} failing")
        for v in self.violations[:10]:
            lines.append(f"  violation {v.get('report')}  ->  replay "
                         f"with seed={v.get('seed')} "
                         f"policy={v.get('policy')}")
        if len(self.violations) > 10:
            lines.append(f"  ... and {len(self.violations) - 10} more "
                         "violations")
        return "\n".join(lines)


def validate_status(payload: dict) -> list:
    """Schema check for ``sharc status --json`` output."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("schema") != TELEMETRY_SCHEMA:
        problems.append(f"schema != {TELEMETRY_SCHEMA!r}")
    if payload.get("state") not in ("running", "finished",
                                    "interrupted"):
        problems.append(f"bad state {payload.get('state')!r}")
    for key in ("done", "total", "distinct_traces", "failing",
                "crashes"):
        value = payload.get(key)
        if not isinstance(value, int) or value < 0:
            problems.append(f"{key}: expected non-negative int, "
                            f"got {value!r}")
    for key in ("per_policy", "per_backend"):
        if not isinstance(payload.get(key), dict):
            problems.append(f"{key} missing")
    for key in ("violations", "sweeps", "coverage_curve"):
        if not isinstance(payload.get(key), list):
            problems.append(f"{key} missing")
    return problems


# -- terminal progress -----------------------------------------------------


def supports_live(stream=None) -> bool:
    """True when ``stream`` is an interactive terminal that can take
    ANSI in-place redraws (CI logs and pipes get plain lines)."""
    if stream is None:
        stream = sys.stdout
    try:
        if not stream.isatty():
            return False
    except (AttributeError, ValueError, io.UnsupportedOperation):
        return False
    return os.environ.get("TERM", "") != "dumb"


class ProgressPrinter:
    """TTY-aware progress line: in-place ``\\r`` redraw on a live
    terminal, plain (throttled) lines otherwise, nothing when quiet."""

    def __init__(self, stream=None, *, quiet: bool = False,
                 live: Optional[bool] = None) -> None:
        self.stream = stream if stream is not None else sys.stdout
        self.quiet = quiet
        self.live = supports_live(self.stream) if live is None else live
        self._dirty = False
        self._last_plain = ""

    def update(self, line: str) -> None:
        if self.quiet:
            return
        if self.live:
            self.stream.write("\r\x1b[K" + line)
            self.stream.flush()
            self._dirty = True
        elif line != self._last_plain:
            # plain mode: one line per distinct update, no ANSI
            self.stream.write(line + "\n")
            self.stream.flush()
            self._last_plain = line

    def close(self) -> None:
        if self.quiet:
            return
        if self.live and self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False
