"""Structured runtime observability for the SharC reproduction.

The paper's central artifact is a *diagnostic* — Section 2.1's conflict
reports tell the programmer who raced with whom.  This package makes
every run, check, and sweep inspectable after the fact:

- :mod:`repro.obs.events` — a bounded, sampled, category-filtered event
  bus the runtime (interpreter, scheduler, shadow checker, lock table,
  refcount engine) emits typed events into.  Tracing-off runs are
  bit-identical to untraced ones (steps, reports, rng sequence);
  timestamps are deterministic interpreter steps.
- :mod:`repro.obs.history` — per-granule access-history rings so
  conflict reports carry full provenance (``hist`` lines) instead of a
  single ``last`` access.
- :mod:`repro.obs.export` — exporters: Chrome trace-event JSON (open in
  Perfetto / ``chrome://tracing``; one track per thread, checks as
  slices, conflicts as instants) and JSON Lines, both schema-checked.
- :mod:`repro.obs.metrics` — a registry aggregating ``sharc explore``
  sweeps into a schema-validated ``metrics.json`` (per-policy races/1k,
  distinct traces, check hit rates, per-check-site attribution).
- :mod:`repro.obs.sitestats` — per-check-site cost attribution: which
  ``chkread``/``chkwrite`` occurrences dominate charged cost and how
  each was discharged; reconciles exactly with ``RunStats``.
- :mod:`repro.obs.telemetry` — the crash-safe ``telemetry.jsonl``
  campaign stream (heartbeats, coverage curve, violations) feeding
  ``sharc status`` live views, plus TTY-aware progress printing.
- :mod:`repro.obs.report` — self-contained static HTML campaign
  reports (``sharc report``), no external dependencies.

CLI surface: ``sharc run --trace-out``, ``sharc explore --metrics-out
--telemetry-out``, ``sharc status``, ``sharc report``, and ``sharc
trace`` (inspect / convert / replay saved traces).
"""

from repro.obs.events import (
    CAT_CHECK, CAT_CONFLICT, CAT_LOCK, CAT_RC, CAT_SCAST, CAT_SCHED,
    CAT_THREAD, CATEGORIES, Event, TraceBus, TraceConfig, parse_filter,
)
from repro.obs.history import AccessHistory, AccessRecord
from repro.obs.export import (
    chrome_trace, jsonl_records, read_jsonl, render_summary,
    validate_chrome_trace, validate_jsonl_records, write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    METRICS_SCHEMA, MetricsRegistry, validate_metrics, write_metrics,
)
from repro.obs.report import build_report, write_report
from repro.obs.sitestats import (
    SITE_FIELDS, encode_sites, decode_sites, merge_sites,
    reconcile, render_hot_sites, site_rows,
)
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA, CampaignStatus, ProgressPrinter, TelemetryWriter,
    read_telemetry, supports_live, validate_status, validate_telemetry,
)

__all__ = [
    "AccessHistory",
    "AccessRecord",
    "CATEGORIES",
    "CAT_CHECK",
    "CAT_CONFLICT",
    "CAT_LOCK",
    "CAT_RC",
    "CAT_SCAST",
    "CAT_SCHED",
    "CAT_THREAD",
    "CampaignStatus",
    "Event",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "ProgressPrinter",
    "SITE_FIELDS",
    "TELEMETRY_SCHEMA",
    "TelemetryWriter",
    "TraceBus",
    "TraceConfig",
    "build_report",
    "chrome_trace",
    "decode_sites",
    "encode_sites",
    "jsonl_records",
    "merge_sites",
    "parse_filter",
    "read_jsonl",
    "read_telemetry",
    "reconcile",
    "render_hot_sites",
    "render_summary",
    "site_rows",
    "supports_live",
    "validate_chrome_trace",
    "validate_jsonl_records",
    "validate_metrics",
    "validate_status",
    "validate_telemetry",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics",
    "write_report",
]
