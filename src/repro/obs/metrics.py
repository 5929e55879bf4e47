"""Cross-sweep metrics aggregation: the ``metrics.json`` registry.

One ``sharc explore`` sweep already reports its own coverage; production
use runs *many* sweeps (several programs, checkers, budgets) and wants
one machine-readable account of where the checking effort went.  A
:class:`MetricsRegistry` folds any number of
:class:`~repro.explore.driver.ExplorationSummary` objects into:

- totals: schedules, failing schedules, races per 1k schedules, distinct
  context-switch traces, shadow-check update/fast-path counts and the
  resulting check hit rate;
- a per-policy breakdown of the same (PCT vs random vs pb efficiency is
  the headline comparison the exploration engine exists to make);
- a per-sweep ledger so individual runs stay attributable;
- per-check-site cost attribution merged across every schedule of
  every sweep (:mod:`repro.obs.sitestats`) — which ``chkread`` /
  ``chkwrite`` occurrences dominate the charged cost, and how each was
  discharged.

``sharc explore --metrics-out metrics.json`` writes the registry; the
payload is schema-checked (:func:`validate_metrics`) before it touches
disk, mirroring how ``BENCH_interp.json`` is handled.  Readers accept
only the current :data:`METRICS_SCHEMA`.
"""

from __future__ import annotations

import json

from repro.obs import sitestats

METRICS_SCHEMA = "sharc-metrics/6"


def _rate(hits: int, total: int) -> float:
    return hits / total if total > 0 else 0.0


def _per_1k(failures: int, schedules: int) -> float:
    return 1000.0 * failures / schedules if schedules > 0 else 0.0


class MetricsRegistry:
    """Accumulates sweep summaries into one exportable payload."""

    def __init__(self) -> None:
        self.sweeps: list[dict] = []
        self.schedules = 0
        self.failing = 0
        self.crashed = 0
        self.steps_total = 0
        self.check_updates = 0
        self.check_fastpath = 0
        self._trace_hashes: set = set()
        #: policy -> accumulated bucket
        self._policies: dict[str, dict] = {}
        self._reports: set = set()
        # static-vs-dynamic agreement (differential sweeps only)
        self.static_races = 0
        #: checker -> {"agreeing", "static_only", "dynamic_only"}
        self._static: dict[str, dict] = {}
        #: merged per-check-site attribution (sitestats layout)
        self.sites: dict = {}

    def record_sweep(self, summary) -> None:
        """Folds one :class:`ExplorationSummary` in."""
        updates = sum(o.check_updates for o in summary.outcomes)
        fastpath = sum(o.check_fastpath for o in summary.outcomes)
        self.sweeps.append({
            "filename": summary.filename,
            "checker": summary.checker,
            "policies": list(summary.policies),
            "schedules": summary.schedules,
            "failing_schedules": len(summary.failures),
            "crashed_schedules": len(summary.crashes),
            "races_per_1k": round(summary.races_per_1k, 3),
            "distinct_traces": summary.distinct_traces,
            "check_hit_rate": round(_rate(fastpath, updates), 6),
        })
        self.schedules += summary.schedules
        self.failing += len(summary.failures)
        self.crashed += len(summary.crashes)
        self.steps_total += summary.steps_total
        self.check_updates += updates
        self.check_fastpath += fastpath
        self._trace_hashes |= summary.trace_hashes
        self._reports.update(summary.first_failures)
        sitestats.merge_sites(self.sites,
                              getattr(summary, "site_totals", {}))
        by_policy: dict[str, dict] = {}
        for outcome in summary.outcomes:
            acc = by_policy.setdefault(outcome.policy,
                                       {"updates": 0, "fastpath": 0})
            acc["updates"] += outcome.check_updates
            acc["fastpath"] += outcome.check_fastpath
        for policy, bucket in summary.per_policy.items():
            acc = self._policies.setdefault(
                policy, {"schedules": 0, "failures": 0, "crashes": 0,
                         "traces": set(), "updates": 0, "fastpath": 0})
            acc["schedules"] += bucket["schedules"]
            acc["failures"] += bucket["failures"]
            acc["crashes"] += bucket.get("crashes", 0)
            acc["traces"] |= bucket["traces"]
            counts = by_policy.get(policy, {})
            acc["updates"] += counts.get("updates", 0)
            acc["fastpath"] += counts.get("fastpath", 0)

    def record_differential(self, summary) -> None:
        """Folds one :class:`DifferentialSummary`'s static column in
        (both dynamic sweeps should also be recorded via
        :meth:`record_sweep`)."""
        self.static_races += len(summary.static_keys)
        for agreement in (summary.static_vs_sharc,
                          summary.static_vs_eraser):
            if agreement is None:
                continue
            acc = self._static.setdefault(
                agreement.checker,
                {"agreeing": 0, "static_only": 0, "dynamic_only": 0})
            acc["agreeing"] += agreement.agreeing
            acc["static_only"] += agreement.static_only
            acc["dynamic_only"] += agreement.dynamic_only

    @property
    def races_per_1k(self) -> float:
        # Crash-tagged schedules never reached a verdict; counting them
        # in the denominator would understate the observed race rate.
        return _per_1k(self.failing, self.schedules - self.crashed)

    @property
    def check_hit_rate(self) -> float:
        return _rate(self.check_fastpath, self.check_updates)

    def as_dict(self) -> dict:
        return {
            "schema": METRICS_SCHEMA,
            "sweeps": list(self.sweeps),
            "totals": {
                "sweeps": len(self.sweeps),
                "schedules": self.schedules,
                "failing_schedules": self.failing,
                "crashed_schedules": self.crashed,
                "races_per_1k": round(self.races_per_1k, 3),
                "distinct_traces": len(self._trace_hashes),
                "distinct_reports": len(self._reports),
                "steps_total": self.steps_total,
                "check_updates": self.check_updates,
                "check_fastpath_hits": self.check_fastpath,
                "check_hit_rate": round(self.check_hit_rate, 6),
            },
            "static": {
                "races": self.static_races,
                "agreement": {
                    checker: dict(acc)
                    for checker, acc in sorted(self._static.items())},
            },
            "per_policy": {
                policy: {
                    "schedules": acc["schedules"],
                    "failures": acc["failures"],
                    "crashes": acc.get("crashes", 0),
                    "races_per_1k": round(
                        _per_1k(acc["failures"],
                                acc["schedules"] - acc.get("crashes", 0)),
                        3),
                    "distinct_traces": len(acc["traces"]),
                    "check_hit_rate": round(
                        _rate(acc["fastpath"], acc["updates"]), 6),
                }
                for policy, acc in sorted(self._policies.items())},
            "sites": {
                "totals": sitestats.totals(self.sites),
                "rows": sitestats.site_rows(self.sites),
            },
        }

    def render(self) -> str:
        data = self.as_dict()
        totals = data["totals"]
        lines = [
            f"metrics over {totals['sweeps']} sweep(s), "
            f"{totals['schedules']} schedules:",
            f"  failing: {totals['failing_schedules']} "
            f"({totals['races_per_1k']:.1f} races/1k)  "
            f"distinct traces: {totals['distinct_traces']}  "
            f"check hit rate: {totals['check_hit_rate']:.1%}",
        ]
        for policy, row in data["per_policy"].items():
            lines.append(
                f"  {policy:<12} {row['failures']:>4}/{row['schedules']:<5}"
                f" failing ({row['races_per_1k']:>6.1f}/1k), "
                f"{row['distinct_traces']} traces, "
                f"hit rate {row['check_hit_rate']:.1%}")
        static = data["static"]
        if static["agreement"]:
            lines.append(f"  static races: {static['races']}")
            for checker, row in static["agreement"].items():
                lines.append(
                    f"    static vs {checker:<6}: {row['agreeing']} "
                    f"agreeing, {row['static_only']} static-only, "
                    f"{row['dynamic_only']} dynamic-only")
        if self.sites:
            lines.append(sitestats.render_hot_sites(self.sites))
        return "\n".join(lines)


def validate_metrics(payload: dict) -> list:
    """Schema check; returns a list of problems (empty when valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("schema") != METRICS_SCHEMA:
        problems.append(f"schema != {METRICS_SCHEMA!r}")
    totals = payload.get("totals")
    if not isinstance(totals, dict):
        return problems + ["totals missing"]
    for key in ("sweeps", "schedules", "failing_schedules",
                "crashed_schedules", "distinct_traces", "steps_total",
                "check_updates", "check_fastpath_hits"):
        value = totals.get(key)
        if not isinstance(value, int) or value < 0:
            problems.append(f"totals.{key}: expected non-negative int, "
                            f"got {value!r}")
    for key, hi in (("races_per_1k", 1000.0), ("check_hit_rate", 1.0)):
        value = totals.get(key)
        if not isinstance(value, (int, float)) or not 0 <= value <= hi:
            problems.append(f"totals.{key}: expected number in "
                            f"[0, {hi}], got {value!r}")
    if not isinstance(payload.get("sweeps"), list):
        problems.append("sweeps missing or not an array")
    static = payload.get("static")
    if not isinstance(static, dict):
        problems.append("static missing")
    else:
        races = static.get("races")
        if not isinstance(races, int) or races < 0:
            problems.append("static.races: expected non-negative int, "
                            f"got {races!r}")
        agreement = static.get("agreement")
        if not isinstance(agreement, dict):
            problems.append("static.agreement missing")
        else:
            for checker, row in agreement.items():
                for key in ("agreeing", "static_only", "dynamic_only"):
                    if not isinstance(row.get(key), int):
                        problems.append(
                            f"static.agreement.{checker}.{key}: "
                            "expected int")
    per_policy = payload.get("per_policy")
    if not isinstance(per_policy, dict):
        problems.append("per_policy missing")
    else:
        for policy, row in per_policy.items():
            if not isinstance(row, dict):
                problems.append(f"per_policy.{policy}: not an object")
                continue
            for key in ("schedules", "failures", "distinct_traces"):
                if not isinstance(row.get(key), int):
                    problems.append(
                        f"per_policy.{policy}.{key}: expected int")
            rate = row.get("check_hit_rate")
            if not isinstance(rate, (int, float)) or not 0 <= rate <= 1:
                problems.append(
                    f"per_policy.{policy}.check_hit_rate out of range")
    sites = payload.get("sites")
    if not isinstance(sites, dict):
        problems.append("sites missing")
    else:
        if not isinstance(sites.get("totals"), dict):
            problems.append("sites.totals missing")
        rows = sites.get("rows")
        if not isinstance(rows, list):
            problems.append("sites.rows missing or not an array")
        else:
            for i, row in enumerate(rows):
                if not isinstance(row, dict):
                    problems.append(f"sites.rows[{i}]: not an object")
                    continue
                for key in ("file", "lvalue", "op"):
                    if not isinstance(row.get(key), str):
                        problems.append(
                            f"sites.rows[{i}].{key}: expected string")
                for key in ("line", "checks") + sitestats.SITE_FIELDS:
                    value = row.get(key)
                    if not isinstance(value, int) or value < 0:
                        problems.append(
                            f"sites.rows[{i}].{key}: expected "
                            f"non-negative int, got {value!r}")
    return problems


def write_metrics(registry: MetricsRegistry, path: str) -> dict:
    """Validates and writes ``metrics.json``; returns the payload."""
    payload = registry.as_dict()
    problems = validate_metrics(payload)
    if problems:  # pragma: no cover - would be a registry bug
        raise ValueError("invalid metrics payload: "
                         + "; ".join(problems))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload
