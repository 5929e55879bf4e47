"""Self-contained HTML campaign reports: ``sharc report DIR``.

Folds a campaign directory — ``telemetry.jsonl``
(:mod:`repro.obs.telemetry`) plus, when present, ``metrics.json``
(:mod:`repro.obs.metrics`, current schema only) —
into one static HTML file with zero external dependencies: inline CSS,
the coverage curve as inline SVG, no scripts, no CDN fetches.  The
file is what the nightly fuzz-soak job uploads as its artifact, so it
must render anywhere a browser opens it.

The check-site table is lifted verbatim from the metrics payload's
``sites`` section, whose per-site sums reconcile exactly with the
``RunStats`` counters (:func:`repro.obs.sitestats.reconcile`) — the
report never recomputes, only renders.
"""

from __future__ import annotations

import html
import json
import os
from typing import Optional

from repro.obs import sitestats
from repro.obs.metrics import METRICS_SCHEMA
from repro.obs.telemetry import CampaignStatus, read_telemetry

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1a1a2e;
       line-height: 1.45; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #4a4e69;
     padding-bottom: .3rem; }
h2 { font-size: 1.1rem; margin-top: 1.8rem; color: #22223b; }
table { border-collapse: collapse; width: 100%; font-size: .85rem; }
th, td { border: 1px solid #c9cad9; padding: .25rem .55rem;
         text-align: right; }
th { background: #edf0f5; }
td.k, th.k { text-align: left; font-family: ui-monospace, monospace; }
.badge { display: inline-block; padding: .1rem .5rem;
         border-radius: .6rem; font-size: .8rem; color: #fff; }
.ok { background: #2a9d8f; } .warn { background: #e76f51; }
.meta { background: #8d99ae; }
.summary { display: flex; gap: 2rem; flex-wrap: wrap;
           margin: 1rem 0; }
.summary div { background: #f4f5fa; border-radius: .5rem;
               padding: .6rem 1rem; }
.summary b { display: block; font-size: 1.3rem; }
svg { background: #fbfbfe; border: 1px solid #c9cad9; }
caption { caption-side: bottom; font-size: .75rem; color: #6c6f85;
          padding-top: .3rem; text-align: left; }
"""


def _esc(value) -> str:
    return html.escape(str(value))


def _coverage_svg(curve, width: int = 640, height: int = 200) -> str:
    """The distinct-trace coverage curve as an inline SVG polyline:
    x = schedules done, y = distinct context-switch traces."""
    if len(curve) < 2:
        return "<p>not enough progress samples for a coverage curve</p>"
    max_x = max(p[0] for p in curve) or 1
    max_y = max(p[1] for p in curve) or 1
    pad = 34

    def sx(x):
        return pad + (width - 2 * pad) * x / max_x

    def sy(y):
        return height - pad - (height - 2 * pad) * y / max_y

    points = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in curve)
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" '
        'aria-label="coverage curve">'
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="#8d99ae"/>'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" '
        f'y2="{height - pad}" stroke="#8d99ae"/>'
        f'<polyline points="{points}" fill="none" stroke="#4a4e69" '
        'stroke-width="2"/>'
        f'<text x="{width - pad}" y="{height - 10}" font-size="11" '
        f'text-anchor="end" fill="#6c6f85">{max_x} schedules</text>'
        f'<text x="{pad + 4}" y="{pad + 4}" font-size="11" '
        f'fill="#6c6f85">{max_y} distinct traces</text>'
        "</svg>")


def _table(headers, rows, caption: str = "",
           key_cols: int = 1) -> str:
    """A plain HTML table; the first ``key_cols`` columns are
    left-aligned monospace keys."""
    out = ["<table>"]
    if caption:
        out.append(f"<caption>{_esc(caption)}</caption>")
    out.append("<tr>" + "".join(
        f'<th{" class=k" if i < key_cols else ""}>{_esc(h)}</th>'
        for i, h in enumerate(headers)) + "</tr>")
    for row in rows:
        out.append("<tr>" + "".join(
            f'<td{" class=k" if i < key_cols else ""}>{_esc(v)}</td>'
            for i, v in enumerate(row)) + "</tr>")
    out.append("</table>")
    return "".join(out)


def build_report(status: CampaignStatus,
                 metrics: Optional[dict] = None,
                 title: str = "SharC campaign report") -> str:
    """Renders a telemetry-stream status (plus an optional upgraded
    metrics payload) into one self-contained HTML document."""
    state_cls = {"finished": "ok", "running": "meta",
                 "interrupted": "warn"}[status.state]
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)} "
        f"<span class='badge {state_cls}'>{_esc(status.state)}</span>"
        "</h1>",
        f"<p>campaign: <b>{_esc(status.campaign or 'unnamed')}</b>"
        f" &middot; elapsed {status.elapsed:.1f}s"
        f" &middot; {status.rate:.1f} schedules/sec</p>",
        "<div class='summary'>",
        f"<div><b>{status.done}/{status.total}</b>schedules</div>",
        f"<div><b>{status.distinct_traces}</b>distinct traces</div>",
        f"<div><b>{status.failing}</b>failing schedules</div>",
        f"<div><b>{len(status.violations)}</b>violations</div>",
        f"<div><b>{status.crashes}</b>crashed schedules</div>",
        "</div>",
        "<h2>Coverage curve</h2>",
        _coverage_svg(status.coverage_curve),
    ]

    if status.per_policy:
        parts.append("<h2>Per policy</h2>")
        parts.append(_table(
            ("policy", "schedules", "failing", "crashes",
             "distinct traces"),
            [(name, row.get("schedules", 0), row.get("failures", 0),
              row.get("crashes", 0), row.get("distinct_traces", 0))
             for name, row in sorted(status.per_policy.items())],
            caption="schedule verdicts by scheduling policy"))
    if status.per_backend:
        parts.append("<h2>Per backend</h2>")
        parts.append(_table(
            ("backend", "schedules", "failing", "crashes",
             "distinct traces"),
            [(name, row.get("schedules", 0), row.get("failures", 0),
              row.get("crashes", 0), row.get("distinct_traces", 0))
             for name, row in sorted(status.per_backend.items())],
            caption="identical columns across backends is the "
                    "bit-identity guarantee at work"))

    parts.append("<h2>Violations</h2>")
    if status.violations:
        parts.append(_table(
            ("report", "seed", "policy", "checker"),
            [(v.get("report"), v.get("seed"), v.get("policy"),
              v.get("checker")) for v in status.violations],
            caption="first sighting of each distinct report key; "
                    "replay with sharc run --seed SEED "
                    "--policy POLICY"))
    else:
        parts.append("<p>no violations observed</p>")

    if status.scenarios:
        parts.append("<h2>Fuzz scenarios</h2>")
        parts.append(_table(
            ("scenario", "family", "racy", "verdict", "schedules"),
            [(s.get("name"), s.get("family"),
              "yes" if s.get("racy") else "no", s.get("verdict"),
              s.get("schedules")) for s in status.scenarios],
            key_cols=2))

    if status.sweeps:
        parts.append("<h2>Sweeps</h2>")
        parts.append(_table(
            ("program", "checker", "backend", "schedules", "failing",
             "crashes", "distinct traces"),
            [(s.get("filename"), s.get("checker"), s.get("backend"),
              s.get("schedules"), s.get("failing"), s.get("crashes"),
              s.get("distinct_traces")) for s in status.sweeps],
            key_cols=3))

    if metrics is not None:
        rows = metrics.get("sites", {}).get("rows", [])
        if rows:
            parts.append("<h2>Hot check sites</h2>")
            parts.append(_table(
                ("site", "op") + ("cost",) + tuple(
                    f for f in sitestats.SITE_FIELDS if f != "cost"),
                [(f"{r['file']}:{r['line']} {r['lvalue']}", r["op"],
                  r["cost"], r["solo"], r["full"], r["range"],
                  r["elided"], r["locked"], r["miss"], r["conflicts"])
                 for r in rows],
                caption="per-site sums reconcile exactly with the "
                        "RunStats check counters",
                key_cols=2))

    parts.append("</body></html>")
    return "".join(parts)


def write_report(campaign_dir: str, out_path: str,
                 title: str = "SharC campaign report") -> str:
    """Builds the report for a campaign directory (``telemetry.jsonl``
    required, ``metrics.json`` folded in when present) and writes it;
    returns ``out_path``."""
    stream = os.path.join(campaign_dir, "telemetry.jsonl")
    if not os.path.exists(stream):
        raise FileNotFoundError(f"no telemetry.jsonl in {campaign_dir}")
    status = CampaignStatus.from_records(read_telemetry(stream))
    metrics = None
    metrics_path = os.path.join(campaign_dir, "metrics.json")
    if os.path.exists(metrics_path):
        with open(metrics_path, "r", encoding="utf-8") as handle:
            metrics = json.load(handle)
        if metrics.get("schema") != METRICS_SCHEMA:
            raise ValueError(f"{metrics_path}: schema "
                             f"{metrics.get('schema')!r} is not "
                             f"{METRICS_SCHEMA!r}; re-run the sweep")
    document = build_report(status, metrics, title=title)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(document)
    return out_path
