"""Replay frontend: artifacts and recorded traces back into schedules.

Two sources of pinned schedules exist in the repo: shrunk schedule
artifacts (:func:`repro.explore.shrink.save_artifact`) and recorded
observability traces (``sharc run --trace``, whose scheduler bursts are
``sched/run`` events carrying the executed burst lengths).  This module
converts both back into the ``(tid, items)`` trace lists that
:class:`~repro.explore.policy.ReplayPolicy` consumes, so a saved
disagreement — or any interesting production run — becomes a
deterministic regression.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from repro.explore.shrink import ShrinkResult, load_artifact, shrink_failure


def seed_from_artifact(payload: dict) -> tuple[int, str]:
    """The ``(seed, policy)`` coordinates an artifact was shrunk at.

    Guards the two historical foot-guns: JSON round-trips ``True`` as a
    bool that ``isinstance(x, int)`` happily accepts (a bool seed would
    silently replay seed 1), and a numeric policy would later fail
    ``make_policy`` with a confusing error far from the load site."""
    seed = payload.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"artifact seed must be an int, got {seed!r}")
    policy = payload.get("policy")
    if not isinstance(policy, str) or not policy:
        raise ValueError(
            f"artifact policy must be a non-empty string, got {policy!r}")
    return seed, policy


def reshrink_artifact(payload: dict, *,
                      backend: Optional[str] = None) -> ShrinkResult:
    """Re-runs ddmin from an artifact's own coordinates.

    Because the shrinker is deterministic (ReplayPolicy over the saved
    trace, fixed ddmin order), shrinking is a *fixpoint*: re-shrinking
    an already-shrunk artifact must reproduce the same minimized trace,
    switch count and trace hash.  The round-trip property test leans on
    this to catch save/load asymmetries."""
    seed, policy = seed_from_artifact(payload)
    return shrink_failure(
        payload["source"], payload.get("filename", "<artifact>"),
        seed=seed, policy=policy,
        checker=payload.get("checker", "sharc"),
        target_keys=payload.get("report_keys"),
        max_steps=payload.get("max_steps"),
        backend=backend)


def schedule_from_events(events: Sequence) -> list[tuple[int, int]]:
    """Extracts the executed schedule from obs events.

    The cooperative scheduler emits one ``sched/run`` event per burst
    with ``args["items"]`` holding how many operations actually ran;
    consecutive bursts of the same thread merge into one replay entry
    (ReplayPolicy treats them identically and shorter traces shrink
    better)."""
    trace: list[tuple[int, int]] = []
    for event in events:
        if event.cat != "sched" or event.name != "run":
            continue
        items = int((event.args or {}).get("items", 0))
        if items <= 0:
            continue
        if trace and trace[-1][0] == event.tid:
            trace[-1] = (event.tid, trace[-1][1] + items)
        else:
            trace.append((event.tid, items))
    return trace


def schedule_from_trace_file(path: str) -> list[tuple[int, int]]:
    """Loads a recorded trace (JSONL preferred; Chrome JSON accepted)
    and returns its ``(tid, items)`` schedule."""
    from repro.obs.events import Event

    if path.endswith(".jsonl"):
        from repro.obs.export import read_jsonl

        _, events, _ = read_jsonl(path)
        return schedule_from_events(events)
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict) and data.get("kind") == "sharc-schedule":
        # A schedule artifact also "is" a trace of sorts; accept it.
        return [tuple(entry) for entry in data.get("trace", [])]
    # Chrome trace export: traceEvents with pid/tid/ts/dur/args.
    rows = data.get("traceEvents", []) if isinstance(data, dict) else data
    events = []
    for row in rows:
        if not isinstance(row, dict) or row.get("ph") not in ("X", None):
            continue
        events.append(Event(
            cat=row.get("cat", ""), name=row.get("name", ""),
            tid=int(row.get("tid", 0)), ts=int(row.get("ts", 0)),
            dur=int(row.get("dur", 0)), args=row.get("args") or {}))
    return schedule_from_events(events)


def replay_trace_file(source: str, trace_path: str, *,
                      filename: str = "<input>",
                      checker: str = "sharc",
                      max_steps: int = 200_000,
                      backend: Optional[str] = None):
    """Re-executes ``source`` pinned to a recorded trace's schedule, by
    wrapping the extracted schedule in a synthetic artifact payload so
    the pinned-replay path is shared with shrunk artifacts."""
    from repro.explore.shrink import replay_artifact

    trace = schedule_from_trace_file(trace_path)
    if not trace:
        raise ValueError(f"no sched/run events in {trace_path}")
    payload = {"source": source, "filename": filename,
               "checker": checker, "trace": trace,
               "max_steps": max_steps}
    return replay_artifact(payload, backend=backend)


__all__ = [
    "load_artifact", "replay_trace_file", "reshrink_artifact",
    "schedule_from_events", "schedule_from_trace_file",
    "seed_from_artifact",
]
