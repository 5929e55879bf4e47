"""Schedule shrinking: delta-debug a failing interleaving to a minimum.

A failing schedule found by the exploration driver is already
*replayable* (same seed + policy reproduces it bit-for-bit), but rarely
*readable*: a random walk that needed 60 context switches to trip a race
usually only needed two of them.  This module records the failing run's
context-switch trace, then runs ddmin (Zeller & Hildebrandt's
delta-debugging minimization) over the trace entries, replaying each
candidate sub-trace under :class:`repro.runtime.scheduler.ReplayPolicy`
and keeping it when it still reproduces the target report.

Replay of a *partial* trace is total: entries naming threads that are
not runnable are skipped, and once the trace is exhausted the lowest-tid
runnable thread runs to completion.  That closure property is what makes
ddmin's arbitrary subsets legal schedules, so the predicate is simply
"do the target report keys still appear, with no more context switches
than before".

The result — minimal trace, seed, policy, report keys, and the source
itself — is saved as a JSON *artifact*, a self-contained repro anyone
can replay with ``sharc explore --replay FILE`` (or
:func:`replay_artifact`) and get the identical report back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.explore.driver import DEFAULT_SHADOW_BYTES, _checked_program

#: :func:`load_artifact` refuses every other version.  Shrink and replay
#: run the sweep's one executor setting without a simulated I/O world,
#: so an artifact records neither.
ARTIFACT_VERSION = 2


@dataclass
class ShrinkResult:
    """A minimized failing schedule plus the trail that led to it."""

    seed: int
    policy: str
    checker: str
    #: the report keys the shrink preserved (the target of the search)
    report_keys: tuple[str, ...]
    #: full recorded trace of the original failing run
    original_trace: list[tuple[int, int]]
    #: the ddmin-minimal trace that still reproduces ``report_keys``
    trace: list[tuple[int, int]]
    #: replays attempted during the search
    replays: int = 0
    source: str = ""
    filename: str = "<input>"
    max_steps: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def original_switches(self) -> int:
        return max(0, len(self.original_trace) - 1)

    @property
    def switches(self) -> int:
        return max(0, len(self.trace) - 1)

    def render(self) -> str:
        lines = [
            f"shrunk schedule for seed={self.seed} "
            f"policy={self.policy} [{self.checker}]:",
            f"  context switches: {self.original_switches} -> "
            f"{self.switches}  ({self.replays} replays)",
            "  preserved reports:",
        ]
        for key in self.report_keys:
            lines.append(f"    {key}")
        lines.append("  minimal interleaving (tid x items):")
        lines.append("    " + " ".join(f"t{t}:{n}" for t, n in self.trace))
        return "\n".join(lines)


def _replay(checked, trace: Sequence[tuple[int, int]], *,
            checker: str, max_steps: int, obs_trace=None,
            backend: Optional[str] = None):
    from repro.runtime.interp import run_checked
    from repro.runtime.scheduler import ReplayPolicy

    return run_checked(checked, seed=0, policy=ReplayPolicy(list(trace)),
                       checker=checker, max_steps=max_steps,
                       shadow_bytes=DEFAULT_SHADOW_BYTES,
                       record_trace=True, trace=obs_trace,
                       backend=backend)


def _ddmin(entries: list, reproduces: Callable[[list], bool]) -> list:
    """Classic ddmin over a list: smallest sub-list (w.r.t. the chunking
    search) for which ``reproduces`` stays true.  ``reproduces(entries)``
    must already hold."""
    n = 2
    while len(entries) >= 2:
        chunk = max(1, len(entries) // n)
        starts = range(0, len(entries), chunk)
        reduced = False
        # Try each complement (drop one chunk) — the usual fast path.
        for start in starts:
            candidate = entries[:start] + entries[start + chunk:]
            if candidate and reproduces(candidate):
                entries = candidate
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if chunk == 1:
                break
            n = min(len(entries), n * 2)
    return entries


def shrink_failure(source: str, filename: str = "<input>", *,
                   seed: int, policy: str, checker: str = "sharc",
                   target_keys: Optional[Sequence[str]] = None,
                   max_steps: int = 200_000,
                   backend: Optional[str] = None) -> ShrinkResult:
    """Minimizes the failing schedule ``(seed, policy)`` of ``source``.

    ``target_keys`` selects which reports must survive shrinking; by
    default all report keys of the original run are preserved.  Raises
    ``ValueError`` if the (seed, policy) run does not fail, or if its
    recorded trace does not reproduce under replay (which would indicate
    nondeterminism — a bug worth hearing about loudly).
    """
    from repro.runtime.interp import run_checked

    checked = _checked_program(source, filename)
    original = run_checked(checked, seed=seed, policy=policy,
                           checker=checker, max_steps=max_steps,
                           shadow_bytes=DEFAULT_SHADOW_BYTES,
                           record_trace=True, backend=backend)
    if not original.reports:
        raise ValueError(
            f"seed={seed} policy={policy} does not fail; nothing to "
            "shrink")
    keys = tuple(sorted(target_keys if target_keys is not None
                        else original.report_counts))
    missing = [k for k in keys if k not in original.report_counts]
    if missing:
        raise ValueError(f"target keys not in the original run: "
                         f"{missing}")
    original_trace = list(original.trace or [])
    result = ShrinkResult(
        seed=seed, policy=policy, checker=checker, report_keys=keys,
        original_trace=original_trace, trace=list(original_trace),
        source=source, filename=filename, max_steps=max_steps)

    def reproduces(trace: list) -> bool:
        result.replays += 1
        replayed = _replay(checked, trace, checker=checker,
                           max_steps=max_steps, backend=backend)
        return all(k in replayed.report_counts for k in keys)

    if not reproduces(original_trace):
        raise ValueError(
            "recorded trace does not reproduce the report under replay "
            "— the run is not schedule-deterministic")
    result.trace = _ddmin(list(original_trace), reproduces)
    # Replay once more and adopt the *replayed* trace: dropping entries
    # often lets the serial tail absorb trailing bursts, so the trace
    # actually executed can be shorter still than the ddmin survivor.
    final = _replay(checked, result.trace, checker=checker,
                    max_steps=max_steps, backend=backend)
    executed = list(final.trace or [])
    if executed and all(k in final.report_counts for k in keys) and \
            len(executed) <= len(result.trace):
        result.trace = executed
    result.notes.append(
        f"switches {result.original_switches} -> {result.switches} "
        f"in {result.replays} replays")
    return result


# -- replayable artifacts ----------------------------------------------------


def save_artifact(result: ShrinkResult, path: str,
                  extra: Optional[dict] = None) -> None:
    """Writes a self-contained JSON repro for a shrunk schedule.

    ``extra`` merges additional top-level keys into the payload (the
    fuzzing pipeline attaches the scenario spec/oracle under ``"fuzz"``);
    reserved keys cannot be overridden."""
    payload = {
        "version": ARTIFACT_VERSION,
        "kind": "sharc-schedule",
        "filename": result.filename,
        "checker": result.checker,
        "seed": result.seed,
        "policy": result.policy,
        "report_keys": list(result.report_keys),
        "original_trace": [list(e) for e in result.original_trace],
        "trace": [list(e) for e in result.trace],
        "max_steps": result.max_steps,
        "source": result.source,
        "notes": list(result.notes),
    }
    if extra:
        clash = sorted(set(extra) & set(payload))
        if clash:
            raise ValueError(f"extra keys shadow artifact fields: "
                             f"{clash}")
        payload.update(extra)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def load_artifact(path: str) -> dict:
    with open(path) as f:
        payload = json.load(f)
    if payload.get("kind") != "sharc-schedule":
        raise ValueError(f"{path}: not a schedule artifact")
    if payload.get("version") != ARTIFACT_VERSION:
        raise ValueError(f"{path}: unsupported artifact version "
                         f"{payload.get('version')!r}")
    return payload


def replay_artifact(payload: dict, obs_trace=None,
                    backend: Optional[str] = None):
    """Replays a loaded artifact's minimal trace and returns the
    :class:`repro.runtime.interp.RunResult`.  ``obs_trace`` (a
    :class:`repro.obs.events.TraceConfig`) additionally records
    structured events during the replay, so a shrunk schedule can be
    rendered as a Perfetto timeline (``sharc trace artifact.json``).
    ``backend`` picks the executor — artifacts are backend-invariant, so
    the corpus regression suite replays each one under both."""
    checked = _checked_program(payload["source"],
                               payload.get("filename", "<artifact>"))
    trace = [tuple(e) for e in payload["trace"]]
    return _replay(checked, trace, checker=payload.get("checker", "sharc"),
                   max_steps=payload.get("max_steps", 200_000),
                   obs_trace=obs_trace, backend=backend)
