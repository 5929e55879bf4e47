"""Command-line interface: the ``sharc`` tool.

Subcommands mirror how the paper's tool is used:

- ``sharc check FILE``   — parse, infer, type-check; print diagnostics
  and SCAST suggestions (exit 1 on errors);
- ``sharc analyze FILE`` — the static lockset view: inferred modes per
  global/formal, must-held lockset per shared location, locked(l)
  refinements, and compile-time ``static-race`` findings; ``--json``
  emits a versioned machine-readable payload and ``--fail-on-race``
  turns findings into exit code 2 (the CI lint gate);
- ``sharc infer FILE``   — print the program with all inferred
  qualifiers made explicit (the paper's Figure 2 view);
- ``sharc run FILE``     — check then execute under the dynamic checker,
  printing conflict reports in the paper's format (``--profile`` adds
  phase timers and steps/sec throughput);
- ``sharc table1``       — regenerate the evaluation table;
- ``sharc bench``        — interpreter throughput over the Table 1
  workloads; writes ``BENCH_interp.json``;
- ``sharc ablate-rc`` / ``sharc ablate-annot`` — the ablations;
- ``sharc compare-eraser`` — SharC vs the lockset baseline (§6.2);
- ``sharc explore``      — sweep a program across seeds x scheduling
  policies hunting schedule-dependent races, report coverage and
  first-failure replay seeds, optionally delta-debug a failure to a
  minimal interleaving (``--shrink``) or replay a saved one
  (``--replay``); ``--metrics-out`` writes a schema-validated
  ``metrics.json`` aggregating the sweep;
- ``sharc campaign DIR`` — the fleet-scale tier above ``explore``: a
  resumable sharded sweep over many workloads with batched worker IPC,
  an on-disk deduplicating trace corpus, and coverage-guided budget
  allocation; kill it any time and ``--resume DIR`` continues from the
  last completed shard with a bit-identical final summary;
- ``sharc status DIR``   — live (or final) view of an explore/fuzz
  campaign from its crash-safe ``telemetry.jsonl`` stream
  (``--watch`` keeps redrawing, ``--json`` emits the folded status);
- ``sharc report DIR``   — render a campaign into a self-contained
  static HTML report (coverage curve, per-policy tables, violations,
  hot check sites) with zero external dependencies;
- ``sharc trace``        — inspect a saved trace (``.jsonl``) or replay
  a shrunk-schedule artifact into a timeline; ``--out`` converts to
  Chrome trace-event JSON (open in Perfetto / ``chrome://tracing``).

``sharc run --trace-out out.json`` records the run's structured events
(:mod:`repro.obs`) — Perfetto JSON by default, JSON Lines when the path
ends in ``.jsonl``; ``--trace-filter cat,...`` restricts categories.
"""

from __future__ import annotations

import argparse
import sys

from repro.sharc.checker import check_source
from repro.runtime.interp import run_checked


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _trace_config(args: argparse.Namespace):
    """Builds a TraceConfig from --trace-out/--trace-filter, or None."""
    if not getattr(args, "trace_out", None):
        return None
    from repro.obs import TraceConfig, parse_filter

    categories = None
    if getattr(args, "trace_filter", None):
        categories = parse_filter(args.trace_filter)
    return TraceConfig(categories=categories)


def _write_trace(path: str, events, reports, thread_names,
                 meta: dict) -> None:
    """Writes events as JSONL (``.jsonl``) or Chrome trace JSON."""
    from repro.obs import write_chrome_trace, write_jsonl

    if path.endswith(".jsonl"):
        write_jsonl(path, events, reports, thread_names, meta)
    else:
        write_chrome_trace(path, events, thread_names, meta)
    print(f"trace written to {path} ({len(events)} events)")


def cmd_check(args: argparse.Namespace) -> int:
    checked = check_source(_read(args.file), args.file)
    output = checked.render_diagnostics()
    if output:
        print(output)
    if checked.ok:
        stats = checked.check_stats
        print(f"ok: {stats.read_checks} read checks, "
              f"{stats.write_checks} write checks, "
              f"{stats.lock_checks} lock checks, "
              f"{stats.oneref_checks} oneref checks")
    return 0 if checked.ok else 1


#: version tag of the ``sharc analyze --json`` payload
ANALYZE_SCHEMA = "sharc-analyze/3"


def _mode_text(qt) -> str | None:
    return str(qt.mode) if qt is not None and qt.mode is not None \
        else None


def analyze_payload(checked) -> dict:
    """The machine-readable ``sharc analyze`` view of one checked
    program (schema :data:`ANALYZE_SCHEMA`)."""
    ls = checked.lockset_result
    program = checked.program
    formals = {}
    for func in program.functions():
        ftype = func.qtype.base
        formals[func.name] = [
            {"name": pname, "mode": _mode_text(ptype)}
            for pname, ptype in zip(func.param_names, ftype.params)]
    return {
        "schema": ANALYZE_SCHEMA,
        "file": checked.filename,
        "ok": checked.ok,
        "errors": [str(d) for d in checked.errors],
        "globals": [{"name": g.name, "mode": _mode_text(g.qtype)}
                    for g in program.globals()],
        "formals": formals,
        "locations": [
            {"location": info.text,
             "lockset": sorted(info.lockset),
             "tainted": info.tainted,
             "sites": len(info.sites),
             "reads": info.reads,
             "writes": info.writes}
            for _, info in sorted(ls.locations.items())],
        "refinements": [
            {"location": r.text, "lock": r.lock, "sites": r.sites,
             "reads": r.reads, "writes": r.writes,
             "loc": str(r.first_loc)}
            for r in ls.refinements],
        "static_races": [
            {"key": f"static-race {d.message_key}",
             "message": d.message, "loc": str(d.loc),
             "notes": list(d.notes)}
            for d in ls.races],
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    import json

    checked = check_source(_read(args.file), args.file)
    ls = checked.lockset_result
    if args.json:
        payload = analyze_payload(checked)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
            print(f"analysis written to {args.out}")
        else:
            print(json.dumps(payload, indent=2))
    else:
        if not checked.ok:
            print(checked.render_diagnostics())
        print("== inferred modes ==")
        for g in checked.program.globals():
            print(f"  global {g.name}: {_mode_text(g.qtype) or '-'}")
        for func in checked.program.functions():
            params = ", ".join(
                f"{pname}: {_mode_text(ptype) or '-'}"
                for pname, ptype in zip(func.param_names,
                                        func.qtype.base.params))
            print(f"  fn {func.name}({params})")
        if ls.locations:
            print("== shared locations ==")
            for _, info in sorted(ls.locations.items()):
                locks = ("{" + ", ".join(sorted(info.lockset)) + "}"
                         if info.lockset else "{}")
                taint = " [tainted]" if info.tainted else ""
                print(f"  {info.text}: lockset={locks} "
                      f"{len(info.sites)} site(s), {info.reads} read / "
                      f"{info.writes} write{taint}")
        if ls.refinements:
            print("== refinements ==")
            for r in ls.refinements:
                print(f"  {r.render()}")
        if ls.races:
            print("== static races ==")
            for d in ls.races:
                print(str(d))
        print(ls.summary())
    if not checked.ok:
        return 1
    if args.fail_on_race and ls.races:
        return 2
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    checked = check_source(_read(args.file), args.file)
    print(checked.inferred_source())
    return 0 if checked.ok else 1


def cmd_run(args: argparse.Namespace) -> int:
    if args.profile and args.trace_out:
        print("run: --trace-out is not supported with --profile",
              file=sys.stderr)
        return 2
    try:
        trace_config = _trace_config(args)
    except ValueError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    if args.profile:
        from repro.errors import SharcError
        from repro.runtime.profile import Profiler, profile_source

        profiler = Profiler()
        with profiler.phase("read"):
            source = _read(args.file)
        try:
            report = profile_source(source, args.file, seed=args.seed,
                                    rc_scheme="lp" if args.rc == "off"
                                    else args.rc,
                                    max_steps=args.max_steps,
                                    checkelim=not args.no_checkelim,
                                    lockset=not args.no_lockset,
                                    backend=args.backend,
                                    profiler=profiler)
        except SharcError as exc:
            print(exc)
            return 1
        print(report.render())
        return 0 if report.reports == 0 else 1
    checked = check_source(_read(args.file), args.file)
    if not checked.ok:
        print(checked.render_diagnostics())
        return 1
    result = run_checked(checked, seed=args.seed,
                         rc_scheme=args.rc,
                         checker=getattr(args, "checker", "sharc"),
                         max_steps=args.max_steps,
                         checkelim=not args.no_checkelim,
                         lockset=not args.no_lockset,
                         trace=trace_config, backend=args.backend)
    if result.output:
        print(result.output, end="")
    for report in result.reports:
        print(report.render())
    if result.deadlock:
        print(f"deadlock: {result.deadlock}")
    if result.error:
        print(f"runtime error: {result.error}")
    if args.stats:
        print(result.stats.summary())
    if args.trace_out:
        _write_trace(args.trace_out, result.events or [], result.reports,
                     result.thread_names,
                     meta={"file": args.file, "seed": str(args.seed)})
    return 0 if result.clean else 1


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.bench import table1
    argv = ["--json"] if args.json else []
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    return table1.main(argv)


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import interp_bench
    argv: list[str] = []
    if args.json:
        argv.append("--json")
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    if args.out is not None:
        argv += ["--out", args.out]
    if args.workloads:
        argv += ["--workloads", *args.workloads]
    if args.no_checkelim:
        argv.append("--no-checkelim")
    if args.no_lockset:
        argv.append("--no-lockset")
    if args.compare is not None:
        argv += ["--compare", args.compare,
                 "--compare-threshold", str(args.compare_threshold),
                 "--compiled-floor", str(args.compiled_floor)]
    if args.backend is not None:
        argv += ["--backend", args.backend]
    return interp_bench.main(argv)


def cmd_ablate_rc(_args: argparse.Namespace) -> int:
    from repro.bench import ablation_rc
    return ablation_rc.main()


def cmd_ablate_annot(_args: argparse.Namespace) -> int:
    from repro.bench import ablation_annot
    return ablation_annot.main()


def cmd_compare_eraser(_args: argparse.Namespace) -> int:
    from repro.bench import comparison_eraser
    return comparison_eraser.main()


def cmd_explore(args: argparse.Namespace) -> int:
    import json

    from repro.explore import (
        differential_sweep, explore_source, load_artifact, racy_c_program,
        replay_artifact, save_artifact, shrink_failure,
    )

    if args.replay:
        payload = load_artifact(args.replay)
        result = replay_artifact(payload)
        print(f"replayed {payload['filename']} "
              f"(seed={payload['seed']} policy={payload['policy']} "
              f"[{payload['checker']}]):")
        for key in sorted(result.report_counts):
            print(f"  {key} x{result.report_counts[key]}")
        expected = set(payload["report_keys"])
        ok = expected <= set(result.report_counts)
        print("reproduced the saved report" if ok
              else "DID NOT reproduce the saved report")
        return 0 if ok else 1

    spec = None
    if args.gen is not None:
        source, spec = racy_c_program(args.gen, kind=args.gen_kind)
        filename = f"<racy gen={args.gen} kind={args.gen_kind}>"
        if args.emit_source:
            print(source)
    elif args.file:
        source, filename = _read(args.file), args.file
    else:
        print("explore: need FILE or --gen SEED", file=sys.stderr)
        return 2

    policies = tuple(args.policy) if args.policy else ("random", "pct",
                                                       "pb")
    telemetry = None
    if args.telemetry_out:
        telemetry = _open_telemetry(args.telemetry_out,
                                    campaign=filename)

    from repro.obs import ProgressPrinter

    printer = ProgressPrinter(quiet=args.quiet or args.json)

    def progress(done: int, total: int, partial) -> None:
        printer.update(
            f"  {done}/{total} schedules, "
            f"{partial.distinct_traces} distinct traces, "
            f"{len(partial.failures)} failing")

    common = dict(seeds=args.seeds, seed_start=args.seed_start,
                  policies=policies, jobs=args.jobs,
                  max_steps=args.max_steps, backend=args.backend,
                  telemetry=telemetry, progress=progress)
    summary = sweep = None
    sweeps: list = []
    interrupted = False
    try:
        if args.checker == "both":
            summary = differential_sweep(source, filename, **common)
            sweep = summary.sharc
            sweeps = [summary.sharc, summary.eraser]
            interrupted = (summary.sharc.interrupted
                           or summary.eraser.interrupted)
        else:
            sweep = explore_source(source, filename,
                                   checker=args.checker, **common)
            sweeps = [sweep]
            interrupted = sweep.interrupted
    except KeyboardInterrupt:
        # An interrupt outside the sweep loop (static check, policy
        # resolution, pool teardown) — the sweeps list holds whatever
        # completed; partial metrics/telemetry still get flushed below.
        interrupted = True
    finally:
        printer.close()

    if sweep is not None:
        view = summary if args.checker == "both" else sweep
        print(json.dumps(view.as_dict(), indent=2) if args.json
              else view.render())

    if args.metrics_out:
        from repro.obs import MetricsRegistry, write_metrics

        registry = MetricsRegistry()
        for one in sweeps:
            registry.record_sweep(one)
        if args.checker == "both" and summary is not None:
            registry.record_differential(summary)
        write_metrics(registry, args.metrics_out)
        tag = " (partial: interrupted)" if interrupted else ""
        print(f"metrics written to {args.metrics_out}{tag}")

    if telemetry is not None:
        telemetry.final(interrupted=interrupted)
        print(f"telemetry written to {args.telemetry_out}")

    if args.sites and sweep is not None and not args.json:
        from repro.obs import merge_sites, render_hot_sites

        sites: dict = {}
        for one in sweeps:
            merge_sites(sites, one.site_totals)
        print(render_hot_sites(sites, source=source,
                               limit=args.sites))

    if interrupted and sweep is None:
        print("explore: interrupted before any schedule completed",
              file=sys.stderr)
        return 130

    found = None
    if spec is not None:
        hits = sorted(k for k in sweep.first_failures
                      if spec.matches_key(k))
        if args.checker == "both":
            hits = sorted(set(hits) | {
                k for k in summary.eraser.first_failures
                if spec.matches_key(k)})
        if hits:
            first = (sweep.first_failures.get(hits[0])
                     or summary.eraser.first_failures[hits[0]])
            print(f"injected race ({spec.kind} on {spec.global_name}) "
                  f"FOUND: {', '.join(hits)}")
            print(f"  replay with {first.replay_coords()}")
            found = first
        else:
            print(f"injected race ({spec.kind} on {spec.global_name}) "
                  "NOT found in this sweep")

    if args.shrink:
        target = found or sweep.first_failure
        if target is None:
            print("nothing to shrink: no failing schedule found")
            return 1
        checker = target.checker
        keys = ([k for k in target.report_keys if spec.matches_key(k)]
                if spec is not None else None) or None
        result = shrink_failure(source, filename, seed=target.seed,
                                policy=target.policy, checker=checker,
                                target_keys=keys,
                                max_steps=args.max_steps)
        print(result.render())
        if args.out:
            save_artifact(result, args.out)
            print(f"replayable artifact written to {args.out}")

    if spec is not None:
        return 0 if found is not None else 1
    return 0 if not sweep.failures else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.explore.campaign import (
        CampaignConfig, CampaignTarget, run_campaign,
    )
    from repro.obs import ProgressPrinter, TelemetryWriter

    if args.resume:
        if args.file or args.workload:
            print("campaign: --resume reads targets from the campaign "
                  "directory; don't pass FILE/--workload", file=sys.stderr)
            return 2
        if not os.path.exists(os.path.join(args.dir, "campaign.json")):
            print(f"campaign: no campaign manifest in {args.dir}",
                  file=sys.stderr)
            return 2
        targets = None
        config = CampaignConfig(jobs=args.jobs)
    else:
        targets = []
        try:
            for name in args.workload or ():
                targets.append(CampaignTarget.from_workload(name))
            for path in args.file or ():
                targets.append(CampaignTarget.from_file(
                    path, max_steps=args.max_steps))
        except (OSError, KeyError, ValueError) as exc:
            print(f"campaign: {exc}", file=sys.stderr)
            return 2
        if not targets:
            print("campaign: need at least one FILE or --workload "
                  "(or --resume)", file=sys.stderr)
            return 2
        labels = [t.label for t in targets]
        if len(set(labels)) != len(labels):
            print(f"campaign: duplicate target labels: {labels}",
                  file=sys.stderr)
            return 2
        policies = (tuple(args.policy) if args.policy
                    else ("random", "pct", "pb"))
        config = CampaignConfig(
            budget=args.budget, shard_size=args.shard_size,
            jobs=args.jobs, policies=policies, checker=args.checker,
            backend=args.backend, sites_every=args.sites_every,
            seed_start=args.seed_start)

    os.makedirs(args.dir, exist_ok=True)
    telemetry = TelemetryWriter(
        os.path.join(args.dir, "telemetry.jsonl"),
        campaign=f"campaign:{args.dir}")

    printer = ProgressPrinter(quiet=args.quiet or args.json)

    def progress(done: int, budget: int, partial) -> None:
        printer.update(
            f"  {done}/{budget} schedules in "
            f"{partial.shards_done} shards, "
            f"{partial.distinct_traces} distinct traces, "
            f"{len(partial.failures)} failing")

    try:
        summary = run_campaign(targets, args.dir, config=config,
                               resume=args.resume,
                               stop_after=args.stop_after,
                               telemetry=telemetry, progress=progress)
    except ValueError as exc:
        printer.close()
        telemetry.final(interrupted=True)
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    finally:
        printer.close()
    telemetry.final(interrupted=summary.interrupted)

    print(json.dumps(summary.as_dict(), indent=2) if args.json
          else summary.render())
    if summary.complete and not args.json:
        print(f"summary written to "
              f"{os.path.join(args.dir, 'summary.json')}")
    if summary.interrupted:
        return 130
    return 1 if summary.failures else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from repro.fuzz import (
        FuzzConfig, fuzz_campaign, replay_corpus, validate_fuzz_report,
    )

    if args.replay_corpus:
        backends = ((args.backend,) if args.backend
                    else ("interp", "compiled"))
        rows = replay_corpus(args.replay_corpus, backends=backends)
        bad = [r for r in rows if not r["ok"]]
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            for row in rows:
                mark = "ok" if row["ok"] else "FAIL"
                print(f"  [{mark}] {row['artifact']} "
                      f"({row['backend']})")
                for problem in row["problems"]:
                    print(f"        {problem}")
            print(f"corpus: {len(rows)} replays, {len(bad)} failing")
        return 1 if bad or not rows else 0

    policies = tuple(args.policy) if args.policy else ("random", "pct")
    config = FuzzConfig(
        budget=args.budget, seeds=args.seeds,
        seed_start=args.seed_start, policies=policies,
        gen_seed=args.gen_seed, jobs=args.jobs,
        max_steps=args.max_steps, racy_fraction=args.racy_fraction,
        shrink=not args.no_shrink, out_dir=args.out,
        formal_seeds=args.formal_seeds)
    telemetry = None
    if args.telemetry_out:
        telemetry = _open_telemetry(args.telemetry_out,
                                    campaign="fuzz")
    progress = None if args.json else print
    try:
        report = fuzz_campaign(config, progress=progress,
                               telemetry=telemetry)
    except KeyboardInterrupt:
        if telemetry is not None:
            telemetry.final(interrupted=True)
        print("fuzz: interrupted", file=sys.stderr)
        return 130
    if telemetry is not None:
        telemetry.final()
        print(f"telemetry written to {args.telemetry_out}")
    payload = report.as_dict()
    problems = validate_fuzz_report(payload)
    if problems:  # pragma: no cover - would be a FuzzReport bug
        print("invalid fuzz report: " + "; ".join(problems),
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(report.render())
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"fuzz report written to {args.report_out}")
    return 0 if report.ok else 1


def _telemetry_path(target: str) -> str:
    """Resolves a campaign DIR (or a direct stream path) to its
    ``telemetry.jsonl``."""
    import os

    if os.path.isdir(target):
        return os.path.join(target, "telemetry.jsonl")
    return target


def _open_telemetry(target: str, campaign: str):
    """Opens a :class:`TelemetryWriter` for ``--telemetry-out``:
    ``FILE.jsonl`` streams there directly, anything else is a campaign
    directory (created as needed) holding ``telemetry.jsonl`` — the
    layout ``sharc status DIR`` and ``sharc report DIR`` expect."""
    import os

    from repro.obs import TelemetryWriter

    if target.endswith(".jsonl"):
        parent = os.path.dirname(target)
        if parent:
            os.makedirs(parent, exist_ok=True)
        path = target
    else:
        os.makedirs(target, exist_ok=True)
        path = os.path.join(target, "telemetry.jsonl")
    return TelemetryWriter(path, campaign=campaign)


def cmd_status(args: argparse.Namespace) -> int:
    import json
    import os
    import time

    from repro.obs import (
        CampaignStatus, supports_live, validate_status,
    )

    path = _telemetry_path(args.dir)
    if not os.path.exists(path):
        print(f"status: no telemetry stream at {path}",
              file=sys.stderr)
        return 2

    if args.json:
        payload = CampaignStatus.from_file(path).as_dict()
        problems = validate_status(payload)
        if problems:
            print("status: invalid telemetry stream: "
                  + "; ".join(problems), file=sys.stderr)
            return 2
        print(json.dumps(payload, indent=2))
        return 0

    if not args.watch:
        print(CampaignStatus.from_file(path).render())
        return 0

    # --watch: poll the stream until the campaign writes its final
    # record.  On a live terminal the view redraws in place; piped
    # output gets one plain snapshot per change.
    live = supports_live(sys.stdout)
    last_lines = 0
    last_render = ""
    try:
        while True:
            status = CampaignStatus.from_file(path)
            rendered = status.render()
            if live:
                if last_lines:
                    sys.stdout.write(f"\x1b[{last_lines}A\x1b[J")
                sys.stdout.write(rendered + "\n")
                sys.stdout.flush()
                last_lines = rendered.count("\n") + 1
            elif rendered != last_render:
                print(rendered)
                last_render = rendered
            if status.finished:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        if live and last_lines:
            sys.stdout.write("\n")
        return 130


def cmd_report(args: argparse.Namespace) -> int:
    import os

    from repro.obs import write_report

    out = args.out or os.path.join(args.dir, "report.html")
    try:
        path = write_report(args.dir, out, title=args.title)
    except (FileNotFoundError, ValueError) as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    print(f"report written to {path}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Inspects / converts a saved trace or schedule artifact.

    Accepts either a JSONL trace written by ``sharc run --trace-out`` or
    a ``sharc-schedule`` artifact written by ``sharc explore --shrink
    --out`` — the latter is replayed with tracing enabled, turning the
    minimized interleaving into a timeline.
    """
    import json

    from repro.obs import (
        TraceConfig, read_jsonl, render_summary,
    )
    from repro.sharc.reports import Report

    payload = None
    try:
        with open(args.artifact, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError):
        payload = None
    if isinstance(payload, dict) and payload.get("kind") == \
            "sharc-schedule":
        from repro.explore import load_artifact, replay_artifact

        artifact = load_artifact(args.artifact)
        result = replay_artifact(artifact, obs_trace=TraceConfig())
        events = result.events or []
        thread_names = result.thread_names
        reports = list(result.reports)
        print(f"replayed schedule artifact {artifact['filename']} "
              f"(seed={artifact['seed']} policy={artifact['policy']} "
              f"[{artifact['checker']}])")
    elif isinstance(payload, dict) and "traceEvents" in payload:
        print(f"{args.artifact} is already a Chrome trace "
              f"({len(payload['traceEvents'])} entries); open it in "
              "Perfetto or chrome://tracing")
        return 0
    else:
        try:
            header, events, report_dicts = read_jsonl(args.artifact)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"trace: {exc}", file=sys.stderr)
            return 2
        thread_names = {int(tid): name for tid, name in
                        (header.get("threads") or {}).items()}
        reports = [Report.from_dict(r) for r in report_dicts]

    print(render_summary(events, thread_names, limit=args.limit))
    for report in reports:
        print(report.render())
    if args.out:
        _write_trace(args.out, events, reports, thread_names,
                     meta={"source": args.artifact})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharc",
        description="SharC reproduction: check data sharing strategies "
                    "for multithreaded C (PLDI 2008)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="static check a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "analyze",
        help="static analysis view: inferred modes, locksets, locked(l) "
             "refinements and compile-time race findings")
    p.add_argument("file")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (schema "
                        f"{ANALYZE_SCHEMA})")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="with --json: write the payload to FILE")
    p.add_argument("--fail-on-race", action="store_true",
                   help="exit 2 when any static race is found "
                        "(the CI lint gate)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("infer", help="show inferred qualifiers")
    p.add_argument("file")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("run", help="check and execute a file")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rc", choices=("lp", "naive", "off"), default="lp")
    p.add_argument("--checker", choices=("sharc", "eraser"),
                   default="sharc")
    p.add_argument("--max-steps", type=int, default=2_000_000)
    p.add_argument("--backend", choices=("interp", "compiled"),
                   default=None,
                   help="executor: tree-walking interpreter or the "
                        "compiled backend (bit-identical by seed; "
                        "default $SHARC_BACKEND or interp)")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--profile", action="store_true",
                   help="time each pipeline phase, run an uninstrumented "
                        "baseline too, and report steps/sec")
    p.add_argument("--no-checkelim", action="store_true",
                   help="ablation: disable the static check eliminator "
                        "(identical reports/steps, more full checks)")
    p.add_argument("--no-lockset", action="store_true",
                   help="ablation: disable the locked(l) lockset "
                        "refinement (identical reports/steps, more "
                        "shadow walks)")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="record structured runtime events: Chrome "
                        "trace-event JSON (Perfetto), or JSON Lines "
                        "when FILE ends in .jsonl")
    p.add_argument("--trace-filter", default=None, metavar="CATS",
                   help="comma-separated event categories to record "
                        "(sched,check,conflict,lock,rc,scast,thread)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("table1", help="regenerate Table 1")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("bench",
                       help="interpreter throughput benchmark "
                            "(writes BENCH_interp.json)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--workloads", nargs="*", default=None)
    p.add_argument("--no-checkelim", action="store_true",
                   help="ablation: disable the static check eliminator")
    p.add_argument("--no-lockset", action="store_true",
                   help="ablation: disable the locked(l) lockset "
                        "refinement")
    p.add_argument("--compare", default=None, metavar="OLD.json",
                   help="diff against a previous BENCH_interp.json "
                        "(schema /1 through /5); exit 3 on regression")
    p.add_argument("--compare-threshold", type=float, default=0.5,
                   help="allowed fractional steps/sec drop for "
                        "--compare (default 0.5)")
    p.add_argument("--compiled-floor", type=float, default=0.0,
                   metavar="N",
                   help="with --compare: also fail unless compiled "
                        "throughput is at least N times the old "
                        "payload's interp baseline (0 = off)")
    p.add_argument("--backend", choices=("interp", "compiled", "both"),
                   default=None,
                   help="executor to time (default both: the table "
                        "carries one column per backend)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ablate-rc", help="refcounting ablation")
    p.set_defaults(func=cmd_ablate_rc)

    p = sub.add_parser("ablate-annot", help="annotation sweep ablation")
    p.set_defaults(func=cmd_ablate_annot)

    p = sub.add_parser("compare-eraser",
                       help="SharC vs Eraser-style lockset baseline")
    p.set_defaults(func=cmd_compare_eraser)

    p = sub.add_parser(
        "explore",
        help="sweep seeds x scheduling policies hunting "
             "schedule-dependent races")
    p.add_argument("file", nargs="?", default=None,
                   help="mini-C source to explore (or use --gen)")
    p.add_argument("--gen", type=int, default=None, metavar="SEED",
                   help="explore a racy-by-construction generated "
                        "program instead of a file; exit 0 iff the "
                        "injected race is found")
    p.add_argument("--gen-kind", choices=("write-write", "lock-elision"),
                   default="write-write")
    p.add_argument("--emit-source", action="store_true",
                   help="print the generated program before exploring")
    p.add_argument("--seeds", type=int, default=50,
                   help="schedules per policy (default 50)")
    p.add_argument("--seed-start", type=int, default=0)
    p.add_argument("--policy", action="append", default=None,
                   metavar="SPEC",
                   help="scheduling policy spec, repeatable (random, "
                        "round-robin, serial, pct[:D[:H]], pb[:K]); "
                        "default: random, pct, pb")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the sweep")
    p.add_argument("--checker", choices=("sharc", "eraser", "both"),
                   default="sharc",
                   help="'both' runs a differential sweep and reports "
                        "checker disagreements as replay seeds")
    p.add_argument("--shrink", action="store_true",
                   help="delta-debug the first failure to a minimal "
                        "interleaving")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the shrunk schedule as a replayable "
                        "JSON artifact")
    p.add_argument("--replay", default=None, metavar="FILE",
                   help="replay a saved schedule artifact and verify it "
                        "still reproduces its report")
    p.add_argument("--max-steps", type=int, default=200_000)
    p.add_argument("--backend", choices=("interp", "compiled"),
                   default=None,
                   help="executor for every schedule (outcomes are "
                        "backend-invariant; compiled sweeps faster)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write a schema-validated metrics.json "
                        "aggregating the sweep (partial registry still "
                        "written on Ctrl-C)")
    p.add_argument("--telemetry-out", default=None, metavar="DEST",
                   help="stream crash-safe campaign telemetry "
                        "(heartbeats, coverage, violations) to DEST — "
                        "a .jsonl file, or a campaign directory that "
                        "gets telemetry.jsonl; tail it live with "
                        "'sharc status'")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the live progress line")
    p.add_argument("--sites", type=int, default=0, metavar="N",
                   help="print the N hottest check sites with their "
                        "per-site cost attribution after the sweep")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser(
        "campaign",
        help="resumable sharded sweep over workloads/files: batched "
             "worker IPC, on-disk deduplicating trace corpus, "
             "coverage-guided budget allocation")
    p.add_argument("dir",
                   help="campaign directory (queue, corpus, telemetry, "
                        "summary all live here)")
    p.add_argument("file", nargs="*", default=None,
                   help="mini-C sources to sweep")
    p.add_argument("--workload", action="append", default=None,
                   metavar="NAME",
                   help="sweep a Table 1 workload model by name, "
                        "repeatable (pfscan, aget, pbzip2, dillo, "
                        "fftw, stunnel)")
    p.add_argument("--budget", type=int, default=1000,
                   help="total schedules to spend across all "
                        "(target, policy) cells (default 1000)")
    p.add_argument("--shard-size", type=int, default=32,
                   help="schedules per shard — the unit of leasing, "
                        "durability, and coverage feedback "
                        "(default 32)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (never affects results, "
                        "only wall-clock; resume may change it)")
    p.add_argument("--policy", action="append", default=None,
                   metavar="SPEC",
                   help="scheduling policy spec, repeatable; "
                        "default: random, pct, pb")
    p.add_argument("--checker", choices=("sharc", "eraser"),
                   default="sharc")
    p.add_argument("--backend", choices=("interp", "compiled"),
                   default="compiled",
                   help="executor for every schedule (default "
                        "compiled — bit-identical by seed, several "
                        "times faster)")
    p.add_argument("--max-steps", type=int, default=200_000,
                   help="step bound for FILE targets (workloads carry "
                        "their own)")
    p.add_argument("--sites-every", type=int, default=8, metavar="N",
                   help="sample full per-site cost attribution on one "
                        "seed in N (0 disables; default 8)")
    p.add_argument("--seed-start", type=int, default=0)
    p.add_argument("--resume", action="store_true",
                   help="continue a killed/paused campaign from its "
                        "last completed shard (final summary is "
                        "bit-identical to an uninterrupted run)")
    p.add_argument("--stop-after", type=int, default=None, metavar="N",
                   help="pause after N new shards this invocation "
                        "(checkpointing; resume later with --resume)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the live progress line")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "fuzz",
        help="generate topology x sharing-idiom scenarios with known "
             "oracles and hunt detector disagreements")
    p.add_argument("--budget", type=int, default=13,
                   help="scenarios to generate (default 13: one per "
                        "supported family)")
    p.add_argument("--seeds", type=int, default=8,
                   help="schedule seeds per scenario per policy")
    p.add_argument("--seed-start", type=int, default=0)
    p.add_argument("--policy", action="append", default=None,
                   metavar="SPEC",
                   help="scheduling policy spec, repeatable; "
                        "default: random, pct")
    p.add_argument("--gen-seed", type=int, default=0,
                   help="scenario-sampling seed (campaigns are a pure "
                        "function of this)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-steps", type=int, default=120_000)
    p.add_argument("--racy-fraction", type=float, default=0.5,
                   help="fraction of scenarios carrying injected races")
    p.add_argument("--formal-seeds", type=int, default=0,
                   metavar="N",
                   help="also confirm injected races on the formal "
                        "Machine over N schedules (0: off)")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip ddmin-shrinking oracle violations")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="directory for shrunk disagreement artifacts")
    p.add_argument("--report-out", default=None, metavar="FILE",
                   help="write the schema-validated campaign report")
    p.add_argument("--replay-corpus", default=None, metavar="DIR",
                   help="instead of fuzzing, replay a corpus directory "
                        "and gate on bit-identical reproduction")
    p.add_argument("--backend", choices=("interp", "compiled"),
                   default=None,
                   help="with --replay-corpus: replay under one "
                        "backend only (default: both)")
    p.add_argument("--telemetry-out", default=None, metavar="DEST",
                   help="stream crash-safe campaign telemetry to DEST "
                        "(.jsonl file or campaign directory); tail it "
                        "live with 'sharc status'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "status",
        help="render a live or final view of an explore/fuzz campaign "
             "from its telemetry.jsonl stream")
    p.add_argument("dir",
                   help="campaign directory holding telemetry.jsonl "
                        "(or the stream file itself)")
    p.add_argument("--watch", action="store_true",
                   help="keep polling and redrawing until the campaign "
                        "finishes")
    p.add_argument("--interval", type=float, default=1.0,
                   help="poll interval in seconds for --watch "
                        "(default 1.0)")
    p.add_argument("--json", action="store_true",
                   help="emit the folded campaign status as JSON "
                        "(schema sharc-telemetry/1)")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser(
        "report",
        help="render a campaign directory (telemetry.jsonl + optional "
             "metrics.json) into a self-contained HTML report")
    p.add_argument("dir",
                   help="campaign directory holding telemetry.jsonl")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="output path (default: DIR/report.html)")
    p.add_argument("--title", default="SharC campaign report")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "trace",
        help="inspect a saved .jsonl trace or replay a shrunk-schedule "
             "artifact into a timeline")
    p.add_argument("artifact",
                   help="a JSONL trace (sharc run --trace-out x.jsonl) "
                        "or a schedule artifact (sharc explore --shrink "
                        "--out x.json)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="convert: Chrome trace-event JSON, or JSONL "
                        "when FILE ends in .jsonl")
    p.add_argument("--limit", type=int, default=0,
                   help="also print the first N events verbatim")
    p.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
