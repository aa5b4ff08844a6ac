"""Command-line interface.

Eight subcommands::

    python -m repro tasks                      # list evaluation tasks
    python -m repro inspect --task play        # program, units, chains
    python -m repro corpus --kind dblife --pages 60 --snapshots 5 \\
        --store /tmp/corpus                    # generate + persist corpus
    python -m repro run --task play --store /tmp/corpus \\
        --systems noreuse,delex                # run systems, print table
    python -m repro check --seed 0 --budget 60 # differential oracle sweep
    python -m repro serve --demo --port 8800   # incremental serving API
    python -m repro obs report --metrics-json m.json   # render telemetry
    python -m repro report                     # aggregate bench tables

The ``run`` command verifies Theorem 1 (all systems produce identical
results) and prints per-snapshot runtimes plus the mean decomposition.
The ``check`` command is the adversarial version of that claim: a
budgeted fuzz campaign sweeping every (system, matcher policy,
fastpath, backend) configuration against from-scratch ground truth,
with failure shrinking and replayable repro bundles (see
docs/testing.md).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import List, Optional, Sequence

from .corpus import CorpusStore, dblife_corpus, profile_corpus, wikipedia_corpus
from .core.runner import SYSTEM_NAMES, run_series, verify_agreement
from .extractors import ALL_TASKS, make_task
from .plan import compile_program, find_units, partition_chains
from .runtime import BACKEND_NAMES


def _cmd_tasks(args: argparse.Namespace) -> int:
    print(f"{'task':<13}{'corpus':<11}{'blackboxes':>11}"
          f"{'prog alpha':>11}{'prog beta':>10}")
    for name in ALL_TASKS:
        task = make_task(name, work_scale=0)
        print(f"{name:<13}{task.corpus:<11}{len(task.blackboxes):>11}"
              f"{task.program_alpha:>11}{task.program_beta:>10}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    task = make_task(args.task, work_scale=0)
    print(f"# task: {task.name} ({task.corpus} corpus)")
    print("\n## xlog program")
    print(task.source.strip())
    plan = compile_program(task.program, task.registry)
    units = find_units(plan)
    print("\n## IE units (uid, alpha, beta, absorbed operators)")
    for unit in units:
        absorbed = [type(n).__name__ for n in unit.absorbed]
        print(f"  {unit.uid:<22} alpha={unit.alpha:<7} "
              f"beta={unit.beta:<5} absorbed={absorbed}")
    print("\n## IE chains")
    for chain in partition_chains(units):
        print(f"  {chain}")
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    if args.drift is not None:
        from .corpus.drift import drift_profile

        corpus = drift_profile(args.drift, n_pages=args.pages,
                               seed=args.seed, shift_at=args.shift_at,
                               kind=args.kind)
    else:
        factory = (dblife_corpus if args.kind == "dblife"
                   else wikipedia_corpus)
        corpus = factory(n_pages=args.pages, seed=args.seed)
    store = CorpusStore(args.store)
    if len(store) > 0:
        print(f"error: store {args.store} is not empty", file=sys.stderr)
        return 2
    snapshots = list(corpus.snapshots(args.snapshots))
    for snapshot in snapshots:
        store.append(snapshot)
    profile = profile_corpus(snapshots)
    print(f"wrote {len(snapshots)} snapshots to {args.store}")
    print(f"  avg pages/snapshot : {profile.avg_pages:.0f}")
    print(f"  avg KB/snapshot    : {profile.avg_bytes / 1024:.1f}")
    print(f"  fraction identical : {profile.avg_fraction_identical:.2f}")
    shifts = getattr(corpus, "regime_shifts", None)
    if shifts:
        rendered = ", ".join(f"{note}@{index}" for index, note in shifts)
        print(f"  regime shifts      : {rendered}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    systems = tuple(s.strip() for s in args.systems.split(",") if s.strip())
    unknown = [s for s in systems if s not in SYSTEM_NAMES]
    if unknown:
        print(f"error: unknown systems {unknown}; choose from "
              f"{SYSTEM_NAMES}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    task = make_task(args.task, work_scale=args.work_scale)
    if args.store is not None:
        store = CorpusStore(args.store)
        snapshots = list(store)
        if len(snapshots) < 2:
            print("error: need at least 2 snapshots (use the corpus "
                  "subcommand first)", file=sys.stderr)
            return 2
    else:
        # Demo mode: a small generated corpus matching the task.
        factory = (dblife_corpus if task.corpus == "dblife"
                   else wikipedia_corpus)
        snapshots = list(factory(n_pages=12, seed=0).snapshots(3))
        print("no --store given: using a generated 12-page, "
              "3-snapshot demo corpus\n")
    from . import obs
    from .check import invariants

    # Observability setup (all off by default; zero hot-path cost).
    tracer = None
    profiler = None
    if getattr(args, "trace_out", None):
        tracer = obs.trace.install(sample=args.trace_sample)
    if getattr(args, "profile", "off") == "on":
        profiler = obs.profile.install(top_k=args.top_pages)
    if getattr(args, "metrics_json", None):
        obs.registry.enable()
    try:
        with tempfile.TemporaryDirectory() as workdir:
            with invariants.checking(
                    getattr(args, "check", "off") == "on"):
                reports = run_series(task, snapshots, systems=systems,
                                     workdir=workdir, jobs=args.jobs,
                                     backend=args.backend,
                                     fastpath=args.fastpath)
    except BaseException:
        obs.disable_all()
        raise
    problems = verify_agreement(reports) if "noreuse" in systems else []
    print(f"task {task.name} over {len(snapshots)} snapshots "
          f"({len(snapshots[0])} pages each)\n")
    header = "snapshot  " + "".join(f"{s:>10}" for s in systems)
    print(header)
    for i in range(len(snapshots)):
        row = f"{i:>8}  " + "".join(
            f"{reports[s].snapshots[i].seconds:>10.3f}" for s in systems)
        print(row)
    print("   total  " + "".join(
        f"{reports[s].total_seconds():>10.3f}" for s in systems))
    print("\nmean decomposition (reuse snapshots):")
    for s in systems:
        decomp = reports[s].mean_decomposition()
        inner = "  ".join(f"{k}={v:.3f}" for k, v in decomp.items())
        print(f"  {s:<9} {inner}")
    if args.jobs > 1:
        print("\nruntime:")
        for s in systems:
            runtime = reports[s].snapshots[-1].timings.runtime
            print(f"  {s:<9} "
                  f"{runtime.describe() if runtime else 'serial'}")
    fastpath_lines = []
    for s in systems:
        fp = reports[s].snapshots[-1].timings.fastpath
        if fp is not None and fp.pages_paired:
            fastpath_lines.append(f"  {s:<9} {fp.describe()}")
    if fastpath_lines:
        print("\nfastpath (last snapshot):")
        for line in fastpath_lines:
            print(line)
    if getattr(args, "metrics_json", None):
        obs_doc = {"registry": obs.REGISTRY.to_dict()}
        if profiler is not None:
            obs_doc["profile"] = profiler.to_dict()
        _dump_metrics_json(args.metrics_json, task, snapshots, systems,
                           reports, obs_doc=obs_doc)
        print(f"\nmetrics written to {args.metrics_json}")
    if tracer is not None:
        spans = tracer.export_chrome(args.trace_out)
        print(f"trace written to {args.trace_out} ({spans} spans; "
              "open at chrome://tracing or ui.perfetto.dev)")
    if profiler is not None and not getattr(args, "metrics_json", None):
        slow = profiler.slow_pages()[:3]
        if slow:
            print("\nslowest pages: " + ", ".join(
                f"{p['did']} ({p['seconds']:.3f}s)" for p in slow))
    obs.disable_all()
    if "noreuse" in systems:
        print("\nresult agreement:",
              "OK" if not problems else f"MISMATCH {problems[:3]}")
        if problems:
            return 1
    return 0


def _dump_metrics_json(path: str, task, snapshots, systems,
                       reports, obs_doc=None) -> None:
    """Write the run's full telemetry as one JSON document.

    Per system: total seconds, the mean Figure 11 decomposition, and a
    per-snapshot list of ``Timings.to_dict()`` (which nests
    ``RuntimeMetrics``/``FastPathStats`` when attached) plus mention
    counts — the same shapes the serving layer's ``/metrics`` endpoint
    exports — and, for the systems that write a capture, its byte
    counts under ``capture`` (appended, live, kept alive). ``obs_doc`` (the metrics registry dump and, when
    profiling, the profiler dump) lands under the ``obs`` key — the
    JSON superset of the Prometheus exposition.
    """
    import json

    doc = {
        "task": task.name,
        "n_snapshots": len(snapshots),
        "n_pages": len(snapshots[0]) if snapshots else 0,
        "systems": {},
    }
    if obs_doc:
        doc["obs"] = obs_doc
    for s in systems:
        report = reports[s]
        doc["systems"][s] = {
            "total_seconds": report.total_seconds(),
            "mean_decomposition": report.mean_decomposition(),
            "snapshots": [
                {
                    "index": snap.snapshot_index,
                    "seconds": snap.seconds,
                    "mentions": snap.mentions,
                    "timings": snap.timings.to_dict(),
                    **({"optimizer": snap.optimizer}
                       if snap.optimizer is not None else {}),
                    **({"capture": snap.capture}
                       if snap.capture is not None else {}),
                }
                for snap in report.snapshots
            ],
        }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _cmd_check(args: argparse.Namespace) -> int:
    """Differential-oracle sweep (implementation in repro.check)."""
    from .check.faults import FAULTS
    from .check.runner import main_check

    if args.fault is not None and args.fault not in FAULTS:
        print(f"error: unknown fault {args.fault!r}; choose from "
              f"{tuple(sorted(FAULTS))}", file=sys.stderr)
        return 2
    return main_check(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the incremental extraction service (repro.serve)."""
    import json as _json
    import shutil
    import threading
    import time

    from .serve import (
        IngestLoop,
        IngestQueue,
        ServeApp,
        SpoolWatcher,
        ViewConfig,
        ViewRegistry,
        build_server,
    )

    task_names = [t.strip() for t in args.tasks.split(",") if t.strip()]
    unknown = [t for t in task_names if t not in ALL_TASKS]
    if unknown:
        print(f"error: unknown tasks {unknown}; choose from {ALL_TASKS}",
              file=sys.stderr)
        return 2
    own_workdir = args.workdir is None
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro_serve_")
    configs = [ViewConfig(
        name=name, task=name, system=args.system,
        fastpath=args.fastpath, jobs=args.jobs,
        backend=args.backend, work_scale=args.work_scale)
        for name in task_names]
    snapshot_store = (CorpusStore(os.path.join(workdir, "corpus"))
                      if args.persist else None)
    if args.shards > 1:
        from .shard import ShardedDeployment

        deployment = ShardedDeployment(
            os.path.join(workdir, "shards"), configs,
            n_shards=args.shards,
            check=args.check == "on", capacity=args.queue_size,
            snapshot_store=snapshot_store)
        registry = deployment.workers[0].registry
        ingest_queue = deployment  # duck-typed front door
        loop = deployment
        watcher = (SpoolWatcher(args.spool, deployment)
                   if args.spool else None)
        app = ServeApp(registry, ingest_queue, loop, watcher=watcher,
                       sharded=deployment)
    else:
        registry = ViewRegistry(os.path.join(workdir, "views"))
        for config in configs:
            registry.register(config)
        ingest_queue = IngestQueue(maxsize=args.queue_size)
        loop = IngestLoop(registry, ingest_queue,
                          check=args.check == "on",
                          snapshot_store=snapshot_store)
        watcher = (SpoolWatcher(args.spool, ingest_queue)
                   if args.spool else None)
        app = ServeApp(registry, ingest_queue, loop, watcher=watcher)
    app.start()

    # Bootstrap snapshots: an existing corpus store, or the demo corpus.
    snapshots = []
    if args.store is not None:
        snapshots = list(CorpusStore(args.store))
    elif args.demo:
        template = make_task(task_names[0], work_scale=0)
        factory = (dblife_corpus if template.corpus == "dblife"
                   else wikipedia_corpus)
        kwargs = ({} if args.demo_unchanged is None
                  else {"p_unchanged": args.demo_unchanged})
        snapshots = list(factory(n_pages=args.demo_pages,
                                 seed=args.seed, **kwargs)
                         .snapshots(args.demo_snapshots))
    for snapshot in snapshots:
        while not ingest_queue.push(snapshot, block=True, timeout=1.0):
            pass
    if snapshots:
        print(f"ingesting {len(snapshots)} bootstrap snapshot(s) ...")
        loop.drain(timeout=600.0)

    server = build_server(app, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    tier = f" across {args.shards} shard(s)" if args.shards > 1 else ""
    print(f"serving {len(task_names)} view(s) "
          f"({', '.join(task_names)}){tier} on http://{host}:{port}")
    print("  try:")
    print(f"    curl 'http://{host}:{port}/views'")
    print(f"    curl 'http://{host}:{port}/query?view={task_names[0]}"
          "&limit=5'")
    print(f"    curl 'http://{host}:{port}/metrics'")
    if args.spool:
        print(f"  spool: drop snapshot_NNNN.dat files into {args.spool}")
    if args.max_seconds is not None:
        threading.Timer(args.max_seconds, server.shutdown).start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if args.status_json:
            # Capture while the ingest loop is still alive so the
            # health verdict reflects the serving state, not shutdown.
            status = {
                "healthz": app.handle_healthz()[1],
                "metrics": app.handle_metrics()[1],
            }
            with open(args.status_json, "w", encoding="utf-8") as f:
                _json.dump(status, f, indent=2)
                f.write("\n")
            print(f"status written to {args.status_json}")
        if args.prom_out:
            _, exposition = app.handle_metrics_prom()
            with open(args.prom_out, "w", encoding="utf-8") as f:
                f.write(exposition)
            print(f"prometheus exposition written to {args.prom_out}")
        app.shutdown()
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
        # Give daemon HTTP worker threads a beat to unwind.
        time.sleep(0.05)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Render telemetry files (``repro obs report``)."""
    from .obs import report as obs_report

    if args.action != "report":  # argparse enforces; belt and braces
        print(f"error: unknown obs action {args.action!r}",
              file=sys.stderr)
        return 2
    paths = [p for p in (args.metrics_json, args.trace) if p]
    if not paths:
        print("error: pass --metrics-json PATH and/or --trace PATH",
              file=sys.stderr)
        return 2
    for i, path in enumerate(paths):
        if not os.path.exists(path):
            print(f"error: no such file {path!r}", file=sys.stderr)
            return 2
        try:
            doc = obs_report.load_document(path)
            rendered = obs_report.render_report(doc, top=args.top)
        except ValueError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        if i:
            print()
        print(rendered, end="")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Aggregate the rendered benchmark tables into one report."""
    import os

    directory = args.results
    if not os.path.isdir(directory):
        print(f"error: no results directory {directory} — run "
              "`pytest benchmarks/ --benchmark-only` first",
              file=sys.stderr)
        return 2
    names = sorted(n for n in os.listdir(directory)
                   if n.endswith(".txt"))
    if not names:
        print(f"error: no result tables in {directory}", file=sys.stderr)
        return 2
    print("# Delex reproduction — benchmark results\n")
    for name in names:
        with open(os.path.join(directory, name), encoding="utf-8") as f:
            body = f.read().rstrip()
        print(f"## {name}\n")
        print(body)
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Delex (SIGMOD 2009) reproduction — IE over "
                    "evolving text")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tasks", help="list the evaluation IE tasks")

    inspect = sub.add_parser("inspect",
                             help="show a task's program/units/chains")
    inspect.add_argument("--task", required=True, choices=ALL_TASKS)

    corpus = sub.add_parser("corpus", help="generate an evolving corpus")
    corpus.add_argument("--kind", choices=("dblife", "wikipedia"),
                        required=True)
    corpus.add_argument("--pages", type=int, default=60)
    corpus.add_argument("--snapshots", type=int, default=5)
    corpus.add_argument("--seed", type=int, default=0)
    corpus.add_argument("--store", required=True,
                        help="directory for the corpus store")
    corpus.add_argument("--drift", default=None,
                        choices=("stationary", "churn_burst", "redesign",
                                 "vocab_drift"),
                        help="generate a regime-shifting series with "
                             "this drift profile instead of the "
                             "stationary evolver")
    corpus.add_argument("--shift-at", type=int, default=2,
                        metavar="INDEX",
                        help="first snapshot index produced under the "
                             "drifted regime (default 2)")

    run = sub.add_parser(
        "run", help="run systems over a stored corpus",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  repro run --task play --store /tmp/corpus "
               "--systems noreuse,delex\n"
               "  repro run --task play --systems noreuse,delex "
               "--jobs 4\n"
               "      (no --store: small generated demo corpus; "
               "--jobs 4 fans page\n"
               "       batches out over 4 workers — results are "
               "identical to --jobs 1)")
    run.add_argument("--task", required=True, choices=ALL_TASKS)
    run.add_argument("--store",
                     help="corpus store directory (omit for a small "
                          "generated demo corpus)")
    run.add_argument("--systems", default="noreuse,delex",
                     help="comma-separated subset of "
                          f"{','.join(SYSTEM_NAMES)}")
    run.add_argument("--work-scale", type=float, default=1.0)
    run.add_argument("--jobs", type=int, default=1,
                     help="worker count for the execution runtime "
                          "(default 1 = serial)")
    run.add_argument("--backend", default="auto",
                     choices=BACKEND_NAMES,
                     help="executor backend; auto picks by blackbox "
                          "cost (default auto)")
    run.add_argument("--check", default="off", choices=("on", "off"),
                     help="runtime invariant assertions (derivation "
                          "geometry, span bounds, page order, memo "
                          "replay); off by default — zero hot-path "
                          "cost when disabled")
    run.add_argument("--fastpath", default="on", choices=("on", "off"),
                     help="snapshot-delta fast paths (identical-page "
                          "recycle, equal-region match shortcut) for "
                          "the matching systems; "
                          "results are identical either way (default "
                          "on)")
    run.add_argument("--metrics-json", default=None, metavar="PATH",
                     help="after the run, dump per-system per-snapshot "
                          "timings, runtime telemetry, fast-path "
                          "counters, and the obs metrics registry as "
                          "JSON to PATH")
    run.add_argument("--trace-out", default=None, metavar="PATH",
                     help="record hierarchical spans (snapshot > page "
                          "> unit > batch) and write a Chrome "
                          "trace_event JSON file to PATH")
    run.add_argument("--trace-sample", type=float, default=1.0,
                     help="keep every 1/SAMPLE-th high-volume span "
                          "(pages, units, batches); snapshot spans are "
                          "always kept (default 1.0 = keep all)")
    run.add_argument("--profile", default="off", choices=("on", "off"),
                     help="per-IE-unit and per-matcher wall/CPU "
                          "accounting plus a slowest-pages log; "
                          "results are identical either way "
                          "(default off)")
    run.add_argument("--top-pages", type=int, default=10,
                     help="slow-page log size for --profile "
                          "(default 10)")

    check = sub.add_parser(
        "check", help="differential correctness sweep (fuzz + oracle)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  repro check --seed 0 --budget 60 --grid full\n"
               "  repro check --fault drop_copied --bundle-dir /tmp/b\n"
               "      (self-test: the oracle must catch the planted "
               "bug,\n       shrink it, and write a replayable bundle)\n"
               "  repro check --replay /tmp/b\n")
    check.add_argument("--seed", type=int, default=0,
                       help="first fuzz seed (default 0)")
    check.add_argument("--budget", type=float, default=60.0,
                       help="wall-clock budget in seconds (default 60)")
    check.add_argument("--grid", default="small",
                       choices=("small", "full"),
                       help="sweep grid: small = CI smoke set, full "
                            "adds the process backend, the ST policy, "
                            "the mixed assignment, and the live "
                            "optimizer (default small)")
    check.add_argument("--shrink", dest="shrink", action="store_true",
                       default=True,
                       help="minimize a failing series (default)")
    check.add_argument("--no-shrink", dest="shrink",
                       action="store_false",
                       help="report the first failing series as-is")
    check.add_argument("--check", default="on", choices=("on", "off"),
                       help="runtime invariant assertions during the "
                            "sweep (default on)")
    check.add_argument("--fault", default=None,
                       help="plant a known reuse bug (harness "
                            "self-test); the run must FAIL")
    check.add_argument("--bundle-dir", default=None,
                       help="write a replayable repro bundle here on "
                            "failure")
    check.add_argument("--replay", default=None, metavar="BUNDLE",
                       help="replay a previously written repro bundle "
                            "instead of fuzzing")
    check.add_argument("--verbose", action="store_true",
                       help="per-case progress on stderr")

    serve = sub.add_parser(
        "serve", help="run the incremental extraction service",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  repro serve --demo --port 8800\n"
               "      (generate a small evolving corpus, ingest it, "
               "serve /query)\n"
               "  repro serve --tasks play,talk --store /tmp/corpus "
               "--spool /tmp/spool\n"
               "      (bootstrap from a stored corpus, then keep "
               "ingesting snapshot\n       files dropped into the "
               "spool directory)\n"
               "  curl 'http://127.0.0.1:8800/query?view=play&limit=5'")
    serve.add_argument("--tasks", default="play",
                       help="comma-separated tasks to register as "
                            "materialized views (default play)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8800,
                       help="HTTP port (0 = ephemeral; default 8800)")
    serve.add_argument("--store", default=None,
                       help="bootstrap: ingest all snapshots of this "
                            "corpus store at startup")
    serve.add_argument("--demo", action="store_true",
                       help="bootstrap: ingest a small generated "
                            "evolving demo corpus")
    serve.add_argument("--demo-pages", type=int, default=12)
    serve.add_argument("--demo-snapshots", type=int, default=3)
    serve.add_argument("--demo-unchanged", type=float, default=None,
                       metavar="P",
                       help="demo corpus per-page probability of "
                            "staying identical between snapshots "
                            "(default: the corpus's paper band; lower "
                            "it for a churn-heavy series)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--spool", default=None, metavar="DIR",
                       help="watch DIR for snapshot_NNNN.dat files and "
                            "ingest them continuously")
    serve.add_argument("--mode", "--system", dest="system",
                       default="delex",
                       choices=("delex", "noreuse", "delta"),
                       help="view maintenance mode (default delex); "
                            "'delta' applies each snapshot as a "
                            "tuple-level (adds, dels) delta through "
                            "the relational plan")
    serve.add_argument("--fastpath", default="on",
                       choices=("on", "off"))
    serve.add_argument("--jobs", type=int, default=1)
    serve.add_argument("--backend", default="auto",
                       choices=BACKEND_NAMES)
    serve.add_argument("--work-scale", type=float, default=1.0)
    serve.add_argument("--check", default="off", choices=("on", "off"),
                       help="guard every apply with the invariant "
                            "layer and the store-vs-engine consistency "
                            "check (default off)")
    serve.add_argument("--queue-size", type=int, default=8,
                       help="ingest queue bound (backpressure beyond "
                            "this; default 8)")
    serve.add_argument("--shards", type=int, default=1, metavar="N",
                       help="partition the store across N in-process "
                            "shard workers behind a scatter-gather "
                            "router with consistent generation "
                            "vectors (default 1 = classic single "
                            "apply loop)")
    serve.add_argument("--persist", action="store_true",
                       help="persist applied snapshots to "
                            "<workdir>/corpus")
    serve.add_argument("--workdir", default=None,
                       help="serving state directory (default: "
                            "temporary, removed on exit)")
    serve.add_argument("--max-seconds", type=float, default=None,
                       help="shut down after this many seconds "
                            "(smoke tests)")
    serve.add_argument("--status-json", default=None, metavar="PATH",
                       help="on shutdown, dump /healthz + /metrics "
                            "JSON to PATH")
    serve.add_argument("--prom-out", default=None, metavar="PATH",
                       help="on shutdown, dump the Prometheus text "
                            "exposition (same payload as "
                            "/metrics?format=prometheus) to PATH")

    obs = sub.add_parser(
        "obs", help="observability utilities",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  repro run --task play --metrics-json m.json "
               "--profile on\n"
               "  repro obs report --metrics-json m.json\n"
               "      (figure-11 decomposition table + slowest pages "
               "/ costliest units)\n"
               "  repro run --task play --trace-out t.json\n"
               "  repro obs report --trace t.json")
    obs.add_argument("action", choices=("report",),
                     help="report: render a metrics-json or trace file")
    obs.add_argument("--metrics-json", default=None, metavar="PATH",
                     help="a `repro run --metrics-json` document")
    obs.add_argument("--trace", default=None, metavar="PATH",
                     help="a `repro run --trace-out` Chrome trace file")
    obs.add_argument("--top", type=int, default=10,
                     help="rows per ranking table (default 10)")

    report = sub.add_parser("report",
                            help="print all rendered benchmark tables")
    report.add_argument(
        "--results",
        default=os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))),
            "benchmarks", "results"),
        help="directory holding benchmarks/results/*.txt")

    return parser


_COMMANDS = {
    "tasks": _cmd_tasks,
    "inspect": _cmd_inspect,
    "corpus": _cmd_corpus,
    "run": _cmd_run,
    "check": _cmd_check,
    "serve": _cmd_serve,
    "obs": _cmd_obs,
    "report": _cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
