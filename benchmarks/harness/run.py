"""One reproducible benchmark: snapshot-to-result and spool-to-query.

    python3 benchmarks/harness/run.py [--workload NAME] [--seed N]
        [--scale F] [--seconds S] [--trace 0|1] [--reps R]
        [--out PATH] [--trace-out PATH]

Without ``--trace`` every selected workload runs untraced (end-to-end
metrics, three set-ups) and then traced (per-layer metrics and spans).
``--trace 0`` / ``--trace 1`` run only the one half, which is how the driver
calls it: ``--workload W --seed N --seconds S --trace T`` prints as its last
line ``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
(``0``) or every per-layer (``1``) metric. Every output is checked against a
from-scratch oracle and the exit code is non-zero when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

from common import ensure_repro_importable

ensure_repro_importable()

import batch  # noqa: E402
import serve_load  # noqa: E402
from common import environment_block, make_workdir, remove_workdir  # noqa: E402
from metrics import END_TO_END, LAYER_MAP, PER_LAYER, UNITS  # noqa: E402
from trace import write_chrome  # noqa: E402
from workloads import RUN_SECONDS, WORKLOADS, Workload, sized  # noqa: E402

SCHEMA = "repro-bench/1"


def run_workload(spec: Workload, seed: int, trace: Optional[int],
                 trace_events: Optional[list] = None) -> Dict[str, object]:
    """One repetition of one workload: its end-to-end and/or layer halves."""
    runner = serve_load if spec.kind == "serve" else batch
    run: Dict[str, object] = {}
    if trace in (None, 0):
        run["end_to_end"] = runner.run_end_to_end(spec, seed)
    if trace in (None, 1):
        run["layers"] = runner.run_layers(spec, seed, trace_events)
    halves = list(run.values())
    run["attempted"] = sum(h["attempted"] for h in halves)
    run["failed"] = sum(h["failed"] for h in halves)
    run["fail_frac"] = run["failed"] / max(1, run["attempted"])
    return run


def stop_resource_tracker() -> None:
    """Stop and reap the stdlib helper the process backend's shared-memory
    arena starts, so that no process of ours outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def print_metrics(name: str, run: Dict[str, object]) -> None:
    """Every metric by name, with its unit."""
    for half in ("end_to_end", "layers"):
        if half not in run:
            continue
        print(f"[{name}] {half}")
        measured = run[half]["metrics"]
        for metric, value in measured.items():
            print(f"  {metric:<42} {value:>14.6g} {UNITS.get(metric, '')}")
        absent = [m.name for m in PER_LAYER if m.name not in measured]
        if half == "layers" and absent:
            # The driver's line wants a number for every per-layer metric and
            # reads 0 for these; here they are told apart from a measured 0.
            print("  n/a, no such layer on this workload: " + ", ".join(absent))
    print(f"  {'fail_frac':<42} {run['fail_frac']:>14.6g} "
          f"({run['failed']} of {run['attempted']})")


def driver_line(run: Dict[str, object], trace: int) -> str:
    """The contract's last line: every metric of the half that was run."""
    if trace == 0:
        measured = run["end_to_end"]["metrics"]
        names = [m.name for m in END_TO_END]
    else:
        measured = run["layers"]["metrics"]
        names = [m.name for m in PER_LAYER]
    # The contract wants every metric as a number: a layer that does not
    # exist on this workload reads 0 (print_metrics lists those as n/a).
    metrics = {name: {"value": measured.get(name, 0.0), "unit": UNITS[name]}
               for name in names}
    return json.dumps({"correct": run["failed"] == 0,
                       "attempted": run["attempted"],
                       "failed": run["failed"], "metrics": metrics})


def run_isolated(name: str, args: argparse.Namespace, scratch: str,
                 trace_events: Optional[list]) -> Dict[str, object]:
    """One repetition of one workload in a process of its own.

    High-water RSS, warm imports and caches are per process, so a workload
    measured after another in one process would not be the workload the
    driver measures.
    """
    out = os.path.join(scratch, "run.json")
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--scale", str(args.scale),
               "--seconds", str(args.seconds), "--out", out]
    if args.trace is not None:
        command += ["--trace", str(args.trace)]
    if trace_events is not None:
        command += ["--trace-out", os.path.join(scratch, "trace.json")]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    print("\n".join(done.stdout.splitlines()[:-1]))
    if not os.path.exists(out):
        raise RuntimeError(f"{name}: run exited with {done.returncode} "
                           "and wrote no result")
    with open(out, encoding="utf-8") as f:
        run = json.load(f)["workloads"][name]["runs"][0]
    os.unlink(out)
    if trace_events is not None:
        with open(os.path.join(scratch, "trace.json"), encoding="utf-8") as f:
            trace_events.extend(json.load(f)["traceEvents"])
    return run


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies page counts (default 1.0)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measuring window; sets the snapshot count")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--trace-out",
                        help="write the spans here (Chrome trace_event)")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    in_process = len(names) == 1 and args.reps == 1
    trace_events: Optional[list] = [] if args.trace_out else None
    doc = {"schema": SCHEMA, "claim": None, "layer_map": LAYER_MAP,
           "environment": environment_block(args.seed, args.scale,
                                            args.seconds),
           "workloads": {}}
    failed = attempted = 0
    run: Dict[str, object] = {}
    scratch = None if in_process else make_workdir("runs")
    try:
        for name in names:
            spec = sized(WORKLOADS[name], args.scale, args.seconds)
            runs = []
            for _ in range(args.reps):
                if in_process:
                    run = run_workload(spec, args.seed, args.trace,
                                       trace_events)
                    print_metrics(name, run)
                else:
                    run = run_isolated(name, args, scratch, trace_events)
                runs.append(run)
                failed += run["failed"]
                attempted += run["attempted"]
            doc["workloads"][name] = {"why": spec.why, "sizes": spec.sizes(),
                                      "runs": runs}
    finally:
        stop_resource_tracker()
        if scratch is not None:
            remove_workdir(scratch)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    if args.trace_out:
        write_chrome(args.trace_out, trace_events)
    if args.workload and args.trace is not None:
        print(driver_line(run, args.trace))
    else:
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed,
                          "fail_frac": failed / max(1, attempted)}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
