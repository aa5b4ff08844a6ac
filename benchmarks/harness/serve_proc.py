"""The server under test, as its own process.

Wires the public serving pieces the way ``repro serve`` does, with the one
difference the benchmark needs: the spool poll interval is the benchmark's
``SPOOL_POLL_S`` (the CLI's fixed 0.5 s would floor spool-to-query latency and
hide any apply speed-up). The one view is ``system="delta"``. Snapshot 0 is
applied before the port opens, so ``/healthz`` answering 200 means the view
is queryable.

Prints ``{"port": N}`` once listening and ``{"peak_rss_kb": N}`` on the way
out; SIGTERM shuts down cleanly and removes the view workdir.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import threading

from common import ensure_repro_importable, peak_rss_kb
from workloads import SPOOL_POLL_S


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spool", required=True)
    parser.add_argument("--bootstrap", required=True,
                        help="snapshot file applied before the port opens")
    parser.add_argument("--task", required=True)
    parser.add_argument("--work-scale", type=float, required=True)
    parser.add_argument("--spans-out",
                        help="trace the serving path; dump raw spans here")
    args = parser.parse_args()

    ensure_repro_importable()
    tempfile.tempdir = args.workdir
    from repro.corpus.snapshot import read_snapshot
    from repro.serve import (IngestLoop, IngestQueue, ServeApp, SpoolWatcher,
                             ViewConfig, ViewRegistry, build_server)

    tracer = None
    if args.spans_out:
        from trace import Tracer, install_serve
        tracer = Tracer()
        install_serve(tracer)

    registry = ViewRegistry(os.path.join(args.workdir, "views"))
    registry.register(ViewConfig(name=args.task, task=args.task,
                                 system="delta",
                                 work_scale=args.work_scale))
    queue = IngestQueue()
    loop = IngestLoop(registry, queue)
    watcher = SpoolWatcher(args.spool, queue, poll_seconds=SPOOL_POLL_S)
    app = ServeApp(registry, queue, loop, watcher=watcher)
    if not loop.apply_one(read_snapshot(args.bootstrap)):
        print("error: bootstrap snapshot was quarantined", file=sys.stderr)
        return 1
    app.start()
    server = build_server(app)
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(
        target=server.shutdown, daemon=True).start())
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        clean = app.shutdown()
        if tracer is not None:
            tracer.uninstall()
            with open(args.spans_out, "w", encoding="utf-8") as f:
                json.dump({"pid": os.getpid(), "spans": tracer.spans}, f)
        shutil.rmtree(args.workdir, ignore_errors=True)
        print(json.dumps({"peak_rss_kb": peak_rss_kb()}), flush=True)
    return 0 if clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
