"""Shared plumbing: import path, scratch directories, statistics, environment.

The harness drives ``src/repro`` from outside. It adds ``<root>/src`` to
``sys.path`` itself (the benchmark command may not name a path outside
``benchmarks/harness``) and keeps every file it writes under
``<root>/.bench_work`` so a run reads and writes only inside its checkout.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, Optional, Sequence

HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HARNESS_DIR))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")


def ensure_repro_importable() -> None:
    """Put ``<root>/src`` on the path; exit 2 when the program is absent."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found; the benchmark needs the "
              "program's source next to it", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def make_workdir(prefix: str) -> str:
    """A fresh scratch directory inside the checkout."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    # Anything in the program that falls back to tempfile stays inside too.
    tempfile.tempdir = WORK_ROOT
    return tempfile.mkdtemp(prefix=prefix + "_", dir=WORK_ROOT)


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)  # only succeeds when this was the last user
    except OSError:
        pass


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(base, name))
               for base, _dirs, names in os.walk(path) for name in names)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Sample count, median and quartiles — stored beside every median."""
    if not values:
        return {"n": 0}
    return {"n": len(values), "p25": percentile(values, 0.25),
            "p50": median(values),
            "p75": percentile(values, 0.75),
            "min": min(values), "max": max(values)}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed_ms(fn: Callable[[], object], repeats: int) -> float:
    """Median wall milliseconds of ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1000.0)
    return median(times)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_kb() -> int:
    """This process's own high-water RSS, in KB.

    ``ru_maxrss`` of a spawned process starts from the RSS of whoever spawned
    it (exec folds the old address space's high-water mark into it), so it
    would report the driver or the bench process; ``VmHWM`` belongs to the
    address space created by exec and is used where ``/proc`` exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def peak_rss_mb(children: bool = False) -> float:
    """High-water RSS of this process, in MB.

    With ``children`` the largest reaped child is added: POSIX reports the
    maximum over waited-for children, not their sum, so for a two-worker
    pool this counts the parent plus its biggest worker.
    """
    kb = peak_rss_kb()
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment_block(seed: int, scale: float, seconds: float) -> Dict[str, object]:
    """Everything needed to tell whether two result files are comparable."""
    from repro.text import tokens as _tokens

    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy_version": numpy_version,
        "numpy_kernels_on": bool(_tokens.numpy_enabled()),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
    }
