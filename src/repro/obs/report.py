"""``repro obs report`` — render telemetry files for humans.

Takes either a ``repro run --metrics-json`` document or a
``--trace-out`` Chrome trace file and renders:

* the Figure 11 runtime decomposition table (Match / Extraction /
  Copy / Opt / IO / Others per system, plus the explicit parallel
  overlap column),
* per reusing system and IE unit, the reuse funnel over the reuse
  snapshots: input chars, then the shares replayed (text the unit
  recorded on the previous page), inside matcher copy zones and
  re-extracted (metrics-json), and
* the slowest pages and the per-unit and per-matcher cost tables
  (calls, wall and CPU seconds), aggregated from the trace's ``page``
  spans and ``unit`` and ``matcher`` events (trace file).

Pure functions over plain dicts — the CLI wires files in, the tests
feed dicts directly.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Tuple

FIG11_COLUMNS = ("match", "extraction", "copy", "opt", "io", "others",
                 "total")


def load_document(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def document_kind(doc: Dict[str, Any]) -> str:
    """``"metrics"`` | ``"trace"`` | ``"unknown"``."""
    if "traceEvents" in doc:
        return "trace"
    if "systems" in doc:
        return "metrics"
    return "unknown"


def _table(header: Sequence[str], rows: Sequence[Sequence[str]],
           min_width: int = 6) -> str:
    widths = [max(min_width, len(h),
                  *(len(r[i]) for r in rows)) if rows else
              max(min_width, len(h))
              for i, h in enumerate(header)]
    def fmt(cells: Sequence[str]) -> str:
        first = f"{cells[0]:<{widths[0]}}"
        rest = "  ".join(f"{c:>{w}}" for c, w in
                         zip(cells[1:], widths[1:]))
        return (first + "  " + rest).rstrip()
    lines = [fmt(header)]
    for row in rows:
        lines.append(fmt(row))
    return "\n".join(lines)


def _secs(value: float) -> str:
    return f"{float(value):.3f}"


# -- metrics-json rendering -------------------------------------------------

def render_metrics_report(doc: Dict[str, Any]) -> str:
    """Human report from a ``--metrics-json`` document."""
    out: List[str] = []
    task = doc.get("task", "?")
    out.append(f"# obs report — task {task} "
               f"({doc.get('n_snapshots', '?')} snapshots, "
               f"{doc.get('n_pages', '?')} pages)")
    out.append("")
    out.append("## runtime decomposition (mean per reuse snapshot, "
               "seconds)")
    rows = []
    for system in sorted(doc.get("systems", {})):
        decomp = doc["systems"][system].get("mean_decomposition", {})
        overlap = _system_overlap(doc["systems"][system])
        rows.append([system] + [_secs(decomp.get(c, 0.0))
                                for c in FIG11_COLUMNS]
                    + [_secs(overlap)])
    out.append(_table(["system", *FIG11_COLUMNS, "overlap"], rows))
    for system in sorted(doc.get("systems", {})):
        funnel = _render_funnel(doc["systems"][system])
        if funnel:
            out.append("")
            out.append(f"## reuse funnel — {system} (chars over reuse "
                       "snapshots)")
            out.append(funnel)
    return "\n".join(out) + "\n"


#: The funnel's columns: (header, ``UnitRunStats`` counter).
FUNNEL_COLUMNS = (("replayed", "replayed_chars"),
                  ("skipped", "skipped_chars"),
                  ("copy_zone", "copy_zone_chars"),
                  ("extracted", "extracted_chars"))


def _render_funnel(system_doc: Dict[str, Any]) -> str:
    """Per unit: input chars and, as shares of them, the chars
    replayed, skipped (splits the unit's key does not select), copied
    by matcher zones and re-extracted, summed over the reuse snapshots;
    "" when the system runs no reuse engine."""
    sums: Dict[str, Dict[str, int]] = {}
    for snap in system_doc.get("snapshots", [])[1:]:
        for uid, counts in (snap.get("units") or {}).items():
            acc = sums.setdefault(uid, {})
            for key, value in counts.items():
                acc[key] = acc.get(key, 0) + int(value)
    if not sums:
        return ""
    rows = []
    for uid, acc in sorted(sums.items()):
        chars = acc.get("input_chars", 0)
        rows.append([uid, str(chars)] + [
            f"{acc.get(key, 0) / chars:.3f}" if chars else "-"
            for _, key in FUNNEL_COLUMNS])
    return _table(["unit", "input_chars",
                   *(name for name, _ in FUNNEL_COLUMNS)], rows)


def _system_overlap(system_doc: Dict[str, Any]) -> float:
    total = 0.0
    for snap in system_doc.get("snapshots", []):
        timings = snap.get("timings", {})
        total += float(timings.get("overlap_seconds", 0.0) or 0.0)
    return total


# -- trace rendering --------------------------------------------------------

def render_trace_report(doc: Dict[str, Any], top: int = 10) -> str:
    """Human report from a Chrome ``trace_event`` document."""
    events = [e for e in doc.get("traceEvents", [])
              if e.get("ph") == "X"]
    out: List[str] = [f"# obs report — trace ({len(events)} spans)"]
    other = doc.get("otherData", {})
    if other.get("spans_dropped_by_sampling"):
        out.append(f"(sampling dropped "
                   f"{other['spans_dropped_by_sampling']} spans; "
                   f"sample={other.get('sample')})")
    if other.get("spans_evicted"):
        out.append(f"WARNING: the ring buffer (capacity "
                   f"{other.get('capacity')}) evicted the "
                   f"{other['spans_evicted']} oldest spans; the tables "
                   "below cover only the tail of the run")
    out.append("")
    by_cat: Dict[str, List[float]] = {}
    for e in events:
        by_cat.setdefault(e.get("cat", "?"), []).append(_dur(e))
    out.append("## span categories")
    rows = []
    for cat in sorted(by_cat, key=lambda c: -sum(by_cat[c])):
        durs = by_cat[cat]
        rows.append([cat, str(len(durs)), _secs(sum(durs)),
                     f"{1000 * sum(durs) / len(durs):.2f}"])
    out.append(_table(["category", "spans", "total_s", "mean_ms"], rows))
    pages = slowest_pages(events, top)
    if pages:
        out.append("")
        out.append(f"## slowest pages (top {len(pages)})")
        out.append(_table(
            ["page", "seconds", "attrs"],
            [[did, _secs(seconds), _brief_args(e.get("args", {}))]
             for did, seconds, e in pages]))
    units = _costs(events, "unit", "uid")
    if units:
        out.append("")
        out.append(f"## costliest IE units (top {min(top, len(units))})")
        out.append(_table(
            ["unit", "calls", "wall_s", "cpu_s", "mean_ms"],
            [[uid, str(acc["calls"]), _secs(acc["wall"]),
              _secs(acc["cpu"]),
              f"{1000 * acc['wall'] / acc['calls']:.2f}"]
             for uid, acc in units[:top]]))
    matchers = _costs(events, "matcher", "matcher")
    if matchers:
        out.append("")
        out.append("## matcher cost (calls: one per candidate region)")
        out.append(_table(
            ["matcher", "calls", "wall_s", "cpu_s", "segments"],
            [[name, str(acc["candidates"]), _secs(acc["wall"]),
              _secs(acc["cpu"]), str(acc["segments"])]
             for name, acc in matchers[:top]]))
    return "\n".join(out) + "\n"


def _dur(event: Dict[str, Any]) -> float:
    """An event's duration in seconds."""
    return float(event.get("dur", 0.0)) / 1e6


def slowest_pages(events: Sequence[Dict[str, Any]], top: int
                  ) -> List[Tuple[str, float, Dict[str, Any]]]:
    """``(did, seconds, event)`` of the ``top`` longest ``page``
    spans, slowest first."""
    pages = sorted((e for e in events if e.get("cat") == "page"),
                   key=lambda e: -_dur(e))[:top]
    return [(str(e.get("args", {}).get("did", e.get("name", "?"))),
             _dur(e), e) for e in pages]


def _costs(events: Sequence[Dict[str, Any]], cat: str, key: str
           ) -> List[Tuple[str, Dict[str, float]]]:
    """Per ``args[key]`` over the ``cat`` events: event count, summed
    wall seconds and summed ``cpu``, ``candidates`` and ``segments``
    args; costliest (wall) first."""
    sums: Dict[str, Dict[str, float]] = {}
    for e in events:
        if e.get("cat") != cat:
            continue
        args = e.get("args", {})
        acc = sums.setdefault(str(args.get(key, e.get("name", "?"))), {
            "calls": 0, "wall": 0.0, "cpu": 0.0, "candidates": 0,
            "segments": 0})
        acc["calls"] += 1
        acc["wall"] += _dur(e)
        for arg in ("cpu", "candidates", "segments"):
            acc[arg] += args.get(arg, 0)
    return sorted(sums.items(), key=lambda kv: -kv[1]["wall"])


def _brief_args(args: Dict[str, Any]) -> str:
    keep = {k: v for k, v in args.items() if k != "did"}
    if not keep:
        return ""
    return ",".join(f"{k}={v}" for k, v in sorted(keep.items())[:4])


def render_report(doc: Dict[str, Any], top: int = 10) -> str:
    """Dispatch on document shape."""
    kind = document_kind(doc)
    if kind == "trace":
        return render_trace_report(doc, top=top)
    if kind == "metrics":
        return render_metrics_report(doc)
    raise ValueError(
        "unrecognized document: expected a `repro run --metrics-json` "
        "file (has 'systems') or a `--trace-out` Chrome trace "
        "(has 'traceEvents')")
