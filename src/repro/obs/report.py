"""``repro obs report`` — render telemetry files for humans.

Takes either a ``repro run --metrics-json`` document or a
``--trace-out`` Chrome trace file and renders:

* the Figure 11 runtime decomposition table (Match / Extraction /
  Copy / Opt / IO / Others per system, plus the explicit parallel
  overlap column),
* per reusing system and IE unit, the reuse funnel over the reuse
  snapshots: input chars, then the shares replayed (text the unit
  recorded on the previous page), inside matcher copy zones and
  re-extracted (metrics-json only), and
* the slowest pages and costliest IE units / matchers, from the
  embedded profile section (metrics-json) or by aggregating spans
  (trace file).

Pure functions over plain dicts — the CLI wires files in, the tests
feed dicts directly.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

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

def render_metrics_report(doc: Dict[str, Any], top: int = 10) -> str:
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
    profile = (doc.get("obs") or {}).get("profile")
    if profile:
        out.append("")
        out.extend(_render_profile(profile, top))
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


def _render_profile(profile: Dict[str, Any], top: int) -> List[str]:
    out: List[str] = []
    slow = profile.get("slow_pages", [])[:top]
    if slow:
        out.append(f"## slowest pages (top {len(slow)} of "
                   f"{profile.get('pages_seen', '?')} seen)")
        out.append(_table(
            ["page", "seconds"],
            [[str(p.get("did", "?")), _secs(p.get("seconds", 0.0))]
             for p in slow]))
        out.append("")
    units = profile.get("units", {})
    if units:
        ranked = sorted(units.items(),
                        key=lambda kv: -kv[1].get("wall_seconds", 0.0))
        out.append(f"## costliest IE units (top {min(top, len(ranked))})")
        out.append(_table(
            ["unit", "calls", "wall_s", "cpu_s", "mean_ms"],
            [[uid, str(acc.get("calls", 0)),
              _secs(acc.get("wall_seconds", 0.0)),
              _secs(acc.get("cpu_seconds", 0.0)),
              f"{1000 * acc.get('mean_wall_seconds', 0.0):.2f}"]
             for uid, acc in ranked[:top]]))
        out.append("")
    matchers = profile.get("matchers", {})
    if matchers:
        ranked = sorted(matchers.items(),
                        key=lambda kv: -kv[1].get("wall_seconds", 0.0))
        out.append("## matcher cost")
        out.append(_table(
            ["matcher", "calls", "wall_s", "cpu_s"],
            [[name, str(acc.get("calls", 0)),
              _secs(acc.get("wall_seconds", 0.0)),
              _secs(acc.get("cpu_seconds", 0.0))]
             for name, acc in ranked[:top]]))
    while out and not out[-1]:
        out.pop()
    return out


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
    out.append("")
    by_cat: Dict[str, List[float]] = {}
    for e in events:
        by_cat.setdefault(e.get("cat", "?"), []).append(
            float(e.get("dur", 0.0)) / 1e6)
    out.append("## span categories")
    rows = []
    for cat in sorted(by_cat, key=lambda c: -sum(by_cat[c])):
        durs = by_cat[cat]
        rows.append([cat, str(len(durs)), _secs(sum(durs)),
                     f"{1000 * sum(durs) / len(durs):.2f}"])
    out.append(_table(["category", "spans", "total_s", "mean_ms"], rows))
    pages = sorted((e for e in events if e.get("cat") == "page"),
                   key=lambda e: -float(e.get("dur", 0.0)))[:top]
    if pages:
        out.append("")
        out.append(f"## slowest pages (top {len(pages)})")
        out.append(_table(
            ["page", "seconds", "attrs"],
            [[str(e.get("args", {}).get("did", e.get("name", "?"))),
              _secs(float(e.get("dur", 0.0)) / 1e6),
              _brief_args(e.get("args", {}))]
             for e in pages]))
    units: Dict[str, List[float]] = {}
    for e in events:
        if e.get("cat") == "unit":
            uid = str(e.get("args", {}).get("uid", e.get("name", "?")))
            units.setdefault(uid, []).append(
                float(e.get("dur", 0.0)) / 1e6)
    if units:
        out.append("")
        ranked = sorted(units.items(), key=lambda kv: -sum(kv[1]))
        out.append(f"## costliest IE units (top {min(top, len(ranked))})")
        out.append(_table(
            ["unit", "spans", "total_s"],
            [[uid, str(len(durs)), _secs(sum(durs))]
             for uid, durs in ranked[:top]]))
    return "\n".join(out) + "\n"


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
        return render_metrics_report(doc, top=top)
    raise ValueError(
        "unrecognized document: expected a `repro run --metrics-json` "
        "file (has 'systems') or a `--trace-out` Chrome trace "
        "(has 'traceEvents')")
