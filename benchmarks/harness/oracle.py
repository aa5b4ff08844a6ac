"""From-scratch reference results, computed outside every timed region.

The oracle is ``NoReuseSystem`` on the task at ``work_scale=0``: extraction
results do not depend on the emulated burn loop, so the reference costs a
fraction of the run it checks. The serving side's expected response rows
(dedupe, total order, ``contains`` filter, JSON shape) are restated here
rather than imported from ``repro.serve.store``, so a bug there cannot hide
in its own oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class Oracle:
    def __init__(self, task_name: str) -> None:
        from repro.core.noreuse import NoReuseSystem
        from repro.extractors import make_task
        from repro.plan.compile import compile_program

        task = make_task(task_name, work_scale=0)
        self._system = NoReuseSystem(
            compile_program(task.program, task.registry))
        self._cache: Dict[int, Dict[str, list]] = {}

    def results(self, snapshot) -> Dict[str, list]:
        """Relation -> rows for one snapshot (memoized by snapshot index)."""
        rows = self._cache.get(snapshot.index)
        if rows is None:
            rows = self._system.process(snapshot).results
            self._cache[snapshot.index] = rows
        return rows

    def canonical(self, snapshot) -> Dict[str, frozenset]:
        return {rel: frozenset(rows)
                for rel, rows in self.results(snapshot).items()}

    def relation_index(self, snapshot, relation: str) -> List[tuple]:
        """Deduplicated rows in the serving tier's pagination order."""
        return sorted(set(self.results(snapshot)[relation]), key=repr)


def _is_span(value: object) -> bool:
    return (isinstance(value, tuple) and len(value) == 3
            and isinstance(value[0], int) and isinstance(value[1], int)
            and isinstance(value[2], str))


def row_json(row: tuple) -> Dict[str, object]:
    return {var: ({"start": v[0], "end": v[1], "text": v[2]}
                  if _is_span(v) else v) for var, v in row}


def _row_text(row: tuple) -> str:
    return " ".join(str(v[2]) if isinstance(v, tuple) and len(v) == 3
                    else str(v) for _var, v in row)


def expected_response(index: List[tuple], offset: int, limit: int,
                      contains: Optional[str]) -> Dict[str, object]:
    """What ``/query`` must return for these parameters on this index."""
    rows = index
    if contains:
        needle = contains.lower()
        rows = [r for r in rows if needle in _row_text(r).lower()]
    page = rows[offset:offset + limit]
    return {"total": len(rows), "count": len(page),
            "tuples": [row_json(r) for r in page]}
