"""repro.check — the differential correctness harness.

Delex's value proposition is that recycling is *invisible*: cyclex and
delex, under any matcher assignment, any executor backend, and any
fast-path setting, must produce exactly the tuples a from-scratch
no-reuse run produces (Theorem 1), and must write byte-identical reuse
files whichever backend or fast-path setting produced them. After the
parallel runtime (PR 1) and the snapshot-delta fast paths (PR 2) the
equivalence surface is ``4 systems x {fastpath on,off} x {serial,
process}`` per matcher policy — far too wide for spot checks.
This package is the standing correctness tooling that sweeps it:

* :mod:`.grid` — the sweep grid: one :class:`~repro.check.grid.CheckConfig`
  per (system, matcher policy, fastpath, backend) point.
* :mod:`.oracle` — the differential oracle. Runs a snapshot series
  through every grid point, diffs extracted tuples against the
  no-reuse ground truth *and* reuse-file bytes against each group's
  serial baseline, and reports the first divergent (page, unit, tuple).
* :mod:`.fuzz` — the seeded evolution fuzzer. Composes adversarial
  mutation schedules (renames, deletes/resurrections, duplicate
  content, boundary edits, Unicode, empty/whitespace pages) on top of
  :mod:`repro.corpus.evolve`, with deterministic ``--seed`` replay and
  a greedy shrinker that minimizes a failing series.
* :mod:`.invariants` — cheap runtime assertions (region disjointness
  and containment per Defs. 7-8, span-in-page bounds, reuse-file
  page-group monotonicity, memo-hit retag soundness) wired into the
  engine behind a global flag, off by default with zero hot-path cost.
* :mod:`.faults` — test-only fault injection, so the harness itself
  can be demonstrated to catch (and shrink) a real divergence.
* :mod:`.bundle` — replayable repro bundles written for every failure.
* :mod:`.runner` — the ``python -m repro check`` budget loop.

Only :mod:`.invariants` is imported eagerly here: the hot-path modules
(:mod:`repro.reuse.regions`, :mod:`repro.fastpath.memo`) import it, so
it must stay free of imports from those layers. Import the oracle,
fuzzer, and runner explicitly (``from repro.check import oracle``).
"""

from . import invariants
from .invariants import InvariantViolation, checking

__all__ = [
    "InvariantViolation",
    "checking",
    "invariants",
]
