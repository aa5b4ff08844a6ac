"""The differential sweep grid.

One :class:`CheckConfig` per point of the equivalence surface the
oracle must cover: (system, matcher policy, fastpath, backend). The
``small`` grid is the CI smoke set; the ``full`` grid adds the ST
policy and the live optimizer (``auto``); both sweep the serial and
process backends and the mixed ST/UD→RU assignment.

Every reusing system is the reuse engine over some plan — Shortcut
and Cyclex over the one-unit program plan — so each has the fastpath
on/off axis and a capture tree. Matcher policies pin the plan-space
point a reusing system runs so a sweep is deterministic and its
capture files comparable:

* ``-``      — system has no matcher choice (noreuse; shortcut, whose
  program unit always matches with EQ);
* ``UD``/``ST``/``WS`` — uniform fixed assignment (delex) or fixed
  program-level matcher (cyclex; WS not offered there);
* ``mixed``  — the chained-unit recycling path: frontier units (input
  is the page scan) cycle over (ST, UD) in uid order and every other
  unit gets RU, so each RU unit replays segments an ST/UD producer
  recorded on the same page pair (the plan shape the optimizer picks
  on DBLife-like corpora);
* ``auto``   — delex's cost-based optimizer chooses per snapshot.
  Timing-based statistics make the chosen assignment machine-
  dependent, so ``auto`` configs are checked for tuple equality but
  excluded from byte-level capture comparison
  (:meth:`CheckConfig.capture_comparable`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..extractors.library import IETask
from ..matchers.base import RU_NAME, ST_NAME, UD_NAME
from ..matchers.ws import WS_NAME
from ..plan.compile import compile_program
from ..plan.operators import ScanNode
from ..plan.units import find_units
from ..reuse.engine import PlanAssignment

GRID_NAMES = ("small", "full")

#: Both grids run every engine config serially and on the process pool.
BACKENDS = ("serial", "process")

#: Policies that fix the matcher choice (deterministic captures).
FIXED_POLICIES = ("UD", "ST", "WS", "mixed")

#: The view-maintenance axis: "-" sweeps the config as a bare engine
#: (the historical grid); any other value drives the snapshot series
#: through a :class:`~repro.serve.views.MaterializedView` with that
#: maintenance mode and diffs the *published generations* against the
#: reference — covering the serving path (store delta, incremental
#: relation index, delta rules + classifier for ``delta``) that the
#: engine-level sweep never touches.
VIEW_MODES = ("-", "delex", "noreuse", "delta")


@dataclass(frozen=True)
class CheckConfig:
    """One point of the sweep grid."""

    system: str            # noreuse | shortcut | cyclex | delex
    policy: str = "-"      # - | UD | ST | WS | mixed | auto
    fastpath: str = "on"   # on | off
    backend: str = "serial"  # serial | process
    jobs: int = 1
    view: str = "-"        # - | delex | noreuse | delta

    def __post_init__(self) -> None:
        if self.view not in VIEW_MODES:
            raise ValueError(f"unknown view mode {self.view!r}; choose "
                             f"from {VIEW_MODES}")

    @property
    def config_id(self) -> str:
        head = (f"view-{self.view}" if self.view != "-" else self.system)
        return (f"{head}/{self.policy}/fp-{self.fastpath}/"
                f"{self.backend}x{self.jobs}")

    @property
    def slug(self) -> str:
        """Filesystem-safe identifier (capture workdir names)."""
        return self.config_id.replace("/", "_")

    def capture_comparable(self) -> bool:
        """May this config's reuse files be byte-compared against its
        group's baseline? Requires a machine-independent matcher
        assignment. View-driven configs are excluded: their workdir
        layout is the serving tier's, not a capture tree."""
        return (self.view == "-"
                and self.system in ("shortcut", "cyclex", "delex")
                and self.policy != "auto")

    def capture_group(self) -> Tuple[str, str]:
        """Configs in one group must write byte-identical captures."""
        return (self.system, self.policy)

    def system_kwargs(self, task: IETask) -> Dict[str, object]:
        """The ``make_system`` kwargs that pin this config's policy."""
        if self.system == "cyclex":
            if self.policy in ("UD", "ST"):
                return {"fixed_matcher": self.policy}
            if self.policy != "-":
                raise ValueError(
                    f"cyclex has no policy {self.policy!r}")
            return {}
        if self.system == "delex":
            kwargs: Dict[str, object] = {}
            if self.policy == "auto":
                return kwargs
            kwargs["fixed_assignment"] = make_assignment(task, self.policy)
            return kwargs
        if self.policy != "-":
            raise ValueError(
                f"{self.system} takes no matcher policy "
                f"(got {self.policy!r})")
        return {}

    def as_dict(self) -> Dict[str, object]:
        return {"system": self.system, "policy": self.policy,
                "fastpath": self.fastpath, "backend": self.backend,
                "jobs": self.jobs, "view": self.view}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CheckConfig":
        return cls(system=str(data["system"]),
                   policy=str(data.get("policy", "-")),
                   fastpath=str(data.get("fastpath", "on")),
                   backend=str(data.get("backend", "serial")),
                   jobs=int(data.get("jobs", 1)),
                   view=str(data.get("view", "-")))


def make_assignment(task: IETask, policy: str) -> PlanAssignment:
    """A deterministic matcher assignment for a task's IE units."""
    units = find_units(compile_program(task.program, task.registry))
    if policy in (UD_NAME, ST_NAME, WS_NAME):
        return PlanAssignment.uniform(units, policy)
    if policy == "mixed":
        cycle = (ST_NAME, UD_NAME)
        frontier = sorted(u.uid for u in units
                          if isinstance(u.ie_node.child, ScanNode))
        matchers = {u.uid: RU_NAME for u in units}
        matchers.update((uid, cycle[i % len(cycle)])
                        for i, uid in enumerate(frontier))
        return PlanAssignment(matchers)
    raise ValueError(f"unknown matcher policy {policy!r}")


def reference_config() -> CheckConfig:
    """The ground truth: from-scratch extraction, serial, no fast paths."""
    return CheckConfig(system="noreuse", policy="-", fastpath="off",
                       backend="serial", jobs=1)


def _expand(system: str, policies: Sequence[str],
            fastpaths: Sequence[str], backends: Sequence[str],
            jobs: int) -> List[CheckConfig]:
    out: List[CheckConfig] = []
    for policy in policies:
        for fastpath in fastpaths:
            for backend in backends:
                out.append(CheckConfig(
                    system=system, policy=policy, fastpath=fastpath,
                    backend=backend,
                    jobs=1 if backend == "serial" else jobs))
    return out


def build_grid(name: str = "full", jobs: int = 2) -> List[CheckConfig]:
    """The sweep configurations for a named grid.

    Every capture group (system, policy) contains its serial +
    fastpath-off baseline so byte-level capture comparison always has
    an anchor. No-reuse never consults the fast paths, so its fastpath
    dimension is collapsed to "on".
    """
    if name not in GRID_NAMES:
        raise ValueError(f"unknown grid {name!r}; choose from {GRID_NAMES}")
    fastpaths = ("off", "on")
    if name == "small":
        cyclex_policies: Tuple[str, ...] = ("UD",)
        delex_policies: Tuple[str, ...] = ("UD", "mixed")
        view_modes: Tuple[str, ...] = ("delta",)
    else:
        cyclex_policies = ("UD", "ST")
        delex_policies = ("UD", "ST", "mixed", "auto")
        view_modes = ("delta", "noreuse", "delex")
    grid: List[CheckConfig] = []
    grid += _expand("noreuse", ("-",), ("on",), BACKENDS, jobs)
    grid += _expand("shortcut", ("-",), fastpaths, BACKENDS, jobs)
    grid += _expand("cyclex", cyclex_policies, fastpaths, BACKENDS, jobs)
    grid += _expand("delex", delex_policies, fastpaths, BACKENDS, jobs)
    grid += [CheckConfig(system=mode, view=mode) for mode in view_modes]
    return grid
