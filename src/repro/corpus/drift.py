"""Corpus-drift simulator: regime schedules over the page evolver.

:class:`~repro.corpus.evolve.EvolvingCorpus` evolves pages under one
fixed :class:`~repro.corpus.evolve.ChangeModel` forever — a stationary
process. Real crawls are not stationary: sites redesign their
templates, churn spikes around events, and the density of extractable
facts drifts as content mix changes. :class:`DriftingCorpus` drives the
same evolver through a :class:`RegimeSchedule` — a piecewise sequence
of evolution parameters — so a single snapshot series crosses one or
more regime boundaries:

* **churn burst** — swap the change model (``p_unchanged`` drops,
  ``mean_edits`` rises) at the boundary;
* **template redesign** — swap the generator (e.g. for
  :class:`TemplateVariantGenerator`) and regenerate a fraction of
  surviving pages *under their existing URLs*, so page history is kept
  but content is rewritten wholesale;
* **vocabulary drift** — swap the generator for
  :class:`FactDilutionGenerator`, which biases fresh/edited lines
  toward filler, so the fact density (and with it the optimizer's
  selectivities) decays after the boundary.

Everything draws from the corpus's injected rng: same seed, same
snapshot bytes, exactly like the stationary evolver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..corpus import vocab
from ..corpus.evolve import ChangeModel, EvolvingCorpus
from ..corpus.generators import (
    CorpusGenerator,
    DBLifeGenerator,
    PageSpec,
    WikipediaGenerator,
)
from ..corpus.snapshot import Snapshot


@dataclass(frozen=True)
class Regime:
    """One piece of a piecewise evolution process.

    The regime takes effect when the corpus *produces* snapshot index
    ``at`` (i.e. the transition happens during the step from ``at - 1``
    to ``at``). Unset fields keep the previous regime's value.
    """

    at: int
    """First snapshot index generated under this regime (>= 1)."""

    change_model: Optional[ChangeModel] = None
    """New evolution parameters, or ``None`` to keep the current ones."""

    generator: Optional[CorpusGenerator] = None
    """New page/line generator (template redesign, vocabulary drift)."""

    redesign_fraction: float = 0.0
    """Fraction of surviving pages regenerated from scratch — under
    their existing URLs — when the regime starts. Models a site-wide
    template rollout: history is kept, content is rewritten."""

    note: str = ""
    """Human-readable tag recorded in the corpus's shift log."""

    def __post_init__(self) -> None:
        if self.at < 1:
            raise ValueError("regime 'at' must be >= 1 (index 0 is the "
                             "initial snapshot)")
        if not 0.0 <= self.redesign_fraction <= 1.0:
            raise ValueError("redesign_fraction must be in [0, 1]")


@dataclass(frozen=True)
class RegimeSchedule:
    """An ordered sequence of regime boundaries."""

    regimes: Tuple[Regime, ...] = ()

    def __post_init__(self) -> None:
        ats = [r.at for r in self.regimes]
        if ats != sorted(set(ats)):
            raise ValueError("regime boundaries must be strictly "
                             "increasing snapshot indexes")

    @classmethod
    def of(cls, *regimes: Regime) -> "RegimeSchedule":
        return cls(tuple(regimes))

    def starting_at(self, index: int) -> Optional[Regime]:
        """The regime that takes effect exactly at snapshot ``index``."""
        for regime in self.regimes:
            if regime.at == index:
                return regime
        return None

    @property
    def boundaries(self) -> Tuple[int, ...]:
        return tuple(r.at for r in self.regimes)


class TemplateVariantGenerator(CorpusGenerator):
    """A redesigned template over the same fact-line grammar.

    Delegates fact/line generation to the base generator — the rule
    extractors keep firing on the same line shapes — but restructures
    pages: a navigation banner the old template lacked, extra filler
    interleaved through the body, and a few additional fact lines. The
    result shifts region counts, region positions and selectivities
    without changing what is extractable *per line*.
    """

    def __init__(self, base: CorpusGenerator, banner: str = "v2",
                 extra_filler: int = 3, extra_facts: int = 2) -> None:
        self.base = base
        self.name = base.name
        self.banner = banner
        self.extra_filler = extra_filler
        self.extra_facts = extra_facts

    def page_kinds(self) -> Sequence[str]:
        return self.base.page_kinds()

    def new_page(self, rng: random.Random, url: str) -> PageSpec:
        page = self.base.new_page(rng, url)
        page.lines.insert(
            0, f"[{self.banner}] site navigation :: home | index | search")
        for _ in range(self.extra_filler):
            pos = rng.randint(0, len(page.lines))
            page.lines.insert(pos, rng.choice(vocab.FILLER_SENTENCES))
        for _ in range(self.extra_facts):
            pos = rng.randint(0, len(page.lines))
            page.lines.insert(pos, self.base.new_line(rng, page.kind))
        return page

    def new_line(self, rng: random.Random, kind: str) -> str:
        return self.base.new_line(rng, kind)

    def modify_line(self, rng: random.Random, kind: str, line: str) -> str:
        return self.base.modify_line(rng, kind, line)


class FactDilutionGenerator(CorpusGenerator):
    """Vocabulary drift: fresh and rewritten lines trend toward filler.

    Existing pages are untouched at the boundary; the drift materializes
    through the normal edit process, as inserted/rewritten lines are
    filler with probability ``dilution`` instead of the base grammar's
    fact mix. Fact density — and the optimizer's ``g``/``h``
    selectivities with it — decays gradually after the swap.

    With ``salt=True`` every diluted line carries a unique revision tag
    drawn from the corpus rng, so no two diluted lines are ever
    byte-identical. That defeats *both* reuse channels at once — line
    matching (the rewritten line never matches its predecessor) and the
    equal-text shortcuts (no duplicate content to hit) — which
    is the regime where deferring to from-scratch extraction is the
    honest optimum.
    """

    def __init__(self, base: CorpusGenerator, dilution: float = 0.75,
                 salt: bool = False) -> None:
        if not 0.0 <= dilution <= 1.0:
            raise ValueError("dilution must be in [0, 1]")
        self.base = base
        self.name = base.name
        self.dilution = dilution
        self.salt = salt

    def page_kinds(self) -> Sequence[str]:
        return self.base.page_kinds()

    def new_page(self, rng: random.Random, url: str) -> PageSpec:
        return self.base.new_page(rng, url)

    def _filler(self, rng: random.Random) -> str:
        line = rng.choice(vocab.FILLER_SENTENCES)
        if self.salt:
            line = f"{line} [rev {rng.randint(0, 10 ** 9)}]"
        return line

    def new_line(self, rng: random.Random, kind: str) -> str:
        if rng.random() < self.dilution:
            return self._filler(rng)
        return self.base.new_line(rng, kind)

    def modify_line(self, rng: random.Random, kind: str, line: str) -> str:
        if rng.random() < self.dilution:
            return self._filler(rng)
        return self.base.modify_line(rng, kind, line)


class DriftingCorpus(EvolvingCorpus):
    """An evolving corpus whose parameters follow a regime schedule."""

    def __init__(self, generator: CorpusGenerator, n_pages: int,
                 change_model: ChangeModel,
                 schedule: RegimeSchedule = RegimeSchedule(),
                 seed: int = 0,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(generator, n_pages, change_model,
                         seed=seed, rng=rng)
        self.schedule = schedule
        #: (snapshot_index, note) for every boundary crossed so far —
        #: the ground truth an oracle controller replans on.
        self.regime_shifts: List[Tuple[int, str]] = []

    def step(self) -> Snapshot:
        next_index = self._snapshot_index + 1
        regime = self.schedule.starting_at(next_index)
        if regime is not None:
            self._enter_regime(next_index, regime)
        return super().step()

    def _enter_regime(self, index: int, regime: Regime) -> None:
        if regime.change_model is not None:
            self.change_model = regime.change_model
        if regime.generator is not None:
            self.generator = regime.generator
        if regime.redesign_fraction > 0.0:
            rng = self._rng
            for i, spec in enumerate(self._pages):
                if rng.random() < regime.redesign_fraction:
                    self._pages[i] = self.generator.new_page(rng, spec.url)
        self.regime_shifts.append(
            (index, regime.note or f"regime@{regime.at}"))


#: Profile names accepted by :func:`drift_profile` (and registered as
#: ``repro check`` corpus axes as ``drift_<name>``).
DRIFT_PROFILES = ("stationary", "churn_burst", "redesign", "vocab_drift")

_BASE_GENERATORS = {
    "dblife": DBLifeGenerator,
    "wikipedia": WikipediaGenerator,
}


def drift_profile(name: str, n_pages: int = 24, seed: int = 0,
                  shift_at: int = 2, kind: str = "dblife"
                  ) -> DriftingCorpus:
    """A named drifting corpus crossing one regime boundary.

    ``shift_at`` is the first snapshot index produced under the new
    regime; the default of 2 puts the boundary inside even the 3-snapshot
    series the check fuzzer generates. ``kind`` picks the base page
    generator (``dblife`` or ``wikipedia``).
    """
    if kind not in _BASE_GENERATORS:
        raise ValueError(f"unknown corpus kind: {kind!r}")
    base = _BASE_GENERATORS[kind]()
    calm = ChangeModel(p_unchanged=0.9, p_removed=0.005, p_added=0.005,
                       mean_edits=2.0)
    if name == "stationary":
        schedule = RegimeSchedule()
    elif name == "churn_burst":
        burst = ChangeModel(p_unchanged=0.2, p_removed=0.02, p_added=0.02,
                            mean_edits=6.0)
        schedule = RegimeSchedule.of(
            Regime(at=shift_at, change_model=burst, note="churn_burst"))
    elif name == "redesign":
        schedule = RegimeSchedule.of(
            Regime(at=shift_at, generator=TemplateVariantGenerator(base),
                   redesign_fraction=0.9, note="redesign"))
    elif name == "vocab_drift":
        churny = ChangeModel(p_unchanged=0.5, p_removed=0.01, p_added=0.01,
                             mean_edits=4.0)
        schedule = RegimeSchedule.of(
            Regime(at=shift_at, change_model=churny,
                   generator=FactDilutionGenerator(base, dilution=0.75),
                   note="vocab_drift"))
    else:
        raise ValueError(f"unknown drift profile: {name!r} "
                         f"(choose from {DRIFT_PROFILES})")
    return DriftingCorpus(base, n_pages, calm, schedule=schedule, seed=seed)
