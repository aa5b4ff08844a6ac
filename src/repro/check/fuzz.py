"""Seeded evolution fuzzer: adversarial snapshot series + shrinking.

The corpus evolver (:mod:`repro.corpus.evolve`) models *plausible*
churn. This module generates **adversarial** churn on top of it — the
page-lifecycle and text-shape corner cases a reuse engine is most
likely to get wrong:

* ``rename``        — a page moves to a fresh URL (history loss);
* ``delete``        — a page disappears mid-series;
* ``resurrect``     — a previously deleted page returns, same did;
* ``duplicate``     — a new page with byte-identical content to an
  existing one (fingerprint and shortcut-store stressor);
* ``boundary_edit`` — a small splice whose width is drawn around the
  task's α/β scales, so edits straddle exactly the context windows
  the copy-safety argument depends on;
* ``unicode``       — multi-byte, combining-mark, and astral-plane
  insertions (offset arithmetic must stay in characters);
* ``blank``         — a page's text collapses to empty or whitespace;
* ``split_edit``    — one edit a split key must see through: every
  ``== … ==`` header of a page respelled (``== X  ==`` and ``==  X ==``
  still name X once stripped, ``==X==`` is no header and ``== x ==``
  another one), a header line moved into or out of a section, or a
  line that gains or loses a key of one of the task's line extractors.
  It runs once per transition, after the cycled kinds above.

A case is fully determined by its :class:`FuzzSpec` — same seed, same
series, same verdict — so every failure replays from a dict. The
greedy shrinker minimizes a failing series along two axes (drop
snapshots, then drop pages ddmin-style) while re-running the caller's
failure predicate, yielding the smallest (pages, snapshots) series
that still diverges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..corpus.evolve import dblife_corpus, wikipedia_corpus
from ..corpus.snapshot import Snapshot
from ..extractors.library import make_task
from ..extractors.splitters import HEADER, header_name
from ..text.document import Page
from .grid import build_grid
from .oracle import OracleReport, run_oracle

#: Mutation kinds, in the order the schedule cycles through them.
MUTATIONS = ("rename", "delete", "resurrect", "duplicate",
             "boundary_edit", "unicode", "blank")

#: Unicode snippets: multi-byte, combining mark, CJK, astral plane.
_UNICODE_SNIPPETS = ("αβγ δèlta", "naïve café", "étude",
                     "雪が降る", "🙂🙃", "​⁠zero​width")

_BLANKS = ("", " ", "\n\n", " \t \n ")

#: How ``split_edit`` respells a header named ``n``.
_RESPELLINGS = ("== {n}  ==", "==  {n} ==", "=={n}==", "== {lower} ==")


def _drift_factory(profile: str, kind: str):
    from ..corpus.drift import drift_profile

    def factory(n_pages: int = 6, seed: int = 0):
        # shift_at=1 puts the regime boundary inside even the shortest
        # (3-snapshot) fuzz series, with a stationary baseline first.
        return drift_profile(profile, n_pages=n_pages, seed=seed,
                             shift_at=1, kind=kind)

    return factory


#: Corpus axes the fuzzer sweeps: the two stationary paper corpora
#: plus regime-shifting series from :mod:`repro.corpus.drift`, so the
#: differential oracle also covers mid-series churn bursts and
#: template redesigns.
CORPUS_FACTORIES = {
    "dblife": dblife_corpus,
    "wikipedia": wikipedia_corpus,
    "drift_churn": _drift_factory("churn_burst", "dblife"),
    "drift_redesign": _drift_factory("redesign", "wikipedia"),
    "drift_vocab": _drift_factory("vocab_drift", "dblife"),
}


@dataclass(frozen=True)
class FuzzSpec:
    """Everything needed to regenerate one fuzz case, bit for bit."""

    seed: int
    task: str = "play"
    corpus: str = "wikipedia"
    n_pages: int = 6
    n_snapshots: int = 3
    mutations_per_step: int = 4
    grid: str = "small"

    def as_dict(self) -> Dict[str, object]:
        return {"seed": self.seed, "task": self.task,
                "corpus": self.corpus, "n_pages": self.n_pages,
                "n_snapshots": self.n_snapshots,
                "mutations_per_step": self.mutations_per_step,
                "grid": self.grid}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FuzzSpec":
        return cls(seed=int(data["seed"]), task=str(data["task"]),
                   corpus=str(data["corpus"]),
                   n_pages=int(data["n_pages"]),
                   n_snapshots=int(data["n_snapshots"]),
                   mutations_per_step=int(data["mutations_per_step"]),
                   grid=str(data["grid"]))


class _SeriesMutator:
    """Applies the adversarial schedule to one snapshot's page map."""

    def __init__(self, rng: random.Random, alpha: int, beta: int,
                 keys: Sequence[str] = ()) -> None:
        self.rng = rng
        self.alpha = max(1, alpha)
        self.beta = max(1, beta)
        self.keys = tuple(keys)
        self.graveyard: Dict[str, str] = {}  # url -> last text
        self._fresh = 0

    def _fresh_url(self) -> str:
        self._fresh += 1
        return f"http://fuzz.example.org/page/{self._fresh:05d}"

    def apply(self, pages: "Dict[str, str]", kind: str) -> None:
        """Mutate ``pages`` (url -> text, insertion-ordered) in place."""
        rng = self.rng
        urls = sorted(pages)
        if kind == "rename" and urls:
            url = rng.choice(urls)
            pages[self._fresh_url()] = pages.pop(url)
            self.graveyard[url] = ""
        elif kind == "delete" and len(urls) > 1:
            url = rng.choice(urls)
            self.graveyard[url] = pages.pop(url)
        elif kind == "resurrect":
            dead = sorted(u for u in self.graveyard
                          if u not in pages and self.graveyard[u])
            if dead:
                url = rng.choice(dead)
                pages[url] = self.graveyard[url]
        elif kind == "duplicate" and urls:
            pages[self._fresh_url()] = pages[rng.choice(urls)]
        elif kind == "boundary_edit" and urls:
            url = rng.choice(urls)
            pages[url] = self._splice(pages[url])
        elif kind == "unicode" and urls:
            url = rng.choice(urls)
            text = pages[url]
            pos = rng.randint(0, len(text))
            pages[url] = (text[:pos] + rng.choice(_UNICODE_SNIPPETS)
                          + text[pos:])
        elif kind == "blank" and urls:
            url = rng.choice(urls)
            self.graveyard.setdefault(url, pages[url])
            pages[url] = rng.choice(_BLANKS)
        elif kind == "split_edit" and urls:
            url = rng.choice(urls)
            pages[url] = self._split_edit(pages[url])

    def _split_edit(self, text: str) -> str:
        """Respell the headers, move one, or make a line gain or lose
        a line key."""
        rng = self.rng
        lines = text.split("\n")
        headers = [i for i, line in enumerate(lines)
                   if HEADER.fullmatch(line)]
        op = rng.choice(("respell", "respell", "move", "key"))
        if op == "respell" and headers:
            for i in headers:
                name = header_name(HEADER.fullmatch(lines[i]))
                lines[i] = rng.choice(_RESPELLINGS).format(
                    n=name, lower=name.lower())
        elif op == "move" and headers:
            line = lines.pop(rng.choice(headers))
            lines.insert(rng.randint(0, len(lines)), line)
        elif self.keys:
            i = rng.randrange(len(lines))
            key = rng.choice(self.keys)
            lines[i] = (lines[i].replace(key, "", 1) if key in lines[i]
                        else f"{lines[i]} {key}")
        return "\n".join(lines)

    def _splice(self, text: str) -> str:
        """A small edit whose width straddles the α/β context scales."""
        rng = self.rng
        width = rng.choice((1, self.beta, self.beta + 1,
                            self.alpha, self.alpha + self.beta,
                            self.alpha + 2 * self.beta + 1))
        width = max(1, min(width, max(1, len(text))))
        pos = rng.randint(0, max(0, len(text) - width))
        op = rng.choice(("insert", "delete", "replace"))
        filler = "".join(rng.choice("abtheof .,\n") for _ in range(width))
        if op == "insert" or not text:
            return text[:pos] + filler + text[pos:]
        if op == "delete":
            return text[:pos] + text[pos + width:]
        return text[:pos] + filler + text[pos + width:]


def build_series(spec: FuzzSpec) -> List[Snapshot]:
    """The deterministic snapshot series of one fuzz case."""
    factory = CORPUS_FACTORIES.get(spec.corpus)
    if factory is None:
        raise ValueError(f"unknown corpus {spec.corpus!r}; choose from "
                         f"{tuple(sorted(CORPUS_FACTORIES))}")
    rng = random.Random(spec.seed)
    base = list(factory(n_pages=spec.n_pages,
                        seed=spec.seed).snapshots(spec.n_snapshots))
    task = make_task(spec.task, work_scale=0)
    extractors = [task.registry.extractor(name) for name in task.blackboxes]
    keys = [x.split_key for x in extractors
            if x.splitter == "line" and x.split_key is not None]
    mutator = _SeriesMutator(rng, task.program_alpha, task.program_beta,
                             keys)
    series: List[Snapshot] = []
    for i, snapshot in enumerate(base):
        pages: Dict[str, str] = {p.url: p.text
                                 for p in snapshot.canonical_pages()}
        if i > 0:
            # Snapshot 0 is the bootstrap; mutate every transition.
            for j in range(spec.mutations_per_step):
                kind = MUTATIONS[(i + j) % len(MUTATIONS)]
                mutator.apply(pages, kind)
            mutator.apply(pages, "split_edit")
        series.append(snapshot_from_pages(i, pages))
    return series


def snapshot_from_pages(index: int, pages: Dict[str, str]) -> Snapshot:
    """A snapshot from a url -> text map (canonical did order)."""
    return Snapshot(index, [Page.from_url(url, pages[url])
                            for url in sorted(pages)])


def run_case(spec: FuzzSpec, workdir: Optional[str] = None,
             check: bool = False,
             series: Optional[List[Snapshot]] = None) -> OracleReport:
    """Run one fuzz case through the differential oracle."""
    if series is None:
        series = build_series(spec)
    task = make_task(spec.task, work_scale=0)
    return run_oracle(task, series, build_grid(spec.grid),
                      workdir=workdir, check=check)


# -- shrinking --------------------------------------------------------------

#: A predicate deciding whether a candidate series still fails. It
#: receives re-indexed snapshots and returns the failing report (kept
#: by the shrinker) or None when the candidate passes.
FailPredicate = Callable[[List[Snapshot]], Optional[OracleReport]]


@dataclass
class ShrinkResult:
    """The minimized failing series and how much work finding it took."""

    series: List[Snapshot]
    report: OracleReport
    evaluations: int = 0
    removed_snapshots: int = 0
    removed_pages: int = 0

    @property
    def n_snapshots(self) -> int:
        return len(self.series)

    @property
    def n_pages(self) -> int:
        return len({p.url for s in self.series for p in s.pages})


def _reindex(series: Sequence[Snapshot]) -> List[Snapshot]:
    return [Snapshot(i, list(s.pages)) for i, s in enumerate(series)]


def _without_urls(series: Sequence[Snapshot],
                  urls: frozenset) -> List[Snapshot]:
    return _reindex([
        Snapshot(s.index, [p for p in s.pages if p.url not in urls])
        for s in series])


def shrink_series(series: List[Snapshot], failing: FailPredicate,
                  report: OracleReport,
                  max_evaluations: int = 200) -> ShrinkResult:
    """Greedy minimization of a failing series.

    Phase 1 drops whole snapshots (suffix first, then each single
    snapshot) while at least two remain — reuse needs a transition, so
    a shrunk repro is never a bare bootstrap. Phase 2 removes pages
    ddmin-style: try dropping chunks of the url set (halving the chunk
    size down to single urls) until a fixpoint. Every candidate is
    re-evaluated with ``failing``; the last failing report is kept so
    the bundle can show the *minimized* divergence.
    """
    result = ShrinkResult(series=_reindex(series), report=report)

    def still_fails(candidate: List[Snapshot]) -> bool:
        if result.evaluations >= max_evaluations:
            return False
        if not candidate or sum(len(s.pages) for s in candidate) == 0:
            return False
        result.evaluations += 1
        verdict = failing(candidate)
        if verdict is not None:
            result.series = candidate
            result.report = verdict
            return True
        return False

    # Phase 1: fewer snapshots. Suffix truncation, then single drops.
    changed = True
    while changed and len(result.series) > 2:
        changed = still_fails(_reindex(result.series[:-1]))
        if changed:
            result.removed_snapshots += 1
    i = 0
    while i < len(result.series) and len(result.series) > 2:
        candidate = _reindex(result.series[:i] + result.series[i + 1:])
        if still_fails(candidate):
            result.removed_snapshots += 1
        else:
            i += 1

    # Phase 2: fewer pages (ddmin over the union of urls).
    chunk = max(1, len(_all_urls(result.series)) // 2)
    while chunk >= 1:
        urls = _all_urls(result.series)
        progress = False
        for start in range(0, len(urls), chunk):
            drop = frozenset(urls[start:start + chunk])
            if not drop or len(urls) - len(drop) < 1:
                continue
            if still_fails(_without_urls(result.series, drop)):
                result.removed_pages += len(drop)
                progress = True
                break  # url list changed; restart at this chunk size
        if not progress:
            chunk //= 2
    return result


def _all_urls(series: Sequence[Snapshot]) -> List[str]:
    urls: List[str] = []
    for snapshot in series:
        for page in snapshot.pages:
            if page.url not in urls:
                urls.append(page.url)
    return sorted(urls)


def oracle_predicate(spec: FuzzSpec,
                     check: bool = False) -> FailPredicate:
    """The standard shrink predicate: re-run the case's oracle sweep."""
    task = make_task(spec.task, work_scale=0)
    grid = build_grid(spec.grid)

    def failing(candidate: List[Snapshot]) -> Optional[OracleReport]:
        verdict = run_oracle(task, candidate, grid, check=check)
        return None if verdict.ok else verdict

    return failing
