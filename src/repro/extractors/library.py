"""The evaluation IE programs (Figure 8b and the Figure 15 program).

Each :class:`IETask` bundles an xlog program, the extractor registry
that backs its IE predicates, the per-blackbox (α, β) declarations, the
whole-program (α, β) the Cyclex baseline must use, and the corpus the
task runs on. The blackbox counts match Figure 8b:

====================  =========  ==============================
task                  blackboxes corpus
====================  =========  ==============================
talk                  1          DBLife-like
chair                 3          DBLife-like
advise                5          DBLife-like
blockbuster           2          Wikipedia-like
play                  4          Wikipedia-like
award                 6          Wikipedia-like
infobox (learning)    5          Wikipedia-like
====================  =========  ==============================

Whole-program scopes mirror the paper's magnitudes: tiny for the
single-blackbox ``talk`` program, page-scale for the section-based
programs — which is exactly why Cyclex gets little reuse on them.

``work_factor`` emulates the heavyweight Perl/Java blackboxes of the
paper's testbed (see :mod:`repro.extractors.base`); pass
``work_scale=0`` to make all rule extractors instantaneous (unit
tests do this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..xlog.ast import Program
from ..xlog.parser import parse_program
from ..xlog.registry import Registry
from ..xlog.validation import validate_program
from .base import Extractor
from .learning import CRFFieldExtractor, MaxEntSentenceSegmenter
from .rules import (
    IntGroupScalar,
    LineExtractor,
    RegexExtractor,
    SectionExtractor,
)

_NAME = r"[A-Z][a-z]+ [A-Z][a-z]+"
_MOVIE = r"[A-Z][a-z]+ [A-Z][a-z]+"


@dataclass
class IETask:
    """A ready-to-run IE task: program + registry + declarations."""

    name: str
    corpus: str  # "dblife" or "wikipedia"
    source: str
    registry: Registry
    program: Program
    program_alpha: int
    program_beta: int
    blackboxes: Tuple[str, ...]

    def extractors(self) -> List[Extractor]:
        return [self.registry.extractor(n) for n in self.blackboxes]


def _build(name: str, corpus: str, source: str,
           extractors: Sequence[Extractor],
           program_alpha: int, program_beta: int) -> IETask:
    registry = Registry()
    for extractor in extractors:
        registry.register_extractor(extractor)
    program = parse_program(source, name=name)
    validate_program(program, registry)
    return IETask(name=name, corpus=corpus, source=source,
                  registry=registry, program=program,
                  program_alpha=program_alpha, program_beta=program_beta,
                  blackboxes=tuple(e.name for e in extractors))


# -- DBLife tasks -----------------------------------------------------------

def talk_task(work_scale: float = 1.0) -> IETask:
    """``talk(speaker, topics)`` — the single-blackbox program.

    Delex and Cyclex should perform identically here (Figure 10, the
    'talk' panel): there is only one blackbox, so unit-level reuse
    degenerates to whole-program reuse with the same tight α=155, β=9.
    """
    wf = round(240 * work_scale)
    extract_talk = RegexExtractor(
        "extractTalk",
        r'by (?P<speaker>[A-Z][a-z]+ [A-Z][a-z]+)\. '
        r'Topics: (?P<topics>[^.\n]+)\.',
        groups={"speaker": "speaker", "topics": "topics"},
        scope=155, context=9, work_factor=wf)
    source = """
        talk(speaker, topics) :- docs(d), extractTalk(d, speaker, topics).
    """
    return _build("talk", "dblife", source, [extract_talk],
                  program_alpha=155, program_beta=9)


def chair_task(work_scale: float = 1.0) -> IETask:
    """``chair(person, chairType, conference)`` — 3 blackboxes in one
    chain: service section -> chair sentence -> fact fields."""
    sec = SectionExtractor("extractServiceSec", "sec", "Service",
                           scope=9458, context=32,
                           work_factor=round(10 * work_scale))
    sent = LineExtractor("extractChairSent", "sent", scope=300,
                         must_contain="chair", context=4,
                         work_factor=round(100 * work_scale))
    fact = RegexExtractor(
        "extractChairFact",
        rf'(?P<person>{_NAME}) serves as (?P<ctype>[a-z]+) chair of '
        r'(?P<conf>[A-Z]{3,6} \d{4})',
        groups={"person": "person", "ctype": "ctype", "conf": "conf"},
        scope=200, context=6, work_factor=round(3000 * work_scale))
    source = """
        chair(person, ctype, conf) :- docs(d), extractServiceSec(d, sec),
            extractChairSent(sec, sent),
            extractChairFact(sent, person, ctype, conf).
    """
    return _build("chair", "dblife", source, [sec, sent, fact],
                  program_alpha=9458, program_beta=9458)


def advise_task(work_scale: float = 1.0) -> IETask:
    """``advise(advisor, advisee, topic)`` — 5 blackboxes: an advising
    section chain plus three field extractors fanning out of the
    sentence unit."""
    sec = SectionExtractor("extractAdvisingSec", "sec", "Advising",
                           scope=20539, context=32,
                           work_factor=round(10 * work_scale))
    sent = LineExtractor("extractAdviseSent", "sent", scope=300,
                         must_contain="advises", context=4,
                         work_factor=round(100 * work_scale))
    advisor = RegexExtractor(
        "extractAdvisor", rf'Prof\. (?P<advisor>{_NAME}) advises',
        groups={"advisor": "advisor"}, scope=80, context=12,
        work_factor=round(1200 * work_scale))
    advisee = RegexExtractor(
        "extractAdvisee", rf'advises (?P<advisee>{_NAME}) on',
        groups={"advisee": "advisee"}, scope=80, context=12,
        work_factor=round(1200 * work_scale))
    topic = RegexExtractor(
        "extractAdvTopic", r' on (?P<topic>[a-z][a-z ]{2,40})\.',
        groups={"topic": "topic"}, scope=60, context=12,
        work_factor=round(1200 * work_scale))
    source = """
        advise(advisor, advisee, topic) :- docs(d),
            extractAdvisingSec(d, sec), extractAdviseSent(sec, sent),
            extractAdvisor(sent, advisor), extractAdvisee(sent, advisee),
            extractAdvTopic(sent, topic).
    """
    return _build("advise", "dblife", source,
                  [sec, sent, advisor, advisee, topic],
                  program_alpha=20539, program_beta=20539)


# -- Wikipedia tasks --------------------------------------------------------

def blockbuster_task(work_scale: float = 1.0) -> IETask:
    """``blockbuster(movie)`` — 2 blackboxes: a box-office section
    extractor feeding a gross-fact extractor. The gross-amount filter
    is a σ over the fact unit's scalar output and the head π keeps only
    the movie span — both are absorbed into the IE unit, so the unit
    stores post-σ/π tuples (Section 4)."""
    sec = SectionExtractor("extractBoxOfficeSec", "sec", "Box office",
                           scope=10625, context=32,
                           work_factor=round(10 * work_scale))
    # The extent is the movie span, but the scalar amount is read from
    # the text after it, so β must cover that whole tail. A bounded
    # amount keeps the tail finite (the generator's amounts are <= 480).
    fact = RegexExtractor(
        "extractGrossFact",
        rf'(?P<movie>{_MOVIE}) grossed \$(?P<amount>\d{{1,4}}) million',
        groups={"movie": "movie"},
        scalars={"amount": IntGroupScalar("amount")},
        scope=80, context=len(" grossed $") + 4 + len(" million"),
        work_factor=round(3000 * work_scale))
    source = """
        blockbuster(movie) :- docs(d), extractBoxOfficeSec(d, sec),
            extractGrossFact(sec, movie, amount), atLeast(amount, 100).
    """
    return _build("blockbuster", "wikipedia", source, [sec, fact],
                  program_alpha=10625, program_beta=10625)


def play_task(work_scale: float = 1.0) -> IETask:
    """``play(actor, movie)`` — 4 blackboxes (the Figure 12 task: a
    4-unit plan has exactly 4^4 = 256 matcher assignments)."""
    sec = SectionExtractor("extractFilmSec", "sec", "Filmography",
                           scope=10625, context=32,
                           work_factor=round(10 * work_scale))
    sent = LineExtractor("extractPlaySent", "sent", scope=300,
                         must_contain="starred as", context=4,
                         work_factor=round(80 * work_scale))
    actor = RegexExtractor(
        "extractPlayActor", rf'(?P<actor>{_NAME}) starred as',
        groups={"actor": "actor"}, scope=80, context=12,
        work_factor=round(1200 * work_scale))
    movie = RegexExtractor(
        "extractPlayMovie", rf'in (?P<movie>{_MOVIE}) \(\d{{4}}\)',
        groups={"movie": "movie"}, scope=60, context=10,
        work_factor=round(1200 * work_scale))
    source = """
        play(actor, movie) :- docs(d), extractFilmSec(d, sec),
            extractPlaySent(sec, sent), extractPlayActor(sent, actor),
            extractPlayMovie(sent, movie).
    """
    return _build("play", "wikipedia", source, [sec, sent, actor, movie],
                  program_alpha=10625, program_beta=10625)


def award_task(work_scale: float = 1.0) -> IETask:
    """``award(actor, award, movie, year)`` — 6 blackboxes."""
    sec = SectionExtractor("extractAwardSec", "sec", "Awards",
                           scope=8875, context=32,
                           work_factor=round(10 * work_scale))
    sent = LineExtractor("extractAwardSent", "sent", scope=300,
                         must_contain="won the", context=4,
                         work_factor=round(80 * work_scale))
    actor = RegexExtractor(
        "extractAwardActor", rf'(?P<actor>{_NAME}) won the',
        groups={"actor": "actor"}, scope=80, context=12,
        work_factor=round(900 * work_scale))
    award = RegexExtractor(
        "extractAwardName", r'won the (?P<award>[A-Z][A-Za-z ]+ Award'
                            r'(?: for Best [A-Za-z]+)?)',
        groups={"award": "award"}, scope=90, context=12,
        work_factor=round(900 * work_scale))
    movie = RegexExtractor(
        "extractAwardMovie", rf'for (?P<movie>{_MOVIE}) \(',
        groups={"movie": "movie"}, scope=60, context=10,
        work_factor=round(900 * work_scale))
    year = RegexExtractor(
        "extractAwardYear", r'\((?P<year>\d{4})\)',
        groups={"year": "year"}, scope=20, context=4,
        work_factor=round(900 * work_scale))
    source = """
        award(actor, award, movie, year) :- docs(d),
            extractAwardSec(d, sec), extractAwardSent(sec, sent),
            extractAwardActor(sent, actor), extractAwardName(sent, award),
            extractAwardMovie(sent, movie), extractAwardYear(sent, year).
    """
    return _build("award", "wikipedia", source,
                  [sec, sent, actor, award, movie, year],
                  program_alpha=8875, program_beta=8875)


# -- Learning-based program (Figure 15) -------------------------------------

def infobox_task(work_scale: float = 1.0) -> IETask:
    """The learning-based infobox program: an ME sentence segmenter
    feeding four CRF field extractors (5 blackboxes).

    The CRFs keep the conservative α = β = longest-sentence setting the
    paper uses when tight values cannot be derived; the ME segmenter
    gets the derived α=321, β=16. The models are genuinely expensive
    (Viterbi decoding per sentence); ``work_scale`` additionally scales
    the emulated feature-extraction work like the rule tasks.
    """
    wf = round(60 * work_scale)
    seg = MaxEntSentenceSegmenter("segmentSentences", "sent", scope=321,
                                  work_factor=round(20 * work_scale))
    crf_name = CRFFieldExtractor("crfName", "value", "name",
                                 work_factor=wf)
    crf_birth_name = CRFFieldExtractor("crfBirthName", "value",
                                       "birth_name", work_factor=wf)
    crf_birth_date = CRFFieldExtractor("crfBirthDate", "value",
                                       "birth_date", work_factor=wf)
    crf_roles = CRFFieldExtractor("crfRoles", "value", "roles",
                                  work_factor=wf)
    source = """
        name(d, value) :- docs(d), segmentSentences(d, sent),
                          crfName(sent, value).
        birthName(d, value) :- docs(d), segmentSentences(d, sent),
                               crfBirthName(sent, value).
        birthDate(d, value) :- docs(d), segmentSentences(d, sent),
                               crfBirthDate(sent, value).
        roles(d, value) :- docs(d), segmentSentences(d, sent),
                           crfRoles(sent, value).
    """
    return _build("infobox", "wikipedia", source,
                  [seg, crf_name, crf_birth_name, crf_birth_date, crf_roles],
                  program_alpha=2000, program_beta=500)


_TASK_FACTORIES = {
    "talk": talk_task,
    "chair": chair_task,
    "advise": advise_task,
    "blockbuster": blockbuster_task,
    "play": play_task,
    "award": award_task,
    "infobox": infobox_task,
}

RULE_TASKS: Tuple[str, ...] = ("talk", "chair", "advise",
                               "blockbuster", "play", "award")
ALL_TASKS: Tuple[str, ...] = RULE_TASKS + ("infobox",)


def make_task(name: str, work_scale: float = 1.0) -> IETask:
    """Instantiate an evaluation task by name."""
    try:
        factory = _TASK_FACTORIES[name]
    except KeyError:
        raise KeyError(f"unknown task {name!r}; choose from {ALL_TASKS}")
    return factory(work_scale=work_scale)
