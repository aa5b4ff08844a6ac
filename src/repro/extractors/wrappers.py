"""Extractor wrappers used by experiments.

:class:`MentionMultiplier` reproduces the Figure 14 experiment setup:
the paper modifies each IE blackbox so every extracted mention is
output multiple times, inflating the captured IE results. Exact
duplicates would be collapsed by set semantics, so each replica carries
a distinguishing ``copy_id`` scalar — the capture files and copy work
grow by the multiplier while the underlying extraction is unchanged.
"""

from __future__ import annotations

from typing import Iterable, List

from .base import Extraction, Extractor


class MentionMultiplier(Extractor):
    """Emits each underlying extraction ``factor`` times.

    Replicas differ only in the appended ``copy_id`` field. Scope,
    context, splitter and split key are inherited from the wrapped extractor;
    correctness of reuse is therefore unaffected.
    """

    def __init__(self, inner: Extractor, factor: int,
                 copy_var: str = "copy_id") -> None:
        if factor < 1:
            raise ValueError("factor must be >= 1")
        super().__init__(inner.name, list(inner.output_vars) + [copy_var],
                         inner.scope, inner.context, work_factor=0)
        self.splitter = inner.splitter
        self.split_key = inner.split_key
        self.inner = inner
        self.factor = factor
        self.copy_var = copy_var
        # Keep the engine's span/scalar classification correct.
        self.scalars = dict(getattr(inner, "scalars", {}) or {})
        self.scalars[copy_var] = None

    def _extract(self, text: str) -> Iterable[Extraction]:
        for extraction in self.inner.extract(text):
            for i in range(self.factor):
                yield Extraction(tuple(sorted(
                    extraction.fields + ((self.copy_var, i),))))


def multiply_task_mentions(task, factor: int):
    """Return a copy of an IE task whose *leaf* blackboxes emit every
    mention ``factor`` times (the Figure 14 workload).

    Only blackboxes whose outputs are not consumed as regions by other
    IE predicates are multiplied — multiplying an upstream region
    extractor would cascade multiplicatively through the tree, whereas
    the paper's experiment grows the total mention count linearly.
    """
    from ..xlog.parser import parse_program
    from ..xlog.registry import Registry
    from ..xlog.validation import validate_program
    from .library import IETask

    base_program = parse_program(task.source, name=task.name)
    ie_input_vars = set()
    for rule in base_program.rules:
        for atom in rule.body:
            if task.registry.is_ie_predicate(atom.pred):
                ie_input_vars.add(atom.args[0].name)

    def is_leaf(pred: str) -> bool:
        for rule in base_program.rules:
            for atom in rule.body:
                if atom.pred != pred:
                    continue
                for arg in atom.args[1:]:
                    if arg.name in ie_input_vars:
                        return False
        return True

    registry = Registry()
    source = task.source
    multiplied: List[str] = []
    for name in task.blackboxes:
        inner = task.registry.extractor(name)
        if is_leaf(name):
            registry.register_extractor(MentionMultiplier(inner, factor))
            # The IE predicate gains one output argument (the copy id).
            source = _add_copy_arg(source, name, f"cid_{name}")
            multiplied.append(name)
        else:
            registry.register_extractor(inner)
    program = parse_program(source, name=f"{task.name}_x{factor}")
    validate_program(program, registry)
    return IETask(name=f"{task.name}_x{factor}", corpus=task.corpus,
                  source=source, registry=registry, program=program,
                  program_alpha=task.program_alpha,
                  program_beta=task.program_beta,
                  blackboxes=task.blackboxes)


def _add_copy_arg(source: str, pred: str, var: str) -> str:
    """Append an output variable to every atom of ``pred`` in a
    program source (textual rewrite; atoms never span lines in the
    library sources... they may, so match across whitespace)."""
    import re

    def repl(match: "re.Match[str]") -> str:
        return match.group(0)[:-1] + f", {var})"

    return re.sub(rf"\b{re.escape(pred)}\([^)]*\)", repl, source)
