"""Record spans around answertree's public functions, from outside the package.

``Tracer.install`` replaces each traced function with a timing wrapper at
every module attribute that holds it, so names a module imported directly
(``evaluation.build_tree``, ``evaluation.classify``, ``corpus.preprocess``)
are traced too. Spans stay in memory as ``(name, parent, start, end)`` and
are summarised or written out after the timed work ends. A span's self time
is its duration minus the durations of the spans it directly caused.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from pathlib import Path

# Span name -> (module, function) pairs whose calls it records.
TRACED = {
    "cli.main": [("cli", "main")],
    "corpus.parse": [("corpus", "parse_answer_file"), ("corpus", "parse_ungraded_file")],
    "corpus.validate_dataset": [("corpus", "validate_dataset")],
    "corpus.build_question_dataset": [("corpus", "build_question_dataset")],
    "textprep.preprocess": [("textprep", "preprocess")],
    "dtree.build_tree": [("dtree", "build_tree")],
    "dtree.select_best_rule": [("dtree", "select_best_rule")],
    "dtree.classify": [("dtree", "classify")],
    "dtree.serialize_tree": [("dtree", "serialize_tree")],
    "dtree.deserialize_tree": [("dtree", "deserialize_tree")],
    "evaluation.cross_validate": [("evaluation", "cross_validate")],
    "evaluation.build_report": [("evaluation", "build_report")],
}

# Per-call measures taken after a span closes: span name -> f(args, result).
_MEASURES = {
    "dtree.select_best_rule": lambda args, result: len(args[1]),  # candidate words
    "corpus.parse": lambda args, result: len(result),  # rows
    "corpus.build_question_dataset": lambda args, result: len(result),  # samples
    "dtree.serialize_tree": lambda args, result: len(result.encode("utf-8")),
}


PACKAGE = "answertree"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self.amounts: Counter[str] = Counter()
        self.texts: set[str] = set()  # distinct inputs to preprocess
        self.trees: list = []  # every tree build_tree returned
        self.wrapped: list[str] = []  # "module.attribute" sites replaced
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every traced function at each answertree attribute that holds it."""
        modules = {
            name: module
            for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        for span, sources in TRACED.items():
            for module_name, attribute in sources:
                module = modules.get(f"{PACKAGE}.{module_name}")
                target = getattr(module, attribute, None)
                if target is None:
                    continue  # gone after a refactor; its span will read missing
                wrapper = self._wrap(target, span)
                for holder_name, holder in modules.items():
                    for name, value in list(vars(holder).items()):
                        if value is target:
                            self._originals.append((holder, name, value))
                            setattr(holder, name, wrapper)
                            self.wrapped.append(f"{holder_name}.{name}")

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._originals):
            setattr(holder, name, value)
        self._originals.clear()

    def _wrap(self, function, span: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure = _MEASURES.get(span)
        amounts, texts, trees = self.amounts, self.texts, self.trees
        is_preprocess = span == "textprep.preprocess"
        is_build = span == "dtree.build_tree"

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((span, parent, 0.0, 0.0))
            stack.append(index)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span, parent, start, end)
            if measure is not None:
                amounts[span] += measure(args, result)
            elif is_preprocess:
                texts.add(args[0])
            elif is_build:
                trees.append(result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Write every span as ``index,parent,name,start_s,end_s`` CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][2] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as handle:
            handle.write("index,parent,name,start_s,end_s\n")
            for index, (name, parent, start, end) in enumerate(self.spans):
                handle.write(
                    f"{index},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n"
                )

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy_s, self_s, durations, and calls per parent."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [], "parents": Counter()}
            for name in TRACED
        }
        for index, (name, parent, start, end) in enumerate(self.spans):
            entry = out[name]
            duration = end - start
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += duration - child[index]
            entry["durations"].append(duration)
            entry["parents"][self.spans[parent][0] if parent >= 0 else ""] += 1
        return out

    def by_command(self) -> list[dict]:
        """Per top-level span (one ``cli.main`` call): its wall time, and the
        busy time and share of that wall time of each span name under it."""
        roots: list[int] = []
        commands: list[dict] = []
        for index, (name, parent, start, end) in enumerate(self.spans):
            if parent < 0:
                roots.append(len(commands))
                commands.append({"span": name, "wall_s": end - start, "busy_s": Counter()})
            else:
                roots.append(roots[parent])
                commands[roots[index]]["busy_s"][name] += end - start
        for command in commands:
            command["busy_s"] = dict(command["busy_s"])
            command["share"] = {name: busy / command["wall_s"] for name, busy in command["busy_s"].items()}
        return commands


def quantile(values: list[float], fraction: float) -> float:
    """The ``fraction`` quantile by ``statistics.quantiles`` (exclusive method)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100)
    return cuts[round(fraction * 100) - 1]
