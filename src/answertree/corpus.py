"""Ingest labeled answer files and build per-question training datasets.

A dataset holds the unique, non-blank answers for one question. Duplicate
answers that were graded both ways are a hard error: the expert grading
process is supposed to have resolved those before the data exists, and
silently picking a side would corrupt training.
"""

from __future__ import annotations

import csv
import io
import json
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple, TypeVar

from .textprep import DEFAULT_STOPWORDS, preprocess

CSV_HEADER = ["question_id", "answer", "label"]
UNGRADED_CSV_HEADER = ["question_id", "answer"]

_T = TypeVar("_T")


class CorpusError(Exception):
    """Base class for ingestion and dataset-construction failures."""


class AnswerFileError(CorpusError):
    """Malformed answer file; message names the offending row or element."""


class LabelConflictError(CorpusError):
    """The same answer text was graded both correct and incorrect."""

    def __init__(self, question_id: str, conflicts: tuple[str, ...]):
        self.question_id = question_id
        self.conflicts = conflicts
        listed = ", ".join(repr(t) for t in conflicts)
        super().__init__(
            f"question {question_id!r}: conflicting labels for answer(s): {listed}"
        )


class EmptyDatasetError(CorpusError):
    """No samples survived blank filtering."""


class Label(Enum):
    CORRECT = "correct"
    INCORRECT = "incorrect"

    @classmethod
    def parse(cls, token: str) -> "Label":
        normalized = token.strip().lower()
        if normalized in ("correct", "1"):
            return cls.CORRECT
        if normalized in ("incorrect", "0"):
            return cls.INCORRECT
        raise ValueError(f"unknown label token {token!r}")


class AnswerRecord(NamedTuple):
    """One student answer, verbatim, with its expert grade."""

    question_id: str
    raw_text: str
    label: Label


class Sample(NamedTuple):
    features: frozenset[str]
    raw_text: str
    label: Label


class SampleIndex(NamedTuple):
    """Samples as bit masks, bit ``i`` for sample ``i``: all of them, each
    word's and the correct ones; ``words`` lists the words, sorted."""

    all: int
    word_masks: dict[str, int]
    correct: int
    words: list[str]


class QuestionDataset:
    """One question's unique samples; ``len`` counts them. Not a NamedTuple,
    whose ``_make`` and ``_replace`` would take that ``len`` for its arity."""

    def __init__(self, question_id: str, samples: tuple[Sample, ...]):
        object.__setattr__(self, "question_id", question_id)
        object.__setattr__(self, "samples", samples)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuestionDataset):
            return NotImplemented
        return (self.question_id, self.samples) == (other.question_id, other.samples)

    def __hash__(self) -> int:
        return hash((self.question_id, self.samples))

    def __repr__(self) -> str:
        return f"QuestionDataset(question_id={self.question_id!r}, samples={self.samples!r})"

    # Built on first use and kept in the instance dict, out of __eq__,
    # __hash__ and __repr__: every tree and count of the question shares it.
    @cached_property
    def index(self) -> SampleIndex:
        word_masks: dict[str, int] = {}
        correct = 0
        for i, s in enumerate(self.samples):
            bit = 1 << i
            if s.label is Label.CORRECT:
                correct |= bit
            for word in s.features:
                word_masks[word] = word_masks.get(word, 0) | bit
        every = (1 << len(self.samples)) - 1
        return SampleIndex(every, word_masks, correct, sorted(word_masks))

    @property
    def correct_count(self) -> int:
        return sum(1 for s in self.samples if s.label is Label.CORRECT)

    @property
    def incorrect_count(self) -> int:
        return len(self.samples) - self.correct_count

    @property
    def average_grade(self) -> float:
        return self.correct_count / len(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


class ValidationReport(NamedTuple):
    question_id: str
    conflicts: tuple[str, ...]
    empty_after_preprocessing: tuple[str, ...]
    sample_count: int

    @property
    def ok(self) -> bool:
        return not self.conflicts

    def render(self) -> str:
        lines = [f"question {self.question_id!r}: {self.sample_count} unique samples"]
        for text in self.conflicts:
            lines.append(f"  conflict: {text!r} was graded both correct and incorrect")
        for text in self.empty_after_preprocessing:
            lines.append(f"  no features left after preprocessing: {text!r}")
        return "\n".join(lines)


def parse_answer_file(content: str, format: str) -> list[AnswerRecord]:
    """Parse a graded answer file. ``format`` is ``"csv"`` or ``"json"``."""

    def build(row: list[str]) -> AnswerRecord:
        return AnswerRecord(row[0], row[1], Label.parse(row[2]))

    return read_rows(content, format, CSV_HEADER, build)


def parse_ungraded_file(content: str, format: str) -> list[tuple[str, str]]:
    """Parse an ungraded answer file into (question_id, answer) pairs."""
    return read_rows(content, format, UNGRADED_CSV_HEADER, tuple)


def read_rows(
    content: str, format: str, columns: list[str], build: Callable[[list[str]], _T]
) -> list[_T]:
    """Read a table whose fields are ``columns``, ``question_id`` first: a
    graded answer file, an ungraded batch or a per-question results fixture.

    A CSV file has ``columns`` as its header; blank lines are skipped but
    count in row numbers. A JSON file is an array of objects holding every
    column as a key, each value a string or a number read as its text; a
    string must encode as UTF-8, so a lone surrogate escape is an error.
    ``build`` makes each row's item from its fields and raises ValueError on
    a bad one. The first bad row in file order raises AnswerFileError naming it.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown answer file format {format!r}")
    width = len(columns)
    items = []
    try:
        if format == "csv":
            reader = csv.reader(io.StringIO(content))
            header = next(reader, None)
            if header is None:
                raise AnswerFileError("empty CSV file")
            if [h.strip() for h in header] != columns:
                raise AnswerFileError(
                    f"bad CSV header {header!r}, expected {','.join(columns)}"
                )
            where, rows = "row", enumerate(reader, start=1)
        else:
            try:
                data = json.loads(content, parse_constant=_reject_constant)
            except (ValueError, RecursionError) as exc:  # also an over-long integer
                raise AnswerFileError(f"invalid JSON: {exc}") from None
            if not isinstance(data, list):
                raise AnswerFileError("JSON answer file must be an array of objects")
            where, rows = "element", enumerate(data)
        for n, row in rows:
            if where == "element":
                if not isinstance(row, dict):
                    raise ValueError("expected an object")
                try:
                    row = [_json_text(c, row[c]) for c in columns]
                except KeyError:
                    missing = ", ".join(c for c in columns if c not in row)
                    raise ValueError(f"missing key(s) {missing}") from None
            elif not row:
                continue
            elif len(row) != width:
                raise ValueError(f"expected {width} columns, got {len(row)}")
            if not row[0].strip():
                raise ValueError("empty question_id")
            items.append(build(row))
    except ValueError as exc:
        raise AnswerFileError(f"{where} {n}: {exc}") from None
    except csv.Error as exc:
        raise AnswerFileError(f"CSV line {reader.line_num}: {exc}") from None
    return items


def _reject_constant(name: str) -> float:
    raise ValueError(f"{name} is not a JSON value")


def is_utf8(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8: JSON's ``\\ud800`` escapes load as
    lone surrogates, which no file can hold."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _json_text(column: str, value: object) -> str:
    if isinstance(value, str):
        if not is_utf8(value):
            raise ValueError(f"{column} holds a lone surrogate, which is not text")
        return value
    if type(value) in (int, float):  # bool is neither
        return str(value)
    kind = {list: "an array", dict: "an object"}.get(type(value)) or json.dumps(value)
    raise ValueError(f"{column} must be text or a number, not {kind}")


def group_records(records: list[AnswerRecord]) -> dict[str, list[AnswerRecord]]:
    """Group records by question id, preserving first-seen question order."""
    groups: dict[str, list[AnswerRecord]] = {}
    for record in records:
        groups.setdefault(record.question_id, []).append(record)
    return groups


def _dedup_non_blank(records: list[AnswerRecord]) -> tuple[dict[str, Label], list[str]]:
    """Collapse non-blank records to one label per raw text; return conflicts."""
    seen: dict[str, Label] = {}
    conflicts: list[str] = []
    for record in records:
        if not record.raw_text.strip():
            continue
        previous = seen.get(record.raw_text)
        if previous is None:
            seen[record.raw_text] = record.label
        elif previous is not record.label and record.raw_text not in conflicts:
            conflicts.append(record.raw_text)
    return seen, conflicts


def build_question_dataset(
    records: list[AnswerRecord],
    question_id: str,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
) -> QuestionDataset:
    """Build the training dataset for one question.

    Blank answers are dropped, exact-duplicate texts are collapsed to one
    sample, and each survivor carries its preprocessed word set.
    """
    for record in records:
        if record.question_id != question_id:
            raise ValueError(
                f"record for question {record.question_id!r} passed to dataset "
                f"{question_id!r}"
            )
    seen, conflicts = _dedup_non_blank(records)
    if conflicts:
        raise LabelConflictError(question_id, tuple(conflicts))
    if not seen:
        raise EmptyDatasetError(
            f"question {question_id!r}: no non-blank answers to train on"
        )
    samples = tuple(
        Sample(features=preprocess(text, stopwords), raw_text=text, label=label)
        for text, label in seen.items()
    )
    return QuestionDataset(question_id=question_id, samples=samples)


def validate_dataset(
    records: list[AnswerRecord], stopwords: frozenset[str] = DEFAULT_STOPWORDS
) -> ValidationReport:
    """Report label conflicts and stopword-only answers without raising."""
    question_id = records[0].question_id if records else ""
    seen, conflicts = _dedup_non_blank(records)
    empty = tuple(
        text for text in seen if not preprocess(text, stopwords)
    )
    return ValidationReport(
        question_id=question_id,
        conflicts=tuple(conflicts),
        empty_after_preprocessing=empty,
        sample_count=len(seen),
    )
