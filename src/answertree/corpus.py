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
from dataclasses import dataclass
from enum import Enum

from .textprep import DEFAULT_CONFIG, PreprocessConfig, preprocess

CSV_HEADER = ["question_id", "answer", "label"]
UNGRADED_CSV_HEADER = ["question_id", "answer"]


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

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AnswerRecord:
    """One student answer, verbatim, with its expert grade."""

    question_id: str
    raw_text: str
    label: Label


@dataclass(frozen=True)
class Sample:
    features: frozenset[str]
    raw_text: str
    label: Label


@dataclass(frozen=True)
class QuestionDataset:
    question_id: str
    samples: tuple[Sample, ...]

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


@dataclass(frozen=True)
class ValidationReport:
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
    if format == "csv":
        return _parse_csv(content)
    if format == "json":
        return _parse_json(content)
    raise ValueError(f"unknown answer file format {format!r}")


def _parse_csv(content: str) -> list[AnswerRecord]:
    reader = csv.reader(io.StringIO(content))
    try:
        header = next(reader)
    except StopIteration:
        raise AnswerFileError("empty CSV file") from None
    if [h.strip() for h in header] != CSV_HEADER:
        raise AnswerFileError(
            f"bad CSV header {header!r}, expected {','.join(CSV_HEADER)}"
        )
    records = []
    for row_num, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != 3:
            raise AnswerFileError(
                f"row {row_num}: expected 3 columns, got {len(row)}"
            )
        question_id, answer, label_token = row
        records.append(_make_record(question_id, answer, label_token, f"row {row_num}"))
    return records


def _parse_json(content: str) -> list[AnswerRecord]:
    try:
        data = json.loads(content)
    except json.JSONDecodeError as exc:
        raise AnswerFileError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise AnswerFileError("JSON answer file must be an array of objects")
    records = []
    for index, element in enumerate(data):
        where = f"element {index}"
        if not isinstance(element, dict):
            raise AnswerFileError(f"{where}: expected an object")
        missing = [k for k in ("question_id", "answer", "label") if k not in element]
        if missing:
            raise AnswerFileError(f"{where}: missing key(s) {', '.join(missing)}")
        records.append(
            _make_record(
                str(element["question_id"]),
                str(element["answer"]),
                str(element["label"]),
                where,
            )
        )
    return records


def _make_record(
    question_id: str, answer: str, label_token: str, where: str
) -> AnswerRecord:
    if not question_id.strip():
        raise AnswerFileError(f"{where}: empty question_id")
    try:
        label = Label.parse(label_token)
    except ValueError as exc:
        raise AnswerFileError(f"{where}: {exc}") from exc
    return AnswerRecord(question_id=question_id, raw_text=answer, label=label)


def parse_ungraded_file(content: str, format: str) -> list[tuple[str, str]]:
    """Parse an ungraded answer file into (question_id, answer) pairs."""
    if format == "csv":
        reader = csv.reader(io.StringIO(content))
        try:
            header = next(reader)
        except StopIteration:
            raise AnswerFileError("empty CSV file") from None
        if [h.strip() for h in header] != UNGRADED_CSV_HEADER:
            raise AnswerFileError(
                f"bad CSV header {header!r}, expected {','.join(UNGRADED_CSV_HEADER)}"
            )
        pairs = []
        for row_num, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != 2:
                raise AnswerFileError(
                    f"row {row_num}: expected 2 columns, got {len(row)}"
                )
            if not row[0].strip():
                raise AnswerFileError(f"row {row_num}: empty question_id")
            pairs.append((row[0], row[1]))
        return pairs
    if format == "json":
        try:
            data = json.loads(content)
        except json.JSONDecodeError as exc:
            raise AnswerFileError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, list):
            raise AnswerFileError("JSON answer file must be an array of objects")
        pairs = []
        for index, element in enumerate(data):
            if not isinstance(element, dict) or "question_id" not in element or "answer" not in element:
                raise AnswerFileError(
                    f"element {index}: expected an object with question_id and answer"
                )
            pairs.append((str(element["question_id"]), str(element["answer"])))
        return pairs
    raise ValueError(f"unknown answer file format {format!r}")


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
    prep: PreprocessConfig = DEFAULT_CONFIG,
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
        Sample(features=preprocess(text, prep), raw_text=text, label=label)
        for text, label in seen.items()
    )
    return QuestionDataset(question_id=question_id, samples=samples)


def validate_dataset(
    records: list[AnswerRecord], prep: PreprocessConfig = DEFAULT_CONFIG
) -> ValidationReport:
    """Report label conflicts and stopword-only answers without raising."""
    question_id = records[0].question_id if records else ""
    seen, conflicts = _dedup_non_blank(records)
    empty = tuple(
        text for text in seen if not preprocess(text, prep)
    )
    return ValidationReport(
        question_id=question_id,
        conflicts=tuple(conflicts),
        empty_after_preprocessing=empty,
        sample_count=len(seen),
    )
