"""Ingest labeled answer files and build per-question training datasets.

A dataset holds the unique, non-blank answers for one question. Duplicate
answers that were graded both ways are a hard error: the expert grading
process is supposed to have resolved those before the data exists, and
silently picking a side would corrupt training.
"""

from __future__ import annotations

import csv
import json
from enum import Enum
from functools import cached_property
from operator import length_hint
from typing import Callable, Iterator, NamedTuple, TypeVar

from .textprep import DEFAULT_STOPWORDS, preprocess

CSV_HEADER = ["question_id", "answer", "label"]
UNGRADED_CSV_HEADER = ["question_id", "answer"]

_T = TypeVar("_T")


class CorpusError(Exception):
    """An answer file, batch, stopword file, fixture, tree file or dataset
    that cannot be used; the message names the offending row, element, node
    or answers."""


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
        return self.index.correct.bit_count()

    @property
    def incorrect_count(self) -> int:
        return len(self.samples) - self.correct_count

    @property
    def average_grade(self) -> float:
        return self.correct_count / len(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


def parse_answer_file(content: str, format: str) -> list[AnswerRecord]:
    """Parse a graded answer file. ``format`` is ``"csv"`` or ``"json"``."""

    def build(row: list[str]) -> AnswerRecord:
        return AnswerRecord(row[0], row[1], Label.parse(row[2]))

    return read_rows(content, format, CSV_HEADER, build)


def parse_ungraded_file(
    content: str, format: str, build: Callable[[list[str], str | None], _T]
) -> list[_T]:
    """Read an ungraded answer file as ``read_rows`` does, with ``build(row,
    line)``: ``line`` is the record's own text when it is one CSV line with
    no '"', CR or NUL, so ``row`` is that line split at its one comma, and
    None for any other record."""
    if format == "csv":
        return _read_csv(content, UNGRADED_CSV_HEADER, build)
    return read_rows(content, format, UNGRADED_CSV_HEADER, lambda row: build(row, None))


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
    a bad one. Identical records share one item, built once, in every
    format: a one-line CSV record is known by its line, and a record that
    spans lines or a JSON element by its fields. The first bad row in file
    order raises CorpusError naming it.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown answer file format {format!r}")
    if format == "csv":
        return _read_csv(content, columns, lambda row, line: build(row))
    try:
        # A number is read as its text: 1e400 stays "1e400", not "inf".
        data = json.loads(content, parse_float=str, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # also an over-long integer
        raise CorpusError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise CorpusError("JSON answer file must be an array of objects")
    items = []
    built: dict[tuple[str, ...], _T] = {}  # the item of each element, by its fields
    try:
        for n, element in enumerate(data):
            if not isinstance(element, dict):
                raise ValueError("expected an object")
            try:
                row = [_json_text(c, element[c]) for c in columns]
            except KeyError:
                missing = ", ".join(c for c in columns if c not in element)
                raise ValueError(f"missing key(s) {missing}") from None
            _check_row(row, len(columns))
            item = built.get(key := tuple(row))
            if item is None:
                item = built[key] = build(row)
            items.append(item)
    except ValueError as exc:
        raise CorpusError(f"element {n}: {exc}") from None
    return items


def _check_row(row: list[str], width: int) -> None:
    """Raise ValueError unless ``row`` has ``width`` fields, the first not blank."""
    if len(row) != width:
        raise ValueError(f"expected {width} columns, got {len(row)}")
    if not row[0].strip():
        raise ValueError("empty question_id")


def _read_csv(
    content: str, columns: list[str], build: Callable[[list[str], str | None], _T]
) -> list[_T]:
    """The items of a CSV text's non-blank records after its header
    ``columns``, in file order: ``build`` on each distinct record's checked
    fields and, as ``parse_ungraded_file`` gives it, its line or None.

    The text is walked line by line. At a record's start, a line with no
    '"', CR or NUL, and no longer than ``csv.field_size_limit()``, is a whole
    record split at commas, as ``csv.reader`` splits it; any other line goes
    to one ``csv.reader``, which pulls the lines its record spans. Row
    numbers and ``CSV line N`` are the ones a ``csv.reader`` on the whole
    text gives. A one-line record whose line came before is not read again,
    and a record spanning lines whose fields came before is not built again:
    each shares the earlier record's item.
    """
    lines = content.split("\n")
    open_end = lines[-1] != ""  # the last line has no newline
    if not open_end:
        lines.pop()  # the empty text after the final newline
    rest = iter(lines)
    limit = csv.field_size_limit()
    start: str | None = None  # the line, already read, of the reader's next record

    def pull() -> Iterator[str]:
        nonlocal start
        while True:
            line, start = start, None
            if line is None:
                line = next(rest, None)
                if line is None:
                    return
            # The reader sees each line as a file holds it.
            yield line if open_end and not length_hint(rest) else line + "\n"

    reader = csv.reader(pull())

    def parse(line: str) -> list[str]:
        """The fields of the record that starts at ``line``, the last line
        read, by the reader."""
        nonlocal start
        start = line
        try:
            return next(reader)
        except csv.Error as exc:
            raise CorpusError(f"CSV line {len(lines) - length_hint(rest)}: {exc}") from None

    if not lines:
        raise CorpusError("empty CSV file")
    width = len(columns)
    items: list[_T] = []
    built: dict[str | tuple[str, ...], _T] = {}  # by line, or by fields if it spans lines
    try:
        for n, line in enumerate(rest):  # record 0 is the header
            item = built.get(line)
            if item is None:
                plain = not ('"' in line or "\r" in line or "\0" in line or len(line) > limit)
                if plain:
                    row = line.split(",") if line else []
                else:
                    left = length_hint(rest)
                    row = parse(line)
                if not n:
                    if [h.strip() for h in row] != columns:
                        raise CorpusError(
                            f"bad CSV header {row!r}, expected {','.join(columns)}"
                        )
                    continue
                if not row:
                    continue  # a blank record
                if len(row) != width or not row[0].strip():
                    _check_row(row, width)
                key: str | tuple[str, ...] = line
                if not plain and length_hint(rest) != left:  # the record spans lines
                    item = built.get(key := tuple(row))
                if item is None:
                    item = built[key] = build(row, line if plain else None)
            items.append(item)
    except ValueError as exc:
        raise CorpusError(f"row {n}: {exc}") from None
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
    if type(value) is int:  # bool is not; a float is already its text
        return str(value)
    kind = {list: "an array", dict: "an object"}.get(type(value)) or json.dumps(value)
    raise ValueError(f"{column} must be text or a number, not {kind}")


def group_records(records: list[AnswerRecord]) -> dict[str, list[AnswerRecord]]:
    """Group records by question id, preserving first-seen question order."""
    groups: dict[str, list[AnswerRecord]] = {}
    for record in records:
        groups.setdefault(record.question_id, []).append(record)
    return groups


def build_question_dataset(
    records: list[AnswerRecord],
    question_id: str,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
) -> QuestionDataset:
    """Build the training dataset for one question.

    The texts are ``validate_dataset``'s: blank answers are dropped and
    exact-duplicate texts collapsed to one sample. Each sample carries its
    preprocessed word set.
    """
    for record in records:
        if record.question_id != question_id:
            raise ValueError(
                f"record for question {record.question_id!r} passed to dataset "
                f"{question_id!r}"
            )
    texts = validate_dataset(records, stopwords)
    if not texts:
        raise CorpusError(f"question {question_id!r}: no non-blank answers to train on")
    samples = tuple(
        Sample(features=preprocess(text, stopwords), raw_text=text, label=label)
        for text, label in texts.items()
    )
    return QuestionDataset(question_id=question_id, samples=samples)


def validate_dataset(
    records: list[AnswerRecord], stopwords: frozenset[str] = DEFAULT_STOPWORDS
) -> dict[str, Label]:
    """One question's distinct non-blank answer texts with their labels, in
    first-seen order. A text graded both ways raises CorpusError reporting
    the question's unique sample count, each such text and each text with
    no word left after preprocessing."""
    seen: dict[str, Label] = {}
    conflicts: list[str] = []
    for record in records:
        if not record.raw_text.strip():
            continue
        previous = seen.setdefault(record.raw_text, record.label)
        if previous is not record.label and record.raw_text not in conflicts:
            conflicts.append(record.raw_text)
    # Every text is preprocessed, conflict or not, until ingest is one pass.
    empty = [text for text in seen if not preprocess(text, stopwords)]
    if conflicts:
        lines = [f"question {records[0].question_id!r}: {len(seen)} unique samples"]
        for text in conflicts:
            lines.append(f"  conflict: {text!r} was graded both correct and incorrect")
        for text in empty:
            lines.append(f"  no features left after preprocessing: {text!r}")
        raise CorpusError("\n".join(lines))
    return seen
