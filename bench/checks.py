"""Output checks and digests for the benchmark's commands.

Each check reads what one ``answertree`` command wrote and raises
``CheckError`` naming the first defect it finds. Digests hash file names and
bytes, so two runs of one command can be compared byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

GRADED_HEADER = ["question_id", "answer", "label", "certainty", "flagged", "critical_word"]
REPORT_CSV_HEADER = [
    "question_id",
    "average_grade",
    "dt_accuracy",
    "unique_all",
    "unique_correct",
    "unique_incorrect",
]
LABELS = ("correct", "incorrect")


class CheckError(Exception):
    """An output failed a check."""


def digest(paths: list[Path], root: Path) -> str:
    """SHA-256 over each file's path relative to ``root`` and its bytes."""
    hasher = hashlib.sha256()
    for path in sorted(paths):
        hasher.update(path.relative_to(root).as_posix().encode() + b"\0")
        hasher.update(path.read_bytes() + b"\0")
    return hasher.hexdigest()


def _unit_interval(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CheckError(f"{where}: {value!r} is not a number")
    if not 0.0 <= value <= 1.0:  # also rejects NaN
        raise CheckError(f"{where}: {value!r} is outside [0, 1]")
    return float(value)


def check_trees(out_dir: Path, question_ids: list[str], trained_at: str) -> list[Path]:
    """One parseable tree file per question, stamped with ``trained_at``."""
    files = sorted(out_dir.glob("*.tree.json"))
    names = [p.name for p in files]
    expected = sorted(f"{q}.tree.json" for q in question_ids)
    if names != expected:
        raise CheckError(f"tree files {names} differ from expected {expected}")
    for path in files:
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise CheckError(f"{path.name}: invalid JSON: {exc}") from None
        if not isinstance(document, dict) or not isinstance(document.get("root"), dict):
            raise CheckError(f"{path.name}: no root node")
        if f"{document.get('question_id')}.tree.json" != path.name:
            raise CheckError(f"{path.name}: question_id {document.get('question_id')!r}")
        if document.get("trained_at") != trained_at:
            raise CheckError(f"{path.name}: trained_at {document.get('trained_at')!r}")
    return files


def check_report(out_dir: Path, expected_rows: dict[str, dict]) -> float:
    """Check report.json and report.csv; return ``summary.mean_accuracy``.

    ``expected_rows`` maps each question id, in report order, to the values
    its row must carry exactly (average grade and the unique-word counts).
    """
    try:
        document = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        rows = document["rows"]
        summary = document["summary"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CheckError(f"report.json unreadable: {exc!r}") from None
    if not isinstance(summary, dict) or not isinstance(rows, list) or not all(
        isinstance(row, dict) for row in rows
    ):
        raise CheckError("report.json rows and summary must be objects")
    ids = [row.get("question_id") for row in rows]
    if ids != list(expected_rows):
        raise CheckError(f"report.json questions {ids} differ from {list(expected_rows)}")
    if summary.get("question_count") != len(expected_rows):
        raise CheckError(f"report.json question_count {summary.get('question_count')!r}")
    accuracies = []
    for row in rows:
        where = f"report.json {row['question_id']}"
        accuracies.append(_unit_interval(row.get("dt_accuracy"), f"{where} dt_accuracy"))
        for key, value in expected_rows[row["question_id"]].items():
            if row.get(key) != value:
                raise CheckError(f"{where} {key} is {row.get(key)!r}, expected {value!r}")
    mean = _unit_interval(summary.get("mean_accuracy"), "report.json mean_accuracy")
    if not math.isclose(mean, sum(accuracies) / len(accuracies), rel_tol=1e-9):
        raise CheckError(f"report.json mean_accuracy {mean} is not the row mean")
    try:
        table = list(csv.reader(io.StringIO((out_dir / "report.csv").read_text(encoding="utf-8"))))
    except OSError as exc:
        raise CheckError(f"report.csv unreadable: {exc!r}") from None
    if not table or table[0] != REPORT_CSV_HEADER:
        raise CheckError("report.csv has a bad header")
    if [r[0] for r in table[1:] if r] != ids:
        raise CheckError("report.csv questions differ from report.json")
    return mean


def check_graded(out_path: Path, batch_path: Path) -> list[tuple[str, bool]]:
    """Check a graded CSV against its input batch; return (label, flagged) per row."""
    try:
        graded = list(csv.reader(io.StringIO(out_path.read_text(encoding="utf-8"))))
    except OSError as exc:
        raise CheckError(f"graded CSV unreadable: {exc!r}") from None
    batch = list(csv.reader(io.StringIO(batch_path.read_text(encoding="utf-8"))))
    if not graded or graded[0] != GRADED_HEADER:
        raise CheckError(f"graded CSV header {graded[:1]!r}")
    if len(graded) != len(batch):
        raise CheckError(f"graded CSV has {len(graded) - 1} rows, input has {len(batch) - 1}")
    results = []
    for number, (row, source) in enumerate(zip(graded[1:], batch[1:]), start=1):
        where = f"graded CSV row {number}"
        if len(row) != len(GRADED_HEADER):
            raise CheckError(f"{where}: {len(row)} columns")
        question_id, answer, label, certainty, flagged, _ = row
        if [question_id, answer] != source:
            raise CheckError(f"{where}: does not echo input row {source!r}")
        if label not in LABELS:
            raise CheckError(f"{where}: label {label!r}")
        try:
            value = float(certainty)
        except ValueError:
            raise CheckError(f"{where}: certainty {certainty!r}") from None
        _unit_interval(value, f"{where} certainty")
        if flagged not in ("true", "false"):
            raise CheckError(f"{where}: flagged {flagged!r}")
        results.append((label, flagged == "true"))
    return results
