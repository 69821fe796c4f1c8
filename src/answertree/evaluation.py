"""Cross-validation, correlation statistics, and report assembly.

Statistics are implemented natively: the Pearson p-value comes from the
exact two-tailed t-test, with the t CDF evaluated through the regularized
incomplete beta function (continued fraction, absolute error well under
1e-9).
"""

from __future__ import annotations

import json
import math
import random
import re
from typing import NamedTuple

from .corpus import CorpusError, Label, QuestionDataset, csv_line, read_rows
from .dtree import build_tree, classify

GRADE_BAND = (0.40, 0.60)
REPORT_CSV_HEADER = [
    "question_id",
    "average_grade",
    "dt_accuracy",
    "unique_all",
    "unique_correct",
    "unique_incorrect",
]


def make_stratified_folds(
    labels: list[Label], k: int = 10, seed: int = 0
) -> tuple[int, ...]:
    """Deterministic k-fold assignment, the fold of each label in order: deals
    each label class, in a seeded shuffle, round-robin, so every fold keeps
    roughly the dataset's class balance. With ``2 <= k <= len(labels)`` every
    fold holds at least one label and at most all but one."""
    if k < 2:
        raise ValueError(f"need at least 2 folds, got k={k}")
    if len(labels) < k:
        raise ValueError(f"cannot make {k} folds from {len(labels)} samples")
    rng = random.Random(seed)
    assignments = [0] * len(labels)
    position = 0
    for label in (Label.CORRECT, Label.INCORRECT):
        indices = [i for i, l in enumerate(labels) if l is label]
        rng.shuffle(indices)
        for index in indices:
            assignments[index] = position % k
            position += 1
    return tuple(assignments)


class QuestionAccuracy(NamedTuple):
    accuracy: float
    per_fold: tuple[tuple[int, int], ...]  # (correct classifications, test size)


def cross_validate(
    dataset: QuestionDataset, min_gain: float, k: int, seed: int
) -> QuestionAccuracy:
    """Deal the samples into ``k`` stratified folds with ``seed``, train on
    k-1 folds with ``min_gain``, grade the held-out fold, and pool hits over
    all folds. Every fold, and so every training split, is non-empty."""
    samples = dataset.samples
    assignments = make_stratified_folds([s.label for s in samples], k, seed)
    folds: list[list] = [[] for _ in range(k)]
    masks = [0] * k
    for index, (sample, fold) in enumerate(zip(samples, assignments)):
        folds[fold].append(sample)
        masks[fold] |= 1 << index
    per_fold = []
    for test, mask in zip(folds, masks):
        tree = build_tree(dataset, min_gain, held_out=mask)
        hits = sum(
            1 for s in test if classify(tree, s.features).label is s.label
        )
        per_fold.append((hits, len(test)))
    return QuestionAccuracy(
        accuracy=sum(h for h, _ in per_fold) / len(samples),
        per_fold=tuple(per_fold),
    )


# --- Pearson correlation with exact t-distribution p-value ----------------


class CorrelationResult(NamedTuple):
    r: float
    p: float
    n: int


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Lentz's algorithm for the incomplete beta continued fraction.
    max_iterations = 300
    eps = 1e-16
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        # The even step, then the odd one; convergence is checked after both.
        for numerator in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + numerator * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + numerator / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    # Use whichever tail the continued fraction converges fastest on.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_tailed_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for a Student t variable with df degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def pearson(xs: list[float], ys: list[float]) -> CorrelationResult:
    """Product-moment correlation with a two-tailed t-test p-value."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 3:
        raise ValueError(f"need at least 3 pairs, got {n}")
    # Test constancy on the values: a rounded mean leaves a constant series
    # with ulp-sized deviations and a spurious nonzero sum of squares.
    if min(xs) == max(xs) or min(ys) == max(ys):
        raise ValueError("correlation is undefined for a constant series")
    # math.fsum sums exactly, where sum's rounding differs by Python version;
    # it raises OverflowError on a sum past the largest float.
    try:
        mean_x = math.fsum(xs) / n
        mean_y = math.fsum(ys) / n
        dx = [x - mean_x for x in xs]
        dy = [y - mean_y for y in ys]
        ssx = math.fsum(d * d for d in dx)
        ssy = math.fsum(d * d for d in dy)
    except OverflowError:
        raise ValueError("correlation is undefined: a sum overflows") from None
    if ssx == 0.0 or ssy == 0.0:
        raise ValueError("correlation is undefined: deviations underflow to zero")
    if not math.isfinite(ssx * ssy):
        raise ValueError("correlation is undefined: deviations overflow")
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(ssx * ssy)
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if 1.0 - r * r < 1e-15:
        p = 0.0
    else:
        t = r * math.sqrt(df / (1.0 - r * r))
        p = student_t_two_tailed_p(t, df)
    return CorrelationResult(r=r, p=p, n=n)


# --- Report assembly -------------------------------------------------------


class QuestionRow(NamedTuple):
    question_id: str
    average_grade: float
    accuracy: float
    unique_all: int
    unique_correct: int
    unique_incorrect: int


class ReportSummary(NamedTuple):
    question_count: int
    mean_accuracy: float
    band_mean_accuracy: float | None  # questions with grade in grade_band
    grade_band: tuple[float, float]
    questions_below_90: int
    questions_below_80: int


class EvaluationReport(NamedTuple):
    rows: tuple[QuestionRow, ...]
    summary: ReportSummary
    correlations: dict[str, CorrelationResult | None]


def _natural_key(question_id: str) -> tuple:
    # The digit runs are the odd parts. Not every str.isdigit() text is one:
    # "²" and "①" are digits that \d does not match and int() does not read.
    parts: list = re.split(r"(\d+)", question_id)
    parts[1::2] = map(int, parts[1::2])
    return tuple(parts)


def build_report(rows: list[QuestionRow]) -> EvaluationReport:
    """Sort rows, compute the summary, and correlate accuracy against each column."""
    if not rows:
        raise ValueError("cannot build a report from zero rows")
    ordered = tuple(sorted(rows, key=lambda row: _natural_key(row.question_id)))
    accuracies = [row.accuracy for row in ordered]
    in_band = [
        row.accuracy
        for row in ordered
        if GRADE_BAND[0] <= row.average_grade <= GRADE_BAND[1]
    ]
    summary = ReportSummary(
        question_count=len(ordered),
        mean_accuracy=math.fsum(accuracies) / len(accuracies),
        band_mean_accuracy=math.fsum(in_band) / len(in_band) if in_band else None,
        grade_band=GRADE_BAND,
        questions_below_90=sum(1 for a in accuracies if a < 0.90),
        questions_below_80=sum(1 for a in accuracies if a < 0.80),
    )
    columns = {
        "average_grade": [row.average_grade for row in ordered],
        "unique_all": [float(row.unique_all) for row in ordered],
        "unique_correct": [float(row.unique_correct) for row in ordered],
        "unique_incorrect": [float(row.unique_incorrect) for row in ordered],
    }
    correlations: dict[str, CorrelationResult | None] = {}
    for name, values in columns.items():
        try:
            correlations[name] = pearson(accuracies, values)
        except ValueError:
            correlations[name] = None  # too few rows or a constant column
    return EvaluationReport(rows=ordered, summary=summary, correlations=correlations)


def report_to_csv(report: EvaluationReport) -> str:
    return csv_line(REPORT_CSV_HEADER) + "".join(
        csv_line((
            row.question_id, f"{row.average_grade:.6f}", f"{row.accuracy:.6f}",
            str(row.unique_all), str(row.unique_correct), str(row.unique_incorrect),
        ))
        for row in report.rows
    )


def report_to_json(report: EvaluationReport) -> str:
    # The CSV header names QuestionRow's fields in order, accuracy as dt_accuracy.
    document = {
        "rows": [dict(zip(REPORT_CSV_HEADER, row)) for row in report.rows],
        "summary": report.summary._asdict(),
        "correlations": {
            name: result._asdict() if result is not None else None
            for name, result in report.correlations.items()
        },
    }
    return json.dumps(document, indent=2) + "\n"


def _fixture_number(column: str, text: str) -> float | int:
    """A fixture row's number cell: a grade or accuracy, a float in [0, 1],
    or a word count, an int from 0 to 2**53, the most a float holds exactly.
    Within these, no sum or square in ``build_report`` overflows."""
    kind, top = (float, 1) if column in ("average_grade", "dt_accuracy") else (int, 2**53)
    try:
        # int and float also read "_" and non-ASCII digits, which the report
        # CSV never writes.
        if "_" in text or not text.isascii():
            raise ValueError
        value = kind(text)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ValueError(f"{column} {text!r} is not {noun}") from None
    # nan or inf would give meaningless correlations and invalid JSON.
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{column} {text!r} is not a finite number")
    if not 0 <= value <= top:
        raise ValueError(f"{column} {text!r} is not in [0, {top}]")
    return value


def _fixture_row(row: list[str]) -> QuestionRow:
    return QuestionRow(row[0], *map(_fixture_number, REPORT_CSV_HEADER[1:], row[1:]))


def rows_from_fixture_csv(content: str) -> list[QuestionRow]:
    """Read precomputed per-question results (the report CSV schema); a bad
    row raises CorpusError naming it, and so does a question listed twice."""
    rows = read_rows(content, "csv", REPORT_CSV_HEADER, _fixture_row)
    seen: set[str] = set()
    for row in rows:
        if row.question_id in seen:
            raise CorpusError(f"question {row.question_id!r} is listed more than once")
        seen.add(row.question_id)
    return rows
