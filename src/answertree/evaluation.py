"""Cross-validation, correlation statistics, and report assembly.

Statistics are implemented natively: the Pearson p-value comes from the
exact two-tailed t-test, with the t CDF evaluated through the regularized
incomplete beta function (continued fraction, absolute error well under
1e-9).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from typing import NamedTuple

from .corpus import Label, QuestionDataset
from .dtree import TrainConfig, build_tree, classify
from .textprep import UniqueWordCounts

GRADE_BAND = (0.40, 0.60)
REPORT_CSV_HEADER = [
    "question_id",
    "average_grade",
    "dt_accuracy",
    "unique_all",
    "unique_correct",
    "unique_incorrect",
]


class FoldError(Exception):
    """Cross-validation could not be set up or run for a question."""


class FoldPlan(NamedTuple):
    k: int
    seed: int
    assignments: tuple[int, ...]


def make_stratified_folds(labels: list[Label], k: int = 10, seed: int = 0) -> FoldPlan:
    """Deterministic k-fold assignment: deals each label class, in a seeded
    shuffle, round-robin, so every fold keeps roughly the dataset's class balance."""
    _check_fold_args(len(labels), k)
    rng = random.Random(seed)
    assignments = [0] * len(labels)
    position = 0
    for label in (Label.CORRECT, Label.INCORRECT):
        indices = [i for i, l in enumerate(labels) if l is label]
        rng.shuffle(indices)
        for index in indices:
            assignments[index] = position % k
            position += 1
    return FoldPlan(k=k, seed=seed, assignments=tuple(assignments))


def _check_fold_args(n_samples: int, k: int) -> None:
    if k < 2:
        raise FoldError(f"need at least 2 folds, got k={k}")
    if n_samples < k:
        raise FoldError(f"cannot make {k} folds from {n_samples} samples")


class QuestionAccuracy(NamedTuple):
    question_id: str
    accuracy: float
    per_fold: tuple[tuple[int, int], ...]  # (correct classifications, test size)
    average_grade: float


def cross_validate(
    dataset: QuestionDataset, config: TrainConfig, fold_plan: FoldPlan
) -> QuestionAccuracy:
    """Train on k-1 folds, grade the held-out fold, pool hits over all folds."""
    samples = dataset.samples
    if len(samples) != len(fold_plan.assignments):
        raise FoldError(
            f"fold plan covers {len(fold_plan.assignments)} samples, "
            f"dataset has {len(samples)}"
        )
    folds: list[list] = [[] for _ in range(fold_plan.k)]
    masks = [0] * fold_plan.k
    for index, (sample, fold) in enumerate(zip(samples, fold_plan.assignments)):
        if not 0 <= fold < fold_plan.k:
            raise FoldError(
                f"sample {index} is assigned fold {fold}, outside 0..{fold_plan.k - 1}"
            )
        folds[fold].append(sample)
        masks[fold] |= 1 << index
    per_fold = []
    for fold, (test, mask) in enumerate(zip(folds, masks)):
        if len(test) == len(samples):
            raise FoldError(f"fold {fold}: empty training split")
        if not test:
            per_fold.append((0, 0))
            continue
        tree = build_tree(dataset, config, held_out=mask)
        hits = sum(
            1 for s in test if classify(tree, s.features).label is s.label
        )
        per_fold.append((hits, len(test)))
    total_hits = sum(h for h, _ in per_fold)
    total_tested = sum(n for _, n in per_fold)
    return QuestionAccuracy(
        question_id=dataset.question_id,
        accuracy=total_hits / total_tested,
        per_fold=tuple(per_fold),
        average_grade=dataset.average_grade,
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
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    ssx = sum(d * d for d in dx)
    ssy = sum(d * d for d in dy)
    if ssx == 0.0 or ssy == 0.0:
        raise ValueError("correlation is undefined: deviations underflow to zero")
    r = sum(a * b for a, b in zip(dx, dy)) / math.sqrt(ssx * ssy)
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
    band_mean_accuracy: float | None  # questions with grade in GRADE_BAND
    questions_below_90: int
    questions_below_80: int


class EvaluationReport(NamedTuple):
    rows: tuple[QuestionRow, ...]
    summary: ReportSummary
    correlations: dict[str, CorrelationResult | None]


def make_row(accuracy: QuestionAccuracy, counts: UniqueWordCounts) -> QuestionRow:
    if accuracy.question_id != counts.question_id:
        raise ValueError(
            f"question id mismatch: {accuracy.question_id!r} vs {counts.question_id!r}"
        )
    return QuestionRow(
        accuracy.question_id, accuracy.average_grade, accuracy.accuracy,
        counts.all_words, counts.correct_words, counts.incorrect_words,
    )


def _natural_key(question_id: str) -> tuple:
    return tuple(
        int(part) if part.isdigit() else part
        for part in re.split(r"(\d+)", question_id)
    )


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
        mean_accuracy=sum(accuracies) / len(accuracies),
        band_mean_accuracy=sum(in_band) / len(in_band) if in_band else None,
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
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_CSV_HEADER)
    for row in report.rows:
        writer.writerow(
            [
                row.question_id,
                f"{row.average_grade:.6f}",
                f"{row.accuracy:.6f}",
                row.unique_all,
                row.unique_correct,
                row.unique_incorrect,
            ]
        )
    return out.getvalue()


def report_to_json(report: EvaluationReport) -> str:
    document = {
        "rows": [
            {
                "question_id": row.question_id,
                "average_grade": row.average_grade,
                "dt_accuracy": row.accuracy,
                "unique_all": row.unique_all,
                "unique_correct": row.unique_correct,
                "unique_incorrect": row.unique_incorrect,
            }
            for row in report.rows
        ],
        "summary": {
            "question_count": report.summary.question_count,
            "mean_accuracy": report.summary.mean_accuracy,
            "band_mean_accuracy": report.summary.band_mean_accuracy,
            "grade_band": list(GRADE_BAND),
            "questions_below_90": report.summary.questions_below_90,
            "questions_below_80": report.summary.questions_below_80,
        },
        "correlations": {
            name: (
                {"r": result.r, "p": result.p, "n": result.n}
                if result is not None
                else None
            )
            for name, result in report.correlations.items()
        },
    }
    return json.dumps(document, indent=2) + "\n"


def _fixture_number(row_num: int, column: str, text: str) -> float | int:
    """A fixture row's number cell: a finite float, or an int for word counts."""
    kind = float if column in ("average_grade", "dt_accuracy") else int
    try:
        value = kind(text)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ValueError(f"row {row_num}: {column} {text!r} is not {noun}") from None
    # nan or inf would give meaningless correlations and invalid JSON.
    if kind is float and not math.isfinite(value):
        raise ValueError(f"row {row_num}: {column} {text!r} is not a finite number")
    return value


def rows_from_fixture_csv(content: str) -> list[QuestionRow]:
    """Read precomputed per-question results (the report CSV schema)."""
    reader = csv.reader(io.StringIO(content))
    # The csv module's own errors (a field over its size limit, a NUL on
    # Python 3.10) name the line as the file counts it.
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty fixture file") from None
        if [h.strip() for h in header] != REPORT_CSV_HEADER:
            raise ValueError(
                f"bad fixture header {header!r}, expected {','.join(REPORT_CSV_HEADER)}"
            )
        rows = []
        for row_num, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(REPORT_CSV_HEADER):
                raise ValueError(
                    f"row {row_num}: expected {len(REPORT_CSV_HEADER)} columns"
                )
            numbers = [
                _fixture_number(row_num, column, text)
                for column, text in zip(REPORT_CSV_HEADER[1:], row[1:])
            ]
            rows.append(QuestionRow(row[0], *numbers))
    except csv.Error as exc:
        raise ValueError(f"CSV line {reader.line_num}: {exc}") from None
    return rows
