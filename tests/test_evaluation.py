import math
import random
from collections import Counter

import pytest
import scipy.stats
from hypothesis import example, given
from hypothesis import strategies as st

from answertree.corpus import AnswerRecord, CorpusError, Label, build_question_dataset
from answertree.evaluation import (
    REPORT_CSV_HEADER,
    QuestionRow,
    build_report,
    cross_validate,
    make_stratified_folds,
    pearson,
    regularized_incomplete_beta,
    report_to_csv,
    report_to_json,
    rows_from_fixture_csv,
    student_t_two_tailed_p,
)

C, I = Label.CORRECT, Label.INCORRECT


def dataset(pairs, qid="q"):
    return build_question_dataset(
        [AnswerRecord(qid, text, label) for text, label in pairs], qid
    )


# --- fold planning -----------------------------------------------------------


def test_stratified_folds_preserve_class_proportions():
    labels = [C] * 60 + [I] * 40
    assignments = make_stratified_folds(labels, k=10, seed=0)
    for fold in range(10):
        test = [i for i, f in enumerate(assignments) if f == fold]
        assert len(test) == 10
        assert sum(1 for i in test if labels[i] is C) == 6


def test_stratified_folds_uneven_classes_stay_within_one():
    labels = [C] * 7 + [I] * 6
    sizes = Counter(make_stratified_folds(labels, k=10, seed=0))
    assert max(sizes.values()) - min(sizes[f] for f in range(10)) <= 1


@given(st.lists(st.sampled_from([C, I]), min_size=10, max_size=120),
       st.integers(2, 10), st.integers(0, 5))
def test_fold_sizes_never_differ_by_more_than_one(labels, k, seed):
    assignments = make_stratified_folds(labels, k=k, seed=seed)
    sizes = [assignments.count(f) for f in range(k)]
    assert sum(sizes) == len(labels)
    assert max(sizes) - min(sizes) <= 1
    # cross_validate relies on this: every fold is tested on at least one
    # sample, so every training split leaves at least one out of k >= 2.
    assert min(sizes) >= 1


def test_stratified_folds_deterministic_and_seed_sensitive():
    labels = [C, I, I] * 15
    assert make_stratified_folds(labels, seed=5) == make_stratified_folds(labels, seed=5)
    assert make_stratified_folds(labels, seed=5) != make_stratified_folds(labels, seed=6)


def test_stratified_folds_reject_bad_arguments():
    with pytest.raises(ValueError, match="2 folds"):
        make_stratified_folds([C, I] * 5, k=1)
    with pytest.raises(ValueError, match="cannot make 10 folds from 9"):
        make_stratified_folds([C] * 4 + [I] * 5, k=10)


# --- cross-validation --------------------------------------------------------


def separable_dataset(n_correct=20, n_incorrect=20):
    pairs = [(f"alpha item{i}", C) for i in range(n_correct)]
    pairs += [(f"wrong item{i}", I) for i in range(n_incorrect)]
    return dataset(pairs)


def test_cross_validate_separable_corpus_is_perfect():
    data = separable_dataset()
    result = cross_validate(data, min_gain=0.0, k=10, seed=0)
    assert result.accuracy == 1.0
    assert sum(n for _, n in result.per_fold) == len(data)


def test_cross_validate_pools_hits_across_folds():
    # Hard question: labels depend on a word that flips inside the data, so
    # held-out accuracy must be strictly below 1.
    rng = random.Random(0)
    pairs = {}
    for i in range(40):
        noise = f"n{rng.randint(0, 5)}"
        label = C if rng.random() < 0.5 else I
        pairs[f"{noise} id{i}"] = label
    data = dataset(list(pairs.items()))
    result = cross_validate(data, min_gain=0.0, k=10, seed=0)
    hits = sum(h for h, _ in result.per_fold)
    tested = sum(n for _, n in result.per_fold)
    assert result.accuracy == hits / tested
    assert 0.0 <= result.accuracy < 1.0


def test_cross_validate_rejects_more_folds_than_samples():
    with pytest.raises(ValueError, match="cannot make 13 folds from 12 samples"):
        cross_validate(separable_dataset(6, 6), min_gain=0.0, k=13, seed=0)


@pytest.mark.parametrize("k", [1, 0, -1])
def test_cross_validate_rejects_fewer_than_two_folds(k):
    with pytest.raises(ValueError) as raised:
        cross_validate(separable_dataset(6, 6), min_gain=0.0, k=k, seed=0)
    assert str(raised.value) == f"need at least 2 folds, got k={k}"


def test_cross_validate_tests_the_folds_its_seed_deals():
    data = separable_dataset(13, 8)
    labels = [s.label for s in data.samples]
    for k, seed in [(2, 0), (5, 3), (7, 1), (10, 9)]:
        sizes = Counter(make_stratified_folds(labels, k, seed))
        result = cross_validate(data, min_gain=0.0, k=k, seed=seed)
        assert [n for _, n in result.per_fold] == [sizes[f] for f in range(k)]


def test_cross_validate_at_k_equal_to_samples_leaves_one_out():
    data = separable_dataset(3, 3)
    result = cross_validate(data, min_gain=0.0, k=len(data), seed=0)
    assert result.per_fold == ((1, 1),) * len(data)
    assert result.accuracy == 1.0


def test_cross_validate_trains_every_fold_with_its_min_gain():
    # No split gains more than 1 bit, so each fold's tree is one leaf. Every
    # training split holds 18 of each label, and a tie leaf says incorrect.
    data = separable_dataset()
    result = cross_validate(data, min_gain=2.0, k=10, seed=0)
    assert result.per_fold == ((2, 4),) * 10
    assert result.accuracy == 0.5


# --- correlation statistics --------------------------------------------------


def test_pearson_perfect_correlations():
    assert pearson([1, 2, 3], [2, 4, 6]).r == pytest.approx(1.0)
    assert pearson([1, 2, 3], [3, 2, 1]).r == pytest.approx(-1.0)
    assert pearson([1, 2, 3], [2, 4, 6]).p == 0.0


def test_pearson_hand_checked_case():
    result = pearson([1.0, 2.0, 3.0, 5.0], [1.0, 3.0, 2.0, 5.0])
    oracle_r, oracle_p = scipy.stats.pearsonr([1, 2, 3, 5], [1, 3, 2, 5])
    assert result.r == pytest.approx(oracle_r, abs=1e-12)
    assert result.p == pytest.approx(oracle_p, abs=1e-12)
    assert result.n == 4


def test_pearson_input_validation():
    with pytest.raises(ValueError, match="length mismatch"):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="at least 3"):
        pearson([1, 2], [3, 4])
    with pytest.raises(ValueError, match="constant"):
        pearson([1, 1, 1], [1, 2, 3])
    # Not constant, but each deviation squares to zero.
    with pytest.raises(ValueError, match="^correlation is undefined: deviations underflow"):
        pearson([0.0, 5e-324, 0.0, 5e-324], [1.0, 2.0, 3.0, 4.0])


# A constant series whose mean rounds off by an ulp.
ROUNDED_CONSTANT = [42.77112223808423] * 3


def test_pearson_rejects_a_constant_series_whose_mean_rounds():
    assert sum(ROUNDED_CONSTANT) / 3 != ROUNDED_CONSTANT[0]
    with pytest.raises(ValueError, match="constant"):
        pearson(ROUNDED_CONSTANT, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="constant"):
        pearson([0.0, 0.0, 1.0], ROUNDED_CONSTANT)


@pytest.mark.parametrize(
    "xs, ys",
    [
        ([1.7e308, 1.7e308, 0.0], [0.1, 0.5, 0.9]),  # the sum of the values
        ([1e200, -1e200, 0.0], [0.1, 0.5, 0.9]),  # a sum of squares
        ([0.1, 0.5, 0.9], [1e200, 0.0, 1.0]),
        ([1e150, 0.0, 1.0], [1e150, 0.0, 1.0]),  # their product
    ],
)
def test_pearson_is_undefined_when_a_sum_overflows(xs, ys):
    # Treated like one that underflows, rather than read as r = 0.
    with pytest.raises(ValueError, match="^correlation is undefined: .*overflow"):
        pearson(xs, ys)


def test_pearson_matches_scipy_on_random_data():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(3, 60)
        xs = [rng.gauss(0, 1) for _ in range(n)]
        ys = [rng.gauss(0, 1) + 0.5 * x for x in xs]
        ours = pearson(xs, ys)
        oracle_r, oracle_p = scipy.stats.pearsonr(xs, ys)
        assert ours.r == pytest.approx(oracle_r, abs=1e-12)
        assert ours.p == pytest.approx(oracle_p, abs=1e-9)


def test_incomplete_beta_against_scipy():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.uniform(0.1, 30)
        b = rng.uniform(0.1, 30)
        x = rng.random()
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            scipy.stats.beta.cdf(x, a, b), abs=1e-12
        )
    assert regularized_incomplete_beta(2, 3, 0.0) == 0.0
    assert regularized_incomplete_beta(2, 3, 1.0) == 1.0
    for a, b in ((0, 3), (2, -1)):
        with pytest.raises(ValueError, match="^shape parameters must be positive$"):
            regularized_incomplete_beta(a, b, 0.5)
    for x in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"^x=.* outside \[0, 1\]$"):
            regularized_incomplete_beta(2, 3, x)


def test_student_t_two_tailed_against_scipy():
    for df in (1, 2, 5, 30, 52):
        for t in (0.0, 0.5, 1.3, 2.8, 7.0, -2.8):
            assert student_t_two_tailed_p(t, df) == pytest.approx(
                2 * scipy.stats.t.sf(abs(t), df), abs=1e-12
            )
    assert student_t_two_tailed_p(math.inf, 5) == 0.0
    with pytest.raises(ValueError, match="^degrees of freedom must be >= 1$"):
        student_t_two_tailed_p(1.0, 0)


# Affine invariance fails in floating point when a series' spread is at ulp
# scale: 3x+7 can collapse it to constant (pinned below) or move r past the
# tolerance. So draw values on a 1e-3 grid, which also zeroes sub-epsilon
# magnitudes: a drawn series is constant or spread by at least 1e-3, far
# above float resolution at these magnitudes.
finite = st.floats(-50, 50).map(lambda v: round(v, 3))


def test_affine_map_collapses_a_series_with_ulp_spread():
    xs = [1.0, 1.0000000000000002, 1.0]
    ys = [0.0, 0.0, 1.0]
    assert pearson(xs, ys).r == pytest.approx(-1 / 6**0.5, abs=1e-12)
    with pytest.raises(ValueError, match="constant"):
        pearson([3.0 * x + 7.0 for x in xs], ys)


@given(st.lists(st.tuples(finite, finite), min_size=3, max_size=30))
@example(list(zip(ROUNDED_CONSTANT, [0.0, 0.0, 1.0])))
def test_pearson_affine_invariance_and_symmetry(pairs):
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    try:
        base = pearson(xs, ys)
    except ValueError:
        return
    assert pearson(ys, xs).r == pytest.approx(base.r, abs=1e-9)
    scaled = pearson([3.0 * x + 7.0 for x in xs], ys)
    assert scaled.r == pytest.approx(base.r, abs=1e-9)
    flipped = pearson([-x for x in xs], ys)
    assert flipped.r == pytest.approx(-base.r, abs=1e-9)
    assert flipped.p == pytest.approx(base.p, abs=1e-9)
    assert -1.0 <= base.r <= 1.0
    assert 0.0 <= base.p <= 1.0


def test_p_value_decreases_as_correlation_strengthens():
    n = 10
    xs = list(range(n))
    previous = 1.1
    for strength in (0.1, 0.5, 1.0, 2.0, 5.0):
        rng = random.Random(1)
        ys = [strength * x + rng.gauss(0, 1) for x in xs]
        p = pearson(xs, ys).p
        assert p < previous
        previous = p


# --- report assembly ---------------------------------------------------------


def row(qid, grade, acc, all_w=10, cor_w=6, inc_w=6):
    return QuestionRow(qid, grade, acc, all_w, cor_w, inc_w)


def test_build_report_sorts_naturally_and_summarizes():
    rows = [
        row("Q10", 0.50, 0.80, all_w=20),
        row("Q2", 0.95, 1.00, all_w=10),
        row("Q1", 0.55, 0.85, all_w=30),
    ]
    report = build_report(rows)
    assert [r.question_id for r in report.rows] == ["Q1", "Q2", "Q10"]
    assert report.summary.question_count == 3
    assert report.summary.mean_accuracy == pytest.approx((0.80 + 1.00 + 0.85) / 3)
    assert report.summary.band_mean_accuracy == pytest.approx(0.825)
    assert report.summary.questions_below_90 == 2
    assert report.summary.questions_below_80 == 0
    assert set(report.correlations) == {
        "average_grade",
        "unique_all",
        "unique_correct",
        "unique_incorrect",
    }
    assert report.correlations["average_grade"].r == pytest.approx(
        scipy.stats.pearsonr([0.85, 1.00, 0.80], [0.55, 0.95, 0.50])[0]
    )


def test_build_report_constant_column_yields_none():
    report = build_report([row("Q1", 0.5, 0.8), row("Q2", 0.6, 0.9), row("Q3", 0.7, 1.0)])
    assert report.correlations["unique_all"] is None  # constant column
    assert report.correlations["average_grade"] is not None


def test_build_report_no_band_questions():
    report = build_report([row("Q1", 0.9, 0.8), row("Q2", 0.8, 0.9), row("Q3", 0.7, 1.0)])
    assert report.summary.band_mean_accuracy is None


def test_build_report_means_do_not_depend_on_the_python_version():
    # sum() before Python 3.12 rounds at each step: ten 0.1s make 0.9999999999999999.
    summary = build_report([row(f"Q{n}", 0.5, 0.1) for n in range(10)]).summary
    assert summary.mean_accuracy == summary.band_mean_accuracy == 0.1


def test_build_report_rejects_empty():
    with pytest.raises(ValueError, match="zero rows"):
        build_report([])


def test_report_csv_rendering():
    report = build_report([row("Q1", 0.5, 0.85), row("Q2", 0.9, 1.0, all_w=12)])
    lines = report_to_csv(report).splitlines()
    assert lines[0] == (
        "question_id,average_grade,dt_accuracy,unique_all,unique_correct,unique_incorrect"
    )
    assert lines[1] == "Q1,0.500000,0.850000,10,6,6"
    assert lines[2] == "Q2,0.900000,1.000000,12,6,6"


def test_report_json_rendering():
    import json

    report = build_report(
        [row("Q1", 0.5, 0.85), row("Q2", 0.9, 1.0), row("Q3", 0.3, 0.95)]
    )
    document = json.loads(report_to_json(report))
    assert list(document) == ["rows", "summary", "correlations"]
    assert list(document["rows"][0].items()) == [
        ("question_id", "Q1"),
        ("average_grade", 0.5),
        ("dt_accuracy", 0.85),
        ("unique_all", 10),
        ("unique_correct", 6),
        ("unique_incorrect", 6),
    ]
    assert [r["question_id"] for r in document["rows"]] == ["Q1", "Q2", "Q3"]
    assert list(document["summary"].items()) == [
        ("question_count", 3),
        ("mean_accuracy", report.summary.mean_accuracy),
        ("band_mean_accuracy", 0.85),
        ("grade_band", [0.40, 0.60]),
        ("questions_below_90", 1),
        ("questions_below_80", 0),
    ]
    assert document["correlations"]["unique_all"] is None
    result = report.correlations["average_grade"]
    assert list(document["correlations"]["average_grade"].items()) == [
        ("r", result.r), ("p", result.p), ("n", 3)
    ]


def test_rows_from_fixture_csv_round_trip():
    report = build_report(
        [row("Q1", 0.5, 0.85), row("Q2", 0.9, 1.0), row("Q3", 0.3, 0.95)]
    )
    parsed = rows_from_fixture_csv(report_to_csv(report))
    assert parsed == list(report.rows)


def test_rows_from_fixture_csv_validation():
    with pytest.raises(CorpusError, match="^empty CSV file$"):
        rows_from_fixture_csv("")
    with pytest.raises(CorpusError, match="^bad CSV header"):
        rows_from_fixture_csv("a,b\n1,2\n")
    good_header = ",".join(
        ["question_id", "average_grade", "dt_accuracy", "unique_all",
         "unique_correct", "unique_incorrect"]
    )
    with pytest.raises(CorpusError, match="^row 1: expected 6 columns, got 2$"):
        rows_from_fixture_csv(good_header + "\nQ1,0.5\n")
    with pytest.raises(CorpusError, match="^row 2: empty question_id$"):
        rows_from_fixture_csv(good_header + "\n\n ,0.5,1,1,1,1\n")


FIXTURE = ",".join(REPORT_CSV_HEADER) + "\nQ1,0.5,0.85,3,2,1\nQ2,0.6,0.9,5,3,2\nQ3,0.7,0.8,6,4,2\n"


@pytest.mark.parametrize(
    "repeat", ["Q1,0.5,0.85,3,2,1", "Q1,0.9,1,4,3,1"], ids=["identical-line", "same-id"]
)
def test_rows_from_fixture_csv_rejects_a_repeated_question(repeat):
    # Each row is one question: a repeat would count it twice in the summary
    # and in every correlation.
    assert [r.question_id for r in rows_from_fixture_csv(FIXTURE)] == ["Q1", "Q2", "Q3"]
    with pytest.raises(CorpusError, match="^question 'Q1' is listed more than once$"):
        rows_from_fixture_csv(f"{FIXTURE}{repeat}\n")


def test_rows_from_fixture_csv_names_the_first_question_repeated():
    with pytest.raises(CorpusError, match="^question 'Q3' is listed more than once$"):
        rows_from_fixture_csv(f"{FIXTURE}Q3,0.7,0.8,6,4,2\nQ1,0.5,0.85,3,2,1\n")


def test_fixture_file_loads_54_questions(reference_tables_path):
    rows = rows_from_fixture_csv(reference_tables_path.read_text(encoding="utf-8"))
    assert len(rows) == 54
    assert rows[0].question_id == "Q1"
    assert all(0.0 <= r.accuracy <= 1.0 for r in rows)
    assert all(0.0 <= r.average_grade <= 1.0 for r in rows)
    assert all(
        max(r.unique_correct, r.unique_incorrect) <= r.unique_all <= r.unique_correct + r.unique_incorrect
        for r in rows
    )
