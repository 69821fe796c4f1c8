"""Acceptance gate: each test prints one PASS line for its criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines directly;
a FAILED test is the corresponding criterion's fail line.
"""

import math
import random
import time

import pytest
import scipy.stats

from answertree.cli import main
from answertree.corpus import AnswerRecord, Label, Sample, build_question_dataset
from answertree.dtree import (
    build_tree,
    classify,
    deserialize_tree,
    entropy,
    evaluate_split,
    select_best_rule,
    serialize_tree,
)
from answertree.evaluation import (
    build_report,
    cross_validate,
    pearson,
    rows_from_fixture_csv,
)
from answertree.textprep import unique_word_counts

C, I = Label.CORRECT, Label.INCORRECT


def dataset(pairs, qid="q"):
    return build_question_dataset(
        [AnswerRecord(qid, text, label) for text, label in pairs], qid
    )


def ok(line):
    print(f"PASS: {line}")


# --- criterion 1: correlation statistics over the reference results table ----


def test_criterion_1_correlations_match_reference_values(reference_tables_path):
    started = time.perf_counter()
    rows = rows_from_fixture_csv(reference_tables_path.read_text(encoding="utf-8"))
    report = build_report(rows)
    elapsed = time.perf_counter() - started

    expected = {
        "unique_all": -0.71,
        "unique_correct": -0.76,
        "unique_incorrect": -0.63,
        "average_grade": +0.22,
    }
    for name, want in expected.items():
        result = report.correlations[name]
        assert result is not None
        assert result.r == pytest.approx(want, abs=0.05), name
        oracle_p = 2 * scipy.stats.t.sf(
            abs(result.r) * math.sqrt((result.n - 2) / (1 - result.r**2)),
            result.n - 2,
        )
        assert result.p == pytest.approx(oracle_p, abs=1e-6), name
    assert elapsed < 1.0
    ok(
        "criterion 1 — correlations within ±0.05 of reference values "
        f"({elapsed * 1000:.0f} ms, p-values agree with t-distribution oracle to 1e-6)"
    )


# --- criterion 2: summary statistics over the reference results table --------


def test_criterion_2_mean_accuracy_and_low_accuracy_counts(reference_tables_path):
    rows = rows_from_fixture_csv(reference_tables_path.read_text(encoding="utf-8"))
    report = build_report(rows)
    assert report.summary.mean_accuracy == pytest.approx(0.9449, abs=0.0005)
    assert report.summary.questions_below_90 == 7
    assert report.summary.questions_below_80 == 2
    ok(
        "criterion 2 (mean/counts) — mean accuracy "
        f"{report.summary.mean_accuracy:.4f} = 0.9449 ± 0.0005; "
        "7 questions below 0.90, 2 below 0.80"
    )


@pytest.mark.xfail(
    strict=True,
    reason="the bundled reference results table gives a grade-band "
    "[0.40, 0.60] mean accuracy of 0.9469, not the 0.939 that headline "
    "summary claims; no band at 0.01 resolution yields 0.939 ± 0.001, so "
    "the reference numbers are internally inconsistent and this sub-criterion "
    "cannot be met without distorting the computation",
)
def test_criterion_2_grade_band_mean_accuracy(reference_tables_path):
    rows = rows_from_fixture_csv(reference_tables_path.read_text(encoding="utf-8"))
    report = build_report(rows)
    assert report.summary.band_mean_accuracy == pytest.approx(0.939, abs=0.001)
    ok("criterion 2 (band mean) — grade-band mean accuracy = 0.939 ± 0.001")


# --- criterion 3: worked-example classifications on the reference tree --------


def test_criterion_3_reference_tree_worked_examples(example_tree_path):
    tree = deserialize_tree(example_tree_path.read_text(encoding="utf-8"))
    cases = [
        (
            frozenset({"papillary", "muscles"}),
            C,
            0.97,
            [("muscles", True), ("papillary", True)],
        ),
        (
            frozenset({"atrial", "papillary", "muscles"}),
            I,
            1.00,
            [("muscles", True), ("papillary", True), ("atrial", True)],
        ),
        (
            frozenset({"subvalvular", "apparatus"}),
            C,
            1.00,
            [("muscles", False), ("subvalvular", True), ("apparatus", True)],
        ),
    ]
    for features, label, certainty, steps in cases:
        result = classify(tree, features)
        assert result.label is label, features
        assert result.certainty == pytest.approx(certainty, abs=1e-9), features
        assert [(s.word, s.branch) for s in result.trace] == steps, features
    ok(
        "criterion 3 — reference tree grades the three worked examples "
        "correct 0.97 / incorrect 1.00 / correct 1.00 with exact step lists"
    )


# --- criterion 4: property-based evidence for the training algorithm ----------


def test_criterion_4a_entropy_and_gain_properties():
    rng = random.Random(4)
    for _ in range(500):
        c, i = rng.randint(0, 40), rng.randint(0, 40)
        if c + i == 0:
            continue
        e = entropy(c, i)
        assert e == entropy(i, c)
        assert 0.0 <= e <= 1.0
        if c == 0 or i == 0:
            assert e == 0.0  # the 0*log2(0) = 0 convention
        if c == i:
            assert e == 1.0

    pool = ["alpha", "beta", "gamma", "delta"]
    for _ in range(500):
        samples = [
            Sample(
                features=frozenset(w for w in pool if rng.random() < 0.5),
                raw_text=str(j),
                label=C if rng.random() < 0.5 else I,
            )
            for j in range(rng.randint(1, 10))
        ]
        current = entropy(
            sum(1 for s in samples if s.label is C),
            sum(1 for s in samples if s.label is I),
        )
        for word in pool:
            gain = evaluate_split(samples, word, current).gain
            assert gain >= -1e-12  # splitting never loses information
        # A word present in no sample (or all) is a vacuous split: gain 0.
        assert evaluate_split(samples, "absent", current).gain == 0.0
    ok("criterion 4a — entropy/gain symmetry, bounds, 0·log0, non-negative gain")


def _oracle_entropy(labels):
    n = len(labels)
    result = 0.0
    for cls in (C, I):
        k = sum(1 for l in labels if l is cls)
        if k:
            result -= (k / n) * math.log2(k / n)
    return result


def _oracle_best_word(samples, candidates):
    current = _oracle_entropy([s.label for s in samples])
    best_word, best_gain = None, None
    for word in sorted(candidates):
        t = [s.label for s in samples if word in s.features]
        f = [s.label for s in samples if word not in s.features]
        weighted = (len(t) * _oracle_entropy(t) if t else 0.0) + (
            len(f) * _oracle_entropy(f) if f else 0.0
        )
        gain = current - weighted / len(samples)
        if best_gain is None or gain > best_gain:
            best_word, best_gain = word, gain
    if best_gain is None or best_gain <= 1e-12:
        return None
    return best_word


def test_criterion_4b_best_rule_matches_brute_force_oracle():
    rng = random.Random(1234)
    pool = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    cases = 0
    for _ in range(1200):
        samples = [
            Sample(
                features=frozenset(w for w in pool if rng.random() < 0.4),
                raw_text=str(j),
                label=C if rng.random() < 0.5 else I,
            )
            for j in range(rng.randint(1, 12))
        ]
        candidates = frozenset().union(*(s.features for s in samples))
        current = entropy(
            sum(1 for s in samples if s.label is C),
            sum(1 for s in samples if s.label is I),
        )
        got = select_best_rule(samples, candidates, current)
        want = _oracle_best_word(samples, candidates)
        assert (got[0] if got else None) == want
        cases += 1
    assert cases >= 1000
    ok(f"criterion 4b — best-rule selection equals brute-force oracle on {cases} cases")


def test_criterion_4c_resubstitution_on_conflict_free_corpora():
    rng = random.Random(77)
    checked = 0
    for _ in range(100):
        pairs = {}
        for j in range(rng.randint(2, 10)):
            pairs[f"good{j} fine{rng.randint(0, 3)}"] = C
        for j in range(rng.randint(2, 10)):
            pairs[f"bad{j} poor{rng.randint(0, 3)}"] = I
        data = dataset(list(pairs.items()))
        tree = build_tree(data)
        hits = sum(1 for s in data.samples if classify(tree, s.features).label is s.label)
        assert hits == len(data)
        checked += 1
    ok(
        "criterion 4c — resubstitution accuracy 1.0 on "
        f"{checked} conflict-free corpora grown to purity"
    )


def test_criterion_4d_tenfold_cv_on_separable_corpus():
    pairs = [(f"alpha item{j}", C) for j in range(20)]
    pairs += [(f"wrong item{j}", I) for j in range(20)]
    data = dataset(pairs)
    result = cross_validate(data, min_gain=0.0, k=10, seed=0)
    assert result.accuracy == 1.0
    ok("criterion 4d — 10-fold CV accuracy 1.0 on 40-answer separable corpus")


def _overlap_question(level):
    """Synthetic question whose incorrect answers increasingly reuse the
    correct answers' lexicon as `level` grows."""
    pairs = [(f"alpha beta u{j}", C) for j in range(25)]
    for j in range(25):
        if j < 3 * level:
            text = f"alpha beta conf{level}q{j} extra{level}q{j}"
        else:
            text = f"wrong{j} junk"
        pairs.append((text, I))
    return dataset(pairs, qid=f"L{level}")


def test_criterion_4e_accuracy_falls_as_lexical_overlap_grows():
    accuracies, vocab_sizes = [], []
    for level in range(8):
        data = _overlap_question(level)
        accuracies.append(cross_validate(data, min_gain=0.0, k=10, seed=0).accuracy)
        vocab_sizes.append(float(unique_word_counts(data).all_words))
    result = pearson(accuracies, vocab_sizes)
    assert result.r < 0
    ok(
        "criterion 4e — accuracy vs unique-word count has negative Pearson r "
        f"({result.r:+.3f}) across the overlap family"
    )


# --- criterion 5: determinism --------------------------------------------------


def test_criterion_5_evaluate_is_deterministic_and_trees_round_trip(tmp_path):
    content = "question_id,answer,label\n"
    content += "".join(f"q1,alpha item{j},correct\n" for j in range(20))
    content += "".join(f"q1,wrong item{j},incorrect\n" for j in range(20))
    answers = tmp_path / "answers.csv"
    answers.write_text(content, encoding="utf-8")
    first, second = tmp_path / "r1", tmp_path / "r2"
    assert main(["evaluate", "--answers", str(answers), "--out", str(first)]) == 0
    assert main(["evaluate", "--answers", str(answers), "--out", str(second)]) == 0
    for name in ("report.csv", "report.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()

    rng = random.Random(5)
    pool = ["alpha", "beta", "gamma", "delta"]
    for _ in range(25):
        texts = {
            " ".join(sorted(fs)): (C if rng.random() < 0.5 else I)
            for fs in {
                frozenset(w for w in pool if rng.random() < 0.5) | {"base"}
                for _ in range(rng.randint(2, 8))
            }
        }
        tree = build_tree(dataset(list(texts.items())))
        text = serialize_tree(tree)
        assert deserialize_tree(text) == tree
        assert serialize_tree(deserialize_tree(text)) == text
    ok(
        "criterion 5 — repeated evaluate runs byte-identical; "
        "tree serialization round-trips losslessly"
    )
