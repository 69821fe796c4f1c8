import contextlib
import csv
import inspect
import io
import json
import os
import random
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import answertree
from answertree import corpus, dtree, evaluation
from answertree.cli import main
from answertree.corpus import CSV_HEADER, UNGRADED_CSV_HEADER
from answertree.dtree import classify, deserialize_tree
from answertree.evaluation import REPORT_CSV_HEADER
from answertree.textprep import preprocess

SRC = str(Path(answertree.__file__).resolve().parent.parent)

GRADED = """question_id,answer,label
q1,alpha one,correct
q1,alpha two,correct
q1,alpha three,correct
q1,wrong one,incorrect
q1,wrong two,incorrect
q1,wrong three,incorrect
q2,beta x,correct
q2,beta y,correct
q2,gamma x,incorrect
q2,gamma y,incorrect
"""

# Large enough for 10-fold cross-validation and perfectly separable.
EVALUATABLE = "question_id,answer,label\n" + "".join(
    f"q1,alpha item{i},correct\n" for i in range(20)
) + "".join(f"q1,wrong item{i},incorrect\n" for i in range(20))


@pytest.fixture()
def reproducible_clock(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1592179200")


def write(path, content):
    path.write_text(content, encoding="utf-8")
    return str(path)


def test_train_writes_one_tree_per_question(tmp_path, capsys, reproducible_clock):
    answers = write(tmp_path / "answers.csv", GRADED)
    out = tmp_path / "trees"
    assert main(["train", "--answers", answers, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["q1.tree.json", "q2.tree.json"]
    document = json.loads((out / "q1.tree.json").read_text())
    assert document["question_id"] == "q1"
    assert document["trained_at"] == "2020-06-15T00:00:00+00:00"
    stdout = capsys.readouterr().out
    assert "q1: 6 samples (3 correct, 3 incorrect)" in stdout


def test_train_is_byte_identical_across_runs(tmp_path, reproducible_clock):
    answers = write(tmp_path / "answers.csv", GRADED)
    first, second = tmp_path / "run1", tmp_path / "run2"
    assert main(["train", "--answers", answers, "--out", str(first)]) == 0
    assert main(["train", "--answers", answers, "--out", str(second)]) == 0
    assert (first / "q1.tree.json").read_bytes() == (second / "q1.tree.json").read_bytes()
    assert (first / "q2.tree.json").read_bytes() == (second / "q2.tree.json").read_bytes()


# A 236-byte id makes a 256-byte temporary file name, one past the limit.
@pytest.mark.parametrize(
    "question_id", ["../escape", "..", ".", "a/b", "a\\b", "a\0b", "q" * 236]
)
def test_train_rejects_unsafe_question_ids(tmp_path, capsys, question_id):
    records = [
        {"question_id": "q1", "answer": "alpha", "label": "correct"},
        {"question_id": "q1", "answer": "beta", "label": "incorrect"},
        {"question_id": question_id, "answer": "alpha", "label": "correct"},
        {"question_id": question_id, "answer": "beta", "label": "incorrect"},
    ]
    work = tmp_path / "work"
    work.mkdir()
    answers = write(work / "answers.json", json.dumps(records))
    out = work / "trees"
    assert main(["train", "--answers", answers, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    problem = "too long for a" if len(question_id) > 200 else "not a safe"
    assert captured.out == ""
    assert captured.err == f"question id {question_id!r} is {problem} file name\n"
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["answers.json", "work"]


def test_train_writes_a_question_id_of_the_longest_file_name(tmp_path):
    question_id = "q" * 235  # its temporary file name is 255 bytes
    answers = write(
        tmp_path / "answers.csv", f"question_id,answer,label\n{question_id},alpha,correct\n"
    )
    assert main(["train", "--answers", answers, "--out", str(tmp_path / "out")]) == 0
    assert [p.name for p in (tmp_path / "out").iterdir()] == [f"{question_id}.tree.json"]


@pytest.mark.parametrize("epoch", ["abc", "99999999999999999", "1e9", "-99999999999"])
def test_train_bad_source_date_epoch_is_a_one_line_usage_error(
    tmp_path, capsys, monkeypatch, epoch
):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    answers = write(tmp_path / "answers.csv", GRADED)
    out = tmp_path / "trees"
    assert main(["train", "--answers", answers, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("SOURCE_DATE_EPOCH must be ") and repr(epoch) in line
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "grade"])
def test_a_json_value_that_is_not_text_is_exit_1(
    tmp_path, capsys, example_tree_path, command
):
    # A null id is not the text "None", and names no tree file.
    element = {"question_id": None, "answer": "papillary muscles", "label": "correct"}
    answers = write(tmp_path / "answers.json", json.dumps([element]))
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--answers", answers, "--out", str(out)]
    else:
        trees = tmp_path / "trees"
        trees.mkdir()
        shutil.copy(example_tree_path, trees / "Q52.tree.json")
        argv = ["grade", "--trees", str(trees), "--answers", answers, "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "element 0: question_id must be text or a number, not null\n"
    assert not out.exists()


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", ["train", "grade"])
def test_a_non_json_constant_is_a_one_line_error(
    tmp_path, capsys, example_tree_path, command, constant
):
    # json.loads reads these literals as floats, which would name a question
    # "nan"; they are not JSON, so the file is rejected.
    elements = ", ".join(
        f'{{"question_id": {constant}, "answer": "{answer}", "label": {label}}}'
        for answer, label in (("alpha", 1), ("beta", 0))
    )
    answers = write(tmp_path / "answers.json", f"[{elements}]")
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--answers", answers, "--out", str(out)]
    else:
        trees = tmp_path / "trees"
        trees.mkdir()
        shutil.copy(example_tree_path, trees / "Q52.tree.json")
        argv = ["grade", "--trees", str(trees), "--answers", answers, "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"invalid JSON: {constant} is not a JSON value\n"
    assert captured.out == ""
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.rglob("*.json")) == sorted(
        ["answers.json"] + (["Q52.tree.json"] if command == "grade" else [])
    )


@pytest.mark.parametrize("column", ["question_id", "answer"])
@pytest.mark.parametrize("command", ["train", "evaluate", "grade"])
def test_a_lone_surrogate_in_an_answer_file_is_a_one_line_error(
    tmp_path, capsys, example_tree_path, command, column
):
    # json.dumps escapes the surrogate as \ud800. Question "a" is good and
    # comes first, so no output of it may be written either. A batch
    # ignores the label key.
    elements = [
        {"question_id": "a", "answer": f"alpha {i}", "label": i % 2} for i in range(20)
    ]
    elements.append({"question_id": "b", "answer": "beta", "label": 1, column: "\ud800 b"})
    answers = write(tmp_path / "answers.json", json.dumps(elements))
    out = tmp_path / "out"
    argv = [command, "--answers", answers, "--out", str(out)]
    if command == "grade":
        trees = tmp_path / "trees"
        trees.mkdir()
        shutil.copy(example_tree_path, trees / "a.tree.json")
        argv += ["--trees", str(trees)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"element 20: {column} holds a lone surrogate, which is not text\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "field, message",
    [
        ("word", "root: word holds a lone surrogate"),
        ("question_id", "question_id holds a lone surrogate"),
        ("trained_at", "trained_at holds a lone surrogate"),
    ],
)
def test_a_lone_surrogate_in_a_tree_is_a_one_line_error(
    tmp_path, capsys, example_tree_path, field, message
):
    document = json.loads(example_tree_path.read_text(encoding="utf-8"))
    (document["root"] if field == "word" else document)[field] = "\ud800"
    trees = tmp_path / "trees"
    trees.mkdir()
    tree = write(trees / "Q52.tree.json", json.dumps(document))
    assert main(["explain", "--tree", tree, "--answer", "papillary"]) == 1
    assert capsys.readouterr().err == f"{tree}: {message}\n"
    batch = write(tmp_path / "new.csv", "question_id,answer\nQ52,papillary\n")
    out = tmp_path / "graded.csv"
    argv = ["grade", "--trees", str(trees), "--answers", batch, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"{tree}: {message}\n"
    assert not out.exists()


def test_train_conflicting_labels_fail_with_exit_1(tmp_path, capsys):
    answers = write(
        tmp_path / "answers.csv",
        "question_id,answer,label\nq1,valve,correct\nq1,valve,incorrect\n",
    )
    assert main(["train", "--answers", answers, "--out", str(tmp_path / "t")]) == 1
    assert "valve" in capsys.readouterr().err


def test_grade_end_to_end(tmp_path, reproducible_clock):
    answers = write(tmp_path / "answers.csv", GRADED)
    trees = tmp_path / "trees"
    assert main(["train", "--answers", answers, "--out", str(trees)]) == 0
    ungraded = write(
        tmp_path / "new.csv",
        "question_id,answer\nq1,alpha something\nq1,totally novel words\nq1,\n",
    )
    out = tmp_path / "graded.csv"
    assert main(
        ["grade", "--trees", str(trees), "--answers", ungraded, "--out", str(out)]
    ) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["label"] for r in rows] == ["correct", "incorrect", "incorrect"]
    assert rows[0]["certainty"] == "1.0000"
    assert rows[0]["flagged"] == "false"
    assert rows[0]["critical_word"] == "alpha"
    # Out-of-vocabulary answers are flagged for human audit even at certainty 1.
    assert rows[1]["flagged"] == "true"
    assert rows[1]["critical_word"] == ""
    # Blank answers are graded incorrect without consulting the tree.
    assert rows[2] == {
        "question_id": "q1",
        "answer": "",
        "label": "incorrect",
        "certainty": "1.0000",
        "flagged": "false",
        "critical_word": "",
    }


# Two questions; repeated answers, out-of-vocabulary answers, blanks, and an
# answer that fails every test of Q52 yet uses one of its words ("papillary").
GRADE_BATCH = [
    ("Q52", "The papillary muscles"), ("q1", "alpha something"), ("Q52", "   "),
    ("Q52", "papillary muscles"), ("Q52", "atrial papillary muscles"),
    ("q1", "totally novel words"), ("Q52", "subvalvular apparatus"),
    ("Q52", "ventricle septum"), ("q1", ""), ("Q52", "papillary"),
    ("q1", "wrong one"), ("Q52", "muscles"), ("q1", "alpha something"),
    ("Q52", "septum"), ("Q52", "papillary"), ("q1", "totally novel words"),
    ("Q52", "The papillary muscles"), ("q2", "beta gamma"), ("q2", "gamma"),
]


def _trees_with_example(tmp_path, example_tree_path):
    """Trees for q1 and q2 trained from GRADED, plus the example tree Q52."""
    trees = tmp_path / "trees"
    answers = write(tmp_path / "answers.csv", GRADED)
    assert main(["train", "--answers", answers, "--out", str(trees)]) == 0
    shutil.copy(example_tree_path, trees / "Q52.tree.json")
    return trees


def _batch_file(path, rows):
    batch = io.StringIO()
    csv.writer(batch, lineterminator="\n").writerows([UNGRADED_CSV_HEADER, *rows])
    return write(path, batch.getvalue())


def _rows_formatted_from_classify(trees, rows, threshold):
    """The graded CSV built from fresh trees, formatting every row from its
    own classify result."""
    loaded = {
        path.name.split(".")[0]: deserialize_tree(path.read_text(encoding="utf-8"))
        for path in trees.glob("*.tree.json")
    }
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(
        ["question_id", "answer", "label", "certainty", "flagged", "critical_word"]
    )
    for question_id, answer in rows:
        if not answer.strip():
            writer.writerow([question_id, answer, "incorrect", "1.0000", "false", ""])
            continue
        result = classify(loaded[question_id], preprocess(answer))
        flagged = result.certainty < float(threshold) or result.out_of_vocabulary
        writer.writerow([
            question_id, answer, result.label.value, f"{result.certainty:.4f}",
            str(flagged).lower(), result.critical_word or "",
        ])
    return want.getvalue().encode("utf-8")


@pytest.mark.parametrize("threshold", ["0", "0.7", "1"])
def test_grade_output_equals_rows_formatted_from_classify(
    tmp_path, reproducible_clock, example_tree_path, threshold
):
    trees = _trees_with_example(tmp_path, example_tree_path)
    ungraded = _batch_file(tmp_path / "new.csv", GRADE_BATCH)
    out = tmp_path / "graded.csv"
    argv = ["grade", "--trees", str(trees), "--answers", ungraded, "--out", str(out)]
    assert main(argv + ["--threshold", threshold]) == 0
    assert out.read_bytes() == _rows_formatted_from_classify(trees, GRADE_BATCH, threshold)


# Most rows repeat an earlier pair. The same texts appear under questions
# whose trees grade them differently ("alpha gamma" is correct for q1 and
# incorrect for q2; "papillary muscles" is correct for Q52 and out of
# vocabulary for q1). Also: blank and whitespace-only rows, out-of-vocabulary
# answers, texts that differ only in case (distinct pairs with the same
# words) and texts that CSV must quote.
REUSE_BATCH = [
    ("q1", "alpha gamma"), ("q2", "alpha gamma"), ("Q52", "papillary muscles"),
    ("q1", "papillary muscles"), ("q1", "   "), ("q2", ""), ("Q52", "muscles"),
    ("q1", "totally novel words"), ("q2", "alpha gamma"), ("Q52", "septum"),
    ("q1", "alpha gamma"), ("q2", "totally novel words"), ("Q52", "\t "),
    ("q1", ""), ("Q52", "papillary muscles"), ("q1", "   "), ("q2", "  "),
    ("q1", "totally novel words"), ("Q52", "Papillary Muscles"), ("Q52", "muscles"),
    ("q1", "papillary muscles"), ("q2", "totally novel words"), ("Q52", "septum"),
    ("Q52", "\t "), ("q2", ""), ("q2", "beta"), ("q2", "beta"), ("q1", "Alpha gamma"),
    ("q1", 'alpha, "gamma"'), ("q2", 'alpha, "gamma"'), ("q1", "alpha\ngamma"),
    ("q1", 'alpha, "gamma"'), ("q1", "alpha\ngamma"), ("q2", 'alpha, "gamma"'),
]


@pytest.mark.parametrize("threshold", ["0", "0.7", "1"])
def test_grade_reuses_each_pair_line_only_for_that_pair(
    tmp_path, monkeypatch, reproducible_clock, example_tree_path, threshold
):
    trees = _trees_with_example(tmp_path, example_tree_path)
    ungraded = _batch_file(tmp_path / "new.csv", REUSE_BATCH)
    calls = []

    def counting_classify(tree, words):
        calls.append(tree.question_id)
        return classify(tree, words)

    monkeypatch.setattr(dtree, "classify", counting_classify)
    out = tmp_path / "graded.csv"
    argv = ["grade", "--trees", str(trees), "--answers", ungraded, "--out", str(out)]
    assert main(argv + ["--threshold", threshold]) == 0
    assert out.read_bytes() == _rows_formatted_from_classify(trees, REUSE_BATCH, threshold)
    # One classify call per distinct non-blank (question, answer) pair.
    pairs = {(q, a) for q, a in REUSE_BATCH if a.strip()}
    assert len(calls) == len(pairs) < len(REUSE_BATCH)
    assert sorted(calls) == sorted(q for q, _ in pairs)


def test_grade_unknown_question_after_repeated_rows_is_exit_1(
    tmp_path, capsys, reproducible_clock, example_tree_path
):
    trees = _trees_with_example(tmp_path, example_tree_path)
    rows = REUSE_BATCH + [("q9", "alpha gamma")] + REUSE_BATCH
    ungraded = _batch_file(tmp_path / "new.csv", rows)
    out_dir = tmp_path / "graded"
    out_dir.mkdir()
    argv = ["grade", "--trees", str(trees), "--answers", ungraded]
    assert main(argv + ["--out", str(out_dir / "graded.csv")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "no trained tree for question 'q9'"
    assert list(out_dir.iterdir()) == []


def test_grade_missing_tree_is_exit_1(tmp_path, capsys):
    trees = tmp_path / "trees"
    trees.mkdir()
    ungraded = write(tmp_path / "new.csv", "question_id,answer\nq9,anything\n")
    out = tmp_path / "graded.csv"
    assert main(
        ["grade", "--trees", str(trees), "--answers", ungraded, "--out", str(out)]
    ) == 1
    assert "q9" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, problem", [("missing", "does not exist"), ("file", "is not a directory")]
)
def test_grade_trees_that_is_not_a_directory_is_exit_1(tmp_path, capsys, kind, problem):
    trees = tmp_path / "trees"
    if kind == "file":
        write(trees, "not a directory\n")
    empty = write(tmp_path / "empty.csv", "question_id,answer\n")
    out = tmp_path / "graded.csv"
    # The second batch does not exist: the trees are checked before it is read.
    for batch in (empty, str(tmp_path / "unread.csv")):
        assert main(
            ["grade", "--trees", str(trees), "--answers", batch, "--out", str(out)]
        ) == 1
        assert capsys.readouterr().err == f"--trees {trees}: {problem}\n"
        assert not out.exists()


def _example_document(example_tree_path, **changes):
    document = json.loads(example_tree_path.read_text(encoding="utf-8"))
    config = changes.pop("config", {})
    document["config"].update(config)
    document["root"].update(changes)
    return json.dumps(document)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"config": {"min_gain": "abc"}}, "min_gain"),
        ({"config": {"min_gain": "nan"}}, "min_gain"),
        ({"config": {"min_gain": -0.5}}, "min_gain"),
        ({"config": {"min_gain": float("inf")}}, "min_gain"),
        ({"count": True}, "count and size"),
        ({"size": False}, "count and size"),
    ],
)
def test_malformed_tree_is_a_one_line_error(
    tmp_path, capsys, example_tree_path, changes, message
):
    trees = tmp_path / "trees"
    trees.mkdir()
    tree = write(trees / "Q52.tree.json", _example_document(example_tree_path, **changes))
    ungraded = write(tmp_path / "new.csv", "question_id,answer\nQ52,papillary\n")
    out = tmp_path / "graded.csv"
    argv = ["grade", "--trees", str(trees), "--answers", ungraded, "--out", str(out)]
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert "Q52.tree.json" in line and message in line
    assert not out.exists()
    assert main(["explain", "--tree", tree, "--answer", "papillary"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert "Q52.tree.json" in line and message in line


@pytest.mark.parametrize("question_id", [None, ["Q52"]])
def test_grade_rejects_a_tree_whose_question_id_is_not_a_string(
    tmp_path, capsys, example_tree_path, question_id
):
    document = json.loads(example_tree_path.read_text(encoding="utf-8"))
    document["question_id"] = question_id
    trees = tmp_path / "trees"
    trees.mkdir()
    write(trees / "Q52.tree.json", json.dumps(document))
    # The rows name the question as str() would have read the bad id.
    ungraded = _batch_file(tmp_path / "new.csv", [(str(question_id), "papillary")])
    out = tmp_path / "graded.csv"
    argv = ["grade", "--trees", str(trees), "--answers", ungraded, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{trees / 'Q52.tree.json'}: question_id must be a non-empty string"
    ]
    assert not out.exists()


def test_grade_rejects_two_trees_for_one_question(tmp_path, capsys, example_tree_path):
    trees = tmp_path / "trees"
    trees.mkdir()
    shutil.copy(example_tree_path, trees / "Q52.tree.json")
    shutil.copy(example_tree_path, trees / "copy.tree.json")
    ungraded = write(tmp_path / "new.csv", "question_id,answer\nQ52,papillary\n")
    out = tmp_path / "graded.csv"
    argv = ["grade", "--trees", str(trees), "--answers", ungraded, "--out", str(out)]
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert "Q52.tree.json" in line and "copy.tree.json" in line and "'Q52'" in line
    assert not out.exists()


def _chain_document(depth):
    """A tree document whose root is a chain of ``depth`` word tests, built
    as text so that writing it needs no recursion."""
    test = (
        '{"word": "w%d", "label": "correct", "count": 1, "size": 2, '
        '"true": {"label": "correct", "count": 1, "size": 1}, "false": '
    )
    leaf = '{"label": "incorrect", "count": 1, "size": 1}'
    root = "".join(test % i for i in range(depth)) + leaf + "}" * depth
    return '{"question_id": "Q52", "config": {"min_gain": 0.0}, "root": ' + root + "}\n"


@pytest.mark.parametrize("depth", [1000, 3000])
@pytest.mark.parametrize("command", ["grade", "explain"])
def test_deeply_nested_tree_file_is_a_one_line_error(tmp_path, capsys, command, depth):
    trees = tmp_path / "trees"
    trees.mkdir()
    tree = write(trees / "Q52.tree.json", _chain_document(depth))
    ungraded = write(tmp_path / "new.csv", "question_id,answer\nQ52,w1\n")
    out = tmp_path / "graded.csv"
    if command == "grade":
        argv = ["grade", "--trees", str(trees), "--answers", ungraded, "--out", str(out)]
    else:
        argv = ["explain", "--tree", tree, "--answer", "w1"]
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert "Q52.tree.json" in line and "nested too deep" in line
    assert not out.exists()


def test_train_rejects_a_non_utf8_answer_file(tmp_path, capsys):
    answers = tmp_path / "answers.csv"
    text = "question_id,answer,label\nq1,caf\u00e9 noir,correct\nq1,th\u00e9,incorrect\n"
    answers.write_bytes(text.encode("latin-1"))
    out = tmp_path / "trees"
    assert main(["train", "--answers", str(answers), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert "answers.csv" in line and "not UTF-8" in line
    assert not out.exists()


DEEP_JSON = "[" * 100_000 + "]" * 100_000
LONG_INT = "9" * 5000


@pytest.mark.parametrize(
    "command, name, content, message",
    [
        ("train", "answers.json", DEEP_JSON, "invalid JSON: maximum recursion depth"),
        ("grade", "new.json", DEEP_JSON, "invalid JSON: maximum recursion depth"),
        (
            "train",
            "answers.json",
            '[{"question_id": "q1", "answer": "a", "label": %s}]' % LONG_INT,
            "invalid JSON: Exceeds the limit",
        ),
        (
            "grade",
            "new.json",
            '[{"question_id": %s, "answer": "a"}]' % LONG_INT,
            "invalid JSON: Exceeds the limit",
        ),
        (
            "train",
            "answers.csv",
            "question_id,answer,label\nq1,%s,correct\n" % ("x" * 200_000),
            "CSV line 2: field larger than field limit",
        ),
    ],
    ids=["train-deep-json", "grade-deep-json", "train-long-int", "grade-long-int",
         "train-huge-csv-field"],
)
def test_hostile_answer_file_is_a_one_line_error(
    tmp_path, capsys, command, name, content, message
):
    answers = write(tmp_path / name, content)
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--answers", answers, "--out", str(out)]
    else:
        (tmp_path / "trees").mkdir()
        argv = ["grade", "--trees", str(tmp_path / "trees"), "--answers", answers,
                "--out", str(out)]
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(message)
    assert not out.exists()


def _chain_answers(count):
    # Each answer is one word of its own and the labels alternate, so the
    # tree is a chain of one test per two training answers.
    rows = "".join(
        f"q1,w{i:04d}x,{'correct' if i % 2 else 'incorrect'}\n" for i in range(count)
    )
    return "question_id,answer,label\n" + rows


@pytest.mark.parametrize("command", ["train"])
def test_a_tree_too_deep_to_grow_is_a_one_line_error(tmp_path, capsys, command):
    answers = write(tmp_path / "answers.csv", _chain_answers(2400))
    out = tmp_path / "out"
    assert main([command, "--answers", answers, "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "question 'q1': tree nested too deep"
    assert not out.exists()


def test_evaluate_grows_trees_too_deep_to_write(tmp_path, capsys):
    # Each fold trains on 2,200 answers, so its tree is a chain 1,100 tests
    # deep: deeper than train writes, as json could not read it back, and
    # than a recursive grower can grow.
    answers = write(tmp_path / "answers.csv", _chain_answers(4400))
    out = tmp_path / "out"
    assert main(["evaluate", "--answers", answers, "--k", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    (row,) = json.loads((out / "report.json").read_text())["rows"]
    assert row["question_id"] == "q1"
    assert (out / "report.csv").read_text().startswith("question_id,")


def test_train_writes_no_tree_when_a_later_question_fails(tmp_path, capsys):
    # q0 trains; q1's tree is too deep to grow (see the test above).
    rows = "".join(
        f"q1,w{i:04d}x,{'correct' if i % 2 else 'incorrect'}\n" for i in range(2400)
    )
    answers = write(
        tmp_path / "answers.csv",
        "question_id,answer,label\nq0,alpha,correct\nq0,beta,incorrect\n" + rows,
    )
    out = tmp_path / "out"
    assert main(["train", "--answers", answers, "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "question 'q1': tree nested too deep"
    assert not list(tmp_path.rglob("*.tree.json"))


@pytest.mark.parametrize("bad", ["new.csv", "Q52.tree.json"])
def test_grade_rejects_non_utf8_batch_and_tree_files(
    tmp_path, capsys, example_tree_path, bad
):
    trees = tmp_path / "trees"
    trees.mkdir()
    tree_text = example_tree_path.read_text(encoding="utf-8")
    tree_text = tree_text.replace("2020", "\u00e9t\u00e9")
    batch_text = "question_id,answer\nQ52,caf\u00e9 papillary\n"
    tree = trees / "Q52.tree.json"
    batch = tmp_path / "new.csv"
    for path, text in ((tree, tree_text), (batch, batch_text)):
        path.write_bytes(text.encode("latin-1" if path.name == bad else "utf-8"))
    out = tmp_path / "graded.csv"
    argv = ["grade", "--trees", str(trees), "--answers", str(batch), "--out", str(out)]
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert bad in line and "not UTF-8" in line
    assert not out.exists()


def test_byte_order_mark_is_read_as_utf8(tmp_path, reproducible_clock, example_tree_path):
    bom = b"\xef\xbb\xbf"
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    for directory, prefix in ((plain, b""), (marked, bom)):
        directory.mkdir()
        (directory / "answers.csv").write_bytes(prefix + GRADED.encode("utf-8"))
        (directory / "new.csv").write_bytes(
            prefix + "question_id,answer\nQ52,the papillary muscles\n".encode("utf-8")
        )
        (directory / "stop.txt").write_bytes(prefix + b"muscles\n")
        (directory / "trees").mkdir()
        (directory / "trees" / "Q52.tree.json").write_bytes(
            prefix + example_tree_path.read_bytes()
        )
        stopwords = ["--stopwords", str(directory / "stop.txt")]
        assert main(
            ["train", "--answers", str(directory / "answers.csv"),
             "--out", str(directory / "trained"), *stopwords]
        ) == 0
        assert main(
            ["grade", "--trees", str(directory / "trees"),
             "--answers", str(directory / "new.csv"),
             "--out", str(directory / "graded.csv"), *stopwords]
        ) == 0
    for name in ("trained/q1.tree.json", "trained/q2.tree.json", "graded.csv"):
        assert (plain / name).read_bytes() == (marked / name).read_bytes(), name


def test_grade_threshold_flagging(tmp_path, example_tree_path):
    trees = tmp_path / "trees"
    trees.mkdir()
    shutil.copy(example_tree_path, trees / "Q52.tree.json")
    ungraded = write(
        tmp_path / "new.csv", "question_id,answer\nQ52,the papillary muscles\n"
    )
    out = tmp_path / "graded.csv"
    assert main(
        [
            "grade", "--trees", str(trees), "--answers", ungraded,
            "--out", str(out), "--threshold", "0.99",
        ]
    ) == 0
    with open(out, newline="") as handle:
        (row,) = list(csv.DictReader(handle))
    assert row["label"] == "correct"
    assert row["certainty"] == "0.9700"
    assert row["flagged"] == "true"


def test_grade_rejects_out_of_range_threshold(tmp_path):
    assert main(
        ["grade", "--trees", "x", "--answers", "y", "--out", "z", "--threshold", "1.5"]
    ) == 2


# "the wall" and "wall" share a word set but not a label.
WALL = """question_id,answer,label
q1,the wall,correct
q1,wall,incorrect
q1,papillary,correct
"""


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_min_gain_is_a_one_line_usage_error(tmp_path, capsys, command, value):
    answers = write(tmp_path / "answers.csv", WALL)
    out = tmp_path / "out"
    argv = [command, "--answers", answers, "--out", str(out), "--min-gain", value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["--min-gain must be a finite number >= 0"]
    assert not out.exists()


def test_evaluate_writes_reports(tmp_path, capsys):
    answers = write(tmp_path / "answers.csv", EVALUATABLE)
    out = tmp_path / "report"
    assert main(["evaluate", "--answers", answers, "--out", str(out)]) == 0
    document = json.loads((out / "report.json").read_text())
    assert document["rows"][0]["question_id"] == "q1"
    assert document["rows"][0]["dt_accuracy"] == 1.0
    assert document["summary"]["question_count"] == 1
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[1].startswith("q1,0.500000,1.000000,")
    assert "mean accuracy 1.0000" in capsys.readouterr().out


def test_evaluate_skips_undersized_questions(tmp_path, capsys):
    graded_rows = GRADED.split("\n", 1)[1]  # drop the duplicate header line
    answers = write(tmp_path / "answers.csv", EVALUATABLE + graded_rows)
    out = tmp_path / "report"
    assert main(["evaluate", "--answers", answers, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "skipping q2" in err
    document = json.loads((out / "report.json").read_text())
    assert [r["question_id"] for r in document["rows"]] == ["q1"]


def test_evaluate_all_undersized_is_exit_1(tmp_path, capsys):
    answers = write(tmp_path / "answers.csv", GRADED)
    assert main(["evaluate", "--answers", answers, "--out", str(tmp_path / "r")]) == 1
    assert "no question had enough samples" in capsys.readouterr().err


def test_evaluate_runs_are_byte_identical(tmp_path):
    answers = write(tmp_path / "answers.csv", EVALUATABLE)
    first, second = tmp_path / "r1", tmp_path / "r2"
    assert main(["evaluate", "--answers", answers, "--out", str(first)]) == 0
    assert main(["evaluate", "--answers", answers, "--out", str(second)]) == 0
    assert (first / "report.csv").read_bytes() == (second / "report.csv").read_bytes()
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()


@pytest.mark.parametrize("k", ["1", "0", "-3"])
@pytest.mark.parametrize("exists", [True, False])
def test_evaluate_k_below_2_is_a_usage_error_before_any_read(
    tmp_path, capsys, k, exists
):
    answers = tmp_path / "answers.csv"
    if exists:
        write(answers, EVALUATABLE)
    out = tmp_path / "out"
    argv = ["evaluate", "--answers", str(answers), "--out", str(out), "--k", k]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["--k must be at least 2"]
    assert not out.exists()


def _questions_of_unequal_cost(sizes=(20, 90, 30, 60, 12, 45)):
    """Noisy questions of different sizes and vocabularies, so their trees
    and cross-validation times differ."""
    rng = random.Random(7)
    rows = ["question_id,answer,label"]
    for number, size in enumerate(sizes, 1):
        vocabulary = [f"w{number}x{i}" for i in range(size // 3 + 4)]
        for i in range(size):
            words = rng.sample(vocabulary, rng.randint(1, 5))
            correct = words[0] in vocabulary[::2] or rng.random() < 0.15
            label = "correct" if correct else "incorrect"
            rows.append(f"q{number},{' '.join(words)} n{i},{label}")
    return "\n".join(rows) + "\n"


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_evaluate_report_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    answers = write(tmp_path / "answers.csv", _questions_of_unequal_cost())
    reports = set()
    for cpus in (1, 2, 3, 50):  # 50 is more CPUs than questions
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["evaluate", "--answers", answers, "--out", str(out)]) == 0
        reports.add(((out / "report.csv").read_bytes(), (out / "report.json").read_bytes()))
    assert len(reports) == 1
    report_csv, _ = reports.pop()
    assert len(report_csv.splitlines()) == 7  # the header and six questions


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_no_worker_is_forked_beside_another_thread(
    tmp_path, monkeypatch, reproducible_clock, command
):
    answers = write(tmp_path / "answers.csv", _questions_of_unequal_cost())
    _cpus(monkeypatch, 1)
    assert main([command, "--answers", answers, "--out", str(tmp_path / "one")]) == 0
    _cpus(monkeypatch, 2)

    def fork():
        raise AssertionError("forked beside another thread")

    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        assert main([command, "--answers", answers, "--out", str(tmp_path / "two")]) == 0
    finally:
        stop.set()
        waiter.join()
    one = sorted((tmp_path / "one").iterdir())
    assert len(one) == (6 if command == "train" else 2)
    for path in one:
        assert path.read_bytes() == (tmp_path / "two" / path.name).read_bytes()


def _fail_in(monkeypatch, question_id, fail, in_child=True):
    """Make cross_validate call ``fail()`` on one question, in a forked worker
    or in the test's own process."""
    test_pid = os.getpid()
    cross_validate = evaluation.cross_validate

    def failing(dataset, min_gain, k, seed):
        if dataset.question_id == question_id and (os.getpid() != test_pid) == in_child:
            fail()
        return cross_validate(dataset, min_gain, k, seed)

    monkeypatch.setattr(evaluation, "cross_validate", failing)


def _assert_evaluate_fails_alone(tmp_path, capsys, message):
    answers = write(tmp_path / "answers.csv", _questions_of_unequal_cost())
    out = tmp_path / "out"
    assert main(["evaluate", "--answers", answers, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_evaluate_error_in_a_worker_is_one_line_exit_1(tmp_path, capsys, monkeypatch):
    _cpus(monkeypatch, 2)

    def fail():
        raise evaluation.FoldError("cannot make 10 folds from 9 samples")

    # Job j goes to worker j % 2: worker 0, the parent, takes q1, q3 and q5,
    # and worker 1 q2, q4 and q6.
    _fail_in(monkeypatch, "q4", fail)
    _assert_evaluate_fails_alone(tmp_path, capsys, "cannot make 10 folds from 9 samples")


def test_evaluate_reaps_workers_when_its_own_share_fails(tmp_path, capsys, monkeypatch):
    _cpus(monkeypatch, 3)

    def fail():
        raise evaluation.FoldError("need at least 2 folds, got k=1")

    _fail_in(monkeypatch, "q4", fail, in_child=False)  # the parent's last job
    _assert_evaluate_fails_alone(tmp_path, capsys, "need at least 2 folds, got k=1")


def test_evaluate_parent_runs_every_workers_th_question(tmp_path, monkeypatch):
    # With W workers, the parent runs jobs 0, W, 2W, ... in question order.
    answers = write(tmp_path / "answers.csv", _questions_of_unequal_cost())
    test_pid = os.getpid()
    cross_validate = evaluation.cross_validate
    in_parent = []

    def recording(dataset, min_gain, k, seed):
        if os.getpid() == test_pid:
            in_parent.append(dataset.question_id)
        return cross_validate(dataset, min_gain, k, seed)

    monkeypatch.setattr(evaluation, "cross_validate", recording)
    for cpus in range(1, 8):
        _cpus(monkeypatch, cpus)
        in_parent.clear()
        assert main(["evaluate", "--answers", answers, "--out", str(tmp_path / "out")]) == 0
        assert in_parent == [f"q{n}" for n in range(1, 7)][::cpus]


def test_evaluate_worker_that_dies_is_one_line_exit_1(tmp_path, capsys, monkeypatch):
    _cpus(monkeypatch, 3)
    # Job j goes to worker j % 3: worker 2 takes q3 and q6.
    _fail_in(monkeypatch, "q3", lambda: os._exit(3))
    _assert_evaluate_fails_alone(
        tmp_path, capsys, "evaluate worker 2 ended with exit status 3 before sending its results"
    )


def test_evaluate_worker_stops_once_its_parent_is_gone(tmp_path, capsys, monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "getppid", lambda: -1)  # no live process has this pid
    _assert_evaluate_fails_alone(
        tmp_path, capsys, "evaluate worker 1 ended with exit status 1 before sending its results"
    )


def test_train_output_does_not_depend_on_the_cpu_count(
    tmp_path, capsys, monkeypatch, reproducible_clock
):
    answers = write(tmp_path / "answers.csv", _questions_of_unequal_cost())
    outputs = set()
    for cpus in (1, 2, 3, 50):  # 50 is more CPUs than questions
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["train", "--answers", answers, "--out", str(out)]) == 0
        trees = tuple((p.name, p.read_bytes()) for p in sorted(out.iterdir()))
        captured = capsys.readouterr()
        outputs.add((trees, captured.out, captured.err))
    assert len(outputs) == 1
    trees, stdout, stderr = outputs.pop()
    assert [name for name, _ in trees] == [f"q{n}.tree.json" for n in range(1, 7)]
    assert [line.split(":")[0] for line in stdout.splitlines()] == [
        f"q{n}" for n in range(1, 7)
    ]
    assert stderr == ""


def test_train_and_evaluate_with_no_question(tmp_path, capsys, monkeypatch):
    _cpus(monkeypatch, 2)
    answers = write(tmp_path / "answers.csv", "question_id,answer,label\n")
    out = tmp_path / "out"
    assert main(["train", "--answers", answers, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert not out.exists()
    assert main(["evaluate", "--answers", answers, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["no question had enough samples to evaluate"]
    assert not out.exists()


@contextlib.contextmanager
def _recursion_room(frames):
    """Hold the recursion limit ``frames`` above the caller's stack, so that
    a tree a few hundred levels deep is too deep for json to read back."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_train_writes_a_chain_only_if_it_reads_back(tmp_path, capsys):
    written, refused = [], []
    with _recursion_room(250):
        for depth in range(100, 300, 20):
            answers = write(tmp_path / f"chain{depth}.csv", _chain_answers(2 * depth))
            out = tmp_path / f"out{depth}"
            code = main(["train", "--answers", answers, "--out", str(out)])
            err = capsys.readouterr().err
            if code == 0:
                tree = deserialize_tree((out / "q1.tree.json").read_text(encoding="utf-8"))
                written.append((depth, len(tree.words), err))
            else:
                refused.append((depth, code, err, out.exists()))
    assert written and refused
    assert max(depth for depth, *_ in written) < min(depth for depth, *_ in refused)
    for depth, nodes, err in written:
        assert (nodes, err) == (2 * depth + 1, "")
    for _, code, err, exists in refused:
        assert (code, err, exists) == (1, "question 'q1': tree nested too deep\n", False)


# Two workers: q0, the first question, is dealt to the parent, and q1 to
# worker 1.
_TWO_LOADS = "question_id,answer,label\n" + "q0,alpha,correct\nq0,beta,incorrect\n" * 200


def _assert_train_fails_alike(tmp_path, capsys, monkeypatch, answers_text, cpus, lines):
    """Train on one CPU and on ``cpus``: each run is exit 1 with the stderr
    ``lines``, writes no tree and leaves no worker behind."""
    answers = write(tmp_path / "answers.csv", answers_text)
    for count in (1, cpus):
        _cpus(monkeypatch, count)
        out = tmp_path / f"cpus{count}"
        assert main(["train", "--answers", answers, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err.splitlines()) == ("", lines)
        assert not out.exists()
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)


def test_train_reports_failed_validation_in_question_order_on_any_cpu_count(
    tmp_path, capsys, monkeypatch
):
    # Dealt by position to three workers: q7 to the parent, q2 to worker 1,
    # and q3 and q6 to worker 2.
    conflict = "{q},dupe,correct\n{q},dupe,incorrect\n"
    text = (
        _questions_of_unequal_cost()
        + conflict.format(q="q6")
        + conflict.format(q="q3")
        + "q7, ,correct\nq7,,incorrect\n"
        + conflict.format(q="q2")
    )
    groups = corpus.group_records(corpus.parse_answer_file(text, "csv"))
    lines = []
    for question_id in ("q2", "q3", "q6"):
        lines += corpus.validate_dataset(groups[question_id]).render().splitlines()
    lines += ["question 'q7': no non-blank answers to train on", "answer file failed validation"]
    _assert_train_fails_alike(tmp_path, capsys, monkeypatch, text, 3, lines)


def test_train_reports_a_tree_too_deep_in_a_worker_as_on_one_cpu(
    tmp_path, capsys, monkeypatch
):
    text = _TWO_LOADS + _chain_answers(300)[len("question_id,answer,label\n"):]
    with _recursion_room(120):
        _assert_train_fails_alike(
            tmp_path, capsys, monkeypatch, text, 2, ["question 'q1': tree nested too deep"]
        )


def _reject(message):
    raise corpus.CorpusError(message)


@pytest.mark.parametrize(
    "fail, message",
    [
        (lambda: os._exit(3), "train worker 1 ended with exit status 3 before sending its results"),
        (lambda: _reject("q1: rejected in a worker"), "q1: rejected in a worker"),
    ],
    ids=["dies", "raises"],
)
def test_train_worker_that_fails_is_one_line_exit_1(
    tmp_path, capsys, monkeypatch, fail, message
):
    _cpus(monkeypatch, 2)
    test_pid = os.getpid()
    build_tree = dtree.build_tree

    def failing(dataset, *args, **kwargs):
        if dataset.question_id == "q1" and os.getpid() != test_pid:
            fail()
        return build_tree(dataset, *args, **kwargs)

    monkeypatch.setattr(dtree, "build_tree", failing)
    answers = write(tmp_path / "answers.csv", _TWO_LOADS + "q1,gamma,correct\n")
    out = tmp_path / "out"
    assert main(["train", "--answers", answers, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "module", ["pickle", "dataclasses", "inspect", "datetime", "tempfile", "shutil"]
)
def test_cli_import_leaves_pickle_out(module):
    # Every command pays for what importing the CLI imports. Only a fan-out
    # to several workers needs pickle, only train needs datetime, and only
    # commands that write a file need tempfile and the shutil it imports;
    # the records are NamedTuples, so nothing needs dataclasses or the
    # inspect it imports.
    # -S keeps site out, since a .pth file it runs may import any of these.
    code = f"import sys, answertree.cli; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout) == (0, "False\n")


def test_stats_from_fixture(tmp_path, capsys, reference_tables_path):
    out = tmp_path / "stats.json"
    assert main(
        ["stats", "--fixture", str(reference_tables_path), "--out", str(out)]
    ) == 0
    document = json.loads(out.read_text())
    assert document["summary"]["question_count"] == 54
    stdout = capsys.readouterr().out
    assert "accuracy vs unique_all: r = -0.7" in stdout


def test_stats_bad_fixture_is_exit_1(tmp_path, capsys):
    bad = write(tmp_path / "bad.csv", "a,b\n1,2\n")
    assert main(["stats", "--fixture", bad, "--out", str(tmp_path / "o.json")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("bad CSV header ['a', 'b'], expected question_id,")


def test_stats_fixture_with_an_oversized_field_is_a_one_line_error(tmp_path, capsys):
    header = ",".join(REPORT_CSV_HEADER)
    bad = write(tmp_path / "bad.csv", f"{header}\nQ1,{'9' * 200_000},1,1,1,1\n")
    out = tmp_path / "o.json"
    assert main(["stats", "--fixture", bad, "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("CSV line 2: field larger than field limit")
    assert not out.exists()


@pytest.mark.parametrize(
    "cells, message",
    [
        ("nan,1,1,1,1", "row 1: average_grade 'nan' is not a finite number"),
        ("0.5,inf,1,1,1", "row 1: dt_accuracy 'inf' is not a finite number"),
        ("0.5,-Infinity,1,1,1", "row 1: dt_accuracy '-Infinity' is not a finite number"),
        ("abc,1,1,1,1", "row 1: average_grade 'abc' is not a number"),
        ("0.5,1,1.5,1,1", "row 1: unique_all '1.5' is not an integer"),
        ("0.5,1,1,1,x", "row 1: unique_incorrect 'x' is not an integer"),
    ],
    ids=["nan", "inf", "-inf", "abc", "float-count", "text-count"],
)
def test_stats_bad_fixture_number_is_a_one_line_error(tmp_path, capsys, cells, message):
    header = ",".join(REPORT_CSV_HEADER)
    # The bad cell is in the first row; the other rows are good.
    rows = f"Q1,{cells}\nQ2,0.6,0.9,5,3,2\nQ3,0.7,0.8,6,4,2\n"
    bad = write(tmp_path / "bad.csv", f"{header}\n{rows}")
    out = tmp_path / "o.json"
    assert main(["stats", "--fixture", bad, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


def _grade_into(out, tmp_path, example_tree_path):
    """Grade a two-row batch with the example tree into ``out``; the bytes
    the same run writes to a plain new file."""
    trees = tmp_path / "trees"
    if not trees.exists():
        trees.mkdir()
        shutil.copy(example_tree_path, trees / "Q52.tree.json")
    batch = write(tmp_path / "new.csv", "question_id,answer\nQ52,papillary muscles\nQ52,x\n")
    plain = tmp_path / "plain.csv"
    for path in (plain, out):
        argv = ["grade", "--trees", str(trees), "--answers", batch, "--out", str(path)]
        assert main(argv) == 0
    return plain.read_bytes()


@pytest.mark.parametrize("target_exists", [True, False])
def test_out_through_a_symlink_replaces_its_target(tmp_path, example_tree_path, target_exists):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    if target_exists:
        target.write_text("old\n")
    link.symlink_to("target.csv")
    graded = _grade_into(link, tmp_path, example_tree_path)
    assert os.readlink(link) == "target.csv"
    assert target.read_bytes() == graded
    # No temporary file is left beside the link or the target.
    assert {p.name for p in tmp_path.glob(".*")} == set()


def test_out_into_a_fifo_writes_through_it(tmp_path, example_tree_path):
    fifo = tmp_path / "graded.fifo"
    os.mkfifo(fifo)
    # A reader that is already open lets the writer open the FIFO at once;
    # the output fits in the pipe's buffer, so the write does not block.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        graded = _grade_into(fifo, tmp_path, example_tree_path)
        assert os.read(reader, 1 << 16) == graded
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def _run_cli(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **env):
    """``python -m answertree`` with ``args`` in a subprocess, with ``env``
    added to the environment; its output is bytes."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "answertree", *args],
        env=dict(os.environ, PYTHONPATH=path, **env),
        stdout=stdout,
        stderr=stderr,
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("mode", ["wb", "ab"], ids=[">", ">>"])
def test_out_that_is_stdout_goes_between_the_printed_lines(
    tmp_path, capsys, reference_tables_path, mode
):
    # Under "> log" or ">> log", /dev/stdout names the log itself. The report
    # goes through stdout, so the log keeps what was there before it (with
    # ">>") and the correlation lines printed after it.
    report = tmp_path / "stats.json"
    argv = ["stats", "--fixture", str(reference_tables_path), "--out"]
    assert main([*argv, str(report)]) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    log = tmp_path / "log.txt"
    log.write_bytes(b"old\n")
    with open(log, mode) as stdout:
        done = _run_cli([*argv, "/dev/stdout"], stdout)
    assert (done.returncode, done.stderr) == (0, b"")
    before = b"old\n" if mode == "ab" else b""
    assert log.read_bytes() == before + report.read_bytes() + printed
    assert {p.name for p in tmp_path.glob(".*")} == set()


@pytest.mark.skipif(not os.path.exists("/dev/stderr"), reason="no /dev/stderr")
@pytest.mark.parametrize("mode", ["wb", "ab"], ids=["2>", "2>>"])
def test_out_that_is_stderr_is_written_through_stderr(
    tmp_path, capsys, reference_tables_path, mode
):
    # Under "2> err" or "2>> err", /dev/stderr names the log itself. The
    # report goes through stderr into that same file, after what was there
    # before (with "2>>"); replacing the file would cut stderr off from it.
    report = tmp_path / "stats.json"
    argv = ["stats", "--fixture", str(reference_tables_path), "--out"]
    assert main([*argv, str(report)]) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    log = tmp_path / "err.txt"
    log.write_bytes(b"old\n")
    inode = log.stat().st_ino
    with open(log, mode) as stderr:
        done = _run_cli([*argv, "/dev/stderr"], stderr=stderr)
    assert (done.returncode, done.stdout) == (0, printed)
    before = b"old\n" if mode == "ab" else b""
    assert log.read_bytes() == before + report.read_bytes()
    assert log.stat().st_ino == inode
    assert {p.name for p in tmp_path.glob(".*")} == set()


# A tree whose root tests a non-ASCII word, which "alpha" answers after it.
_NON_ASCII_TREE = {
    "question_id": "qé",
    "root": {
        "word": "café", "label": "incorrect", "count": 2, "size": 4,
        "true": {"label": "incorrect", "count": 1, "size": 1},
        "false": {
            "word": "alpha", "label": "correct", "count": 2, "size": 3,
            "true": {"label": "correct", "count": 2, "size": 2},
            "false": {"label": "incorrect", "count": 1, "size": 1},
        },
    },
}


@pytest.mark.parametrize("command", ["train", "explain"])
def test_stdout_escapes_what_its_encoding_cannot_hold(tmp_path, command):
    if command == "train":
        answers = write(
            tmp_path / "answers.csv",
            "question_id,answer,label\nqé,alpha beta,correct\nqé,gamma,incorrect\n",
        )
        args = ["train", "--answers", answers, "--out", str(tmp_path / "trees")]
        want = "qé: 2 samples (1 correct, 1 incorrect), vocabulary 3\n"
    else:
        tree = write(tmp_path / "tree.json", json.dumps(_NON_ASCII_TREE))
        args = ["explain", "--tree", tree, "--answer", "alpha"]
        want = (
            'First node "café" returns FALSE\n'
            'Second node "alpha" returns TRUE\n'
            "answer is correct (100% significance)\n"
            'critical decision point: "alpha"\n'
        )
    for encoding, errors in (("utf-8", "strict"), ("ascii", "backslashreplace")):
        done = _run_cli(args, PYTHONIOENCODING=encoding, SOURCE_DATE_EPOCH="0")
        assert (done.returncode, done.stderr) == (0, b""), encoding
        assert done.stdout == want.encode(encoding, errors)
    if command == "train":
        assert [p.name for p in (tmp_path / "trees").iterdir()] == ["qé.tree.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_new_outputs_get_the_mode_open_would_give(
    tmp_path, reference_tables_path, reproducible_clock, umask
):
    stats, trees = tmp_path / "stats.json", tmp_path / "trees"
    answers = write(tmp_path / "answers.csv", GRADED)
    old = os.umask(umask)
    try:
        assert main(["stats", "--fixture", str(reference_tables_path), "--out", str(stats)]) == 0
        assert main(["train", "--answers", answers, "--out", str(trees)]) == 0
    finally:
        os.umask(old)
    for path in [stats, *trees.iterdir()]:
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path


def test_an_output_that_exists_keeps_its_mode(tmp_path, reference_tables_path):
    out = tmp_path / "stats.json"
    out.write_text("old\n")
    out.chmod(0o640)
    assert main(["stats", "--fixture", str(reference_tables_path), "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert json.loads(out.read_text())["summary"]["question_count"] == 54


def test_explain_prints_the_trace(tmp_path, capsys, example_tree_path):
    assert main(
        ["explain", "--tree", str(example_tree_path), "--answer", "The papillary muscles!"]
    ) == 0
    stdout = capsys.readouterr().out
    assert 'First node "muscles" returns TRUE' in stdout
    assert "answer is correct (97% significance)" in stdout
    assert 'critical decision point: "papillary"' in stdout


def test_custom_stopword_file(tmp_path, capsys, example_tree_path):
    # With "muscles" declared a stopword the example answer loses its first
    # feature and takes the FALSE branches instead. An upper-case entry
    # matches too: answers are lower-cased before the stopword check.
    for entry in ("muscles", "MUSCLES"):
        stopwords = write(tmp_path / "stop.txt", f"{entry}\n")
        assert main(
            [
                "explain", "--tree", str(example_tree_path),
                "--answer", "papillary muscles", "--stopwords", stopwords,
            ]
        ) == 0
        assert "answer is incorrect" in capsys.readouterr().out


@pytest.mark.parametrize("entry", ["don't", "x-ray", "\u00e9t\u00e9", "two words"])
def test_stopword_that_is_not_one_word_is_exit_1(tmp_path, capsys, entry):
    # Such an entry could never match a word of an answer.
    answers = write(tmp_path / "answers.csv", GRADED)
    stopwords = write(tmp_path / "stop.txt", f"# header\nwall\n  {entry}\n")
    out = tmp_path / "trees"
    assert main(
        ["train", "--answers", answers, "--out", str(out), "--stopwords", stopwords]
    ) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{stopwords}: line 3: {entry!r} is not one word of a-z and 0-9\n"
    )
    assert not out.exists()


def test_missing_input_file_is_exit_1(tmp_path, capsys):
    assert main(
        ["train", "--answers", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]
    ) == 1
    assert "nope.csv" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["train"])  # missing required flags
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


# Pieces of hostile answer files: the structure characters of CSV and JSON,
# header names, labels, a digit run, a byte-order mark and unsafe ids.
PIECES = [
    "question_id", "answer", "label", ",", '"', "'", "\n", "\r\n", "[", "]",
    "{", "}", ":", " ", "\\", "\ufeff", "\x00", "q1", "q2", "../q", "a/b",
    "correct", "incorrect", "0", "1", "9" * 30, "alpha", "beta", "the", "null",
]
hostile_text = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)


@st.composite
def input_files(draw, columns):
    """A file suffix and content: hostile text, raw bytes, or rows laid out
    as a file with ``columns`` in either format. The rows' answers are
    hostile text; their ids and labels are valid or hostile text too."""
    suffix = draw(st.sampled_from([".csv", ".json"]))
    kind = draw(st.sampled_from(["text", "bytes", "rows", "rows"]))
    if kind == "bytes":
        return suffix, draw(st.binary(max_size=80))
    if kind == "text":
        text = draw(hostile_text)
    else:
        if draw(st.booleans()):
            ids, labels = st.sampled_from(["q1", "q2"]), st.sampled_from(["1", "0"])
        else:
            ids = labels = hostile_text
        fields = (ids, hostile_text, labels)[: len(columns)]
        rows = draw(st.lists(st.tuples(*fields), max_size=8))
        if suffix == ".json":
            text = json.dumps([dict(zip(columns, row)) for row in rows])
        else:
            out = io.StringIO()
            csv.writer(out).writerows([columns, *rows])
            text = out.getvalue()
    bom = "\ufeff" if draw(st.booleans()) else ""
    return suffix, (bom + text).encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(input_files(CSV_HEADER), input_files(UNGRADED_CSV_HEADER))
def test_train_and_grade_survive_hostile_input(answers_file, batch_file):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        answers = work / ("answers" + answers_file[0])
        batch = work / ("batch" + batch_file[0])
        answers.write_bytes(answers_file[1])
        batch.write_bytes(batch_file[1])
        trees, graded = work / "trees", work / "graded.csv"
        codes = {
            main(["train", "--answers", str(answers), "--out", str(trees)]),
            main(["grade", "--trees", str(trees), "--answers", str(batch),
                  "--out", str(graded)]),
        }
        assert codes <= {0, 1, 2}
        names = {answers.name, batch.name, trees.name, graded.name}
        assert {p.name for p in work.iterdir()} <= names
        assert all(p.parent == trees for p in trees.rglob("*"))
