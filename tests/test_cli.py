import contextlib
import csv
import errno
import io
import json
import os
import random
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import answertree
from answertree import cli, corpus, dtree, evaluation, textprep
from answertree.cli import _atomic_write, main
from answertree.corpus import CSV_HEADER, UNGRADED_CSV_HEADER
from answertree.dtree import classify, deserialize_tree
from answertree.evaluation import REPORT_CSV_HEADER
from answertree.textprep import DEFAULT_STOPWORDS, preprocess

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


# A 246-byte id makes a 256-byte file name, one past the limit.
@pytest.mark.parametrize(
    "question_id", ["../escape", "..", ".", "a/b", "a\\b", "a\0b", "q" * 246]
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
    question_id = "q" * 245  # its file name is 255 bytes
    answers = write(
        tmp_path / "answers.csv", f"question_id,answer,label\n{question_id},alpha,correct\n"
    )
    assert main(["train", "--answers", answers, "--out", str(tmp_path / "out")]) == 0
    assert [p.name for p in (tmp_path / "out").iterdir()] == [f"{question_id}.tree.json"]


def test_train_names_a_tree_by_the_text_of_a_number_id(tmp_path):
    # 1e400 is past the largest float, so float() would read it as inf.
    answers = write(
        tmp_path / "answers.json",
        '[{"question_id": 1e400, "answer": "alpha", "label": 1},'
        ' {"question_id": 1e400, "answer": "beta", "label": 0}]',
    )
    out = tmp_path / "out"
    assert main(["train", "--answers", answers, "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["1e400.tree.json"]
    assert deserialize_tree((out / "1e400.tree.json").read_text()).question_id == "1e400"


# int() reads the last four too, as 1592179200, 12, 12 and 5; the variable
# is ASCII digits, as `date +%s` prints them.
@pytest.mark.parametrize(
    "epoch",
    ["abc", "99999999999999999", "1e9", "-99999999999",
     "1_592_179_200", " 12 ", "\u0661\u0662", "+5"],
)
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
    assert captured.err == (
        f"{answers}: element 0: question_id must be text or a number, not null\n"
    )
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
    assert captured.err == f"{answers}: invalid JSON: {constant} is not a JSON value\n"
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
    # comes first, so no output of it may be written either; grade has a
    # tree for it, so element 20 is the first fault. A batch ignores the
    # label key.
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
        document = json.loads(example_tree_path.read_text(encoding="utf-8"))
        write(trees / "a.tree.json", json.dumps({**document, "question_id": "a"}))
        argv += ["--trees", str(trees)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"{answers}: element 20: {column} holds a lone surrogate, which is not text\n"
    )
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


def _rows_formatted_from_classify(trees, rows, threshold, stopwords=DEFAULT_STOPWORDS):
    """The graded CSV built from fresh trees, formatting every row from its
    own classify result on the answer's word set less ``stopwords``."""
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
        result = classify(loaded[question_id], preprocess(answer, stopwords))
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


def _crlf_copy(text):
    """``text``, a CSV batch, as a spreadsheet writes it: every record ends
    in CRLF, and a line break inside an answer stays LF."""
    out = io.StringIO()
    rows = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    csv.writer(out, lineterminator="\r\n").writerows(rows)
    return "\ufeff" + out.getvalue()


@pytest.mark.parametrize("threshold", ["0", "0.97", "1"])
@pytest.mark.parametrize("endings", ["lf", "crlf"])
def test_grade_mixed_batch_equals_rows_formatted_from_classify(
    tmp_path, reproducible_clock, example_tree_path, mixed_batch_path, threshold, endings
):
    trees = _trees_with_example(tmp_path, example_tree_path)
    text = mixed_batch_path.read_text(encoding="utf-8")
    assert text.startswith("\ufeff") and "\r" not in text
    if endings == "crlf":
        text = _crlf_copy(text)
    ungraded = write(tmp_path / "new.csv", text)
    rows = [tuple(r) for r in csv.reader(io.StringIO(text.removeprefix("\ufeff")))][1:]
    out = tmp_path / "graded.csv"
    argv = ["grade", "--trees", str(trees), "--answers", ungraded, "--out", str(out)]
    assert main(argv + ["--threshold", threshold]) == 0
    want = _rows_formatted_from_classify(trees, [r for r in rows if r], threshold)
    assert out.read_bytes() == want


@pytest.mark.parametrize("endings", ["lf", "crlf"])
def test_grade_reads_and_grades_a_repeated_line_once(
    tmp_path, monkeypatch, reproducible_clock, example_tree_path, mixed_batch_path, endings
):
    trees = _trees_with_example(tmp_path, example_tree_path)
    text = mixed_batch_path.read_text(encoding="utf-8")
    if endings == "crlf":
        text = _crlf_copy(text)
    ungraded = write(tmp_path / "new.csv", text)
    records = list(csv.reader(io.StringIO(text.removeprefix("\ufeff"))))[1:]
    calls, handed, parsed = [], [], []
    real_reader, real_parse = csv.reader, corpus.parse_ungraded_file

    def counting_classify(tree, words):
        calls.append(words)
        return classify(tree, words)

    def spying_reader(lines):
        """csv.reader, noting the lines each record it returns was read from."""
        pulled = []

        def pulling():
            for line in lines:
                pulled.append(line)
                yield line

        reader = real_reader(pulling())
        while True:
            start = len(pulled)
            row = next(reader, None)
            if row is None:
                return
            handed.append(pulled[start:])
            yield row

    def spying_parse(content, format, build):
        parsed.append(real_parse(content, format, build))
        return parsed[-1]

    monkeypatch.setattr(dtree, "classify", counting_classify)
    monkeypatch.setattr(csv, "reader", spying_reader)
    monkeypatch.setattr(corpus, "parse_ungraded_file", spying_parse)
    argv = ["grade", "--trees", str(trees), "--answers", ungraded]
    assert main(argv + ["--out", str(tmp_path / "graded.csv")]) == 0
    monkeypatch.undo()
    (lines,) = parsed
    # csv.reader is handed only lines holding a quote or a CR: a record
    # starts at one, and the two-line answer ends in its closing quote. No
    # record is handed twice, though each of them repeats in the batch.
    assert all('"' in line or "\r" in line for lines in handed for line in lines)
    firsts = [lines[0] for lines in handed]
    assert len(set(firsts)) == len(firsts)
    if endings == "lf":
        assert firsts == [
            'Q52,"papillary, muscles"\n',
            'Q52,"the ""papillary"" muscles"\n',
            'Q52,"atrial\n',
        ]
    # One output line per non-blank record, and a repeated record is not
    # graded again: its line is the first one's object.
    assert len(lines) == len([r for r in records if r])
    first_of = {}
    for line in lines:
        assert first_of.setdefault(line, line) is line
    # One classify call per distinct record with a non-blank answer.
    assert len(calls) == len({tuple(r) for r in records if r and r[1].strip()}) == 7


def test_grade_classifies_each_distinct_json_element_and_multiline_record_once(
    tmp_path, monkeypatch, reproducible_clock, example_tree_path
):
    trees = _trees_with_example(tmp_path, example_tree_path)
    rows = [
        ("Q52", "atrial\npapillary muscles"), ("q1", "alpha gamma"), ("q1", ""),
        ("Q52", "atrial\npapillary muscles"), ("q2", "alpha gamma"), ("q1", "alpha gamma"),
        ("q1", ""), ("Q52", "atrial\npapillary muscles"), ("Q52", 'the "papillary"'),
        ("Q52", 'the "papillary"'),
    ]
    elements = [{"question_id": q, "answer": a} for q, a in rows]
    batches = [
        _batch_file(tmp_path / "new.csv", rows),  # a two-line quoted record, three times
        write(tmp_path / "new.json", json.dumps(elements)),
    ]
    want = _rows_formatted_from_classify(trees, rows, "0.7")
    for ungraded in batches:
        calls = []

        def counting_classify(tree, words):
            calls.append(tree.question_id)
            return classify(tree, words)

        monkeypatch.setattr(dtree, "classify", counting_classify)
        out = tmp_path / "graded.csv"
        argv = ["grade", "--trees", str(trees), "--answers", ungraded, "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == want
        assert len(calls) == len({(q, a) for q, a in rows if a.strip()}) == 4


def test_grade_and_explain_classify_a_word_set_and_never_preprocess(
    tmp_path, monkeypatch, reproducible_clock, example_tree_path
):
    trees = _trees_with_example(tmp_path, example_tree_path)
    ungraded = _batch_file(tmp_path / "new.csv", GRADE_BATCH)
    kinds = []

    def spying_classify(tree, words):
        kinds.append(type(words))
        return classify(tree, words)

    def no_preprocess(text, stopwords=DEFAULT_STOPWORDS):
        pytest.fail(f"preprocess({text!r}) was called")

    monkeypatch.setattr(dtree, "classify", spying_classify)
    monkeypatch.setattr(textprep, "preprocess", no_preprocess)
    out = tmp_path / "graded.csv"
    argv = ["grade", "--trees", str(trees), "--answers", ungraded, "--out", str(out)]
    assert main(argv) == 0
    argv = ["explain", "--tree", str(example_tree_path), "--answer", "the papillary muscles"]
    assert main(argv) == 0
    assert len(kinds) > 1 and set(kinds) == {frozenset}
    monkeypatch.undo()
    assert out.read_bytes() == _rows_formatted_from_classify(trees, GRADE_BATCH, "0.7")


# "the" alone tells each correct answer from an incorrect one, so a tree
# trained with no stopwords tests it, and the default list hides it.
THE_SPLITS = "question_id,answer,label\n" + "".join(
    f"q1,the {text},correct\nq1,{text},incorrect\n"
    for text in ("mitral valve", "tricuspid valve", "septum", "apex")
)


def test_grade_classifies_as_the_stopwords_each_tree_was_trained_with(
    tmp_path, reproducible_clock, example_tree_path
):
    trees = tmp_path / "trees"
    none = write(tmp_path / "none.txt", "# no stopwords\n")
    answers = write(tmp_path / "answers.csv", THE_SPLITS)
    assert main(["train", "--answers", answers, "--out", str(trees), "--stopwords", none]) == 0
    assert json.loads((trees / "q1.tree.json").read_text())["root"]["word"] == "the"
    shutil.copy(example_tree_path, trees / "Q52.tree.json")  # trained with the default list
    rows = [
        ("q1", "the mitral valve"), ("q1", "mitral valve"), ("q1", "The septum"),
        ("q1", "THE"), ("q1", "the the apex"), ("q1", "novel words"), ("q1", "a septum"),
        ("Q52", "the papillary muscles"), ("Q52", "papillary muscles of the heart"),
    ]
    ungraded = _batch_file(tmp_path / "new.csv", rows)
    out = tmp_path / "graded.csv"
    assert main(["grade", "--trees", str(trees), "--answers", ungraded, "--out", str(out)]) == 0
    # Q52's tree, trained with the default list, tests none of its words.
    assert out.read_bytes() == _rows_formatted_from_classify(trees, rows, "0.7", frozenset())
    # The default list would hide "the" from q1's tree.
    assert out.read_bytes() != _rows_formatted_from_classify(trees, rows, "0.7")


WORDS = ["the", "a", "of", "mitral", "valve", "cusp", "septum", "l4"]
# Answers in those words and a few others, in any case, glued or apart.
answer_texts = st.one_of(
    st.text(max_size=30),
    st.lists(
        st.sampled_from([*WORDS, "The", "VALVE", "novel", " ", " ", ", ", "-", "!", "\t"]),
        max_size=10,
    ).map("".join),
)
stopword_sets = st.one_of(
    st.just(DEFAULT_STOPWORDS), st.just(frozenset()), st.frozensets(st.sampled_from([*WORDS, "x"]))
)


@st.composite
def training_sets(draw):
    """Graded q1 records and the stopwords to train them with: THE_SPLITS
    with no stopwords, whose tree tests "the", or distinct answers in
    ``WORDS`` with any stopwords."""
    if draw(st.booleans()):
        return corpus.parse_answer_file(THE_SPLITS, "csv"), frozenset()
    texts = draw(st.lists(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join),
        min_size=1, max_size=12, unique=True,
    ))
    labels = st.sampled_from(list(corpus.Label))
    records = [corpus.AnswerRecord("q1", text, draw(labels)) for text in texts]
    return records, draw(stopword_sets)


@st.composite
def question_trees(draw, example_tree_path):
    """A tree and the stopwords it was trained with: the example tree and the
    default list, or a tree trained on ``training_sets``."""
    if draw(st.integers(0, 2)) == 0:
        return deserialize_tree(example_tree_path.read_text(encoding="utf-8")), DEFAULT_STOPWORDS
    records, stopwords = draw(training_sets())
    return dtree.build_tree(corpus.build_question_dataset(records, "q1", stopwords)), stopwords


@settings(max_examples=300)
@given(data=st.data(), text=answer_texts)
def test_classify_of_an_answers_words_equals_classify_with_the_training_stopwords(
    example_tree_path, data, text
):
    tree, stopwords = data.draw(question_trees(example_tree_path))
    assert preprocess(text, stopwords) == frozenset(textprep.words(text)) - stopwords
    # Each side grades a copy with no leaf result kept from the other.
    got = cli._classify(dtree.DecisionTree(*tree), text)
    if text.strip():
        want = classify(dtree.DecisionTree(*tree), preprocess(text, stopwords))
    else:
        want = cli._BLANK
    assert got._asdict() == want._asdict()


@settings(max_examples=60, deadline=None)
@given(
    training=training_sets(),
    # Answers a CSV batch and argv hold as they are: a file is read with its
    # CRs as LFs, csv.reader on Python 3.10 rejects a NUL, and argparse
    # before 3.13 cannot read the value "--".
    answers=st.lists(
        answer_texts.map(lambda text: text.replace("\0", "").replace("\r", ""))
        .filter(lambda text: text != "--"),
        min_size=1, max_size=6,
    ),
)
def test_grade_and_explain_with_no_list_classify_as_the_training_stopwords(training, answers):
    records, stopwords = training
    rows = [("q1", answer) for answer in answers]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        graded = io.StringIO()
        csv.writer(graded, lineterminator="\n").writerows(
            [CSV_HEADER, *((r.question_id, r.raw_text, r.label.value) for r in records)]
        )
        train = [
            "train", "--answers", write(work / "answers.csv", graded.getvalue()),
            "--out", str(work / "trees"),
            "--stopwords", write(work / "stop.txt", "".join(f"{w}\n" for w in ["#", *stopwords])),
        ]
        out = work / "graded.csv"
        grade = ["grade", "--trees", str(work / "trees"),
                 "--answers", _batch_file(work / "new.csv", rows), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(train) == 0
            assert main(grade) == 0
        assert out.read_bytes() == _rows_formatted_from_classify(work / "trees", rows, "0.7", stopwords)
        path = work / "trees" / "q1.tree.json"
        tree = deserialize_tree(path.read_text(encoding="utf-8"))
        for answer in answers:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                assert main(["explain", "--tree", str(path), f"--answer={answer}"]) == 0
            result = classify(tree, preprocess(answer, stopwords)) if answer.strip() else cli._BLANK
            assert printed.getvalue() == dtree.explain(result) + "\n"


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
    # REUSE_BATCH's records are rows 1-34; one answer spans two lines.
    assert line == f"{ungraded}: row 35: no trained tree for question 'q9'"
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("suffix", ["csv", "json"])
def test_grade_unknown_question_names_its_first_row(
    tmp_path, capsys, reproducible_clock, example_tree_path, suffix
):
    trees = _trees_with_example(tmp_path, example_tree_path)
    rows = [("q1", "alpha"), ("q9", "x"), ("q8", "y"), ("q9", "x"), ("q2", "beta")]
    if suffix == "json":
        elements = [{"question_id": q, "answer": a} for q, a in rows]
        ungraded = write(tmp_path / "new.json", json.dumps(elements))
        where = "element 1"
    else:  # blank lines count in row numbers
        ungraded = write(tmp_path / "new.csv", "question_id,answer\n\nq1,alpha\n\n"
                         + "".join(f"{q},{a}\n" for q, a in rows[1:]))
        where = "row 4"
    out = tmp_path / "graded.csv"
    argv = ["grade", "--trees", str(trees), "--answers", ungraded, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"{ungraded}: {where}: no trained tree for question 'q9'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("suffix", ["csv", "json"])
@pytest.mark.parametrize("first", ["unknown-question", "malformed-row"])
def test_grade_reports_the_first_faulty_row_in_file_order(
    tmp_path, capsys, reproducible_clock, example_tree_path, suffix, first
):
    # Whatever the fault, the first faulty record is named, as every reader does.
    trees = _trees_with_example(tmp_path, example_tree_path)
    rows = [("q9", "x"), ("q1", "alpha"), ("q1",)]
    if first == "malformed-row":
        rows.reverse()
    if suffix == "json":
        elements = [dict(zip(UNGRADED_CSV_HEADER, row)) for row in rows]
        ungraded = write(tmp_path / "new.json", json.dumps(elements))
        place, malformed = "element 0", "missing key(s) answer"
    else:
        ungraded = write(
            tmp_path / "new.csv",
            "question_id,answer\n" + "".join(",".join(row) + "\n" for row in rows),
        )
        place, malformed = "row 1", "expected 2 columns, got 1"
    message = {
        "unknown-question": "no trained tree for question 'q9'",
        "malformed-row": malformed,
    }[first]
    out = tmp_path / "graded.csv"
    argv = ["grade", "--trees", str(trees), "--answers", ungraded, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"{ungraded}: {place}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "body, error",
    [
        ("q1,alpha\nq9,x\nq1\n", "row 2: no trained tree for question 'q9'"),
        ("q1,alpha\nq1\nq9,x\n", "row 2: expected 2 columns, got 1"),
    ],
)
def test_grade_parses_its_batch_once_on_every_error(
    tmp_path, capsys, monkeypatch, reproducible_clock, example_tree_path, body, error
):
    trees = _trees_with_example(tmp_path, example_tree_path)
    ungraded = write(tmp_path / "new.csv", "question_id,answer\n" + body)
    reads, parses = [], []
    real_read, real_parse = Path.read_text, corpus.parse_ungraded_file

    def spying_read(self, *args, **kwargs):
        reads.append(self)
        return real_read(self, *args, **kwargs)

    def spying_parse(content, format, build):
        parses.append(content)
        return real_parse(content, format, build)

    monkeypatch.setattr(Path, "read_text", spying_read)
    monkeypatch.setattr(corpus, "parse_ungraded_file", spying_parse)
    out = tmp_path / "graded.csv"
    argv = ["grade", "--trees", str(trees), "--answers", ungraded, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"{ungraded}: {error}\n"
    assert reads.count(Path(ungraded)) == 1
    assert len(parses) == 1
    assert not out.exists()


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
    if isinstance(config, dict):  # else it replaces the object whole
        config = {**document["config"], **config}
    document["config"] = config
    document["root"].update(changes)
    return json.dumps(document)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"config": {"min_gain": "abc"}}, "min_gain"),
        ({"config": {"min_gain": "nan"}}, "min_gain"),
        ({"config": {"min_gain": -0.5}}, "min_gain"),
        ({"config": {"min_gain": float("inf")}}, "min_gain"),
        ({"config": []}, "config must be an object"),
        ({"config": "x"}, "config must be an object"),
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


# A chain of MAX_LEVELS tests is one level deeper than any tree file loads.
@pytest.mark.parametrize("depth", [dtree.MAX_LEVELS, 1000, 3000])
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
        (  # on every Python version, as csv.reader makes it on 3.10
            "train",
            "answers.csv",
            'question_id,answer,label\nq1,alpha,correct\nq1,"heart\nval\0ve",correct\n',
            "CSV line 4: line contains NUL",
        ),
    ],
    ids=["train-deep-json", "grade-deep-json", "train-long-int", "grade-long-int",
         "train-huge-csv-field", "train-nul-csv-line"],
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
    assert line.startswith(f"{answers}: {message}")
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
        assert main(
            ["train", "--answers", str(directory / "answers.csv"),
             "--out", str(directory / "trained"),
             "--stopwords", str(directory / "stop.txt")]
        ) == 0
        assert main(
            ["grade", "--trees", str(directory / "trees"),
             "--answers", str(directory / "new.csv"),
             "--out", str(directory / "graded.csv")]
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


def _csv_rows(path):
    """The rows csv.reader reads from a file, with each NUL read as one:
    csv.reader rejects a NUL before Python 3.11, so it reads U+E000 in its
    place."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = csv.reader(io.StringIO(handle.read().replace("\0", "\ue000"), newline=""))
        return [[field.replace("\ue000", "\0") for field in row] for row in rows]


# A CR in an answer is quoted and a NUL written raw, on every Python version.
@pytest.mark.parametrize("answer, written", [
    ("heart\rvalve", '"heart\rvalve"'), ("heart\0valve", "heart\0valve"),
], ids=["cr", "nul"])
def test_grade_writes_a_json_answer_holding_cr_or_nul_as_one_record(
    tmp_path, reproducible_clock, example_tree_path, answer, written
):
    trees = _trees_with_example(tmp_path, example_tree_path)
    batch = write(tmp_path / "new.json", json.dumps([{"question_id": "q1", "answer": answer}]))
    out = tmp_path / "graded.csv"
    assert main(["grade", "--trees", str(trees), "--answers", batch, "--out", str(out)]) == 0
    assert out.read_bytes() == (
        "question_id,answer,label,certainty,flagged,critical_word\n"
        f"q1,{written},incorrect,1.0000,true,\n"
    ).encode("utf-8")
    assert _csv_rows(out)[1][:2] == ["q1", answer]


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


@pytest.mark.parametrize("question_id", ["q\r1", "q\u00001"], ids=["cr", "nul"])
def test_evaluate_writes_a_json_question_id_holding_cr_or_nul_as_one_row(
    tmp_path, capsys, question_id
):
    records = [
        {"question_id": qid, "answer": f"{word} {n}", "label": label}
        for qid in (question_id, "q2")
        for word, label in (("alpha", "correct"), ("beta", "incorrect"))
        for n in (1, 2)
    ]
    answers = write(tmp_path / "answers.json", json.dumps(records))
    out = tmp_path / "report"
    assert main(["evaluate", "--answers", answers, "--k", "2", "--out", str(out)]) == 0
    rows = _csv_rows(out / "report.csv")
    assert rows[0] == REPORT_CSV_HEADER
    assert sorted(row[0] for row in rows[1:]) == sorted([question_id, "q2"])
    assert {len(row) for row in rows} == {len(REPORT_CSV_HEADER)}
    assert capsys.readouterr().err == ""


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


def test_evaluate_all_undersized_prints_each_skip_then_one_error(tmp_path, capsys):
    answers = write(tmp_path / "answers.csv", GRADED)
    out = tmp_path / "r"
    assert main(["evaluate", "--answers", answers, "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "",
        "skipping q1: 6 samples is fewer than k=10\n"
        "skipping q2: 4 samples is fewer than k=10\n"
        "no question had enough samples to evaluate\n",
    )
    assert not out.exists()


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


def test_evaluate_reports_every_question_in_question_order(tmp_path):
    answers = write(tmp_path / "answers.csv", _questions_of_unequal_cost())
    out = tmp_path / "out"
    assert main(["evaluate", "--answers", answers, "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO((out / "report.csv").read_text(encoding="utf-8"))))
    assert [row[0] for row in rows] == ["question_id"] + [f"q{n}" for n in range(1, 7)]


@pytest.mark.parametrize("command, files", [("train", 6), ("evaluate", 2)])
def test_train_and_evaluate_never_fork(tmp_path, monkeypatch, command, files):
    answers = write(tmp_path / "answers.csv", _questions_of_unequal_cost())

    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    out = tmp_path / command
    assert main([command, "--answers", answers, "--out", str(out)]) == 0
    assert len(list(out.iterdir())) == files


@pytest.mark.parametrize("failing_id", ["q1", "q4", "q6"])
def test_evaluate_question_that_fails_is_one_line_exit_1(
    tmp_path, capsys, monkeypatch, failing_id
):
    # The first, a middle and the last question: each question after the
    # failed one still runs, and nothing is written.
    cross_validate = evaluation.cross_validate
    validated = []

    def failing(dataset, min_gain, k, seed):
        validated.append(dataset.question_id)
        if dataset.question_id == failing_id:
            raise corpus.CorpusError("need at least 2 folds, got k=1")
        return cross_validate(dataset, min_gain, k, seed)

    monkeypatch.setattr(evaluation, "cross_validate", failing)
    answers = write(tmp_path / "answers.csv", _questions_of_unequal_cost())
    out = tmp_path / "out"
    assert main(["evaluate", "--answers", answers, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["need at least 2 folds, got k=1"]
    assert validated == [f"q{n}" for n in range(1, 7)]
    assert not out.exists()


def test_evaluate_reports_every_failed_question_in_question_order(
    tmp_path, capsys, monkeypatch
):
    # q5 fails with two lines and q2 with one: q2's come first.
    cross_validate = evaluation.cross_validate
    messages = {"q5": "question 'q5': first\n  second", "q2": "question 'q2': only"}

    def failing(dataset, min_gain, k, seed):
        if dataset.question_id in messages:
            raise corpus.CorpusError(messages[dataset.question_id])
        return cross_validate(dataset, min_gain, k, seed)

    monkeypatch.setattr(evaluation, "cross_validate", failing)
    answers = write(tmp_path / "answers.csv", _questions_of_unequal_cost())
    out = tmp_path / "out"
    assert main(["evaluate", "--answers", answers, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err.splitlines()) == (
        "", ["question 'q2': only", "question 'q5': first", "  second"]
    )
    assert not out.exists()


def test_train_writes_every_tree_and_prints_a_line_per_question_in_order(
    tmp_path, capsys, reproducible_clock
):
    answers = write(tmp_path / "answers.csv", _questions_of_unequal_cost())
    out = tmp_path / "out"
    assert main(["train", "--answers", answers, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == [f"q{n}.tree.json" for n in range(1, 7)]
    assert [line.split(":")[0] for line in captured.out.splitlines()] == [
        f"q{n}" for n in range(1, 7)
    ]
    assert captured.err == ""


def test_train_and_evaluate_with_no_question(tmp_path, capsys):
    answers = write(tmp_path / "answers.csv", "question_id,answer,label\n")
    out = tmp_path / "out"
    assert main(["train", "--answers", answers, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert not out.exists()
    assert main(["evaluate", "--answers", answers, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["no question had enough samples to evaluate"]
    assert not out.exists()


def test_train_writes_a_chain_only_if_it_reads_back(tmp_path, capsys):
    # 2n answers grow a chain of n tests, n + 1 levels deep: the first is
    # exactly MAX_LEVELS deep, the second one level past it.
    deepest = dtree.MAX_LEVELS - 1
    for tests, code, err in [
        (deepest, 0, ""),
        (deepest + 1, 1, "question 'q1': tree nested too deep\n"),
    ]:
        answers = write(tmp_path / f"chain{tests}.csv", _chain_answers(2 * tests))
        out = tmp_path / f"out{tests}"
        assert main(["train", "--answers", answers, "--out", str(out)]) == code
        assert capsys.readouterr().err == err
        assert out.exists() == (code == 0)
    tree_file = tmp_path / f"out{deepest}" / "q1.tree.json"
    tree = deserialize_tree(tree_file.read_text(encoding="utf-8"))
    assert len(tree.words) == 2 * deepest + 1


# q0 trains, and is reported by nothing.
_GOOD_FIRST = "question_id,answer,label\nq0,alpha,correct\nq0,beta,incorrect\n"


def _assert_train_fails(tmp_path, capsys, answers_text, lines, suffix="csv"):
    """Train is exit 1 with the stderr ``lines`` and writes no tree."""
    answers = write(tmp_path / f"answers.{suffix}", answers_text)
    out = tmp_path / "out"
    assert main(["train", "--answers", answers, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err.splitlines()) == ("", lines)
    assert not out.exists()


def test_train_reports_failed_validation_in_question_order(tmp_path, capsys):
    conflict = "{q},dupe,correct\n{q},dupe,incorrect\n"
    text = (
        _questions_of_unequal_cost()
        + conflict.format(q="q6")
        + conflict.format(q="q3")
        + "q3,the,correct\n"
        + "q7, ,correct\nq7,,incorrect\n"
        + conflict.format(q="q2")
    )
    groups = corpus.group_records(corpus.parse_answer_file(text, "csv"))
    lines = []
    for question_id in ("q2", "q3", "q6"):
        with pytest.raises(corpus.CorpusError) as raised:
            corpus.validate_dataset(groups[question_id])
        lines += str(raised.value).splitlines()
    lines.append("question 'q7': no non-blank answers to train on")
    assert "  no features left after preprocessing: 'the'" in lines
    _assert_train_fails(tmp_path, capsys, text, lines)


def test_train_reports_a_tree_too_deep_after_a_question_that_trains(tmp_path, capsys):
    # q1's chain is one level past MAX_LEVELS.
    chain = _chain_answers(2 * dtree.MAX_LEVELS)[len("question_id,answer,label\n"):]
    _assert_train_fails(
        tmp_path, capsys, _GOOD_FIRST + chain, ["question 'q1': tree nested too deep"]
    )


def test_train_reports_a_tree_too_deep_before_a_later_unsafe_id(tmp_path, capsys):
    # q1's chain is one level past MAX_LEVELS, and a later question's id is
    # unsafe. Both are reported, in question order.
    chain = _chain_answers(2 * dtree.MAX_LEVELS)[len("question_id,answer,label\n"):]
    _assert_train_fails(
        tmp_path, capsys, _GOOD_FIRST + chain + "a/b,alpha,correct\n",
        ["question 'q1': tree nested too deep", "question id 'a/b' is not a safe file name"],
    )


@pytest.mark.parametrize("suffix", ["csv", "json"])
def test_train_reports_every_failed_question_in_question_order(tmp_path, capsys, suffix):
    # The first question's id is unsafe, the second's answers conflict and
    # the third's chain is one level past MAX_LEVELS: an ingest failure
    # between two train failures. Question order is the file's, in either
    # format.
    chain = _chain_answers(2 * dtree.MAX_LEVELS)[len("question_id,answer,label\n"):]
    text = (
        "question_id,answer,label\na/b,alpha,correct\n"
        + "q2,dupe,correct\nq2,dupe,incorrect\n"
        + chain.replace("q1,", "q3,")
    )
    if suffix == "json":
        text = json.dumps(list(csv.DictReader(io.StringIO(text))))
    _assert_train_fails(
        tmp_path, capsys, text,
        [
            "question id 'a/b' is not a safe file name",
            "question 'q2': 1 unique samples",
            "  conflict: 'dupe' was graded both correct and incorrect",
            "question 'q3': tree nested too deep",
        ],
        suffix,
    )


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_an_unexpected_error_is_the_first_in_question_order(
    tmp_path, monkeypatch, reproducible_clock, command
):
    # Growing q2's and q3's trees raises an error that is not bad input.
    # q2's is raised at once: q3 is never reached, and nothing is written.
    build_tree = dtree.build_tree
    grown = set()

    def failing(dataset, *args, **kwargs):
        grown.add(dataset.question_id)
        if dataset.question_id in ("q2", "q3"):
            raise ValueError(f"{dataset.question_id} failed")
        return build_tree(dataset, *args, **kwargs)

    monkeypatch.setattr(dtree, "build_tree", failing)
    monkeypatch.setattr(evaluation, "build_tree", failing)
    answers = write(tmp_path / "answers.csv", _questions_of_unequal_cost((30, 30, 30)))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="^q2 failed$"):
        main([command, "--answers", answers, "--out", str(out)])
    assert grown == {"q1", "q2"}
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_an_unexpected_error_after_a_failed_question_is_raised_alone(
    tmp_path, capsys, monkeypatch, reproducible_clock, command
):
    # q1 is bad input and q2 raises an error that is not: q2's error is
    # raised at once, q1's is never printed, and nothing is written.
    build_tree = dtree.build_tree
    grown = []

    def failing(dataset, *args, **kwargs):
        grown.append(dataset.question_id)
        if dataset.question_id == "q1":
            raise corpus.CorpusError("question 'q1': bad input")
        if dataset.question_id == "q2":
            raise ValueError("q2 failed")
        return build_tree(dataset, *args, **kwargs)

    monkeypatch.setattr(dtree, "build_tree", failing)
    monkeypatch.setattr(evaluation, "build_tree", failing)
    answers = write(tmp_path / "answers.csv", _questions_of_unequal_cost((30, 30, 30)))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="^q2 failed$"):
        main([command, "--answers", answers, "--out", str(out)])
    assert set(grown) == {"q1", "q2"}
    assert capsys.readouterr() == ("", "")
    assert not out.exists()


def test_per_question_runs_every_question_once_in_file_order(tmp_path):
    # Question order is first appearance in the file, not sorted order, and
    # a failed question does not stop the ones after it.
    rows = "".join(f"{q},{q} word,correct\n" for q in ("q10", "q2", "q10", "q1", "q2"))
    answers = write(tmp_path / "answers.csv", "question_id,answer,label\n" + rows)
    seen = []

    def work(dataset):
        seen.append((dataset.question_id, len(dataset)))
        if dataset.question_id != "q1":
            raise corpus.CorpusError(f"{dataset.question_id} failed")
        return dataset.question_id

    with pytest.raises(corpus.CorpusError) as raised:
        cli._per_question(answers, None, work)
    assert seen == [("q10", 1), ("q2", 1), ("q1", 1)]
    assert str(raised.value) == "q10 failed\nq2 failed"
    assert cli._per_question(answers, None, lambda d: d.question_id) == [
        "q10", "q2", "q1"
    ]


@pytest.mark.parametrize(
    "question_id, problem",
    [("a/b", "is not a safe file name"), ("q" * 246, "is too long for a file name")],
    ids=["unsafe", "too-long"],
)
def test_train_grows_no_tree_for_a_question_it_cannot_write(
    tmp_path, capsys, monkeypatch, question_id, problem
):
    grown = []
    build_tree = dtree.build_tree

    def spy(dataset, *args, **kwargs):
        grown.append(dataset.question_id)
        return build_tree(dataset, *args, **kwargs)

    monkeypatch.setattr(dtree, "build_tree", spy)
    rows = "".join(
        f"{q},alpha,correct\n{q},beta,incorrect\n" for q in ("q1", question_id, "q2")
    )
    answers = write(tmp_path / "answers.csv", "question_id,answer,label\n" + rows)
    out = tmp_path / "out"
    assert main(["train", "--answers", answers, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"question id {question_id!r} {problem}\n")
    assert grown == ["q1", "q2"]
    assert not out.exists()


@pytest.mark.parametrize(
    "module", ["pickle", "dataclasses", "inspect", "datetime", "tempfile", "shutil"]
)
def test_cli_import_leaves_pickle_out(module):
    # Every command pays for what importing the CLI imports. No command
    # needs pickle, only train needs datetime, and only commands that write
    # a file need tempfile and the shutil it imports;
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
    assert line.startswith(f"{bad}: bad CSV header ['a', 'b'], expected question_id,")


def test_stats_fixture_listing_questions_twice_is_a_one_line_error(
    tmp_path, capsys, reference_tables_path
):
    # Q1-Q3 listed twice would be six questions, and correlations over n=6.
    lines = reference_tables_path.read_text(encoding="utf-8").splitlines(keepends=True)
    fixture = write(tmp_path / "twice.csv", "".join(lines[:4] + lines[1:4]))
    out = tmp_path / "o.json"
    assert main(["stats", "--fixture", fixture, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"{fixture}: question 'Q1' is listed more than once\n")
    assert not out.exists()


def test_stats_on_a_header_only_fixture_is_one_exact_line(tmp_path, capsys):
    fixture = write(tmp_path / "empty.csv", ",".join(REPORT_CSV_HEADER) + "\n")
    out = tmp_path / "o.json"
    assert main(["stats", "--fixture", fixture, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "cannot build a report from zero rows\n")
    assert not out.exists()


def test_stats_fixture_with_an_oversized_field_is_a_one_line_error(tmp_path, capsys):
    header = ",".join(REPORT_CSV_HEADER)
    bad = write(tmp_path / "bad.csv", f"{header}\nQ1,{'9' * 200_000},1,1,1,1\n")
    out = tmp_path / "o.json"
    assert main(["stats", "--fixture", bad, "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"{bad}: CSV line 2: field larger than field limit")
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
        ("0.5_0,1,1,1,1", "row 1: average_grade '0.5_0' is not a number"),
        ("0.5,\u0660.\u0665,1,1,1", "row 1: dt_accuracy '\u0660.\u0665' is not a number"),
        ("0.5,1,1_000,1,1", "row 1: unique_all '1_000' is not an integer"),
        ("0.5,1,1,2_0,1", "row 1: unique_correct '2_0' is not an integer"),
        ("0.5,1,1,1,\u0663", "row 1: unique_incorrect '\u0663' is not an integer"),
        ("1.5,1,1,1,1", "row 1: average_grade '1.5' is not in [0, 1]"),
        ("-0.1,1,1,1,1", "row 1: average_grade '-0.1' is not in [0, 1]"),
        ("1.7e308,1,1,1,1", "row 1: average_grade '1.7e308' is not in [0, 1]"),
        ("0.5,1e200,1,1,1", "row 1: dt_accuracy '1e200' is not in [0, 1]"),
        ("0.5,1,-1,1,1", "row 1: unique_all '-1' is not in [0, 9007199254740992]"),
        ("0.5,1,1,9007199254740993,1",
         "row 1: unique_correct '9007199254740993' is not in [0, 9007199254740992]"),
        (f"0.5,1,1,1,1{'0' * 400}",
         f"row 1: unique_incorrect '1{'0' * 400}' is not in [0, 9007199254740992]"),
    ],
    ids=["nan", "inf", "-inf", "abc", "float-count", "text-count", "underscore-grade",
         "arabic-indic-accuracy", "underscore-count", "underscore-digits",
         "arabic-indic-count", "grade-above-1",
         "negative-grade", "grade-near-float-max", "huge-accuracy", "negative-count",
         "count-past-2**53", "count-past-float-max"],
)
def test_stats_bad_fixture_number_is_a_one_line_error(tmp_path, capsys, cells, message):
    header = ",".join(REPORT_CSV_HEADER)
    # The bad cell is in the first row; the other rows are good.
    rows = f"Q1,{cells}\nQ2,0.6,0.9,5,3,2\nQ3,0.7,0.8,6,4,2\n"
    bad = write(tmp_path / "bad.csv", f"{header}\n{rows}")
    out = tmp_path / "o.json"
    assert main(["stats", "--fixture", bad, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"{bad}: {message}"]
    assert not out.exists()


def test_stats_takes_the_largest_count_a_float_holds(tmp_path, capsys):
    header = ",".join(REPORT_CSV_HEADER)
    rows = f"Q1,0.5,1,{2**53},3,0\nQ2,0.6,0.9,5,3,2\nQ3,0.7,0.8,6,4,2\n"
    fixture = write(tmp_path / "fixture.csv", f"{header}\n{rows}")
    out = tmp_path / "o.json"
    assert main(["stats", "--fixture", fixture, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rows"][0]["unique_all"] == 2**53


# "①" and "²" are digits to str.isdigit() but not decimal ones: \d does not
# match them and int() cannot read them, so they sort as text.
ODD_DIGIT_IDS = ["①", "Q10", "²", "Q1²", "Q2"]


def test_stats_sorts_ids_holding_digits_that_are_not_decimal(tmp_path, capsys):
    header = ",".join(REPORT_CSV_HEADER)
    rows = "".join(
        f"{qid},0.{n + 1},0.{9 - n},{n + 5},3,2\n" for n, qid in enumerate(ODD_DIGIT_IDS)
    )
    fixture = write(tmp_path / "fixture.csv", f"{header}\n{rows}")
    out = tmp_path / "o.json"
    assert main(["stats", "--fixture", fixture, "--out", str(out)]) == 0
    document = json.loads(out.read_text(encoding="utf-8"))
    assert [r["question_id"] for r in document["rows"]] == ["Q1²", "Q2", "Q10", "²", "①"]


def test_evaluate_a_question_id_with_a_digit_that_is_not_decimal(tmp_path, capsys):
    answers = "".join(
        f"{qid},alpha {n},correct\n{qid},beta {n},incorrect\n"
        for qid in ("²", "Q1²") for n in (1, 2)
    )
    graded = write(tmp_path / "answers.csv", "question_id,answer,label\n" + answers)
    out = tmp_path / "report"
    assert main(["evaluate", "--answers", graded, "--k", "2", "--out", str(out)]) == 0
    lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["Q1²", "²"]
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_an_output_that_is_a_directory_stops_every_write(tmp_path, capsys, command):
    # The directory is the last file the command writes.
    out = tmp_path / "out"
    if command == "train":
        answers, target = write(tmp_path / "answers.csv", GRADED), out / "q2.tree.json"
    else:
        answers, target = write(tmp_path / "answers.csv", EVALUATABLE), out / "report.json"
    target.mkdir(parents=True)
    assert main([command, "--answers", answers, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"[Errno 21] Is a directory: '{target}'\n")
    assert [p.name for p in out.iterdir()] == [target.name]
    assert not list(target.iterdir())


def test_an_output_that_cannot_be_stat_ed_stops_every_write(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "plain").touch()
    target = out / "report.json"
    target.symlink_to("plain/x")
    answers = write(tmp_path / "answers.csv", EVALUATABLE)
    assert main(["evaluate", "--answers", answers, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"[Errno 20] Not a directory: '{target}'\n")
    assert sorted(p.name for p in out.iterdir()) == ["plain", "report.json"]


@pytest.mark.parametrize("length", [250, 255, 256])
@pytest.mark.parametrize("command", ["grade", "stats"])
def test_an_out_name_of_up_to_255_bytes_is_written(
    tmp_path, capsys, example_tree_path, reference_tables_path, command, length
):
    # The temporary file's name does not grow with the target's.
    out = tmp_path / ("o" * (length - 4) + ".out")
    if command == "grade":
        trees = tmp_path / "trees"
        trees.mkdir()
        shutil.copy(example_tree_path, trees / "Q52.tree.json")
        batch = write(tmp_path / "new.csv", "question_id,answer\nQ52,papillary muscles\n")
        argv = ["grade", "--trees", str(trees), "--answers", batch, "--out", str(out)]
    else:
        argv = ["stats", "--fixture", str(reference_tables_path), "--out", str(out)]
    code = main(argv)
    err = capsys.readouterr().err
    if length <= 255:
        assert (code, err) == (0, "")
        assert out.name in os.listdir(tmp_path)
    else:
        too_long = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"
        assert (code, err) == (1, f"{too_long}: '{out}'\n")
    assert not [name for name in os.listdir(tmp_path) if name.startswith(".")]


def test_a_failed_write_leaves_the_target_and_no_temporary_file(tmp_path):
    target = tmp_path / "graded.csv"
    target.write_text("old\n")
    target.chmod(0o640)
    # UTF-8 cannot encode a lone surrogate, so the write fails once the
    # temporary file exists.
    with pytest.raises(UnicodeEncodeError):
        _atomic_write({target: "new \ud800\n"})
    assert target.read_bytes() == b"old\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["graded.csv"]


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


@pytest.mark.parametrize("answer", ["", "   "])
def test_explain_grades_a_blank_answer_as_grade_does(
    tmp_path, capsys, example_tree_path, answer
):
    # grade writes a blank answer as incorrect with certainty 1, unflagged,
    # without consulting the tree; explain must say the same.
    trees = tmp_path / "trees"
    trees.mkdir()
    shutil.copy(example_tree_path, trees / "Q52.tree.json")
    batch = _batch_file(tmp_path / "batch.csv", [("Q52", answer)])
    out = tmp_path / "graded.csv"
    assert main(["grade", "--trees", str(trees), "--answers", batch, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == f"Q52,{answer},incorrect,1.0000,false,"
    assert main(["explain", "--tree", str(example_tree_path), "--answer", answer]) == 0
    assert capsys.readouterr() == (
        "answer is incorrect (100% significance)\n"
        "critical decision point: terminal node\n",
        "",
    )


def test_custom_stopword_file(tmp_path):
    # "muscles" alone tells the correct answers from the incorrect ones, so
    # the tree tests it unless it is declared a stopword. An upper-case entry
    # matches too: answers are lower-cased before the stopword check.
    answers = write(tmp_path / "answers.csv", "question_id,answer,label\n" + "".join(
        f"q1,{text} muscles,correct\nq1,{text},incorrect\n" for text in ("papillary", "chordae")
    ))
    for entry in ("# none", "muscles", "MUSCLES"):
        stopwords = write(tmp_path / "stop.txt", f"{entry}\n")
        out = tmp_path / f"trees-{entry.strip('# ')}"
        assert main(
            ["train", "--answers", answers, "--out", str(out), "--stopwords", stopwords]
        ) == 0
        tree = deserialize_tree((out / "q1.tree.json").read_text(encoding="utf-8"))
        assert ("muscles" in tree.vocabulary) is (entry == "# none"), entry


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


@pytest.mark.parametrize(
    "argv",
    [["explain", "--tree", "t.json", "--answer=--"],
     ["stats", "--fixture=--", "--out", "o.json"],
     ["grade", "--trees", "t", "--answers", "a.csv", "--out", "o.csv", "--threshold=--"],
     ["evaluate", "--answers", "a.csv", "--out", "o", "--k=--"],
     ["train", "--answers", "a.csv", "--out", "o", "--min-gain=--"]],
    ids=["answer", "fixture", "threshold", "k", "min-gain"],
)
def test_an_option_valued_dash_dash_is_no_traceback(tmp_path, capsys, monkeypatch, argv):
    # argparse before Python 3.13 hands the value "--" over as an empty list.
    monkeypatch.chdir(tmp_path)
    code = _exit_code(argv)
    err = capsys.readouterr().err
    assert code in (1, 2) and len(err.splitlines()) >= 1 and "Traceback" not in err
    if sys.version_info < (3, 13):
        option = next(a for a in argv if a.endswith("=--"))[:-3]
        assert (code, err) == (2, f"{option}: this Python cannot read the value '--'\n")
    assert list(tmp_path.iterdir()) == []


def test_usage_errors_exit_2(tmp_path, capsys, example_tree_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["train"])  # missing required flags
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    # A tree tests no word of the stopwords it was trained with, so grading
    # takes no stopword list.
    trees = tmp_path / "trees"
    trees.mkdir()
    shutil.copy(example_tree_path, trees / "Q52.tree.json")
    batch = _batch_file(tmp_path / "new.csv", [("Q52", "papillary muscles")])
    stopwords = write(tmp_path / "stop.txt", "muscles\n")
    out = tmp_path / "graded.csv"
    for argv in (
        ["grade", "--trees", str(trees), "--answers", batch, "--out", str(out)],
        ["explain", "--tree", str(example_tree_path), "--answer", "papillary muscles"],
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--stopwords", stopwords])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --stopwords" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, option",
    [("train", "--answers"), ("train", "--out"), ("train", "--stopwords"),
     ("grade", "--trees"), ("grade", "--answers"), ("grade", "--out"),
     ("evaluate", "--answers"), ("evaluate", "--out"), ("evaluate", "--stopwords"),
     ("stats", "--fixture"), ("stats", "--out"), ("explain", "--tree")],
)
def test_an_empty_path_option_is_a_one_line_usage_error(
    tmp_path, capsys, monkeypatch, example_tree_path, reference_tables_path, command, option
):
    # pathlib reads "" as ".", so an empty --out would write into the
    # working directory, and an empty input path would read it.
    answers = write(tmp_path / "answers.csv", EVALUATABLE)
    stopwords = write(tmp_path / "stop.txt", "wall\n")
    trees = tmp_path / "trees"
    trees.mkdir()
    shutil.copy(example_tree_path, trees / "Q52.tree.json")
    batch = _batch_file(tmp_path / "new.csv", [("Q52", "papillary muscles")])
    argv = {
        "train": ["--answers", answers, "--out", "out", "--stopwords", stopwords],
        "grade": ["--trees", str(trees), "--answers", batch, "--out", "out.csv"],
        "evaluate": ["--answers", answers, "--out", "out", "--stopwords", stopwords],
        "stats": ["--fixture", str(reference_tables_path), "--out", "out.json"],
        "explain": ["--tree", str(example_tree_path), "--answer", "papillary muscles"],
    }[command]
    monkeypatch.chdir(tmp_path)
    assert main([command, *argv]) == 0
    capsys.readouterr()
    argv[argv.index(option) + 1] = ""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main([command, *argv]) == 2
    assert capsys.readouterr() == ("", f"{option} must not be empty\n")
    assert list(work.iterdir()) == []


# Pieces of hostile answer files: the structure characters of CSV and JSON,
# header names, labels, a digit run, a byte-order mark and unsafe ids.
PIECES = [
    "question_id", "answer", "label", ",", '"', "'", "\n", "\r\n", "[", "]",
    "{", "}", ":", " ", "\\", "\ufeff", "\x00", "q1", "q2", "../q", "a/b",
    "correct", "incorrect", "0", "1", "9" * 30, "alpha", "beta", "the", "null",
]
hostile_text = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)
# Cells of the non-answer columns of graded files and stats fixtures. Each
# number column draws numbers its type reads, so that a drawn fixture row
# parses: in range, far past it, near the largest float, and, for a word
# count, an integer no float holds.
FRACTIONS = st.sampled_from(["0", "1", "0.5", "1e200", "-1e200", "1.7e308"])
COUNTS = st.sampled_from(["0", "1", "9" * 400])
CELLS = {
    "label": st.sampled_from(["1", "0"]),
    "average_grade": FRACTIONS,
    "dt_accuracy": FRACTIONS,
    "unique_all": COUNTS,
    "unique_correct": COUNTS,
    "unique_incorrect": COUNTS,
}


@st.composite
def input_files(draw, columns):
    """A file suffix and content: hostile text, raw bytes, or rows laid out
    as a file with ``columns`` in either format. The rows' answers are
    hostile text. Their ids and other fields are hostile text too, or ids,
    some holding a digit that is not decimal, with fields from CELLS."""
    suffix = draw(st.sampled_from([".csv", ".json"]))
    kind = draw(st.sampled_from(["text", "bytes", "rows", "rows"]))
    if kind == "bytes":
        return suffix, draw(st.binary(max_size=80))
    if kind == "text":
        text = draw(hostile_text)
    else:
        if draw(st.booleans()):
            ids, cells = st.sampled_from(["q1", "q2", "²", "Q1²", "①"]), CELLS
        else:
            ids, cells = hostile_text, {}
        fields = [ids, *(cells.get(c, hostile_text) for c in columns[1:])]
        rows = draw(st.lists(st.tuples(*fields), max_size=8))
        if suffix == ".json":
            text = json.dumps([dict(zip(columns, row)) for row in rows])
        else:
            out = io.StringIO()
            csv.writer(out).writerows([columns, *rows])
            text = out.getvalue()
    bom = "\ufeff" if draw(st.booleans()) else ""
    return suffix, (bom + text).encode("utf-8")


# No stopword file, a valid one, or one of hostile text or raw bytes as
# input_files draws them.
stopword_files = st.one_of(
    st.none(),
    st.just(b"# words\nthe\nalpha\n"),
    hostile_text.map(lambda text: text.encode("utf-8")),
    st.binary(max_size=80),
)

# Values of numeric options: valid ones, ones out of range, and text that is
# not a number or is one no float or int holds.
OPTION_VALUES = ["0", "1", "2", "0.5", "-0", "-1", "nan", "inf", "-inf", "1e400",
                 "9" * 30, "9" * 5000, ""]


def options(*names):
    """For each of ``names``, no flag or the flag with a drawn value."""
    flag = st.sampled_from(names).flatmap(
        lambda name: st.sampled_from(OPTION_VALUES).map(lambda value: [name, value])
    )
    return st.lists(flag, max_size=len(names)).map(lambda flags: sum(flags, []))


def _stopwords_flag(work, content):
    """``--stopwords`` naming a file of ``content`` in ``work``, or nothing."""
    if content is None:
        return []
    path = work / "stop.txt"
    path.write_bytes(content)
    return ["--stopwords", str(path)]


def _exit_code(argv):
    """main's exit code, with argparse's usage error exit counted as its 2."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@settings(max_examples=150, deadline=None)
@given(
    input_files(CSV_HEADER), input_files(UNGRADED_CSV_HEADER), stopword_files,
    options("--min-gain"), options("--threshold"),
)
def test_train_and_grade_survive_hostile_input(
    answers_file, batch_file, stopwords, train_options, grade_options
):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        answers = work / ("answers" + answers_file[0])
        batch = work / ("batch" + batch_file[0])
        answers.write_bytes(answers_file[1])
        batch.write_bytes(batch_file[1])
        trees, graded = work / "trees", work / "graded.csv"
        codes = {
            _exit_code(["train", "--answers", str(answers), "--out", str(trees),
                        *_stopwords_flag(work, stopwords), *train_options]),
            _exit_code(["grade", "--trees", str(trees), "--answers", str(batch),
                        "--out", str(graded), *grade_options]),
        }
        assert codes <= {0, 1, 2}
        names = {answers.name, batch.name, trees.name, graded.name, "stop.txt"}
        assert {p.name for p in work.iterdir()} <= names
        assert all(p.parent == trees for p in trees.rglob("*"))


# Tokens of a tree document: its values, including ones no field takes (a
# float too large to hold, a lone surrogate escape, null), keys and brackets.
TREE_VALUES = [
    '"correct"', '"incorrect"', '"q1"', '"alpha"', "0", "1", "2", "-1", "0.5",
    "1e400", '"\\ud800"', "null", "true", "false", "[]", "{}",
]
TREE_TOKENS = [
    *TREE_VALUES, '"question_id"', '"trained_at"', '"config"', '"min_gain"',
    '"leaf_tie_label"', '"root"', '"word"', '"label"', '"count"', '"size"',
    '"true"', '"false"', "{", "}", "[", "]", ":", ",",
]


@st.composite
def tree_texts(draw):
    """Tree file text made of tree document tokens: a run of tokens, or a
    document of the tree's shape in which each key is dropped, and each
    value swapped for a token from TREE_VALUES, at one drawn rate: never,
    3% or 30% of the time."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(TREE_TOKENS), max_size=40)))
    chance = draw(st.sampled_from([0, 3, 30]))

    def hit():
        return draw(st.integers(0, 99)) < chance

    def value(good):
        return draw(st.sampled_from(TREE_VALUES)) if hit() else good

    def document(fields):
        return "{" + ", ".join(f"{key}: {text}" for key, text in fields if not hit()) + "}"

    def node(depth):
        size = draw(st.integers(1, 3))
        fields = [
            ('"label"', value(draw(st.sampled_from(['"correct"', '"incorrect"'])))),
            ('"count"', value(str(draw(st.integers(0, size))))),
            ('"size"', value(str(size))),
        ]
        if depth < 3 and draw(st.booleans()):
            fields += [
                ('"word"', value(draw(st.sampled_from(['"alpha"', '"beta"'])))),
                ('"true"', node(depth + 1)),
                ('"false"', node(depth + 1)),
            ]
        return document(fields)

    return document([
        ('"question_id"', value('"q1"')),
        ('"trained_at"', value('"2020-06-15T00:00:00+00:00"')),
        ('"config"', document([('"min_gain"', value("0.0"))])),
        ('"root"', node(0)),
    ])


@settings(max_examples=100, deadline=None)
@given(
    input_files(CSV_HEADER), input_files(REPORT_CSV_HEADER), tree_texts(), hostile_text,
    stopword_files, options("--k", "--seed", "--min-gain"),
)
def test_evaluate_stats_and_explain_survive_hostile_input(
    answers_file, fixture_file, tree_text, answer, stopwords, evaluate_options
):
    cwd_before = sorted(os.listdir())
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        answers = work / ("answers" + answers_file[0])
        fixture = work / ("fixture" + fixture_file[0])
        tree = work / "q1.tree.json"
        answers.write_bytes(answers_file[1])
        fixture.write_bytes(fixture_file[1])
        tree.write_text(tree_text, encoding="utf-8")
        report, stats = work / "report", work / "stats.json"
        runs = [
            (["evaluate", "--answers", str(answers), "--k", "2", "--out", str(report),
              *_stopwords_flag(work, stopwords), *evaluate_options],
             [report / "report.csv", report / "report.json"]),
            (["stats", "--fixture", str(fixture), "--out", str(stats)], [stats]),
            (["explain", "--tree", str(tree), "--answer", answer], []),
        ]
        for argv, outputs in runs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = _exit_code(argv)
            assert code in (0, 1, 2), argv[0]
            if code != 0:
                assert err.getvalue().strip(), argv[0]
                assert "Traceback" not in err.getvalue(), argv[0]
                assert not any(path.exists() for path in outputs), argv[0]
        names = {answers.name, fixture.name, tree.name, report.name, stats.name, "stop.txt"}
        assert {p.name for p in work.iterdir()} <= names
        assert all(p.parent == report for p in report.rglob("*"))
    assert sorted(os.listdir()) == cwd_before
