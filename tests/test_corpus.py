import csv
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from answertree.corpus import (
    CSV_HEADER,
    AnswerFileError,
    AnswerRecord,
    EmptyDatasetError,
    Label,
    LabelConflictError,
    build_question_dataset,
    group_records,
    parse_answer_file,
    parse_ungraded_file,
    validate_dataset,
)

HEADER = "question_id,answer,label\n"


def test_label_parse_accepts_all_spellings():
    for token in ("correct", "CORRECT", " 1 ", "Correct"):
        assert Label.parse(token) is Label.CORRECT
    for token in ("incorrect", "0", "Incorrect"):
        assert Label.parse(token) is Label.INCORRECT
    with pytest.raises(ValueError, match="maybe"):
        Label.parse("maybe")


def test_parse_csv_single_row():
    records = parse_answer_file(HEADER + 'q1,"papillary muscles",correct\n', "csv")
    assert records == [AnswerRecord("q1", "papillary muscles", Label.CORRECT)]


def test_parse_csv_unknown_label_names_row_and_token():
    with pytest.raises(AnswerFileError) as excinfo:
        parse_answer_file(HEADER + "q1,valve,maybe\n", "csv")
    assert "row 1" in str(excinfo.value)
    assert "maybe" in str(excinfo.value)


def test_parse_csv_keeps_blank_answers():
    content = HEADER + "q1,alpha,correct\nq1,,incorrect\nq1,beta,0\n"
    records = parse_answer_file(content, "csv")
    assert len(records) == 3
    assert records[1].raw_text == ""


def test_parse_csv_rejects_wrong_column_count_and_bad_header():
    with pytest.raises(AnswerFileError, match="row 1"):
        parse_answer_file(HEADER + "q1,valve\n", "csv")
    with pytest.raises(AnswerFileError, match="header"):
        parse_answer_file("id,text,grade\nq1,valve,correct\n", "csv")
    with pytest.raises(AnswerFileError, match="empty question_id"):
        parse_answer_file(HEADER + ",valve,correct\n", "csv")


def test_parse_json():
    content = json.dumps(
        [
            {"question_id": "q1", "answer": "mitral valve", "label": "Correct"},
            {"question_id": "q2", "answer": "apex", "label": 0},
            {"question_id": 7, "answer": 1.5, "label": 1},  # numbers read as text
        ]
    )
    records = parse_answer_file(content, "json")
    assert records == [
        AnswerRecord("q1", "mitral valve", Label.CORRECT),
        AnswerRecord("q2", "apex", Label.INCORRECT),
        AnswerRecord("7", "1.5", Label.CORRECT),
    ]


def test_parse_json_errors_name_the_element():
    with pytest.raises(AnswerFileError, match="element 1"):
        parse_answer_file('[{"question_id":"q","answer":"x","label":"1"}, {}]', "json")
    with pytest.raises(AnswerFileError, match="invalid JSON"):
        parse_answer_file("{not json", "json")


@pytest.mark.parametrize(
    "value, kind", [(None, "null"), (True, "true"), (["papillary"], "an array"), ({}, "an object")]
)
@pytest.mark.parametrize(
    "parse, column",
    [(parse_answer_file, c) for c in ("question_id", "answer", "label")]
    + [(parse_ungraded_file, c) for c in ("question_id", "answer")],
)
def test_json_value_that_is_not_text_or_a_number_names_its_element(
    parse, column, value, kind
):
    # The ungraded reader reads no label, so the extra key is ignored there.
    element = {"question_id": "q1", "answer": "x", "label": "correct"}
    content = json.dumps([element, {**element, column: value}])
    with pytest.raises(AnswerFileError) as raised:
        parse(content, "json")
    assert str(raised.value) == f"element 1: {column} must be text or a number, not {kind}"


def test_parse_ungraded_file():
    assert parse_ungraded_file("question_id,answer\nq1,valve\nq2,\n", "csv") == [
        ("q1", "valve"),
        ("q2", ""),
    ]
    assert parse_ungraded_file('[{"question_id":"q1","answer":"x"}]', "json") == [
        ("q1", "x")
    ]


GRADED_JSON_FIRST_BAD = json.dumps(
    [
        {"question_id": "q1", "answer": "valve", "label": "maybe"},
        {"question_id": "", "answer": "apex", "label": "correct"},
    ]
)


@pytest.mark.parametrize(
    "parse, content, format, message",
    [
        (parse_answer_file, "", "csv", "empty CSV file"),
        (parse_ungraded_file, "", "csv", "empty CSV file"),
        (parse_answer_file, "{}", "json", "JSON answer file must be an array of objects"),
        (parse_ungraded_file, "{}", "json", "JSON answer file must be an array of objects"),
        # Blank lines count in row numbers.
        (
            parse_answer_file,
            HEADER + "q1,alpha,correct\n\nq1,valve\n",
            "csv",
            "row 3: expected 3 columns, got 2",
        ),
        (
            parse_ungraded_file,
            "question_id,answer\n\n\nq1\n",
            "csv",
            "row 3: expected 2 columns, got 1",
        ),
        # The first bad row in file order is the one reported.
        (
            parse_answer_file,
            HEADER + "q1,valve,maybe\n,apex,correct\n",
            "csv",
            "row 1: unknown label token 'maybe'",
        ),
        (
            parse_answer_file,
            GRADED_JSON_FIRST_BAD,
            "json",
            "element 0: unknown label token 'maybe'",
        ),
        (
            parse_answer_file,
            '[{"question_id": "q1", "answer": "x"}]',
            "json",
            "element 0: missing key(s) label",
        ),
        # Ungraded JSON follows the graded rules.
        (
            parse_ungraded_file,
            '[{"question_id": "q1", "answer": "x"}, {"question_id": " ", "answer": "y"}]',
            "json",
            "element 1: empty question_id",
        ),
        (
            parse_ungraded_file,
            '[{"question_id": "q1", "answer": "x"}, {"question_id": "q2"}]',
            "json",
            "element 1: missing key(s) answer",
        ),
        (parse_ungraded_file, '[["q1", "x"]]', "json", "element 0: expected an object"),
    ],
)
def test_reader_names_the_first_bad_row(parse, content, format, message):
    with pytest.raises(AnswerFileError) as excinfo:
        parse(content, format)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "parse, header",
    [(parse_answer_file, HEADER), (parse_ungraded_file, "question_id,answer\n")],
)
def test_reader_turns_csv_module_errors_into_answer_file_errors(parse, header):
    # The csv module refuses a field longer than its size limit.
    huge = "x" * (csv.field_size_limit() + 1)
    with pytest.raises(AnswerFileError, match="^CSV line 1: field larger"):
        parse(huge + "\n", "csv")
    with pytest.raises(AnswerFileError, match="^CSV line 3: field larger"):
        parse(header + "\nq1," + huge + "\n", "csv")


def test_build_dataset_drops_blanks_and_duplicates():
    records = [
        AnswerRecord("q", "muscle", Label.CORRECT),
        AnswerRecord("q", "muscle", Label.CORRECT),
        AnswerRecord("q", "", Label.INCORRECT),
        AnswerRecord("q", "   ", Label.INCORRECT),
    ]
    dataset = build_question_dataset(records, "q")
    assert len(dataset) == 1
    assert dataset.correct_count == 1
    assert dataset.incorrect_count == 0


def test_build_dataset_conflict_is_a_hard_error():
    records = [
        AnswerRecord("q", "valve", Label.CORRECT),
        AnswerRecord("q", "valve", Label.INCORRECT),
    ]
    with pytest.raises(LabelConflictError) as excinfo:
        build_question_dataset(records, "q")
    assert excinfo.value.conflicts == ("valve",)


def test_build_dataset_features_and_counts():
    records = [
        AnswerRecord("q", "papillary muscles", Label.CORRECT),
        AnswerRecord("q", "atrial wall", Label.INCORRECT),
    ]
    dataset = build_question_dataset(records, "q")
    assert dataset.correct_count == 1
    assert dataset.incorrect_count == 1
    assert {s.features for s in dataset.samples} == {
        frozenset({"papillary", "muscles"}),
        frozenset({"atrial", "wall"}),
    }


def test_build_dataset_case_matters_for_dedup():
    # Dedup is on the raw submitted text; case-variant answers stay distinct.
    records = [
        AnswerRecord("q", "Valve", Label.CORRECT),
        AnswerRecord("q", "valve", Label.CORRECT),
    ]
    assert len(build_question_dataset(records, "q")) == 2


def test_build_dataset_rejects_foreign_question_and_empty_input():
    with pytest.raises(ValueError, match="q2"):
        build_question_dataset([AnswerRecord("q2", "x", Label.CORRECT)], "q1")
    with pytest.raises(EmptyDatasetError):
        build_question_dataset([AnswerRecord("q", " ", Label.CORRECT)], "q")


def test_validate_dataset_reports_stopword_only_answers():
    report = validate_dataset([AnswerRecord("q", "the a an", Label.CORRECT)])
    assert report.empty_after_preprocessing == ("the a an",)
    assert report.ok


def test_validate_dataset_reports_conflicts():
    report = validate_dataset(
        [
            AnswerRecord("q", "valve", Label.CORRECT),
            AnswerRecord("q", "valve", Label.INCORRECT),
        ]
    )
    assert report.conflicts == ("valve",)
    assert not report.ok
    assert "valve" in report.render()


def test_validate_dataset_clean_corpus():
    report = validate_dataset(
        [
            AnswerRecord("q", "alpha", Label.CORRECT),
            AnswerRecord("q", "beta", Label.INCORRECT),
        ]
    )
    assert report.ok
    assert report.empty_after_preprocessing == ()
    assert report.sample_count == 2


def test_group_records_preserves_order():
    records = [
        AnswerRecord("q2", "a", Label.CORRECT),
        AnswerRecord("q1", "b", Label.CORRECT),
        AnswerRecord("q2", "c", Label.INCORRECT),
    ]
    groups = group_records(records)
    assert list(groups) == ["q2", "q1"]
    assert [r.raw_text for r in groups["q2"]] == ["a", "c"]


answer_text = st.text(
    alphabet=st.characters(blacklist_characters="\r\x00", blacklist_categories=("Cs",)),
    max_size=40,
)


def records_to_csv(records):
    """Serialize records back to the CSV answer format."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for record in records:
        writer.writerow([record.question_id, record.raw_text, record.label.value])
    return out.getvalue()


@given(st.lists(st.tuples(answer_text, st.booleans()), min_size=1, max_size=25))
def test_csv_round_trip_is_lossless(raw):
    records = [
        AnswerRecord("q1", text, Label.CORRECT if correct else Label.INCORRECT)
        for text, correct in raw
    ]
    assert parse_answer_file(records_to_csv(records), "csv") == records


@given(st.lists(st.tuples(st.text(alphabet="abcdef ", max_size=12)), max_size=25))
def test_dataset_construction_is_idempotent(raw):
    records = [
        AnswerRecord("q", text, Label.CORRECT if len(text) % 2 else Label.INCORRECT)
        for (text,) in raw
        if text.strip()
    ]
    if not records:
        return
    first = build_question_dataset(records, "q")
    again = build_question_dataset(
        [AnswerRecord("q", s.raw_text, s.label) for s in first.samples], "q"
    )
    assert again == first
    assert first.correct_count + first.incorrect_count == len(first)
    assert all(s.raw_text.strip() for s in first.samples)
