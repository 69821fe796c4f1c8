import csv
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from answertree import corpus
from answertree.corpus import (
    CSV_HEADER,
    UNGRADED_CSV_HEADER,
    AnswerRecord,
    CorpusError,
    Label,
    build_question_dataset,
    csv_line,
    group_records,
    parse_answer_file,
    read_rows,
    validate_dataset,
)
from answertree.evaluation import REPORT_CSV_HEADER, _fixture_row

HEADER = "question_id,answer,label\n"


def parse_ungraded_file(content, format):
    """An ungraded file's (question_id, answer) pairs, one per non-blank
    record: ``corpus.parse_ungraded_file`` with a ``build`` that keeps the
    fields."""
    return corpus.parse_ungraded_file(content, format, lambda row, line: tuple(row))


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
    with pytest.raises(CorpusError) as excinfo:
        parse_answer_file(HEADER + "q1,valve,maybe\n", "csv")
    assert "row 1" in str(excinfo.value)
    assert "maybe" in str(excinfo.value)


def test_parse_csv_keeps_blank_answers():
    content = HEADER + "q1,alpha,correct\nq1,,incorrect\nq1,beta,0\n"
    records = parse_answer_file(content, "csv")
    assert len(records) == 3
    assert records[1].raw_text == ""


def test_parse_csv_rejects_wrong_column_count_and_bad_header():
    with pytest.raises(CorpusError, match="row 1"):
        parse_answer_file(HEADER + "q1,valve\n", "csv")
    with pytest.raises(CorpusError, match="header"):
        parse_answer_file("id,text,grade\nq1,valve,correct\n", "csv")
    with pytest.raises(CorpusError, match="empty question_id"):
        parse_answer_file(HEADER + ",valve,correct\n", "csv")


def test_parse_json():
    content = json.dumps(
        [
            {"question_id": "q1", "answer": "mitral valve", "label": "Correct"},
            {"question_id": "q2", "answer": "apex", "label": 0},
            {"question_id": 7, "answer": 1.5, "label": 1},  # numbers read as text
        ]
    )
    # As written, even where float() would not keep it; json.dumps cannot
    # write 1e400.
    content = content[:-1] + ', {"question_id": 1e400, "answer": 1E2, "label": 1}]'
    records = parse_answer_file(content, "json")
    assert records == [
        AnswerRecord("q1", "mitral valve", Label.CORRECT),
        AnswerRecord("q2", "apex", Label.INCORRECT),
        AnswerRecord("7", "1.5", Label.CORRECT),
        AnswerRecord("1e400", "1E2", Label.CORRECT),
    ]


def test_parse_json_errors_name_the_element():
    with pytest.raises(CorpusError, match="element 1"):
        parse_answer_file('[{"question_id":"q","answer":"x","label":"1"}, {}]', "json")
    with pytest.raises(CorpusError, match="invalid JSON"):
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
    with pytest.raises(CorpusError) as raised:
        parse(content, "json")
    assert str(raised.value) == f"element 1: {column} must be text or a number, not {kind}"


@pytest.mark.parametrize("text", ["\ud800", "alpha \udfff", "\udc00\ud800"])
@pytest.mark.parametrize(
    "parse, column",
    [(parse_answer_file, c) for c in ("question_id", "answer", "label")]
    + [(parse_ungraded_file, c) for c in ("question_id", "answer")],
)
def test_json_string_with_a_lone_surrogate_names_its_element(parse, column, text):
    # json.dumps escapes the surrogate as \ud800; json.loads reads it back
    # as a string no UTF-8 file or output can hold.
    element = {"question_id": "q1", "answer": "x", "label": "correct"}
    content = json.dumps([element, {**element, column: text}])
    with pytest.raises(CorpusError) as raised:
        parse(content, "json")
    assert str(raised.value) == f"element 1: {column} holds a lone surrogate, which is not text"


def test_parse_ungraded_file():
    # One item per non-blank record. build gets the record's line when it is
    # one quote-free line, and None for any other record.
    content = 'question_id,answer\nq1,valve\nq2,\n\nq1,"a, b"\r\nq3,"x\ny"\n\r\n'
    assert corpus.parse_ungraded_file(content, "csv", lambda row, line: (row, line)) == [
        (["q1", "valve"], "q1,valve"),
        (["q2", ""], "q2,"),
        (["q1", "a, b"], None),
        (["q3", "x\ny"], None),
    ]
    content = '[{"question_id":"q1","answer":"x"}]'
    assert corpus.parse_ungraded_file(content, "json", lambda row, line: (row, line)) == [
        (["q1", "x"], None)
    ]


def test_reader_reads_a_repeated_line_once():
    repeated = [
        ("csv", HEADER + 'q1,valve,correct\nq1,"a, b",0\nq1,valve,correct\nq1,"a, b",0\n'),
        # A record spanning lines is known by its fields: its first line
        # alone is not a record.
        ("csv", HEADER + 'q1,valve,correct\nq1,"a\nb",0\nq1,valve,correct\nq1,"a\nb",0\n'),
        ("json", json.dumps([
            {"question_id": "q1", "answer": "valve", "label": "correct"},
            {"question_id": "q1", "answer": "a, b", "label": 0},
        ] * 2)),
    ]
    for format, content in repeated:
        built = []

        def build(row):
            built.append(row)
            return tuple(row)

        records = read_rows(content, format, CSV_HEADER, build)
        answer = "a\nb" if "a\nb" in content else "a, b"
        assert records == [("q1", "valve", "correct"), ("q1", answer, "0")] * 2
        assert built == [["q1", "valve", "correct"], ["q1", answer, "0"]]
        assert records[0] is records[2] and records[1] is records[3]


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
    with pytest.raises(CorpusError) as excinfo:
        parse(content, format)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "parse, header",
    [(parse_answer_file, HEADER), (parse_ungraded_file, "question_id,answer\n")],
)
def test_reader_turns_csv_module_errors_into_answer_file_errors(parse, header):
    # The csv module refuses a field longer than its size limit.
    huge = "x" * (csv.field_size_limit() + 1)
    with pytest.raises(CorpusError, match="^CSV line 1: field larger"):
        parse(huge + "\n", "csv")
    with pytest.raises(CorpusError, match="^CSV line 3: field larger"):
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
    with pytest.raises(CorpusError) as excinfo:
        build_question_dataset(records, "q")
    assert str(excinfo.value) == (
        "question 'q': 1 unique samples\n"
        "  conflict: 'valve' was graded both correct and incorrect"
    )


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


def test_build_dataset_rejects_empty_input():
    with pytest.raises(CorpusError, match="^question 'q': no non-blank answers to train on$"):
        build_question_dataset([AnswerRecord("q", " ", Label.CORRECT)], "q")


def test_validate_dataset_reports_stopword_only_answers():
    records = [
        AnswerRecord("q", "the a an", Label.CORRECT),
        AnswerRecord("q", "valve", Label.CORRECT),
        AnswerRecord("q", "valve", Label.INCORRECT),
    ]
    # A stopword-only answer is kept, and named in a conflict's report.
    assert validate_dataset(records[:1]) == {"the a an": Label.CORRECT}
    with pytest.raises(CorpusError) as excinfo:
        validate_dataset(records)
    assert str(excinfo.value).splitlines()[-1] == (
        "  no features left after preprocessing: 'the a an'"
    )


def test_validate_dataset_reports_conflicts():
    with pytest.raises(CorpusError) as excinfo:
        validate_dataset(
            [
                AnswerRecord("q", "valve", Label.CORRECT),
                AnswerRecord("q", "valve", Label.INCORRECT),
            ]
        )
    assert "valve" in str(excinfo.value)


def test_validate_dataset_clean_corpus():
    texts = validate_dataset(
        [
            AnswerRecord("q", "alpha", Label.CORRECT),
            AnswerRecord("q", "beta", Label.INCORRECT),
        ]
    )
    assert texts == {"alpha": Label.CORRECT, "beta": Label.INCORRECT}


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


def parse_fixture(content, format):
    """The stats fixture is read as CSV only; its JSON form takes the same
    reader rules."""
    return read_rows(content, format, REPORT_CSV_HEADER, _fixture_row)


# Every table the reader reads: its columns and its parser.
TABLES = [
    (CSV_HEADER, parse_answer_file),
    (UNGRADED_CSV_HEADER, parse_ungraded_file),
    (REPORT_CSV_HEADER, parse_fixture),
]
surrogate = st.integers(0xD800, 0xDFFF).map(chr)
# Text that may hold lone surrogates, as a JSON \ud800 escape loads.
any_string = st.lists(
    st.one_of(st.text(min_size=1, max_size=4), surrogate), min_size=1, max_size=4
).map("".join)
json_value = st.one_of(
    any_string, st.integers(), st.floats(), st.none(), st.booleans(), st.just([])
)
count = st.integers(0, 99)


def good_value(column, text):
    """Values a column accepts: any ``text`` for an id or an answer, else a
    label or a count, as its text or as a number."""
    if column in ("question_id", "answer"):
        return text
    if column == "label":
        return st.sampled_from(["correct", "incorrect", 1, 0])
    return st.one_of(count, count.map(str))


@st.composite
def table_files(draw, columns):
    """A format and content: any text, or rows under ``columns`` laid out
    as CSV or as JSON made by json.dumps with ASCII escapes. Most rows hold
    a good value in every column."""
    format = draw(st.sampled_from(["csv", "json"]))
    if draw(st.booleans()):
        return format, draw(st.text(max_size=60))
    keys = st.sampled_from(columns)
    if format == "json":
        good = st.fixed_dictionaries({c: good_value(c, any_string) for c in columns})
        bad = st.one_of(st.dictionaries(keys, json_value, max_size=4), json_value)
        elements = draw(st.lists(st.one_of(good, good, bad), max_size=5))
        return format, json.dumps(elements, ensure_ascii=True)
    good = st.tuples(*(good_value(c, st.text(max_size=8)) for c in columns))
    bad = st.lists(st.text(max_size=8), max_size=len(columns) + 1)
    header = draw(st.one_of(st.just(columns), st.just(columns), st.lists(keys, max_size=4)))
    out = io.StringIO()
    csv.writer(out).writerows([header, *draw(st.lists(st.one_of(good, good, bad), max_size=5))])
    return format, out.getvalue()


@pytest.mark.parametrize("columns, parse", TABLES, ids=["graded", "ungraded", "report"])
@given(data=st.data())
def test_reader_returns_utf8_rows_or_raises_answer_file_error(columns, parse, data):
    format, content = data.draw(table_files(columns))
    try:
        items = parse(content, format)
    except CorpusError:
        return
    for item in items:
        for value in item:
            if isinstance(value, str):
                value.encode("utf-8")


def csv_reader_rows(content, columns):
    """What ``read_rows(content, "csv", columns, tuple)`` reads, with blank
    records kept as (): one ``csv.reader`` over the whole text, the oracle.
    Its lines stop at one holding NUL, as that reader stops on Python 3.10."""
    read = 0

    def lines():
        nonlocal read
        for read, line in enumerate(io.StringIO(content), start=1):
            if "\0" in line:
                raise csv.Error("line contains NUL")
            yield line

    reader = csv.reader(lines())
    try:
        header = next(reader, None)
        if header is None:
            raise CorpusError("empty CSV file")
        if [h.strip() for h in header] != columns:
            raise CorpusError(f"bad CSV header {header!r}, expected {','.join(columns)}")
        rows = []
        for n, row in enumerate(reader, start=1):
            if row and len(row) != len(columns):
                raise CorpusError(f"row {n}: expected {len(columns)} columns, got {len(row)}")
            if row and not row[0].strip():
                raise CorpusError(f"row {n}: empty question_id")
            rows.append(tuple(row))
    except csv.Error as exc:
        raise CorpusError(f"CSV line {read}: {exc}") from None
    return rows


def outcome(read):
    try:
        return read(), None
    except CorpusError as exc:
        return None, str(exc)


def written_row(fields, terminator):
    out = io.StringIO()
    csv.writer(out, lineterminator=terminator).writerow(fields)
    return out.getvalue()


# Text made mostly of the characters that decide how CSV splits it.
csv_char = st.sampled_from(list('ab ,,""\n\r\0'))
csv_chunk = st.one_of(
    st.text(csv_char, max_size=16),  # stray quotes, CRs, NULs and no final newline
    st.builds(  # a record as csv.writer writes it, quoted where it must be
        written_row,
        # csv.writer cannot write a NUL before Python 3.11.
        st.lists(st.text(st.sampled_from(list('ab ,,""\n\r')), max_size=14), max_size=3),
        st.sampled_from(["\n", "\r\n"]),
    ),
    st.sampled_from([
        "\n", "\r\n", "a,b\n",  # blank lines and a repeated line
        'a,"b',  # a quoted field still open where the text ends
        'a,"b\nc"\n', 'a,"b\nd"\n',  # one first line, two records
        "a" * 14 + ",b\n",  # a quote-free field over a lowered limit
    ]),
)


@pytest.mark.parametrize("columns", [UNGRADED_CSV_HEADER, CSV_HEADER], ids=["ungraded", "graded"])
@settings(max_examples=300)
@given(
    header=st.sampled_from(["{}\n", "{}\r\n", "{}", '"{}"\n', "x\n", "\n", ""]),
    chunks=st.lists(csv_chunk, max_size=8),
    # 11 is the longest header field; a field over the limit is a csv.Error.
    limit=st.sampled_from([None, 11, 13]),
)
def test_reader_reads_csv_as_one_csv_reader_does(columns, header, chunks, limit):
    content = header.format(",".join(columns)) + "".join(chunks)
    if limit is not None:
        old_limit = csv.field_size_limit(limit)
    try:
        want, want_error = outcome(lambda: csv_reader_rows(content, columns))
        got, got_error = outcome(lambda: read_rows(content, "csv", columns, tuple))
        assert got_error == want_error
        if want is not None:
            assert got == [row for row in want if row]
        if columns == UNGRADED_CSV_HEADER:
            rows, rows_error = outcome(lambda: corpus.parse_ungraded_file(
                content, "csv", lambda row, line: (tuple(row), line)
            ))
            assert rows_error == want_error
            if want is not None:
                assert [row for row, _ in rows] == [row for row in want if row]
                # build gets a record's line only when the line is quote-free.
                for row, line in rows:
                    if line is not None:
                        assert line + "\n" == csv_line(row), line
                        assert not any(c in line for c in '"\r\n\0'), line
    finally:
        if limit is not None:
            csv.field_size_limit(old_limit)


@given(fields=st.lists(st.text(csv_char), min_size=2, max_size=5))
def test_csv_line_reads_back_as_its_fields(fields):
    line = csv_line(fields)
    assert line.endswith("\n")
    # Before Python 3.11 csv.reader rejects a NUL; csv.writer cannot write
    # one, and writes a CR unquoted unless it is 3.13 or later.
    if sys.version_info >= (3, 11) or not any("\0" in f for f in fields):
        assert list(csv.reader(io.StringIO(line, newline=""))) == [fields]
    if not any("\r" in f or "\0" in f for f in fields):
        assert line == written_row(fields, "\n")
