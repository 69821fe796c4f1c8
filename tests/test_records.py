"""The records keep their contract: each is an immutable NamedTuple that
pickles to an equal record and makes changed copies with ``_replace``."""

import importlib
import pickle
import pkgutil

import pytest

import answertree
from answertree import cli, corpus, dtree, evaluation, textprep
from answertree.corpus import AnswerRecord, Label, QuestionDataset
from answertree.dtree import classify, deserialize_tree
from answertree.evaluation import QuestionRow
from answertree.textprep import preprocess

C, I = Label.CORRECT, Label.INCORRECT
MODULES = (corpus, dtree, evaluation, textprep)


def _dataset():
    records = [AnswerRecord("q", f"alpha item{i}", C) for i in range(6)]
    records += [AnswerRecord("q", f"wrong item{i}", I) for i in range(5)]
    records.append(AnswerRecord("q", "alpha wrong", I))
    return corpus.build_question_dataset(records, "q")


def _records():
    """One instance of every public record type, made by the functions that
    make them in a run."""
    data = _dataset()
    tree = dtree.build_tree(data, trained_at="2020-06-15")
    accuracy = evaluation.cross_validate(data, min_gain=0.0, k=3, seed=1)
    rows = [
        QuestionRow(f"q{n}", grade, 0.5 + grade / 2, 10 + n, 5 + n, 7 - n)
        for n, grade in enumerate((0.2, 0.45, 0.5, 0.9))
    ]
    report = evaluation.build_report(rows)
    return [
        textprep.unique_word_counts(data),
        data.samples[0],
        data.index,
        corpus.parse_answer_file("question_id,answer,label\nq,alpha,correct\n", "csv")[0],
        tree,
        classify(tree, preprocess("alpha wrong")).trace[0],
        classify(tree, preprocess("alpha wrong")),
        accuracy,
        report.correlations["average_grade"],
        rows[0],
        report.summary,
        report,
    ]


def _record_types():
    return {
        value
        for module in MODULES
        for name, value in vars(module).items()
        if not name.startswith("_")
        and isinstance(value, type)
        and issubclass(value, tuple)
        and value.__module__ == module.__name__
    }


def test_every_record_type_is_covered():
    assert {type(record) for record in _records()} == _record_types()
    assert len(_record_types()) == 12


def test_the_package_defines_two_exception_classes():
    # An input that cannot be used is a CorpusError, an option a UsageError.
    # __main__ is left out: importing it runs the command line.
    modules = [
        importlib.import_module(f"answertree.{info.name}")
        for info in pkgutil.iter_modules(answertree.__path__)
        if info.name != "__main__"
    ]
    assert {module.__name__ for module in modules} >= {m.__name__ for m in (*MODULES, cli)}
    defined = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type)
        and issubclass(value, BaseException)
        and value.__module__ == module.__name__
    }
    assert defined == {corpus.CorpusError, cli.UsageError}


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_round_trips_through_pickle(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_replace_changes_one_field(record):
    marker = object()
    for field in record._fields:
        copy = record._replace(**{field: marker})
        assert type(copy) is type(record)
        assert getattr(copy, field) is marker
        assert copy._replace(**{field: getattr(record, field)}) == record
    assert record._replace() == record


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_fields_cannot_be_assigned(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_dataset_is_an_immutable_record_whose_len_counts_samples():
    data = _dataset()
    assert len(data) == len(data.samples) == 12
    copy = pickle.loads(pickle.dumps(data))
    assert copy == data and hash(copy) == hash(data)
    assert copy != QuestionDataset("q", data.samples[1:])
    assert data != ("q", data.samples) and data.__eq__(None) is NotImplemented
    assert repr(data).startswith("QuestionDataset(question_id='q', samples=(Sample(")
    fresh = _dataset()
    dtree.build_tree(data)  # fills the index memo
    assert "index" in vars(data) and "index" not in vars(fresh)
    assert data == fresh and hash(data) == hash(fresh) and repr(data) == repr(fresh)
    for field in ("question_id", "samples"):
        with pytest.raises(AttributeError):
            setattr(data, field, getattr(data, field))


def test_a_tree_that_has_graded_answers_equals_a_fresh_copy(example_tree_path):
    text = example_tree_path.read_text(encoding="utf-8")
    used, fresh = deserialize_tree(text), deserialize_tree(text)
    for answer in ("papillary muscles", "the valves", "nothing known here"):
        classify(used, preprocess(answer))
    assert set(vars(used)) == {"vocabulary", "_results"}  # both memos are filled
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert "_results" not in repr(used) and "Classification" not in repr(used)
    assert pickle.loads(pickle.dumps(used)) == fresh
    assert vars(used._replace(trained_at="")) == {}  # a copy starts with no memo
