import pytest
from hypothesis import given
from hypothesis import strategies as st

from answertree.corpus import AnswerRecord, Label, build_question_dataset
from answertree.textprep import (
    DEFAULT_STOPWORDS,
    PreprocessConfig,
    parse_stopword_file,
    preprocess,
    unique_word_counts,
)

EXPECTED_STOPWORDS = {
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "did", "for",
    "had", "has", "have", "i", "in", "is", "it", "of", "on", "or", "so",
    "than", "that", "the", "then", "they", "this", "to", "was", "with",
}


def test_default_stopword_list_is_exactly_the_31_words():
    assert DEFAULT_STOPWORDS == frozenset(EXPECTED_STOPWORDS)
    assert len(DEFAULT_STOPWORDS) == 31


def test_preprocess_lowercases_and_splits_on_non_alphanumeric():
    no_stopwords = PreprocessConfig(stopwords=frozenset())
    assert preprocess("Papillary Muscles", no_stopwords) == {"papillary", "muscles"}
    assert preprocess("keep av valves closed", no_stopwords) == {"keep", "av", "valves", "closed"}
    assert preprocess("", no_stopwords) == frozenset()
    assert preprocess("atrio-ventricular valve/cusp", no_stopwords) == {
        "atrio", "ventricular", "valve", "cusp",
    }
    assert preprocess("L4, L5!", no_stopwords) == {"l4", "l5"}


def test_preprocess_removes_stopwords():
    assert preprocess("the papillary muscle") == {"papillary", "muscle"}
    assert preprocess("a an of") == frozenset()
    assert preprocess("subvalvular apparatus") == {"subvalvular", "apparatus"}
    custom = PreprocessConfig(stopwords=frozenset({"valve"}))
    assert preprocess("the mitral valve", custom) == {"the", "mitral"}


def test_preprocess_collapses_duplicates():
    assert preprocess("valve valve mitral") == {"valve", "mitral"}
    assert preprocess("") == frozenset()
    assert preprocess("Papillary papillary MUSCLES") == {"papillary", "muscles"}
    assert type(preprocess("valve")) is frozenset


def test_preprocess_pipeline():
    assert preprocess("The Papillary Muscles!") == {"papillary", "muscles"}
    assert preprocess("the a an") == frozenset()


def test_parse_stopword_file():
    content = "# comment\nalpha\n\n  beta  \n# more\ngamma\n"
    assert parse_stopword_file(content) == {"alpha", "beta", "gamma"}
    # Answers are lower-cased before the stopword check, so entries are too.
    assert parse_stopword_file("WALL\n  Septum\n") == {"wall", "septum"}


def test_parse_stopword_file_rejects_an_entry_that_is_not_one_word():
    with pytest.raises(ValueError, match="^line 2: 'x-ray' is not one word"):
        parse_stopword_file("# comment\nx-ray\n")


words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8)


@given(
    st.text(max_size=200)
    | st.lists(st.sampled_from(sorted(EXPECTED_STOPWORDS)) | words, max_size=30).map(
        " ".join
    )
)
def test_preprocess_idempotent_and_never_grows(text):
    once = preprocess(text)
    assert preprocess(" ".join(once)) == once
    # The text's words that are not stopwords, and nothing more.
    every_word = preprocess(text, PreprocessConfig(stopwords=frozenset()))
    assert once == every_word - DEFAULT_STOPWORDS


def _dataset(samples):
    records = [
        AnswerRecord("q", text, Label.CORRECT if correct else Label.INCORRECT)
        for text, correct in samples
    ]
    return build_question_dataset(records, "q")


def test_unique_word_counts_union_arithmetic():
    dataset = _dataset([("papillary muscles", True), ("atrial muscles", False)])
    counts = unique_word_counts(dataset)
    assert (counts.all_words, counts.correct_words, counts.incorrect_words) == (3, 2, 2)


def test_unique_word_counts_single_class():
    dataset = _dataset([("x", True), ("y", True)])
    counts = unique_word_counts(dataset)
    assert (counts.all_words, counts.correct_words, counts.incorrect_words) == (2, 2, 0)


@given(
    st.lists(
        st.tuples(st.lists(words, min_size=1, max_size=5), st.booleans()),
        min_size=1,
        max_size=20,
    )
)
def test_unique_word_count_bounds(samples):
    texts = {" ".join(tokens): correct for tokens, correct in samples}
    dataset = _dataset(list(texts.items()))
    counts = unique_word_counts(dataset)
    assert max(counts.correct_words, counts.incorrect_words) <= counts.all_words
    assert counts.all_words <= counts.correct_words + counts.incorrect_words


@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from(["the", "of"]) | words, min_size=1, max_size=5),
            st.booleans(),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_unique_word_counts_equal_the_set_union_counts(samples):
    texts = {" ".join(tokens): correct for tokens, correct in samples}
    dataset = _dataset(list(texts.items()))
    everything, correct, incorrect = set(), set(), set()
    for sample in dataset.samples:
        everything |= sample.features
        (correct if sample.label is Label.CORRECT else incorrect).update(sample.features)
    counts = unique_word_counts(dataset)
    assert counts == ("q", len(everything), len(correct), len(incorrect))
