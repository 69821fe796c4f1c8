from hypothesis import given
from hypothesis import strategies as st

from answertree.corpus import AnswerRecord, Label, build_question_dataset
from answertree.textprep import (
    DEFAULT_STOPWORDS,
    feature_set,
    parse_stopword_file,
    preprocess,
    remove_stopwords,
    tokenize,
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


def test_tokenize_lowercases_and_splits_on_non_alphanumeric():
    assert tokenize("Papillary Muscles") == ["papillary", "muscles"]
    assert tokenize("keep av valves closed") == ["keep", "av", "valves", "closed"]
    assert tokenize("") == []
    assert tokenize("atrio-ventricular valve/cusp") == [
        "atrio", "ventricular", "valve", "cusp",
    ]
    assert tokenize("L4, L5!") == ["l4", "l5"]


def test_remove_stopwords():
    assert remove_stopwords(["the", "papillary", "muscle"]) == ["papillary", "muscle"]
    assert remove_stopwords(["a", "an", "of"]) == []
    assert remove_stopwords(["subvalvular", "apparatus"]) == [
        "subvalvular", "apparatus",
    ]


def test_feature_set_collapses_duplicates():
    assert feature_set(["valve", "valve", "mitral"]) == {"valve", "mitral"}
    assert feature_set([]) == frozenset()
    assert feature_set(["papillary", "muscles"]) == {"papillary", "muscles"}


def test_preprocess_pipeline():
    assert preprocess("The Papillary Muscles!") == {"papillary", "muscles"}
    assert preprocess("the a an") == frozenset()


def test_parse_stopword_file():
    content = "# comment\nalpha\n\n  beta  \n# more\ngamma\n"
    assert parse_stopword_file(content) == {"alpha", "beta", "gamma"}


words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8)


@given(st.text(max_size=200))
def test_tokenize_idempotent_on_its_own_output(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens


@given(st.lists(words, max_size=30))
def test_remove_stopwords_idempotent_and_never_grows(tokens):
    once = remove_stopwords(tokens)
    assert remove_stopwords(once) == once
    assert len(once) <= len(tokens)


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
