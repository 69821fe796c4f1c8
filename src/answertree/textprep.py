"""Turn raw answer text into the word-set features the trees consume.

Answers are short technical noun phrases, so preprocessing is deliberately
minimal: lowercase, split on non-alphanumeric runs, drop a small stopword
list. No stemming and no spell correction; misspellings are part of what
the trees learn from.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .corpus import QuestionDataset

# The 31 common English words stripped from answers before training.
DEFAULT_STOPWORDS = frozenset(
    """
    a an and are as at be but by did for had has have i in is it of on or
    so than that the then they this to was with
    """.split()
)

_WORD_LOWER = re.compile(r"[0-9a-z]+")


def words(text: str) -> list[str]:
    """The text's words, in order: lowercase, split on non-alphanumeric runs;
    repeats and stopwords are kept."""
    return _WORD_LOWER.findall(text.lower())


def preprocess(text: str, stopwords: frozenset[str] = DEFAULT_STOPWORDS) -> frozenset[str]:
    """Full pipeline: the text's ``words`` collapsed to a presence-only word
    set (in-answer frequency is discarded), less the stopwords."""
    return frozenset(words(text)) - stopwords


def parse_stopword_file(content: str) -> frozenset[str]:
    """Parse a stopword override file: one word per line, ``#`` comments
    allowed. Words are lower-cased, as answers are; a line that is then not
    one word of ``a``-``z`` and digits could never match, so it raises
    ValueError naming the line."""
    words = []
    for number, line in enumerate(content.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            if not _WORD_LOWER.fullmatch(line.lower()):
                raise ValueError(f"line {number}: {line!r} is not one word of a-z and 0-9")
            words.append(line.lower())
    return frozenset(words)


class UniqueWordCounts(NamedTuple):
    """Unique-word tallies for one question's answers.

    ``correct_words`` and ``incorrect_words`` count words appearing in answers
    of that class; a word used by both classes is counted in both, so the two
    columns can sum to more than ``all_words``.
    """

    all_words: int
    correct_words: int
    incorrect_words: int


def unique_word_counts(dataset: "QuestionDataset") -> UniqueWordCounts:
    """Counted from the dataset's index: a word is used by correct answers
    when its mask shares a bit with the correct mask, and by incorrect ones
    when it has a bit outside it."""
    _, word_masks, correct, _ = dataset.index
    return UniqueWordCounts(
        len(word_masks),
        sum(1 for mask in word_masks.values() if mask & correct),
        sum(1 for mask in word_masks.values() if mask & ~correct),
    )
