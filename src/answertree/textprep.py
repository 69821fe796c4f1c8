"""Turn raw answer text into the word-set features the trees consume.

Answers are short technical noun phrases, so preprocessing is deliberately
minimal: lowercase, split on non-alphanumeric runs, drop a small stopword
list. No stemming and no spell correction; misspellings are part of the
signal being modelled.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

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


@dataclass(frozen=True)
class PreprocessConfig:
    stopwords: frozenset[str] = DEFAULT_STOPWORDS


DEFAULT_CONFIG = PreprocessConfig()


def tokenize(text: str) -> list[str]:
    """Lowercase text and split it into word tokens on runs of
    non-alphanumeric characters."""
    return _WORD_LOWER.findall(text.lower())


def preprocess(text: str, config: PreprocessConfig = DEFAULT_CONFIG) -> frozenset[str]:
    """Full pipeline: tokenize, collapse to a presence-only word set (in-answer
    frequency is discarded) and remove stopwords."""
    return frozenset(_WORD_LOWER.findall(text.lower())) - config.stopwords


def parse_stopword_file(content: str) -> frozenset[str]:
    """Parse a stopword override file: one word per line, ``#`` comments allowed."""
    words = []
    for line in content.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.append(line)
    return frozenset(words)


@dataclass(frozen=True)
class UniqueWordCounts:
    """Unique-word tallies for one question's answers.

    ``correct_words`` and ``incorrect_words`` count words appearing in answers
    of that class; a word used by both classes is counted in both, so the two
    columns can sum to more than ``all_words``.
    """

    question_id: str
    all_words: int
    correct_words: int
    incorrect_words: int


def unique_word_counts(dataset: "QuestionDataset") -> UniqueWordCounts:
    from .corpus import Label

    everything: set[str] = set()
    correct: set[str] = set()
    incorrect: set[str] = set()
    for sample in dataset.samples:
        everything |= sample.features
        if sample.label is Label.CORRECT:
            correct |= sample.features
        else:
            incorrect |= sample.features
    return UniqueWordCounts(
        question_id=dataset.question_id,
        all_words=len(everything),
        correct_words=len(correct),
        incorrect_words=len(incorrect),
    )
