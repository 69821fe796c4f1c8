"""Per-question decision trees: training, classification, explanation, persistence.

Rules are boolean word-presence tests. A node splits its samples into the
subset containing the word and the rest; the word with the greatest
information gain wins, ties going to the lexicographically smallest word so
training is deterministic and independent of corpus order.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterable, Sequence
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .corpus import Label, QuestionDataset, Sample, is_utf8

# Gains within this of the threshold count as "no split"; keeps float noise
# from growing the tree past purity.
GAIN_TOLERANCE = 1e-12


class TreeFormatError(Exception):
    """Malformed serialized tree document."""


class _TreeFields(NamedTuple):
    question_id: str
    words: tuple[str | None, ...]
    true_index: tuple[int, ...]
    false_index: tuple[int, ...]
    labels: tuple[Label, ...]
    counts: tuple[int, ...]
    sizes: tuple[int, ...]
    min_gain: float = 0.0
    trained_at: str = ""


class DecisionTree(_TreeFields):
    """A tree as parallel arrays indexed by node, in preorder: the root at 0,
    each true subtree before its false one. ``words[i]`` is None for a leaf,
    whose child indices are -1, and ``counts[i] / sizes[i]`` is the
    probability of ``labels[i]``. Every field is flat, so ``==`` and
    ``hash`` do not recurse however deep the tree is. The fields are a
    NamedTuple base; with no ``__slots__`` here, a tree has a dict for memos.
    """

    # Built on first use and kept in the instance dict: not a tuple field,
    # so it stays out of __eq__, __hash__ and __repr__.
    @cached_property
    def vocabulary(self) -> frozenset[str]:
        """All words tested anywhere in the tree."""
        return frozenset(w for w in self.words if w is not None)

    # Each reached leaf's result, keyed as in ``classify``; kept like
    # ``vocabulary``.
    @cached_property
    def _results(self) -> dict[int, Classification]:
        return {}


def _add(rows: list[list], parent: int, branch: bool, row: list) -> int:
    """Append ``row`` (word, true child, false child, label, count, size) as
    the true or false child of row ``parent``, or as the root; its index."""
    index = len(rows)
    if parent >= 0:
        rows[parent][1 if branch else 2] = index
    rows.append(row)
    return index


def _tree(
    question_id: str, rows: list[list], min_gain: float, trained_at: str
) -> DecisionTree:
    """The tree whose nodes are ``rows``, as ``_add`` laid them out."""
    return DecisionTree(question_id, *map(tuple, zip(*rows)), min_gain, trained_at)


class TraceStep(NamedTuple):
    word: str
    branch: bool
    label: Label
    probability: float


class Classification(NamedTuple):
    """Result of grading one answer with a trained tree.

    ``trace`` lists the word tests that mattered: every test up to and
    including the last one the answer triggered. Tests after that point all
    returned false (none of the answer's words appeared again), so they are
    omitted, matching how a grader would narrate the decision.
    """

    label: Label
    certainty: float
    trace: tuple[TraceStep, ...]
    critical_word: str | None
    out_of_vocabulary: bool


_ORDINALS = [
    "First", "Second", "Third", "Fourth", "Fifth",
    "Sixth", "Seventh", "Eighth", "Ninth", "Tenth",
]


def _ordinal(position: int) -> str:
    if position <= len(_ORDINALS):
        return _ORDINALS[position - 1]
    # 11th, 12th and 13th, in every hundred; otherwise the last digit picks.
    last = 0 if position % 100 in (11, 12, 13) else position % 10
    suffix = {1: "st", 2: "nd", 3: "rd"}.get(last, "th")
    return f"{position}{suffix}"


# A pure function of two ints, so a cached result is the same float.
@cache
def entropy(correct: int, incorrect: int) -> float:
    """Impurity in bits of a set with the given class counts; 0*log2(0) = 0."""
    total = correct + incorrect
    if correct < 0 or incorrect < 0 or total < 1:
        raise ValueError(f"invalid class counts ({correct}, {incorrect})")
    result = 0.0
    for part in (correct, incorrect):
        if part:
            p = part / total
            result -= p * math.log2(p)
    return result


def _gain(
    true_correct: int, true_size: int, correct: int, total: int, current_entropy: float
) -> float:
    """Information gain of a split with these class counts: the one place the
    gain formula lives. ``true_*`` count the samples containing the word;
    ``correct`` and ``total`` count all of them."""
    false_size = total - true_size
    if not true_size or not false_size:
        # A vacuous split leaves the set intact; keep the gain exactly zero
        # rather than letting the weighted average round off by an ulp.
        return 0.0
    false_correct = correct - true_correct
    true_entropy = entropy(true_correct, true_size - true_correct)
    false_entropy = entropy(false_correct, false_size - false_correct)
    split_entropy = (true_size * true_entropy + false_size * false_entropy) / total
    return current_entropy - split_entropy


def evaluate_split(
    samples: list[Sample] | tuple[Sample, ...], word: str, current_entropy: float
) -> float:
    """The information gain of splitting ``samples`` on presence of ``word``."""
    if not samples:
        raise ValueError("cannot evaluate a split of zero samples")
    true_side = [s for s in samples if word in s.features]
    return _gain(
        sum(s.label is Label.CORRECT for s in true_side),
        len(true_side),
        sum(s.label is Label.CORRECT for s in samples),
        len(samples),
        current_entropy,
    )


class _Node(NamedTuple):
    """A set of training samples as a bit mask over a dataset's index, whose
    ``word_masks`` and ``correct`` mask every node of one tree shares.
    ``select_best_rule`` appends to ``live`` each candidate that splits the
    node.
    """

    mask: int
    word_masks: dict[str, int]
    correct: int
    live: list[str]


def select_best_rule(
    samples: Sequence[Sample] | _Node,
    candidate_words: Iterable[str],
    current_entropy: float,
    min_gain: float = 0.0,
) -> tuple[str, float] | None:
    """Pick the candidate word with the greatest information gain, as
    ``(word, gain)``.

    ``samples`` is a sequence of samples, which is indexed on entry, or a
    node of the grower, whose candidates must already be sorted. Each
    candidate is scored from two counts: the node's samples containing it
    and how many of those are correct. Returns None when no candidate gains
    more than ``min_gain``. A word present in all samples or in none never
    splits; every other candidate is appended to the node's ``live`` list,
    in order. Iterating in sorted order with a strict comparison makes ties
    resolve to the lexicographically smallest word.
    """
    if isinstance(samples, _Node):
        node, words = samples, candidate_words
    else:
        every, word_masks, correct_mask, _ = QuestionDataset("", tuple(samples)).index
        node, words = _Node(every, word_masks, correct_mask, []), sorted(candidate_words)
    mask, word_masks, correct_mask, live = node
    correct_mask &= mask
    total = mask.bit_count()
    correct = correct_mask.bit_count()
    # Many words share their counts (most occur once), so score each distinct
    # (true_correct, true_size) pair once.
    gains: dict[tuple[int, int], float] = {}
    best_word: str | None = None
    best_gain = 0.0
    for word in words:
        true_mask = mask & word_masks.get(word, 0)
        true_size = true_mask.bit_count()
        if true_size == 0 or true_size == total:
            continue
        live.append(word)
        key = ((true_mask & correct_mask).bit_count(), true_size)
        gain = gains.get(key)
        if gain is None:
            gain = gains[key] = _gain(*key, correct, total, current_entropy)
        if best_word is None or gain > best_gain:
            best_word, best_gain = word, gain
    if best_word is None or best_gain <= min_gain + GAIN_TOLERANCE:
        return None
    return best_word, best_gain


def build_tree(
    dataset: QuestionDataset,
    min_gain: float = 0.0,
    trained_at: str = "",
    held_out: int = 0,
) -> DecisionTree:
    """Train a tree on a question dataset, splitting until purity or until no
    word gains more than ``min_gain``.

    Samples whose bits are set in ``held_out``, such as a test fold, are left
    out. Nodes are grown from an explicit stack straight into the tree's
    preorder arrays. A node's candidates are the words that split its parent,
    which ``select_best_rule`` left in the parent's ``live`` list, already
    sorted. A word tested on the path is in all or none of the node's
    samples, so it never splits again.
    """
    every, word_masks, correct_mask, words = dataset.index
    root = every & ~held_out
    if not root:
        raise ValueError(f"question {dataset.question_id!r}: empty dataset")
    rows: list[list] = []
    # (mask, candidates, index of the parent, whether it is the true child)
    stack: list[tuple[int, list[str], int, bool]] = [(root, words, -1, False)]
    while stack:
        mask, candidates, parent, branch = stack.pop()
        size = mask.bit_count()
        correct = (mask & correct_mask).bit_count()
        incorrect = size - correct
        if correct > incorrect:
            label, count = Label.CORRECT, correct
        else:  # a tie is incorrect
            label, count = Label.INCORRECT, incorrect
        word = None
        if correct and incorrect:
            node = _Node(mask, word_masks, correct_mask, [])
            choice = select_best_rule(
                node, candidates, entropy(correct, incorrect), min_gain
            )
            if choice is not None:
                word = choice[0]
        index = _add(rows, parent, branch, [word, -1, -1, label, count, size])
        if word is not None:
            word_mask = word_masks[word]
            stack.append((mask & ~word_mask, node.live, index, False))
            stack.append((mask & word_mask, node.live, index, True))
    return _tree(dataset.question_id, rows, min_gain, trained_at)


def classify(tree: DecisionTree, features: frozenset[str] | set[str]) -> Classification:
    """Grade one preprocessed answer by walking the tree's arrays to a leaf.

    The path to a leaf fixes its result, so a leaf's result is built the
    first time an answer reaches it and shared by every later one. An answer
    sharing no word with the tree fails every test and reaches the same leaf
    as other all-false answers, but is flagged out of vocabulary: its result
    is kept under the key -1.
    """
    words, true_index, false_index = tree.words, tree.true_index, tree.false_index
    index = 0
    while (word := words[index]) is not None:
        index = (true_index if word in features else false_index)[index]
    key = -1 if tree.vocabulary.isdisjoint(features) else index
    result = tree._results.get(key)
    if result is None:
        result = tree._results[key] = _leaf_result(tree, features, key == -1)
    return result


def _leaf_result(
    tree: DecisionTree, features: frozenset[str] | set[str], out_of_vocabulary: bool
) -> Classification:
    """The result of walking ``features`` down ``tree``, with a step per test."""
    words, true_index, false_index = tree.words, tree.true_index, tree.false_index
    labels, counts, sizes = tree.labels, tree.counts, tree.sizes
    visited: list[TraceStep] = []
    # Trailing false tests matched none of the answer's words; the trace ends
    # at the last true test so it reads as the decisions that mattered.
    end = 0
    index = 0
    while (word := words[index]) is not None:
        branch = word in features
        probability = counts[index] / sizes[index]
        visited.append(TraceStep(word, branch, labels[index], probability))
        if branch:
            end = len(visited)
        index = (true_index if branch else false_index)[index]
    trace = tuple(visited[:end])
    # max keeps the first of equal steps, so ties go to the earliest.
    critical = max(trace, key=lambda step: step.probability, default=None)
    return Classification(
        label=labels[index],
        certainty=counts[index] / sizes[index],
        trace=trace,
        critical_word=critical.word if critical is not None else None,
        out_of_vocabulary=out_of_vocabulary,
    )


def explain(classification: Classification) -> str:
    """Render a classification as an importance-annotated step list.

    Importance of a step is the probability at its node; the critical
    decision point is the most important step (earliest on ties), or the
    terminal node itself when no word test fired.
    """
    lines = []
    for position, step in enumerate(classification.trace, start=1):
        outcome = "TRUE" if step.branch else "FALSE"
        lines.append(f'{_ordinal(position)} node "{step.word}" returns {outcome}')
    percent = round(classification.certainty * 100)
    lines.append(f"answer is {classification.label.value} ({percent}% significance)")
    if classification.critical_word is not None:
        lines.append(f'critical decision point: "{classification.critical_word}"')
    else:
        lines.append("critical decision point: terminal node")
    return "\n".join(lines)


def _descend(levels: int) -> int:
    """Recurse ``levels`` deep: a frame per level of a document, as json's
    reader takes on CPython 3.11 and earlier."""
    return levels and _descend(levels - 1)


def _check_depth(levels: int) -> None:
    """Raise TreeFormatError for a tree ``levels`` nodes deep that json could
    not read back under the recursion limit on CPython 3.11 and earlier.
    The writer and the reader both apply it, so a file one Python version
    writes or loads, every other one does too."""
    # Only a document 100 or more levels deep nears the limit. It must fit
    # under it on every version, with ten frames to spare for a reader's calls.
    if levels >= 100:
        try:
            _descend(levels + 10)
        except RecursionError:
            raise TreeFormatError("tree nested too deep") from None


def serialize_tree(tree: DecisionTree) -> str:
    """The tree as a v1 document: the text of ``json.dumps(document,
    indent=2)`` and a newline, written in one pass over the preorder arrays.
    A node's true child comes next; after a leaf comes the false child of the
    deepest node still waiting for one. A tree too deep for json to read back
    under the recursion limit raises TreeFormatError."""
    quote = encode_basestring_ascii
    label_text = {label: quote(label.value) for label in Label}
    parts = [
        '{\n  "question_id": ', quote(tree.question_id),
        ',\n  "trained_at": ', quote(tree.trained_at),
        ',\n  "config": {\n    "min_gain": ', json.dumps(tree.min_gain),
        ',\n    "leaf_tie_label": "incorrect"',
        '\n  },\n  "root": ',
    ]
    # Per node depth: the line break and indent before each of its keys, and
    # its closing brace, two spaces to the left.
    keys, ends = ["\n    "], ["\n  }"]
    waiting: list[int] = []  # depths of the nodes whose false child is to come
    depth = 0
    for word, label, count, size in zip(tree.words, tree.labels, tree.counts, tree.sizes):
        key = keys[depth]
        node = f'{key}"label": {label_text[label]},{key}"count": {count},{key}"size": {size}'
        if word is not None:
            parts.append(f'{{{key}"word": {quote(word)},{node},{key}"true": ')
            waiting.append(depth)
            depth += 1
            if depth == len(keys):
                keys.append(key + "  ")
                ends.append(key + "}")
            continue
        parts.append(f"{{{node}{ends[depth]}")
        if waiting:
            parent = waiting.pop()
            parts.extend(ends[parent + 1:depth][::-1])
            parts.append(f',{keys[parent]}"false": ')
            depth = parent + 1
    parts += [*ends[:depth][::-1], "\n}\n"]
    _check_depth(len(keys))
    return "".join(parts)


# JSON true/false load as bool, which Python counts as an int.
def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def deserialize_tree(text: str) -> DecisionTree:
    try:
        document = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
        raise TreeFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise TreeFormatError("tree nested too deep") from None
    if not isinstance(document, dict) or "root" not in document:
        raise TreeFormatError("tree document must be an object with a root")
    config_obj = document.get("config", {})
    if not isinstance(config_obj, dict):
        raise TreeFormatError("config must be an object")
    # Every tree breaks ties as incorrect; files naming either label load.
    tie_label = config_obj.get("leaf_tie_label", "incorrect")
    if tie_label not in ("correct", "incorrect"):
        raise TreeFormatError(f"unknown leaf_tie_label {tie_label!r}")
    min_gain = config_obj.get("min_gain", 0.0)
    number = _is_int(min_gain) or isinstance(min_gain, float)
    # Checked against the largest float, not inf, so a huge integer is
    # rejected rather than overflowing float().
    if not (number and 0.0 <= min_gain <= sys.float_info.max):
        raise TreeFormatError(f"min_gain must be a finite number >= 0, not {min_gain!r}")
    rows: list[list] = []
    # (node object, its path for messages, index of the parent, whether it
    # is the true child, its level), popped in preorder
    stack: list[tuple[object, str, int, bool, int]] = [
        (document["root"], "root", -1, False, 1)
    ]
    levels = 0
    while stack:
        obj, where, parent, branch, level = stack.pop()
        levels = max(levels, level)
        if not isinstance(obj, dict):
            raise TreeFormatError(f"{where}: node must be an object")
        try:
            label = Label(obj["label"])
        except KeyError:
            raise TreeFormatError(f"{where}: missing label") from None
        except ValueError:
            raise TreeFormatError(f"{where}: unknown label {obj['label']!r}") from None
        count = obj.get("count")
        size = obj.get("size")
        if not (_is_int(count) and _is_int(size)):
            raise TreeFormatError(f"{where}: count and size must be integers")
        if size < 1 or not 0 <= count <= size:
            raise TreeFormatError(f"{where}: bad node counts {count}/{size}")
        word = obj.get("word")
        has_true = "true" in obj
        has_false = "false" in obj
        if word is None:
            if has_true or has_false:
                raise TreeFormatError(f"{where}: leaf node must not have children")
        else:
            if not isinstance(word, str):
                raise TreeFormatError(f"{where}: word must be a string")
            if not is_utf8(word):
                raise TreeFormatError(f"{where}: word holds a lone surrogate")
            if not (has_true and has_false):
                raise TreeFormatError(f"{where}: internal node needs both children")
        index = _add(rows, parent, branch, [word, -1, -1, label, count, size])
        if word is not None:
            stack.append((obj["false"], f"{where}.false", index, False, level + 1))
            stack.append((obj["true"], f"{where}.true", index, True, level + 1))
    question_id = document.get("question_id")
    if not (isinstance(question_id, str) and question_id):
        raise TreeFormatError("question_id must be a non-empty string")
    trained_at = document.get("trained_at", "")
    if not isinstance(trained_at, str):
        raise TreeFormatError("trained_at must be a string")
    for name, text in (("question_id", question_id), ("trained_at", trained_at)):
        if not is_utf8(text):
            raise TreeFormatError(f"{name} holds a lone surrogate")
    _check_depth(levels)
    return _tree(question_id, rows, float(min_gain), trained_at)
