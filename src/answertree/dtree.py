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
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .corpus import Label, QuestionDataset, Sample

# Gains within this of the threshold count as "no split"; keeps float noise
# from growing the tree past purity.
GAIN_TOLERANCE = 1e-12


class TreeFormatError(Exception):
    """Malformed serialized tree document."""


@dataclass(frozen=True)
class TrainConfig:
    min_gain: float = 0.0
    leaf_tie_label: Label = Label.INCORRECT


@dataclass(frozen=True)
class TreeNode:
    """One tree node. Internal nodes carry a word test; leaves carry none.

    ``count``/``size`` keep the label probability as an exact rational so
    serialization round-trips bit-stably.
    """

    label: Label
    count: int
    size: int
    word: str | None = None
    true_child: "TreeNode | None" = None
    false_child: "TreeNode | None" = None

    def __post_init__(self) -> None:
        if self.size < 1 or not 0 <= self.count <= self.size:
            raise ValueError(f"bad node counts {self.count}/{self.size}")
        has_children = self.true_child is not None and self.false_child is not None
        no_children = self.true_child is None and self.false_child is None
        if self.word is None and not no_children:
            raise ValueError("leaf node must not have children")
        if self.word is not None and not has_children:
            raise ValueError("internal node must have both children")

    @property
    def probability(self) -> float:
        return self.count / self.size

    @property
    def is_leaf(self) -> bool:
        return self.word is None


@dataclass(frozen=True)
class DecisionTree:
    question_id: str
    root: TreeNode
    config: TrainConfig = TrainConfig()
    trained_at: str = ""

    def vocabulary(self) -> frozenset[str]:
        """All words tested anywhere in the tree."""
        return self._flat.vocabulary

    # Compiled on first use and kept in the instance dict: not a dataclass
    # field, so it stays out of __eq__, __hash__ and __repr__.
    @cached_property
    def _flat(self) -> _FlatTree:
        return _compile(self.root)

    # Each reached leaf's result, keyed as in ``classify``; kept like ``_flat``.
    @cached_property
    def _results(self) -> dict[int, Classification]:
        return {}


@dataclass(frozen=True)
class SplitEvaluation:
    word: str
    true_size: int
    false_size: int
    true_entropy: float
    false_entropy: float
    split_entropy: float
    gain: float


@dataclass(frozen=True)
class TraceStep:
    word: str
    branch: bool
    label: Label
    probability: float


@dataclass(frozen=True)
class Classification:
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
    return f"{position}th"


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


def _class_counts(samples: list[Sample] | tuple[Sample, ...]) -> tuple[int, int]:
    correct = sum(1 for s in samples if s.label is Label.CORRECT)
    return correct, len(samples) - correct


def _split_entropies(
    true_correct: int, true_size: int, correct: int, total: int, current_entropy: float
) -> tuple[float, float, float]:
    """The true side's, the false side's and the weighted split entropy of a
    split with these class counts: the one place the gain formula lives.
    ``true_*`` count the samples containing the word; ``correct`` and
    ``total`` count all of them."""
    false_size = total - true_size
    false_correct = correct - true_correct
    true_entropy = entropy(true_correct, true_size - true_correct) if true_size else 0.0
    false_entropy = (
        entropy(false_correct, false_size - false_correct) if false_size else 0.0
    )
    if not true_size or not false_size:
        # A vacuous split leaves the set intact; keep the gain exactly zero
        # rather than letting the weighted average round off by an ulp.
        return true_entropy, false_entropy, current_entropy
    split_entropy = (true_size * true_entropy + false_size * false_entropy) / total
    return true_entropy, false_entropy, split_entropy


def _gain(
    true_correct: int, true_size: int, correct: int, total: int, current_entropy: float
) -> float:
    """Information gain of a split with these class counts; the same float as
    ``_split_from_counts(...).gain`` without building the record."""
    split_entropy = _split_entropies(
        true_correct, true_size, correct, total, current_entropy
    )[2]
    return current_entropy - split_entropy


def _split_from_counts(
    word: str,
    true_correct: int,
    true_size: int,
    correct: int,
    total: int,
    current_entropy: float,
) -> SplitEvaluation:
    """Score a split from its class counts."""
    true_entropy, false_entropy, split_entropy = _split_entropies(
        true_correct, true_size, correct, total, current_entropy
    )
    return SplitEvaluation(
        word=word,
        true_size=true_size,
        false_size=total - true_size,
        true_entropy=true_entropy,
        false_entropy=false_entropy,
        split_entropy=split_entropy,
        gain=current_entropy - split_entropy,
    )


def evaluate_split(
    samples: list[Sample] | tuple[Sample, ...], word: str, current_entropy: float
) -> SplitEvaluation:
    """Score splitting ``samples`` on presence of ``word``."""
    if not samples:
        raise ValueError("cannot evaluate a split of zero samples")
    true_side = [s for s in samples if word in s.features]
    return _split_from_counts(
        word,
        _class_counts(true_side)[0],
        len(true_side),
        _class_counts(samples)[0],
        len(samples),
        current_entropy,
    )


class _Node(NamedTuple):
    """A set of training samples as a bit mask over an indexed dataset.

    Bit ``i`` of ``mask`` stands for sample ``i``. ``word_masks`` maps each
    word to the mask of the samples containing it and ``correct`` is the
    mask of the correct samples; every node of one tree shares both.
    """

    mask: int
    word_masks: dict[str, int]
    correct: int


def _index(samples: Sequence[Sample]) -> _Node:
    """The node holding all of ``samples``."""
    word_masks: dict[str, int] = {}
    correct = 0
    for i, s in enumerate(samples):
        bit = 1 << i
        if s.label is Label.CORRECT:
            correct |= bit
        for word in s.features:
            word_masks[word] = word_masks.get(word, 0) | bit
    return _Node((1 << len(samples)) - 1, word_masks, correct)


def select_best_rule(
    samples: Sequence[Sample] | _Node,
    candidate_words: Iterable[str],
    current_entropy: float,
    min_gain: float = 0.0,
) -> tuple[str, SplitEvaluation] | None:
    """Pick the candidate word with the greatest information gain.

    ``samples`` is a sequence of samples, which is indexed on entry, or a
    node of the grower. Each candidate is scored from two counts: the
    node's samples containing it and how many of those are correct. Returns
    None when no candidate gains more than ``min_gain``. A word present in
    all samples or in none never splits. Iterating in sorted order with a
    strict comparison makes ties resolve to the lexicographically smallest
    word.
    """
    node = samples if isinstance(samples, _Node) else _index(samples)
    mask, word_masks, correct_mask = node
    correct_mask &= mask
    total = mask.bit_count()
    correct = correct_mask.bit_count()
    # Many words share their counts (most occur once), so score each distinct
    # (true_correct, true_size) pair once.
    gains: dict[tuple[int, int], float] = {}
    best_word: str | None = None
    best_gain = 0.0
    best_counts = (0, 0)
    for word in sorted(candidate_words):
        true_mask = mask & word_masks.get(word, 0)
        true_size = true_mask.bit_count()
        if true_size == 0 or true_size == total:
            continue
        key = ((true_mask & correct_mask).bit_count(), true_size)
        gain = gains.get(key)
        if gain is None:
            gain = gains[key] = _gain(*key, correct, total, current_entropy)
        if best_word is None or gain > best_gain:
            best_word, best_gain, best_counts = word, gain, key
    if best_word is None or best_gain <= min_gain + GAIN_TOLERANCE:
        return None
    return best_word, _split_from_counts(
        best_word, *best_counts, correct, total, current_entropy
    )


def _majority(correct: int, incorrect: int, config: TrainConfig) -> tuple[Label, int]:
    if correct > incorrect:
        return Label.CORRECT, correct
    if incorrect > correct:
        return Label.INCORRECT, incorrect
    return config.leaf_tie_label, correct


def _grow(node: _Node, words: list[str], config: TrainConfig) -> TreeNode:
    """Grow the subtree over ``node``'s samples.

    ``words`` is the sorted list of words that split the parent; those that
    also split this node (present in some but not all of its samples) are
    its candidates. A word tested on the path is in all or none of the
    node's samples, so it is never one of them.
    """
    mask, word_masks, correct_mask = node
    size = mask.bit_count()
    correct = (mask & correct_mask).bit_count()
    incorrect = size - correct
    label, count = _majority(correct, incorrect, config)
    if correct == 0 or incorrect == 0:
        return TreeNode(label=label, count=count, size=size)
    live = [w for w in words if (m := mask & word_masks[w]) and m != mask]
    choice = select_best_rule(node, live, entropy(correct, incorrect), config.min_gain)
    if choice is None:
        return TreeNode(label=label, count=count, size=size)
    word, _ = choice
    word_mask = word_masks[word]
    true_side = _Node(mask & word_mask, word_masks, correct_mask)
    false_side = _Node(mask & ~word_mask, word_masks, correct_mask)
    return TreeNode(
        label=label,
        count=count,
        size=size,
        word=word,
        true_child=_grow(true_side, live, config),
        false_child=_grow(false_side, live, config),
    )


def build_tree(
    dataset: QuestionDataset, config: TrainConfig = TrainConfig(), trained_at: str = ""
) -> DecisionTree:
    """Train a tree on a question dataset, recursing until purity or no gain."""
    if not dataset.samples:
        raise ValueError(f"question {dataset.question_id!r}: empty dataset")
    root = _index(dataset.samples)
    return DecisionTree(
        question_id=dataset.question_id,
        root=_grow(root, sorted(root.word_masks), config),
        config=config,
        trained_at=trained_at,
    )


class _FlatTree(NamedTuple):
    """A tree compiled into parallel arrays indexed by node, root at 0;
    ``words[i]`` is None for a leaf."""

    words: tuple[str | None, ...]
    true_index: tuple[int, ...]
    false_index: tuple[int, ...]
    labels: tuple[Label, ...]
    probabilities: tuple[float, ...]
    vocabulary: frozenset[str]


def _compile(root: TreeNode) -> _FlatTree:
    """Lay a tree out in preorder with one iterative walk."""
    words: list[str | None] = []
    true_index: list[int] = []
    false_index: list[int] = []
    labels: list[Label] = []
    probabilities: list[float] = []
    # (node, index of its parent, whether it is the parent's true child)
    stack: list[tuple[TreeNode, int, bool]] = [(root, -1, False)]
    while stack:
        node, parent, branch = stack.pop()
        index = len(words)
        if parent >= 0:
            (true_index if branch else false_index)[parent] = index
        words.append(node.word)
        true_index.append(-1)
        false_index.append(-1)
        labels.append(node.label)
        probabilities.append(node.count / node.size)
        if node.word is not None:
            stack.append((node.false_child, index, False))
            stack.append((node.true_child, index, True))
    return _FlatTree(
        words=tuple(words),
        true_index=tuple(true_index),
        false_index=tuple(false_index),
        labels=tuple(labels),
        probabilities=tuple(probabilities),
        vocabulary=frozenset(w for w in words if w is not None),
    )


def classify(tree: DecisionTree, features: frozenset[str] | set[str]) -> Classification:
    """Grade one preprocessed answer by walking the compiled tree to a leaf.

    The path to a leaf fixes its result, so a leaf's result is built the
    first time an answer reaches it and shared by every later one. An answer
    sharing no word with the tree fails every test and reaches the same leaf
    as other all-false answers, but is flagged out of vocabulary: its result
    is kept under the key -1.
    """
    words, true_index, false_index, _, _, vocabulary = flat = tree._flat
    index = 0
    while (word := words[index]) is not None:
        index = (true_index if word in features else false_index)[index]
    key = -1 if vocabulary.isdisjoint(features) else index
    result = tree._results.get(key)
    if result is None:
        result = tree._results[key] = _leaf_result(flat, features, key == -1)
    return result


def _leaf_result(
    flat: _FlatTree, features: frozenset[str] | set[str], out_of_vocabulary: bool
) -> Classification:
    """The result of walking ``features`` down ``flat``, with a step per test."""
    words, true_index, false_index, labels, probabilities, _ = flat
    visited: list[TraceStep] = []
    # Trailing false tests matched none of the answer's words; the trace ends
    # at the last true test so it reads as the decisions that mattered.
    end = 0
    index = 0
    while (word := words[index]) is not None:
        branch = word in features
        visited.append(TraceStep(word, branch, labels[index], probabilities[index]))
        if branch:
            end = len(visited)
        index = (true_index if branch else false_index)[index]
    trace = tuple(visited[:end])
    # max keeps the first of equal steps, so ties go to the earliest.
    critical = max(trace, key=lambda step: step.probability, default=None)
    return Classification(
        label=labels[index],
        certainty=probabilities[index],
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


def _node_to_obj(node: TreeNode) -> dict:
    obj: dict = {}
    if node.word is not None:
        obj["word"] = node.word
    obj["label"] = node.label.value
    obj["count"] = node.count
    obj["size"] = node.size
    if node.word is not None:
        obj["true"] = _node_to_obj(node.true_child)
        obj["false"] = _node_to_obj(node.false_child)
    return obj


def serialize_tree(tree: DecisionTree) -> str:
    document = {
        "question_id": tree.question_id,
        "trained_at": tree.trained_at,
        "config": {
            "min_gain": tree.config.min_gain,
            "leaf_tie_label": tree.config.leaf_tie_label.value,
        },
        "root": _node_to_obj(tree.root),
    }
    return json.dumps(document, indent=2) + "\n"


# JSON true/false load as bool, which Python counts as an int.
def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _node_from_obj(obj: object, where: str) -> TreeNode:
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
    word = obj.get("word")
    has_true = "true" in obj
    has_false = "false" in obj
    if word is None:
        if has_true or has_false:
            raise TreeFormatError(f"{where}: leaf node must not have children")
        children: dict = {}
    else:
        if not isinstance(word, str):
            raise TreeFormatError(f"{where}: word must be a string")
        if not (has_true and has_false):
            raise TreeFormatError(f"{where}: internal node needs both children")
        children = {
            "true_child": _node_from_obj(obj["true"], f"{where}.true"),
            "false_child": _node_from_obj(obj["false"], f"{where}.false"),
        }
    try:
        return TreeNode(label=label, count=count, size=size, word=word, **children)
    except ValueError as exc:
        raise TreeFormatError(f"{where}: {exc}") from exc


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
    try:
        tie_label = Label(config_obj.get("leaf_tie_label", "incorrect"))
    except ValueError:
        raise TreeFormatError(
            f"unknown leaf_tie_label {config_obj.get('leaf_tie_label')!r}"
        ) from None
    min_gain = config_obj.get("min_gain", 0.0)
    number = _is_int(min_gain) or isinstance(min_gain, float)
    # Checked against the largest float, not inf, so a huge integer is
    # rejected rather than overflowing float().
    if not (number and 0.0 <= min_gain <= sys.float_info.max):
        raise TreeFormatError(f"min_gain must be a finite number >= 0, not {min_gain!r}")
    config = TrainConfig(min_gain=float(min_gain), leaf_tie_label=tie_label)
    try:
        root = _node_from_obj(document["root"], "root")
    except RecursionError:
        raise TreeFormatError("tree nested too deep") from None
    return DecisionTree(
        question_id=str(document.get("question_id", "")),
        root=root,
        config=config,
        trained_at=str(document.get("trained_at", "")),
    )
