import json
import math
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from answertree import dtree
from answertree.corpus import (
    AnswerRecord,
    Label,
    QuestionDataset,
    Sample,
    build_question_dataset,
)
from answertree.dtree import (
    GAIN_TOLERANCE,
    Classification,
    DecisionTree,
    TraceStep,
    TreeFormatError,
    _gain,
    _Node,
    build_tree,
    classify,
    deserialize_tree,
    entropy,
    evaluate_split,
    explain,
    select_best_rule,
    serialize_tree,
)
from answertree.evaluation import cross_validate, make_stratified_folds

C, I = Label.CORRECT, Label.INCORRECT


def sample(words, label):
    return Sample(features=frozenset(words.split()), raw_text=words, label=label)


def dataset(pairs, qid="q"):
    records = [AnswerRecord(qid, text, label) for text, label in pairs]
    return build_question_dataset(records, qid)


def _root(tree):
    """The tree's nested form: each node a dict shaped like a v1 file's node,
    with its keys in the file's order (``word``, ``label``, ``count``,
    ``size``, ``true``, ``false``; a leaf has no word). Built bottom-up from
    the preorder arrays, where a node's children come after it, so no depth
    is too deep."""
    nodes = [None] * len(tree.words)
    for i in reversed(range(len(tree.words))):
        node = {} if tree.words[i] is None else {"word": tree.words[i]}
        node.update(label=tree.labels[i].value, count=tree.counts[i], size=tree.sizes[i])
        if tree.words[i] is not None:
            node["true"] = nodes[tree.true_index[i]]
            node["false"] = nodes[tree.false_index[i]]
        nodes[i] = node
    return nodes[0]


# --- entropy ---------------------------------------------------------------


def test_entropy_values():
    assert entropy(1, 1) == 1.0
    assert entropy(5, 0) == 0.0
    assert entropy(0, 5) == 0.0
    assert entropy(3, 1) == pytest.approx(0.8112781244591328, abs=1e-15)


def test_entropy_rejects_empty_or_negative():
    with pytest.raises(ValueError):
        entropy(0, 0)
    with pytest.raises(ValueError):
        entropy(-1, 2)


@given(st.integers(0, 500), st.integers(0, 500))
def test_entropy_symmetric_and_bounded(c, i):
    if c + i == 0:
        return
    assert entropy(c, i) == entropy(i, c)
    assert 0.0 <= entropy(c, i) <= 1.0
    if c == i:
        assert entropy(c, i) == 1.0
    if c == 0 or i == 0:
        assert entropy(c, i) == 0.0


# --- split evaluation --------------------------------------------------------

FOUR = [
    sample("papillary muscles", C),
    sample("subvalvular apparatus", C),
    sample("atrial wall", I),
    sample("valve", I),
]


def test_evaluate_split_hand_computed():
    # "papillary" splits off one correct answer (entropy 0) from three with
    # one correct (entropy 0.918...), a split entropy of 3/4 * 0.918...
    assert evaluate_split(FOUR, "papillary", 1.0) == pytest.approx(0.311278124459133)


def test_evaluate_split_vacuous_word_gains_nothing():
    assert evaluate_split(FOUR, "ventricle", 1.0) == 0.0


def test_evaluate_split_perfect_separator_gains_everything():
    samples = [sample("alpha x", C), sample("alpha y", C), sample("z", I), sample("w", I)]
    assert evaluate_split(samples, "alpha", 1.0) == pytest.approx(1.0)


def test_select_best_rule_breaks_ties_lexicographically():
    words = frozenset().union(*(s.features for s in FOUR))
    choice = select_best_rule(FOUR, words, 1.0)
    assert choice is not None
    word, gain = choice
    assert word == "apparatus"
    assert gain == pytest.approx(0.311278124459133)


def test_select_best_rule_none_when_pure_or_no_candidates():
    pure = [sample("alpha", C), sample("beta", C)]
    assert select_best_rule(pure, frozenset({"alpha", "beta"}), 0.0) is None
    assert select_best_rule(FOUR, frozenset(), 1.0) is None


def test_select_best_rule_min_gain_threshold():
    words = frozenset().union(*(s.features for s in FOUR))
    assert select_best_rule(FOUR, words, 1.0, min_gain=0.5) is None


# "the wall" and "wall" preprocess to the same word set with opposite labels:
# under a negative threshold a vacuous split (gain exactly 0) used to win and
# grow a child with no samples.
WALL = [sample("wall", C), sample("wall", I), sample("papillary", C)]


def test_select_best_rule_never_returns_a_vacuous_split():
    wall_pair = WALL[:2]
    assert select_best_rule(wall_pair, frozenset({"wall"}), 1.0, min_gain=-1.0) is None
    assert select_best_rule(FOUR, frozenset({"ventricle"}), 1.0, min_gain=-1.0) is None
    words = frozenset({"papillary", "wall"})
    word, gain = select_best_rule(WALL, words, entropy(2, 1), min_gain=-1.0)
    assert word == "papillary"
    # One pure sample against a one-one pair, not the vacuous gain of 0.0.
    assert gain == pytest.approx(entropy(2, 1) - 2 / 3)


def test_build_tree_negative_min_gain_grows_no_empty_child():
    data = dataset([("the wall", C), ("wall", I), ("papillary", C)])
    root = _root(build_tree(data, min_gain=-1))
    assert root["word"] == "papillary"
    assert root["true"]["size"] == 1
    assert "word" not in root["false"]
    assert root["false"]["size"] == 2


# Exhaustive brute-force oracle: recompute every candidate's gain from first
# principles and apply the same tie-break rule.
def _oracle_entropy(labels):
    n = len(labels)
    result = 0.0
    for cls in (C, I):
        k = sum(1 for l in labels if l is cls)
        if k:
            result -= (k / n) * math.log2(k / n)
    return result


def _oracle_best(samples, candidates):
    current = _oracle_entropy([s.label for s in samples])
    best_word, best_gain = None, None
    for word in sorted(candidates):
        t = [s.label for s in samples if word in s.features]
        f = [s.label for s in samples if word not in s.features]
        weighted = 0.0
        if t:
            weighted += len(t) * _oracle_entropy(t)
        if f:
            weighted += len(f) * _oracle_entropy(f)
        gain = current - weighted / len(samples)
        if best_gain is None or gain > best_gain:
            best_word, best_gain = word, gain
    if best_gain is None or best_gain <= 1e-12:
        return None
    return best_word, best_gain


def test_select_best_rule_matches_brute_force_oracle():
    rng = random.Random(20260823)
    pool = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    for _ in range(1500):
        n = rng.randint(1, 12)
        samples = [
            Sample(
                features=frozenset(w for w in pool if rng.random() < 0.4),
                raw_text=str(i),
                label=C if rng.random() < 0.5 else I,
            )
            for i in range(n)
        ]
        candidates = frozenset().union(*(s.features for s in samples))
        current = entropy(
            sum(1 for s in samples if s.label is C),
            sum(1 for s in samples if s.label is I),
        )
        got = select_best_rule(samples, candidates, current)
        want = _oracle_best(samples, candidates)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], abs=1e-12)


# --- training ----------------------------------------------------------------


def test_build_tree_pure_dataset_is_a_single_leaf():
    root = _root(build_tree(dataset([("alpha", C), ("beta", C)])))
    assert root == {"label": "correct", "count": 2, "size": 2}


def test_build_tree_two_sample_split_prefers_lexicographic_word():
    root = _root(build_tree(dataset([("alpha", C), ("beta", I)])))
    assert root["word"] == "alpha"
    assert root["true"] == {"label": "correct", "count": 1, "size": 1}
    assert root["false"] == {"label": "incorrect", "count": 1, "size": 1}


REFERENCE_CORPUS = [
    ("papillary muscles", C),
    ("the papillary muscles", C),
    ("right papillary muscles", C),
    ("left papillary muscles", C),
    ("anterior papillary muscles", C),
    ("posterior papillary muscles", C),
    ("papillary muscles of ventricle", C),
    ("papillary muscles contract", C),
    ("subvalvular apparatus", C),
    ("cardiac muscles", I),
    ("muscles", I),
    ("atrial papillary muscles", I),
    ("papillary wall", I),
    ("papillary fold", I),
    ("subvalvular region", I),
    ("valve apparatus", I),
    ("mitral apparatus", I),
    ("chordae tendineae", I),
]


def test_build_tree_reference_corpus_shape():
    # Correct answers are papillary-muscles variants plus "subvalvular
    # apparatus"; the trained tree should test muscles, then papillary on the
    # containing branch, and subvalvular then apparatus on the other.
    root = _root(build_tree(dataset(REFERENCE_CORPUS)))
    assert root["word"] == "muscles"
    assert root["true"]["word"] == "papillary"
    assert root["false"]["word"] == "subvalvular"
    assert root["false"]["true"]["word"] == "apparatus"


def test_build_tree_resubstitution_on_reference_corpus():
    data = dataset(REFERENCE_CORPUS)
    tree = build_tree(data)
    assert all(classify(tree, s.features).label is s.label for s in data.samples)


def test_build_tree_tie_node_is_incorrect():
    data = dataset([("alpha shared", C), ("beta shared", I)])
    root = _root(build_tree(data))
    assert (root["label"], root["count"], root["size"]) == ("incorrect", 1, 2)


def test_build_tree_min_gain_prunes():
    tree = build_tree(dataset(REFERENCE_CORPUS), min_gain=2.0)
    assert "word" not in _root(tree)


def test_build_tree_is_deterministic():
    first = build_tree(dataset(REFERENCE_CORPUS))
    second = build_tree(dataset(list(reversed(REFERENCE_CORPUS))))
    assert serialize_tree(first) == serialize_tree(second)


def _random_conflict_free_dataset(rng, pool):
    feature_sets = set()
    while len(feature_sets) < rng.randint(2, 10):
        fs = frozenset(w for w in pool if rng.random() < 0.5)
        if fs:
            feature_sets.add(fs)
    pairs = [
        (" ".join(sorted(fs)), C if rng.random() < 0.5 else I) for fs in feature_sets
    ]
    return dataset(pairs)


def _leaves_pure(node):
    if "word" not in node:
        return node["count"] == node["size"]
    return _leaves_pure(node["true"]) and _leaves_pure(node["false"])


def test_resubstitution_is_perfect_whenever_training_reaches_purity():
    rng = random.Random(7)
    pool = ["alpha", "beta", "gamma", "delta", "eps"]
    pure_cases = 0
    for _ in range(300):
        data = _random_conflict_free_dataset(rng, pool)
        tree = build_tree(data)
        if _leaves_pure(_root(tree)):
            pure_cases += 1
            assert all(
                classify(tree, s.features).label is s.label for s in data.samples
            )
    assert pure_cases > 100


def test_disjoint_class_vocabularies_always_reach_purity():
    rng = random.Random(11)
    for _ in range(50):
        pairs = {}
        for i in range(rng.randint(2, 8)):
            pairs[f"good{i} fine{rng.randint(0, 3)}"] = C
        for i in range(rng.randint(2, 8)):
            pairs[f"bad{i} poor{rng.randint(0, 3)}"] = I
        data = dataset(list(pairs.items()))
        tree = build_tree(data)
        assert _leaves_pure(_root(tree))
        assert all(classify(tree, s.features).label is s.label for s in data.samples)


# --- split search pinned to the per-candidate grower ----------------------
# The grower as it was before split search counted words in one pass: every
# candidate is scored by evaluate_split, which partitions the samples itself,
# and each node partitions into tuples. It grows nested v1 nodes, which load
# through deserialize_tree. build_tree must match it byte for byte.


def _reference_grow(samples, path_words, min_gain):
    correct = sum(1 for s in samples if s.label is C)
    incorrect = len(samples) - correct
    if correct != incorrect:
        label, count = (C, correct) if correct > incorrect else (I, incorrect)
    else:
        label, count = I, correct
    leaf = {"label": label.value, "count": count, "size": len(samples)}
    if correct == 0 or incorrect == 0:
        return leaf
    current = entropy(correct, incorrect)
    candidates = frozenset().union(*(s.features for s in samples)) - path_words
    best = None  # (gain, word)
    for word in sorted(candidates):
        gain = evaluate_split(samples, word, current)
        if best is None or gain > best[0]:
            best = (gain, word)
    if best is None or best[0] <= min_gain + GAIN_TOLERANCE:
        return leaf
    word = best[1]
    true_side = tuple(s for s in samples if word in s.features)
    false_side = tuple(s for s in samples if word not in s.features)
    deeper = path_words | {word}
    return {
        "word": word,
        **leaf,
        "true": _reference_grow(true_side, deeper, min_gain),
        "false": _reference_grow(false_side, deeper, min_gain),
    }


def _reference_tree(question_id, samples, min_gain):
    document = {
        "question_id": question_id,
        "config": {"min_gain": min_gain, "leaf_tie_label": "incorrect"},
        "root": _reference_grow(samples, frozenset(), min_gain),
    }
    return deserialize_tree(json.dumps(document))


def _reference_tree_text(data, min_gain):
    return serialize_tree(_reference_tree(data.question_id, data.samples, min_gain))


def _root_has_gain_tie(samples):
    correct = sum(1 for s in samples if s.label is C)
    if correct in (0, len(samples)):
        return False
    current = entropy(correct, len(samples) - correct)
    words = sorted(frozenset().union(*(s.features for s in samples)))
    gains = [evaluate_split(samples, w, current) for w in words]
    top = max(gains, default=0.0)
    return top > GAIN_TOLERANCE and gains.count(top) > 1


POOL = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta"]


def _random_case(rng, case, max_samples=40):
    """A seeded corpus with few distinct word sets, so the same set recurs
    with both labels; "twin" always comes with "alpha", so the two tie
    exactly. Returns the dataset and a random min_gain."""
    shapes = [
        frozenset(w for w in POOL if rng.random() < 0.35)
        for _ in range(rng.randint(2, 8))
    ]
    samples = []
    for i in range(rng.randint(2, max_samples)):
        features = rng.choice(shapes)
        if "alpha" in features:
            features |= {"twin"}
        label = C if rng.random() < 0.5 else I
        samples.append(Sample(features, f"{case}-{i}", label))
    data = QuestionDataset(question_id=f"q{case}", samples=tuple(samples))
    return data, rng.choice([0.0, 0.0, 0.05, 0.2])


def test_build_tree_matches_per_candidate_reference_grower():
    rng = random.Random(20261018)
    repeated_with_both_labels = ties = thresholded = 0
    for case in range(400):
        data, min_gain = _random_case(rng, case)
        samples = data.samples
        want = _reference_tree_text(data, min_gain)
        assert serialize_tree(build_tree(data, min_gain)) == want
        labels_by_set = {}
        for s in samples:
            labels_by_set.setdefault(s.features, set()).add(s.label)
        repeated_with_both_labels += any(len(v) == 2 for v in labels_by_set.values())
        ties += _root_has_gain_tie(samples)
        thresholded += min_gain > 0
    assert repeated_with_both_labels > 100
    assert ties > 100
    assert thresholded > 100


def _leaf_training_data(tree):
    """One sample per training answer a tree's leaf counts record: the path's
    true-branch words as features, count answers with the leaf's label and
    the rest with the other."""
    samples = []
    stack = [(_root(tree), frozenset())]
    while stack:
        node, words = stack.pop()
        if "word" in node:
            stack.append((node["true"], words | {node["word"]}))
            stack.append((node["false"], words))
            continue
        leaf_label = Label(node["label"])
        other = I if leaf_label is C else C
        for i in range(node["size"]):
            label = leaf_label if i < node["count"] else other
            samples.append(Sample(words, f"{len(samples)}", label))
    return QuestionDataset(question_id=tree.question_id, samples=tuple(samples))


def test_example_tree_training_data_grades_the_worked_examples_unchanged(example_tree):
    data = _leaf_training_data(example_tree)
    tree = build_tree(data)
    assert serialize_tree(tree) == _reference_tree_text(data, 0.0)
    for words in (
        {"papillary", "muscles"},
        {"atrial", "papillary", "muscles"},
        {"subvalvular", "apparatus"},
    ):
        want = classify(example_tree, frozenset(words))
        got = classify(tree, frozenset(words))
        assert (got.label, got.certainty) == (want.label, want.certainty), words


# --- the mask grower -----------------------------------------------------------


def test_select_best_rule_scores_a_grower_node_like_its_samples():
    rng = random.Random(20261019)
    kept = dropped = 0
    for case in range(500):
        data, _ = _random_case(rng, case)
        root = data.index
        # A random subset of the samples, as a grower node and as a sequence.
        mask = rng.getrandbits(len(data.samples)) or root.all
        subset = [s for i, s in enumerate(data.samples) if mask >> i & 1]
        correct = sum(1 for s in subset if s.label is C)
        current = entropy(correct, len(subset) - correct)
        candidates = frozenset(POOL + ["twin", "absent"])
        min_gain = rng.choice([0.0, 0.05, -1.0])
        node = _Node(mask, root.word_masks, root.correct, [])
        want = select_best_rule(subset, candidates, current, min_gain)
        assert select_best_rule(node, sorted(candidates), current, min_gain) == want
        # The node keeps, in order, exactly the candidates that split it.
        live = [
            w for w in sorted(candidates)
            if 0 < sum(w in s.features for s in subset) < len(subset)
        ]
        assert node.live == live
        kept += len(live)
        dropped += len(candidates) - len(live)
    assert kept > 1000 and dropped > 1000


def test_select_best_rule_gain_equals_evaluate_split_of_its_word_bit_for_bit():
    # select_best_rule counts a word's samples from masks, evaluate_split from
    # the samples themselves; both must hand _gain the same counts.
    rng = random.Random(20261021)
    chosen = 0
    for case in range(300):
        data, min_gain = _random_case(rng, case)
        samples = list(data.samples)
        correct = sum(1 for s in samples if s.label is C)
        current = entropy(correct, len(samples) - correct)
        choice = select_best_rule(samples, frozenset(POOL + ["twin"]), current, min_gain)
        if choice is None:
            continue
        word, gain = choice
        assert gain.hex() == evaluate_split(samples, word, current).hex()
        chosen += 1
    assert chosen > 100


def test_grower_calls_select_best_rule_once_per_impure_node(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return select_best_rule(*args, **kwargs)

    monkeypatch.setattr(dtree, "select_best_rule", counting)
    rng = random.Random(20261020)
    cases = [(dataset(REFERENCE_CORPUS), 0.0)]
    cases += [_random_case(rng, case) for case in range(200)]
    for data, min_gain in cases:
        calls.clear()
        tree = build_tree(data, min_gain)
        impure = 0
        stack = [_root(tree)]
        while stack:
            node = stack.pop()
            impure += node["count"] < node["size"]
            if "word" in node:
                stack += [node["true"], node["false"]]
        assert len(calls) == impure


def test_build_tree_with_samples_held_out_equals_a_tree_of_the_rest():
    rng = random.Random(20261022)
    grown = empty = 0
    for case in range(400):
        data, min_gain = _random_case(rng, case)
        held_out = rng.getrandbits(len(data.samples))
        rest = tuple(s for i, s in enumerate(data.samples) if not held_out >> i & 1)
        if not rest:
            with pytest.raises(ValueError, match="empty dataset"):
                build_tree(data, min_gain, held_out=held_out)
            empty += 1
            continue
        want = build_tree(QuestionDataset(data.question_id, rest), min_gain)
        got = build_tree(data, min_gain, held_out=held_out)
        assert got == want  # every array: words, children, labels, counts, sizes
        grown += len(got.words) > 1
    assert grown > 100 and empty > 0


def _reference_cross_validate(data, min_gain, k, assignments):
    per_fold = []
    for fold in range(k):
        pairs = list(zip(data.samples, assignments))
        train = tuple(s for s, f in pairs if f != fold)
        test = [s for s, f in pairs if f == fold]
        tree = _reference_tree(data.question_id, train, min_gain)
        hits = sum(1 for s in test if classify(tree, s.features).label is s.label)
        per_fold.append((hits, len(test)))
    return tuple(per_fold)


def test_cross_validate_matches_a_cv_on_the_reference_grower():
    rng = random.Random(20261021)
    for case in range(150):
        data, min_gain = _random_case(rng, case, max_samples=80)
        k = rng.randint(2, min(10, len(data.samples)))
        assignments = make_stratified_folds([s.label for s in data.samples], k, seed=case)
        want = _reference_cross_validate(data, min_gain, k, assignments)
        assert cross_validate(data, min_gain, k, seed=case).per_fold == want


def test_cached_entropy_equals_the_uncached_function_bit_for_bit():
    for total in range(1, 41):
        for correct in range(total + 1):
            want = entropy.__wrapped__(correct, total - correct)
            assert entropy(correct, total - correct).hex() == want.hex()


def _first_principles_entropy(correct, total):
    """Entropy in bits of ``correct`` of ``total`` samples, from the
    definition: minus the sum of p*log2(p) over the nonzero class shares."""
    return -sum(p * math.log2(p) for p in (correct / total, 1 - correct / total) if p)


def test_gain_equals_the_first_principles_gain_on_every_count():
    checked = 0
    for total in range(1, 41):
        for correct in range(total + 1):
            current = entropy(correct, total - correct)
            for true_size in range(total + 1):
                false_size = total - true_size
                low = max(0, correct - false_size)
                for true_correct in range(low, min(true_size, correct) + 1):
                    counts = (true_correct, true_size, correct, total)
                    got = _gain(*counts, current)
                    checked += 1
                    if not true_size or not false_size:
                        assert got.hex() == (0.0).hex(), counts  # a vacuous split
                        continue
                    true_part = true_size * _first_principles_entropy(true_correct, true_size)
                    false_part = false_size * _first_principles_entropy(
                        correct - true_correct, false_size
                    )
                    want = _first_principles_entropy(correct, total) - (
                        true_part + false_part
                    ) / total
                    assert abs(got - want) <= 1e-12, counts
    assert checked > 100_000


# --- classification and explanation -----------------------------------------


@pytest.fixture(scope="module")
def example_tree(example_tree_path):
    return deserialize_tree(example_tree_path.read_text(encoding="utf-8"))


def test_classify_worked_example_one(example_tree):
    result = classify(example_tree, frozenset({"papillary", "muscles"}))
    assert result.label is C
    assert result.certainty == pytest.approx(0.97)
    assert [(s.word, s.branch) for s in result.trace] == [
        ("muscles", True),
        ("papillary", True),
    ]
    assert result.critical_word == "papillary"
    assert not result.out_of_vocabulary


def test_classify_worked_example_two(example_tree):
    result = classify(example_tree, frozenset({"atrial", "papillary", "muscles"}))
    assert result.label is I
    assert result.certainty == 1.0
    assert [(s.word, s.branch) for s in result.trace] == [
        ("muscles", True),
        ("papillary", True),
        ("atrial", True),
    ]


def test_classify_worked_example_three(example_tree):
    result = classify(example_tree, frozenset({"subvalvular", "apparatus"}))
    assert result.label is C
    assert result.certainty == 1.0
    assert [(s.word, s.branch) for s in result.trace] == [
        ("muscles", False),
        ("subvalvular", True),
        ("apparatus", True),
    ]


def test_classify_out_of_vocabulary(example_tree):
    result = classify(example_tree, frozenset({"ventricle", "septum"}))
    assert result.out_of_vocabulary
    assert result.trace == ()
    assert result.critical_word is None
    assert result.label is I  # every test fails, so the all-false leaf decides


def test_classify_never_tests_the_same_word_twice(example_tree):
    rng = random.Random(3)
    vocab = list(example_tree.vocabulary) + ["other"]
    for _ in range(100):
        features = frozenset(w for w in vocab if rng.random() < 0.5)
        trace = classify(example_tree, features).trace
        tested = [s.word for s in trace]
        assert len(tested) == len(set(tested))


def test_vocabulary_is_kept_out_of_equality_and_hashing(example_tree_path):
    # The vocabulary is built once, when classify first needs it.
    text = example_tree_path.read_text(encoding="utf-8")
    used, fresh = deserialize_tree(text), deserialize_tree(text)
    first = classify(used, frozenset({"papillary", "muscles"}))
    assert used.vocabulary is used.vocabulary
    assert "vocabulary" in vars(used) and "vocabulary" not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    # Reusing the vocabulary and the leaf results changes no result.
    assert classify(used, frozenset({"papillary", "muscles"})) == first
    assert classify(fresh, frozenset({"papillary", "muscles"})) == first


def test_explain_renders_the_step_list(example_tree):
    result = classify(example_tree, frozenset({"papillary", "muscles"}))
    rendered = explain(result)
    assert rendered.splitlines() == [
        'First node "muscles" returns TRUE',
        'Second node "papillary" returns TRUE',
        "answer is correct (97% significance)",
        'critical decision point: "papillary"',
    ]


def _reference_ordinal(position):
    """English ordinals by the rule as written: a number ending in 11, 12
    or 13 takes "th"; otherwise one ending in 1, 2 or 3 takes "st", "nd"
    or "rd", and any other takes "th"."""
    text = str(position)
    if text[-2:] in ("11", "12", "13"):
        return text + "th"
    return text + {"1": "st", "2": "nd", "3": "rd"}.get(text[-1], "th")


def test_explain_numbers_steps_past_the_tenth_in_english():
    words = "First Second Third Fourth Fifth Sixth Seventh Eighth Ninth Tenth".split()
    want = words + [_reference_ordinal(p) for p in range(11, 201)]
    assert [dtree._ordinal(p) for p in range(1, 201)] == want
    assert want[20:23] + want[100:101] == ["21st", "22nd", "23rd", "101st"]
    assert want[110:113] == ["111th", "112th", "113th"]


def test_explain_single_leaf_tree():
    tree = build_tree(dataset([("alpha", C), ("beta", C)]))
    result = classify(tree, frozenset({"alpha"}))
    assert result.trace == ()
    assert result.critical_word is None
    assert explain(result).splitlines() == [
        "answer is correct (100% significance)",
        "critical decision point: terminal node",
    ]


# --- compiled classification pinned to the nested-node walk ---------------
# classify as it was before trees were compiled into flat arrays: it walks the
# nested nodes, building one TraceStep per visited node. The compiled walk
# must return an equal Classification for every tree and answer.


def _reference_vocabulary(root):
    words, stack = set(), [root]
    while stack:
        node = stack.pop()
        if "word" in node:
            words.add(node["word"])
            stack += [node["true"], node["false"]]
    return words


def _reference_classify(tree, features):
    visited = []
    root = node = _root(tree)
    while "word" in node:
        branch = node["word"] in features
        visited.append(
            TraceStep(
                word=node["word"],
                branch=branch,
                label=Label(node["label"]),
                probability=node["count"] / node["size"],
            )
        )
        node = node["true"] if branch else node["false"]
    end = len(visited)
    while end > 0 and not visited[end - 1].branch:
        end -= 1
    trace = tuple(visited[:end])
    critical = None
    for step in trace:
        if critical is None or step.probability > critical.probability:
            critical = step
    return Classification(
        label=Label(node["label"]),
        certainty=node["count"] / node["size"],
        trace=trace,
        critical_word=critical.word if critical is not None else None,
        out_of_vocabulary=_reference_vocabulary(root).isdisjoint(features),
    )


def _chain_tree(depth):
    """A chain laid out as preorder arrays, since json cannot nest it this
    deep: node i tests "w<i>"; the deeper subtree hangs off the true branch at
    even i and off the false branch at odd i, and the other branch is a leaf.
    An even node's leaf follows everything below it, so those leaves come
    last, deepest first."""
    rows, held = [], []  # rows: [word, true child, false child, label, count, size]
    for i in range(depth):
        index = len(rows)
        rows.append([f"w{i}", index + 1, -1, C, i % 7 + 1, 7])
        leaf = [None, -1, -1, C if i % 2 else I, i % 5 + 1, 5]
        if i % 2:
            rows.append(leaf)
            rows[index][2] = index + 2
        else:
            held.append((index, leaf))
    rows.append([None, -1, -1, I, 2, 3])
    for index, leaf in reversed(held):
        rows[index][2] = len(rows)
        rows.append(leaf)
    return DecisionTree("chain", *map(tuple, zip(*rows)))


def _depth(root):
    deepest, stack = 0, [(root, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if "word" in node:
            stack += [(node["true"], depth + 1), (node["false"], depth + 1)]
    return deepest


def _feature_sets(rng, vocabulary, count):
    """Random answers over a tree's words plus words it never tests,
    always including the empty answer and an out-of-vocabulary one."""
    pool = sorted(vocabulary) + ["outside", "novel"]
    yield frozenset()
    yield frozenset({"outside", "novel"})
    for _ in range(count):
        share = rng.random()
        yield frozenset(w for w in pool if rng.random() < share)


def test_classify_matches_the_nested_node_walk(example_tree):
    rng = random.Random(20261018)
    pool = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta"]
    trees = [example_tree, build_tree(dataset([("alpha", C), ("beta", C)]))]
    for _ in range(60):
        trees.append(build_tree(_random_conflict_free_dataset(rng, pool)))
        samples = tuple(
            Sample(frozenset(w for w in pool if rng.random() < 0.4), str(i),
                   C if rng.random() < 0.5 else I)
            for i in range(rng.randint(2, 30))
        )
        trees.append(build_tree(QuestionDataset("noisy", samples)))
    assert "word" not in _root(trees[1])
    assert max(_depth(_root(t)) for t in trees) >= 4
    for tree in trees:
        words = _reference_vocabulary(_root(tree))
        assert tree.vocabulary == words
        for features in _feature_sets(rng, words, 40):
            assert classify(tree, features) == _reference_classify(tree, features)


def test_classify_walks_a_depth_3000_chain():
    tree = _chain_tree(3000)
    assert _depth(_root(tree)) == 3000
    every_even = frozenset(f"w{i}" for i in range(0, 3000, 2))
    result = classify(tree, every_even)
    # The walk reaches the bottom leaf; the last test (w2999) is false.
    assert (result.label, result.certainty) == (I, 2 / 3)
    assert len(result.trace) == 2999
    assert result == _reference_classify(tree, every_even)
    rng = random.Random(5)
    for features in _feature_sets(rng, _reference_vocabulary(_root(tree)), 20):
        assert classify(tree, features) == _reference_classify(tree, features)


def test_a_depth_5000_chain_compares_hashes_and_classifies():
    first, second = _chain_tree(5000), _chain_tree(5000)
    assert first == second and hash(first) == hash(second)
    flipped = second.labels[:-1] + (I if second.labels[-1] is C else C,)
    assert first != second._replace(labels=flipped)
    every_even = frozenset(f"w{i}" for i in range(0, 5000, 2))
    result = classify(first, every_even)
    assert (result.label, result.certainty) == (I, 2 / 3)
    assert len(result.trace) == 4999
    assert result == _reference_classify(second, every_even)


def test_classify_reuses_one_result_per_leaf(example_tree_path):
    rng = random.Random(11)
    pool = ["alpha", "beta", "gamma", "delta", "eps"]
    trees = [deserialize_tree(example_tree_path.read_text(encoding="utf-8"))]
    trees += [build_tree(_random_conflict_free_dataset(rng, pool)) for _ in range(20)]
    for tree in trees:
        for features in _feature_sets(rng, _reference_vocabulary(_root(tree)), 30):
            want = _reference_classify(tree, features)
            first = classify(tree, features)
            # The second and third calls take the result from the memo.
            assert first == classify(tree, features) == classify(tree, features) == want
            assert classify(tree, set(features)) is first


def _all_false_answers(tree):
    """An in-vocabulary and an out-of-vocabulary answer that both fail every
    test, and so reach the same leaf."""
    on_path, root = set(), _root(tree)
    node = root
    while "word" in node:
        on_path.add(node["word"])
        node = node["false"]
    off_path = sorted(_reference_vocabulary(root) - on_path)
    return frozenset(off_path[:1]), frozenset({"outside"})


@pytest.mark.parametrize("inside_first", [True, False])
def test_all_false_leaf_keeps_in_and_out_of_vocabulary_results_apart(
    example_tree_path, inside_first
):
    example = deserialize_tree(example_tree_path.read_text(encoding="utf-8"))
    for tree in (example, _chain_tree(6)):
        inside, outside = _all_false_answers(tree)
        assert inside and tree.vocabulary.isdisjoint(outside)
        for features in [inside, outside] if inside_first else [outside, inside]:
            assert classify(tree, features) == _reference_classify(tree, features)
        assert not classify(tree, inside).out_of_vocabulary
        assert classify(tree, outside).out_of_vocabulary
        assert classify(tree, inside).trace == classify(tree, outside).trace == ()
        assert len(tree._results) == 2


def test_leaf_results_are_kept_out_of_equality_hashing_and_repr(example_tree_path):
    text = example_tree_path.read_text(encoding="utf-8")
    used, fresh = deserialize_tree(text), deserialize_tree(text)
    answers = [{"muscles", "papillary"}, {"papillary"}, {"septum"}, {"subvalvular"}]
    for words in answers + [set()]:  # the empty answer shares {"septum"}'s result
        classify(used, frozenset(words))
    assert len(vars(used)["_results"]) == 4 and "_results" not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)


def test_classify_builds_only_the_reached_leafs_result_on_a_deep_chain():
    tree = _chain_tree(3000)
    every_even = frozenset(f"w{i}" for i in range(0, 3000, 2))
    assert len(classify(tree, every_even).trace) == 2999
    (result,) = tree._results.values()
    assert result == _reference_classify(tree, every_even)


def test_explain_renders_the_same_as_the_nested_node_walk(example_tree):
    rng = random.Random(8)
    for tree in (example_tree, _chain_tree(40)):
        for features in _feature_sets(rng, tree.vocabulary, 200):
            want = explain(_reference_classify(tree, features))
            assert explain(classify(tree, features)) == want


# --- serialization -----------------------------------------------------------


def test_serialize_round_trip_reference_tree(example_tree):
    text = serialize_tree(example_tree)
    assert deserialize_tree(text) == example_tree
    assert serialize_tree(deserialize_tree(text)) == text


def test_serialize_round_trip_random_trained_trees():
    rng = random.Random(99)
    pool = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    for _ in range(50):
        data = _random_conflict_free_dataset(rng, pool)
        tree = build_tree(data)
        text = serialize_tree(tree)
        assert deserialize_tree(text) == tree


# Text with what json must escape: quotes, backslashes, control characters
# and characters outside ASCII, including ones beyond the 16-bit range.
_AWKWARD_CHARS = '"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'
_AWKWARD_TEXT = st.text(st.one_of(st.sampled_from(_AWKWARD_CHARS), st.characters()), max_size=12)
_LABELS = st.sampled_from([C, I])
_LEAF_SHAPES = st.tuples(_LABELS, st.integers(0, 10**12), st.integers(1, 10**12))
_TREE_SHAPES = st.recursive(
    _LEAF_SHAPES,
    lambda children: st.tuples(
        _AWKWARD_TEXT, _LABELS, st.integers(0, 10**12), st.integers(1, 10**12),
        children, children,
    ),
    max_leaves=30,
)
_MIN_GAINS = st.one_of(
    st.sampled_from([0, 0.0, 3, 0.1, 5e-324, 1e16, 1.7976931348623157e308, 10**30]),
    st.integers(min_value=0),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
)


def _tree_from_shape(shape, question_id, min_gain, trained_at):
    """The tree whose nested shape is ``shape``: a leaf is (label, count,
    size), a test is (word, label, count, size, true shape, false shape)."""
    rows, stack = [], [(shape, -1, False)]
    while stack:
        node, parent, branch = stack.pop()
        word, (label, count, size) = (None, node) if len(node) == 3 else (node[0], node[1:4])
        index = dtree._add(rows, parent, branch, [word, -1, -1, label, count, size])
        if word is not None:
            stack += [(node[5], index, False), (node[4], index, True)]
    return DecisionTree(question_id, *map(tuple, zip(*rows)), min_gain, trained_at)


@given(_TREE_SHAPES, _AWKWARD_TEXT, _AWKWARD_TEXT, _MIN_GAINS)
def test_serialize_writes_the_bytes_of_json_dumps(shape, question_id, trained_at, min_gain):
    tree = _tree_from_shape(shape, question_id, min_gain, trained_at)
    document = {
        "question_id": question_id,
        "trained_at": trained_at,
        "config": {"min_gain": min_gain, "leaf_tie_label": "incorrect"},
        "root": _root(tree),
    }
    assert serialize_tree(tree) == json.dumps(document, indent=2) + "\n"


def test_serialize_writes_only_chains_json_can_read_back():
    # Depths from well inside json's read limit to past it, which is near the
    # recursion limit (here, not on CPython 3.12 and later, where json reads
    # deeper); a refused depth is never shallower than a written one.
    limit = sys.getrecursionlimit()
    outcomes = []
    for depth in range(limit - 300, limit + 20, 10):
        tree = _chain_tree(depth)
        try:
            text = serialize_tree(tree)
        except TreeFormatError as exc:
            assert str(exc) == "tree nested too deep"
            outcomes.append(False)
            continue
        assert deserialize_tree(text) == tree
        outcomes.append(True)
    assert outcomes == sorted(outcomes, reverse=True)
    assert outcomes[0] and not outcomes[-1]


def test_reference_tree_document_structure(example_tree, example_tree_path):
    document = json.loads(example_tree_path.read_text(encoding="utf-8"))
    internal = 0
    stack = [document["root"]]
    while stack:
        node = stack.pop()
        if "word" in node:
            internal += 1
            stack.append(node["true"])
            stack.append(node["false"])
    assert internal == 5
    assert example_tree.vocabulary == {"muscles", "papillary", "atrial", "subvalvular", "apparatus"}


def test_deserialize_rejects_one_sided_children():
    bad = json.dumps(
        {
            "question_id": "q",
            "root": {
                "word": "alpha",
                "label": "correct",
                "count": 1,
                "size": 2,
                "true": {"label": "correct", "count": 1, "size": 1},
            },
        }
    )
    with pytest.raises(TreeFormatError, match="both children"):
        deserialize_tree(bad)


LEAF = {"label": "incorrect", "count": 1, "size": 2}


@pytest.mark.parametrize(
    "node, message",
    [
        ("leaf", "node must be an object"),
        ({"count": 1, "size": 2}, "missing label"),
        ({**LEAF, "label": "meh"}, "unknown label 'meh'"),
        ({**LEAF, "count": "1"}, "count and size must be integers"),
        ({**LEAF, "count": 3}, "bad node counts 3/2"),
        ({**LEAF, "size": 0, "count": 0}, "bad node counts 0/0"),
        ({**LEAF, "true": LEAF}, "leaf node must not have children"),
        ({**LEAF, "word": 7, "true": LEAF, "false": LEAF}, "word must be a string"),
        ({**LEAF, "word": "\ud800", "true": LEAF, "false": LEAF}, "word holds a lone surrogate"),
        ({**LEAF, "word": "w", "true": LEAF}, "internal node needs both children"),
    ],
)
def test_deserialize_names_the_path_of_a_bad_node(example_tree_path, node, message):
    document = json.loads(example_tree_path.read_text(encoding="utf-8"))
    document["root"]["true"]["false"] = node
    with pytest.raises(TreeFormatError) as raised:
        deserialize_tree(json.dumps(document))
    assert str(raised.value) == f"root.true.false: {message}"


def test_deserialize_rejects_garbage():
    with pytest.raises(TreeFormatError):
        deserialize_tree("{not json")
    with pytest.raises(TreeFormatError):
        deserialize_tree('{"question_id": "q"}')
    with pytest.raises(TreeFormatError, match="label"):
        deserialize_tree('{"root": {"label": "meh", "count": 1, "size": 1}}')
    with pytest.raises(TreeFormatError, match="count"):
        deserialize_tree('{"root": {"label": "correct", "count": 2, "size": 1}}')


MISSING = object()


@pytest.mark.parametrize("tie", [MISSING, "correct", "incorrect", "maybe", ["x"]])
def test_deserialize_accepts_either_leaf_tie_label(example_tree_path, tie):
    # Trees always break ties as incorrect; a file naming either label still
    # loads, and the same tree whichever it names.
    document = json.loads(example_tree_path.read_text(encoding="utf-8"))
    if tie is MISSING:
        del document["config"]["leaf_tie_label"]
    else:
        document["config"]["leaf_tie_label"] = tie
    if tie in (MISSING, "correct", "incorrect"):
        tree = deserialize_tree(json.dumps(document))
        assert tree == deserialize_tree(example_tree_path.read_text(encoding="utf-8"))
        return
    with pytest.raises(TreeFormatError) as raised:
        deserialize_tree(json.dumps(document))
    assert str(raised.value) == f"unknown leaf_tie_label {tie!r}"


@pytest.mark.parametrize("trained_at", [None, ["x"], 7, {}])
def test_deserialize_requires_a_string_trained_at(example_tree_path, trained_at):
    document = json.loads(example_tree_path.read_text(encoding="utf-8"))
    document["trained_at"] = trained_at
    with pytest.raises(TreeFormatError) as raised:
        deserialize_tree(json.dumps(document))
    assert str(raised.value) == "trained_at must be a string"


@pytest.mark.parametrize("question_id", [MISSING, None, "", ["x"], 7])
def test_deserialize_requires_a_non_empty_string_question_id(example_tree_path, question_id):
    document = json.loads(example_tree_path.read_text(encoding="utf-8"))
    if question_id is MISSING:
        del document["question_id"]
    else:
        document["question_id"] = question_id
    with pytest.raises(TreeFormatError) as raised:
        deserialize_tree(json.dumps(document))
    assert str(raised.value) == "question_id must be a non-empty string"


@pytest.mark.parametrize("field", ["question_id", "trained_at"])
def test_deserialize_rejects_a_lone_surrogate(example_tree_path, field):
    # json.dumps writes the surrogate as a \udfff escape, which json.loads
    # reads back as a string no UTF-8 output can hold.
    document = json.loads(example_tree_path.read_text(encoding="utf-8"))
    document[field] = "Q\udfff"
    with pytest.raises(TreeFormatError) as raised:
        deserialize_tree(json.dumps(document))
    assert str(raised.value) == f"{field} holds a lone surrogate"
