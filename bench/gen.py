"""Seeded, stdlib-only generator of paper-shaped answer corpora.

Each question takes its shape from a row of ``fixtures/reference_tables.csv``:
the share of correct answers (``average_grade``) and the number of distinct
words over all answers, over correct answers and over incorrect answers
(``unique_all``, ``unique_correct``, ``unique_incorrect``). The generated
graded corpus reproduces those word counts exactly after the program's
preprocessing, so ``report.json`` can be checked against the table.

Words are pseudo-words built from syllables. A question's words fall into
three pools: words only correct answers use, words only incorrect answers
use, and words both use. Up to two shared words are the question's key
words, which most correct answers and some incorrect ones name, so trees
split on them first as in the paper's example tree. An answer then draws
further words from its label's pools, frequent words first (Zipf weights),
up to one to five words, and is rendered with stopword fillers, punctuation
and capitals that preprocessing strips again.

Ungraded batches are new answers made by the same rule, with their true
labels kept in a sidecar the program never reads. ``unique`` rows are all
distinct texts; ``repeat`` rows are drawn from a small pool of texts per
question, as when many students write the same phrase.

The same seed gives the same bytes: every random choice comes from
``random.Random`` seeded with a string, and nothing iterates a set.

Usage: python3 bench/gen.py --seed 1 --out DIR [--questions 27] [--rows 60000]
(the defaults are the benchmark's own sizes)
"""

from __future__ import annotations

import argparse
import csv
import io
import random
from dataclasses import dataclass
from pathlib import Path

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "reference_tables.csv"
# Half the reference table's questions: short enough that the measured
# command repeats several times per benchmark run, long enough that one
# seed's trees cost about what another's do.
QUESTIONS = 27
# Rows of each ungraded batch.
BATCH_ROWS = 60000
ANSWERS_PER_QUESTION = 200
# Graded files repeat some answers verbatim and hold a few blank rows, as
# real exports do; ingest must collapse and drop them.
DUPLICATE_ROWS_PER_QUESTION = 40
BLANK_ROWS_PER_QUESTION = 2
LENGTH_WEIGHTS = (0.25, 0.35, 0.25, 0.10, 0.05)  # P(1 word) .. P(5 words)
ZIPF_EXPONENT = 1.1
# Share of answers that name each of the question's two key words, by label:
# most correct answers name the key concept, some incorrect ones do too.
KEY_WORD_SHARE = {True: (0.95, 0.7), False: (0.12, 0.05)}
# Ungraded answers sometimes carry a word no graded answer uses.
TAIL_WORD_SHARE = 0.5
UNGRADED_BLANK_SHARE = 0.005
# grade-repeat: distinct texts per question as a share of its rows.
REPEAT_POOL_SHARE = 0.03

# Fillers must all be in the program's default stopword list, so rendering
# never adds a feature.
FILLERS = ("the", "of", "a", "in", "to", "is", "and", "by", "with", "on")
SEPARATORS = (" ", " ", " ", ", ", " - ", "/")
# The program's default stopword list. A generated word must not be one, or
# preprocessing would drop it and the word counts would miss the table.
STOPWORDS = frozenset(
    """
    a an and are as at be but by did for had has have i in is it of on or
    so than that the then they this to was with
    """.split()
)
_ONSETS = "b c d f g h k l m n p r s t v z br cl dr gl pl pr st tr".split()
_VOWELS = "a e i o u ai ea io ou".split()
SYLLABLES = tuple(o + v for o in _ONSETS for v in _VOWELS)


@dataclass(frozen=True)
class Shape:
    question_id: str
    average_grade: float
    unique_all: int
    unique_correct: int
    unique_incorrect: int

    @property
    def shared(self) -> int:
        return self.unique_correct + self.unique_incorrect - self.unique_all


def read_shapes(path: Path) -> list[Shape]:
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    shapes = [
        Shape(
            question_id=row["question_id"],
            average_grade=float(row["average_grade"]),
            unique_all=int(row["unique_all"]),
            unique_correct=int(row["unique_correct"]),
            unique_incorrect=int(row["unique_incorrect"]),
        )
        for row in rows
    ]
    for shape in shapes:
        if shape.shared < 0 or shape.shared > min(
            shape.unique_correct, shape.unique_incorrect
        ):
            raise ValueError(f"{shape.question_id}: word counts do not fit three pools")
    return shapes


def pick_questions(shapes: list[Shape], count: int) -> list[Shape]:
    """``count`` questions at evenly spaced ranks of vocabulary size.

    Split-search cost grows with vocabulary, so a subset taken this way
    keeps the table's spread of cheap and expensive questions. The result
    keeps table order.
    """
    if not 1 <= count <= len(shapes):
        raise ValueError(f"question count {count} outside 1..{len(shapes)}")
    ranked = sorted(range(len(shapes)), key=lambda i: (shapes[i].unique_all, i))
    step = len(shapes) / count
    chosen = {ranked[int((n + 0.5) * step)] for n in range(count)}
    return [shapes[i] for i in sorted(chosen)]


def _zipf_weights(size: int) -> list[float]:
    return [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(size)]


class QuestionModel:
    """Word pools and the answer-drawing rule for one question."""

    def __init__(self, shape: Shape, rng: random.Random):
        self.shape = shape
        words = self._fresh_words(rng, shape.unique_all)
        shared = words[: shape.shared]
        correct_only = words[shape.shared : shape.unique_correct]
        incorrect_only = words[shape.unique_correct :]
        self.keys = shared[:2]
        self.pools = {
            True: correct_only + shared,
            False: incorrect_only + shared,
        }
        for pool in self.pools.values():
            rng.shuffle(pool)  # the shuffle decides which words are frequent
        self.weights = {label: _zipf_weights(len(p)) for label, p in self.pools.items()}

    @staticmethod
    def _fresh_words(rng: random.Random, count: int) -> list[str]:
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < count:
            word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 3)))
            if word not in seen and word not in STOPWORDS:
                seen.add(word)
                words.append(word)
        return words

    def draw_words(
        self, correct: bool, rng: random.Random, start=(), length=None, keys=None
    ) -> list[str]:
        """Words for one answer: ``start``, key words, then Zipf draws.

        ``length`` (total words) and ``keys`` (one flag per key word) are
        drawn at random unless given.
        """
        pool, weights = self.pools[correct], self.weights[correct]
        if length is None:
            length = rng.choices(range(1, 6), LENGTH_WEIGHTS)[0]
        if keys is None:
            keys = [rng.random() < share for share in KEY_WORD_SHARE[correct]]
        chosen = list(start)
        for key, wanted in zip(self.keys, keys):
            if wanted and key not in chosen:
                chosen.append(key)
        for _ in range(4 * length):
            if len(chosen) >= min(length, len(pool)):
                break
            word = rng.choices(pool, weights)[0]
            if word not in chosen:
                chosen.append(word)
        return chosen

    def tail_word(self, rng: random.Random) -> str:
        """A word outside the question's vocabulary (pool words never end in x)."""
        return self._fresh_words(rng, 1)[0] + "x"


def render(words: list[str], rng: random.Random) -> str:
    """Turn content words into answer text with fillers, punctuation and case."""
    words = list(words)
    rng.shuffle(words)
    parts: list[str] = []
    for word in words:
        if rng.random() < 0.3:
            parts.append(rng.choice(FILLERS))
        parts.append(word.upper() if rng.random() < 0.03 else word)
    text = parts[0]
    for part in parts[1:]:
        text += (rng.choice(SEPARATORS) if rng.random() < 0.25 else " ") + part
    if rng.random() < 0.3:
        text = text[0].upper() + text[1:]
    if rng.random() < 0.15:
        text += "."
    return text


def _quota(count: int, shares, rng: random.Random) -> list:
    """``count`` values, each ``i`` for a ``shares[i]`` share of them, shuffled.

    Exact quotas instead of independent draws keep a question's tree, and so
    the work it costs, close to the same from seed to seed.
    """
    values = []
    for value, share in enumerate(shares):
        values += [value] * round(share * count)
    values = (values + [len(shares) - 1] * count)[:count]
    rng.shuffle(values)
    return values


def _graded_answers(model: QuestionModel, rng: random.Random) -> list[tuple[str, bool]]:
    """``ANSWERS_PER_QUESTION`` distinct texts that use every pool word."""
    n_correct = round(model.shape.average_grade * ANSWERS_PER_QUESTION)
    counts = {True: n_correct, False: ANSWERS_PER_QUESTION - n_correct}
    used: set[str] = set()
    answers: list[tuple[str, bool]] = []
    for correct in (True, False):
        count = counts[correct]
        # Deal every pool word to some answer first, so the corpus's
        # vocabulary matches the table, then top answers up by Zipf draws.
        dealt: list[list[str]] = [[] for _ in range(count)]
        order = list(model.pools[correct])
        rng.shuffle(order)
        for position, word in enumerate(order):
            dealt[position % count].append(word)
        lengths = _quota(count, LENGTH_WEIGHTS, rng)
        keys = [
            [flag == 0 for flag in _quota(count, (share, 1 - share), rng)]
            for share in KEY_WORD_SHARE[correct]
        ]
        for n, start in enumerate(dealt):
            words = model.draw_words(correct, rng, start, lengths[n] + 1, [k[n] for k in keys])
            for attempt in range(1000):
                text = render(words, rng)
                if text not in used:
                    break
                if attempt % 20 == 19:  # this word set is worn out: add a word
                    words = model.draw_words(correct, rng, words, len(words) + 1, ())
            else:
                raise RuntimeError(f"{model.shape.question_id}: no new answer text")
            used.add(text)
            answers.append((text, correct))
    rng.shuffle(answers)
    return answers


def graded_corpus(shapes: list[Shape], seed: int) -> tuple[str, dict[str, QuestionModel]]:
    """The graded CSV and the per-question models that made it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["question_id", "answer", "label"])
    models = {}
    for shape in shapes:
        rng = random.Random(f"{seed}:{shape.question_id}:graded")
        model = QuestionModel(shape, rng)
        models[shape.question_id] = model
        answers = _graded_answers(model, rng)
        rows = answers + rng.choices(answers, k=DUPLICATE_ROWS_PER_QUESTION)
        rows += [("", False)] * BLANK_ROWS_PER_QUESTION
        rng.shuffle(rows)
        for text, correct in rows:
            writer.writerow([shape.question_id, text, _label(correct)])
    return out.getvalue(), models


def _label(correct: bool) -> str:
    return "correct" if correct else "incorrect"


def _new_answer(model: QuestionModel, rng: random.Random) -> tuple[str, bool]:
    if rng.random() < UNGRADED_BLANK_SHARE:
        return "", False  # the program grades a blank as incorrect
    correct = rng.random() < model.shape.average_grade
    words = model.draw_words(correct, rng)
    if rng.random() < TAIL_WORD_SHARE:
        words.append(model.tail_word(rng))
    return render(words, rng), correct


def ungraded_batch(
    models: dict[str, QuestionModel], rows: int, seed: int, mode: str
) -> tuple[str, str]:
    """An ungraded CSV of ``rows`` rows and its sidecar of true labels.

    ``mode`` is ``"unique"`` (every non-blank text distinct) or ``"repeat"``
    (texts drawn from a pool of ``REPEAT_POOL_SHARE`` of each question's rows).
    """
    if mode not in ("unique", "repeat"):
        raise ValueError(f"unknown batch mode {mode!r}")
    ids = list(models)
    rng = random.Random(f"{seed}:batch:{mode}")
    per_question = {qid: 0 for qid in ids}
    order = [rng.choice(ids) for _ in range(rows)]
    for qid in order:
        per_question[qid] += 1
    sources = {}
    for qid in ids:
        q_rng = random.Random(f"{seed}:{qid}:{mode}")
        model = models[qid]
        if mode == "unique":
            sources[qid] = _unique_source(model, q_rng)
        else:
            size = max(1, round(per_question[qid] * REPEAT_POOL_SHARE))
            sources[qid] = _repeat_source(model, q_rng, size)
    batch = io.StringIO()
    truth = io.StringIO()
    writer = csv.writer(batch, lineterminator="\n")
    writer.writerow(["question_id", "answer"])
    truth.write("label\n")
    for qid in order:
        text, correct = next(sources[qid])
        writer.writerow([qid, text])
        truth.write(_label(correct) + "\n")
    return batch.getvalue(), truth.getvalue()


def _unique_source(model: QuestionModel, rng: random.Random):
    seen: set[str] = set()
    while True:
        text, correct = _new_answer(model, rng)
        if text and text in seen:
            continue
        seen.add(text)
        yield text, correct


def _repeat_source(model: QuestionModel, rng: random.Random, size: int):
    pool: dict[str, bool] = {}
    while len(pool) < size:
        text, correct = _new_answer(model, rng)
        if text:
            pool.setdefault(text, correct)
    texts = list(pool)
    while True:
        text = rng.choice(texts)
        yield text, pool[text]


def write_inputs(
    fixture: Path, out: Path, seed: int, questions: int, rows: int, modes=("unique", "repeat")
) -> dict[str, Path]:
    """Write graded.csv and, per mode, ``<mode>.csv`` plus ``<mode>.truth.csv``."""
    shapes = pick_questions(read_shapes(fixture), questions)
    graded, models = graded_corpus(shapes, seed)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"graded": out / "graded.csv"}
    paths["graded"].write_text(graded, encoding="utf-8")
    for mode in modes:
        batch, truth = ungraded_batch(models, rows, seed, mode)
        paths[mode] = out / f"{mode}.csv"
        paths[f"{mode}.truth"] = out / f"{mode}.truth.csv"
        paths[mode].write_text(batch, encoding="utf-8")
        paths[f"{mode}.truth"].write_text(truth, encoding="utf-8")
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--questions", type=int, default=QUESTIONS)
    parser.add_argument("--rows", type=int, default=BATCH_ROWS)
    args = parser.parse_args(argv)
    paths = write_inputs(FIXTURE, Path(args.out), args.seed, args.questions, args.rows)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
