"""Command-line batch workflow: train, grade, evaluate, stats, explain.

Exit codes: 0 success, 1 validation/data failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import math
import os
import stat
import sys
import time
from pathlib import Path
from typing import Callable, TextIO, TypeVar

from . import corpus, dtree, evaluation, textprep

DEFAULT_CERTAINTY_THRESHOLD = 0.70

_R = TypeVar("_R")


def _stream_to(info: os.stat_result) -> TextIO | None:
    """Which of stdout and stderr writes to the file ``info`` describes;
    None if neither does."""
    for stream in (sys.stdout, sys.stderr):
        try:
            if os.path.samestat(info, os.fstat(stream.fileno())):
                return stream
        except (AttributeError, OSError, ValueError):  # no stream, or no file behind it
            pass
    return None


def _atomic_write(files: dict[Path, str]) -> None:
    """Write each text as UTF-8 to the file its path names. Every target is
    stat'ed first: one that fails, or is a directory (``IsADirectoryError``),
    leaves every file as it was. The file stdout or stderr writes to, such as
    ``/dev/stdout``, is written through that stream, after what was printed
    before; replacing it would drop that text, and send what is printed after to
    the replaced file. Any other FIFO or character device is written directly.
    Otherwise a temporary file beside the target, through any symlink, replaces
    it whole; it keeps the mode of the file it replaces, and a new file gets
    ``0o666`` less the umask, as ``open`` would give it."""
    import tempfile  # here: explain writes no file

    for path in files:
        with contextlib.suppress(FileNotFoundError):
            if stat.S_ISDIR(os.stat(path).st_mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    for path, content in files.items():
        try:
            info = os.stat(path)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        else:
            mode = info.st_mode
            stream = _stream_to(info)
            if stream is not None:
                stream.flush()
                stream.buffer.write(content.encode("utf-8"))
                stream.buffer.flush()
                continue
        if stat.S_ISFIFO(mode) or stat.S_ISCHR(mode):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
            continue
        # Follow the link chain, finite since stat found no loop; realpath would
        # also fold "..", moving the temporary file out of the named directory.
        while path.is_symlink():
            path = path.parent / os.readlink(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".answertree.")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                os.fchmod(fd, mode & 0o777)
                handle.write(content)
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise


def _load(path: Path, parse: Callable[[str], _R]) -> _R:
    """``parse`` on the text of a UTF-8 file, with or without the byte-order
    mark spreadsheet programs write. Bytes that do not decode, and a
    CorpusError or ValueError from ``parse``, raise CorpusError naming the
    file."""
    try:
        return parse(path.read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise corpus.CorpusError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    except (corpus.CorpusError, ValueError) as exc:
        raise corpus.CorpusError(f"{path}: {exc}") from None


def _load_answers(path: Path, parse: Callable[[str, str], _R]) -> _R:
    """``parse`` (``corpus.parse_answer_file`` or ``parse_ungraded_file``) on
    an answer file in its format."""
    # JSON if the file's name ends in ".json", in any case, else CSV.
    format = "json" if path.suffix.lower() == ".json" else "csv"
    return _load(path, lambda text: parse(text, format))


class UsageError(Exception):
    """An option or environment setting the command cannot use (exit 2)."""


def _trained_at() -> str:
    from datetime import datetime, timezone  # here: only train needs it

    # SOURCE_DATE_EPOCH makes training reproducible byte for byte.
    # ASCII digits, as `date +%s` prints them: int() also takes "+5", " 12 ", "1_0" and "١٢".
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        if epoch and not (epoch.isascii() and epoch.lstrip("-").isdigit()):
            raise ValueError(epoch)
        stamp = int(epoch) if epoch else int(time.time())
        return datetime.fromtimestamp(stamp, timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):
        raise UsageError(
            "SOURCE_DATE_EPOCH must be a whole number of seconds since "
            f"1970-01-01 UTC, within years 1-9999; got {epoch!r}"
        ) from None


def _per_question(
    answers: str, stopwords_path: str | None, work: Callable[..., _R]
) -> list[_R]:
    """``work`` on each question's dataset, in question order, built with the
    stopword file's list, or the default list if there is none. An error that
    is not a CorpusError is raised at once; once every question has run, one
    CorpusError reports every question that failed."""
    stopwords = textprep.DEFAULT_STOPWORDS
    if stopwords_path is not None:
        stopwords = _load(Path(stopwords_path), textprep.parse_stopword_file)
    records = _load_answers(Path(answers), corpus.parse_answer_file)
    results: list[_R] = []
    failures: list[corpus.CorpusError] = []
    for question_id, group in corpus.group_records(records).items():
        try:
            results.append(work(corpus.build_question_dataset(group, question_id, stopwords)))
        except corpus.CorpusError as exc:
            failures.append(exc)
    if failures:
        raise corpus.CorpusError("\n".join(map(str, failures)))
    return results


def cmd_train(args: argparse.Namespace) -> int:
    trained_at = _trained_at()

    def train(dataset: corpus.QuestionDataset) -> tuple[str, str, str]:
        """(file name, tree text, summary line)."""
        question_id = dataset.question_id
        # The id names a file in --out, and one path component holds at most
        # 255 bytes.
        name = f"{question_id}.tree.json"
        if any(c in question_id for c in "/\\\0") or question_id in ("", ".", ".."):
            raise corpus.CorpusError(f"question id {question_id!r} is not a safe file name")
        if len(name.encode("utf-8")) > 255:
            raise corpus.CorpusError(
                f"question id {question_id!r} is too long for a file name"
            )
        tree = dtree.build_tree(dataset, args.min_gain, trained_at=trained_at)
        try:
            text = dtree.serialize_tree(tree)
        except corpus.CorpusError as exc:
            raise corpus.CorpusError(f"question {question_id!r}: {exc}") from None
        return name, text, (
            f"{question_id}: {len(dataset)} samples "
            f"({dataset.correct_count} correct, {dataset.incorrect_count} incorrect), "
            f"vocabulary {len(dataset.index.words)}"
        )

    # Every question runs first, so a question that fails leaves no output.
    outputs = _per_question(args.answers, args.stopwords, train)
    out_dir = Path(args.out)
    _atomic_write({out_dir / name: text for name, text, _ in outputs})
    for _, _, line in outputs:
        print(line)
    return 0


def _load_trees(trees_dir: str) -> dict[str, dtree.DecisionTree]:
    directory = Path(trees_dir)
    if not directory.is_dir():  # glob would quietly find no tree in it
        problem = "is not a directory" if directory.exists() else "does not exist"
        raise NotADirectoryError(f"--trees {trees_dir}: {problem}")
    trees: dict[str, dtree.DecisionTree] = {}
    sources: dict[str, Path] = {}
    for path in sorted(directory.glob("*.tree.json")):
        tree = _load(path, dtree.deserialize_tree)
        if tree.question_id in trees:
            raise corpus.CorpusError(
                f"{sources[tree.question_id]} and {path} both hold a tree for "
                f"question {tree.question_id!r}"
            )
        trees[tree.question_id] = tree
        sources[tree.question_id] = path
    return trees


# A blank exam answer earns zero: grade and explain never send it to a tree.
_BLANK = dtree.Classification(corpus.Label.INCORRECT, 1.0, (), None, False)


def _classify(tree: dtree.DecisionTree, answer: str) -> dtree.Classification:
    """``classify(tree, preprocess(answer, stopwords))`` for the stopwords the
    tree was trained with: it tests none of them, so they need not leave the
    answer's word set."""
    if not answer.strip():
        return _BLANK
    return dtree.classify(tree, frozenset(textprep.words(answer)))


def cmd_grade(args: argparse.Namespace) -> int:
    trees = _load_trees(args.trees)
    # Results are shared per tree leaf and kept alive by their tree (_BLANK by
    # this module), so each distinct result's tail is written once, by id.
    tails: dict[int, str] = {}

    def grade(row: list[str], line: str | None) -> str:
        """A record's output line: its pair written as CSV (a quote-free line
        already is), then ``,label,certainty,flagged,critical_word`` and LF,
        the bytes of the six-field row, as ``csv_line`` quotes each field on
        its own."""
        question_id, answer = row
        try:
            tree = trees[question_id]
        except KeyError:
            raise ValueError(f"no trained tree for question {question_id!r}") from None
        result = _classify(tree, answer)
        tail = tails.get(id(result))
        if tail is None:
            certainty = result.certainty
            flagged = certainty < args.threshold or result.out_of_vocabulary
            tail = tails[id(result)] = corpus.csv_line((
                "",
                result.label.value,
                f"{certainty:.4f}",
                "true" if flagged else "false",
                result.critical_word or "",
            ))
        return (corpus.csv_line(row)[:-1] if line is None else line) + tail

    lines = _load_answers(
        Path(args.answers),
        lambda text, format: corpus.parse_ungraded_file(text, format, grade),
    )
    header = ("question_id", "answer", "label", "certainty", "flagged", "critical_word")
    _atomic_write({Path(args.out): corpus.csv_line(header) + "".join(lines)})
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    def evaluate(dataset: corpus.QuestionDataset) -> evaluation.QuestionRow | str:
        """The question's report row, or why it was skipped."""
        if len(dataset) < args.k:
            return (
                f"skipping {dataset.question_id}: {len(dataset)} samples is fewer "
                f"than k={args.k}"
            )
        accuracy = evaluation.cross_validate(dataset, args.min_gain, args.k, args.seed)
        counts = textprep.unique_word_counts(dataset)
        return evaluation.QuestionRow(
            dataset.question_id, dataset.average_grade, accuracy.accuracy,
            counts.all_words, counts.correct_words, counts.incorrect_words,
        )

    rows = []
    for result in _per_question(args.answers, args.stopwords, evaluate):
        if isinstance(result, str):
            print(result, file=sys.stderr)
        else:
            rows.append(result)
    if not rows:
        raise corpus.CorpusError("no question had enough samples to evaluate")
    report = evaluation.build_report(rows)
    out_dir = Path(args.out)
    _atomic_write({
        out_dir / "report.csv": evaluation.report_to_csv(report),
        out_dir / "report.json": evaluation.report_to_json(report),
    })
    summary = report.summary
    print(
        f"evaluated {summary.question_count} questions: "
        f"mean accuracy {summary.mean_accuracy:.4f}, "
        f"{summary.questions_below_90} below 0.90"
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    rows = _load(Path(args.fixture), evaluation.rows_from_fixture_csv)
    if not rows:
        raise corpus.CorpusError("cannot build a report from zero rows")
    report = evaluation.build_report(rows)
    _atomic_write({Path(args.out): evaluation.report_to_json(report)})
    for name, result in report.correlations.items():
        if result is not None:
            print(f"accuracy vs {name}: r = {result.r:+.4f}, p = {result.p:.3g}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    tree = _load(Path(args.tree), dtree.deserialize_tree)
    print(dtree.explain(_classify(tree, args.answer)))
    return 0


def _add_stopwords_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stopwords", metavar="FILE", help="stopword override file, one word per line"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="answertree",
        description="Train per-question decision trees on graded short answers, "
        "grade new answers with certainties and explanations, and evaluate "
        "accuracy with cross-validation and correlation statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one tree per question")
    train.add_argument("--answers", required=True, help="graded answers (CSV or JSON)")
    train.add_argument("--out", required=True, help="output directory for tree files")
    train.add_argument("--min-gain", type=float, default=0.0, dest="min_gain")
    _add_stopwords_flag(train)
    train.set_defaults(func=cmd_train)

    grade = sub.add_parser("grade", help="grade ungraded answers with trained trees")
    grade.add_argument("--trees", required=True, help="directory of *.tree.json files")
    grade.add_argument("--answers", required=True, help="ungraded answers (CSV or JSON)")
    grade.add_argument("--out", required=True, help="graded output CSV")
    grade.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_CERTAINTY_THRESHOLD,
        help="flag answers below this certainty for human audit",
    )
    grade.set_defaults(func=cmd_grade)

    evaluate = sub.add_parser("evaluate", help="k-fold cross-validation report")
    evaluate.add_argument("--answers", required=True)
    evaluate.add_argument("--k", type=int, default=10)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--out", required=True, help="output directory for reports")
    evaluate.add_argument("--min-gain", type=float, default=0.0, dest="min_gain")
    _add_stopwords_flag(evaluate)
    evaluate.set_defaults(func=cmd_evaluate)

    stats = sub.add_parser(
        "stats", help="correlation statistics over precomputed per-question results"
    )
    stats.add_argument("--fixture", required=True, help="per-question results CSV")
    stats.add_argument("--out", required=True, help="output JSON path")
    stats.set_defaults(func=cmd_stats)

    explain = sub.add_parser("explain", help="show a tree's reasoning for one answer")
    explain.add_argument("--tree", required=True, help="tree document (JSON)")
    explain.add_argument("--answer", required=True, help="answer text to classify")
    explain.set_defaults(func=cmd_explain)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Ids and words are printed as the input spells them. Like stderr, stdout
    # escapes a character its encoding cannot hold rather than raising.
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():
            # argparse before Python 3.13 reads an option's value "--" as [].
            if value == []:
                option = "--" + name.replace("_", "-")
                raise UsageError(f"{option}: this Python cannot read the value '--'")
        for name in ("answers", "out", "trees", "tree", "fixture", "stopwords"):
            # Path("") is the working directory.
            if getattr(args, name, None) == "":
                raise UsageError(f"--{name} must not be empty")
        if not 0.0 <= getattr(args, "threshold", 0.0) <= 1.0:
            raise UsageError("--threshold must be in [0, 1]")
        if not 0.0 <= getattr(args, "min_gain", 0.0) < math.inf:
            raise UsageError("--min-gain must be a finite number >= 0")
        if getattr(args, "k", 2) < 2:
            raise UsageError("--k must be at least 2")
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (corpus.CorpusError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
