"""Command-line batch workflow: train, grade, evaluate, stats, explain.

Exit codes: 0 success, 1 validation/data failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import stat
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, TextIO, TypeVar

from . import corpus, dtree, evaluation, textprep

DEFAULT_CERTAINTY_THRESHOLD = 0.70

_J, _R = TypeVar("_J"), TypeVar("_R")


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


def _atomic_write(path: Path, content: str) -> None:
    """Write ``content`` as UTF-8 to the file ``path`` names. The file stdout
    or stderr writes to, such as ``/dev/stdout``, is written through that
    stream, after what was printed before; replacing it would drop that
    text, and send what is printed after to the replaced file. Any other
    FIFO or character device is written directly. Otherwise a temporary file
    beside the target, through any symlink, replaces it whole; it keeps the
    mode of the file it replaces, and a new file gets ``0o666`` less the
    umask, as ``open`` would give it."""
    import tempfile  # here: explain writes no file

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
            return
    if stat.S_ISFIFO(mode) or stat.S_ISCHR(mode):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
        return
    # Follow the link chain, finite since stat found no loop; realpath would
    # also fold "..", moving the temporary file out of the named directory.
    while path.is_symlink():
        path = path.parent / os.readlink(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            os.fchmod(fd, mode & 0o777)
            handle.write(content)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _file_format(path: Path) -> str:
    return "json" if path.suffix.lower() == ".json" else "csv"


def _read_text(path: Path, error: type[Exception] = corpus.CorpusError) -> str:
    """A UTF-8 text file, with or without the byte-order mark spreadsheet
    programs write; bytes that do not decode raise ``error``."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None


def _load_prep(stopwords_path: str | None) -> frozenset[str]:
    if stopwords_path is None:
        return textprep.DEFAULT_STOPWORDS
    content = _read_text(Path(stopwords_path))
    try:
        return textprep.parse_stopword_file(content)
    except ValueError as exc:
        raise corpus.CorpusError(f"{stopwords_path}: {exc}") from None


def _load_records(path_str: str) -> list[corpus.AnswerRecord]:
    path = Path(path_str)
    return corpus.parse_answer_file(_read_text(path), _file_format(path))


class UsageError(Exception):
    """An option or environment setting the command cannot use (exit 2)."""


def _trained_at() -> str:
    from datetime import datetime, timezone  # here: only train needs it

    # SOURCE_DATE_EPOCH makes training reproducible byte for byte.
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        stamp = int(epoch) if epoch else int(time.time())
        return datetime.fromtimestamp(stamp, timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):
        raise UsageError(
            "SOURCE_DATE_EPOCH must be a whole number of seconds since "
            f"1970-01-01 UTC, within years 1-9999; got {epoch!r}"
        ) from None


def _per_question(
    command: str, answers: str, stopwords: frozenset[str], work: Callable[..., _R]
) -> list[_R]:
    """``work`` on each question's dataset, in question order. A question is
    one job that validates and ingests its records and runs ``work``; once
    all are done, every failed validation is reported."""
    groups = list(corpus.group_records(_load_records(answers)).values())

    def job(group: list[corpus.AnswerRecord]) -> tuple[bool, _R | str]:
        report = corpus.validate_dataset(group, stopwords)
        if not report.ok:
            return False, report.render()
        try:
            dataset = corpus.build_question_dataset(group, report.question_id, stopwords)
        except corpus.EmptyDatasetError as exc:
            return False, str(exc)
        return True, work(dataset)

    results = _fan_out(command, job, groups)
    failures = [value for ok, value in results if not ok]
    if failures:
        print("\n".join(failures), file=sys.stderr)
        raise corpus.CorpusError("answer file failed validation")
    return [value for _, value in results]


def cmd_train(args: argparse.Namespace) -> int:
    trained_at = _trained_at()
    stopwords = _load_prep(args.stopwords)

    def train(dataset: corpus.QuestionDataset) -> tuple[str, str | None, str]:
        """(question id, tree text, summary line), or no text and the error."""
        question_id = dataset.question_id
        tree = dtree.build_tree(dataset, args.min_gain, trained_at=trained_at)
        try:
            text = dtree.serialize_tree(tree)
        except dtree.TreeFormatError as exc:
            return question_id, None, f"question {question_id!r}: {exc}"
        counts = textprep.unique_word_counts(dataset)
        return question_id, text, (
            f"{question_id}: {len(dataset)} samples "
            f"({dataset.correct_count} correct, {dataset.incorrect_count} incorrect), "
            f"vocabulary {counts.all_words}"
        )

    outputs = _per_question("train", args.answers, stopwords, train)
    # Each id names a file in --out; check them all before writing any. The
    # longest name written is _atomic_write's temporary one, ".{id}.tree.json."
    # and eight characters, and one path component holds at most 255 bytes.
    for question_id, _, _ in outputs:
        name = f".{question_id}.tree.json.XXXXXXXX".encode("utf-8")
        if any(c in question_id for c in "/\\\0") or question_id in ("", ".", ".."):
            problem = "is not a safe file name"
        elif len(name) > 255:
            problem = "is too long for a file name"
        else:
            continue
        raise corpus.CorpusError(f"question id {question_id!r} {problem}")
    # Every tree is built first, so a question that fails leaves no output.
    for _, text, line in outputs:
        if text is None:
            raise corpus.CorpusError(line)
    out_dir = Path(args.out)
    for question_id, text, line in outputs:
        _atomic_write(out_dir / f"{question_id}.tree.json", text)
        print(line)
    return 0


def _load_tree(path: Path) -> dtree.DecisionTree:
    text = _read_text(path, dtree.TreeFormatError)
    try:
        return dtree.deserialize_tree(text)
    except dtree.TreeFormatError as exc:
        raise dtree.TreeFormatError(f"{path}: {exc}") from exc


def _load_trees(trees_dir: str) -> dict[str, dtree.DecisionTree]:
    directory = Path(trees_dir)
    if not directory.is_dir():  # glob would quietly find no tree in it
        problem = "is not a directory" if directory.exists() else "does not exist"
        raise NotADirectoryError(f"--trees {trees_dir}: {problem}")
    trees: dict[str, dtree.DecisionTree] = {}
    sources: dict[str, Path] = {}
    for path in sorted(directory.glob("*.tree.json")):
        tree = _load_tree(path)
        if tree.question_id in trees:
            raise dtree.TreeFormatError(
                f"{sources[tree.question_id]} and {path} both hold a tree for "
                f"question {tree.question_id!r}"
            )
        trees[tree.question_id] = tree
        sources[tree.question_id] = path
    return trees


def cmd_grade(args: argparse.Namespace) -> int:
    stopwords = _load_prep(args.stopwords)
    trees = _load_trees(args.trees)
    path = Path(args.answers)
    pairs = corpus.parse_ungraded_file(_read_text(path), _file_format(path))
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerow(
        ["question_id", "answer", "label", "certainty", "flagged", "critical_word"]
    )
    # A row's line is its (question, answer) pair written as CSV, then a
    # tail ",label,certainty,flagged,critical_word\n"; CSV quotes each field
    # on its own, so the joined line has the bytes of the six-field row.
    # Results are shared per tree leaf and kept alive by their tree, so each
    # distinct result's tail is written once, keyed by identity. Writing two
    # fields per distinct pair instead of six pays for the pair map below on
    # batches where every pair is new.
    tails: dict[int, str] = {}
    writer.writerow(("", "incorrect", "1.0000", "false", ""))
    blank_tail = lines.pop()
    # The line depends only on the pair, so each distinct pair is graded
    # once and its line reused: question -> answer -> line.
    graded: dict[str, dict[str, str]] = {}
    for question_id, answer in pairs:
        seen = graded.get(question_id)
        if seen is None:
            if question_id not in trees:
                print(f"no trained tree for question {question_id!r}", file=sys.stderr)
                return 1
            seen = graded[question_id] = {}
        line = seen.get(answer)
        if line is None:
            if not answer.strip():
                # A blank exam answer earns zero; blanks never reach the trees.
                tail = blank_tail
            else:
                words = textprep.preprocess(answer, stopwords)
                result = dtree.classify(trees[question_id], words)
                tail = tails.get(id(result))
                if tail is None:
                    certainty = result.certainty
                    flagged = certainty < args.threshold or result.out_of_vocabulary
                    writer.writerow((
                        "",
                        result.label.value,
                        f"{certainty:.4f}",
                        "true" if flagged else "false",
                        result.critical_word or "",
                    ))
                    tail = tails[id(result)] = lines.pop()
            writer.writerow((question_id, answer))
            line = seen[answer] = lines.pop()[:-1] + tail
        lines.append(line)
    _atomic_write(Path(args.out), "".join(lines))
    return 0


def _worker_count(jobs: int) -> int:
    """The CPUs this process may use, at most one per job and at least one.

    One where there is no affinity mask or no fork, and in a process with
    other threads: a forked child holds only the thread that forked it, so
    a lock another thread held stays locked in the child.
    """
    threading = sys.modules.get("threading")
    if (
        not hasattr(os, "sched_getaffinity")
        or not hasattr(os, "fork")
        or (threading is not None and threading.active_count() > 1)
    ):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), jobs))


def _run_share(
    work: Callable[[_J], _R], share: list[_J], parent: int | None = None
) -> list[_R]:
    results = []
    for job in share:
        if parent is not None and os.getppid() != parent:
            os._exit(1)  # the parent is gone, so no one will read the results
        results.append(work(job))
    return results


def _fan_out(command: str, work: Callable[[_J], _R], jobs: list[_J]) -> list[_R]:
    """``work`` on every job, on one worker per CPU: job ``j`` goes to worker
    ``j % workers``. The parent runs worker 0's share itself; each other
    share runs in a forked child, which pickles its results (or its
    exception) into a pipe. Results come back in job order, so the output
    does not depend on the worker count. With one worker nothing is forked."""
    workers = _worker_count(len(jobs))
    results: list = [None] * len(jobs)
    parent = os.getpid()
    children = []  # (pid, read end of its pipe) per unreaped child, in worker order
    if workers > 1:  # here: one worker needs neither
        import pickle
        import signal
    try:
        for worker in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: it must never return into the caller
                status = 1
                try:
                    os.close(read_end)
                    for _, pipe in children:
                        pipe.close()
                    try:
                        payload = (True, _run_share(work, jobs[worker::workers], parent))
                    except Exception as exc:
                        payload = (False, exc)
                    with open(write_end, "wb") as pipe:
                        pickle.dump(payload, pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        results[::workers] = _run_share(work, jobs[::workers])
        for worker in range(1, workers):
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code != 0:
                ended = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise ChildProcessError(
                    f"{command} worker {worker} ended with {ended} "
                    "before sending its results"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results[worker::workers] = value
    finally:
        for pid, pipe in children:  # left running by an error
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def cmd_evaluate(args: argparse.Namespace) -> int:
    stopwords = _load_prep(args.stopwords)

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
    for result in _per_question("evaluate", args.answers, stopwords, evaluate):
        if isinstance(result, str):
            print(result, file=sys.stderr)
        else:
            rows.append(result)
    if not rows:
        print("no question had enough samples to evaluate", file=sys.stderr)
        return 1
    report = evaluation.build_report(rows)
    out_dir = Path(args.out)
    _atomic_write(out_dir / "report.csv", evaluation.report_to_csv(report))
    _atomic_write(out_dir / "report.json", evaluation.report_to_json(report))
    summary = report.summary
    print(
        f"evaluated {summary.question_count} questions: "
        f"mean accuracy {summary.mean_accuracy:.4f}, "
        f"{summary.questions_below_90} below 0.90"
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    rows = evaluation.rows_from_fixture_csv(_read_text(Path(args.fixture)))
    try:
        report = evaluation.build_report(rows)
    except ValueError as exc:  # zero rows
        print(str(exc), file=sys.stderr)
        return 1
    _atomic_write(Path(args.out), evaluation.report_to_json(report))
    for name, result in report.correlations.items():
        if result is not None:
            print(f"accuracy vs {name}: r = {result.r:+.4f}, p = {result.p:.3g}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    stopwords = _load_prep(args.stopwords)
    tree = _load_tree(Path(args.tree))
    result = dtree.classify(tree, textprep.preprocess(args.answer, stopwords))
    print(dtree.explain(result))
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
    _add_stopwords_flag(grade)
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
    _add_stopwords_flag(explain)
    explain.set_defaults(func=cmd_explain)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Ids and words are printed as the input spells them. Like stderr, stdout
    # escapes a character its encoding cannot hold rather than raising.
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    if not 0.0 <= getattr(args, "threshold", 0.0) <= 1.0:
        print("--threshold must be in [0, 1]", file=sys.stderr)
        return 2
    if not 0.0 <= getattr(args, "min_gain", 0.0) < math.inf:
        print("--min-gain must be a finite number >= 0", file=sys.stderr)
        return 2
    if getattr(args, "k", 2) < 2:
        print("--k must be at least 2", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (
        corpus.CorpusError,
        dtree.TreeFormatError,
        evaluation.FoldError,
        OSError,
    ) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
