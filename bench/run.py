"""answertree benchmark: train, then evaluate or grade, on a seeded corpus.

Usage (from the repository root):

    python3 bench/run.py --workload cv-paper --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

Every workload is the user's pipeline: ``train`` builds the trees (the
set-up), then one measured command (``evaluate`` or ``grade``) uses them.
The pipeline repeats for ``--seconds``, at least ``MIN_PIPELINES`` times.
With ``--trace 0`` each command is its own ``python -m answertree``
subprocess, its wall time is scaled to the host's typical speed by the probe
in ``hostspeed.py``, and the end-to-end metrics are printed. With
``--trace 1`` the pipeline runs in this process, untraced for ``--seconds``
and then once with spans around answertree's public functions, and the
per-layer metrics are printed. Every output is checked and hashed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--workload all`` it has
``workloads``, each workload's object by name, in place of ``metrics``.
Exit status is 0 when every command succeeded and passed its checks, 1 when
any did not, and 2 when the checkout holds no answertree sources.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402

FIXTURE = gen.FIXTURE
# Fewest pipeline runs (train + measured command) in one benchmark run.
MIN_PIPELINES = 3
# Pinned so that train writes the same bytes on every run.
SOURCE_DATE_EPOCH = "1592179200"
TRAINED_AT = "2020-06-15T00:00:00+00:00"
CV_FOLDS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "evaluate" or "grade"
    questions: int  # taken from the reference table at evenly spaced ranks
    rows: int = 0  # ungraded rows, for grade workloads
    batch: str = ""  # gen.ungraded_batch mode
    # Spans that must record calls in a traced run; one that records none
    # means a refactor bypassed that public function.
    expected_spans: tuple[str, ...] = ()


INGEST_SPANS = (
    "cli.main",
    "corpus.parse",
    "corpus.validate_dataset",
    "corpus.build_question_dataset",
    "textprep.preprocess",
    "dtree.build_tree",
    "dtree.select_best_rule",
    "dtree.serialize_tree",
)
CV_SPANS = INGEST_SPANS + ("evaluation.cross_validate", "dtree.classify", "evaluation.build_report")
GRADE_SPANS = INGEST_SPANS + ("dtree.deserialize_tree", "dtree.classify")
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cv-paper", "evaluate", gen.QUESTIONS, expected_spans=CV_SPANS),
        Workload("grade-unique", "grade", gen.QUESTIONS, gen.BATCH_ROWS, "unique", GRADE_SPANS),
        Workload("grade-repeat", "grade", gen.QUESTIONS, gen.BATCH_ROWS, "repeat", GRADE_SPANS),
    )
}


@dataclass
class Inputs:
    """One workload's generated files and what its outputs must show."""

    workload: Workload
    dir: Path
    graded: Path
    question_ids: list[str]
    expected_rows: dict[str, dict]
    batch: Path | None = None
    truth: list[str] = field(default_factory=list)

    @property
    def answers(self) -> int:
        """Answers one measured command handles: rows graded, or samples held out."""
        if self.workload.command == "grade":
            return len(self.truth)
        return len(self.question_ids) * gen.ANSWERS_PER_QUESTION


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"FAILED: {message}", file=sys.stderr)


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    shapes = gen.pick_questions(gen.read_shapes(FIXTURE), workload.questions)
    graded, models = gen.graded_corpus(shapes, seed)
    directory.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(
        workload=workload,
        dir=directory,
        graded=directory / "graded.csv",
        question_ids=[s.question_id for s in shapes],
        expected_rows={
            s.question_id: {
                "average_grade": round(s.average_grade * gen.ANSWERS_PER_QUESTION)
                / gen.ANSWERS_PER_QUESTION,
                "unique_all": s.unique_all,
                "unique_correct": s.unique_correct,
                "unique_incorrect": s.unique_incorrect,
            }
            for s in shapes
        },
    )
    inputs.graded.write_text(graded, encoding="utf-8")
    if workload.command == "grade":
        batch, truth = gen.ungraded_batch(models, workload.rows, seed, workload.batch)
        inputs.batch = directory / "batch.csv"
        inputs.batch.write_text(batch, encoding="utf-8")
        inputs.truth = truth.splitlines()[1:]
    return inputs


def train_args(inputs: Inputs, trees: Path) -> list[str]:
    return ["train", "--answers", str(inputs.graded), "--out", str(trees)]


def measured_args(inputs: Inputs, out: Path, trees: Path) -> list[str]:
    """The measured command, writing into the directory ``out``."""
    if inputs.workload.command == "evaluate":
        return ["evaluate", "--answers", str(inputs.graded), "--out", str(out), "--k", str(CV_FOLDS)]
    return ["grade", "--trees", str(trees), "--answers", str(inputs.batch), "--out", str(out / "graded.csv")]


def check_train(inputs: Inputs, trees: Path) -> tuple[str, dict]:
    files = checks.check_trees(trees, inputs.question_ids, TRAINED_AT)
    return checks.digest(files, trees), {}


def check_measured(inputs: Inputs, out: Path) -> tuple[str, dict[str, float]]:
    """Check one measured command's outputs; return their digest and quality."""
    if inputs.workload.command == "evaluate":
        accuracy = checks.check_report(out, inputs.expected_rows)
        files = [out / "report.json", out / "report.csv"]
        return checks.digest(files, out), {"accuracy": accuracy}
    results = checks.check_graded(out / "graded.csv", inputs.batch)
    hits = sum(label == truth for (label, _), truth in zip(results, inputs.truth))
    flagged = sum(flag for _, flag in results)
    quality = {"accuracy": hits / len(results), "flagged_share": flagged / len(results)}
    return checks.digest([out / "graded.csv"], out), quality


class Stage:
    """One command run repeatedly; every output must match the first one's digest."""

    def __init__(self, name: str, tally: Tally):
        self.name = name
        self.tally = tally
        self.walls: list[float] = []
        self.peaks_mb: list[float] = []
        self.digest: str | None = None
        self.quality: dict[str, float] = {}

    def record(self, ok: bool, wall: float, check, detail: str, peak_mb=None) -> None:
        """Count one run and check its outputs unless it failed."""
        self.tally.attempted += 1
        if not ok:
            self.tally.fail(f"{self.name} exited with an error: {detail.strip()[-800:]}")
            return
        try:
            digest, quality = check()
        except checks.CheckError as exc:
            self.tally.fail(f"{self.name}: {exc}")
            return
        if self.digest is None:
            self.digest, self.quality = digest, quality
        elif digest != self.digest:
            self.tally.fail(f"{self.name}: output digest {digest} differs from {self.digest}")
            return
        self.walls.append(wall)
        if peak_mb is not None:
            self.peaks_mb.append(peak_mb)


def run_child(args: list[str], log: Path) -> tuple[bool, float, float, str]:
    """Run ``python -m answertree ARGS``; return ok, wall s, peak RSS MB, stderr."""
    env = dict(os.environ, SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with log.open("w+b") as err:
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-m", "answertree", *args],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        try:
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
            # give the largest of all children so far.
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        wall = time.perf_counter() - start
        process.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        detail = err.read().decode("utf-8", "replace")
    return process.returncode == 0, wall, usage.ru_maxrss / 1024.0, detail


def run_pipeline(runner, inputs: Inputs, train: Stage, measured: Stage) -> float:
    """train, then the measured command on its trees; return their wall seconds.

    ``runner(args)`` runs one answertree command and returns ok, wall
    seconds, peak RSS in MB (or None) and its error output.
    """
    trees, out = inputs.dir / "trees", inputs.dir / "out"
    ok, train_wall, _, detail = runner(train_args(inputs, trees))
    train.record(ok, train_wall, lambda: check_train(inputs, trees), detail)
    out.mkdir()
    ok, wall, peak, detail = runner(measured_args(inputs, out, trees))
    measured.record(ok, wall, lambda: check_measured(inputs, out), detail, peak)
    shutil.rmtree(trees, ignore_errors=True)
    shutil.rmtree(out)
    return train_wall + wall


def repeat_pipeline(runner, inputs: Inputs, train: Stage, measured: Stage, seconds: float) -> list[float]:
    """Run the pipeline until ``seconds`` have passed, at least MIN_PIPELINES times.

    Set-up and measured command alternate, so both sample the whole window.
    """
    walls: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PIPELINES or time.perf_counter() < deadline:
        walls.append(run_pipeline(runner, inputs, train, measured))
    return walls


def lower_quartile(values: list[float]) -> float:
    """First quartile (inclusive method) of a run's scaled command times.

    Other tenants' load only ever slows a command, and the probe does not
    track every swing, so the lower quartile reads the program's own speed
    more steadily than the median: over six sets of 5 to 10 seeds on the
    2-vCPU VM named in ``hostspeed.py``, it gave a mean quartile spread
    across seeds of 0.08, against 0.10 for the median.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def run_untraced(inputs: Inputs, seconds: float, tally: Tally) -> dict:
    """Run the pipeline as subprocesses; times are scaled to reference host speed."""
    train = Stage("train", tally)
    measured = Stage(inputs.workload.command, tally)
    raw_walls: list[float] = []
    probes = [hostspeed.probe_s()]

    def runner(args: list[str]) -> tuple[bool, float, float, str]:
        ok, wall, peak, detail = run_child(args, inputs.dir / "stderr.log")
        probes.append(hostspeed.probe_s())
        raw_walls.append(wall)
        return ok, wall * hostspeed.scale(probes[-2], probes[-1]), peak, detail

    repeat_pipeline(runner, inputs, train, measured, seconds)
    metrics = {}
    if train.walls and measured.walls:
        metrics = {
            "setup_s": lower_quartile(train.walls),
            "answers_per_s": inputs.answers / lower_quartile(measured.walls),
            "peak_rss_mb": statistics.median(measured.peaks_mb),
            "accuracy": measured.quality["accuracy"],
        }
    return {
        "metrics": metrics,
        "setup_walls_s": train.walls,
        "measured_walls_s": measured.walls,
        "measured_peak_rss_mb": measured.peaks_mb,
        "raw_walls_s": raw_walls,
        "probes_s": probes,
        "digests": {"train": train.digest, inputs.workload.command: measured.digest},
    }


def in_process(cli, args: list[str]) -> tuple[bool, float, None, str]:
    """Run one command through ``cli.main`` in this process."""
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(args)
    except Exception:  # a crash is a failed command, reported with its traceback
        return False, time.perf_counter() - start, None, err.getvalue() + traceback.format_exc()
    return code == 0, time.perf_counter() - start, None, err.getvalue()


def run_traced(inputs: Inputs, seconds: float, tally: Tally, trace_path: Path) -> dict:
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    sys.path.insert(0, str(SRC))
    from answertree import cli

    # Both stages compare every run's digest with the first, so the traced
    # run's outputs are checked byte for byte against the untraced ones.
    train = Stage("train", tally)
    measured = Stage(inputs.workload.command, tally)
    runner = functools.partial(in_process, cli)
    untraced = repeat_pipeline(runner, inputs, train, measured, seconds)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_wall = run_pipeline(runner, inputs, train, measured)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    summary = tracer.summary()
    missing = [name for name in inputs.workload.expected_spans if summary[name]["calls"] == 0]
    for name in missing:
        tally.fail(f"span {name} recorded no calls: its layer was bypassed or removed")
    metrics = layer_metrics(summary, tracer, measured.quality, set(missing))
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(untraced) - 1.0
    return {
        "metrics": metrics,
        "untraced_pipeline_walls_s": untraced,
        "traced_pipeline_wall_s": traced_wall,
        "missing_spans": missing,
        # Where each command's time went: train, then the measured command.
        "commands": dict(zip(("train", inputs.workload.command), tracer.by_command())),
        "wrapped": tracer.wrapped,
        "digests": {"train": train.digest, inputs.workload.command: measured.digest},
        "spans": {
            name: {k: s[k] for k in ("calls", "busy_s", "self_s")} | {"parents": dict(s["parents"])}
            for name, s in summary.items()
        },
    }


def layer_metrics(summary: dict, tracer: spans.Tracer, quality: dict, missing: set) -> dict:
    """Per-layer metrics of one traced pipeline (train, then the measured command).

    Metrics of a span in ``missing`` are left out rather than read as zero.
    """
    metrics: dict[str, float] = {}

    def put(span: str, values: dict) -> None:
        if span not in missing:
            metrics.update(values)

    def stat(span: str, measure: str) -> float:
        return summary[span][measure]

    def ms(span: str, q: float) -> float:
        return 1e3 * spans.quantile(summary[span]["durations"] or [0.0], q)

    prep = summary["textprep.preprocess"]
    ingest_calls = prep["parents"]["corpus.validate_dataset"] + prep["parents"]["corpus.build_question_dataset"]
    nodes, depth = tree_shape(tracer.trees)
    put("dtree.select_best_rule", {
        "dtree.select_best_rule.busy_s": stat("dtree.select_best_rule", "busy_s"),
        "dtree.select_best_rule.calls": stat("dtree.select_best_rule", "calls"),
        "dtree.select_best_rule.candidates": tracer.amounts["dtree.select_best_rule"],
    })
    put("dtree.build_tree", {
        "dtree.build_tree.busy_s": stat("dtree.build_tree", "busy_s"),
        "dtree.grow.self_s": stat("dtree.build_tree", "self_s"),
        "dtree.nodes": nodes,
        "dtree.max_depth": depth,
    })
    put("evaluation.cross_validate", {
        "evaluation.cross_validate.busy_s": stat("evaluation.cross_validate", "busy_s"),
        "evaluation.cross_validate.self_s": stat("evaluation.cross_validate", "self_s"),
        "evaluation.cross_validate.p50_ms": ms("evaluation.cross_validate", 0.50),
        "evaluation.cross_validate.p80_ms": ms("evaluation.cross_validate", 0.80),
    })
    put("dtree.classify", {
        "dtree.classify.calls": stat("dtree.classify", "calls"),
        "dtree.classify.busy_s": stat("dtree.classify", "busy_s"),
        "dtree.classify.p50_us": 1e3 * ms("dtree.classify", 0.50),
        "dtree.classify.p99_us": 1e3 * ms("dtree.classify", 0.99),
    })
    put("textprep.preprocess", {
        "textprep.preprocess.calls": prep["calls"],
        "textprep.preprocess.busy_s": prep["busy_s"],
        "textprep.preprocess.distinct_ratio": len(tracer.texts) / max(prep["calls"], 1),
        "textprep.preprocess.calls_per_sample": ingest_calls
        / max(tracer.amounts["corpus.build_question_dataset"], 1),
    })
    put("corpus.parse", {
        "corpus.parse.busy_s": stat("corpus.parse", "busy_s"),
        "corpus.parse.rows": tracer.amounts["corpus.parse"],
    })
    for span in ("corpus.validate_dataset", "corpus.build_question_dataset",
                 "dtree.deserialize_tree", "evaluation.build_report"):
        put(span, {f"{span}.busy_s": stat(span, "busy_s")})
    put("dtree.serialize_tree", {
        "dtree.serialize_tree.busy_s": stat("dtree.serialize_tree", "busy_s"),
        "dtree.serialize_tree.bytes": tracer.amounts["dtree.serialize_tree"],
    })
    put("cli.main", {"cli.self_s": stat("cli.main", "self_s")})
    metrics["cli.cmd_grade.flagged_share"] = quality.get("flagged_share", 0.0)
    return metrics


def tree_shape(trees: list) -> tuple[int, int]:
    """Total nodes and greatest depth over trees, read from their JSON form.

    The on-disk document is the stable contract, so the count does not
    depend on how a tree is held in memory.
    """
    from answertree import dtree

    nodes = depth = 0
    for tree in trees:
        stack = [(json.loads(dtree.serialize_tree(tree))["root"], 0)]
        while stack:
            node, level = stack.pop()
            nodes += 1
            depth = max(depth, level)
            if "word" in node:
                stack.append((node["true"], level + 1))
                stack.append((node["false"], level + 1))
    return nodes, depth


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Generate, run and check one workload; return the result and a full record."""
    tally = Tally()
    run_dir = WORK / f"run-{os.getpid()}-{workload.name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        inputs = make_inputs(workload, seed, run_dir)
        if trace:
            trace_path = WORK / "traces" / f"{workload.name}-seed{seed}.spans.csv"
            record = run_traced(inputs, seconds, tally, trace_path)
        else:
            record = run_untraced(inputs, seconds, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in record["metrics"].items()}
    result = {
        "correct": tally.failed == 0 and len(metrics) == len(units),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record.update(
        workload=workload.name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        inputs={"questions": len(inputs.question_ids), "answers_per_command": inputs.answers},
        errors=tally.errors,
        machine=machine(),
    )
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="answertree benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    missing = [p for p in (SRC / "answertree" / "cli.py", FIXTURE, SPEC) if not p.is_file()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        results_path = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        results_path.parent.mkdir(parents=True, exist_ok=True)
        results_path.write_text(json.dumps({"result": result, **record}, indent=2) + "\n")
        report = sys.stdout if args.workload == "all" else sys.stderr
        for metric, entry in result["metrics"].items():
            print(f"{name:<13} {metric:<40} {entry['value']:>16.6f} {entry['unit']}", file=report)
        print(f"{name:<13} failed {result['failed']} of {result['attempted']}, "
              f"digests {record['digests']}", file=report)
        results[name] = result
    ok = all(result["correct"] for result in results.values())
    if args.workload != "all":
        print(json.dumps(result))
    else:
        print(json.dumps({
            "correct": ok,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
