"""Tests for the benchmark's own code: generator, output checks, metric names.

Run from the repository root: ``python -m pytest -q bench``
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from answertree import corpus, textprep  # noqa: E402
from answertree.cli import main as answertree_main  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SHAPES = gen.read_shapes(run.FIXTURE)


def generate(out: Path, seed: int, env_hash_seed: str) -> dict[str, bytes]:
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "gen.py"), "--seed", str(seed), "--out", str(out),
         "--questions", "4", "--rows", "400"],
        check=True,
        capture_output=True,
        env=dict(os.environ, PYTHONHASHSEED=env_hash_seed),
    )
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_generator_same_seed_same_bytes(tmp_path):
    first = generate(tmp_path / "a", 7, "1")
    second = generate(tmp_path / "b", 7, "2")  # set order must not leak in
    other = generate(tmp_path / "c", 8, "1")
    assert set(first) == {"graded.csv", "unique.csv", "unique.truth.csv", "repeat.csv", "repeat.truth.csv"}
    assert first == second
    assert all(first[name] != other[name] for name in first)


def test_generator_words_are_never_stopwords():
    assert gen.STOPWORDS == textprep.DEFAULT_STOPWORDS
    assert set(gen.FILLERS) <= gen.STOPWORDS
    assert "have" in {a + b for a in gen.SYLLABLES for b in gen.SYLLABLES}  # why the check exists


def test_graded_corpus_reproduces_table_word_counts():
    shapes = gen.pick_questions(SHAPES, 6)
    text, _ = gen.graded_corpus(shapes, seed=3)
    groups = corpus.group_records(corpus.parse_answer_file(text, "csv"))
    assert list(groups) == [s.question_id for s in shapes]
    for shape in shapes:
        dataset = corpus.build_question_dataset(groups[shape.question_id], shape.question_id)
        counts = textprep.unique_word_counts(dataset)
        assert len(dataset) == gen.ANSWERS_PER_QUESTION
        assert dataset.correct_count == round(shape.average_grade * gen.ANSWERS_PER_QUESTION)
        assert (counts.all_words, counts.correct_words, counts.incorrect_words) == (
            shape.unique_all, shape.unique_correct, shape.unique_incorrect)


def test_pick_questions_spans_vocabulary_sizes():
    picked = gen.pick_questions(SHAPES, 27)
    sizes = sorted(s.unique_all for s in picked)
    assert len(picked) == 27 and len({s.question_id for s in picked}) == 27
    assert sizes[0] <= 40 and sizes[-1] >= 250
    assert gen.pick_questions(SHAPES, 54) == SHAPES


def test_batches_distinct_share():
    _, models = gen.graded_corpus(gen.pick_questions(SHAPES, 3), seed=1)
    for mode, low, high in (("unique", 0.99, 1.0), ("repeat", 0.01, 0.06)):
        batch, truth = gen.ungraded_batch(models, 3000, seed=1, mode=mode)
        rows = list(csv.reader(io.StringIO(batch)))[1:]
        labels = truth.splitlines()[1:]
        texts = [tuple(r) for r in rows if r[1]]
        assert len(rows) == len(labels) == 3000
        assert set(labels) == {"correct", "incorrect"}
        assert low <= len(set(texts)) / len(texts) <= high


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real train, grade and evaluate outputs on a small generated corpus."""
    root = tmp_path_factory.mktemp("outputs")
    paths = gen.write_inputs(run.FIXTURE, root / "in", seed=5, questions=3, rows=300, modes=("unique",))
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setenv("SOURCE_DATE_EPOCH", run.SOURCE_DATE_EPOCH)
        assert answertree_main(["train", "--answers", str(paths["graded"]), "--out", str(root / "trees")]) == 0
        assert answertree_main(["grade", "--trees", str(root / "trees"), "--answers", str(paths["unique"]),
                                "--out", str(root / "graded.csv")]) == 0
        assert answertree_main(["evaluate", "--answers", str(paths["graded"]), "--out", str(root / "report")]) == 0
    shapes = gen.pick_questions(SHAPES, 3)
    expected = {
        s.question_id: {"unique_all": s.unique_all, "unique_correct": s.unique_correct,
                        "unique_incorrect": s.unique_incorrect}
        for s in shapes
    }
    return {"root": root, "batch": paths["unique"], "ids": [s.question_id for s in shapes], "expected": expected}


def _copy(outputs, name, tmp_path) -> Path:
    source = outputs["root"] / name
    target = tmp_path / name
    if source.is_dir():
        shutil.copytree(source, target)
    else:
        shutil.copy(source, target)
    return target


def _rewrite_csv(path: Path, edit) -> None:
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    edit(rows)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    path.write_text(out.getvalue(), encoding="utf-8")


def test_check_graded_accepts_real_output(outputs):
    results = checks.check_graded(outputs["root"] / "graded.csv", outputs["batch"])
    assert len(results) == 300


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows.pop(), "rows"),
        (lambda rows: rows[5].__setitem__(2, "maybe"), "label"),
        (lambda rows: rows[5].__setitem__(3, "1.5000"), "outside"),
        (lambda rows: rows[5].__setitem__(3, "high"), "certainty"),
        (lambda rows: rows[5].__setitem__(4, "yes"), "flagged"),
        (lambda rows: rows[5].__setitem__(1, rows[5][1] + " extra"), "echo"),
        (lambda rows: rows[0].__setitem__(3, "confidence"), "header"),
    ],
)
def test_check_graded_rejects_corruption(outputs, tmp_path, edit, message):
    graded = _copy(outputs, "graded.csv", tmp_path)
    _rewrite_csv(graded, edit)
    with pytest.raises(checks.CheckError, match=message):
        checks.check_graded(graded, outputs["batch"])


def test_check_report_accepts_real_output(outputs):
    mean = checks.check_report(outputs["root"] / "report", outputs["expected"])
    assert 0.5 < mean <= 1.0


def _edit_report(path: Path, edit) -> None:
    document = json.loads(path.read_text(encoding="utf-8"))
    edit(document)
    path.write_text(json.dumps(document), encoding="utf-8")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["rows"].pop(), "questions"),
        (lambda d: d["summary"].__setitem__("question_count", 54), "question_count"),
        (lambda d: d["rows"][0].__setitem__("dt_accuracy", 1.2), "outside"),
        (lambda d: d["rows"][1].__setitem__("unique_all", 1), "unique_all"),
        (lambda d: d["summary"].__setitem__("mean_accuracy", 0.5), "row mean"),
        (lambda d: d["rows"].__setitem__(0, "Q1"), "objects"),
    ],
)
def test_check_report_rejects_corrupted_json(outputs, tmp_path, edit, message):
    report = _copy(outputs, "report", tmp_path)
    _edit_report(report / "report.json", edit)
    with pytest.raises(checks.CheckError, match=message):
        checks.check_report(report, outputs["expected"])


def test_check_report_rejects_truncated_csv(outputs, tmp_path):
    report = _copy(outputs, "report", tmp_path)
    _rewrite_csv(report / "report.csv", lambda rows: rows.pop())
    with pytest.raises(checks.CheckError, match="report.csv"):
        checks.check_report(report, outputs["expected"])


def test_check_trees(outputs, tmp_path):
    trees = _copy(outputs, "trees", tmp_path)
    files = checks.check_trees(trees, outputs["ids"], run.TRAINED_AT)
    assert len(files) == 3
    with pytest.raises(checks.CheckError, match="trained_at"):
        checks.check_trees(trees, outputs["ids"], "2021-01-01T00:00:00+00:00")
    files[0].unlink()
    with pytest.raises(checks.CheckError, match="tree files"):
        checks.check_trees(trees, outputs["ids"], run.TRAINED_AT)


def test_digest_tracks_bytes(outputs, tmp_path):
    trees = _copy(outputs, "trees", tmp_path)
    files = sorted(trees.iterdir())
    before = checks.digest(files, trees)
    assert before == checks.digest(files, trees)
    files[0].write_bytes(files[0].read_bytes() + b" ")
    assert checks.digest(files, trees) != before


def _tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], questions=2, rows=300)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_metric_names_match_benchmark_json(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", run.SOURCE_DATE_EPOCH)
    result, record = run.run_workload(_tiny(name), seed=2, seconds=0, trace=trace)
    assert result["correct"], record["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    kind = "per_layer" if trace else "end_to_end"
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert not list(tmp_path.glob("run-*")), "the run directory is removed"


def test_all_workloads_print_one_json_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "WORKLOADS", {name: _tiny(name) for name in run.WORKLOADS})
    assert run.main(["--workload", "all", "--seed", "2", "--seconds", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert list(last["workloads"]) == list(run.WORKLOADS)
    assert last["attempted"] == sum(r["attempted"] for r in last["workloads"].values())


def test_host_speed_scale():
    assert hostspeed.probe_s() > 0
    assert hostspeed.scale(hostspeed.REFERENCE_S, hostspeed.REFERENCE_S) == 1.0
    # a host twice as slow as the reference halves the scaled time
    assert hostspeed.scale(2 * hostspeed.REFERENCE_S, 2 * hostspeed.REFERENCE_S) == 0.5


def test_traced_metrics_show_the_layers(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", run.SOURCE_DATE_EPOCH)
    result, record = run.run_workload(_tiny("grade-unique"), seed=2, seconds=0, trace=True)
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    # train preprocesses each sample twice (validate, then build)
    assert metrics["textprep.preprocess.calls_per_sample"] == 2.0
    # grade classifies every row but the few blanks
    assert 280 <= metrics["dtree.classify.calls"] <= 300
    assert metrics["corpus.parse.rows"] > 300
    assert "answertree.evaluation.build_tree" in record["wrapped"]
    assert "answertree.corpus.preprocess" in record["wrapped"]
    commands = record["commands"]
    assert list(commands) == ["train", "grade"]
    assert commands["grade"]["busy_s"]["dtree.classify"] > 0
    assert "dtree.select_best_rule" not in commands["grade"]["busy_s"]
    assert all(0 < share <= 1 for c in commands.values() for share in c["share"].values())
    spans_csv = (tmp_path / "traces" / "grade-unique-seed2.spans.csv").read_text().splitlines()
    assert spans_csv[0] == "index,parent,name,start_s,end_s"
    assert len(spans_csv) - 1 == sum(s["calls"] for s in record["spans"].values())


def test_bypassed_layer_is_reported_missing(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", run.SOURCE_DATE_EPOCH)
    workload = dataclasses.replace(
        _tiny("grade-unique"), expected_spans=run.GRADE_SPANS + ("evaluation.cross_validate",)
    )
    result, record = run.run_workload(workload, seed=2, seconds=0, trace=True)
    assert not result["correct"] and result["failed"] == 1
    assert record["missing_spans"] == ["evaluation.cross_validate"]
    assert not any(n.startswith("evaluation.cross_validate.") for n in result["metrics"])


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"][1].startswith("bench/")
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cv-paper", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
