"""Run the benchmark over several seeds and report medians and quartile spreads.

Usage (from the repository root):

    python3 bench/spread.py --workloads cv-paper --seeds 5
    python3 bench/spread.py --seeds 10 --sets 2 --baseline bench/BASELINE.json

For each workload and end-to-end metric this prints the median over seeds
1..N and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``. Each run lasts ``run_seconds``
from ``BENCHMARK.json``. With ``--sets 2`` or more the
seeds are run again, set after set, and each set's median is compared with
the first set's. The exit status is 1 when a run fails, when a spread other
than ``setup_s``'s exceeds its bound, or when a later set's median is worse
than the first's by more than the bound. One ``bench/run.py`` subprocess
runs at a time.

``--baseline`` writes every set, each run's metrics and output digests, the
machine, and one traced run (``--trace 1``, seed 1) of each workload to a
JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = ROOT / ".bench_work" / "results"


def spread(values: list[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[bool, dict, dict]:
    """One ``run.py`` run; return ok, its result line and its full record."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else {}
    record_path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    ok = done.returncode == 0 and bool(result.get("correct"))
    if not ok:
        print(f"{workload} seed {seed} trace {trace}: FAILED\n{done.stderr}", file=sys.stderr)
    return ok, result, record


def run_set(workload: str, seeds: list[int], seconds: int, bounds: dict) -> tuple[bool, dict]:
    ok = True
    values: dict[str, list[float]] = {name: [] for name in bounds}
    runs = []
    record: dict = {}
    for seed in seeds:
        passed, result, record = run_once(workload, seed, seconds, 0)
        ok = ok and passed
        metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
        for name, value in metrics.items():
            values[name].append(value)
        runs.append({"seed": seed, "metrics": metrics, "digests": record.get("digests"),
                     "inputs": record.get("inputs")})
        print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v:.4f}" for k, v in metrics.items()), flush=True)
    summary = {}
    for name, series in values.items():
        if len(series) < 2:
            continue
        summary[name] = {"median": statistics.median(series), "spread": spread(series),
                         "bound": bounds[name]["bound"], "unit": bounds[name]["unit"]}
        line = (f"  {workload:<13} {name:<14} median {summary[name]['median']:.6g} "
                f"{bounds[name]['unit']}, spread {summary[name]['spread']:.4f} "
                f"(bound {bounds[name]['bound']}, bound/3 {bounds[name]['bound'] / 3:.4f})")
        if name != "setup_s" and summary[name]["spread"] > bounds[name]["bound"]:
            ok = False
            line += " OVER BOUND"
        print(line, flush=True)
    return ok, {"summary": summary, "runs": runs, "machine": record.get("machine")}


def worsening(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return -change if better == "higher" else change


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--baseline", help="write every set and a traced run of each workload here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))
    seconds = spec["run_seconds"]
    report: dict = {"seeds": seeds, "run_seconds": seconds, "sets": []}
    ok = True
    for number in range(1, args.sets + 1):
        print(f"set {number}", flush=True)
        workloads = {}
        for workload in args.workloads:
            passed, workloads[workload] = run_set(workload, seeds, seconds, bounds)
            ok = ok and passed
        report["sets"].append({"workloads": workloads})
    first = report["sets"][0]["workloads"]
    for number, later in enumerate(report["sets"][1:], start=2):
        for workload, entry in later["workloads"].items():
            for name, stats in entry["summary"].items():
                worse = worsening(first[workload]["summary"][name]["median"], stats["median"],
                                  bounds[name]["better"])
                stats["worse_than_set1"] = worse
                flag = " OVER BOUND" if worse > bounds[name]["bound"] else ""
                ok = ok and not flag
                print(f"  set {number} {workload:<13} {name:<14} median worse than set 1 by "
                      f"{worse:+.4f} (bound {bounds[name]['bound']}){flag}")
    if args.baseline:
        report["traced"] = {}
        for workload in args.workloads:
            passed, result, record = run_once(workload, 1, seconds, 1)
            ok = ok and passed
            report["traced"][workload] = {
                "seed": 1,
                "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
                "commands": record.get("commands"),
            }
            shares = record.get("commands", {}).get(run.WORKLOADS[workload].command, {}).get("share", {})
            print(f"{workload} traced: share of the measured command's time by layer: "
                  + ", ".join(f"{name} {share:.3f}" for name, share in sorted(shares.items())), flush=True)
        Path(args.baseline).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
