"""Host speed probe: a fixed pure-Python task, timed between commands.

On a shared virtual machine the interpreter's speed swings by up to a
factor of two, in stretches from about a second to minutes. Process CPU
time swings with wall time and no steal time shows, so the swing is slower
execution, not lost turns, and neither clock can hide it. The benchmark
therefore times this probe just before and just after every command and
scales the command's wall time by ``REFERENCE_S`` over the mean of the two
probe times, giving the time the command would take at the host's typical
speed. The probe does the kind of work answertree does: word sets, dict
counts and float arithmetic in the interpreter, on data that fits in cache.
Its time is the fastest of ``REPEATS`` runs, so a single interrupted run
does not count.

The speed flips between a fast and a slow state about once a second, on
each CPU on its own, so a probe at a command's two ends cannot follow every
swing inside it; what it removes is the drift over tens of seconds to
minutes that shifts whole runs. Over six sets of 5 to 10 seeds of 25 s runs,
scaling brought the mean quartile spread across seeds of the measured
command's time from 0.13 to 0.10, and of ``train``'s from 0.13 to 0.09.
Raw wall times stay in each run's results file.
"""

from __future__ import annotations

import math
import random
import time

# The probe's typical time on the machine the baseline was measured on (a
# 2-vCPU Xeon VM at 2.1 GHz, CPython 3.11.7). Scaled times are in seconds
# of that machine at its typical speed.
REFERENCE_S = 0.0185
REPEATS = 7
ROUNDS = 25

_rng = random.Random("hostspeed")
_WORDS = [f"w{i}" for i in range(2000)]
_DOCS = [frozenset(_rng.sample(_WORDS, 8)) for _ in range(400)]


def _task() -> float:
    bits = 0.0
    for _ in range(ROUNDS):
        counts: dict[str, int] = {}
        for doc in _DOCS:
            for word in doc:
                counts[word] = counts.get(word, 0) + 1
        total = sum(counts.values())
        bits -= sum(c / total * math.log2(c / total) for c in sorted(counts.values()))
    return bits


def probe_s() -> float:
    """Fastest wall time of ``REPEATS`` runs of the fixed task."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _task()
        times.append(time.perf_counter() - start)
    return min(times)


def scale(before_s: float, after_s: float) -> float:
    """Factor taking a wall time between two probes to reference seconds."""
    return 2.0 * REFERENCE_S / (before_s + after_s)
