"""Timing at reference speed, the measurement loop and the summary statistics.

The host's CPU speed wanders by tens of percent over seconds.  A fixed
pure-Python reference loop (no gl2aut code) is timed in short slices spread
through the whole run, and every timing is multiplied by

    REF_NOMINAL_S / (mean reference slice time of this run)

so numbers are reported as if the host ran at the nominal reference speed.
A single operation or set-up is scaled by the slices just before and just
after it, since the speed changes within a run; totals over a run are
scaled by the mean of all its slices.  Raw wall times are kept beside the
scaled ones.  A workload whose operations are whole processes times the same
loop in a fresh interpreter instead (``reference_process``).
"""

from __future__ import annotations

import inspect
import math
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

# One reference slice on the machine the benchmark was tuned on (Python
# 3.11, 2 vCPUs) takes about this long; the figure only fixes the unit.
REF_NOMINAL_S = 0.002
REF_ITERS = 3000
# A slice is taken before an operation once this much time has passed
# since the last one, so slices cover the run evenly (about 10% of it).
SLICE_EVERY_S = 0.02


def reference_work(iters: int = REF_ITERS) -> int:
    """Integer arithmetic, tuples, a dict and a list: the kind of work the
    library does, with no gl2aut code."""
    acc, seen, out = 1, {}, []
    for i in range(iters):
        k = (i * 7919 + acc) % 1021
        acc = (acc * 31 + k * k) % 65521
        pair = (k & 63, acc & 7)
        seen[pair] = seen.get(pair, 0) + 1
        if acc & 1:
            out.append(pair)
    return acc + len(seen) + len(out)


# The same loop run in a fresh interpreter, and about what that takes here:
# the reference for a workload whose every operation is a fresh process.
# Interpreter start-up slows less than the loop when the host is slow, so a
# loop timed in-process over-corrects such operations.
PROCESS_REF_NOMINAL_S = 0.1
PROCESS_SLICE_EVERY_S = 0.3
_PROCESS_REF_CODE = (f"REF_ITERS = {REF_ITERS}\n" + inspect.getsource(reference_work)
                     + "reference_work()\n")


def reference_process() -> None:
    subprocess.run([sys.executable, "-c", _PROCESS_REF_CODE], check=True)


class Meter:
    """Reference slices, taken throughout a run."""

    def __init__(self, work=reference_work, nominal: float = REF_NOMINAL_S,
                 every: float = SLICE_EVERY_S):
        self.work, self.nominal, self.every = work, nominal, every
        self.slices: list[float] = []
        self.ends: list[float] = []
        self._last = -math.inf

    def slice(self) -> None:
        t0 = time.perf_counter()
        self.work()
        t1 = time.perf_counter()
        self.slices.append(t1 - t0)
        self.ends.append(t1)
        self._last = t1

    def maybe_slice(self) -> None:
        if time.perf_counter() - self._last >= self.every:
            self.slice()

    def factor(self) -> float:
        """Multiply a total over the run by this to get it at reference speed."""
        return self.nominal / (sum(self.slices) / len(self.slices))

    def scaled(self, samples) -> list[float]:
        """(start, duration) pairs in time order -> durations at reference
        speed, each scaled by the mean of the slices that bracket it."""
        out, i, n = [], 0, len(self.ends)
        for t0, dt in samples:
            while i + 1 < n and self.ends[i + 1] <= t0:
                i += 1
            j = i
            while j + 1 < n and self.ends[j] < t0 + dt:
                j += 1
            out.append(dt * 2 * self.nominal / (self.slices[i] + self.slices[j]))
        return out


@dataclass
class Op:
    """One timed operation.  ``run`` returns the output; ``check`` returns
    None when the output is right, "failed" when the program reported an
    error, or a description of what is wrong.  ``before`` runs untimed
    ahead of the operation (for example to drop a cache users never have)."""

    label: str
    run: object
    check: object
    before: object = None


@dataclass
class Tally:
    samples: list = field(default_factory=list)     # (start, raw seconds), all ops
    done: list = field(default_factory=list)        # indices of completed ops
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    rounds: int = 0


def run_round(ops, meter: Meter, tally: Tally) -> None:
    """Run every operation once."""
    for op in ops:
        if op.before is not None:
            op.before()
        meter.maybe_slice()
        t0 = time.perf_counter()
        try:
            out = op.run()
            err = None
        except Exception as exc:  # a failing operation is counted, not fatal
            out, err = None, exc
        dt = time.perf_counter() - t0
        tally.samples.append((t0, dt))
        tally.attempted += 1
        verdict = "failed" if err is not None else op.check(out)
        if verdict == "failed":
            tally.failed += 1
        else:
            tally.done.append(len(tally.samples) - 1)
            if verdict is not None and len(tally.problems) < 20:
                tally.problems.append(f"{op.label}: {verdict}")
    tally.rounds += 1


def measure(ops, meter: Meter, seconds: float) -> Tally:
    """Whole rounds of the same operations until ``seconds`` have passed."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        run_round(ops, meter, tally)
        if time.perf_counter() - start >= seconds:
            break
    meter.slice()
    return tally


def nearest_rank(values, pct: float) -> float:
    s = sorted(values)
    return s[max(math.ceil(pct / 100 * len(s)) - 1, 0)]


def median(values) -> float:
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
