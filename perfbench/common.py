"""Shared helpers: percentiles, memory, digests, the result record."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import re
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median

#: Every read percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10

#: Closed loops run until this many samples exist, so p90 is defined
#: by the rule above, even on a machine slower than the one the run
#: length was chosen on.
MIN_SAMPLES = 100

#: A closed loop stops short of MIN_SAMPLES past this many multiples of
#: the requested run length (the benchmark must end in bounded time).
MAX_STRETCH = 2.0

WORK_DIR = ".perfbench_work"


class VerificationError(Exception):
    """The engine returned a wrong answer; the run is invalid."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated *q*-th percentile of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """The highest of p99/p90/p75/p50 with TAIL_SAMPLES samples beyond."""
    for q in (99, 90, 75, 50):
        if n * (100 - q) / 100.0 >= TAIL_SAMPLES:
            return q
    return 50


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(expected_digest: str, text: str, what: str) -> None:
    if digest(text) != expected_digest:
        raise VerificationError(f"wrong result for {what}: "
                                f"{text[:120]!r}")


def load_database(uri: str, xml: str, blob: str, warm_text: str):
    """A ``Database`` holding *xml* and its BLOB, returned once one
    warm-up query answered and the lazy shred and region-index builds
    are done (the span ``setup_s`` measures)."""
    from repro.xquery import Database

    db = Database()
    db.add_document(uri, xml)
    db.add_blob(uri + ".blob", blob)
    db.query(warm_text).serialize()
    stored = db.document(uri)
    _ = stored.shredded
    stored.region_index()
    return db


class CpuRotation:
    """Moves this thread to the next CPU it may run on, one step per
    call of :meth:`step`.

    On a shared host a neighbour slows one CPU at a time, for tens of
    seconds, and the CPUs then differ in speed by up to half.  A
    single-threaded loop the scheduler leaves on the slow CPU would be
    slow for its whole run; rotating spreads every run's samples evenly
    over all the CPUs the process was given, and labels each sample
    with its CPU so that :func:`group_p50` can take each CPU's median
    on its own.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def step(self) -> int:
        """Pin to the next CPU; returns it (-1 with only one CPU)."""
        if len(self.cpus) < 2:
            return -1
        cpu = self.cpus[self.turn % len(self.cpus)]
        os.sched_setaffinity(0, {cpu})
        self.turn += 1
        return cpu

    def restore(self) -> None:
        os.sched_setaffinity(0, self.cpus)


def repeated_setup(build, repeats: int, seconds: dict[int, list[float]]):
    """Run *build* *repeats* times, each from a collected heap and on
    the next CPU; adds the seconds each build took to *seconds* by CPU
    and returns the last result."""
    result = None
    cpus = CpuRotation()
    try:
        for _ in range(repeats):
            result = None
            gc.collect()
            cpu = cpus.step()
            start = time.perf_counter()
            result = build()
            seconds.setdefault(cpu, []).append(time.perf_counter() - start)
    finally:
        cpus.restore()
    return result


def reset_peak_rss() -> None:
    """Restart the peak-RSS watermark (so input generation is excluded)."""
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size of process *pid* in MB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            match = re.search(r"VmHWM:\s+(\d+)\s+kB", handle.read())
        if match:
            return int(match.group(1)) / 1024.0
    except OSError:
        pass
    if pid != "self":
        raise RuntimeError(f"cannot read the peak RSS of process {pid}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def work_dir(root: str) -> str:
    """The benchmark's working directory inside the checkout."""
    path = os.path.join(root, WORK_DIR)
    os.makedirs(path, exist_ok=True)
    return path


class Clock:
    """A run deadline: keep going until *seconds* passed and *minimum*
    samples exist, but never past ``MAX_STRETCH * seconds``."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.seconds = seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def done(self, samples: int, minimum: int = MIN_SAMPLES) -> bool:
        elapsed = self.elapsed()
        return (elapsed >= self.seconds and samples >= minimum) \
            or elapsed >= self.seconds * MAX_STRETCH


class ClosedLoop:
    """Bookkeeping of a closed loop: attempts, failures and latency
    samples per operation class, and per class and CPU; each operation
    runs on the next CPU (:class:`CpuRotation`) and is an ``op`` span
    when a tracer is given."""

    def __init__(self, seconds: float, tracer=None):
        self.clock = Clock(seconds)
        self.cpus = CpuRotation()
        self.span = (tracer.span if tracer is not None
                     else (lambda _name: nullcontext()))
        self.attempted = self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.by_cpu: dict[tuple[str, int], list[float]] = {}
        #: loop time in seconds, set by :meth:`finish`
        self.seconds = 0.0

    def measure(self, cls: str, operation):
        """Run *operation* once; returns ``(ok, result)``.  A
        ``ReproError`` is a failure; any other exception propagates."""
        from repro.errors import ReproError

        self.attempted += 1
        cpu = self.cpus.step()
        start = time.perf_counter()
        try:
            with self.span("op"):
                result = operation()
        except ReproError:
            self.failed += 1
            return False, None
        ms = (time.perf_counter() - start) * 1000.0
        self.samples.setdefault(cls, []).append(ms)
        self.by_cpu.setdefault((cls, cpu), []).append(ms)
        return True, result

    def completed(self) -> int:
        return sum(len(samples) for samples in self.samples.values())

    def finish(self) -> float:
        """End the loop; returns completed operations per second of
        loop time."""
        self.seconds = self.clock.elapsed()
        self.cpus.restore()
        return self.completed() / self.seconds


def group_p50(groups: dict) -> float:
    """The geometric mean of each group's median.

    The groups are kinds of operation, or kinds and CPUs.  Where kinds
    differ in cost by large factors, or CPUs in speed, the median of all
    samples pooled is the median of whichever group ranks in the middle,
    and jumps when two groups' samples overlap or their counts shift;
    each group's own median does not, and the geometric mean weighs a
    change to any group by its relative size.
    """
    medians = [median(values) for values in groups.values()]
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def setup_lines(seconds: dict[int, list[float]]) -> str:
    return "; ".join(f"CPU {cpu}: {[round(x, 4) for x in values]}"
                     for cpu, values in sorted(seconds.items()))


def latency_lines(label: str, samples_ms: list[float]) -> list[str]:
    """Human-readable median/tail lines for one class of operations."""
    if not samples_ms:
        return [f"{label}: no samples"]
    return [f"{label}_p{q}_ms = {percentile(samples_ms, q):.3f} ms "
            f"(n={len(samples_ms)})"
            for q in sorted({50, tail_percentile(len(samples_ms))})]


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int
    failed: int
    #: operations that completed (the per-layer metrics' divisor)
    ops: int
    #: end-to-end metric values (units from ``run.END_TO_END``)
    e2e: dict[str, float]
    lines: list[str] = field(default_factory=list)
    #: traced minus untraced wall time per operation (traced runs)
    overhead_ms: float | None = None
    #: layer metrics the workload measures itself (serving, errors)
    layers: dict[str, float] = field(default_factory=dict)
