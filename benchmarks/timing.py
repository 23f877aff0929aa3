"""Operation timing with host-speed normalisation and failure accounting.

The 2-vCPU host this benchmark was written on changes speed by up to 2x,
for seconds to minutes at a time, because other tenants share its cores.
CPU time moves with wall time, so measuring CPU time does not help. While
a ``HostSpeed`` sampler is active, a wall-clock timer signal runs a fixed
~1.5 ms calibration kernel every ``SAMPLE_INTERVAL_S``, wherever the
program is. The kernel mixes interpreted Python, small numpy vector-matrix
products and scalar numpy calls, like slotmesh's hot paths. Python runs
the handler in the main thread between bytecodes, so the kernel's time
lies wholly inside or wholly outside any measured interval, and it is
subtracted from the interval. The interval's raw seconds are then
multiplied by ``NOMINAL_KERNEL_S`` over the mean kernel time during the
interval (widened by ``WIDEN_S`` for intervals shorter than
``MIN_SAMPLES`` samples). The result is seconds at a fixed nominal host
speed. Raw seconds are kept beside the normalised ones.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

# Median kernel time over a 4-minute sample on the reference host (2 vCPU
# Xeon, CPython 3.11, numpy 2.4). Normalised seconds are seconds at the
# host speed at which the kernel takes this long.
NOMINAL_KERNEL_S = 0.0017
SAMPLE_INTERVAL_S = 0.05
MIN_SAMPLES = 3
WIDEN_S = 0.5

_FRAME = np.full((48, 48), 1.0 / 48)


def kernel() -> float:
    """Run the calibration kernel once; return a value that depends on
    every step, so that none of it can be skipped."""
    acc = 0.0
    table = {}
    for i in range(1600):
        acc += math.sqrt(i) * 0.5
        table[i & 255] = acc
    x = np.full(48, 1.0 / 48)
    for _ in range(130):
        x = 0.5 * (x + x @ _FRAME)
        x /= x.sum()
    for k in range(100):
        acc += float(np.exp(-0.01 * k)) * float(x[k % 48])
    return acc + len(table)


class HostSpeed:
    """Samples the calibration kernel on a wall-clock timer while active
    (a context manager; one active sampler per process)."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def __enter__(self):
        self._sample(None, None)  # so that every later interval has a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def spent(self, start: float, end: float) -> float:
        """Kernel seconds inside ``[start, end]``."""
        return sum(self.seconds[bisect_left(self.starts, start):
                                bisect_left(self.starts, end)])

    def factor(self, start: float, end: float) -> float:
        """Nominal over observed kernel time around ``[start, end]``."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        if hi - lo < MIN_SAMPLES:
            lo = bisect_left(self.starts, start - WIDEN_S)
            hi = bisect_left(self.starts, end + WIDEN_S)
        if hi == lo:
            raise RuntimeError("no host-speed sample near the interval")
        return NOMINAL_KERNEL_S / statistics.fmean(self.seconds[lo:hi])

    def normalise(self, start: float, end: float) -> tuple[float, float]:
        """Raw seconds (kernel time removed) and normalised seconds."""
        raw = end - start - self.spent(start, end)
        return raw, raw * self.factor(start, end)


@dataclass
class OpRecord:
    key: str
    start: float
    end: float = math.nan
    work: float = 0.0
    error: str | None = None  # exception type name, or "Mismatch"
    detail: str | None = None
    raw_s: float = math.nan
    norm_s: float = math.nan

    def mismatch(self, detail: str | None) -> None:
        if detail is not None:
            self.error, self.detail = "Mismatch", detail


@dataclass
class PassRecord:
    traced: bool
    ops: list[OpRecord]
    raw_s: float
    norm_s: float
    factor: float
    layers: dict = field(default_factory=dict)

    @property
    def work(self) -> float:
        return sum(op.work for op in self.ops)


class Timer:
    """Times operations while a ``HostSpeed`` sampler runs.

    ``op`` never lets an exception escape unless asked to: a failed
    operation is recorded with its exception type and the workload goes on.
    """

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.ops: list[OpRecord] = []
        self.check_s = 0.0  # raw seconds spent in checks, kept off the clock

    def op(self, key, fn, *args, work=0.0, check=None, reraise=False, **kwargs):
        """Time ``fn(*args, **kwargs)``; ``check(output)`` returns what is
        wrong with the output, or ``None``, and runs after the clock stops.
        ``work`` may be a callable of the output."""
        record = OpRecord(key=key, start=time.perf_counter())
        self.ops.append(record)
        try:
            output = fn(*args, **kwargs)
        except Exception as exc:
            record.end = time.perf_counter()
            record.error, record.detail = type(exc).__name__, str(exc)
            if reraise:
                raise
            return None
        record.end = time.perf_counter()
        record.work = work(output) if callable(work) else work
        if check is not None:
            record.mismatch(check(output))
            done = time.perf_counter()
            self.check_s += done - record.end - self.speed.spent(record.end, done)
        return output

    def measure_pass(self, workload, traced: bool) -> PassRecord:
        """Run one pass of ``workload``; normalise each operation and the
        pass as a whole (time between operations, checks excluded, at the
        pass's mean host speed). A workload may check its outputs after
        the pass in ``check_pass(records)``."""
        first = len(self.ops)
        checks = self.check_s
        start = time.perf_counter()
        workload.run_pass(self)
        end = time.perf_counter()
        ops = self.ops[first:]
        if hasattr(workload, "check_pass"):
            workload.check_pass(ops)
        for op in ops:
            op.raw_s, op.norm_s = self.speed.normalise(op.start, op.end)
        raw = (end - start - self.speed.spent(start, end)
               - (self.check_s - checks))
        factor = self.speed.factor(start, end)
        between = raw - sum(op.raw_s for op in ops)
        return PassRecord(traced=traced, ops=ops, raw_s=raw,
                          norm_s=sum(op.norm_s for op in ops) + between * factor,
                          factor=factor)
