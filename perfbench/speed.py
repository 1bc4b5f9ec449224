"""Fixed probes of the host's current speed.

On a small shared host the speed of the same code moves by half or more over
spells of 10 to 30 seconds, so raw round times of the same code spread past
any useful bound from run to run.  The benchmark times a probe between
cases, where it runs in the same conditions as the program's calls, and
rescales each round's times to the speed at which the probe takes its
reference time.  Each workload uses the probe of the work it spends its time
in: pure-Python rationals, dicts and strings, or single-threaded numpy array
updates.  The probes are the benchmark's own code: nothing the program does
changes them, the collector is off while they run, so the size of the
program's heap does not either, and the numpy probe calls no BLAS, so the
BLAS thread settings do not either.
"""
from __future__ import annotations

import functools
import gc
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

# Between cases a probe is taken once this much time has passed since the last.
PROBE_GAP_S = 0.25


def _python_work() -> int:
    """Rational sums, dict updates and string keys: the kinds of work that
    dominate ``claims``, ``synthesis`` and ``circuits``."""
    total = 0
    for _ in range(8):
        acc = Fraction(0)
        table: dict = {}
        for i in range(1, 300):
            acc += Fraction(1, i)
            key = f"q{i % 97}"
            table[key] = table.get(key, 0) + i
            total += len(key) + (i * i) % 7
        total += acc.numerator % 1000 + len(table)
    return total


@functools.lru_cache(maxsize=None)
def _state() -> np.ndarray:
    """The dense probe's fixed 2 MiB complex state, made on first use so that
    workloads on the pure-Python probe do not carry it in their peak RSS."""
    i = np.arange(2**17)
    return (i % 7 - 3.0) + 1j * (i % 5 - 2.0)


def _dense_work() -> float:
    """A 2x2 update along one axis and an axis-swapping copy of a 2 MiB
    complex state: the shape of the simulator's kernels."""
    total = 0.0
    for _ in range(4):
        w = _state().reshape(64, 2, -1)
        a = w[:, 0] * (0.6 + 0.8j) + w[:, 1] * 0.5
        b = np.ascontiguousarray(np.swapaxes(w, 0, 1))
        total += float(np.abs(a).sum()) + float(b.real.sum())
    return total


@dataclass(frozen=True)
class Probe:
    name: str
    work: Callable[[], object]
    ref_s: float  # the probe's time on the reference host in a quiet spell

    def time(self) -> float:
        """Wall time of one pass of the fixed work, with the collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.work()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def rescale(self, seconds: float, times: Sequence[float]) -> float:
        """``seconds`` as they would read at the reference speed, given the
        probe times taken alongside them (their median sets the speed)."""
        return seconds * self.ref_s / statistics.median(times)


PYTHON = Probe("python", _python_work, 0.0075)
DENSE = Probe("dense", _dense_work, 0.007)
