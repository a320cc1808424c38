"""A fixed reference task that tracks how fast a shared host runs right now.

The benchmark's host is shared: other tenants contend for its caches and
memory and slow every process on it, by up to 2x for seconds to minutes at
a time, and the guest cannot see this as steal time. The reference task does
fixed work of the kinds the pipeline does, on a working set of similar size
(parsing a 20k-row CSV into tuples and a dict, and boolean column reductions
over a 20k x 256 matrix), and uses nothing from edcr, so a change to edcr
cannot change its time. Timing it just before and just after a measured
interval gives the host's speed during that interval, and ``scaled``
converts the interval's wall time to seconds on a host where the task takes
``REFERENCE_S``.

The task runs in a child process (``ReferenceProcess``) while the measured
process waits, so its memory never counts toward the measured process's peak
and its garbage collections never scan the measured process's heap.
"""
from __future__ import annotations

import csv
import io
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

# Wall time of one reference_time() call on the quiet 2-vCPU Xeon host the
# benchmark was defined on; only a scale, so every scaled time reads in
# seconds of that host.
REFERENCE_S = 0.25

_ROWS = "\n".join(f"s{k:05d},{'walk' if k % 3 else 'bike'},bus" for k in range(20000))
_UNITS = 8


def _unit(bits: np.ndarray) -> int:
    rows = list(csv.reader(io.StringIO(_ROWS)))
    by_id = {row[0]: (row[1], row[2]) for row in rows}
    total = len(by_id)
    for j in range(0, bits.shape[1], 16):
        total += int(np.count_nonzero(bits[:, j : j + 16].any(axis=1)))
    return total


def reference_time() -> float:
    start = time.perf_counter()
    bits = np.random.default_rng(0).integers(0, 20, size=(20000, 256), dtype=np.uint8) == 0
    for _ in range(_UNITS):
        _unit(bits)
    return time.perf_counter() - start


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` of wall time measured between two reference timings,
    expressed at the reference host's speed."""
    return seconds * REFERENCE_S / ((ref_before + ref_after) / 2.0)


class ScaledTimer:
    """Sums the wall time of measured steps, and the same time with each step
    scaled by the reference timings just before and just after it. Short
    steps track changes of host speed better than one long interval."""

    def __init__(self, reference: "ReferenceProcess") -> None:
        self._reference = reference
        self._ref = reference.time()
        self._wall = self._scaled = 0.0

    @contextmanager
    def step(self):
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        ref = self._reference.time()
        self._wall += elapsed
        self._scaled += scaled(elapsed, self._ref, ref)
        self._ref = ref

    def take(self) -> tuple[float, float]:
        """(wall, scaled) seconds of the steps since the last take; the last
        reference timing carries over to the next step."""
        out = (self._wall, self._scaled)
        self._wall = self._scaled = 0.0
        return out


class ReferenceProcess:
    """A child process that runs the reference task on request."""

    def __enter__(self) -> "ReferenceProcess":
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        return self

    def time(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("reference process exited")
        return float(line)

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(reference_time(), flush=True)
