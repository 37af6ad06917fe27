"""Host-speed calibration: rescale a child's CPU time to one reference speed.

The VM the benchmark was tuned on (2 vCPUs of an Intel Xeon, Python
3.11.7) runs each vCPU at one of two speeds, about 1.7x apart, and switches
between them from one second to the next, independently per vCPU.  The
share of time spent at the slow speed drifts over minutes, so the median
wall time of a 30 s run moves with it by a quarter or more.  NOTES.md has
the measurements.

The benchmark therefore pins itself and its children to one vCPU, and
while a child runs, a ``Calibrator`` thread in the benchmark process runs a
fixed loop on that same vCPU.  The two share the vCPU in slices of a few
milliseconds, so the loop's rate, in rounds per second of its own CPU
time, is the host speed the child saw.  The child's CPU time (user +
system, from ``os.wait4``) times that rate over ``REFERENCE_RATE`` is the
CPU time the child would take at the reference speed.  The workloads are
single-threaded and CPU bound, so a child's CPU time is its wall time when
it has the vCPU to itself.

The loop is interpreter work of the kind effalg does (sum-table lookups
through a method, subset sums kept as integer bitmasks), so both slow down
alike; it never touches effalg, so a change to the program cannot move it.
"""

from __future__ import annotations

import os
import threading
from time import thread_time

# Calibration rounds per CPU second that define the reference speed.  The
# value only sets the scale: it is roughly the loop's rate on the VM
# described above at its fast speed, sharing its vCPU with an effalg child,
# so scaled times are of the order of that VM's wall times.
REFERENCE_RATE = 16500.0

# A child too short to give the loop this many rounds is calibrated by the
# rounds that follow its exit.
MIN_ROUNDS = 100

_N = 64
_FULL = (1 << _N) - 1


class _Chain:
    """Partial sums on a chain of ``_N`` elements: ``a + b`` while it fits."""

    def __init__(self) -> None:
        self.table = tuple(tuple(i + j if i + j < _N else None for j in range(_N))
                           for i in range(_N))
        self.up = tuple(_FULL ^ ((1 << i) - 1) for i in range(_N))

    def sum_of(self, a: int, b: int) -> int | None:
        return self.table[a][b]


_CHAIN = _Chain()


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def calibration_round() -> int:
    """Grow sums of growing multisets as bitmasks, as effalg's scans do."""
    alg, acc = _CHAIN, 0
    for first in range(0, _N, 4):
        psums, ub, total = 1, _FULL, 0
        for v in range(first, _N, 3):
            total = alg.sum_of(total, v)
            if total is None:
                break
            for p in _bits(psums):
                s = alg.sum_of(p, v)
                if s is not None and not psums >> s & 1:
                    psums |= 1 << s
                    ub &= alg.up[s]
            acc += ub.bit_count()
    return acc


class Calibrator:
    """Runs calibration rounds in a thread between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.rounds = 0
        self.cpu_s = 0.0

    def _run(self) -> None:
        start = thread_time()
        rounds = 0
        while rounds < MIN_ROUNDS or not self._stopping.is_set():
            calibration_round()
            rounds += 1
        self.cpu_s = thread_time() - start
        self.rounds = rounds

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> float:
        """Wait for the thread; return the speed factor, measured rate / ``REFERENCE_RATE``."""
        self._stopping.set()
        self._thread.join()
        return self.rounds / self.cpu_s / REFERENCE_RATE


def pin_to_one_cpu() -> int | None:
    """Pin this process, and the children it starts later, to one allowed CPU.

    Returns the CPU, or ``None`` where affinity cannot be set; the
    calibration then still runs but may sample another vCPU than the child.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu
