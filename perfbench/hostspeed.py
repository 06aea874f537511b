"""How fast the host ran while the benchmark measured.

This machine is a few virtual CPUs of a shared host, and the host's speed
drifts with what its other tenants run: a fixed piece of pure-Python and
numpy work takes up to twice as long from one minute to the next, while
neither the process's CPU time nor the kernel's stolen-time count shows
it.  Every measured sweep therefore also times :func:`reference_time`, a
fixed computation owned by the benchmark (the program under test never
runs it), next to what it times: after set-up, which is also just
before the sweep, before the resumes and at the end.  ``run.py`` rescales
each timing by the calibrations next to it, to a host on which the
reference takes :data:`REFERENCE_S`:

    time at reference speed = measured time * REFERENCE_S / calibration

so a change to the program moves the metrics and a change of host load
mostly does not.  Timings of the sweep's own process (set-up, resume)
use its own calibrations; timings that span its workers (first record,
the sweep's wall) use those of every CPU (see :func:`calibrate`).  The
raw medians are printed beside the rescaled ones.
"""

from __future__ import annotations

import os
import statistics
import time

#: Calibration time (seconds) of the reference host the metrics are
#: rescaled to: a round figure within the range :func:`reference_time`
#: takes on a 2-vCPU Intel Xeon guest (Python 3.11, numpy 2.4), where it
#: read 0.006 to 0.012 s as the host's load changed.
REFERENCE_S = 0.0100
#: Repetitions of the reference computation per calibration.
REPS = 9


def calibrate(processes: int = 1) -> "list[float]":
    """:func:`reference_time` in ``processes`` processes at once.

    The first value is this process's own.  The others come from forked
    copies that run at the same time, so that each lands on another CPU
    and a sweep whose workers used several CPUs is matched by a sample
    of each.
    """
    readers = []
    for _ in range(processes - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                os.write(write_fd, repr(reference_time()).encode("ascii"))
            finally:
                os._exit(0)
        os.close(write_fd)
        readers.append((pid, read_fd))
    times = [reference_time()]
    for pid, read_fd in readers:
        with os.fdopen(read_fd, encoding="ascii") as handle:
            reply = handle.read()
        os.waitpid(pid, 0)
        times.append(float(reply))
    return times


def reference_time(reps: int = REPS) -> float:
    """Median wall time of one fixed reference computation, in seconds.

    The computation mixes what the program spends its time on: dict and
    list work in the interpreter (spec handling, record building, store
    lines) and numpy passes over arrays of 10^5 elements (the batched
    and ensemble engines).
    """
    import numpy as np

    values = np.random.default_rng(12345).integers(0, 1000, 100_000)
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        table: dict = {}
        items = []
        for i in range(12_000):
            key = i % 97
            table[key] = table.get(key, 0) + i
            items.append((key, i))
        items.sort()
        for _ in range(4):
            np.bincount(values, minlength=1000).argmax()
            np.cumsum(values)[values[:5000]].sum()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def cpu_jiffies() -> "tuple[int, int] | None":
    """Host-wide ``(stolen, total)`` CPU time from ``/proc/stat``.

    Stolen time is time a virtual CPU was ready but the hypervisor ran
    something else; its share over a run says how contended the host was.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_share(jiffies_at_start) -> "float | None":
    """Share of all CPU time stolen by the hypervisor since ``cpu_jiffies``."""
    now = cpu_jiffies()
    if jiffies_at_start is None or now is None:
        return None
    total = now[1] - jiffies_at_start[1]
    return round((now[0] - jiffies_at_start[0]) / total, 4) if total else 0.0
