"""Host-speed probes that put the benchmark's times on a steady scale.

On the shared 2-core host the benchmark was defined on, neighbours slow all
CPU work 1.5-2x for phases lasting from seconds to minutes, so a whole
30-second run can land in a slow phase.  A fixed pure-Python loop timed
right before and right after a measurement slows by the same factor: over a
75-second trace, window medians of a serial n = 256 sweep ranged from 25.5
to 41.2 ms per replicate while sweep time / probe time stayed within
2.37-2.58.  Each reported time is therefore the measured time scaled to a
host on which the probe takes ``NOMINAL_MS``; the raw times and probe times
are kept in the result file.

A serial sweep is scaled by the probe of its own process.  A ``--workers 2``
sweep uses both cores, so it is scaled by the mean of two probes run at the
same time in two processes (:class:`TwoCoreProbe`).
"""

from __future__ import annotations

import subprocess
import sys
import time

LOOP = 100_000
# Probe time on that host in a quiet phase (CPython 3.11, Xeon, 2 vCPUs).
NOMINAL_MS = 7.0


def probe_ms() -> float:
    """Wall time in ms of a fixed CPython integer loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def at_nominal_speed(value: float, probe_before: float, probe_after: float) -> float:
    """``value`` rescaled from the host speed the two probes saw to the nominal one."""
    return value * NOMINAL_MS * 2.0 / (probe_before + probe_after)


class TwoCoreProbe:
    """The probe in this process and in a helper process at the same time.

    The helper blocks on its stdin between probes, so it takes no CPU while a
    sweep runs.  Use as a context manager; leaving it stops the helper.
    """

    def __init__(self) -> None:
        self.helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        own = probe_ms()
        return (own + float(self.helper.stdout.readline())) / 2.0

    def __enter__(self) -> "TwoCoreProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()


def _serve() -> None:
    for _ in sys.stdin:
        sys.stdout.write(f"{probe_ms()!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
