"""Host-speed probe: takes a shared machine's speed drift out of times.

On a shared host the same simulation runs up to ~25% slower for stretches
of seconds to minutes, because other tenants contend for the caches,
memory and cores.  Raw medians then drift between runs by more than the
benchmark's bounds.  A fixed probe slows down with the simulator: the
geometric mean of a pointer chase over ~8 MB of objects (memory latency)
and a dict-and-integer loop (interpreter throughput).  Of the probes
tried on the reference host, it tracked every workload best: it halved
the spread of 25-second medians.

The benchmark probes right before and right after every timed region and
divides the region's seconds by the mean of the two slowdowns (probe time
over ``REFERENCE_PROBE_S``).  The result is in *reference seconds*: what
the work would take on the reference host at its usual speed.  The probe
is the benchmark's own code and identical on every commit it compares, so
a change to the simulator moves the measured seconds and never the probe.

The chase structure lives in a helper process, so it adds nothing to the
benchmark's own peak RSS.  Run this file directly to be that helper: it
answers each input line with one probe time and exits at end of input.
"""

from __future__ import annotations

import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Median probe time on the reference host (2-vCPU x86-64 VM, CPython 3.11).
REFERENCE_PROBE_S = 0.0125
PROBE_REPEATS = 2
CHASE_NODES = 150_000
CHASE_STEPS = 30_000
LOOP_STEPS = 60_000


class _Node:
    __slots__ = ("next", "value")


def _ring(size: int) -> _Node:
    """One cycle through ``size`` nodes in a fixed random order."""
    nodes = [_Node() for _ in range(size)]
    order = list(range(size))
    random.Random(0).shuffle(order)
    for i, at in enumerate(order):
        nodes[at].next = nodes[order[(i + 1) % size]]
        nodes[at].value = i
    return nodes[0]


def _chase(start: _Node) -> float:
    t0 = time.perf_counter()
    node = start
    acc = 0
    for _ in range(CHASE_STEPS):
        node = node.next
        acc += node.value
    return time.perf_counter() - t0


def _loop() -> float:
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(LOOP_STEPS):
        table[i & 1023] = acc
        acc = (acc * 31 + i) & 0xFFFFF
        if acc & 7 == 0:
            acc += len(table)
    return time.perf_counter() - t0


def serve() -> None:
    start = _ring(CHASE_NODES)
    for _ in sys.stdin:
        samples = [math.sqrt(_chase(start) * _loop()) for _ in range(PROBE_REPEATS)]
        print(statistics.median(samples), flush=True)


class HostSpeed:
    """Probe samples taken through one benchmark run, via the helper."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._helper = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def probe(self) -> float:
        """The host's current slowdown: probe time over the reference."""
        self._helper.stdin.write("probe\n")
        self._helper.stdin.flush()
        sample = float(self._helper.stdout.readline()) / REFERENCE_PROBE_S
        self.samples.append(sample)
        return sample

    @property
    def slowdown(self) -> float:
        """Median slowdown over the run: above 1 means a slow stretch."""
        return statistics.median(self.samples)

    def close(self) -> None:
        try:
            self._helper.stdin.close()
            self._helper.wait(timeout=60)
        finally:
            if self._helper.poll() is None:
                self._helper.kill()
                self._helper.wait()
            self._helper.stdout.close()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullHost:
    """Stands in for :class:`HostSpeed` where times are not normalized."""

    def probe(self) -> float:
        return 1.0


NULL_HOST = NullHost()


if __name__ == "__main__":
    serve()
