"""Reference kernel that scales timings to a fixed machine speed.

The benchmark shares its machine with other jobs, and how fast that
machine runs Python drifts over tens of seconds: revocable elections
doing identical work ran at 1.0 and at 1.45 runs per second in runs a
few minutes apart on a 2-CPU VM.  Such drift is common to everything
running at that moment, so the benchmark times a
fixed pure-Python kernel right before and right after every operation
and scales the operation by ``REFERENCE_SECONDS`` over the mean of the
two kernel times.  A scaled time reads as the time on a machine where the
kernel takes ``REFERENCE_SECONDS``.  Every timed operation runs in this
process: the kernel did not track sweeps on pool workers, so
``sweep-faults`` times in-process sweeps.

The kernel imitates the simulator's inner loop (small message objects,
dict inboxes indexed through a port table, random access over a few MB)
and is part of the benchmark, not the program.  It runs with the garbage
collector off and touches only structures it allocated once, so the
program's heap does not leak into its time.  It runs in the benchmark's
own process, on the CPU and caches the operation just used: timed in a
separate process, it tracked the operations worse than no scaling.

Sharing the interpreter has a price: whatever the program leaves behind
that slows the whole interpreter slows the kernel as much and would
cancel out of the scaled times.  :func:`interpreter_state` lists the
ways a program can do that -- threads left running (one holding the GIL
halves the kernel's speed), a trace or profile hook, ``tracemalloc`` --
and the run loop fails an operation after which that state differs from
the state before set-up.  A slowdown of the interpreter through any
other route would still cancel; the as-measured times, printed beside
the scaled ones, show it.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import time
import tracemalloc
from typing import Dict

#: the kernel's median time on the reference machine (2-CPU Intel Xeon
#: VM, Python 3.11), in seconds
REFERENCE_SECONDS = 0.020

_NODES = 4096
_DEGREE = 8
_STEPS = 3000


class _Message:
    __slots__ = ("src", "value")

    def __init__(self, src: int, value: int) -> None:
        self.src = src
        self.value = value


class ReferenceKernel:
    """A fixed amount of simulator-like work, timed on demand."""

    def __init__(self) -> None:
        rng = random.Random(12345)
        self._ports = [[rng.randrange(_NODES) for _ in range(_DEGREE)] for _ in range(_NODES)]
        self._inboxes = [dict() for _ in range(_NODES)]
        self._best = [0] * _NODES

    def _work(self) -> None:
        ports, inboxes, best = self._ports, self._inboxes, self._best
        node = 0
        for step in range(_STEPS):
            targets = ports[node]
            outbox = {port: _Message(node, best[node] + port) for port in range(_DEGREE)}
            for port, message in outbox.items():
                inboxes[targets[port]][port] = message
            inbox = inboxes[node]
            if inbox:
                best[node] = max(m.value for m in inbox.values()) % 1000003
                inbox.clear()
            node = targets[step % _DEGREE]
        for inbox in inboxes:
            inbox.clear()

    def time(self) -> float:
        """Seconds the kernel takes right now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._work()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two kernel timings into reference time."""
    return REFERENCE_SECONDS / ((before + after) / 2)


def interpreter_state() -> Dict[str, object]:
    """What in this interpreter would slow the kernel as much as the program."""
    return {
        "threads": threading.active_count(),
        "trace hook": sys.gettrace() is not None,
        "profile hook": sys.getprofile() is not None,
        "tracemalloc": tracemalloc.is_tracing(),
    }
