"""A fixed reference kernel, timed around every untraced pass.

The benchmark's host is shared: its speed drifts by up to 2.5x over
minutes, and every pass slows with it.  So each untraced pass is also
reported in units of this kernel's time, measured right before and
right after it, on as many CPUs as the pass keeps busy.  The kernel
does what the flow does, in fixed amounts and with fixed data:
attribute and tuple walks over a small (cache-resident) and a larger
object graph, and numpy array work.  Nothing here depends on the
program under test.
"""

from __future__ import annotations

import multiprocessing
import random
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

#: The kernel runs for at least this share of the pass it follows, so
#: a longer pass gets a longer (steadier) sample of the host's speed.
SHARE = 0.15
#: ... and at least this many times.
MIN_REPEATS = 3


class _Node:
    __slots__ = ("x", "y", "fanout", "load")

    def __init__(self, rng: random.Random) -> None:
        self.x = rng.random()
        self.y = rng.random()
        self.fanout = ()
        self.load = 0.0


def _graph(n: int, seed: int) -> tuple[list[_Node], list[int]]:
    rng = random.Random(seed)
    nodes = [_Node(rng) for _ in range(n)]
    for node in nodes:
        node.fanout = tuple(nodes[rng.randrange(n)] for _ in range(3))
    order = list(range(n))
    rng.shuffle(order)
    return nodes, order


def _walk(nodes: list[_Node], order: list[int], rounds: int) -> float:
    total = 0.0
    for _ in range(rounds):
        for i in order:
            node = nodes[i]
            for other in node.fanout:
                d = abs(node.x - other.x) + abs(node.y - other.y)
                other.load += d
                total += d
    return total


def _numeric(a, b, index, rounds: int) -> float:
    total = 0.0
    for _ in range(rounds):
        total += float(np.sort(np.maximum(a * 1.1 + b, b[index]))[100])
    return total


def reference_s(pass_s: float = 0.0, cpus: int = 1) -> float:
    """Mean seconds of one kernel repeat now, over at least
    :data:`MIN_REPEATS` repeats and ``SHARE * pass_s`` seconds, on as
    many CPUs as the pass used: with ``cpus`` > 1, that many forked
    processes run the kernel at once and their means are averaged."""
    if cpus <= 1:
        return _timed(pass_s)
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(cpus, mp_context=context) as pool:
        return statistics.fmean(pool.map(_timed, [pass_s] * cpus))


def _timed(pass_s: float) -> float:
    """:func:`reference_s` in this process.  The data is built here and
    freed on return, outside the timed part, so it never adds to the
    peak memory of a pass."""
    small = _graph(2000, 1)
    large = _graph(20000, 2)
    rng = np.random.default_rng(0)
    arrays = (rng.random(20000), rng.random(20000),
              rng.integers(0, 20000, 20000))
    repeats = 0
    start = time.perf_counter()
    while (repeats < MIN_REPEATS
           or time.perf_counter() - start < SHARE * pass_s):
        _walk(*small, rounds=10)
        _walk(*large, rounds=1)
        _numeric(*arrays, rounds=65)
        repeats += 1
    return (time.perf_counter() - start) / repeats
