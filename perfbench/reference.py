"""A fixed reference computation that measures the machine's current speed.

The host this benchmark was written on runs neighbours that slow its CPU
by up to a factor of two, for under a second to minutes at a time.  Every
worker runs `reference` right after the jetflow command, for as long as the
command took, so each command time has a reference time that sampled the
host over an equally long stretch of the same minute.  The command's time
divided by the reference's is then comparable between runs made at
different machine speeds.

The work mimics jetflow's own mix: recursive walks over a pool of small
expression trees a few megabytes large, copies of trees (allocation), float
math, dictionary lookups and tiny numpy solves.  It uses no jetflow code, so
no change to the program can move it.  The garbage collector is paused
while it runs, so the objects the command left alive do not change its
cost.
"""

from __future__ import annotations

import gc
import math
import random
import time

import numpy as np

POOL = 500           # trees in the pool
PER_ROUND = 40       # trees evaluated per round
MIN_ROUNDS = 10


class _Node:
    __slots__ = ("op", "a", "b", "v")

    def __init__(self, op, a=None, b=None, v=0.0):
        self.op, self.a, self.b, self.v = op, a, b, v


def _build(rng: random.Random, depth: int) -> _Node:
    if depth == 0 or rng.random() < 0.2:
        return _Node("x" if rng.random() < 0.5 else "c", v=rng.uniform(-1.0, 1.0))
    op = rng.choice(("+", "*", "sin", "-"))
    if op == "sin":
        return _Node(op, _build(rng, depth - 1))
    return _Node(op, _build(rng, depth - 1), _build(rng, depth - 1))


def _eval(node: _Node, env: dict) -> float:
    op = node.op
    if op == "x":
        return env["x"]
    if op == "c":
        return node.v
    if op == "sin":
        return math.sin(_eval(node.a, env))
    a = _eval(node.a, env)
    b = _eval(node.b, env)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    return a * b


def _copy(node: _Node) -> _Node:
    if node.a is None:
        return _Node(node.op, v=node.v)
    return _Node(node.op, _copy(node.a), None if node.b is None else _copy(node.b), node.v)


def _round(pool: list[_Node], k: int) -> float:
    acc = 0.0
    start = (k * PER_ROUND) % len(pool)
    for tree in pool[start:start + PER_ROUND]:
        acc += _eval(tree, {"x": 0.1}) + _eval(_copy(tree), {"x": -0.2})
    m = np.eye(3)
    for i in range(15):
        v = np.array([i * 1e-3, 1.0, 2.0])
        m = m @ np.outer(v, v) * 1e-3 + np.eye(3)
        acc += float(np.linalg.solve(m, v)[0])
    return acc


def reference(seconds: float) -> float:
    """Seconds per round of the fixed reference work, timed over at least
    `seconds` and MIN_ROUNDS rounds."""
    rng = random.Random(7)
    pool = [_build(rng, 9) for _ in range(POOL)]
    rng.shuffle(pool)
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        rounds = 0
        while True:
            _round(pool, rounds)
            rounds += 1
            elapsed = time.perf_counter() - t0
            if rounds >= MIN_ROUNDS and elapsed >= seconds:
                return elapsed / rounds
    finally:
        if enabled:
            gc.enable()
