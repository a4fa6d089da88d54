"""Job records and helpers shared by the four workloads."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

# Jobs generated per seed; a run cycles through them in order.
POOL_SIZE = 400


@dataclass(frozen=True)
class Job:
    """One request of a workload's closed-loop stream.

    ``run(payload)`` is what a user would do (parse, compute, render);
    ``check(payload, result, memo)`` returns (ok, answer text) and may
    read or write ``memo``, which lives for one run.
    """

    cls: str
    payload: object
    run: Callable
    check: Callable
    label: str | None = None
    meta: dict = field(default_factory=dict)


def make_pool(workload: str, seed: int, schedule, makers) -> list[Job]:
    """Fill the pool by cycling through a fixed class schedule.

    The schedule fixes the mix; the seed only chooses each job's details,
    so every seed yields the same proportions of job classes.
    """
    rng = random.Random(f"{workload}:{seed}")
    pool = []
    while len(pool) < POOL_SIZE:
        for cls in schedule:
            pool.extend(makers[cls](rng))
    return pool[:POOL_SIZE]


def braid_components(strands: int, word) -> int:
    """Components of a braid closure, from its permutation; computed here
    rather than by rtfactor.diagram, since the answer checks use it."""
    perm = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = set()
    count = 0
    for start in range(strands):
        if start in seen:
            continue
        count += 1
        j = start
        while j not in seen:
            seen.add(j)
            j = perm[j]
    return count


def random_word(rng, strands: int, length: int) -> list[int]:
    """A braid word whose consecutive letters never cancel."""
    word = []
    while len(word) < length:
        letter = rng.choice((1, -1)) * rng.randint(1, strands - 1)
        if word and word[-1] == -letter:
            continue
        word.append(letter)
    return word
