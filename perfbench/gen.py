"""Seeded instance generators for the benchmark workloads.

Nothing here imports satmeter: the instances, their DIMACS text and the
structure the reference solvers rely on all come from this file, so the
answer checks stay independent of the code under test.

Literals follow DIMACS (``3`` is x3, ``-3`` its negation); a clause is a
tuple of literals and an instance is ``(n, clauses)``.
"""

from __future__ import annotations

import math
import random


def random_cnf(rng: random.Random, n: int, m: int, r: int) -> list[tuple[int, ...]]:
    """m pairwise-distinct clauses of widths 1..r over n variables.

    The same shape as the tier-1 ratio corpus: widths uniform in 1..r,
    distinct variables inside a clause, fair-coin polarities.
    """
    budget = sum(math.comb(n, w) << w for w in range(1, r + 1))
    m = min(m, budget)
    seen: set[tuple[int, ...]] = set()
    clauses: list[tuple[int, ...]] = []
    while len(clauses) < m:
        w = rng.randint(1, r)
        vs = rng.sample(range(1, n + 1), min(w, n))
        clause = tuple(sorted(v if rng.random() < 0.5 else -v for v in vs))
        if clause not in seen:
            seen.add(clause)
            clauses.append(clause)
    return clauses


def planted_cnf(
    rng: random.Random, n: int, m: int, width: int, neg_share: float
) -> tuple[list[tuple[int, ...]], dict[int, int]]:
    """m distinct width-`width` clauses all satisfied by a hidden assignment.

    Each literal is negative with probability `neg_share`; a clause the
    hidden assignment misses gets one literal turned to agree with it, so
    OPT = m and the hidden assignment is the certificate.
    """
    sigma = {v: rng.randint(0, 1) for v in range(1, n + 1)}
    seen: set[tuple[int, ...]] = set()
    clauses: list[tuple[int, ...]] = []
    while len(clauses) < m:
        vs = rng.sample(range(1, n + 1), width)
        lits = [-v if rng.random() < neg_share else v for v in vs]
        if not any((lit > 0) == bool(sigma[abs(lit)]) for lit in lits):
            i = rng.randrange(width)
            lits[i] = -lits[i]
        clause = tuple(sorted(lits))
        if clause not in seen:
            seen.add(clause)
            clauses.append(clause)
    return clauses, sigma


def _lit(rng: random.Random, var: int) -> int:
    return var if rng.random() < 0.5 else -var


def grid(
    rng: random.Random, rows: int, cols: int, unit_every: int
) -> list[tuple[int, ...]]:
    """A 2-clause on every edge of a rows x cols grid, then a unit clause on
    every `unit_every`-th variable; all polarities random.

    Variable (i, j) is ``i * cols + j + 1``; the incidence graph is the
    subdivided grid with pendant unit clauses, hence planar.  The units sit
    at fixed places, so the graph, and with it the partition and the DP's
    frame count, depends on the shape alone; the seed moves polarities.
    Without units a random grid is nearly always fully satisfiable.
    """
    clauses: list[tuple[int, ...]] = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j + 1
            if j + 1 < cols:
                clauses.append((_lit(rng, v), _lit(rng, v + 1)))
            if i + 1 < rows:
                clauses.append((_lit(rng, v), _lit(rng, v + cols)))
    for v in range(unit_every, rows * cols + 1, unit_every):
        clauses.append((_lit(rng, v),))
    return clauses


def forest(
    rng: random.Random, n: int, chain: bool, unit_every: int
) -> list[tuple[int, ...]]:
    """A 2-clause per tree edge plus one unit clause on every `unit_every`-th
    variable on average, all polarities random.

    ``chain`` links i-1 -> i; otherwise i hangs off a uniform earlier
    vertex.  At most one unit per variable, so no clause repeats.
    """
    clauses: list[tuple[int, ...]] = []
    for i in range(2, n + 1):
        parent = i - 1 if chain else rng.randrange(1, i)
        clauses.append((_lit(rng, parent), _lit(rng, i)))
    for v in range(1, n + 1):
        if rng.randrange(unit_every) == 0:
            clauses.append((_lit(rng, v),))
    return clauses


def dup_units(k: int) -> list[tuple[int, ...]]:
    """(-x_i) three times and (x_i) once for i = 1..k; OPT = 3k.

    Fixed, not seeded: this is the duplicate-unit set on which the 0.618
    search is known to fall short (see README).
    """
    clauses: list[tuple[int, ...]] = []
    for v in range(1, k + 1):
        clauses += [(-v,), (-v,), (-v,), (v,)]
    return clauses


def dimacs(n: int, clauses: list[tuple[int, ...]]) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"
