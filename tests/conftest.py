"""Shared corpus generators for the test suite.

Generators emit formulas with pairwise-distinct clauses.  ``Formula`` does
not enforce that: it keeps duplicate clauses and counts them with
multiplicity.  The 2-satisfiable transform collapses duplicated unit clauses
into one, so ``ls_solve`` can miss its 0.618 bound on such formulas (a known
defect), and this corpus does not exercise them.
"""

from __future__ import annotations

import math
import random

from satmeter.formula import Formula
from satmeter.planar import gen_planar_instance


def as_dict(phi) -> dict[int, int]:
    """An assignment vector as the ``{var: 0/1}`` dict that reference code reads."""
    return {var: int(value) for var, value in enumerate(phi, start=1)}


def random_formula(
    rng: random.Random, n: int, m: int, r: int, min_width: int = 1
) -> Formula:
    """m distinct non-tautological clauses of widths min_width..r on n vars."""
    seen: set[tuple[int, ...]] = set()
    clauses: list[tuple[int, ...]] = []
    budget = 0
    for w in range(min_width, r + 1):
        budget += math.comb(n, w) * (1 << w)
    m = min(m, budget)
    while len(clauses) < m:
        w = rng.randint(min_width, r)
        vs = rng.sample(range(1, n + 1), min(w, n))
        clause = tuple(sorted(v if rng.random() < 0.5 else -v for v in vs))
        if clause in seen:
            continue
        seen.add(clause)
        clauses.append(clause)
    return Formula(n=n, clauses=tuple(clauses), r=r)


def random_positive_units_formula(
    rng: random.Random, n: int, m: int, r: int
) -> Formula:
    """2-satisfiable formula: units all positive, other clauses width >= 2.

    Any two clauses are simultaneously satisfiable: two positive units
    always are, and a width->=2 clause always has a literal avoiding any
    single unit's variable constraint.
    """
    seen: set[tuple[int, ...]] = set()
    clauses: list[tuple[int, ...]] = []
    budget = n + sum(math.comb(n, w) * (1 << w) for w in range(2, r + 1))
    m = min(m, budget)
    while len(clauses) < m:
        if rng.random() < 0.3:
            clause = (rng.randint(1, n),)
        else:
            w = rng.randint(2, max(r, 2))
            vs = rng.sample(range(1, n + 1), min(w, n))
            if len(vs) < 2:
                continue
            clause = tuple(
                sorted(v if rng.random() < 0.5 else -v for v in vs)
            )
        if clause in seen:
            continue
        seen.add(clause)
        clauses.append(clause)
    return Formula(n=n, clauses=tuple(clauses), r=r)


def two_chains() -> Formula:
    """Chains of 12 variables at seeds 0 and 1, the second on variables 13-24.

    At band modulus k = 5 the partition deletes residue 2 and keeps the dummy
    variable, which joins the first clause of each chain into one part.
    """
    first = gen_planar_instance("chain", 12, seed=0)
    second = gen_planar_instance("chain", 12, seed=1)
    shifted = tuple(tuple(lit + 12 if lit > 0 else lit - 12 for lit in c)
                    for c in second.clauses)
    return Formula(n=24, clauses=first.clauses + shifted)
