"""Ground-truth engines: brute-force Max-SAT and analytic expectations.

``exact_maxsat`` enumerates all 2^n assignments (capped at n <= 26) and
defines OPT for every ratio check in the test suite.  It counts unsatisfied
clauses: a clause is false on one subcube of the rows, its variables fixed at
their falsifying values.  A block of at most 2^20 rows is a count array of
shape ``(2,) * outer + (2**inner,)``, the last ``inner`` variables one
contiguous axis; a clause indexes it at its outer literals' falsifying values
and adds the AND of its inner literals' falsifying columns (or 1) into that
strided view.  Counts are the smallest of ``uint8``, ``uint16`` and
``uint32`` that holds m.  For n > 20 the top n - 20 variables index the
blocks; inside a block they are constants, so a clause is either satisfied
outright or loses those literals, and memory stays flat in n.
``expected_satisfied`` computes the exact rational expectation of the
satisfied-clause count under independent p-biased variables; for clauses of
width <= k it coincides with the average over any enumerated k-universal
family with marginal p = t/q.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import pairwise

import numpy as np

from satmeter.formula import Assignment, CapError, Formula

ORACLE_VAR_CAP = 26
_BLOCK_BITS = 20  # enumerate assignments in blocks of 2^20 rows
_INNER_BITS = 10  # a block's last variables, one contiguous axis


def _restrict(
    formula: Formula, block: int, high: int
) -> tuple[int, list[list[int]]]:
    """Fix x1..x_high to the bits of ``block`` (x1 most significant).

    Returns the number of clauses a fixed literal satisfies and the other
    clauses, reduced to their free literals.  Clauses left with no literal
    are unsatisfied and dropped.
    """
    const = 0
    reduced = []
    flat = formula.lits.tolist()
    for a, b in pairwise(formula.offsets.tolist()):
        free = []
        for lit in flat[a:b]:
            var = abs(lit)
            if var > high:
                free.append(lit)
            elif (block >> (high - var)) & 1 == (lit > 0):
                const += 1
                break
        else:
            if free:
                reduced.append(free)
    return const, reduced


def exact_maxsat(formula: Formula) -> tuple[int, Assignment]:
    """(OPT, witness); ties broken by lexicographically smallest witness."""
    n = formula.n
    if n > ORACLE_VAR_CAP:
        raise CapError(f"n={n} exceeds oracle cap {ORACLE_VAR_CAP}")
    if formula.m == 0:
        return 0, np.zeros(n, dtype=bool)
    low = min(n, _BLOCK_BITS)
    high = n - low
    inner = min(low, _INNER_BITS)
    outer = low - inner
    # falsify[v, j]: the rows where inner variable j is v; the first inner
    # variable is the most significant bit of the row index
    shifts = np.arange(inner - 1, -1, -1)[:, None]
    bits = (np.arange(1 << inner) >> shifts) & 1 == 1
    falsify = np.stack((~bits, bits))
    m = formula.m  # unsatisfied counts <= m
    dtype = np.uint8 if m < 1 << 8 else np.uint16 if m < 1 << 16 else np.uint32
    unsat = np.empty((2,) * outer + (1 << inner,), dtype=dtype)
    best_count = -1
    best_mask = 0
    for block in range(1 << high):  # ascending blocks: ascending masks
        const, reduced = _restrict(formula, block, high)
        unsat.fill(0)
        for clause in reduced:
            cube = [slice(None)] * outer
            hit = True  # the inner rows where the clause is false
            for lit in clause:
                var = abs(lit) - high - 1
                if var < outer:
                    cube[var] = int(lit < 0)
                else:
                    hit = hit & falsify[int(lit < 0), var - outer]
            view = unsat[(*cube, ...)]  # add through the view: no write-back
            view += hit
        idx = int(np.argmin(unsat))  # first minimum: smallest mask
        count = const + len(reduced) - int(unsat.flat[idx])
        if count > best_count:
            best_count, best_mask = count, (block << low) | idx
    # x1 is the most significant bit so that ascending masks are ascending
    # lexicographic assignments (phi(1), ..., phi(n))
    return best_count, (best_mask >> np.arange(n - 1, -1, -1)) & 1 == 1


def expected_satisfied(formula: Formula, p: Fraction) -> Fraction:
    """Exact E[#satisfied clauses] when each variable is 1 w.p. p.

    Per clause: 1 - prod(miss), miss = 1-p for a positive literal, p for a
    negative one.  Exact for any independence order >= the clause width.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    total = Fraction(0)
    flat = formula.lits.tolist()
    for a, b in pairwise(formula.offsets.tolist()):
        miss = Fraction(1)
        for lit in flat[a:b]:
            miss *= (1 - p) if lit > 0 else p
        total += 1 - miss
    return total
