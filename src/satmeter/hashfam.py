"""Enumerable k-universal hash families of boolean functions.

The construction is the standard one: degree-(k-1) polynomials over a prime
field GF(q), thresholded to {0,1}.  For any k distinct points of [n] the
evaluation vector is uniform over [0,q)^k, so the thresholded bits are k-wise
independent with marginal t/q, where t = round(q*a/b) approximates the target
marginal a/b to within 1/(2q).

``family_search`` is the derandomized search both the 0.618 and the
sqrt(2)/2 solvers run: walk the family in enumeration order and stop at the
first candidate whose satisfied-clause count reaches the solver's integer
bound.  It walks block by block, the q candidates that share their
non-constant coefficients, and ``block_counts`` scores a block as a step
function of the constant term in O(L log L) for L literals, while the
paper's model still charges one pass per candidate.  ``batch_assignments``
is the one evaluator of the polynomial: it builds the row the search picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from satmeter.formula import Assignment, Formula, pack_clauses
from satmeter.metering import note_pass

# Scan budget for the family search.  The threshold candidate is found within
# the first few coefficient blocks on every instance class we generate; the
# cap only guards against pathological full-family fallbacks on large fields.
SCAN_CAP = 5_000_000


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def smallest_prime_geq(x: int) -> int:
    """Least prime >= x (x >= 2)."""
    if x < 2:
        raise ValueError("x must be >= 2")
    while not is_prime(x):
        x += 1
    return x


@dataclass(frozen=True)
class HashFamilySpec:
    """Parameters of a family Univ(n, k, a, b) realized over GF(q).

    n: domain size, k: independence order, a/b: target marginal, q: prime
    field size.  q must satisfy q >= max(n, b); a/b can exceed what the paper
    construction nominally allows (b > n) because q absorbs both bounds.
    """

    n: int
    k: int
    a: int
    b: int
    q: int

    def __post_init__(self):
        if not (self.n >= self.k >= 1):
            raise ValueError("need n >= k >= 1")
        if not (self.b >= self.a >= 1):
            raise ValueError("need b >= a >= 1")
        if self.q < max(self.n, self.b, 2) or not is_prime(self.q):
            raise ValueError("q must be prime and >= max(n, b)")

    @property
    def threshold(self) -> int:
        # round-half-up of q*a/b
        return (2 * self.q * self.a + self.b) // (2 * self.b)

    @property
    def size(self) -> int:
        return self.q**self.k


def field_size_for(n: int, b: int, m: int, r: int) -> int:
    """Field size used by the solvers: q = min prime >= max(n, b, 20*m*r).

    The 20*m*r term keeps the threshold-rounding perturbation of the
    expected satisfied-clause count below m*r/(2q) <= 1/40 of a clause.
    """
    return smallest_prime_geq(max(n, b, 20 * m * r, 2))


def block_values(spec: HashFamilySpec, block: int) -> np.ndarray:
    """Block ``block``'s polynomial without its constant term, at points 1..n.

    Block i holds the functions whose k - 1 leading coefficients are the
    base-q digits of i, most significant first, so blocks come in
    lexicographic order.  They differ only in their constant term c0: entry
    j - 1 plus c0, mod q, is the value of function c0 at point j.
    """
    q, n = spec.q, spec.n
    digits = []  # least significant first
    for _ in range(spec.k - 1):
        block, digit = divmod(block, q)
        digits.append(digit)
    while digits and not digits[-1]:  # leading zeros leave acc at 0
        digits.pop()
    points = np.arange(1, n + 1, dtype=np.int64)
    acc = np.zeros(n, dtype=np.int64)
    for c in reversed(digits):
        acc = (acc * points + c) % q
    return (acc * points) % q  # still missing the constant term


def batch_assignments(
    spec: HashFamilySpec, acc: np.ndarray, c0: np.ndarray
) -> np.ndarray:
    """Bit matrix of a block's functions with the constant terms ``c0``.

    ``acc`` is the block's ``block_values`` and ``c0`` an int64 array.  Row
    i is the assignment of the function with constant term c0[i]: variable
    j (column j - 1) is set iff the polynomial at j is below the threshold.
    """
    evals = acc + c0[:, None]  # the one (rows, n) int64 buffer
    evals %= spec.q
    return evals < spec.threshold


def _running_sum(rise: np.ndarray, fall: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys of +1 events at ``rise`` and -1 events at ``fall``,
    ascending, and the sum of the events at or below each: one sort."""
    key = np.sort(np.concatenate((2 * rise + 1, 2 * fall)))  # a rise is odd
    total = 2 * np.cumsum(key & 1) - np.arange(1, key.size + 1)  # rises - falls
    key >>= 1
    last = np.concatenate((key[1:] != key[:-1], [True]))  # a key's sum is its last
    return key[last], total[last]


def block_counts(
    spec: HashFamilySpec, acc: np.ndarray, formula: Formula
) -> tuple[np.ndarray, np.ndarray]:
    """A block's satisfied-clause count as a step function of c0: the
    function with constant term c0 satisfies ``counts[i]`` clauses for c0
    from ``starts[i]`` up to the next start (or q).  ``starts[0]`` is 0.

    Bit j is 1 on the cyclic arc of t constant terms from (-acc_j) mod q, so
    a literal is false on one arc (that one when negative).  An arc counts
    +1 from its start and -1 from its end (one that wraps, from 0 and to q
    too), so a running sum in (clause, position) order counts each clause's
    false literals, and the clause is unsatisfied where that is its width:
    at most 2L + 1 steps for L literals, in O(L log L) time and O(L) cells.
    """
    q, t, lits, widths = spec.q, spec.threshold, formula.lits, formula.widths
    lo = (np.where(lits > 0, t, 0) - acc[np.abs(lits) - 1]) % q  # turns false
    hi = lo + np.where(lits > 0, q - t, t)  # true again, past q if it wraps
    wrap = hi > q
    base = np.repeat(np.arange(formula.m) * (q + 1), widths)  # key (clause, 0)
    key, false = _running_sum(
        np.concatenate((base + lo, base[wrap])),
        np.concatenate((base + np.minimum(hi, q), base[wrap] + hi[wrap] - q)),
    )
    clause, pos = np.divmod(key, q + 1)
    unsat = (false == widths[clause]).astype(np.int64)
    change = np.diff(unsat, prepend=0)  # a clause ends at 0 false literals, as it began
    rise = np.concatenate(([0], pos[change > 0]))  # c0 = 0 starts a step: a +1 and a -1
    fall = np.concatenate(([0], pos[change < 0]))
    starts, unsat = _running_sum(rise, fall)
    return starts[starts < q], formula.m - unsat[starts < q]


@dataclass(frozen=True)
class SearchOutcome:
    """A family search's pick and the assignment row it scored."""

    assignment: Assignment
    count: int
    family_index: int
    fallback: bool
    scanned: int
    family_size: int
    q: int
    threshold_desc: str

    def details(self) -> dict[str, Any]:
        """The search fields of a solver report."""
        return {
            "threshold": self.threshold_desc,
            "family_index": self.family_index,
            "family_size": self.family_size,
            "q": self.q,
            "fallback": self.fallback,
            "search_count": self.count,
        }


def family_search(
    spec: HashFamilySpec,
    formula: Formula,
    need: int,
    threshold_desc: str,
    pass_label: str,
) -> SearchOutcome:
    """First candidate in enumeration order that satisfies at least ``need``
    clauses of ``formula``, the solver's integer bound.

    Family index 0, the all-ones row, is scored alone first, so a hit there
    costs O(L).  Then blocks are scored from block 0 by ``block_counts``,
    whose first step that reaches ``need`` starts at the first candidate
    that does.  If none does before the family ends or within the first
    ``SCAN_CAP`` candidates, the first maximum over the scanned candidates
    is returned with ``fallback`` set.  Only the picked row is evaluated.
    Every scanned candidate is charged one ``pass_label`` pass: the space
    model rebuilds ``formula`` for each candidate it scores.
    """
    q = spec.q
    zero = np.zeros(1, dtype=np.int64)
    row = batch_assignments(spec, block_values(spec, 0), zero)  # all ones
    # the padded layout also bounds m * q, so block_counts' keys fit int64
    best_count, best_index = int(pack_clauses(formula).count_satisfied(row)[0]), 0
    blocks = min(q ** (spec.k - 1), -(-SCAN_CAP // q))  # those that start below the cap
    for block in range(0 if best_count >= need else blocks):
        starts, counts = block_counts(spec, block_values(spec, block), formula)
        counts = counts[: np.searchsorted(starts, SCAN_CAP - block * q)]  # below the cap
        hits = np.flatnonzero(counts >= need)
        step = int(hits[0]) if hits.size else int(np.argmax(counts))
        if hits.size or counts[step] > best_count:
            best_count, best_index = int(counts[step]), block * q + int(starts[step])
        if hits.size:
            break
    if best_index:  # evaluate only the picked row
        block, c0 = divmod(best_index, q)
        row = batch_assignments(spec, block_values(spec, block), zero + c0)
    hit = best_count >= need
    scanned = best_index + 1 if hit else min(spec.size, SCAN_CAP)
    note_pass(pass_label, scanned)
    return SearchOutcome(
        assignment=row[0].copy(),  # not a view of the (1, n) matrix
        count=best_count,
        family_index=best_index,
        fallback=not hit,
        scanned=scanned,
        family_size=spec.size,
        q=spec.q,
        threshold_desc=threshold_desc,
    )
