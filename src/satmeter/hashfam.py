"""Enumerable k-universal hash families of boolean functions.

The construction is the standard one: degree-(k-1) polynomials over a prime
field GF(q), thresholded to {0,1}.  For any k distinct points of [n] the
evaluation vector is uniform over [0,q)^k, so the thresholded bits are k-wise
independent with marginal t/q, where t = round(q*a/b) approximates the target
marginal a/b to within 1/(2q).

``family_search`` is the derandomized search both the 0.618 and the
sqrt(2)/2 solvers run: walk the family in enumeration order and stop at the
first candidate whose satisfied-clause count reaches the solver's integer
bound.  The walk is flat: the block of candidates sharing their non-constant
coefficients is found from its index by base-q digits.  The search returns
the bit row it scored, so ``batch_assignments`` is the one evaluator of the
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

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


def batch_assignments(
    spec: HashFamilySpec,
    high_coeffs: tuple[int, ...],
    c0_start: int,
    c0_stop: int,
) -> np.ndarray:
    """Bit matrix for the functions sharing the given non-constant coeffs.

    Row i is the assignment of the function with coefficients
    (*high_coeffs, c0_start + i), leading coefficient first: variable j
    (column j - 1) is set iff the polynomial at j is below the threshold.
    The rows follow the family's lexicographic order within that
    coefficient prefix; callers chunk the constant-term block [0, q) to
    bound working-set size.
    """
    q, n, t = spec.q, spec.n, spec.threshold
    points = np.arange(1, n + 1, dtype=np.int64)
    acc = np.zeros(n, dtype=np.int64)
    lead = next((i for i, c in enumerate(high_coeffs) if c), len(high_coeffs))
    for c in high_coeffs[lead:]:  # leading zeros leave acc at 0
        acc = (acc * points + c) % q
    acc = (acc * points) % q  # still missing the constant term
    c0 = np.arange(c0_start, c0_stop, dtype=np.int64)
    evals = acc + c0[:, None]  # the one (rows, n) int64 buffer
    evals %= q
    return evals < t


# Cells one chunk of candidates may span: rows times the larger of n and the
# cells a row takes in a caller's per-row work (``row_cells``)
CHUNK_CELLS = 1 << 20


def _candidate_chunks(spec: HashFamilySpec, row_cells: int) -> Iterator[np.ndarray]:
    """Bit matrices covering the family in order, one row per candidate.

    Chunks start at one row and double up to
    ``CHUNK_CELLS // max(n, row_cells)`` rows (at least one), the size
    carried across blocks, so an early hit evaluates few rows and neither
    the candidate matrices nor a caller's per-row work on them (the
    ``(rows, m, width)`` literal copy of ``count_satisfied``) grows past
    about ``CHUNK_CELLS`` cells.  Block i holds the functions whose k - 1
    leading coefficients are the base-q digits of i, most significant
    first, so blocks come in lexicographic order, each found in O(k) steps.
    """
    max_chunk = max(1, CHUNK_CELLS // max(spec.n, row_cells))
    chunk = 1
    for block in range(spec.q ** (spec.k - 1)):
        digits, rest = [], block
        for _ in range(spec.k - 1):
            rest, digit = divmod(rest, spec.q)
            digits.append(digit)
        high = tuple(reversed(digits))
        c0 = 0
        while c0 < spec.q:
            stop = min(c0 + chunk, spec.q)
            yield batch_assignments(spec, high, c0, stop)
            c0, chunk = stop, min(2 * chunk, max_chunk)


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

    If none does before the family ends or the scan reaches ``SCAN_CAP``
    (checked after each chunk), the first maximum over the scanned
    candidates is returned with ``fallback`` set.  Every scanned
    candidate is charged one ``pass_label`` pass: the space model rebuilds
    ``formula`` for each candidate it scores.
    """
    packed = pack_clauses(formula)
    best_count, best_index, best_row = -1, -1, None
    scanned = 0  # also the family index of the chunk's first row
    for bits in _candidate_chunks(spec, packed.var_idx.size):
        counts = packed.count_satisfied(bits)
        hits = np.flatnonzero(counts >= need)
        row = int(hits[0]) if hits.size else int(np.argmax(counts))
        if hits.size or counts[row] > best_count:
            best_count, best_index = int(counts[row]), scanned + row
            best_row = bits[row].copy()  # a view would keep the whole chunk
        scanned += row + 1 if hits.size else len(counts)
        if hits.size or scanned >= SCAN_CAP:
            break
    note_pass(pass_label, scanned)
    return SearchOutcome(
        assignment=best_row,
        count=best_count,
        family_index=best_index,
        fallback=not hits.size,
        scanned=scanned,
        family_size=spec.size,
        q=spec.q,
        threshold_desc=threshold_desc,
    )
