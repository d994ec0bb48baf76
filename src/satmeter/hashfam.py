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
coefficients is found from its index by base-q digits.  It yields one row
per run of identical candidates in a block (at most 2n + 1 runs of q
candidates), so the search scores one row per run while the paper's model
still charges one pass per candidate.  The search returns the bit row it
scored, so ``batch_assignments`` is the one evaluator of the polynomial.
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


def block_values(spec: HashFamilySpec, high_coeffs: tuple[int, ...]) -> np.ndarray:
    """A block's polynomial without its constant term, at points 1..n.

    The functions with non-constant coefficients ``high_coeffs`` (leading
    first) differ only in their constant term c0: entry j - 1 plus c0,
    mod q, is the value of function c0 at point j.
    """
    q, n = spec.q, spec.n
    points = np.arange(1, n + 1, dtype=np.int64)
    acc = np.zeros(n, dtype=np.int64)
    lead = next((i for i, c in enumerate(high_coeffs) if c), len(high_coeffs))
    for c in high_coeffs[lead:]:  # leading zeros leave acc at 0
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


# Cells one chunk of runs may span: rows times the larger of n and the
# cells a row takes in a caller's per-row work (``row_cells``)
CHUNK_CELLS = 1 << 20


def _candidate_chunks(
    spec: HashFamilySpec, row_cells: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The family in order as runs of identical candidates: pairs of a bit
    matrix, one row per run, and the runs' lengths.

    In a block, bit j of the function with constant term c0 is 1 on the
    cyclic interval of t values of c0 that starts at (-acc_j) mod q, so the
    block's q candidates form at most 2n + 1 runs, split where an interval
    starts or ends.  The walk's first run comes alone, its end one ``min``
    over the bits' first flips, so a hit at family index 0 sorts nothing.
    The other runs come in chunks that start at one row and double up to
    ``CHUNK_CELLS // max(n, row_cells)`` rows (at least one), the size
    carried across blocks and a chunk kept within one, so neither the run
    matrices nor a caller's per-row work on them (the ``(rows, m, width)``
    literal copy of ``count_satisfied``) grows past about ``CHUNK_CELLS``
    cells.  Block i holds the functions whose k - 1 leading coefficients are
    the base-q digits of i, most significant first, so blocks come in
    lexicographic order, each found in O(k) steps.
    """
    q, t = spec.q, spec.threshold
    max_chunk = max(1, CHUNK_CELLS // max(spec.n, row_cells))
    chunk = 1
    for block in range(q ** (spec.k - 1)):
        digits, rest = [], block
        for _ in range(spec.k - 1):
            rest, digit = divmod(rest, q)
            digits.append(digit)
        acc = block_values(spec, tuple(reversed(digits)))
        i = 0  # the block's next run to yield
        if chunk == 1 and t < q:
            # bit j is acc_j + c0 < t: from c0 = 0 it first flips where
            # acc_j + c0 reaches t (a 1) or q (a 0)
            first_end = int((np.where(acc < t, t, q) - acc).min())
            first = batch_assignments(spec, acc, np.zeros(1, dtype=np.int64))
            yield first, np.array([first_end])
            i, chunk = 1, min(2, max_chunk)
        # bit j is 1 on the t constant terms from (-acc_j) mod q on,
        # cyclically, and on all of them when t = q
        flips = ((0, q), -acc % q, (t - acc) % q) if t < q else ((0, q),)
        bounds = np.unique(np.concatenate(flips))  # bounds[1] == first_end
        starts, lengths = bounds[:-1], np.diff(bounds)
        while i < starts.size:
            stop = min(i + chunk, starts.size)
            yield batch_assignments(spec, acc, starts[i:stop]), lengths[i:stop]
            i, chunk = stop, min(2 * chunk, max_chunk)


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

    The walk scores one row per run of identical candidates, so a run's
    count is that of each of its candidates and the first run that reaches
    ``need`` starts at the first candidate that does.  If none does before
    the family ends or within the first ``SCAN_CAP`` candidates (the run
    that crosses the cap is cut at it), the first maximum over the scanned
    candidates is returned with ``fallback`` set.  Every scanned candidate,
    not run, is charged one ``pass_label`` pass: the space model rebuilds
    ``formula`` for each candidate it scores.
    """
    packed = pack_clauses(formula)
    best_count, best_index, best_row = -1, -1, None
    scanned = 0  # candidates passed, the family index of the chunk's first run
    for bits, lengths in _candidate_chunks(spec, packed.var_idx.size):
        ends = scanned + np.cumsum(lengths)  # one past each run's last candidate
        live = int(np.searchsorted(ends, SCAN_CAP)) + 1  # runs that start below the cap
        counts = packed.count_satisfied(bits[:live])
        hits = np.flatnonzero(counts >= need)
        run = int(hits[0]) if hits.size else int(np.argmax(counts))
        if hits.size or counts[run] > best_count:
            best_count, best_index = int(counts[run]), int(ends[run] - lengths[run])
            best_row = bits[run].copy()  # a view would keep the whole chunk
        if hits.size:
            scanned = best_index + 1
            break
        scanned = min(int(ends[-1]), SCAN_CAP)
        if scanned == SCAN_CAP:
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
