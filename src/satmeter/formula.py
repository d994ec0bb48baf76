"""CNF formula model: DIMACS parsing, evaluation, incidence graphs.

Literals are signed integers in DIMACS convention (``3`` is the variable
``x3``, ``-3`` its negation).  A ``Formula`` is an immutable ordered clause
list over variables ``1..n``, stored once as CSR arrays: clause j (0-based)
is ``lits[offsets[j]:offsets[j + 1]]``.  Parsing and public construction
validate those arrays with numpy; formulas derived from a valid one (sign
flips, clause subsets, renumberings) come from ``Formula.trusted`` and skip
re-validation.  DIMACS text is tokenized on its bytes by numpy where the
clause section holds only digits, '-' and ASCII blanks, and read line by
line otherwise.  An assignment is a bool vector of length n, x_i at
index i - 1, from every solver to the report.  The incidence graph is a
plain adjacency dict over int vertex ids, the mapping ``bfs_tree`` walks:
clause j is vertex j - 1 and x_i is vertex m + i, so ascending ids list the
clauses, then the variables, each by index; a variable that occurs in no
clause is not in it.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

Assignment = np.ndarray  # bool, shape (n,): x_i at index i - 1

# every report prints all n literals; 2^24 of them serialize in about 1 GB
MAX_VARS = 1 << 24

_INT64_MIN = -(1 << 63)


class FormulaError(ValueError):
    """Raised on malformed DIMACS input or invalid formula structure."""


class CapError(ValueError):
    """Raised when an input is over a documented size cap, checked before
    the work the cap guards allocates anything; the CLI exits 2 on it."""


def csr_offsets(widths) -> np.ndarray:
    """Clause offsets for the given clause widths: 0, then running sums."""
    return np.concatenate(([0], np.cumsum(widths, dtype=np.int64)))


def _as_int64(values: list[int]) -> np.ndarray:
    """``values`` as int64, a value beyond int64 as int64's minimum, which is
    out of range for every variable count that fits int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        clamped = [v if _INT64_MIN < v < -_INT64_MIN else _INT64_MIN for v in values]
        return np.array(clamped, dtype=np.int64)


class Formula:
    """An r-CNF formula: ordered clauses over variables 1..n.

    Duplicate literals within a clause are collapsed at construction time and
    tautological clauses (x and -x together) are rejected; duplicate clauses
    across the formula are kept, since satisfied clauses count with
    multiplicity.  ``r`` is the max observed clause width unless pinned.
    The clause arrays are read-only.
    """

    __slots__ = ("n", "r", "offsets", "lits")

    def __init__(self, n: int, clauses, r: int = 0):
        clauses = [tuple(clause) for clause in clauses]
        flat = [lit for clause in clauses for lit in clause]
        self._set(n, csr_offsets([len(c) for c in clauses]), _as_int64(flat), r)
        self.__post_init__(flat)

    def _set(self, n: int, offsets: np.ndarray, lits: np.ndarray, r: int) -> None:
        offsets.flags.writeable = lits.flags.writeable = False
        self.n, self.offsets, self.lits, self.r = n, offsets, lits, r

    @classmethod
    def from_arrays(cls, n: int, offsets, lits, given=None) -> Formula:
        """Validated formula over clause arrays; ``given`` as in ``__post_init__``."""
        self = cls.__new__(cls)
        self._set(n, offsets, lits, 0)
        self.__post_init__(given)
        return self

    @classmethod
    def trusted(cls, n: int, offsets, lits, r: int = 0) -> Formula:
        """Formula over clause arrays derived from a valid one, not validated
        again (sign flips, subsets, renumberings); ``r`` 0: max width."""
        self = cls.__new__(cls)
        if r == 0 and offsets.size > 1:
            r = int((offsets[1:] - offsets[:-1]).max())
        self._set(n, offsets, lits, r)
        return self

    def __post_init__(self, given=None) -> None:
        """Validate the clause arrays and collapse duplicate literals.

        The error names the first bad clause, and in it the first bad
        literal: out of range, or over a variable seen with the other sign.
        ``given[p]`` is flat literal p as written, if it may not fit int64.
        n above ``MAX_VARS`` is rejected before any array work.
        """
        if self.n > MAX_VARS:
            raise FormulaError(f"n={self.n} exceeds the variable cap {MAX_VARS}")
        n, lits, widths = self.n, self.lits, self.widths
        clause_of = np.repeat(np.arange(widths.size), widths)
        var = np.abs(lits)  # int64's minimum stays negative: out of range
        bad = (var < 1) | (var > n)
        # a stable sort by (clause, variable) leads each run of one variable
        # in one clause with its first occurrence; the rest of a run repeats
        order = np.lexsort((var, clause_of))
        run_var, run_clause = var[order], clause_of[order]
        repeat = (run_var[1:] == run_var[:-1]) & (run_clause[1:] == run_clause[:-1])
        keep = None
        if np.count_nonzero(repeat):
            repeat = np.concatenate(([False], repeat))
            lead = order[np.maximum.accumulate(np.where(repeat, 0, np.arange(lits.size)))]
            keep = np.ones(lits.size, dtype=bool)
            keep[order] = ~repeat
            bad[order] |= repeat & (lits[order] != lits[lead])  # a tautology
        empty = widths == 0
        if np.count_nonzero(bad) or np.count_nonzero(empty):
            bad = np.flatnonzero(bad)[:1]
            idx = min([*np.flatnonzero(empty)[:1].tolist(), *clause_of[bad].tolist()]) + 1
            if widths[idx - 1] == 0:
                raise FormulaError(f"clause {idx} is empty")
            lit = given[bad[0]] if given is not None else int(lits[bad[0]])
            if not 0 < abs(lit) <= n:
                raise FormulaError(f"clause {idx}: literal {lit} out of range [1, {n}]")
            raise FormulaError(f"tautological clause {idx}")
        if keep is not None:
            widths = np.bincount(clause_of[keep], minlength=widths.size)
            self._set(n, csr_offsets(widths), lits[keep], self.r)
        max_width = int(widths.max()) if widths.size else 0
        if self.r == 0:
            self.r = max_width
        elif max_width > self.r:
            raise FormulaError(f"clause width {max_width} exceeds pinned r={self.r}")

    @property
    def m(self) -> int:
        return self.offsets.size - 1

    @property
    def widths(self) -> np.ndarray:
        return self.offsets[1:] - self.offsets[:-1]

    def subsets(self, groups: list[list[int]]) -> list[Formula]:
        """One formula per group of 0-based clause indices, each in the given
        order, over the same variables and ``r``; one gather serves all."""
        idx = np.fromiter((i for group in groups for i in group), np.int64)
        starts = self.offsets[idx]
        widths = self.offsets[idx + 1] - starts
        offsets = csr_offsets(widths)
        lits = self.lits[np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], widths)]
        ends = np.cumsum([0, *map(len, groups)]).tolist()  # group g: ends[g] to ends[g + 1]
        return [
            Formula.trusted(
                self.n, offsets[a : b + 1] - offsets[a], lits[offsets[a] : offsets[b]], self.r
            )
            for a, b in pairwise(ends)
        ]

    def __repr__(self) -> str:
        return (f"Formula(n={self.n}, offsets={self.offsets.tolist()}, "
                f"lits={self.lits.tolist()}, r={self.r})")


def _ints(tokens: list[str]) -> list[int]:
    try:
        return list(map(int, tokens))
    except ValueError:
        for tok in tokens:  # name the first bad token
            try:
                int(tok)
            except ValueError as exc:
                raise FormulaError(f"bad token {tok!r}") from exc
        raise


def _header(line: str, data: list[str]) -> tuple[int, int]:
    try:
        _, cnf, n, m = line.split()
        if cnf == "cnf" and int(n) >= 0 and int(m) >= 0:
            return int(n), int(m)
    except ValueError:
        pass
    _ints(" ".join(data).split())  # a bad token on an earlier line comes first
    raise FormulaError(f"malformed header: {line!r}")


def _lines(text: str, n: int | None = None, declared_m: int | None = None,
           data: list[str] | None = None) -> tuple[int | None, int | None, list[str]]:
    """Read DIMACS lines on from the state (n, declared m, clause lines)
    that the input's earlier lines left; return the new state."""
    data = [] if data is None else data
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] in "c%":
            continue
        if line[0] == "p":
            n, declared_m = _header(line, data)
        elif n is None:
            raise FormulaError("clause data before 'p cnf' header")
        else:
            data.append(line)
    return n, declared_m, data


# the bytes of a clause section the byte tokenizer reads, and a translation
# table that maps them to 0 and every other byte to 1; a token of at most
# 18 digits fits int64
_CLAUSE_BYTES = b"0123456789- \t\r\n"
_OTHER_BYTES = bytes(c not in _CLAUSE_BYTES for c in range(256))
_DIGITS = np.zeros(256, dtype=np.uint8)
_DIGITS[list(b"0123456789")] = range(10)
_MAX_DIGITS = 18


def _split_head(raw: bytes, errors: str) -> tuple[bytes, int]:
    """The input and where its head ends: after the first '\\n' past its
    last byte outside ``_CLAUSE_BYTES`` (comments, header), 0 if it has
    none.  When the line of that byte is one '%' comment line (the SATLIB
    ending, a '%' line and then '0'), the input comes back without that
    line, which the line reader skips too, and the head ends before it."""
    other = raw.translate(_OTHER_BYTES)
    last = other.rfind(1)
    if last < 0:
        return raw, 0
    start = raw.rfind(b"\n", 0, last) + 1
    end = raw.find(b"\n", last) + 1 or len(raw)
    try:
        lines = raw[start:end].decode("utf-8", errors).splitlines()
    except UnicodeDecodeError:
        lines = []  # reported where the head is decoded
    if len(lines) == 1 and lines[0].strip()[:1] == "%":
        raw, last = raw[:start] + raw[end:], other.rfind(1, 0, start)
        end = raw.find(b"\n", last) + 1 if last >= 0 else 0
    return raw, end


def _byte_tokens(raw: bytes, cut: int) -> np.ndarray | None:
    """The integers in ``raw[cut:]`` as int64, where ``raw[cut - 1]`` is a
    line end and every later byte is in ``_CLAUSE_BYTES``; None unless every
    token is ``-?[0-9]{1,18}``.

    Tokens are the runs of bytes above the space.  Their values are built
    digit by digit from the right, in place in one token-sized array: a
    token's byte before its start is a blank or its sign, which counts 0.
    """
    buf = np.frombuffer(raw, dtype=np.uint8)
    tok = buf[cut - 1 :] > 32
    edges = np.flatnonzero(tok[1:] != tok[:-1]) + cut
    if edges.size % 2:
        edges = np.append(edges, buf.size)
    starts, ends = edges[::2], edges[1::2]
    neg = buf[starts] == ord("-")
    size = ends - starts - neg
    if np.count_nonzero(buf[cut:] == ord("-")) != np.count_nonzero(neg):
        return None  # a '-' inside a token
    if size.size and not 1 <= size.min() <= size.max() <= _MAX_DIGITS:
        return None
    value = np.zeros(size.size, dtype=np.int64)
    at, before = np.empty_like(ends), starts - 1
    for k in range(int(size.max()) if size.size else 0, 0, -1):
        np.maximum(np.subtract(ends, k, out=at), before, out=at)  # k-th byte from the end
        value *= 10
        value += _DIGITS[buf[at]]
    np.negative(value, out=value, where=neg)
    return value


def parse_dimacs(text: str | bytes) -> Formula:
    """Parse DIMACS CNF text into a Formula.

    Accepts 'c' and '%' comment lines, a 'p cnf n m' header and 0-terminated
    clauses (possibly spanning lines, the last 0 optional).  The head, up
    to the line of the last byte other than ASCII digits, '-' and blanks,
    is read line by line; when that line is a '%' line (the SATLIB ending)
    it is dropped and the head ends at the line before.  If the head holds
    the header and no clause line, the byte tokenizer reads the rest;
    otherwise, or if a token there is not ``-?[0-9]{1,18}``, the rest is
    read line by line too, which reports every error.  The literals are
    validated as the ``Formula`` arrays.  A clause-count mismatch is a
    warning only; the actual count is trusted.
    """
    is_str = isinstance(text, str)
    errors = "surrogatepass" if is_str else "strict"  # a str may hold lone surrogates
    raw, cut = _split_head(text.encode("utf-8", errors) if is_str else text, errors)
    try:
        head = raw[:cut].decode("utf-8", errors)  # the rest is ASCII
    except UnicodeDecodeError as exc:
        raise FormulaError(f"input is not UTF-8: {exc}") from exc
    n, declared_m, data = _lines(head)
    tokens = _byte_tokens(raw, cut) if n is not None and not data else None
    ints = None
    if tokens is None:
        n, declared_m, data = _lines(raw[cut:].decode("ascii"), n, declared_m, data)
        if n is None:
            raise FormulaError("missing 'p cnf' header")
        ints = _ints(" ".join(data).split())
        tokens = _as_int64(ints)
    ends = tokens == 0
    lits = tokens[~ends]
    # literal i belongs to the group after the terminators before it; groups
    # between two adjacent terminators are empty and dropped
    widths = np.bincount(np.cumsum(ends)[~ends], minlength=1)
    widths = widths[widths > 0]
    if widths.size != declared_m:
        warnings.warn(
            f"clause count mismatch: header says {declared_m}, found {widths.size}",
            stacklevel=2,
        )
    clamped = lits.size and lits.min() == _INT64_MIN
    given = [lit for lit in ints if lit] if clamped else None
    return Formula.from_arrays(n, csr_offsets(widths), lits, given)


def serialize_dimacs(formula: Formula) -> str:
    tokens = np.insert(formula.lits, formula.offsets[1:], 0).tolist()
    body = " ".join(map(str, tokens)).replace(" 0 ", " 0\n")
    return f"p cnf {formula.n} {formula.m}\n" + (body + "\n" if body else "")


def serialize_assignment(phi: Assignment) -> str:
    """Render an assignment in solver-output convention: 'v 1 -2 3 ... 0'."""
    var = np.arange(1, len(phi) + 1)
    lits = np.where(phi, var, -var).tolist()
    return "v " + " ".join(["%d"] * len(lits)) % tuple(lits) + " 0"


def eval_assignment(formula: Formula, phi: Assignment) -> int:
    """Number of clauses satisfied by ``phi``, one value per variable."""
    values = np.asarray(phi, dtype=bool)
    if values.shape != (formula.n,):
        raise FormulaError(f"assignment of shape {values.shape} for n={formula.n}")
    if formula.m == 0:
        return 0
    lits = formula.lits
    true = values[np.abs(lits) - 1] ^ (lits < 0)
    return int(np.count_nonzero(np.logical_or.reduceat(true, formula.offsets[:-1])))


def clause_histogram(formula: Formula) -> dict[int, int]:
    """Map clause width -> number of clauses of that width, ascending."""
    widths, counts = np.unique(formula.widths, return_counts=True)
    return dict(zip(widths.tolist(), counts.tolist()))


def incidence_graph(formula: Formula) -> dict[int, list[int]]:
    """Bipartite variable-clause incidence graph as an adjacency dict.

    Clause j (1-based, so duplicate clauses get distinct vertices) is
    vertex j - 1 and x_i is vertex m + i.  The variables that occur in
    some clause are keys, ascending, then every clause; a declared
    variable that occurs nowhere is not a vertex.  A clause lists its
    variables in literal order; a variable lists its clauses in index order.
    """
    var = [formula.m + abs(lit) for lit in formula.lits.tolist()]
    graph: dict[int, list[int]] = {v: [] for v in sorted(set(var))}
    for c, (a, b) in enumerate(pairwise(formula.offsets.tolist())):
        graph[c] = var[a:b]
        for v in graph[c]:
            graph[v].append(c)
    return graph


def bfs_tree(start, neighbors, allowed=None) -> dict:
    """Breadth-first search tree from ``start``, the one graph walk.

    Maps every vertex reached to its parent (``start`` to itself), in
    visiting order, so each parent precedes its children.  ``neighbors[v]``
    lists v's neighbours: an adjacency dict, or a decomposition's
    ``children`` tuple.  With ``allowed``, the walk stays inside that set.
    """
    parent = {start: start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in neighbors[v]:
            if w not in parent and (allowed is None or w in allowed):
                parent[w] = v
                queue.append(w)
    return parent


def components(starts, neighbors, allowed=None):
    """Yield the ``bfs_tree`` of each start that no earlier tree reached, in
    ``starts`` order; with ``allowed``, starts outside it are skipped."""
    seen: set = set()
    for start in starts:
        if start not in seen and (allowed is None or start in allowed):
            tree = bfs_tree(start, neighbors, allowed)
            seen.update(tree)
            yield tree


# cells of the (m, max width) layout ``pack_clauses`` pads the clauses to:
# 2^24 is 128 MiB per int64 array, and packing holds about three at once
PACK_CELL_CAP = 1 << 24


@dataclass(frozen=True)
class PackedClauses:
    """Numpy layout for batched clause evaluation.

    ``var_idx[j, s]`` is the 0-based variable index of slot s in clause j,
    ``negated[j, s]`` whether that slot's literal is negative.  Clauses are
    padded to the max width by repeating their last literal, which leaves
    the clause's OR unchanged.
    """

    var_idx: np.ndarray
    negated: np.ndarray

    def count_satisfied(self, assigns: np.ndarray) -> np.ndarray:
        """Satisfied-clause count per row of a (batch, n) 0/1 matrix."""
        lit_true = assigns[:, self.var_idx]  # (batch, m, width), a copy
        lit_true ^= self.negated  # in place: no second (batch, m, width) array
        return lit_true.any(axis=2).sum(axis=1)


def pack_clauses(formula: Formula) -> PackedClauses:
    """The padded layout, checked against ``PACK_CELL_CAP`` before any
    (m, width) array is allocated."""
    widths, offsets = formula.widths, formula.offsets
    slots = np.arange(int(widths.max()) if widths.size else 1)
    if formula.m * slots.size > PACK_CELL_CAP:
        raise CapError(
            f"{formula.m} clauses padded to width {slots.size} exceed "
            f"pack cap {PACK_CELL_CAP} cells"
        )
    lits = formula.lits[offsets[:-1, None] + np.minimum(slots, widths[:, None] - 1)]
    return PackedClauses(var_idx=np.abs(lits) - 1, negated=lits < 0)
