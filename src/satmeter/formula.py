"""CNF formula model: DIMACS parsing, evaluation, incidence graphs.

Literals are signed integers in DIMACS convention (``3`` is the variable
``x3``, ``-3`` its negation).  Clauses are tuples of literals; a ``Formula``
is an immutable ordered clause list over variables ``1..n``.  Assignments are
plain ``{var: 0/1}`` dicts.  The incidence graph is a plain adjacency dict
over ``("x", i)`` and ``("C", j)`` vertices, the mapping ``bfs_tree`` walks.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

Assignment = dict[int, int]


class FormulaError(ValueError):
    """Raised on malformed DIMACS input or invalid formula structure."""


@dataclass(frozen=True)
class Formula:
    """An r-CNF formula: ordered clauses over variables 1..n.

    Duplicate literals within a clause are collapsed at construction time and
    tautological clauses (x and -x together) are rejected; duplicate clauses
    across the formula are kept, since satisfied clauses count with
    multiplicity.  ``r`` is the max observed clause width unless pinned.
    """

    n: int
    clauses: tuple[tuple[int, ...], ...]
    r: int = 0

    def __post_init__(self):
        clean = []
        for idx, clause in enumerate(self.clauses, start=1):
            seen: dict[int, int] = {}
            lits = []
            for lit in clause:
                var = abs(lit)
                if var < 1 or var > self.n:
                    raise FormulaError(
                        f"clause {idx}: literal {lit} out of range [1, {self.n}]"
                    )
                if var in seen:
                    if seen[var] != lit:
                        raise FormulaError(f"tautological clause {idx}")
                    continue  # duplicate literal, drop
                seen[var] = lit
                lits.append(lit)
            if not lits:
                raise FormulaError(f"clause {idx} is empty")
            clean.append(tuple(lits))
        object.__setattr__(self, "clauses", tuple(clean))
        max_width = max((len(c) for c in self.clauses), default=0)
        if self.r == 0:
            object.__setattr__(self, "r", max_width)
        elif max_width > self.r:
            raise FormulaError(f"clause width {max_width} exceeds pinned r={self.r}")

    @property
    def m(self) -> int:
        return len(self.clauses)

    def variables(self) -> set[int]:
        return {abs(lit) for clause in self.clauses for lit in clause}


def parse_dimacs(text: str | bytes) -> Formula:
    """Parse DIMACS CNF text into a Formula.

    Accepts 'c' comment lines, a 'p cnf n m' header and 0-terminated clauses
    (possibly spanning lines).  A clause-count mismatch is a warning only; the
    actual count is trusted.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n = None
    declared_m = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormulaError(f"malformed header: {line!r}")
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise FormulaError(f"malformed header: {line!r}") from exc
            if n < 0 or declared_m < 0:
                raise FormulaError(f"malformed header: {line!r}")
            continue
        if n is None:
            raise FormulaError("clause data before 'p cnf' header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise FormulaError(f"bad token {tok!r}") from exc
            if lit == 0:
                if current:
                    clauses.append(tuple(current))
                    current = []
            else:
                current.append(lit)
    if current:
        clauses.append(tuple(current))
    if n is None:
        raise FormulaError("missing 'p cnf' header")
    if declared_m is not None and declared_m != len(clauses):
        warnings.warn(
            f"clause count mismatch: header says {declared_m}, found {len(clauses)}",
            stacklevel=2,
        )
    return Formula(n=n, clauses=tuple(clauses))


def serialize_dimacs(formula: Formula) -> str:
    lines = [f"p cnf {formula.n} {formula.m}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def serialize_assignment(phi: Assignment) -> str:
    """Render an assignment in solver-output convention: 'v 1 -2 3 ... 0'."""
    lits = [var if phi[var] else -var for var in sorted(phi)]
    return "v " + " ".join(str(lit) for lit in lits) + " 0"


def parse_assignment(text: str) -> Assignment:
    phi: Assignment = {}
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("v"):
            continue
        for tok in line.split()[1:]:
            lit = int(tok)
            if lit == 0:
                continue
            phi[abs(lit)] = 1 if lit > 0 else 0
    return phi


def eval_assignment(formula: Formula, phi: Assignment) -> int:
    """Number of clauses satisfied by the total assignment `phi`."""
    missing = set(range(1, formula.n + 1)) - phi.keys()
    if missing:
        raise FormulaError(
            f"assignment is partial: variable {min(missing)} unset"
        )
    true_lits = {var if value else -var for var, value in phi.items()}
    return sum(
        not true_lits.isdisjoint(clause) for clause in formula.clauses
    )


def all_const_assignment(n: int, value: int) -> Assignment:
    return {var: value for var in range(1, n + 1)}


def clause_histogram(formula: Formula) -> dict[int, int]:
    """Map clause width -> number of clauses of that width."""
    hist: dict[int, int] = {}
    for clause in formula.clauses:
        hist[len(clause)] = hist.get(len(clause), 0) + 1
    return hist


# Incidence-graph vertices: ("x", i) for variables, ("C", j) for clauses
# (j is the 1-based clause index, so duplicate clauses get distinct vertices).
Vertex = tuple[str, int]


def incidence_graph(formula: Formula) -> dict[Vertex, list[Vertex]]:
    """Bipartite variable-clause incidence graph as an adjacency dict.

    Every variable is a key, then every clause.  A clause lists its
    variables in literal order; a variable lists its clauses in index order.
    """
    graph: dict[Vertex, list[Vertex]] = {
        ("x", i): [] for i in range(1, formula.n + 1)
    }
    for j, clause in enumerate(formula.clauses, start=1):
        cv = ("C", j)
        graph[cv] = [("x", abs(lit)) for lit in clause]
        for xv in graph[cv]:
            graph[xv].append(cv)
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


@dataclass(frozen=True)
class PackedClauses:
    """Numpy layout for batched clause evaluation.

    ``var_idx[j, s]`` is the 0-based variable index of slot s in clause j,
    ``negated[j, s]`` whether that slot's literal is negative, ``present``
    masks the real slots (clauses are padded to the max width).
    """

    var_idx: np.ndarray
    negated: np.ndarray
    present: np.ndarray

    def count_satisfied(self, assigns: np.ndarray) -> np.ndarray:
        """Satisfied-clause count per row of a (batch, n) 0/1 matrix."""
        if self.var_idx.shape[0] == 0:
            return np.zeros(assigns.shape[0], dtype=np.int64)
        vals = assigns[:, self.var_idx]  # (batch, m, width)
        lit_true = (vals.astype(bool) ^ self.negated) & self.present
        return lit_true.any(axis=2).sum(axis=1)


def pack_clauses(formula: Formula) -> PackedClauses:
    width = max((len(c) for c in formula.clauses), default=1)
    m = formula.m
    var_idx = np.zeros((m, width), dtype=np.int64)
    negated = np.zeros((m, width), dtype=bool)
    present = np.zeros((m, width), dtype=bool)
    for j, clause in enumerate(formula.clauses):
        for s, lit in enumerate(clause):
            var_idx[j, s] = abs(lit) - 1
            negated[j, s] = lit < 0
            present[j, s] = True
    return PackedClauses(var_idx=var_idx, negated=negated, present=present)
