"""Baker-style band partitioning of planar-incidence formulas.

Pipeline: connect the incidence graph with a dummy variable vertex, level it
by BFS from the dummy, group the levels into overlapping triples
U_j = L_2j + L_2j+1 + L_2j+2, delete the residue class of triples with the
fewest clause vertices, and emit the connected components that remain as
variable-disjoint subformulas.  Each clause level lands in exactly two
triples, so the residue classes together count every clause twice and the
cheapest one loses at most 2m/k clauses.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

from satmeter.formula import Formula, Vertex, bfs_tree, incidence_graph
from satmeter.metering import meter_scope, note_pass, tracked


@dataclass(frozen=True)
class DummyConnection:
    """Incidence graph connected through a dummy variable vertex."""

    graph: dict[Vertex, list[Vertex]]
    dummy_var: int
    dummy_clause_index: int  # 1-based index of the (-dummy_var) clause vertex


def connect_with_dummy(formula: Formula) -> DummyConnection:
    """Add a dummy variable adjacent to one clause per connected component.

    Only the incidence graph changes: it gains the dummy variable, the
    vertex ("C", m + 1) of the unit clause (-dummy) and the dummy edges.
    Variable-only components have no clauses to lose or keep and stay
    unconnected.
    """
    dummy = formula.n + 1
    dummy_vertex, dummy_clause = ("x", dummy), ("C", formula.m + 1)
    graph = incidence_graph(formula)
    graph[dummy_vertex] = [dummy_clause]
    graph[dummy_clause] = [dummy_vertex]

    # one representative clause per connected component of the original
    # graph: the lowest-indexed clause, since each walk starts at the first
    # clause not yet seen
    seen: set[Vertex] = set()
    for j in range(1, formula.m + 1):
        rep = ("C", j)
        if rep not in seen:
            seen.update(bfs_tree(rep, graph))
            graph[dummy_vertex].append(rep)
            graph[rep].append(dummy_vertex)

    return DummyConnection(graph=graph, dummy_var=dummy, dummy_clause_index=formula.m + 1)


@dataclass(frozen=True)
class BfsLevels:
    """1-based BFS levels from the dummy root, depth rounded up to even."""

    root: Vertex
    level_of: dict[Vertex, int]
    depth: int  # d, even
    raw_depth: int  # d_0

    def level_sets(self) -> list[set[Vertex]]:
        """levels[i] = vertices at level i (index 0 unused)."""
        levels: list[set[Vertex]] = [set() for _ in range(self.depth + 1)]
        for v, lvl in self.level_of.items():
            levels[lvl].add(v)
        return levels


def bfs_levels(graph: dict[Vertex, list[Vertex]], root: Vertex) -> BfsLevels:
    """BFS leveling of the incidence graph from `root`.

    Stands in for a sublinear-space planar BFS with the same output
    contract; the metered charge is that contract's sqrt(V)*log(V) cells,
    not the queue the stand-in actually uses.
    """
    num_vertices = max(len(graph), 2)
    contract_cells = math.isqrt(num_vertices - 1) + 1
    contract_cells *= max(1, math.ceil(math.log2(num_vertices)))
    with meter_scope("bfs"), tracked(contract_cells):
        level_of: dict[Vertex, int] = {}
        for v, p in bfs_tree(root, graph).items():
            level_of[v] = 1 if v == p else level_of[p] + 1
    unreachable_clauses = [v for v in graph if v[0] == "C" and v not in level_of]
    if unreachable_clauses:
        raise ValueError(f"graph not connected: clause vertex {unreachable_clauses[0]} "
                         "unreachable from root")
    d0 = max(level_of.values())
    d = d0 if d0 % 2 == 0 else d0 + 1
    return BfsLevels(root=root, level_of=level_of, depth=d, raw_depth=d0)


@dataclass(frozen=True)
class DeletionBand:
    """The cheapest residue class of level triples.

    ``residue_losses`` lists |C(W_i)| for the first min(k, d/2 + 2)
    residues.  Triples run over j = 0..d/2, so every later residue is empty
    (loss 0) and residue d/2 + 1 already stands for all of them.
    """

    k: int
    chosen_i: int
    band_vertices: frozenset[Vertex]
    clause_loss: int  # original clause vertices in the band
    residue_losses: tuple[int, ...]


def _triple_indices(depth: int) -> range:
    # U_j = L_2j + L_2j+1 + L_2j+2, clipped to existing levels.  j runs from
    # 0 through d/2 so that head and tail segments stay within 2k-3 levels.
    return range(0, depth // 2 + 1)


def choose_deletion_band(
    levels: BfsLevels, k: int, skip_clause: int | None = None
) -> DeletionBand:
    """Pick the residue class of triples with the fewest clause vertices.

    ``skip_clause`` (the dummy clause index) is excluded from the counts so
    the 2m/k loss bound is relative to the original clause count.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    level_sets = levels.level_sets()
    d = levels.depth

    def clause_count(level: int) -> int:
        return sum(1 for v in level_sets[level] if v[0] == "C" and v[1] != skip_clause)

    losses = [0] * min(k, d // 2 + 2)
    with tracked(2 * len(losses) + 4):  # per-residue counters plus loop registers
        note_pass("bfs", len(losses))
        for j in _triple_indices(d):
            for lvl in (2 * j, 2 * j + 1, 2 * j + 2):
                if 1 <= lvl <= d and lvl % 2 == 0:
                    losses[j % k] += clause_count(lvl)
        chosen = min(range(len(losses)), key=lambda i: (losses[i], i))

    band: set[Vertex] = set()
    for j in _triple_indices(d):
        if j % k == chosen:
            for lvl in (2 * j, 2 * j + 1, 2 * j + 2):
                if 1 <= lvl <= d:
                    band |= level_sets[lvl]
    return DeletionBand(k, chosen, frozenset(band), losses[chosen], tuple(losses))


@dataclass(frozen=True)
class PartitionResult:
    parts: tuple[Formula, ...]
    part_vars: tuple[frozenset[int], ...]
    part_clause_indices: tuple[tuple[int, ...], ...]  # 1-based into source
    band: DeletionBand
    levels: BfsLevels
    retained: int


def partition(formula: Formula, k: int) -> PartitionResult:
    """Split into variable-disjoint, level-bounded subformulas.

    Retains at least (1 - 2/k) m clauses; each part occupies at most 2k-3
    consecutive BFS levels.  Parts keep the original variable numbering.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    with meter_scope("partition"):
        conn = connect_with_dummy(formula)
        levels = bfs_levels(conn.graph, ("x", conn.dummy_var))
        band = choose_deletion_band(levels, k, skip_clause=conn.dummy_clause_index)
        kept = {v for v in levels.level_of if v not in band.band_vertices}
        note_pass("bfs", 2)  # band filter pass + component pass

        part_vars: list[frozenset[int]] = []
        part_indices: list[tuple[int, ...]] = []
        seen: set[Vertex] = set()
        for j in range(1, formula.m + 1):
            start = ("C", j)
            if start not in kept or start in seen:
                continue
            comp = bfs_tree(start, conn.graph, allowed=kept)
            seen.update(comp)
            clause_ids = sorted(
                v[1] for v in comp
                if v[0] == "C" and v[1] != conn.dummy_clause_index
            )
            var_ids = {v[1] for v in comp if v[0] == "x" and v[1] != conn.dummy_var}
            if not clause_ids:
                continue
            part_vars.append(frozenset(var_ids))
            part_indices.append(tuple(clause_ids))
        parts = formula.subsets([[i - 1 for i in ids] for ids in part_indices])

    return PartitionResult(
        parts=tuple(parts),
        part_vars=tuple(part_vars),
        part_clause_indices=tuple(part_indices),
        band=band,
        levels=levels,
        retained=sum(p.m for p in parts),
    )


@dataclass(frozen=True)
class PartitionReport:
    parts: int
    disjoint: bool
    disjoint_witness: int | None  # a variable shared by two parts
    retained_clauses: int
    retained_ok: bool
    max_level_span: int
    span_ok: bool
    loss_sum: int
    loss_sum_ok: bool

    @property
    def ok(self) -> bool:
        return self.disjoint and self.retained_ok and self.span_ok and self.loss_sum_ok

    def as_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def verify_partition(
    formula: Formula, result: PartitionResult, k: int
) -> PartitionReport:
    """Check disjointness, retention >= (1 - 2/k) m and the level-span bound."""
    witness = None
    seen_vars: dict[int, int] = {}
    for idx, var_set in enumerate(result.part_vars):
        for var in var_set:
            if var in seen_vars and seen_vars[var] != idx:
                witness = var
            seen_vars[var] = idx
    disjoint = witness is None

    retained = sum(p.m for p in result.parts)
    retained_ok = retained * k >= (k - 2) * formula.m

    level_of = result.levels.level_of
    max_span = 0
    for clause_ids, var_set in zip(result.part_clause_indices, result.part_vars):
        lvls = [level_of[("C", j)] for j in clause_ids]
        lvls += [level_of[("x", v)] for v in var_set if ("x", v) in level_of]
        if lvls:
            max_span = max(max_span, max(lvls) - min(lvls) + 1)
    span_ok = max_span <= max(2 * k - 3, 1)

    loss_sum = sum(result.band.residue_losses)
    loss_sum_ok = loss_sum <= 2 * formula.m

    return PartitionReport(
        parts=len(result.parts),
        disjoint=disjoint,
        disjoint_witness=witness,
        retained_clauses=retained,
        retained_ok=retained_ok,
        max_level_span=max_span,
        span_ok=span_ok,
        loss_sum=loss_sum,
        loss_sum_ok=loss_sum_ok,
    )


def planarity_sanity(formula: Formula) -> bool:
    """Euler bound for bipartite planar graphs: |E| <= 2|V| - 4.

    The incidence graph has one edge per literal, so |E| is the sum of the
    clause widths.
    """
    vertices = formula.n + formula.m
    if vertices < 3:
        return True
    return formula.lits.size <= 2 * vertices - 4


def gen_planar_instance(kind: str, size, seed: int = 0) -> Formula:
    """Planar-by-construction instances: chains, grids and trees of 2-clauses.

    chain(v): clauses over consecutive variables, path incidence graph.
    grid((rows, cols)): clauses over grid-adjacent variables, subdivided grid.
    tree(v): clauses over random tree edges, forest incidence graph.
    Polarities are drawn deterministically from `seed`.
    """
    rng = random.Random(seed)

    def lit(var: int) -> int:
        return var if rng.random() < 0.5 else -var

    clauses: list[tuple[int, int]] = []
    if kind == "chain":
        nvars = int(size)
        if nvars < 2:
            raise ValueError("chain needs at least 2 variables")
        for i in range(1, nvars):
            clauses.append((lit(i), lit(i + 1)))
    elif kind == "grid":
        rows, cols = size
        if rows < 1 or cols < 1 or rows * cols < 2:
            raise ValueError("grid needs at least 2 variables")
        nvars = rows * cols

        def var(i, j):
            return i * cols + j + 1

        for i in range(rows):
            for j in range(cols):
                if j + 1 < cols:
                    clauses.append((lit(var(i, j)), lit(var(i, j + 1))))
                if i + 1 < rows:
                    clauses.append((lit(var(i, j)), lit(var(i + 1, j))))
    elif kind == "tree":
        nvars = int(size)
        if nvars < 2:
            raise ValueError("tree needs at least 2 variables")
        for i in range(2, nvars + 1):
            parent = rng.randrange(1, i)
            clauses.append((lit(parent), lit(i)))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return Formula(n=nvars, clauses=tuple(clauses))
