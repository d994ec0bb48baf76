"""Baker-style band partitioning of planar-incidence formulas.

Pipeline: connect the incidence graph with a dummy variable vertex, level it
by BFS from the dummy, group the levels into overlapping triples
U_j = L_2j + L_2j+1 + L_2j+2, delete the residue class of triples with the
fewest clause vertices, and emit the connected components that remain as
variable-disjoint subformulas.  Each clause level lands in exactly two
triples, so the residue classes together count every clause twice and the
cheapest one loses at most 2m/k clauses.

After the BFS the partition's only state is the level map, vertex id ->
level; clause j is j - 1, x_i is m + i, the dummy's clause m, and the ids
below m are the formula's clauses.  Level L lies in triples floor(L/2) and
floor((L-1)/2), so the band is a test on a vertex's level: one of those
two is in the chosen residue class mod k.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

from satmeter.formula import Formula, bfs_tree, components, incidence_graph
from satmeter.metering import meter_scope, note_pass, tracked


def connect_with_dummy(formula: Formula) -> dict[int, list[int]]:
    """Add a dummy variable adjacent to one clause per connected component.

    Only the incidence graph changes: it gains the dummy variable x_{n+1}
    (vertex m + n + 1), the vertex m of its unit clause (-dummy) and the
    dummy edges.  A variable in no clause is no vertex, so the dummy then
    reaches every vertex.
    """
    dummy_clause, dummy_vertex = formula.m, formula.m + formula.n + 1
    graph = incidence_graph(formula)
    graph[dummy_vertex] = [dummy_clause]
    graph[dummy_clause] = [dummy_vertex]

    # one representative clause per connected component of the original
    # graph: the lowest-indexed clause, the start of its component's walk;
    # it gains its dummy edge only after that walk
    for tree in components(range(formula.m), graph):
        rep = next(iter(tree))
        graph[dummy_vertex].append(rep)
        graph[rep].append(dummy_vertex)
    return graph


def bfs_levels(graph: dict[int, list[int]], root: int,
               num_vertices: int) -> dict[int, int]:
    """1-based BFS levels of the incidence graph from `root`.

    Stands in for a sublinear-space planar BFS with the same output
    contract; the metered charge is that contract's sqrt(V)*log(V) cells,
    not the queue the stand-in actually uses.  V is ``num_vertices``, the
    declared vertex count, with the variables that are not keys of ``graph``.
    """
    num_vertices = max(num_vertices, 2)
    contract_cells = math.isqrt(num_vertices - 1) + 1
    contract_cells *= max(1, math.ceil(math.log2(num_vertices)))
    with meter_scope("bfs"), tracked(contract_cells):
        level_of: dict[int, int] = {}
        for v, p in bfs_tree(root, graph).items():
            level_of[v] = 1 if v == p else level_of[p] + 1
    if unreachable := [v for v in graph if v not in level_of]:
        raise ValueError(f"graph not connected: vertex {unreachable[0]} unreachable from root")
    return level_of


def choose_deletion_band(
    level_of: dict[int, int], k: int, m: int
) -> tuple[int, tuple[int, ...]]:
    """Pick the residue class of triples with the fewest clause vertices.

    Triples run over j = 0..d/2, d the depth rounded up to even, so that
    head and tail segments stay within 2k-3 levels.  Returns the chosen
    residue and |C(W_i)| for the first min(k, d/2 + 2) residues: every later
    residue is empty (loss 0) and residue d/2 + 1 already stands for all of
    them.  Only the formula's clauses, the ids below ``m``, are counted, so
    the 2m/k loss bound is relative to the original clause count.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    d = max(level_of.values())
    d += d % 2

    losses = [0] * min(k, d // 2 + 2)
    with tracked(2 * len(losses) + 4):  # per-residue counters plus loop registers
        note_pass("bfs", len(losses))
        for v, lvl in level_of.items():
            if v < m:  # clause levels are even
                losses[(lvl // 2 - 1) % k] += 1
                losses[(lvl // 2) % k] += 1
        chosen = min(range(len(losses)), key=lambda i: (losses[i], i))
    return chosen, tuple(losses)


@dataclass(frozen=True)
class PartitionResult:
    parts: tuple[Formula, ...]
    part_clause_indices: tuple[tuple[int, ...], ...]  # 1-based into source
    level_of: dict[int, int]  # BFS level from the dummy variable, by vertex id
    chosen_i: int  # the deleted residue class of triples
    residue_losses: tuple[int, ...]

    @property
    def retained(self) -> int:
        return sum(p.m for p in self.parts)

    @property
    def clause_loss(self) -> int:  # original clause vertices in the band
        return self.residue_losses[self.chosen_i]


def partition(formula: Formula, k: int) -> PartitionResult:
    """Split into variable-disjoint, level-bounded subformulas.

    Retains at least (1 - 2/k) m clauses; each part occupies at most 2k-3
    consecutive BFS levels.  Parts keep the original variable numbering.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    m = formula.m
    with meter_scope("partition"):
        graph = connect_with_dummy(formula)
        level_of = bfs_levels(graph, m + formula.n + 1, formula.n + m + 2)
        chosen, losses = choose_deletion_band(level_of, k, m)
        # keep level L unless triple floor(L/2) or floor((L-1)/2) is deleted
        kept = {
            v for v, lvl in level_of.items()
            if (lvl // 2) % k != chosen and ((lvl - 1) // 2) % k != chosen
        }
        note_pass("bfs", 2)  # band filter pass + component pass

        part_indices = [
            tuple(sorted(v + 1 for v in comp if v < m))
            for comp in components(range(m), graph, allowed=kept)
        ]
        parts = formula.subsets([[i - 1 for i in ids] for ids in part_indices])

    return PartitionResult(
        parts=tuple(parts),
        part_clause_indices=tuple(part_indices),
        level_of=level_of,
        chosen_i=chosen,
        residue_losses=losses,
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
    """Check disjointness, retention >= (1 - 2/k) m and the level-span bound.

    Each part's variables are read from its own literals, the variables its
    exact solve assigns.
    """
    witness = None
    owner: dict[int, int] = {}
    level_of = result.level_of
    max_span = 0
    for idx, (part, clause_ids) in enumerate(zip(result.parts, result.part_clause_indices)):
        variables = {abs(lit) for lit in part.lits.tolist()}
        for var in variables:
            if owner.setdefault(var, idx) != idx:
                witness = var
        lvls = [level_of[j - 1] for j in clause_ids]
        lvls += [level_of[formula.m + v] for v in variables]
        max_span = max(max_span, max(lvls) - min(lvls) + 1)
    disjoint = witness is None
    span_ok = max_span <= max(2 * k - 3, 1)

    retained = result.retained
    retained_ok = retained * k >= (k - 2) * formula.m

    loss_sum = sum(result.residue_losses)
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
