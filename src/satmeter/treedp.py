"""Tree decompositions and the exact bounded-width Max-SAT DP.

``tree_decompose`` runs min-fill elimination on the incidence adjacency dict
(no optimality promise, widths stay small on layer-bounded parts),
``validate_td`` checks a decomposition against the formula's clauses,
``rebalance`` rebuilds any valid decomposition into a rooted binary one of
logarithmic depth with bag size at most tripled, and ``bdtw_maxsat``
recursively enumerates bag-variable extensions to compute an exact optimum
with a witnessing assignment.  The PTAS driver stitches these together over
the band partition.  A vertex is an int id (clause j is j - 1, x_i is m + i)
and a bag an int mask of ids, from the incidence graph to the DP.

The DP is the paper's recompute-everything recursion: every extension of a
frame re-solves every child subtree, which keeps its space to the frames on
one root-to-leaf path.  Which variables each node extends, the clauses it
owns and its extension patterns are fixed by the tree, so they are compiled
into a per-node plan of int bit masks once per ``bdtw_maxsat`` call: the
assignment is one int, each pattern is pre-scored against the clauses over
the variables it sets, and the rest of each clause is tested once per
frame.  A frame with one extension pattern writes no variable, and a leaf
frame (one with no called children) makes no call of its own, so both run
inside their parent's extension loop rather than as calls of their own.
Metering contract: one frame is one ``decomposition`` pass, folded and leaf
frames included, and a frame's cells are live while it and the frames below
it on the recursion path run; frames and peak cells are derived from the
variables each node extends, before any pattern is built, and a plan of
more than ``PATTERN_CAP`` patterns is refused there.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from typing import Any

import numpy as np

from satmeter.formula import (
    Assignment,
    Formula,
    bfs_tree,
    components,
    eval_assignment,
    incidence_graph,
)
from satmeter.metering import alloc_cells, free_cells, meter_scope, note_pass
from satmeter.planar import partition, verify_partition
from satmeter.twosat import SolveResult


@dataclass(frozen=True)
class TreeDecomposition:
    """Rooted bag tree; a bag is an int mask, bit v for vertex id v."""

    bags: tuple[int, ...]  # indexed by node id
    children: tuple[tuple[int, ...], ...]
    root: int

    @property
    def num_nodes(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> int:
        return max((b.bit_count() for b in self.bags), default=1) - 1

    @property
    def depth(self) -> int:
        depth: dict[int, int] = {}
        for v, p in bfs_tree(self.root, self.children).items():
            depth[v] = 0 if v == p else depth[p] + 1
        return max(depth.values())


def _min_fill_order(component: set[int], graph: dict[int, list[int]]):
    """Min-fill elimination of one connected component of ``graph``; yields
    each vertex with its neighbours left when it goes.  Each step eliminates
    the vertex with the least fill, ties to the smallest id; fills sit in a
    heap keyed (fill, vertex), and an elimination recounts only the fills it
    can change, those of its neighbours and their neighbours."""
    work = {v: set(graph[v]) for v in component}

    def fill(v: int) -> int:
        nbrs = work[v]  # non-adjacent pairs; adjacent ones are seen twice
        seen = sum(len(work[w] & nbrs) for w in nbrs)
        return len(nbrs) * (len(nbrs) - 1) // 2 - seen // 2

    current = {v: fill(v) for v in component}
    heap = [(f, v) for v, f in current.items()]
    heapq.heapify(heap)
    while heap:
        f, v = heapq.heappop(heap)
        if current.get(v) != f:
            continue  # eliminated, or its fill changed since this entry
        del current[v]
        nbrs = work.pop(v)
        yield v, nbrs
        for w in nbrs:
            work[w] |= nbrs
            work[w] -= {w, v}
        for u in set(nbrs).union(*(work[w] for w in nbrs)):
            if (f := fill(u)) != current[u]:
                current[u] = f
                heapq.heappush(heap, (f, u))


def tree_decompose(graph: dict[int, list[int]]) -> TreeDecomposition:
    """Valid (heuristic-width) decomposition via min-fill elimination.

    Disconnected graphs get per-component decompositions joined under an
    empty root bag; the empty graph is that bag alone.
    """
    comps = [set(tree) for tree in components(sorted(graph), graph)]
    joined = len(comps) != 1  # node 0 is then the shared empty root bag
    bags: list[int] = [0] if joined else []
    children: list[list[int]] = [[]] if joined else []
    roots = []
    for comp in comps:
        order = list(_min_fill_order(comp, graph))
        elim_pos = {v: i for i, (v, _) in enumerate(order, start=len(bags))}
        bags += [sum(1 << w for w in nbrs) | 1 << v for v, nbrs in order]
        children += [[] for _ in order]
        for v, nbrs in order:  # each neighbour is eliminated after v
            if nbrs:
                children[min(elim_pos[w] for w in nbrs)].append(elim_pos[v])
        roots.append(len(bags) - 1)
    if joined:
        children[0] = roots
    root = 0 if joined else roots[0]
    return TreeDecomposition(tuple(bags), tuple(map(tuple, children)), root)


def validate_td(
    formula: Formula, td: TreeDecomposition
) -> tuple[bool, str | None]:
    """Check the three decomposition axioms against the formula's incidence
    graph (clauses and the variables that occur); returns (ok, witness).

    One mask pass over the bags, parents first: a node tops the vertices its
    parent's bag lacks (the root all of its own), so a vertex is in a bag iff
    a node tops it, and its occurrence set is connected iff exactly one does.
    A clause's edges must lie in the union of the bags that hold it.  Checks
    run in id order (clauses, then variables), edges clause by clause, each
    clause's variables ascending, so the witness does not depend on the
    order of the bags.
    """
    m, clauses = formula.m, (1 << formula.m) - 1
    var = [m + abs(lit) for lit in formula.lits.tolist()]

    def name(mask: int) -> tuple[str, int]:  # its lowest vertex, spelled out
        v = (mask & -mask).bit_length() - 1
        return ("C", v + 1) if v < m else ("x", v - m)
    once = twice = 0  # the vertices topped by one node, by two or more
    reach = [0] * m  # per clause, the union of the bags that hold it
    for node, up in bfs_tree(td.root, td.children).items():
        bag = td.bags[node]
        top = bag if node == up else bag & ~td.bags[up]
        twice |= once & top
        once |= top
        held = bag & clauses
        while held:
            low = held & -held
            reach[low.bit_length() - 1] |= bag
            held ^= low
    if missing := (clauses | sum({1 << v for v in var})) & ~once:
        return False, f"vertex {name(missing)} in no bag"
    for c, (a, b) in enumerate(pairwise(formula.offsets.tolist())):
        if lost := sum(1 << v for v in var[a:b]) & ~reach[c]:
            return False, f"edge {name(1 << c)}-{name(lost)} in no bag"
    if twice:
        return False, f"occurrence set of {name(twice)} is disconnected"
    return True, None


def rebalance(td: TreeDecomposition) -> TreeDecomposition:
    """Binary, log-depth rebuild; bag sizes grow at most threefold.

    Recursive separator scheme: remove a splitter node s (a centroid, or a
    node on the path between the current piece's two boundary attachment
    points), root the piece at the union of B_s with the boundary bags, and
    recurse into the remaining components.  Every piece carries at most two
    boundary nodes, so bags union at most three original bags.
    """
    adj: dict[int, set[int]] = {v: set() for v in range(td.num_nodes)}
    for v, cs in enumerate(td.children):
        for c in cs:
            adj[v].add(c)
            adj[c].add(v)
    out_bags: list[int] = []
    out_children: list[list[int]] = []

    def emit(bag: int) -> int:
        out_bags.append(bag)
        out_children.append([])
        return len(out_bags) - 1

    def build(nodes: set[int], boundary: tuple[int, ...]) -> int:
        bbag = td.bags[boundary[0]] | td.bags[boundary[-1]] if boundary else 0
        if len(nodes) == 1:
            (only,) = nodes
            return emit(td.bags[only] | bbag)
        # root the piece once; removing s leaves its children's subtrees
        # and, above s, the rest of the piece
        top = boundary[0] if len(boundary) == 2 else min(nodes)
        parent = bfs_tree(top, adj, allowed=nodes)
        size = dict.fromkeys(parent, 1)
        largest_child = dict.fromkeys(parent, 0)
        for v in reversed(parent):  # children before their parents
            if v != top:
                p = parent[v]
                size[p] += size[v]
                largest_child[p] = max(largest_child[p], size[v])
        if len(boundary) == 2:  # the path from boundary[0] to boundary[1]
            candidates = [boundary[1]]
            while candidates[-1] != top:
                candidates.append(parent[candidates[-1]])
            candidates.reverse()
        else:
            candidates = sorted(nodes)
        # the first candidate whose largest leftover component is smallest
        s = min(candidates, key=lambda c: max(largest_child[c], len(nodes) - size[c]))
        root = emit(td.bags[s] | bbag)
        rest = nodes - {s}
        subtree_roots: list[int] = []
        for tree in components(sorted(rest), adj, allowed=rest):
            comp = set(tree)
            sub_boundary = tuple(
                sorted({b for b in boundary if b in comp}
                       | {w for w in adj[s] if w in comp})
            )
            assert len(sub_boundary) <= 2, "separator invariant broken"
            subtree_roots.append(build(comp, sub_boundary))
        # attach children, binarizing with copies of the root bag
        attach = root
        while len(subtree_roots) > 2:
            spare = emit(out_bags[root])
            left = subtree_roots.pop()
            out_children[attach].extend([left, spare])
            attach = spare
        out_children[attach].extend(subtree_roots)
        return root

    root = build(set(range(td.num_nodes)), ())
    return TreeDecomposition(
        bags=tuple(out_bags),
        children=tuple(tuple(c) for c in out_children),
        root=root,
    )


# extension patterns one DP plan may hold, summed over its nodes: the
# widest part of a ptas-grid instance needs 193, and a random 3-CNF at
# n = 40 (one part of width 21) 131,441; a list of 2^20 patterns is 40 MiB
PATTERN_CAP = 1 << 20


class PatternCapError(ValueError):
    """Raised when a DP plan would hold more than ``PATTERN_CAP`` patterns."""


def _patterns(new: int) -> list[int]:
    """Every extension over the variables of mask ``new``, each as the mask
    of its variables set to 1, in ``product((0, 1), ...)`` order over the
    variables ascending; built by doubling, the lowest variable first."""
    pats = [0]
    while new:
        low = new & -new
        pats = [pat | b for pat in pats for b in (0, low)]
        new ^= low
    return pats


def _split(tests: list, mask: int, pats: list[int]) -> tuple[list, list[int]]:
    """Split clause tests at the variables of ``mask``.

    A test ``(bit, pos, neg)`` holds when a variable of ``pos`` is 1 or one
    of ``neg`` is 0.  Returns the non-empty halves outside ``mask``, still
    to be tested, and per pattern over ``mask`` the bits of the tests whose
    half inside it the pattern satisfies.
    """
    rest = []
    sat = [0] * len(pats)
    for bit, pos, neg in tests:
        if (pos | neg) & ~mask:
            rest.append((bit, pos & ~mask, neg & ~mask))
        pos &= mask
        neg &= mask
        if pos | neg:
            for p, pat in enumerate(pats):
                if pat & pos or neg & ~pat:
                    sat[p] |= bit
    return rest, sat


def _held(tests: list, assign: int) -> int:
    """The bits of the tests that ``assign`` satisfies."""
    bits = 0
    for bit, pos, neg in tests:
        if assign & pos or neg & ~assign:
            bits |= bit
    return bits


def _compile_plan(td: TreeDecomposition, formula: Formula) -> tuple[dict, int, int]:
    """Per-node plan of the DP, plus its frame count and peak cells.

    One walk from the root, parents before children.  A clause is owned by
    the first bag on the walk that holds its vertex: in a valid
    decomposition its occurrence set is a subtree, so that bag is the unique
    shallowest one.  A frame's variables are its bag's variables plus those
    of its owned clauses, and its inherited assignment always covers the
    union of its ancestors' frame variables, so the new variables it extends
    are fixed by the tree.  Variable sets are int masks, bit ``v`` for
    ``x_v``: a bag's are ``bag >> m``.  A node's frames are its parent's
    frames times 2^|parent's new|, and a frame charges ``|new| + |frame
    vars| + 3`` cells, so the peak is the largest root-to-leaf sum of
    charges; both are known before any pattern list exists, and so is the
    number of patterns, 2^|new| per node, which is refused above
    ``PATTERN_CAP``.

    Then a walk children before parents folds every child with no new
    variable into its parent: a choice-free frame writes no variable and
    reads only variables its ancestors set, so its owned clauses join the
    parent's and its called children take its place.  Only the root and the
    choosing nodes are called.  ``plan[node]`` is ``(tests, sat, patterns,
    leaves, calls)``: a clause is bit i of the node's clause list; ``sat[p]``
    holds the clauses that pattern p satisfies over the new variables, and
    ``tests`` the halves over inherited variables, tested once per frame.  A
    called child with no called children of its own (a leaf) runs inside
    the node's extension loop: ``leaves`` holds per leaf ``(above, pp, sat,
    patterns)``, its clauses split again at the node's new variables into
    ``above`` (tested once per node frame) and ``pp[p]`` (satisfied by the
    node's pattern p).  ``calls`` lists the other called children.
    """
    flat, ends, m = formula.lits.tolist(), formula.offsets.tolist(), formula.m
    unowned = (1 << m) - 1
    below: dict[int, int] = {}  # the variables set above a node's children
    new: dict[int, int] = {}
    frames: dict[int, int] = {}
    path_cells: dict[int, int] = {}
    owned: dict[int, list[tuple[int, int]]] = {}
    walk = bfs_tree(td.root, td.children)
    for node, parent in walk.items():
        bag = td.bags[node]
        owns = bag & unowned
        unowned ^= owns
        mask = bag >> m
        owned[node] = []
        while owns:  # clauses by index
            low = owns & -owns
            j = low.bit_length() - 1
            clause = flat[ends[j] : ends[j + 1]]
            pos = sum(1 << lit for lit in clause if lit > 0)
            neg = sum(1 << -lit for lit in clause if lit < 0)
            owned[node].append((pos, neg))
            mask |= pos | neg
            owns ^= low
        domain = 0 if node == parent else below[parent]
        new[node] = mask & ~domain
        below[node] = domain | mask
        charge = new[node].bit_count() + mask.bit_count() + 3
        if node == parent:
            frames[node], path_cells[node] = 1, charge
        else:
            frames[node] = frames[parent] << new[parent].bit_count()
            path_cells[node] = path_cells[parent] + charge
    patterns = sum(1 << new[node].bit_count() for node in walk)
    if patterns > PATTERN_CAP:
        raise PatternCapError(
            f"the DP plan needs {patterns} extension patterns, above the "
            f"pattern cap {PATTERN_CAP}"
        )
    called: dict[int, list[int]] = {}
    for node in reversed(walk):  # children before their parents
        called[node] = []
        for child in td.children[node]:
            if new[child]:
                called[node].append(child)
            else:
                owned[node] += owned[child]
                called[node] += called[child]

    def split_own(node: int) -> tuple[list, list[int], list[int]]:
        pats = _patterns(new[node])
        tests = [(1 << i, pos, neg) for i, (pos, neg) in enumerate(owned[node])]
        return (*_split(tests, new[node], pats), pats)

    plan: dict = {}
    stack = [td.root]
    while stack:
        node = stack.pop()
        tests, sat, pats = split_own(node)
        leaves, calls = [], []
        for child in called[node]:
            if called[child]:
                calls.append(child)
                stack.append(child)
            else:
                ltests, lsat, lpats = split_own(child)
                leaves.append((*_split(ltests, new[node], pats), lsat, lpats))
        plan[node] = (tests, sat, pats, leaves, calls)
    return plan, sum(frames.values()), max(path_cells.values())


def bdtw_maxsat(
    td: TreeDecomposition, formula: Formula
) -> tuple[int, Assignment]:
    """Exact maximum satisfied-clause count plus witnessing assignment.

    The paper's recompute-everything DP over the rooted bag tree: each frame
    enumerates extensions of the inherited partial assignment over its bag's
    variables (plus the variables of the clauses it owns), scores the
    clauses owned at the node, and re-solves every child for every
    extension.  Each clause is owned by the unique shallowest bag containing
    its vertex, so sibling values add without double counting.  Ties go to
    the lexicographically smallest extension.

    The per-node plan is compiled once per call.  The assignment is one int,
    bit ``v`` for ``x_v``, passed down by value; a frame scores extension
    pattern p as ``(held | sat[p]).bit_count()``, where ``held`` holds the
    owned clauses its inherited variables satisfy, tested once per frame.
    A frame keeps its best extension as ``(pattern index, leaf pattern
    indices, child witnesses)``, which becomes an assignment only at the
    root.  A frame with one extension pattern runs inside its parent's
    extension loop, and so does a leaf frame, one with no called children;
    either is scored once per parent extension as before, so the count, the
    assignment and the tie-break are unchanged.

    Metering: one frame is one ``decomposition`` pass, folded and leaf
    frames included, and a frame holds ``len(new) + len(frame vars) + 3``
    cells while it and its descendants run, so the live cells are those of
    the frames on the recursion path.  Frames and the peak live cells are
    derived from the compiled plan and declared once, inside the ``bdtw``
    scope, when the root returns.
    """
    ok, witness = validate_td(formula, td)
    if not ok:
        raise ValueError(f"invalid tree decomposition: {witness}")
    plan, frames, peak = _compile_plan(td, formula)

    def solve(node: int, assign: int) -> tuple[int, tuple]:
        tests, sat, pats, leaves, calls = plan[node]
        held = _held(tests, assign)
        legs = [(_held(above, assign), pp, lsat) for above, pp, lsat, _ in leaves]
        best_val = -1
        best: tuple = ()
        for p, pat in enumerate(pats):
            val = (held | sat[p]).bit_count()
            qs = []
            for top, pp, lsat in legs:
                lheld = top | pp[p]
                lval = -1
                for q, s in enumerate(lsat):
                    if (c := (lheld | s).bit_count()) > lval:
                        lval, lq = c, q
                val += lval
                qs.append(lq)
            witnesses = []
            for child in calls:
                cval, cwit = solve(child, assign | pat)
                val += cval
                witnesses.append(cwit)
            if val > best_val:
                best_val = val
                best = (p, qs, witnesses)
        return best_val, best

    def unfold(node: int, wit: tuple) -> int:
        p, qs, witnesses = wit
        _, _, pats, leaves, calls = plan[node]
        assign = pats[p]
        for (*_, lpats), q in zip(leaves, qs):
            assign |= lpats[q]
        for child, cwit in zip(calls, witnesses):
            assign |= unfold(child, cwit)
        return assign

    with meter_scope("bdtw"):
        val, wit = solve(td.root, 0)
        note_pass("decomposition", frames)
        alloc_cells(peak)
        free_cells(peak)
    n = formula.n  # bits 1..n of the root's int are x_1..x_n
    bits = np.frombuffer(unfold(td.root, wit).to_bytes(n // 8 + 1, "little"), np.uint8)
    return val, np.unpackbits(bits, bitorder="little")[1 : n + 1] == 1


def _renumbered(part: Formula) -> tuple[Formula, np.ndarray]:
    """Compact the variable space of a part; returns (formula, used), where
    compact variable i is ``used[i - 1]``."""
    var = np.abs(part.lits)
    used = np.unique(var)
    lits = np.sign(part.lits) * (np.searchsorted(used, var) + 1)
    compact = Formula.trusted(used.size, part.offsets, lits)
    return compact, used


def solve_part_exact(part: Formula) -> tuple[int, np.ndarray, Assignment, dict[str, Any]]:
    """Exact solve of one partition part via decompose + rebalance + DP:
    (value, the part's variables ``used``, their values, info)."""
    compact, used = _renumbered(part)
    td = rebalance(tree_decompose(incidence_graph(compact)))
    val, phi = bdtw_maxsat(td, compact)
    info = {
        "width": td.width,
        "depth": td.depth,
        "dp_nodes": td.num_nodes,
        "clauses": part.m,
    }
    return val, used, phi, info


def planar_ptas(
    formula: Formula, eps: Fraction | float | str
) -> SolveResult:
    """(1 - eps)-approximate assignment for planar-incidence instances.

    Uses band modulus k = ceil(2/eps) (the partition loses up to 2m/k
    clauses), solves each part exactly and merges the variable-disjoint part
    assignments; variables in no part default to 0.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    k = math.ceil(Fraction(2) / eps)
    with meter_scope("planar_ptas") as sc:
        result = partition(formula, k)
        report = verify_partition(formula, result, k)
        merged = np.zeros(formula.n, dtype=bool)
        part_infos = []
        note_pass("parts")
        for part in result.parts:
            val, used, phi, info = solve_part_exact(part)
            merged[used - 1] = phi
            part_infos.append(info)
        count = eval_assignment(formula, merged)
    return SolveResult(
        assignment=merged,
        count=count,
        details={
            "eps": str(eps),
            "k": k,
            "parts": len(result.parts),
            "retained_clauses": result.retained,
            "band_residue": result.chosen_i,
            "clause_loss": result.clause_loss,
            "partition_ok": report.ok,
            "part_infos": part_infos,
        },
        report=sc.report,
    )
