"""Tree decompositions and the exact bounded-width Max-SAT DP.

``tree_decompose`` runs min-fill elimination on the incidence adjacency dict
(no optimality promise, widths stay small on layer-bounded parts),
``validate_td`` checks a decomposition against the formula's clauses,
``rebalance`` rebuilds any valid decomposition into a shallow rooted one
with bag size at most tripled (a splitter's pieces hang directly under its
node, so the depth is that of the separator recursion), and ``bdtw_maxsat``
recursively enumerates bag-variable extensions to compute an exact optimum
with a witnessing assignment.  The PTAS driver stitches these together over
the band partition.  A vertex is an int id (clause j is j - 1, x_i is m + i)
and a bag an int mask of ids, from the incidence graph to the DP.  The PTAS
runs them on parts of a few clauses each on sparse inputs, so they walk
lists indexed by node id rather than dicts: ``rebalance`` walks each piece
once over arrays of its own, and ``_compile_plan`` fills per-node lists in
one walk.  Such parts repeat a few shapes (clause widths and renumbered
variable ids), so one PTAS call decomposes and rebalances each distinct
shape once, and validates, compiles and runs the DP once per part.

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

Frame contract: a frame returns its best count and its bits, the variables
set to 1 by its first best extension and by the frames below it, so the
root's bits are the assignment.  One frame is one ``decomposition`` pass,
folded and leaf frames included.  A frame charges ``|new| + |frame vars| +
3`` cells, live while it and the frames below it on the recursion path run,
so the peak is the largest root-to-leaf sum of charges.  Frames, peak cells
and patterns are counted from the variables each node extends, before any
pattern is built, and a plan of more than ``PATTERN_CAP`` patterns or
``FRAME_CAP`` frames is refused there with ``CapError``.
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
    CapError,
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
        depth = [0] * len(self.bags)
        walk = [self.root]
        for node in walk:  # parents before children
            for child in self.children[node]:
                depth[child] = depth[node] + 1
            walk += self.children[node]
        return max(depth)


def _min_fill_order(component: set[int], graph: dict[int, list[int]]):
    """Min-fill elimination of one connected component of ``graph``; yields
    each vertex with its neighbours left when it goes.  Each step eliminates
    the vertex with the least fill, ties to the smallest id; fills sit in a
    heap keyed (fill, vertex), and an elimination recounts only the fills it
    can change: its neighbours', and when it had two or more (so it adds
    fill edges among them) their neighbours' too.  A vertex of degree < 2
    has fill 0 at once, one of degree 2 tests its one pair, and the
    neighbour sets are updated in place."""
    work = {v: set(graph[v]) for v in component}

    def fill(v: int) -> int:
        nbrs = work[v]  # non-adjacent pairs; adjacent ones are seen twice
        if len(nbrs) < 2:
            return 0
        if len(nbrs) == 2:
            a, b = nbrs
            return 0 if a in work[b] else 1
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
        touched = set(nbrs)
        for w in nbrs:
            near = work[w]
            near |= nbrs
            near.discard(w)
            near.discard(v)
            if len(nbrs) > 1:  # fill edges: a vertex next to two can change
                touched |= near
        for u in touched:
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
        bags += [sum(map((1).__lshift__, nbrs)) | 1 << v for v, nbrs in order]
        children += [[] for _ in order]
        for v, nbrs in order:  # each neighbour is eliminated after v
            if nbrs:
                children[min(map(elim_pos.__getitem__, nbrs))].append(elim_pos[v])
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
    """Shallow rebuild; bag sizes grow at most threefold.

    Recursive separator scheme: remove a splitter node s (a centroid, or a
    node on the path between the current piece's two boundary attachment
    points), root the piece at the union of B_s with the boundary bags, and
    recurse into the remaining components.  Every piece carries at most two
    boundary nodes, so bags union at most three original bags.  The roots
    of a splitter's pieces hang directly under its node, however many there
    are: the DP runs any number of children, so the tree need not be binary
    and holds no bag copies, and its depth is the separator recursion's.

    Each piece is walked once, from its top, over list-indexed arrays
    (adjacency, parent, subtree size, largest child) that every piece
    reuses, and a node's piece is a stamp in one more array.  The pieces
    left without s are stamped from that same walk and taken in order of
    their smallest node, the order of a ``components`` walk over them.
    """
    bags = td.bags
    adj: list[list[int]] = [[] for _ in bags]
    for v, cs in enumerate(td.children):
        adj[v] += cs
        for c in cs:
            adj[c].append(v)
    piece = [0] * len(bags)  # per node, the stamp of the piece it is in
    up = [0] * len(bags)  # per node, its parent in its piece's walk
    size = [0] * len(bags)  # and the size of its subtree there
    largest_child = [0] * len(bags)
    fresh = 1  # the next unused piece stamp
    out_bags: list[int] = []
    out_children: list[list[int]] = []

    def emit(bag: int) -> int:
        out_bags.append(bag)
        out_children.append([])
        return len(out_bags) - 1

    def build(stamp: int, top: int, count: int, boundary: tuple[int, ...]) -> int:
        # the piece is the count nodes stamped stamp; top is boundary[0],
        # or any node of the piece when it has no boundary
        nonlocal fresh
        bbag = bags[boundary[0]] | bags[boundary[-1]] if boundary else 0
        if count == 1:
            return emit(bags[top] | bbag)
        if count == 2:  # either node leaves one: s is the smaller
            other = next(w for w in adj[top] if piece[w] == stamp)
            root = emit(bags[min(top, other)] | bbag)
            out_children[root].append(emit(bags[max(top, other)]))
            return root
        # walk the piece once from top, parents before children; removing
        # s leaves its children's subtrees and, above s, the rest
        up[top] = top
        walk = [top]
        for v in walk:
            size[v], largest_child[v], p = 1, 0, up[v]
            for w in adj[v]:
                if w != p and piece[w] == stamp:
                    up[w] = v
                    walk.append(w)
        for v in walk[:0:-1]:  # children before their parents
            p = up[v]
            size[p] += size[v]
            if size[v] > largest_child[p]:
                largest_child[p] = size[v]
        if len(boundary) == 2:  # the path from boundary[0] to boundary[1]
            candidates = [boundary[1]]
            while candidates[-1] != top:
                candidates.append(up[candidates[-1]])
            candidates.reverse()
        else:
            candidates = sorted(walk)
        # the first candidate whose largest leftover component is smallest
        leftover = [max(largest_child[c], count - size[c]) for c in candidates]
        s = candidates[leftover.index(min(leftover))]
        root = emit(bags[s] | bbag)
        # stamp the pieces left from the same walk: a child of s starts
        # one, and so does top unless it is s; every other node is in its
        # parent's piece
        base, heads, lows = fresh, [], []
        for v in walk:
            if v == s:
                continue
            if v == top or up[v] == s:
                piece[v] = fresh
                fresh += 1
                heads.append(v)
                lows.append(v)
            else:
                k = piece[v] = piece[up[v]]
                lows[k - base] = min(lows[k - base], v)
        pieces = []
        for k, head in enumerate(heads):
            # the node of the piece next to s, and the piece's size
            if head == top:  # the rest of the piece, above s
                near, count_k = up[s], count - size[s]
            else:
                near, count_k = head, size[head]
            if count_k == 1:  # its bag holds its boundary's, if it has one
                pieces.append((head, base + k, head, 1, ()))
                continue
            sub_boundary = tuple(
                sorted({b for b in boundary if piece[b] == base + k} | {near})
            )
            assert len(sub_boundary) <= 2, "separator invariant broken"
            pieces.append((lows[k], base + k, sub_boundary[0], count_k, sub_boundary))
        pieces.sort()  # by smallest node
        out_children[root].extend(build(*args) for _, *args in pieces)
        return root

    root = build(0, 0, len(bags), ())
    return TreeDecomposition(
        bags=tuple(out_bags),
        children=tuple(tuple(c) for c in out_children),
        root=root,
    )


# extension patterns one DP plan may hold, summed over its nodes: the
# widest part of a ptas-grid instance needs 159, and a random 3-CNF at
# n = 40 (one part of width 21) 131,321; a list of 2^20 patterns is 40 MiB
PATTERN_CAP = 1 << 20

# frames one DP plan may run, summed over its nodes: the largest golden
# entry runs 74,913, a 12 x 12 grid at eps = 1/4 53.6 M and a random 3-CNF
# at n = 30 49.4 M; at n = 40 (1.9 G frames) the DP ran for over a minute
FRAME_CAP = 1 << 27


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


def _compile_plan(td: TreeDecomposition, formula: Formula) -> tuple[list, int, int]:
    """Per-node plan of the DP, plus its frame count and peak cells.

    One walk from the root, parents before children, fills lists indexed by
    node id.  A clause is owned by the first bag on the walk that holds its
    vertex: in a valid decomposition its occurrence set is a subtree, so
    that bag is the unique shallowest one.  A frame's variables are its
    bag's variables plus those of its owned clauses, and its inherited
    assignment always covers the union of its ancestors' frame variables,
    so the new variables it extends are fixed by the tree.  Variable sets
    are int masks, bit ``v`` for ``x_v``: a bag's are ``bag >> m``.  A
    node's frames are its parent's frames times 2^|parent's new| and its
    patterns 2^|new|, so the caps of the frame contract are checked before
    any pattern list exists.

    Then a walk children before parents folds every child with no new
    variable into its parent: a choice-free frame writes no variable and
    reads only variables its ancestors set, so its owned clauses join the
    parent's and its called children take its place.  Only the root and the
    choosing nodes are called, and only their entries of the plan are set.
    ``plan[node]`` is ``(tests, sat, patterns, leaves, calls)``: a clause is
    bit i of the node's clause list; ``sat[p]`` holds the clauses that
    pattern p satisfies over the new variables, and ``tests`` the halves
    over inherited variables, tested once per frame.  A called child with no
    called children of its own (a leaf) runs inside the node's extension
    loop: ``leaves`` holds per leaf ``(above, pp, sat, patterns)``, its
    clauses split again at the node's new variables into ``above`` (tested
    once per node frame) and ``pp[p]`` (satisfied by the node's pattern p).
    ``calls`` lists the other called children.
    """
    flat, ends, m = formula.lits.tolist(), formula.offsets.tolist(), formula.m
    bags, children = td.bags, td.children
    unowned = (1 << m) - 1
    below = [0] * len(bags)  # the variables set above a node
    frames = [1] * len(bags)
    path_cells = [0] * len(bags)  # a node's charge plus its ancestors'
    new = [0] * len(bags)
    owned: list[list[tuple[int, int]]] = [[] for _ in bags]
    walk = [td.root]
    for node in walk:  # breadth first, parents before children
        bag = bags[node]
        owns = bag & unowned
        unowned ^= owns
        mask = bag >> m
        while owns:  # clauses by index
            low = owns & -owns
            j = low.bit_length() - 1
            pos = neg = 0
            for lit in flat[ends[j] : ends[j + 1]]:
                if lit > 0:
                    pos |= 1 << lit
                else:
                    neg |= 1 << -lit
            owned[node].append((pos, neg))
            mask |= pos | neg
            owns ^= low
        fresh = new[node] = mask & ~below[node]
        path_cells[node] += fresh.bit_count() + mask.bit_count() + 3
        if kids := children[node]:
            inner, kid_frames = below[node] | mask, frames[node] << fresh.bit_count()
            for child in kids:
                below[child], frames[child] = inner, kid_frames
                path_cells[child] = path_cells[node]
            walk += kids
    patterns = sum(1 << fresh.bit_count() for fresh in new)
    if patterns > PATTERN_CAP:
        raise CapError(
            f"the DP plan needs {patterns} extension patterns, above the "
            f"pattern cap {PATTERN_CAP}"
        )
    if (total := sum(frames)) > FRAME_CAP:
        raise CapError(
            f"the DP plan needs {total} frames, above the frame cap {FRAME_CAP}"
        )
    called: list[list[int]] = [[] for _ in bags]
    for node in reversed(walk):  # children before their parents
        for child in children[node]:
            if new[child]:
                called[node].append(child)
            else:
                owned[node] += owned[child]
                called[node] += called[child]

    def split_own(node: int) -> tuple[list, list[int], list[int]]:
        pats = _patterns(new[node])
        tests = [(1 << i, pos, neg) for i, (pos, neg) in enumerate(owned[node])]
        return (*_split(tests, new[node], pats), pats)

    plan: list = [None] * len(bags)
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
    return plan, total, max(path_cells)


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
    owned clauses its inherited variables satisfy, tested once per frame,
    and returns its count and bits as the module's frame contract says.
    Frames and the peak live cells come from the compiled plan and are
    declared once, inside the ``bdtw`` scope, when the root returns.
    """
    ok, witness = validate_td(formula, td)
    if not ok:
        raise ValueError(f"invalid tree decomposition: {witness}")
    plan, frames, peak = _compile_plan(td, formula)

    def solve(node: int, assign: int) -> tuple[int, int]:
        tests, sat, pats, leaves, calls = plan[node]
        held = _held(tests, assign)
        legs = [(_held(above, assign), pp, lsat, lpats)
                for above, pp, lsat, lpats in leaves]
        best_val = best_bits = -1
        for p, pat in enumerate(pats):
            val = (held | sat[p]).bit_count()
            bits = pat
            for top, pp, lsat, lpats in legs:
                lheld = top | pp[p]
                lval = -1
                for q, s in enumerate(lsat):
                    if (c := (lheld | s).bit_count()) > lval:
                        lval, lq = c, q
                val += lval
                bits |= lpats[lq]
            for child in calls:
                cval, cbits = solve(child, assign | pat)
                val += cval
                bits |= cbits
            if val > best_val:
                best_val, best_bits = val, bits
        return best_val, best_bits

    with meter_scope("bdtw"):
        val, assign = solve(td.root, 0)
        note_pass("decomposition", frames)
        alloc_cells(peak)
        free_cells(peak)
    n = formula.n  # bits 1..n of the root's int are x_1..x_n
    bits = np.frombuffer(assign.to_bytes(n // 8 + 1, "little"), np.uint8)
    return val, np.unpackbits(bits, bitorder="little")[1 : n + 1] == 1


def _renumbered(part: Formula) -> tuple[Formula, np.ndarray]:
    """Compact the variable space of a part; returns (formula, used), where
    compact variable i is ``used[i - 1]``."""
    var = np.abs(part.lits)
    used = np.unique(var)
    lits = np.sign(part.lits) * (np.searchsorted(used, var) + 1)
    compact = Formula.trusted(used.size, part.offsets, lits)
    return compact, used


def solve_part_exact(
    part: Formula, shapes: dict | None = None
) -> tuple[int, np.ndarray, Assignment, dict[str, Any]]:
    """Exact solve of one partition part via decompose + rebalance + DP:
    (value, the part's variables ``used``, their values, info).

    A part's decomposition depends only on its shape: its clause offsets
    and its variable ids once renumbered, not its signs.  ``shapes`` maps a
    shape's bytes to its rebalanced decomposition and that tree's width,
    depth and node count, and a part whose shape is there reuses them;
    ``planar_ptas`` passes one dict for all the parts of a call.  Every part
    still runs ``bdtw_maxsat``, so it is validated, capped and metered as
    its own.
    """
    compact, used = _renumbered(part)
    shapes = {} if shapes is None else shapes
    key = (compact.offsets.tobytes(), np.abs(compact.lits).tobytes())
    if key not in shapes:
        td = rebalance(tree_decompose(incidence_graph(compact)))
        shapes[key] = td, {"width": td.width, "depth": td.depth, "dp_nodes": td.num_nodes}
    td, tree = shapes[key]
    with meter_scope("part") as sc:
        val, phi = bdtw_maxsat(td, compact)
    info = {
        **tree,
        "dp_frames": sc.report.pass_counts["decomposition"],
        "clauses": part.m,
    }
    return val, used, phi, info


def planar_ptas(
    formula: Formula, eps: Fraction | float | str
) -> SolveResult:
    """(1 - eps)-approximate assignment for planar-incidence instances.

    Uses band modulus k = ceil(2/eps) (the partition loses up to 2m/k
    clauses), solves each part exactly and merges the variable-disjoint part
    assignments; variables in no part default to 0.  The parts share one
    ``solve_part_exact`` memo of decompositions by shape, which lives for
    this call alone.  It is memory the implementation holds outside the
    paper's meter, at most one tree per part in ``PartitionResult.parts``.
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
        shapes: dict = {}
        for part in result.parts:
            val, used, phi, info = solve_part_exact(part, shapes)
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
