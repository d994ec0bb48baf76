"""Tree decompositions, rebalancing, and the exact bounded-width DP."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from satmeter.formula import (
    Formula,
    bfs_tree,
    components,
    eval_assignment,
    incidence_graph,
)
from satmeter.metering import meter_scope, note_pass, tracked
from satmeter.oracle import exact_maxsat
from satmeter.planar import gen_planar_instance, partition
from satmeter import treedp
from satmeter.treedp import (
    FrameCapError,
    PatternCapError,
    TreeDecomposition,
    _min_fill_order,
    _renumbered,
    bdtw_maxsat,
    planar_ptas,
    rebalance,
    tree_decompose,
    validate_td,
)

from conftest import (
    VertexIds,
    as_dict,
    clause_tuples,
    high_degree_trees,
    random_formula,
)


def _path_graph(k):
    # chain formula on k vars gives a path incidence graph
    return incidence_graph(gen_planar_instance("chain", k, seed=0))


def test_decompose_path_width_1():
    td = tree_decompose(_path_graph(4))
    assert td.width == 1
    assert validate_td(gen_planar_instance("chain", 4, seed=0), td)[0]


def test_decompose_cycle_width_2():
    # C4 as a formula: x1-x2, x2-x3, x3-x4, x4-x1 merged via wide clauses
    # build the 4-cycle directly on variable vertices via a 2x2 grid formula
    f = Formula(n=2, clauses=((1, 2), (1, 2)))  # duplicate clauses: C4
    td = tree_decompose(incidence_graph(f))
    assert validate_td(f, td)[0]
    assert td.width == 2


def test_decompose_single_vertex():
    # given directly: an incidence graph keys no variable without clauses
    ids = VertexIds(0)
    td = tree_decompose({ids.id(("x", 1)): []})
    assert td.bags == (ids.bag({("x", 1)}),)
    assert td.width == 0


def test_decompose_empty_graph():
    td = tree_decompose({})
    assert (td.bags, td.children, td.root) == ((0,), ((),), 0)


def test_decompose_disconnected_graph():
    f = Formula(n=4, clauses=((1, 2), (3, 4)))
    td = tree_decompose(incidence_graph(f))
    ok, witness = validate_td(f, td)
    assert ok, witness


def test_validate_catches_missing_edge():
    f = Formula(n=2, clauses=((1, 2),))
    ids = VertexIds(f.m)
    td = TreeDecomposition(
        bags=(ids.bag({("x", 1), ("C", 1)}), ids.bag({("x", 2)})),
        children=((1,), ()),
        root=0,
    )
    ok, witness = validate_td(f, td)
    assert not ok and "edge" in witness
    # the first missing edge in clause order, then variable order
    f = Formula(n=3, clauses=((1,), (3, 2)))
    ids = VertexIds(f.m)
    td = TreeDecomposition(
        bags=(
            ids.bag({("x", 1), ("C", 1), ("x", 2), ("x", 3)}),
            ids.bag({("C", 2)}),
        ),
        children=((1,), ()),
        root=0,
    )
    assert validate_td(f, td) == (False, "edge ('C', 2)-('x', 2) in no bag")


def test_validate_catches_disconnected_occurrence():
    f = Formula(n=2, clauses=((1, 2),))
    ids = VertexIds(f.m)
    td = TreeDecomposition(
        bags=(
            ids.bag({("x", 1), ("x", 2), ("C", 1)}),
            ids.bag({("x", 2)}),
            ids.bag({("x", 1), ("x", 2)}),
        ),
        children=((1,), (2,), ()),
        root=0,
    )
    ok, witness = validate_td(f, td)
    assert not ok and "disconnected" in witness


def test_validate_td_witness_ignores_hash_seed():
    # two disconnected occurrence sets; the clause vertex is named first
    # whatever the string-hash seed
    script = (
        "from satmeter.formula import Formula\n"
        "from satmeter.treedp import TreeDecomposition, validate_td\n"
        "full = 0b1101  # C1, x1 and x2: ids 0, 2 and 3\n"
        "td = TreeDecomposition(bags=(full, 0, full),"
        " children=((1,), (2,), ()), root=0)\n"
        "print(validate_td(Formula(n=2, clauses=((1, 2),)), td)[1])\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    witnesses = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        for seed in range(6)
    }
    assert witnesses == {"occurrence set of ('C', 1) is disconnected"}


def test_rebalance_path_decomposition():
    # 16-bag path decomposition: depth 15 down to O(log)
    f = gen_planar_instance("chain", 17, seed=0)
    _assert_rebalanced(f, tree_decompose(incidence_graph(f)))


def _assert_rebalanced(f, td):
    """``rebalance(td)`` is a valid binary decomposition of ``f`` whose depth
    is at most 4 * ceil(log2 nodes of td) and whose bags are at most three
    times ``td``'s."""
    rb = rebalance(td)
    ok, witness = validate_td(f, rb)
    assert ok, witness
    assert all(len(c) <= 2 for c in rb.children)  # binary
    assert rb.depth <= 4 * max(1, math.ceil(math.log2(td.num_nodes)))
    assert max(b.bit_count() for b in rb.bags) <= 3 * max(b.bit_count() for b in td.bags)


@settings(max_examples=40, deadline=None)
@given(high_degree_trees())
@example(Formula(n=200, clauses=tuple(
    c for i in range(2, 201) for c in ((1, i), (-i,)))))  # star, 199 legs
def test_rebalance_high_degree_trees_log_depth(f):
    # min-fill gives the hub one bag with a child per leg; a splitter's
    # pieces must not hang off a chain of copies of its bag
    _assert_rebalanced(f, tree_decompose(incidence_graph(f)))


def test_rebalance_single_bag():
    td = TreeDecomposition(bags=(VertexIds(0).bag({("x", 1)}),), children=((),), root=0)
    rb = rebalance(td)
    assert rb.bags == td.bags


def test_rebalance_random_formulas_valid():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(2, 10)
        f = random_formula(rng, n, rng.randint(1, 3 * n), min(3, n))
        _assert_rebalanced(f, tree_decompose(incidence_graph(f)))


def test_bdtw_examples():
    f = Formula(n=2, clauses=((1, 2), (-1,), (2,)))
    g = incidence_graph(f)
    td = tree_decompose(g)
    val, phi = bdtw_maxsat(td, f)
    assert val == 3
    assert eval_assignment(f, phi) == 3
    pair = Formula(n=1, clauses=((1,), (-1,)))
    val, _ = bdtw_maxsat(tree_decompose(incidence_graph(pair)), pair)
    assert val == 1
    empty = Formula(n=0, clauses=())
    val, phi = bdtw_maxsat(tree_decompose(incidence_graph(empty)), empty)
    assert val == 0 and phi.tolist() == []


def test_bdtw_rejects_invalid_td():
    f = Formula(n=2, clauses=((1, 2),))
    bad = TreeDecomposition(
        bags=(VertexIds(f.m).bag({("x", 1)}),), children=((),), root=0
    )
    with pytest.raises(ValueError):
        bdtw_maxsat(bad, f)


def test_bdtw_matches_oracle_before_and_after_rebalance():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 10)
        f = random_formula(rng, n, rng.randint(1, 3 * n), min(3, n))
        opt, _ = exact_maxsat(f)
        g = incidence_graph(f)
        td = tree_decompose(g)
        v1, phi1 = bdtw_maxsat(td, f)
        v2, phi2 = bdtw_maxsat(rebalance(td), f)
        assert v1 == opt and eval_assignment(f, phi1) == opt
        assert v2 == opt and eval_assignment(f, phi2) == opt


def test_ptas_chain_example():
    f = gen_planar_instance("chain", 10, seed=0)
    opt, _ = exact_maxsat(f)
    res = planar_ptas(f, Fraction(1, 2))
    assert res.count >= math.ceil(Fraction(1, 2) * opt)
    assert res.details["partition_ok"]


def test_ptas_shallow_instance_is_exact():
    f = Formula(n=4, clauses=((1, 2), (2, 3)))
    opt, _ = exact_maxsat(f)
    res = planar_ptas(f, Fraction(1, 4))  # k = 8 >> depth
    assert res.count == opt
    assert not res.assignment[3]  # x4 is in no part: it defaults to 0


def test_ptas_grid_corpus():
    for seed in range(5):
        f = gen_planar_instance("grid", (4, 4), seed=seed)
        opt, _ = exact_maxsat(f)
        res = planar_ptas(f, Fraction(1, 3))
        assert res.count >= math.ceil(Fraction(2, 3) * opt)


def test_ptas_eps_validation():
    f = Formula(n=2, clauses=((1, 2),))
    for eps in (0, 1, -1, Fraction(3, 2)):
        with pytest.raises(ValueError):
            planar_ptas(f, eps)


def test_ptas_k_is_ceil_two_over_eps():
    f = gen_planar_instance("chain", 6, seed=0)
    assert planar_ptas(f, Fraction(1, 3)).details["k"] == 6
    assert planar_ptas(f, Fraction(2, 5)).details["k"] == 5


# --- the recompute DP against its per-frame reference, and its meter ------


def _frames_of(td, formula):
    """Walk order, parent, owned clauses, frame and new variables per node.

    Computed from the tree alone: a clause is owned by the shallowest bag
    holding its vertex, a frame's variables are its bag's variables plus
    those of its owned clauses, and its new variables are those that no
    ancestor's frame holds.
    """
    order, parent = [td.root], {td.root: None}
    for node in order:
        for child in td.children[node]:
            parent[child] = node
            order.append(child)
    names = VertexIds(formula.m).names
    owner = {}
    for node in order:  # breadth first: the first bag seen is the shallowest
        for kind, j in sorted(names(td.bags[node])):
            if kind == "C":
                owner.setdefault(j, node)
    owned = {node: sorted(j for j, o in owner.items() if o == node) for node in order}
    frame, new, above = {}, {}, {td.root: set()}
    clauses = clause_tuples(formula)
    for node in order:
        frame[node] = {i for kind, i in names(td.bags[node]) if kind == "x"}
        for j in owned[node]:
            frame[node].update(abs(lit) for lit in clauses[j - 1])
        new[node] = frame[node] - above[node]
        for child in td.children[node]:
            above[child] = above[node] | frame[node]
    return order, parent, owned, frame, new


def _reference_bdtw(td, formula):
    """The DP before its plan was compiled: a ``psi | ext`` dict per
    extension, a ``tracked`` scope and a ``note_pass`` per frame."""
    assert validate_td(formula, td)[0]
    _, _, owners, frame, _ = _frames_of(td, formula)
    frame_vars = {node: tuple(sorted(vs)) for node, vs in frame.items()}
    clauses = clause_tuples(formula)

    def solve(node, psi):
        new_vars = tuple(v for v in frame_vars[node] if v not in psi)
        with tracked(len(new_vars) + len(frame_vars[node]) + 3):
            note_pass("decomposition")
            best_val = -1
            best_ext = {}
            for bits in product((0, 1), repeat=len(new_vars)):
                ext = dict(zip(new_vars, bits))
                local = psi | ext
                val = 0
                for j in owners[node]:
                    for lit in clauses[j - 1]:
                        v = local[abs(lit)]
                        if (v == 1) == (lit > 0):
                            val += 1
                            break
                child_ext = {}
                for child in td.children[node]:
                    cval, cext = solve(child, local)
                    val += cval
                    child_ext |= cext
                if val > best_val:
                    best_val = val
                    best_ext = ext | child_ext
            return best_val, best_ext

    with meter_scope("bdtw"):
        val, ext = solve(td.root, {})
    return val, {i: ext.get(i, 0) for i in range(1, formula.n + 1)}


def _metered(dp, td, formula):
    with meter_scope("outer") as sc:
        val, phi = dp(td, formula)
    return (val, phi), sc.report.peak_aux_cells, sc.report.pass_counts


def _assert_dp_contract(td, formula):
    (val, phi), peak, passes = _metered(bdtw_maxsat, td, formula)
    assert phi.dtype == bool
    assert ((val, as_dict(phi)), peak, passes) == _metered(_reference_bdtw, td, formula)
    # the meter: the outer scope opens with no live cells, so its peak and
    # passes are those of the bdtw scope
    frames, path_peak = _frames_and_peak(td, formula)
    assert peak == path_peak
    assert passes == {"decomposition": frames}


def _frames_and_peak(td, formula):
    """The frames the per-frame reference calls, and its peak cells: the
    largest root-to-leaf sum of len(new) + len(frame vars) + 3."""
    order, parent, _, frame, new = _frames_of(td, formula)
    path_cells, calls = {}, {}
    for node in order:
        up = parent[node]
        cells = len(new[node]) + len(frame[node]) + 3
        path_cells[node] = cells + (path_cells[up] if up is not None else 0)
        calls[node] = 1 if up is None else calls[up] << len(new[up])
    return sum(calls.values()), max(path_cells.values())


def test_pattern_cap_refuses_before_any_pattern():
    # the cap counts 2^|new| per node, as the per-frame reference derives
    # them, and refuses one pattern over it before _patterns ever runs
    f = gen_planar_instance("grid", (3, 3), seed=2)
    td = rebalance(tree_decompose(incidence_graph(f)))
    order, _, _, _, new = _frames_of(td, f)
    patterns = sum(1 << len(new[node]) for node in order)
    with mock.patch.object(treedp, "PATTERN_CAP", patterns):
        assert bdtw_maxsat(td, f)[0] == exact_maxsat(f)[0]
    unbuilt = mock.patch.object(treedp, "_patterns", side_effect=AssertionError("built"))
    with mock.patch.object(treedp, "PATTERN_CAP", patterns - 1), unbuilt:
        with pytest.raises(PatternCapError, match=f"needs {patterns} extension patterns"):
            bdtw_maxsat(td, f)
    # one 21-literal clause: its owner extends 20 variables, 2^20 patterns
    # plus those of the other nodes, over the default cap of 2^20
    wide = Formula(n=21, clauses=(tuple(range(1, 22)),))
    with unbuilt, pytest.raises(PatternCapError, match="pattern cap 1048576"):
        bdtw_maxsat(tree_decompose(incidence_graph(wide)), wide)


def test_frame_cap_refuses_before_any_pattern():
    # the cap counts the frames the per-frame reference calls, and refuses
    # one frame over it before _patterns ever runs
    f = gen_planar_instance("grid", (3, 3), seed=2)
    td = rebalance(tree_decompose(incidence_graph(f)))
    frames, _ = _frames_and_peak(td, f)
    with mock.patch.object(treedp, "FRAME_CAP", frames):
        assert bdtw_maxsat(td, f)[0] == exact_maxsat(f)[0]
    unbuilt = mock.patch.object(treedp, "_patterns", side_effect=AssertionError("built"))
    with mock.patch.object(treedp, "FRAME_CAP", frames - 1), unbuilt:
        with pytest.raises(FrameCapError, match=f"needs {frames} frames"):
            bdtw_maxsat(td, f)
    # the undecomposed chain of 26 variables: its path decomposition stacks
    # 201,326,587 frames, over the default cap of 2^27; rebalanced, 11,369
    chain = gen_planar_instance("chain", 26, seed=26)
    td = tree_decompose(incidence_graph(chain))
    with unbuilt, pytest.raises(FrameCapError, match="frame cap 134217728"):
        bdtw_maxsat(td, chain)
    assert bdtw_maxsat(rebalance(td), chain)[0] == exact_maxsat(chain)[0]


def _with_duplicates(rng, f, copies):
    clauses = clause_tuples(f)
    extra = tuple(rng.choice(clauses) for _ in range(copies)) if f.m else ()
    return Formula(n=f.n, clauses=clauses + extra)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(0, 14),
    st.integers(0, 4),
    st.integers(0, 2**30),
)
def test_bdtw_matches_per_frame_reference_random(n, m, copies, seed):
    rng = random.Random(seed)
    f = _with_duplicates(rng, random_formula(rng, n, m, min(3, n)), copies)
    td = tree_decompose(incidence_graph(f))
    _assert_dp_contract(td, f)
    _assert_dp_contract(rebalance(td), f)


def _reference_validate_td(formula, td):
    """``validate_td`` as it was over a vertex set and an edge set, with
    occurrence sets checked in sorted vertex order, on tuple-spelled
    vertices."""
    ids = VertexIds(formula.m)
    graph = ids.spelled(incidence_graph(formula))
    vertices = set(graph)
    edges = {frozenset((u, v)) for u, nbrs in graph.items() for v in nbrs}
    occurrences = {}
    for node, bag in enumerate(td.bags):
        for v in ids.names(bag):
            occurrences.setdefault(v, set()).add(node)
    missing = vertices - occurrences.keys()
    if missing:
        return False, f"vertex {sorted(missing)[0]} in no bag"
    for edge in sorted(edges, key=sorted):
        u, v = sorted(edge)
        if occurrences[u].isdisjoint(occurrences[v]):
            return False, f"edge {u}-{v} in no bag"
    parent = bfs_tree(td.root, td.children)
    for v, nodes in sorted(occurrences.items()):
        internal = sum(1 for x in nodes if x != td.root and parent[x] in nodes)
        if internal != len(nodes) - 1:
            return False, f"occurrence set of {v} is disconnected"
    return True, None


def _mutations(rng, td, vertices):
    """The decomposition's bags as they are; then, for each bag in turn, with
    one random vertex dropped from that bag; with one vertex dropped from
    every bag; and with a vertex added to a random bag."""
    bags = list(td.bags)
    yield bags
    for node, bag in enumerate(bags):
        if bag:
            dropped = bags.copy()
            dropped[node] = bag & ~(1 << rng.choice([v for v in vertices if bag >> v & 1]))
            yield dropped
    if not vertices:  # no clause, so no vertex to drop or add
        return
    gone = 1 << rng.choice(vertices)
    yield [bag & ~gone for bag in bags]
    added = bags.copy()
    node = rng.randrange(len(bags))
    added[node] = bags[node] | 1 << rng.choice(vertices)
    yield added


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(0, 14),
    st.integers(0, 4),
    st.integers(0, 2**30),
)
# a clause that loses two edges at once, its literals out of variable order
@example(3, 3, 1, 23)
@example(3, 3, 1, 34)
def test_validate_td_matches_graph_reference(n, m, copies, seed):
    rng = random.Random(seed)
    f = random_formula(rng, n, m, min(3, n))
    shuffled = tuple(tuple(rng.sample(c, len(c))) for c in clause_tuples(f))
    f = _with_duplicates(rng, Formula(n=n, clauses=shuffled), copies)
    graph = incidence_graph(f)
    vertices = sorted(graph)
    td = tree_decompose(graph)
    for base in (td, rebalance(td)):
        for bags in _mutations(rng, base, vertices):
            mutated = TreeDecomposition(
                bags=tuple(bags), children=base.children, root=base.root
            )
            assert validate_td(f, mutated) == _reference_validate_td(f, mutated)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("chain"), st.integers(2, 14)),
        st.tuples(st.just("tree"), st.integers(2, 14)),
        st.tuples(
            st.just("grid"), st.tuples(st.integers(2, 3), st.integers(2, 4))
        ),
    ),
    st.integers(0, 2**30),
)
def test_bdtw_matches_per_frame_reference_planar(shape, seed):
    kind, size = shape
    f = gen_planar_instance(kind, size, seed=seed)
    td = tree_decompose(incidence_graph(f))
    _assert_dp_contract(td, f)
    _assert_dp_contract(rebalance(td), f)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1, -1]), min_size=6, max_size=6), st.integers(0, 3))
def test_bdtw_matches_per_frame_reference_three_children(signs, copies):
    # root {x1, C4} with three children; C1 is owned above x2's only bag,
    # so x2 is new at node 1 and node 4 extends nothing
    a, b, c, d, e, g = signs
    clauses = ((a * 1, b * 2), (c * 1, 3), (-1, d * 4), (e * 1,), (g * 4,))
    f = Formula(n=4, clauses=clauses + clauses[:copies])
    bags = [
        {("x", 1), ("C", 4)},
        {("x", 1), ("C", 1)},
        {("x", 1), ("x", 3), ("C", 2)},
        {("x", 1), ("x", 4), ("C", 3)},
        {("C", 1), ("x", 2)},
        {("x", 4), ("C", 5)},
    ]
    for j in range(1, copies + 1):  # clause 5 + j duplicates clause j
        for bag in bags:
            if ("C", j) in bag:
                bag.add(("C", 5 + j))
    td = TreeDecomposition(
        bags=tuple(map(VertexIds(f.m).bag, bags)),
        children=((1, 2, 3), (4,), (), (5,), (), ()),
        root=0,
    )
    assert validate_td(f, td)[0]
    _assert_dp_contract(td, f)
    _assert_dp_contract(rebalance(td), f)


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.tuples(
            st.just("grid"), st.tuples(st.integers(2, 5), st.integers(2, 5)),
            st.just(8),
        ),
        st.tuples(st.just("tree"), st.integers(2, 40), st.just(6)),
        st.tuples(st.just("chain"), st.integers(2, 40), st.just(6)),
    ),
    st.integers(0, 2**30),
)
@example(("grid", (5, 5), 8), 1)
@example(("tree", 40, 6), 1)
@example(("chain", 40, 6), 1)
def test_bdtw_matches_per_frame_reference_ptas_parts(shape, seed):
    # every part the PTAS solves, decomposed as solve_part_exact does
    kind, size, k = shape
    f = gen_planar_instance(kind, size, seed=seed)
    for part in partition(f, k).parts:
        compact, _ = _renumbered(part)
        td = rebalance(tree_decompose(incidence_graph(compact)))
        _assert_dp_contract(td, compact)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1, -1]), min_size=7, max_size=7), st.integers(0, 4))
def test_bdtw_matches_per_frame_reference_stacked_choice_free(signs, copies):
    # node 0 has an empty bag, so it extends nothing; nodes 2, 3 and 6
    # extend nothing either: node 2 holds only x1 and x2, set at node 1,
    # node 3 owns C2 over x1, set two levels up, and node 6 owns C4 over x4,
    # set at node 5; node 4 extends x3 below the choice-free node 2
    a, b, c, d, e, g, h = signs
    clauses = ((a * 1, b * 2), (c * 1,), (d * 1, e * 3), (g * 4,), (h * 2,))
    f = Formula(n=4, clauses=clauses + clauses[:copies])
    bags = [
        set(),
        {("x", 1), ("x", 2), ("C", 1), ("C", 5)},
        {("x", 1), ("x", 2)},
        {("x", 1), ("C", 2)},
        {("x", 1), ("x", 3), ("C", 3)},
        {("x", 4)},
        {("x", 4), ("C", 4)},
    ]
    for j in range(1, copies + 1):  # clause 5 + j duplicates clause j
        for bag in bags:
            if ("C", j) in bag:
                bag.add(("C", 5 + j))
    td = TreeDecomposition(
        bags=tuple(map(VertexIds(f.m).bag, bags)),
        children=((1, 5), (2,), (3, 4), (), (), (6,), ()),
        root=0,
    )
    assert validate_td(f, td)[0]
    _assert_dp_contract(td, f)
    _assert_dp_contract(rebalance(td), f)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([1, -1]), min_size=23, max_size=23),
    st.lists(st.integers(1, 11), max_size=4),
)
@example([1] * 23, [])
@example([1, -1] * 11 + [1], [3, 8, 10])
def test_bdtw_matches_per_frame_reference_lifted_leaves(signs, copies):
    # node 0 extends x1 and node 1 extends x2; node 1's called children
    # alternate leaf (2), non-leaf (3, over leaf 4), leaf (6, adopted
    # through the choice-free node 5) and non-leaf (7, over leaf 8).  Leaf
    # clause C3 reads x2, set by the parent, and x1, set two levels up; C4
    # reads only x1, above the parent; C6 and C10 read a variable set by
    # their parent and one set further up; C8 reads x1 and x2 through the
    # folded node 5
    s = iter(signs)
    shapes = ((1,), (1, 2), (1, 2, 3), (1,), (2, 4), (2, 4, 5), (1, 2),
              (1, 2, 6), (2, 7), (1, 7, 8), (3,))
    clauses = tuple(tuple(next(s) * v for v in vs) for vs in shapes)
    f = Formula(n=8, clauses=clauses + tuple(clauses[j - 1] for j in copies))
    bags = [
        {("x", 1), ("C", 1)},
        {("x", 1), ("x", 2), ("C", 2)},
        {("x", 1), ("x", 2), ("x", 3), ("C", 3), ("C", 4), ("C", 11)},
        {("x", 2), ("x", 4), ("C", 5)},
        {("x", 2), ("x", 4), ("x", 5), ("C", 6)},
        {("x", 1), ("x", 2), ("C", 7)},
        {("x", 1), ("x", 2), ("x", 6), ("C", 8)},
        {("x", 1), ("x", 2), ("x", 7), ("C", 9)},
        {("x", 1), ("x", 7), ("x", 8), ("C", 10)},
    ]
    for dup, j in enumerate(copies, start=12):  # clause dup duplicates clause j
        for bag in bags:
            if ("C", j) in bag:
                bag.add(("C", dup))
    td = TreeDecomposition(
        bags=tuple(map(VertexIds(f.m).bag, bags)),
        children=((1,), (2, 3, 5, 7), (), (4,), (), (6,), (), (8,), ()),
        root=0,
    )
    assert validate_td(f, td)[0]
    _assert_dp_contract(td, f)
    _assert_dp_contract(rebalance(td), f)


def _reference_min_fill_order(component, graph):
    """``_min_fill_order`` as it was: every step sorts the vertices left and
    each neighbour list, and takes the first with the least fill."""
    work = {v: set(graph[v]) for v in component}
    remaining = set(component)
    while remaining:
        best_v = None
        best_fill = None
        for v in sorted(remaining):
            nl = sorted(work[v])
            fill = sum(1 for a, b in combinations(nl, 2) if b not in work[a])
            if best_fill is None or fill < best_fill:
                best_fill, best_v = fill, v
                if fill == 0:
                    break
        nbrs = sorted(work[best_v])
        yield best_v, frozenset([best_v, *nbrs])
        for a, b in combinations(nbrs, 2):
            work[a].add(b)
            work[b].add(a)
        for w in nbrs:
            work[w].discard(best_v)
        del work[best_v]
        remaining.discard(best_v)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("random"), st.integers(1, 9), st.integers(0, 24)),
        st.tuples(st.just("chain"), st.integers(2, 30), st.just(0)),
        st.tuples(st.just("tree"), st.integers(2, 30), st.just(0)),
        st.tuples(st.just("grid"), st.integers(1, 5), st.integers(2, 6)),
    ),
    st.integers(0, 3),
    st.integers(0, 2**30),
)
def test_min_fill_order_matches_reference(shape, copies, seed):
    kind, a, b = shape
    rng = random.Random(seed)
    if kind == "random":
        f = random_formula(rng, a, b, min(3, a))
    else:
        f = gen_planar_instance(kind, (a, b) if kind == "grid" else a, seed=seed)
    f = _with_duplicates(rng, f, copies)
    ids = VertexIds(f.m)
    graph = incidence_graph(f)
    spelled = ids.spelled(graph)
    seen = set()
    for start in sorted(graph):  # every component, as tree_decompose walks them
        if start not in seen:
            comp = set(bfs_tree(start, graph))
            seen |= comp
            got = [(ids.name(v), frozenset(map(ids.name, [v, *nbrs])))
                   for v, nbrs in _min_fill_order(comp, graph)]
            assert got == list(_reference_min_fill_order(set(map(ids.name, comp)), spelled))


def _reference_rebalance(td):
    """``rebalance`` as it was before its array walk: one ``bfs_tree`` per
    piece with dict sizes, and the pieces left without the splitter found by
    ``components`` over a set copy of the piece."""
    adj = {v: set() for v in range(td.num_nodes)}
    for v, cs in enumerate(td.children):
        for c in cs:
            adj[v].add(c)
            adj[c].add(v)
    out_bags, out_children = [], []

    def emit(bag):
        out_bags.append(bag)
        out_children.append([])
        return len(out_bags) - 1

    def build(nodes, boundary):
        bbag = td.bags[boundary[0]] | td.bags[boundary[-1]] if boundary else 0
        if len(nodes) == 1:
            (only,) = nodes
            return emit(td.bags[only] | bbag)
        top = boundary[0] if len(boundary) == 2 else min(nodes)
        parent = bfs_tree(top, adj, allowed=nodes)
        size = dict.fromkeys(parent, 1)
        largest_child = dict.fromkeys(parent, 0)
        for v in reversed(parent):
            if v != top:
                p = parent[v]
                size[p] += size[v]
                largest_child[p] = max(largest_child[p], size[v])
        if len(boundary) == 2:
            candidates = [boundary[1]]
            while candidates[-1] != top:
                candidates.append(parent[candidates[-1]])
            candidates.reverse()
        else:
            candidates = sorted(nodes)
        s = min(candidates, key=lambda c: max(largest_child[c], len(nodes) - size[c]))
        root = emit(td.bags[s] | bbag)
        rest = nodes - {s}
        subtree_roots = []
        for tree in components(sorted(rest), adj, allowed=rest):
            comp = set(tree)
            sub_boundary = tuple(
                sorted({b for b in boundary if b in comp}
                       | {w for w in adj[s] if w in comp})
            )
            assert len(sub_boundary) <= 2, "separator invariant broken"
            subtree_roots.append(build(comp, sub_boundary))
        attach(root, subtree_roots)
        return root

    def attach(node, roots):
        if len(roots) <= 2:
            out_children[node].extend(roots)
            return
        half = len(roots) // 2
        for group in (roots[:half], roots[half:]):
            if len(group) == 1:
                out_children[node].append(group[0])
            else:
                spare = emit(out_bags[node])
                out_children[node].append(spare)
                attach(spare, group)

    root = build(set(range(td.num_nodes)), ())
    return TreeDecomposition(
        bags=tuple(out_bags),
        children=tuple(tuple(c) for c in out_children),
        root=root,
    )


@st.composite
def _random_trees(draw):
    """A random tree of 1-60 nodes rooted at node 0, with random int-mask
    bags; in a hub-heavy tree every parent is one of the first three nodes."""
    rng = random.Random(draw(st.integers(0, 2**30)))
    n = draw(st.integers(1, 60))
    hubs = draw(st.booleans())
    children = [[] for _ in range(n)]
    for v in range(1, n):
        children[rng.randrange(min(v, 3) if hubs else v)].append(v)
    bags = tuple(rng.getrandbits(12) for _ in range(n))
    return TreeDecomposition(bags, tuple(map(tuple, children)), 0)


@settings(max_examples=80, deadline=None)
@given(_random_trees())
def test_rebalance_matches_reference_random_trees(td):
    assert rebalance(td) == _reference_rebalance(td)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("random"), st.integers(1, 9), st.integers(0, 24)),
        st.tuples(st.just("chain"), st.integers(2, 30), st.just(0)),
        st.tuples(st.just("tree"), st.integers(2, 30), st.just(0)),
        st.tuples(st.just("grid"), st.integers(1, 5), st.integers(2, 6)),
    ),
    st.integers(0, 3),
    st.integers(0, 2**30),
)
@example(("tree", 30, 0), 0, 5)
@example(("grid", 5, 6), 0, 0)
def test_rebalance_matches_reference_formulas(shape, copies, seed):
    kind, a, b = shape
    rng = random.Random(seed)
    if kind == "random":
        f = random_formula(rng, a, b, min(3, a))
    else:
        f = gen_planar_instance(kind, (a, b) if kind == "grid" else a, seed=seed)
    f = _with_duplicates(rng, f, copies)
    td = tree_decompose(incidence_graph(f))
    rb, ref = rebalance(td), _reference_rebalance(td)
    assert rb == ref
    # the plan compiled on the rebuilt tree runs the reference's frames
    _, frames, peak = treedp._compile_plan(rb, f)
    assert (frames, peak) == _frames_and_peak(ref, f)
