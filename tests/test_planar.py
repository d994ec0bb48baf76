"""Dummy connection, BFS leveling, band deletion, partitioning."""

import random
from dataclasses import replace

import pytest

from conftest import VertexIds, clause_tuples, random_formula, two_chains
from satmeter.formula import Formula, bfs_tree, incidence_graph, serialize_dimacs
from satmeter.planar import (
    bfs_levels,
    choose_deletion_band,
    connect_with_dummy,
    gen_planar_instance,
    partition,
    verify_partition,
)

HUGE_K = 10**13


def _levels(f: Formula):
    """The dummy-connected incidence graph and its levels from the dummy,
    vertex m + n + 1."""
    graph = connect_with_dummy(f)
    return graph, bfs_levels(graph, f.m + f.n + 1, f.n + f.m + 2)


def _reference_band(level_of, k, skip_clause):
    """Band by level sets: |C(W_i)| per residue over the triples
    U_j = L_2j + L_2j+1 + L_2j+2, j = 0..d/2, and the union of the cheapest
    residue's triples.  Returns (chosen residue, losses, band vertices)."""
    d0 = max(level_of.values())
    d = d0 if d0 % 2 == 0 else d0 + 1
    level_sets = [set() for _ in range(d + 1)]
    for v, lvl in level_of.items():
        level_sets[lvl].add(v)

    def triple(j):
        return [lvl for lvl in (2 * j, 2 * j + 1, 2 * j + 2) if 1 <= lvl <= d]

    losses = [0] * min(k, d // 2 + 2)
    for j in range(d // 2 + 1):
        for lvl in triple(j):
            if lvl % 2 == 0:
                losses[j % k] += sum(
                    1 for v in level_sets[lvl] if v[0] == "C" and v[1] != skip_clause
                )
    chosen = min(range(len(losses)), key=lambda i: (losses[i], i))
    band = set()
    for j in range(d // 2 + 1):
        if j % k == chosen:
            for lvl in triple(j):
                band |= level_sets[lvl]
    return chosen, tuple(losses), band


def _reference_parts(f: Formula, k: int):
    """Clause indices of the components left once the reference band is out."""
    ids = VertexIds(f.m)
    graph, level_of = (ids.spelled(keyed) for keyed in _levels(f))
    chosen, losses, band = _reference_band(level_of, k, f.m + 1)
    kept = set(level_of) - band
    parts, seen = [], set()
    for j in range(1, f.m + 1):
        if ("C", j) in kept and ("C", j) not in seen:
            comp = bfs_tree(("C", j), graph, allowed=kept)
            seen.update(comp)
            parts.append(tuple(sorted(v[1] for v in comp if v[0] == "C" and v[1] <= f.m)))
    return chosen, losses, tuple(parts)


def _multi_component_formula(rng: random.Random) -> Formula:
    """Random 1-3-CNF blocks on disjoint variable ranges, with isolated
    variables between blocks, extra unit clauses and duplicated clauses."""
    clauses, offset = [], 0
    for _ in range(rng.randint(1, 4)):
        block = random_formula(rng, rng.randint(1, 8), rng.randint(0, 12), rng.randint(1, 3))
        clauses += [tuple(lit + offset if lit > 0 else lit - offset for lit in c)
                    for c in clause_tuples(block)]
        offset += block.n + rng.randint(0, 2)  # isolated variables
    if offset:
        clauses += [(rng.choice((1, -1)) * rng.randint(1, offset),) for _ in range(2)]
    if clauses:
        clauses += rng.sample(clauses, min(3, len(clauses)))
    return Formula(n=offset, clauses=tuple(clauses))


def test_connect_with_dummy_two_components():
    f = Formula(n=2, clauses=((1,), (2,)))
    ids = VertexIds(f.m)
    graph = connect_with_dummy(f)
    spelled = ids.spelled(graph)
    dummy = ("x", 3)  # variable n + 1, its clause m + 1
    # one representative clause per component, plus the dummy clause edge
    nbrs = set(spelled[dummy])
    assert ("C", 1) in nbrs and ("C", 2) in nbrs and ("C", 3) in nbrs
    assert spelled[("C", 3)] == [dummy]
    level_of = bfs_levels(graph, ids.id(dummy), 6)
    assert {v for v in graph if v <= f.m} <= set(level_of)  # the clauses


def test_connect_with_dummy_empty_formula():
    graph = VertexIds(0).spelled(connect_with_dummy(Formula(n=0, clauses=())))
    assert graph == {("x", 1): [("C", 1)], ("C", 1): [("x", 1)]}


def test_bfs_levels_example():
    f = Formula(n=2, clauses=((1, 2), (-1,), (2,)))
    graph, level_of = (VertexIds(f.m).spelled(keyed) for keyed in _levels(f))
    assert level_of[("x", 3)] == 1
    attached = [v for v in graph[("x", 3)] if v[0] == "C"]
    for v in attached:
        assert level_of[v] == 2
    # clause at level 2 puts its variables at level <= 3
    assert level_of[("x", 1)] == 3
    # depth d = 4: triples j = 0..2, residues 0..3 counted
    assert max(level_of.values()) == 4
    assert len(choose_deletion_band(_levels(f)[1], HUGE_K, f.m)[1]) == 4


def test_bfs_levels_match_reference_bfs():
    rng = random.Random(2)
    for _ in range(10):
        f = gen_planar_instance("tree", rng.randint(3, 20), seed=rng.random())
        graph, level_of = _levels(f)
        root = f.m + f.n + 1
        # reference: plain BFS distances + 1
        from collections import deque

        dist = {root: 1}
        q = deque([root])
        while q:
            v = q.popleft()
            for w in graph[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        assert level_of == dist


def test_deletion_band_small_depth_has_free_residue():
    # depth < 2k: some residue has no triple at all, loss 0
    f = Formula(n=2, clauses=((1, 2),))
    _, level_of = _levels(f)
    chosen, losses = choose_deletion_band(level_of, 8, f.m)
    assert losses[chosen] == 0
    # odd depth 3 rounds up to d = 4: residues 0..3 counted
    assert max(level_of.values()) == 3 and len(losses) == 4


def test_deletion_band_loss_bounds():
    rng = random.Random(4)
    for _ in range(15):
        f = gen_planar_instance("grid", (rng.randint(2, 5), rng.randint(2, 5)),
                                seed=rng.randint(0, 99))
        _, level_of = _levels(f)
        for k in (2, 3, 4):
            chosen, losses = choose_deletion_band(level_of, k, f.m)
            assert sum(losses) <= 2 * f.m
            assert k * losses[chosen] <= 2 * f.m  # cheapest residue
            result = partition(f, k)
            assert result.clause_loss == losses[chosen] == f.m - result.retained


def test_deletion_band_huge_k_matches_first_empty_residue():
    # triples run over j = 0..d/2, so residues from d/2 + 2 on add nothing
    f = gen_planar_instance("chain", 20, seed=0)
    _, level_of = _levels(f)
    deepest = max(level_of.values())
    small_k = (deepest + deepest % 2) // 2 + 2
    small = choose_deletion_band(level_of, small_k, f.m)
    assert choose_deletion_band(level_of, HUGE_K, f.m) == small
    # the same band: the same parts
    huge_parts, small_parts = partition(f, HUGE_K), partition(f, small_k)
    assert huge_parts.part_clause_indices == small_parts.part_clause_indices
    assert huge_parts.clause_loss == small_parts.clause_loss


def test_partition_chain_example():
    f = gen_planar_instance("chain", 8, seed=0)
    assert f.m == 7
    result = partition(f, 3)
    report = verify_partition(f, result, 3)
    assert report.ok
    assert report.retained_clauses >= 3  # ceil((1/3) * 7)


def test_partition_shallow_instance_keeps_everything():
    f = Formula(n=2, clauses=((1, 2),))
    result = partition(f, 8)
    assert len(result.parts) == 1
    assert result.retained == f.m
    assert clause_tuples(result.parts[0]) == clause_tuples(f)


def test_partition_grid_example():
    f = gen_planar_instance("grid", (5, 5), seed=1)
    result = partition(f, 4)
    report = verify_partition(f, result, 4)
    assert report.ok
    assert 2 * report.retained_clauses >= f.m  # (1 - 2/4) m
    assert report.max_level_span <= 5  # 2k - 3


def test_verify_partition_detects_shared_variable():
    f = gen_planar_instance("chain", 8, seed=0)
    result = partition(f, 3)
    if len(result.parts) < 2:
        pytest.skip("needs two parts")
    # part 0 also takes a clause of part 1, so the two share its variables
    stolen = clause_tuples(result.parts[1])[0]
    merged = Formula(n=f.n, clauses=clause_tuples(result.parts[0]) + (stolen,))
    broken = replace(result, parts=(merged,) + result.parts[1:])
    report = verify_partition(f, broken, 3)
    assert not report.disjoint
    assert report.disjoint_witness in {abs(lit) for lit in stolen}


def test_partition_matches_reference_band():
    rng = random.Random(11)
    for _ in range(60):
        f = _multi_component_formula(rng)
        for k in (2, 3, 4, 5, 8, HUGE_K):
            result = partition(f, k)
            chosen, losses, parts = _reference_parts(f, k)
            assert (result.chosen_i, result.residue_losses) == (chosen, losses)
            assert result.part_clause_indices == parts
            clauses = clause_tuples(f)
            assert [clause_tuples(p) for p in result.parts] == [
                tuple(clauses[j - 1] for j in ids) for ids in parts
            ]
            assert result.retained == f.m - result.clause_loss
            assert verify_partition(f, result, k).ok


def test_partition_kept_dummy_joins_components():
    # residue 2 keeps levels 1-3: the dummy and both chains' first clauses
    f = two_chains()
    result = partition(f, 5)
    chosen, losses, parts = _reference_parts(f, 5)
    assert result.chosen_i == chosen == 2
    assert result.residue_losses == losses
    assert result.part_clause_indices == parts
    assert len(result.parts) == 5
    joined = [ids for ids in parts if min(ids) <= 11 < max(ids)]
    assert joined == [(1, 12)]
    report = verify_partition(f, result, 5)
    assert report.ok and report.parts == 5


def test_partition_rejects_small_k():
    with pytest.raises(ValueError):
        partition(Formula(n=2, clauses=((1, 2),)), 1)


def test_generators_are_planar_and_shaped():
    chain = gen_planar_instance("chain", 8, seed=0)
    assert chain.m == 7 and all(len(c) == 2 for c in clause_tuples(chain))
    g = incidence_graph(chain)
    degs = sorted(len(g[chain.m + i]) for i in range(1, 9))
    assert degs == [1, 1, 2, 2, 2, 2, 2, 2]  # path
    grid = gen_planar_instance("grid", (5, 5), seed=0)
    assert grid.m == 2 * 5 * 4
    tree = gen_planar_instance("tree", 15, seed=0)
    assert tree.m == 14
    for f in (chain, grid, tree):
        # Euler's bound for a bipartite planar graph, |E| <= 2|V| - 4; the
        # incidence graph has one edge per literal
        assert f.lits.size <= 2 * (f.n + f.m) - 4


def test_generator_determinism():
    a = serialize_dimacs(gen_planar_instance("grid", (4, 4), seed=9))
    b = serialize_dimacs(gen_planar_instance("grid", (4, 4), seed=9))
    assert a == b
    c = serialize_dimacs(gen_planar_instance("grid", (4, 4), seed=10))
    assert a != c


def test_generator_rejects_bad_input():
    with pytest.raises(ValueError):
        gen_planar_instance("chain", 1)
    with pytest.raises(ValueError):
        gen_planar_instance("moebius", 5)
