"""Dummy connection, BFS leveling, band deletion, partitioning."""

import random

import pytest

from satmeter.formula import Formula, incidence_graph
from satmeter.planar import (
    bfs_levels,
    choose_deletion_band,
    connect_with_dummy,
    gen_planar_instance,
    partition,
    planarity_sanity,
    verify_partition,
)


def test_connect_with_dummy_two_components():
    f = Formula(n=2, clauses=((1,), (2,)))
    conn = connect_with_dummy(f)
    assert conn.dummy_var == 3
    assert conn.dummy_clause_index == 3
    dummy = ("x", 3)
    # one representative clause per component, plus the dummy clause edge
    nbrs = set(conn.graph[dummy])
    assert ("C", 1) in nbrs and ("C", 2) in nbrs and ("C", 3) in nbrs
    levels = bfs_levels(conn.graph, dummy)
    assert {v for v in conn.graph if v[0] == "C"} <= set(levels.level_of)


def test_connect_with_dummy_empty_formula():
    conn = connect_with_dummy(Formula(n=0, clauses=()))
    assert conn.dummy_var == 1
    assert conn.graph == {("x", 1): [("C", 1)], ("C", 1): [("x", 1)]}


def test_bfs_levels_example():
    f = Formula(n=2, clauses=((1, 2), (-1,), (2,)))
    conn = connect_with_dummy(f)
    levels = bfs_levels(conn.graph, ("x", conn.dummy_var))
    assert levels.level_of[("x", conn.dummy_var)] == 1
    attached = [
        v for v in conn.graph[("x", conn.dummy_var)]
        if v[0] == "C"
    ]
    for v in attached:
        assert levels.level_of[v] == 2
    # clause at level 2 puts its variables at level <= 3
    assert levels.level_of[("x", 1)] == 3
    assert levels.depth % 2 == 0
    assert levels.depth in (levels.raw_depth, levels.raw_depth + 1)


def test_bfs_levels_match_reference_bfs():
    rng = random.Random(2)
    for _ in range(10):
        f = gen_planar_instance("tree", rng.randint(3, 20), seed=rng.random())
        conn = connect_with_dummy(f)
        root = ("x", conn.dummy_var)
        levels = bfs_levels(conn.graph, root)
        # reference: plain BFS distances + 1
        from collections import deque

        dist = {root: 1}
        q = deque([root])
        while q:
            v = q.popleft()
            for w in conn.graph[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        assert {v: l for v, l in levels.level_of.items()} == dist


def test_deletion_band_small_depth_has_free_residue():
    # depth < 2k: some residue has no triple at all, loss 0
    f = Formula(n=2, clauses=((1, 2),))
    conn = connect_with_dummy(f)
    levels = bfs_levels(conn.graph, ("x", conn.dummy_var))
    band = choose_deletion_band(levels, 8, skip_clause=conn.dummy_clause_index)
    assert band.clause_loss == 0


def test_deletion_band_loss_bounds():
    rng = random.Random(4)
    for _ in range(15):
        f = gen_planar_instance("grid", (rng.randint(2, 5), rng.randint(2, 5)),
                                seed=rng.randint(0, 99))
        conn = connect_with_dummy(f)
        levels = bfs_levels(conn.graph, ("x", conn.dummy_var))
        for k in (2, 3, 4):
            band = choose_deletion_band(
                levels, k, skip_clause=conn.dummy_clause_index
            )
            assert sum(band.residue_losses) <= 2 * f.m
            assert k * band.clause_loss <= 2 * f.m  # cheapest residue
            assert band.residue_losses[band.chosen_i] == band.clause_loss


def test_deletion_band_huge_k_matches_first_empty_residue():
    # triples run over j = 0..d/2, so residues from d/2 + 2 on add nothing
    f = gen_planar_instance("chain", 20, seed=0)
    conn = connect_with_dummy(f)
    levels = bfs_levels(conn.graph, ("x", conn.dummy_var))
    small_k = levels.depth // 2 + 2
    small = choose_deletion_band(levels, small_k, skip_clause=conn.dummy_clause_index)
    huge = choose_deletion_band(levels, 10**13, skip_clause=conn.dummy_clause_index)
    assert huge.k == 10**13
    assert (huge.chosen_i, huge.band_vertices, huge.clause_loss) == (
        small.chosen_i, small.band_vertices, small.clause_loss
    )
    assert huge.residue_losses == small.residue_losses


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
    assert result.parts[0].clauses == f.clauses


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
    broken = result.__class__(
        parts=result.parts,
        part_vars=(
            result.part_vars[0] | {next(iter(result.part_vars[1]))},
        ) + result.part_vars[1:],
        part_clause_indices=result.part_clause_indices,
        band=result.band,
        levels=result.levels,
        retained=result.retained,
    )
    report = verify_partition(f, broken, 3)
    assert not report.disjoint
    assert report.disjoint_witness in result.part_vars[1]


def test_partition_rejects_small_k():
    with pytest.raises(ValueError):
        partition(Formula(n=2, clauses=((1, 2),)), 1)


def test_generators_are_planar_and_shaped():
    chain = gen_planar_instance("chain", 8, seed=0)
    assert chain.m == 7 and all(len(c) == 2 for c in chain.clauses)
    g = incidence_graph(chain)
    degs = sorted(len(g[("x", i)]) for i in range(1, 9))
    assert degs == [1, 1, 2, 2, 2, 2, 2, 2]  # path
    grid = gen_planar_instance("grid", (5, 5), seed=0)
    assert grid.m == 2 * 5 * 4
    tree = gen_planar_instance("tree", 15, seed=0)
    assert tree.m == 14
    for f in (chain, grid, tree):
        assert planarity_sanity(f)


def test_generator_determinism():
    a = gen_planar_instance("grid", (4, 4), seed=9)
    b = gen_planar_instance("grid", (4, 4), seed=9)
    assert a == b
    c = gen_planar_instance("grid", (4, 4), seed=10)
    assert a != c


def test_generator_rejects_bad_input():
    with pytest.raises(ValueError):
        gen_planar_instance("chain", 1)
    with pytest.raises(ValueError):
        gen_planar_instance("moebius", 5)
