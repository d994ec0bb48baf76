"""Formula model: parsing, evaluation, histograms, incidence graphs."""

import random

import pytest
from hypothesis import given, strategies as st

from satmeter.formula import (
    Formula,
    FormulaError,
    all_const_assignment,
    clause_histogram,
    eval_assignment,
    incidence_graph,
    pack_clauses,
    parse_assignment,
    parse_dimacs,
    serialize_assignment,
    serialize_dimacs,
)

import numpy as np

from conftest import random_formula


def test_parse_basic():
    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")
    assert f.n == 2
    assert f.r == 2
    assert f.clauses == ((1, 2), (-1,))


def test_parse_tautology_rejected():
    with pytest.raises(FormulaError):
        parse_dimacs("p cnf 1 1\n1 -1 0\n")


def test_parse_duplicate_literal_collapsed():
    f = parse_dimacs("p cnf 2 1\n1 1 2 0\n")
    assert f.clauses == ((1, 2),)


def test_parse_multiline_clause_and_comments():
    f = parse_dimacs("c hi\np cnf 3 1\n1\n2 -3 0\n")
    assert f.clauses == ((1, 2, -3),)


def test_parse_count_mismatch_warns():
    with pytest.warns(UserWarning):
        parse_dimacs("p cnf 2 5\n1 0\n")


def test_parse_errors():
    for text in ["", "1 0\n", "p cnf x y\n", "p dnf 1 1\n1 0\n"]:
        with pytest.raises(FormulaError):
            parse_dimacs(text)


def test_formula_literal_out_of_range():
    with pytest.raises(FormulaError):
        Formula(n=2, clauses=((3,),))


def test_formula_pinned_r_enforced():
    with pytest.raises(FormulaError):
        Formula(n=3, clauses=((1, 2, 3),), r=2)


def test_eval_examples():
    f = Formula(n=2, clauses=((1, 2), (-1,), (2,)))
    assert eval_assignment(f, {1: 0, 2: 1}) == 3
    pair = Formula(n=1, clauses=((1,), (-1,)))
    assert eval_assignment(pair, {1: 0}) == 1
    assert eval_assignment(pair, {1: 1}) == 1
    empty = Formula(n=2, clauses=())
    assert eval_assignment(empty, all_const_assignment(2, 1)) == 0


def test_eval_partial_assignment_rejected():
    f = Formula(n=2, clauses=((1, 2),))
    with pytest.raises(FormulaError):
        eval_assignment(f, {1: 1})


def test_eval_partial_names_smallest_unset_variable():
    f = Formula(n=5, clauses=((1, 2),))
    with pytest.raises(FormulaError, match="variable 2 unset"):
        eval_assignment(f, {1: 1, 3: 0, 5: 1})


def test_histogram_examples():
    f = Formula(n=2, clauses=((1, 2), (-1,), (2,)))
    assert clause_histogram(f) == {1: 2, 2: 1}
    assert clause_histogram(Formula(n=2, clauses=())) == {}
    assert clause_histogram(Formula(n=3, clauses=((1, 2, 3),))) == {3: 1}


def test_incidence_graph_example():
    f = Formula(n=2, clauses=((2, 1), (-1,), (2,)))
    assert incidence_graph(f) == {
        ("x", 1): [("C", 1), ("C", 2)],
        ("x", 2): [("C", 1), ("C", 3)],
        ("C", 1): [("x", 2), ("x", 1)],  # literal order
        ("C", 2): [("x", 1)],
        ("C", 3): [("x", 2)],
    }


def test_incidence_graph_trivial_cases():
    assert incidence_graph(Formula(n=2, clauses=())) == {
        ("x", 1): [],
        ("x", 2): [],
    }
    assert incidence_graph(Formula(n=1, clauses=((1,),))) == {
        ("x", 1): [("C", 1)],
        ("C", 1): [("x", 1)],
    }


def test_assignment_roundtrip():
    phi = {1: 1, 2: 0, 3: 1}
    assert serialize_assignment(phi) == "v 1 -2 3 0"
    assert parse_assignment("v 1 -2 3 0") == phi


@given(st.integers(1, 8), st.integers(0, 20), st.integers(0, 2**30))
def test_dimacs_roundtrip(n, m, seed):
    f = random_formula(random.Random(seed), n, m, min(3, n))
    parsed = parse_dimacs(serialize_dimacs(f))
    # r is re-inferred from the clauses on parse, so compare the structure
    assert (parsed.n, parsed.clauses) == (f.n, f.clauses)


@given(st.integers(1, 8), st.integers(1, 20), st.integers(0, 2**30))
def test_pack_clauses_matches_eval(n, m, seed):
    rng = random.Random(seed)
    f = random_formula(rng, n, m, min(3, n))
    packed = pack_clauses(f)
    rows = np.array(
        [[rng.randint(0, 1) for _ in range(n)] for _ in range(5)],
        dtype=np.int64,
    )
    counts = packed.count_satisfied(rows)
    for row, count in zip(rows, counts):
        phi = {i + 1: int(row[i]) for i in range(n)}
        assert eval_assignment(f, phi) == count
