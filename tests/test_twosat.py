"""Half approximation, 2-satisfiable transform and the 0.618 search."""

import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from satmeter.formula import Formula, eval_assignment
from satmeter.oracle import exact_maxsat
from satmeter.twosat import (
    half_approx,
    ls_search,
    ls_solve,
    to_two_satisfiable,
)

from conftest import clause_tuples, formulas_with_duplicates, random_formula

LS_RATIO = Fraction(618, 1000)


def test_half_examples():
    f = Formula(n=1, clauses=((1,), (1,), (-1,)))
    phi, count = half_approx(f)
    assert phi.tolist() == [True] and count == 2
    pair = Formula(n=1, clauses=((1,), (-1,)))
    phi, count = half_approx(pair)
    assert phi.tolist() == [True] and count == 1
    phi, count = half_approx(Formula(n=0, clauses=()))
    assert phi.tolist() == [] and count == 0


@settings(max_examples=80)
@given(st.integers(1, 10), st.integers(1, 30), st.integers(0, 2**30))
def test_half_meets_ratio(n, m, seed):
    f = random_formula(random.Random(seed), n, m, min(3, n))
    _, count = half_approx(f)
    assert count >= math.ceil(f.m / 2)


def test_transform_example_with_negative_unit():
    f = Formula(n=2, clauses=((1, 2), (-1,), (2,)))
    ts = to_two_satisfiable(f)
    assert ts.clauses() == [(-1, 2), (2,), (1,)]  # the flipped x1's unit last
    assert np.flatnonzero(ts.flipped_vars()).tolist() == [1]


def test_transform_complementary_pair():
    f = Formula(n=2, clauses=((1,), (-1,), (2,)))
    ts = to_two_satisfiable(f)
    assert ts.clauses() == [(1,), (2,)]
    assert not ts.flipped_vars().any()


def test_transform_counts_repeated_units():
    # p = 1, q = 3: flipped, and its unit kept |p - q| + 1 = 3 times
    ts = to_two_satisfiable(Formula(n=1, clauses=((-1,),) * 3 + ((1,),)))
    assert ts.clauses() == [(1,)] * 3
    assert np.flatnonzero(ts.flipped_vars()).tolist() == [1]
    f = Formula(n=3, clauses=((1,), (1,), (-1,), (1,), (-2,), (-2,), (3,), (-3,), (-3,), (2, 3)))
    ts = to_two_satisfiable(f)
    assert ts.clauses() == [(-2, -3), (1,), (1,), (1,), (2,), (2,), (3,), (3,)]
    assert np.flatnonzero(ts.flipped_vars()).tolist() == [2, 3]


def test_transform_no_negative_units_is_identity():
    f = Formula(n=3, clauses=((1, -2), (3,), (2, 3)))
    ts = to_two_satisfiable(f)
    assert ts.clauses() == [(1, -2), (2, 3), (3,)]
    assert not ts.flipped_vars().any()


def test_transform_output_units_positive_and_distinct():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 8)
        f = random_formula(rng, n, rng.randint(1, 3 * n), min(3, n))
        units = [c for c in to_two_satisfiable(f).clauses() if len(c) == 1]
        assert all(c[0] > 0 for c in units)
        assert len({c[0] for c in units}) == len(units)


def test_transform_count_conservation_on_pair_free_formulas():
    """Without complementary unit pairs the transform conserves the
    satisfied count exactly: the back-transformed assignment satisfies the
    original formula as well as the candidate satisfies the transformed
    one (corpus clauses are distinct, so units collapse nowhere)."""
    rng = random.Random(9)
    checked = 0
    while checked < 30:
        n = rng.randint(2, 8)
        f = random_formula(rng, n, rng.randint(1, 3 * n), min(3, n))
        pos = {c[0] for c in clause_tuples(f) if len(c) == 1 and c[0] > 0}
        neg = {-c[0] for c in clause_tuples(f) if len(c) == 1 and c[0] < 0}
        if pos & neg:
            continue
        checked += 1
        ts = to_two_satisfiable(f)
        fprime = ts.formula
        flipped = ts.flipped_vars()
        for _ in range(5):
            phi_prime = [rng.randint(0, 1) for _ in range(n)]
            phi = [
                1 - v if flipped[i] else v
                for i, v in enumerate(phi_prime, start=1)
            ]
            assert eval_assignment(f, phi) == eval_assignment(
                fprime, phi_prime
            )


@settings(max_examples=200, deadline=None)
@example(Formula(n=1, clauses=((1,), (-1,), (-1,))), 0)  # both signs, flipped
@example(Formula(n=2, clauses=((1,), (-1,), (1, 2))), 2)  # both signs, not flipped
@given(formulas_with_duplicates(), st.integers(0, 2**7 - 1))
def test_transform_unit_multiplicity_identity(f, bits):
    """With p positive and q negative units on x_i and d = min(p, q) -
    [min(p, q) >= 1], any row phi' over the transformed formula satisfies
    count_F(phi' ^ flip) >= count_T(phi') + sum d, with equality when phi'
    is 1 on every variable that has units."""
    ts = to_two_satisfiable(f)
    fprime = ts.formula
    units = [c[0] for c in clause_tuples(f) if len(c) == 1]
    p = np.array([units.count(v) for v in range(1, f.n + 1)], dtype=int)
    q = np.array([units.count(-v) for v in range(1, f.n + 1)], dtype=int)
    d = int((np.minimum(p, q) - (np.minimum(p, q) >= 1)).sum())
    flip = ts.flipped_vars()[1:]
    phi_prime = (bits >> np.arange(f.n)) & 1 == 1
    assert eval_assignment(f, phi_prime ^ flip) >= eval_assignment(fprime, phi_prime) + d
    phi_prime |= (p + q) > 0
    assert eval_assignment(f, phi_prime ^ flip) == eval_assignment(fprime, phi_prime) + d


def test_ls_search_spec_example():
    f = Formula(n=2, clauses=((1, 2), (-1,), (2,)))
    ts = to_two_satisfiable(f)
    outcome = ls_search(ts)
    assert not outcome.fallback
    assert outcome.count >= 2  # 0.618 * 3 = 1.854
    assert eval_assignment(ts.formula, outcome.assignment) == outcome.count


def test_ls_search_empty_and_tiny():
    empty = ls_search(to_two_satisfiable(Formula(n=2, clauses=())))
    assert empty.count == 0 and empty.assignment.tolist() == [True, True]
    single = Formula(n=1, clauses=((1,),))
    outcome = ls_search(to_two_satisfiable(single))
    assert outcome.count == 1
    assert outcome.assignment.tolist() == [True]


def test_ls_solve_builds_the_transform_once():
    # the all-negative triangle makes the search scan 625 candidates; the
    # build, the search and the back-transform are each still charged one
    # re-stream of the transformed formula, which is built once
    f = Formula(n=3, clauses=((-1, -2), (-2, -3), (-1, -3), (1,)))
    with mock.patch.object(Formula, "trusted", side_effect=Formula.trusted) as built:
        res = ls_solve(f)
    assert built.call_count == 1
    assert res.details["family_index"] == 624
    assert res.report.pass_counts == {"twosat": 3 + 625, "input": 6}


def test_ls_solve_examples():
    f = Formula(n=2, clauses=((1, 2), (-1,), (2,)))
    phi, count = ls_solve(f)
    assert count == 3  # OPT
    pair = Formula(n=1, clauses=((1,), (-1,)))
    _, count = ls_solve(pair)
    assert count == 1


@settings(max_examples=100, deadline=None)
@example(Formula(n=1, clauses=((-1,),) * 3 + ((1,),)))
@example(Formula(n=2, clauses=((-1,), (-1,), (-2,), (-2,))))  # two flipped, repeated units
@given(formulas_with_duplicates())
def test_half_and_ls_guarantees_on_duplicated_clauses(f):
    """README's half and ls guarantees, in exact arithmetic, on formulas whose
    clauses repeat.  chou is left out: it misses (sqrt 2)/2 on some of them
    (``test_chou_ratio_miss_on_duplicated_clauses``)."""
    opt, _ = exact_maxsat(f)
    assert half_approx(f).count >= math.ceil(Fraction(f.m, 2))
    assert ls_solve(f).count >= math.ceil(LS_RATIO * opt)


def test_ls_solve_random_ratio():
    rng = random.Random(123)
    for _ in range(20):
        f = random_formula(rng, 6, 20, 3)
        opt, _ = exact_maxsat(f)
        _, count = ls_solve(f)
        assert count >= math.ceil(LS_RATIO * opt)


def test_ls_solve_space_report_present():
    f = Formula(n=4, clauses=((1, 2), (3, -4)))
    res = ls_solve(f)
    assert res.report is not None
    assert res.report.peak_aux_cells > 0
    assert "twosat" in res.report.pass_counts
