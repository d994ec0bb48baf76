"""Bias profiles and the sqrt(2)/2 pipeline."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from satmeter.biased import (
    bias_profile,
    chou_search,
    chou_solve,
    expectation_target,
    flipped_formula,
    random_assignment_floor,
    search_marginal,
)
from satmeter.formula import Formula, eval_assignment
from satmeter.oracle import exact_maxsat, expected_satisfied

from conftest import clause_tuples, random_formula

SQRT2_OVER_2 = Fraction(
    math.isqrt(2 * 10**28), 2 * 10**14
)  # rational lower bound on sqrt(2)/2


def test_sqrt_bound_is_a_lower_bound():
    assert SQRT2_OVER_2**2 <= Fraction(1, 2)
    assert Fraction(1, 2) - SQRT2_OVER_2**2 < Fraction(1, 10**12)


def test_bias_profile_example():
    f = Formula(n=2, clauses=((1, 2), (-1,), (2,)))
    p = bias_profile(f)
    assert p.scale == 4  # r = 2
    assert Fraction(p.per_var[1], p.scale) == Fraction(-1, 4)
    assert Fraction(p.per_var[2], p.scale) == Fraction(3, 4)
    assert p.b_f_fraction() == 1
    # b* = 4 * ((1 - 2/2)*2 + (1 - 3/4)*1) = 1
    assert p.b_star_fraction() == 1
    assert p.neg.tolist() == [False, True, False]  # index 0 unused


def test_bias_profile_positive_units():
    f = Formula(n=1, clauses=((1,), (1,)))
    p = bias_profile(f)
    assert p.b_f_fraction() == 1  # two width-1 occurrences at 1/2 each
    assert p.b_star_fraction() == 0  # width-1 term 1 - 2/2 = 0


def test_bias_profile_empty():
    p = bias_profile(Formula(n=2, clauses=()))
    assert p.b_f == 0 and p.b_star == 0 and p.per_var.tolist() == [0, 0, 0]


def test_bias_profile_exact_vs_fraction_reference():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 8)
        f = random_formula(rng, n, rng.randint(1, 3 * n), min(3, n))
        p = bias_profile(f)
        for i in range(1, n + 1):
            ref = sum(
                (Fraction(1, 1 << len(c)) if lit > 0 else
                 -Fraction(1, 1 << len(c)))
                for c in clause_tuples(f)
                for lit in c
                if abs(lit) == i
            )
            assert Fraction(p.per_var[i], p.scale) == ref
        assert p.b_f_fraction() == sum(
            (abs(Fraction(p.per_var[i], p.scale)) for i in range(1, n + 1)),
            Fraction(0),
        )


def test_positively_biased_formula_example():
    f = Formula(n=2, clauses=((1, 2), (-1,), (2,)))
    x1 = np.array([False, True, False])
    assert clause_tuples(flipped_formula(f, x1)) == ((-1, 2), (1,), (2,))
    assert clause_tuples(flipped_formula(f, np.zeros(3, dtype=bool))) == clause_tuples(f)
    neg = Formula(n=1, clauses=((-1,),))
    assert clause_tuples(flipped_formula(neg, x1[:2])) == ((1,),)


def test_flipped_formula_is_positively_biased():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 8)
        f = random_formula(rng, n, rng.randint(1, 3 * n), min(3, n))
        p = bias_profile(f)
        fp = flipped_formula(f, p.neg)
        assert (bias_profile(fp).per_var >= 0).all()
        assert bias_profile(fp).b_f == p.b_f  # flips preserve |bias|


def test_search_marginal_and_target_example():
    # F' = (-x1 v x2) ^ (x1) ^ (x2): b_F = 1, b* = 1, m = 3
    fp = Formula(n=2, clauses=((-1, 2), (1,), (2,)))
    p = bias_profile(fp)
    assert p.b_f_fraction() == 1 and p.b_star_fraction() == 1
    assert search_marginal(p, 3) == 1  # (3-1)/(6-4) = 1
    assert expectation_target(p) == Fraction(7, 4) + Fraction(1, 4)
    assert eval_assignment(fp, [1, 1]) == 3  # all-1s meets T = 2


def test_expectation_target_zero_bias():
    f = Formula(n=2, clauses=((1, -2), (-1, 2)))
    p = bias_profile(f)
    assert p.b_f == 0
    assert (
        expectation_target(p)
        == random_assignment_floor(p)
        == Fraction(3, 2)
    )


def test_chou_search_candidate_meets_expectation():
    fp = Formula(n=2, clauses=((-1, 2), (1,), (2,)))
    p = bias_profile(fp)
    outcome = chou_search(fp, p)
    assert not outcome.fallback
    assert outcome.count >= 2
    assert eval_assignment(fp, outcome.assignment) == outcome.count


def test_chou_solve_examples():
    f = Formula(n=2, clauses=((1, 2), (-1,), (2,)))
    phi, count = chou_solve(f)
    assert count == 3  # OPT
    # b_F = 1 > b* = 0 forces the all-1s branch
    f2 = Formula(n=1, clauses=((1,), (1,)))
    res = chou_solve(f2)
    assert res.count == 2
    assert res.details["branch"] == "all-ones(b_F > b*)"
    assert chou_solve(Formula(n=0, clauses=())).count == 0


def test_chou_solve_single_wide_clause():
    f = Formula(n=2, clauses=((1, 2),))
    assert chou_solve(f).count == 1


def test_chou_solve_random_ratio():
    rng = random.Random(77)
    for _ in range(20):
        f = random_formula(rng, 5, 15, 2)
        opt, _ = exact_maxsat(f)
        _, count = chou_solve(f)
        assert count >= math.ceil(SQRT2_OVER_2 * opt)


@pytest.mark.xfail(strict=True, reason="chou's acceptance target is below (sqrt 2)/2 OPT here")
@pytest.mark.parametrize(
    "n, clauses",
    [
        # OPT 13, need 10; target 8.92, chou 9
        (4, [(-1, 4)] * 3 + [(2, 4)] * 3 + [(-4,)] + [(-4, -2)] * 3 + [(2,)] * 3),
        # OPT 10, need 8; target 6.83, chou 7
        (5, [(-5, -3)] * 3 + [(3, 5)] * 3 + [(4,)] * 3 + [(-4, 1)]),
    ],
)
def test_chou_ratio_miss_on_duplicated_clauses(n, clauses):
    """A known defect: on these formulas with repeated clauses the bias
    bound, not the search, falls short of (sqrt 2)/2 OPT."""
    f = Formula(n=n, clauses=tuple(clauses))
    opt, _ = exact_maxsat(f)
    assert chou_solve(f).count >= math.ceil(SQRT2_OVER_2 * opt)


def test_chou_candidate_matches_exact_expectation_semantics():
    """On positively-biased formulas the search target never exceeds the
    exact expectation at the clamped marginal plus the rounding slack."""
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 6)
        f = random_formula(rng, n, rng.randint(2, 3 * n), 2)
        p = bias_profile(f)
        fp = flipped_formula(f, p.neg)
        pp = bias_profile(fp)
        if pp.b_f > pp.b_star or 2 * fp.m * pp.scale - 4 * pp.b_f <= 0:
            continue
        marginal = search_marginal(pp, fp.m)
        # Proposition-4 second bullet: E at the unclamped optimum marginal
        # reaches the target; the clamp only helps on positive formulas.
        assert expected_satisfied(fp, marginal) >= expectation_target(
            pp
        ) - Fraction(1, 1000)


@pytest.mark.parametrize("solve", [bias_profile, chou_solve])
def test_per_variable_data_stays_arrays(solve):
    """At n = 2^20 with one clause, the bias profile and chou's
    back-transform peak at under 48 bytes per variable: per-variable data
    is held in arrays (a dict or set of n entries costs about 100)."""
    n = 2**20
    f = Formula.trusted(n, np.array([0, 1]), np.array([1]))
    tracemalloc.start()
    try:
        solve(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48 * n, f"{peak / n:.1f} bytes per variable"
