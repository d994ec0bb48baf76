"""Brute-force oracle and exact expectation engine."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from satmeter import oracle
from satmeter.formula import CapError, Formula, eval_assignment
from satmeter.hashfam import HashFamilySpec
from satmeter.oracle import (
    ORACLE_VAR_CAP,
    exact_maxsat,
    expected_satisfied,
)

from conftest import assignment_from_hash, clause_tuples, enum_family, random_formula


def _exact(f):
    """``exact_maxsat`` with its bool witness vector as a list."""
    opt, phi = exact_maxsat(f)
    assert phi.dtype == bool and phi.shape == (f.n,)
    return opt, phi.tolist()


def test_exact_examples():
    f = Formula(n=2, clauses=((1, 2), (-1,), (2,)))
    assert _exact(f) == (3, [0, 1])
    pair = Formula(n=1, clauses=((1,), (-1,)))
    assert _exact(pair) == (1, [0])  # lex-smallest tie-break
    assert _exact(Formula(n=2, clauses=())) == (0, [0, 0])


def test_oracle_cap():
    f = Formula(n=ORACLE_VAR_CAP + 1, clauses=((1,),))
    with pytest.raises(CapError):
        exact_maxsat(f)


@settings(max_examples=60)
@given(st.integers(1, 7), st.integers(1, 15), st.integers(0, 2**30))
def test_oracle_matches_reference_enumeration(n, m, seed):
    f = random_formula(random.Random(seed), n, m, min(3, n))
    best = -1
    witness = None
    for bits in itertools.product((0, 1), repeat=n):
        c = eval_assignment(f, bits)
        if c > best:  # strict: itertools order is lexicographic
            best, witness = c, list(bits)
    assert _exact(f) == (best, witness)


def test_expected_satisfied_examples():
    for width in (1, 2, 3):
        f = Formula(n=width, clauses=(tuple(range(1, width + 1)),))
        assert expected_satisfied(f, Fraction(1, 2)) == 1 - Fraction(
            1, 1 << width
        )
    f = Formula(n=2, clauses=((1, 2),))
    assert expected_satisfied(f, Fraction(618, 1000)) == Fraction(
        854076, 1000000
    )
    fp = Formula(n=2, clauses=((-1, 2), (1,), (2,)))
    assert expected_satisfied(fp, Fraction(1)) == 3


def test_expected_satisfied_p_range():
    f = Formula(n=1, clauses=((1,),))
    with pytest.raises(ValueError):
        expected_satisfied(f, Fraction(3, 2))


@settings(max_examples=25)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**20))
def test_expectation_matches_family_average(n, m, seed):
    """Family mean of satisfied counts equals E at p=t/q when k >= width."""
    rng = random.Random(seed)
    r = min(2, n)
    f = random_formula(rng, n, m, r)
    k = min(max(f.r, 1), n)
    for q in (5, 7):
        if q < n:
            continue
        spec = HashFamilySpec(n=n, k=k, a=1, b=2, q=q)
        total = 0
        size = 0
        for h in enum_family(spec):
            total += eval_assignment(f, assignment_from_hash(h, n))
            size += 1
        assert Fraction(total, size) == expected_satisfied(
            f, Fraction(spec.threshold, q)
        )


def _reference_maxsat(f):
    """(OPT, lex-smallest witness) by plain enumeration."""
    best, witness = -1, None
    for bits in itertools.product((0, 1), repeat=f.n):
        c = eval_assignment(f, bits)
        if c > best:
            best, witness = c, list(bits)
    return best, witness


@settings(max_examples=60)
@given(
    st.integers(1, 7),
    st.integers(1, 10),
    st.lists(st.integers(0, 2**16), min_size=1, max_size=12),
    st.integers(0, 2**30),
)
def test_oracle_counts_duplicate_clauses(n, m, picks, seed):
    base = random_formula(random.Random(seed), n, m, min(3, n))
    clauses = clause_tuples(base)
    extra = tuple(clauses[i % base.m] for i in picks)
    f = Formula(n=n, clauses=clauses + extra)
    assert _exact(f) == _reference_maxsat(f)


@pytest.mark.parametrize("n", range(5, 10))
def test_oracle_block_split(monkeypatch, n):
    """Blocks of 2^3 rows: the top n-3 variables are fixed per block.

    Each inner width splits a block's variables between indexed outer axes
    and the contiguous inner axis of falsifying columns.
    """
    monkeypatch.setattr(oracle, "_BLOCK_BITS", 3)
    for inner in (0, 1, 2, 3):
        monkeypatch.setattr(oracle, "_INNER_BITS", inner)
        rng = random.Random(n)
        for _ in range(6):
            base = random_formula(rng, n, rng.randint(1, 4 * n), 3)
            picks = range(rng.randint(1, 6))
            clauses = clause_tuples(base)
            extra = tuple(rng.choice(clauses) for _ in picks)
            f = Formula(n=n, clauses=clauses + extra)
            assert _exact(f) == _reference_maxsat(f)
        # a tie across blocks: the witness comes from the first block
        tie = Formula(n=n, clauses=((1,), (-1,)))
        assert _exact(tie) == (1, [0] * n)


def test_oracle_count_does_not_wrap():
    """Counts cross the uint8, uint16 and uint32 boundaries unwrapped."""
    for m in (255, 256, 65_535, 65_536):
        f = Formula(n=2, clauses=((1,),) * m)
        assert _exact(f) == (m, [1, 0])


def test_oracle_n22_known_answers():
    """Four blocks of 2^20 rows, on formulas whose answer is built in."""
    n = 22
    # every clause holds a negative literal: all zeros satisfies all m
    rng = random.Random(n)
    clauses = []
    for _ in range(3 * n):
        clause = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, n + 1), 3)
        ]
        if all(lit > 0 for lit in clause):
            clause[0] = -clause[0]
        clauses.append(tuple(clause))
    f = Formula(n=n, clauses=tuple(clauses))
    assert _exact(f) == (f.m, [0] * n)
    # the n positive units: only all ones, the last row of the last block
    units = Formula(n=n, clauses=tuple((i,) for i in range(1, n + 1)))
    assert _exact(units) == (n, [1] * n)
