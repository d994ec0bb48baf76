"""Hash families: primes, thresholds, enumeration, independence."""

import contextlib
import io
import itertools
import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satmeter import hashfam
from satmeter.cli import main
from satmeter.formula import Formula, eval_assignment
from satmeter.hashfam import (
    HashFamilySpec,
    batch_assignments,
    block_counts,
    block_values,
    family_search,
    field_size_for,
    is_prime,
    smallest_prime_geq,
)
from satmeter.metering import meter_scope

from conftest import HashFunction, assignment_from_hash, enum_family


def test_smallest_prime_examples():
    assert smallest_prime_geq(4) == 5
    assert smallest_prime_geq(1000) == 1009
    assert smallest_prime_geq(7) == 7
    with pytest.raises(ValueError):
        smallest_prime_geq(1)


@given(st.integers(2, 3000))
def test_smallest_prime_properties(x):
    p = smallest_prime_geq(x)
    assert p >= x
    assert is_prime(p)
    assert all(not is_prime(y) for y in range(x, p))


def test_field_size_rule():
    # q = min prime >= max(n, b, 20*m*r)
    assert field_size_for(3, 1000, 9, 2) == smallest_prime_geq(1000)
    assert field_size_for(3, 2, 100, 2) == smallest_prime_geq(4000)
    assert field_size_for(50, 2, 1, 1) == smallest_prime_geq(50)


def test_threshold_round_half_up():
    # t = round-half-up(q * a / b)
    assert HashFamilySpec(n=3, k=2, a=1, b=2, q=5).threshold == 3  # 2.5 -> 3
    assert HashFamilySpec(n=3, k=2, a=1, b=3, q=7).threshold == 2  # 2.33 -> 2
    assert HashFamilySpec(n=5, k=1, a=2, b=3, q=5).threshold == 3  # 3.33 -> 3


def test_spec_validation():
    with pytest.raises(ValueError):
        HashFamilySpec(n=1, k=2, a=1, b=2, q=5)  # n < k
    with pytest.raises(ValueError):
        HashFamilySpec(n=3, k=2, a=3, b=2, q=5)  # a > b
    with pytest.raises(ValueError):
        HashFamilySpec(n=3, k=2, a=1, b=2, q=4)  # q not prime
    with pytest.raises(ValueError):
        HashFamilySpec(n=8, k=2, a=1, b=2, q=5)  # q < n


def test_hash_function_evaluation():
    f = HashFunction(coeffs=(1, 0), q=5, threshold=3)
    assert [f.eval(i) for i in range(1, 5)] == [1, 2, 3, 4]
    assert [f.bit(i) for i in range(1, 5)] == [1, 1, 0, 0]
    # coeffs (0,0): eval is 0 everywhere, below any t >= 1
    zero = HashFunction(coeffs=(0, 0), q=5, threshold=1)
    assert assignment_from_hash(zero, 3).tolist() == [True, True, True]
    # t = 0: nothing below the threshold
    never = HashFunction(coeffs=(1, 2), q=5, threshold=0)
    assert assignment_from_hash(never, 3).tolist() == [False, False, False]


def test_family_size_and_enumeration_order():
    spec = HashFamilySpec(n=3, k=2, a=1, b=2, q=5)
    fams = list(enum_family(spec))
    assert len(fams) == spec.size == 25
    # lexicographic, constant coefficient fastest
    assert [f.coeffs for f in fams[:6]] == [
        (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0),
    ]
    assert fams[-1].coeffs == (4, 4)


def _family_rows(spec):
    """Every member's assignment, in order, block by block."""
    blocks, c0 = range(spec.q ** (spec.k - 1)), np.arange(spec.q)
    return np.concatenate([batch_assignments(spec, block_values(spec, b), c0) for b in blocks])


def test_pairwise_marginals_exact():
    # spec(n=3, k=2, a=1, b=2, q=5): t=3, marginal exactly 3/5
    spec = HashFamilySpec(n=3, k=2, a=1, b=2, q=5)
    rows = _family_rows(spec)
    t = spec.threshold
    assert rows.sum(axis=0).tolist() == [t * spec.q] * 3  # 15 of 25
    for i, j in itertools.combinations(range(3), 2):
        assert np.count_nonzero(rows[:, i] & rows[:, j]) == t * t  # 9 of 25


def test_k1_family_is_constant_functions():
    spec = HashFamilySpec(n=3, k=1, a=1, b=2, q=5)
    rows = _family_rows(spec)
    assert rows.shape == (5, 3)
    assert (rows == rows[:, :1]).all()  # degree-0 polynomial: constant
    assert np.count_nonzero(rows[:, 0]) == spec.threshold  # marginal exactly t/q


def test_three_wise_independence_for_k3():
    spec = HashFamilySpec(n=3, k=3, a=1, b=2, q=3)
    rows = _family_rows(spec)
    assert len(rows) == 27
    t = spec.threshold
    # every triple pattern on 3 distinct points appears with product frequency
    count_111 = np.count_nonzero(rows.all(axis=1))
    assert count_111 * spec.q**3 == t**3 * len(rows)


@given(
    st.integers(2, 6),
    st.integers(1, 2),
    st.integers(0, 2**20),
)
def test_batch_matches_enumeration(n, k, seed):
    import random

    rng = random.Random(seed)
    q = smallest_prime_geq(max(n, rng.randint(2, 11)))
    b = rng.randint(1, q)
    a = rng.randint(1, b)
    spec = HashFamilySpec(n=n, k=k, a=a, b=b, q=q)
    fams = list(enum_family(spec))
    rows = []
    for block in range(q ** (k - 1)):
        rows.append(batch_assignments(spec, block_values(spec, block), np.arange(q)))
    stacked = np.concatenate(rows, axis=0)
    assert stacked.shape == (spec.size, n)
    for f, row in zip(fams, stacked):
        assert [f.bit(i) for i in range(1, n + 1)] == list(
            row.astype(int)
        )


def test_batch_chunking_matches_full_block():
    spec = HashFamilySpec(n=4, k=2, a=1, b=3, q=7)
    acc = block_values(spec, 2)  # c1 = 2
    full = batch_assignments(spec, acc, np.arange(7))
    parts = [
        batch_assignments(spec, acc, np.arange(s, min(s + 3, 7))) for s in (0, 3, 6)
    ]
    assert np.array_equal(np.concatenate(parts, axis=0), full)
    # any constant terms, as the run walk passes its run starts
    picks = np.array([6, 0, 3, 3])
    assert np.array_equal(batch_assignments(spec, acc, picks), full[picks])


@given(
    st.integers(1, 40),
    st.integers(1, 4),
    st.integers(2, 10**6),
    st.integers(0, 2**20),
)
def test_family_index_0_is_all_ones(n, k, q_min, seed):
    # the all-zero polynomial is below every threshold t >= 1, and any spec
    # has one (a >= 1, b <= q); so family_search's pick, hit or fallback,
    # counts at least the all-ones row, which chou_solve relies on
    rng = random.Random(seed)
    k = min(k, n)
    q = smallest_prime_geq(max(n, q_min))
    b = rng.randint(1, q)
    spec = HashFamilySpec(n=n, k=k, a=rng.randint(1, b), b=b, q=q)
    assert spec.threshold >= 1
    zero = np.zeros(1, dtype=np.int64)
    row = batch_assignments(spec, block_values(spec, 0), zero)[0]
    assert row.all() and row.size == n


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(1, 3),
    st.sampled_from([0.5, 0.9]),
    st.integers(0, 2**20),
    st.data(),
)
def test_block_counts_match_every_row(q, k, neg_share, seed, data):
    rng = random.Random(seed)
    n = rng.randint(1, q)
    k = min(k, n)
    if k == 3:
        q = min(q, 7)  # 343 members
        n = min(n, q)
    t = data.draw(st.one_of(st.just(1), st.just(q), st.integers(1, q)), label="t")
    spec = HashFamilySpec(n=n, k=k, a=t, b=q, q=q)
    assert spec.threshold == t
    clauses = []
    for _ in range(rng.randint(1, 10)):
        vs = rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
        clauses.append(tuple(-v if rng.random() < neg_share else v for v in vs))
    clauses += rng.choices(clauses, k=rng.randint(0, 3))  # duplicates count
    formula = Formula(n=n, clauses=tuple(clauses))
    family = []
    for block in range(q ** (k - 1)):  # block 0 has acc = 0
        acc = block_values(spec, block)
        starts, counts = block_counts(spec, acc, formula)
        assert starts[0] == 0 and (np.diff(starts) > 0).all() and starts[-1] < q
        assert starts.size <= 2 * formula.lits.size + 1
        steps = np.repeat(counts, np.diff(starts, append=q))
        rows = batch_assignments(spec, acc, np.arange(q))
        assert steps.tolist() == [eval_assignment(formula, row) for row in rows]
        family.extend(steps.tolist())
    # the blocks' steps, each repeated by its length, cover the family once, in order
    members = enum_family(spec)
    assert family == [eval_assignment(formula, assignment_from_hash(f, n)) for f in members]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 3),
    st.sampled_from([7, 11, 13]),
    st.booleans(),  # a = b: t = q
    st.integers(0, 2**20),
)
def test_hashfam_counts_match_enumeration(n, k, q, all_ones, seed):
    rng = random.Random(seed)
    k = min(k, n)
    b = rng.randint(1, q)
    a = b if all_ones else rng.randint(1, b)
    argv = ["hashfam", "--n", n, "--k", k, "--a", a, "--b", b, "--q", q]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([str(x) for x in argv]) == 0
    rep = json.loads(out.getvalue())
    spec = HashFamilySpec(n=n, k=k, a=a, b=b, q=q)
    rows = np.array([assignment_from_hash(f, n) for f in enum_family(spec)])
    assert rep["marginal_counts"] == rows.sum(axis=0).tolist()
    pair = np.count_nonzero(rows[:, 0] & rows[:, 1]) if n >= 2 else None
    assert rep["pair11_count_vars_1_2"] == pair


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([5, 7, 11]),
    st.integers(1, 3),
    st.sampled_from([1, 2, 3, 7, 10**9]),
    st.sampled_from([0.5, 0.9]),
    st.integers(0, 2**20),
)
def test_family_search_matches_plain_scan(q, k, scan_cap, neg_share, seed):
    rng = random.Random(seed)
    n = rng.randint(k, q)
    spec = HashFamilySpec(n=n, k=k, a=rng.randint(1, q), b=q, q=q)
    clauses = []
    for _ in range(rng.randint(1, 12)):
        vs = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
        # mostly negative literals put the first hit deep in block 0
        clauses.append(tuple(-v if rng.random() < neg_share else v for v in vs))
    clauses += rng.choices(clauses, k=rng.randint(0, 3))  # duplicates count
    formula = Formula(n=n, clauses=tuple(clauses))
    threshold = rng.randint(0, formula.m + 1)  # m + 1 accepts nothing

    with meter_scope("search") as sc, mock.patch.object(hashfam, "SCAN_CAP", scan_cap):
        out = family_search(spec, formula, threshold, "test", "clauses")
    rows = [assignment_from_hash(f, n) for f in enum_family(spec)]
    counts = [eval_assignment(formula, row) for row in rows]
    first = next((i for i, c in enumerate(counts) if c >= threshold), None)

    assert sc.report.pass_counts == {"clauses": out.scanned}
    if out.fallback:
        # nothing scanned passes, and the scan stopped at the family's end
        # or at the cap, exactly
        assert first is None or first >= out.scanned
        assert out.scanned == min(scan_cap, spec.size)
        seen = counts[: out.scanned]
        assert out.family_index == seen.index(max(seen))
    else:
        assert out.family_index == first
        assert out.scanned == first + 1
    assert out.assignment.tolist() == rows[out.family_index].tolist()
    assert out.assignment.dtype == bool and out.assignment.base is None  # not a chunk view
    assert out.count == counts[out.family_index]
    assert (out.family_size, out.q, out.threshold_desc) == (spec.size, q, "test")


@pytest.mark.parametrize("scan_cap, hit", [(5, False), (6, True)])
def test_family_search_cap_cuts_at_a_step_start(scan_cap, hit):
    # block 0 is all ones below c0 = t and all zeros from t on, so the
    # all-negative formula's first hit starts a step at family index t
    spec = HashFamilySpec(n=3, k=2, a=5, b=11, q=11)
    formula = Formula(n=3, clauses=((-1,), (-2, -3), (-3,)))
    with meter_scope("search"), mock.patch.object(hashfam, "SCAN_CAP", scan_cap):
        out = family_search(spec, formula, formula.m, "test", "clauses")
    assert spec.threshold == 5
    assert (out.fallback, out.scanned) == (not hit, scan_cap)
    assert (out.family_index, out.count) == ((5, 3) if hit else (0, 0))
