"""Shared corpus generators and references for the test suite.

``random_formula`` and its kin emit formulas with pairwise-distinct
clauses.  ``Formula`` does not enforce that: it keeps duplicate clauses and
counts them with multiplicity, and ``formulas_with_duplicates`` draws such
formulas, and ``high_degree_trees`` draws tree formulas with vertices of
high degree.  ``clause_tuples`` is a formula's clauses as literal tuples, the
view the references read.  ``HashFunction`` and ``enum_family`` are the
hash family point by point in Python ints, the reference for the solvers'
batched evaluator.  ``VertexIds`` translates between the int vertex ids and
int-mask bags of the incidence graph and the ``("C", j)`` / ``("x", i)``
spelling that test fixtures and the graph references use.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from satmeter.formula import Formula
from satmeter.planar import gen_planar_instance


def clause_tuples(f: Formula) -> tuple[tuple[int, ...], ...]:
    """The clauses of ``f`` as a tuple of literal tuples, in order."""
    flat = f.lits.tolist()
    return tuple(tuple(flat[a:b]) for a, b in itertools.pairwise(f.offsets.tolist()))


@dataclass(frozen=True)
class VertexIds:
    """The incidence-graph ids of a formula with ``m`` clauses: ``("C", j)``
    is j - 1 (the dummy clause ``("C", m + 1)`` is m) and ``("x", i)`` is
    m + i.  A bag is an int mask, bit v for id v."""

    m: int

    def id(self, vertex: tuple[str, int]) -> int:
        kind, i = vertex
        return i - 1 if kind == "C" else self.m + i

    def name(self, v: int) -> tuple[str, int]:
        return ("C", v + 1) if v <= self.m else ("x", v - self.m)

    def bag(self, vertices) -> int:
        """The int mask of tuple-spelled vertices."""
        return sum({1 << self.id(v) for v in vertices})

    def names(self, bag: int) -> frozenset[tuple[str, int]]:
        """The tuple-spelled vertices of an int-mask bag."""
        return frozenset(self.name(v) for v in range(bag.bit_length()) if bag >> v & 1)

    def spelled(self, keyed: dict) -> dict:
        """A graph or level map re-keyed by tuple-spelled vertices, in its
        order; a list value (a neighbour list) is spelled too."""
        return {self.name(v): [self.name(w) for w in x] if isinstance(x, list) else x
                for v, x in keyed.items()}


def as_dict(phi) -> dict[int, int]:
    """An assignment vector as the ``{var: 0/1}`` dict that reference code reads."""
    return {var: int(value) for var, value in enumerate(phi, start=1)}


@dataclass(frozen=True)
class HashFunction:
    """A thresholded polynomial over GF(q): bit(i) = 1 iff eval(i) < t.

    ``coeffs`` is leading-coefficient first: (c_{k-1}, ..., c_1, c_0).
    """

    coeffs: tuple[int, ...]
    q: int
    threshold: int

    def eval(self, i: int) -> int:
        acc = 0
        for c in self.coeffs:
            acc = (acc * i + c) % self.q
        return acc

    def bit(self, i: int) -> int:
        return 1 if self.eval(i) < self.threshold else 0


def enum_family(spec) -> list[HashFunction]:
    """All q^k functions of a ``HashFamilySpec``, lexicographic in coeffs."""
    return [HashFunction(coeffs, spec.q, spec.threshold)
            for coeffs in itertools.product(range(spec.q), repeat=spec.k)]


def assignment_from_hash(f: HashFunction, n: int) -> np.ndarray:
    """The assignment over [n] with x_i = bit_f(i), as a bool vector."""
    return np.array([f.bit(i) for i in range(1, n + 1)], dtype=bool)


@st.composite
def formulas_with_duplicates(draw):
    """Up to 10 clauses on n <= 7 variables, each repeated 1-3 times, shuffled."""
    n = draw(st.integers(0, 7))
    lits = st.integers(1, max(n, 1)).flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.lists(lits, min_size=1, max_size=4, unique_by=abs)
    clauses = draw(st.lists(clause, max_size=10)) if n else []
    clauses = [c for c in clauses for _ in range(draw(st.integers(1, 3)))]
    r = draw(st.sampled_from([0, 0, 4, 40, 70]))
    return Formula(n=n, clauses=draw(st.permutations(clauses)), r=r)


@st.composite
def high_degree_trees(draw):
    """A planar tree formula around high-degree variables: a star (x1 joined
    to every other variable), a caterpillar (a path with legs on every path
    variable) or a broom (a path whose last variable is a star's centre).
    Every tree edge is a 2-clause and every leg a unit, signs at random."""
    kind = draw(st.sampled_from(["star", "caterpillar", "broom"]))
    if kind == "star":
        spine, legs = 1, draw(st.integers(2, 200))
    elif kind == "caterpillar":
        spine, legs = draw(st.integers(2, 12)), draw(st.integers(2, 16))
    else:
        spine, legs = draw(st.integers(2, 40)), draw(st.integers(2, 120))
    edges = [(v, v + 1) for v in range(1, spine)]
    n = spine
    for hub in range(1, spine + 1) if kind == "caterpillar" else (spine,):
        edges += [(hub, leg) for leg in range(n + 1, n + legs + 1)]
        n += legs
    rng = random.Random(draw(st.integers(0, 2**30)))

    def lit(v: int) -> int:
        return v if rng.random() < 0.5 else -v
    clauses = [(lit(a), lit(b)) for a, b in edges]
    clauses += [(lit(v),) for v in range(spine + 1, n + 1)]
    return Formula(n=n, clauses=tuple(clauses))


def random_formula(
    rng: random.Random, n: int, m: int, r: int, min_width: int = 1
) -> Formula:
    """m distinct non-tautological clauses of widths min_width..r on n vars."""
    seen: set[tuple[int, ...]] = set()
    clauses: list[tuple[int, ...]] = []
    budget = 0
    for w in range(min_width, r + 1):
        budget += math.comb(n, w) * (1 << w)
    m = min(m, budget)
    while len(clauses) < m:
        w = rng.randint(min_width, r)
        vs = rng.sample(range(1, n + 1), min(w, n))
        clause = tuple(sorted(v if rng.random() < 0.5 else -v for v in vs))
        if clause in seen:
            continue
        seen.add(clause)
        clauses.append(clause)
    return Formula(n=n, clauses=tuple(clauses), r=r)


def random_positive_units_formula(
    rng: random.Random, n: int, m: int, r: int
) -> Formula:
    """2-satisfiable formula: units all positive, other clauses width >= 2.

    Any two clauses are simultaneously satisfiable: two positive units
    always are, and a width->=2 clause always has a literal avoiding any
    single unit's variable constraint.
    """
    seen: set[tuple[int, ...]] = set()
    clauses: list[tuple[int, ...]] = []
    budget = n + sum(math.comb(n, w) * (1 << w) for w in range(2, r + 1))
    m = min(m, budget)
    while len(clauses) < m:
        if rng.random() < 0.3:
            clause = (rng.randint(1, n),)
        else:
            w = rng.randint(2, max(r, 2))
            vs = rng.sample(range(1, n + 1), min(w, n))
            if len(vs) < 2:
                continue
            clause = tuple(
                sorted(v if rng.random() < 0.5 else -v for v in vs)
            )
        if clause in seen:
            continue
        seen.add(clause)
        clauses.append(clause)
    return Formula(n=n, clauses=tuple(clauses), r=r)


def two_chains() -> Formula:
    """Chains of 12 variables at seeds 0 and 1, the second on variables 13-24.

    At band modulus k = 5 the partition deletes residue 2 and keeps the dummy
    variable, which joins the first clause of each chain into one part.
    """
    first = gen_planar_instance("chain", 12, seed=0)
    second = gen_planar_instance("chain", 12, seed=1)
    shifted = tuple(tuple(lit + 12 if lit > 0 else lit - 12 for lit in c)
                    for c in clause_tuples(second))
    return Formula(n=24, clauses=clause_tuples(first) + shifted)
