"""The 1/2 approximation and the 0.618 hash-family search.

The 0.618 pipeline: rewrite the input into a 2-satisfiable formula whose
unit clauses are all positive (flipping polarity of variables with more
negative than positive unit clauses), search an enumerated pairwise-independent
family of 618/1000-biased assignments for one satisfying more than 0.618 of
the transformed clauses, and translate the row it scored back by XOR with
the flip mask.  Unit clauses are counted with their multiplicity, so
repeated units keep their weight.  The transform works on the source's
clause arrays (stored once, see ``formula``): a per-variable bool mask
flips literals, and the transformed formula is built once, without
re-validation; each use is still charged the re-stream the space model makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise
from typing import Any

import numpy as np

from satmeter.formula import (
    Assignment,
    Formula,
    csr_offsets,
    eval_assignment,
    pack_clauses,
)
from satmeter.hashfam import (
    HashFamilySpec,
    SearchOutcome,
    family_search,
    field_size_for,
)
from satmeter.metering import SpaceReport, meter_scope, note_pass, tracked

LS_NUM, LS_DEN = 618, 1000


@dataclass
class SolveResult:
    """Assignment-producing solver output plus audit details."""

    assignment: Assignment
    count: int
    details: dict[str, Any] = field(default_factory=dict)
    report: SpaceReport | None = None

    def __iter__(self):
        return iter((self.assignment, self.count))


def half_approx(formula: Formula) -> SolveResult:
    """Better of the all-1s / all-0s assignments (ties favor all-1s)."""
    with meter_scope("half_approx") as sc:
        with tracked(4):  # two counters, loop index, choice flag
            ones = np.ones(formula.n, dtype=bool)
            zeros = np.zeros(formula.n, dtype=bool)
            note_pass("input", 2)
            c1 = eval_assignment(formula, ones)
            c0 = eval_assignment(formula, zeros)
    if c1 >= c0:
        return SolveResult(ones, c1, {"choice": "all-ones"}, sc.report)
    return SolveResult(zeros, c0, {"choice": "all-zeros"}, sc.report)


@dataclass(frozen=True, eq=False)
class TwoSatStream:
    """A formula's 2-satisfiable transform, built once.

    ``formula`` holds the wide clauses, then the units of the unflipped
    variables, then the units (x_i) of the flipped variables, whose values
    the back-transform must invert (``flipped_vars``).  The space model
    keeps no copy of it, so each use charges the re-stream it stands for
    (``_restream``).
    """

    formula: Formula
    flip: np.ndarray  # per variable: more negative than positive units

    def clauses(self) -> list[tuple[int, ...]]:
        _restream()
        flat = self.formula.lits.tolist()
        return [tuple(flat[a:b]) for a, b in pairwise(self.formula.offsets.tolist())]

    def flipped_vars(self) -> np.ndarray:
        """The mask ``flip`` the back-transform XORs in, charged one re-stream."""
        _restream()
        return self.flip


def _restream() -> None:
    """Charge one ``twosat`` and two ``input`` passes (unit prepass + clauses)."""
    note_pass("twosat")
    note_pass("input", 2)


def to_two_satisfiable(formula: Formula) -> TwoSatStream:
    """Transform into a 2-satisfiable formula with all units positive; one
    re-stream is charged for the build.

    With p positive and q negative unit clauses on x_i, the variable is
    flipped iff q > p, and its majority unit (x_i after the flip) is emitted
    |p - q| times, plus once more when it has units of both signs.  Wide
    clauses have every literal over a flipped variable inverted, by a sign
    mask over the source's literal array.  The flipped variables' units come
    last and form the back-transform's inversion set.

    With d = min(p, q) - [min(p, q) >= 1] per variable, the source units
    satisfy at least d more clauses than the emitted ones under the
    back-transform, m' = m - sum(min(p, q) + d) and OPT <= m - sum(min(p, q)),
    so count > 0.618 m' gives count >= 0.618 OPT (Lieberherr-Specker 1981).
    """
    _restream()
    widths, lits = formula.widths, formula.lits
    units = lits[formula.offsets[:-1][widths == 1]]
    p = np.bincount(units[units > 0], minlength=formula.n + 1)
    q = np.bincount(-units[units < 0], minlength=formula.n + 1)
    flip = q > p
    order = np.concatenate((np.flatnonzero(~flip), np.flatnonzero(flip)))
    units = np.repeat(order, (np.abs(p - q) + (np.minimum(p, q) >= 1))[order])
    wide = lits[np.repeat(widths >= 2, widths)]
    lits = np.concatenate((np.where(flip[np.abs(wide)], -wide, wide), units))
    widths = np.concatenate((widths[widths >= 2], np.ones_like(units)))
    transformed = Formula.trusted(formula.n, csr_offsets(widths), lits)
    return TwoSatStream(formula=transformed, flip=flip)


def ls_search(ts: TwoSatStream) -> SearchOutcome:
    """Search Univ(n, 2, 618, 1000) for a candidate with c > 0.618 m'."""
    _restream()
    formula = ts.formula
    m_prime, n = formula.m, formula.n

    if m_prime == 0 or n == 0:
        return SearchOutcome(np.ones(n, dtype=bool), 0, -1, False, 0, 0, 0, "empty")
    if n < 2:
        # Family needs n >= k = 2; a single variable has only two assignments.
        packed = pack_clauses(formula)
        counts = packed.count_satisfied(np.array([[0], [1]], dtype=np.int64))
        pick = 1 if counts[1] >= counts[0] else 0
        phi = np.array([pick == 1])
        return SearchOutcome(phi, int(counts[pick]), pick, False, 2, 2, 2, "tiny")

    q = field_size_for(n, LS_DEN, m_prime, formula.r)
    spec = HashFamilySpec(n=n, k=2, a=LS_NUM, b=LS_DEN, q=q)
    need = LS_NUM * m_prime // LS_DEN + 1  # the least c with c * 1000 > 618 m'
    return family_search(
        spec, formula, need, f"c > {LS_NUM}/{LS_DEN} * {m_prime}", "twosat"
    )


def ls_solve(formula: Formula) -> SolveResult:
    """0.618-approximate Max-SAT assignment via the 2-satisfiable transform."""
    with meter_scope("ls_solve") as sc:
        with tracked(12):  # m', thresholds, best count/index, loop registers
            ts = to_two_satisfiable(formula)
            m_prime = ts.formula.m
            with tracked(2):  # candidate coefficient pair
                outcome = ls_search(ts)
            phi = outcome.assignment
            phi ^= ts.flipped_vars()[1:]  # back-transform, in place
            count = eval_assignment(formula, phi)
    details = {"m_prime": m_prime, **outcome.details()}
    return SolveResult(assignment=phi, count=count, details=details, report=sc.report)
