"""The sqrt(2)/2 approximation: exact bias arithmetic and biased search.

All bias quantities are exact fixed-point integers scaled by 2^r, so the
branch on b_F <= b* and the family parameters ceil(m - b_F),
ceil(2m - 4 b_F) never move on float error.  The profile is a bincount over
the formula's clause arrays (stored once, see ``formula``), and the
positively-biased formula flips them by a sign mask into a derived formula,
without re-validation, charged one ``posbias`` pass each time it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from satmeter.formula import (
    Formula,
    clause_histogram,
    eval_assignment,
)
from satmeter.hashfam import (
    HashFamilySpec,
    SearchOutcome,
    family_search,
    field_size_for,
)
from satmeter.metering import meter_scope, note_pass, tracked
from satmeter.twosat import SolveResult


@dataclass(frozen=True)
class BiasProfile:
    """Per-variable and total bias of a formula, scaled by 2^r.

    ``per_var`` and ``neg`` are indexed by variable (index 0 unused).
    ``per_var[i] / 2^r`` is sum over widths j of
    (#j-clauses with literal x_i - #j-clauses with literal -x_i) / 2^j,
    and ``neg[i]`` is ``per_var[i] < 0``.  ``b_f`` is the total bias (sum of
    absolute per-variable biases) and ``b_star`` the branch threshold
    4 * sum_i (1 - (i+1)/2^i) m_i, both in the same scaled units.
    """

    r: int
    scale: int  # 2^r
    per_var: np.ndarray  # int64, or object (Python ints) once m * 2^r >= 2^62
    b_f: int
    b_star: int
    histogram: dict[int, int]
    neg: np.ndarray  # bool

    def b_f_fraction(self) -> Fraction:
        return Fraction(self.b_f, self.scale)

    def b_star_fraction(self) -> Fraction:
        return Fraction(self.b_star, self.scale)


def bias_profile(formula: Formula) -> BiasProfile:
    """One weighted ``bincount`` of literal signs per clause width, scaled
    exactly (int64 while m * 2^r fits, Python ints beyond)."""
    r = max(formula.r, 1)
    scale = 1 << r
    widths, lits = formula.widths, formula.lits
    lit_width = np.repeat(widths, widths)
    dtype = np.int64 if formula.m * scale < 1 << 62 else object
    per_var = np.zeros(formula.n + 1, dtype=dtype)  # index 0 unused
    for width in np.unique(widths).tolist():
        at = lit_width == width
        net = np.bincount(  # float64, exact: |net| <= m
            np.abs(lits[at]), weights=np.sign(lits[at]), minlength=formula.n + 1
        )
        per_var += net.astype(np.int64).astype(dtype) * (scale >> width)
    hist = clause_histogram(formula)
    b_star = 4 * sum(
        count * (scale - (width + 1) * (scale >> width))
        for width, count in hist.items()
    )
    b_f = int(np.abs(per_var).sum())
    return BiasProfile(r, scale, per_var, b_f, b_star, hist, per_var < 0)


def flipped_formula(formula: Formula, neg: np.ndarray) -> Formula:
    """The positively-biased formula: every literal over a variable i with
    ``neg[i]`` flipped; one ``posbias`` and one ``input`` pass."""
    note_pass("posbias")
    note_pass("input")
    lits = formula.lits
    flipped = np.where(neg[np.abs(lits)], -lits, lits)
    return Formula.trusted(formula.n, formula.offsets, flipped, formula.r)


def random_assignment_floor(profile: BiasProfile) -> Fraction:
    """sum_i (1 - 1/2^i) m_i, the biased-assignment expectation base term."""
    return sum(
        (Fraction(count) * (1 - Fraction(1, 1 << width))
         for width, count in profile.histogram.items()),
        Fraction(0),
    )


def expectation_target(profile: BiasProfile) -> Fraction:
    """The acceptance target sum_i (1 - 1/2^i) m_i + b_F^2 / (4 b*)."""
    base = random_assignment_floor(profile)
    if profile.b_star == 0:
        return base  # b_F <= b* forces b_F = 0 here, the bias term vanishes
    bias_term = Fraction(profile.b_f, profile.scale) ** 2 / (
        4 * Fraction(profile.b_star, profile.scale)
    )
    return base + bias_term


def search_marginal(profile: BiasProfile, m: int) -> Fraction:
    """(m - b_F) / (2m - 4 b_F), clamped into [1/2, 1]."""
    num = m * profile.scale - profile.b_f
    den = 2 * m * profile.scale - 4 * profile.b_f
    if den <= 0:
        raise ZeroDivisionError("degenerate marginal denominator")
    p = Fraction(num, den)
    return min(max(p, Fraction(1, 2)), Fraction(1))


def chou_search(fprime: Formula, profile: BiasProfile) -> SearchOutcome:
    """r-wise family search over the positively-biased formula.

    Family parameters a = ceil(m - b_F), b = ceil(2m - 4 b_F); the family
    thresholds at t = round(q p) for the clamped marginal p, realized as the
    spec a = t, b = q; accepts the first candidate reaching the expectation
    target minus the threshold rounding slack m*r/(2q).
    """
    m, n, r = fprime.m, fprime.n, max(fprime.r, 1)
    bf = profile.b_f_fraction()
    a = math.ceil(m - bf)
    b = math.ceil(2 * m - 4 * bf)
    if b <= 0 or a <= 0:
        raise ZeroDivisionError("degenerate family parameters")
    k = min(r, n)
    q = field_size_for(n, b, m, r)
    # Thresholding uses the clamped marginal, not the raw a/b ratio.
    p = search_marginal(profile, m)
    t = (2 * q * p.numerator + p.denominator) // (2 * p.denominator)

    slack = Fraction(m * r, 2 * q)
    target = expectation_target(profile)
    threshold = math.ceil(target - slack)
    spec = HashFamilySpec(n=n, k=k, a=t, b=q, q=q)
    desc = f"c >= ceil({float(target):.4f} - {float(slack):.4f}) = {threshold}"
    return family_search(spec, fprime, threshold, desc, "posbias")


def chou_solve(formula: Formula) -> SolveResult:
    """sqrt(2)/2-approximate Max-SAT assignment via the bias branch."""
    with meter_scope("chou_solve") as sc:
        with tracked(10):  # b_F, b*, m_i accumulators, loop registers
            profile = bias_profile(formula)
            fprime = flipped_formula(formula, profile.neg)
            m = formula.m
            outcome = None
            phi = np.ones(formula.n, dtype=bool)  # over fprime until un-flipped
            if m == 0:
                branch = "empty"
            elif profile.b_f > profile.b_star:
                branch = "all-ones(b_F > b*)"
            elif 2 * m * profile.scale - 4 * profile.b_f <= 0:
                branch = "all-ones(degenerate denominator)"
            else:
                with tracked(max(formula.r, 1)):  # candidate coefficients
                    outcome = chou_search(fprime, profile)
                branch = "family-search"
                # family index 0 is the all-ones row (t >= 1), so the
                # search's pick satisfies at least as many clauses
                phi = outcome.assignment
            phi ^= profile.neg[1:]  # back-transform
            count = eval_assignment(formula, phi)
    details = {
        "branch": branch,
        "b_f": profile.b_f_fraction(),  # exact; the report prints it by str
        "b_star": profile.b_star_fraction(),
        "neg_vars": np.flatnonzero(profile.neg).tolist(),
    }
    if outcome is not None:
        details.update(outcome.details())
    return SolveResult(assignment=phi, count=count, details=details, report=sc.report)
