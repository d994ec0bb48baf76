"""Independent answer checks: exact optima and per-operation verdicts.

Nothing here imports satmeter.  OPT comes from one of three exact methods
chosen by the instance's shape: brute force over all 2^n assignments
(random formulas), a row-transfer DP (grids) or a tree DP (chains and
trees).  Planted formulas carry their own certificate, so OPT = m after a
recount of the hidden assignment.

Run ``python3 perfbench/reference.py`` to run the checker's self-test.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

# sqrt(2)/2 from below, exact: isqrt(2 * 10^28) / (2 * 10^14) < sqrt(2)/2.
SQRT2_OVER_2_LB = Fraction(math.isqrt(2 * 10**28), 2 * 10**14)
LS_RATIO = Fraction(618, 1000)
BRUTE_FORCE_CAP = 22


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, ...]]]:
    n = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line[0] == "c":
            continue
        if line[0] == "p":
            n = int(line.split()[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit:
                current.append(lit)
            else:
                clauses.append(tuple(current))
                current = []
    if n is None or current:
        raise ValueError("malformed DIMACS")
    return n, clauses


def parse_assignment(text: str, n: int) -> list[int] | None:
    """'v 1 -2 ... 0' -> values[1..n] (index 0 unused); None if not total."""
    values = [-1] * (n + 1)
    for tok in text.split()[1:]:
        try:
            lit = int(tok)
        except ValueError:
            return None
        if lit == 0:
            continue
        if abs(lit) > n:
            return None
        values[abs(lit)] = 1 if lit > 0 else 0
    if not text.startswith("v") or -1 in values[1:]:
        return None
    return values


def recount(clauses: list[tuple[int, ...]], values: list[int]) -> int:
    return sum(
        1 for c in clauses if any((lit > 0) == (values[abs(lit)] == 1) for lit in c)
    )


def brute_force_opt(n: int, clauses: list[tuple[int, ...]]) -> int:
    """Max satisfied clauses over all 2^n assignments, clause by clause."""
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"n={n} is past the brute-force cap")
    rows = np.arange(1 << n, dtype=np.uint32)
    cols = [None] + [((rows >> (v - 1)) & 1).astype(bool) for v in range(1, n + 1)]
    counts = np.zeros(1 << n, dtype=np.uint16)
    for c in clauses:
        sat = np.zeros(1 << n, dtype=bool)
        for lit in c:
            sat |= cols[lit] if lit > 0 else ~cols[-lit]
        counts += sat
    return int(counts.max())


def _sat2(lit_a: int, a, lit_b: int, b):
    return ((a == 1) == (lit_a > 0)) | ((b == 1) == (lit_b > 0))


def grid_opt(rows: int, cols: int, clauses: list[tuple[int, ...]]) -> int:
    """Exact OPT of a grid formula by a DP over row states (2^cols each).

    Accepts unit clauses and 2-clauses between grid neighbours; anything
    else is not a grid formula and raises.
    """
    states = np.arange(1 << cols)
    bit = [(states >> j) & 1 for j in range(cols)]
    within = [np.zeros(1 << cols, dtype=np.int64) for _ in range(rows)]
    across = [np.zeros((1 << cols, 1 << cols), dtype=np.int64) for _ in range(rows)]

    def pos(lit):
        return divmod(abs(lit) - 1, cols)

    for c in clauses:
        if len(c) == 1:
            i, j = pos(c[0])
            within[i] += bit[j] == (1 if c[0] > 0 else 0)
            continue
        if len(c) != 2:
            raise ValueError(f"clause {c} is not a grid clause")
        (ia, ja), (ib, jb) = pos(c[0]), pos(c[1])
        if ia == ib and abs(ja - jb) == 1:
            within[ia] += _sat2(c[0], bit[ja], c[1], bit[jb])
        elif ja == jb and abs(ia - ib) == 1:
            lo, hi = (c[0], c[1]) if ia < ib else (c[1], c[0])
            # across[row of hi][state of row above, state of this row]
            across[max(ia, ib)] += _sat2(lo, bit[ja][:, None], hi, bit[ja][None, :])
        else:
            raise ValueError(f"clause {c} is not a grid clause")
    best = within[0]
    for i in range(1, rows):
        best = (best[:, None] + across[i]).max(axis=0) + within[i]
    return int(best.max())


def forest_opt(n: int, clauses: list[tuple[int, ...]]) -> int:
    """Exact OPT of unit clauses plus 2-clauses forming a forest, by a tree DP."""
    unit = [[0, 0] for _ in range(n + 1)]
    adj: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n + 1)]
    for idx, c in enumerate(clauses):
        if len(c) == 1:
            unit[abs(c[0])][1 if c[0] > 0 else 0] += 1
        elif len(c) == 2:
            a, b = c
            adj[abs(a)].append((idx, abs(b), a, b))
            adj[abs(b)].append((idx, abs(a), b, a))
        else:
            raise ValueError(f"clause {c} is not a forest clause")
    best = [[0, 0] for _ in range(n + 1)]
    seen = [False] * (n + 1)
    total = 0
    for root in range(1, n + 1):
        if seen[root]:
            continue
        order, parent_edge = [root], {root: None}
        seen[root] = True
        k = 0
        while k < len(order):
            v = order[k]
            k += 1
            for idx, w, lit_v, lit_w in adj[v]:
                if parent_edge[v] is not None and parent_edge[v][3] == idx:
                    continue
                if seen[w]:
                    raise ValueError("2-clauses do not form a forest")
                seen[w] = True
                parent_edge[w] = (v, lit_v, lit_w, idx)
                order.append(w)
        for v in reversed(order):
            best[v][0] += unit[v][0]
            best[v][1] += unit[v][1]
            if parent_edge[v] is None:
                continue
            p, lit_p, lit_v, _ = parent_edge[v]
            for bp in (0, 1):
                best[p][bp] += max(
                    best[v][bv] + (((bp == 1) == (lit_p > 0)) or ((bv == 1) == (lit_v > 0)))
                    for bv in (0, 1)
                )
        total += max(best[root])
    return total


def opt_of(shape: dict, n: int, clauses: list[tuple[int, ...]]) -> int:
    """OPT by the exact method the instance's shape admits."""
    kind = shape["kind"]
    if kind == "random":
        return brute_force_opt(n, clauses)
    if kind == "grid":
        return grid_opt(shape["rows"], shape["cols"], clauses)
    if kind == "forest":
        return forest_opt(n, clauses)
    if kind == "planted":
        values = [0] + shape["sigma"]
        if recount(clauses, values) != len(clauses):
            raise ValueError("planted assignment does not satisfy every clause")
        return len(clauses)
    raise ValueError(f"unknown shape {kind!r}")


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def required(alg: str, eps: str | None, m: int, opt: int) -> int:
    """The least count each algorithm's guarantee allows."""
    if alg == "exact":
        return opt
    if alg == "half":
        return ceil_frac(Fraction(m, 2))
    if alg == "ls":
        return ceil_frac(LS_RATIO * opt)
    if alg == "chou":
        return ceil_frac(SQRT2_OVER_2_LB * opt)
    if alg == "planar-ptas":
        return ceil_frac((1 - Fraction(eps)) * opt)
    raise ValueError(f"unknown algorithm {alg!r}")


def check(op: dict, n: int, clauses: list[tuple[int, ...]], opt: int,
          code: int, report: dict | None) -> str | None:
    """None when the operation's output passes every check, else why not."""
    if code != 0 or report is None:
        return f"exit code {code}, no JSON report"
    values = parse_assignment(report.get("assignment", ""), n)
    if values is None:
        return "assignment is not a total assignment over 1..n"
    count = recount(clauses, values)
    if report.get("satisfied") != count:
        return f"reported {report.get('satisfied')} satisfied, recount {count}"
    alg = op["alg"]
    if alg == "exact" and count != opt:
        return f"exact found {count}, OPT is {opt}"
    need = required(alg, op.get("eps"), len(clauses), opt)
    if count < need:
        return f"{alg} satisfied {count} < {need} (OPT {opt}, m {len(clauses)})"
    return None


def self_test() -> list[str]:
    """Feed the checker outputs it must reject; return what it let through."""
    missed = []
    n = 4
    clauses = [(1,), (-2,), (3,), (-4,), (1, 2), (-3, -4)]
    opt = brute_force_opt(n, clauses)
    if opt != 6 or forest_opt(n, clauses) != 6:
        missed.append(f"exact optima disagree: brute force {opt}")
    good = "v 1 -2 3 -4 0"
    op = {"alg": "exact"}
    if check(op, n, clauses, opt, 0, {"assignment": good, "satisfied": 6}):
        missed.append("a correct exact report was flagged")
    flipped = "v 1 -2 -3 -4 0"
    if not check(op, n, clauses, opt, 0, {"assignment": flipped, "satisfied": 6}):
        missed.append("a witness with one variable flipped passed")
    if not check(op, n, clauses, opt, 0, {"assignment": good, "satisfied": 5}):
        missed.append("a count off by one passed")
    if not check(op, n, clauses, opt, 0, {"assignment": "v 1 -2 3 0", "satisfied": 5}):
        missed.append("a partial assignment passed")
    # ls returns 1 of OPT 3 on (-x1) x3, (x1): below ceil(0.618 * 3) = 2
    dup = [(-1,), (-1,), (-1,), (1,)]
    if not check({"alg": "ls"}, 1, dup, brute_force_opt(1, dup), 0,
                 {"assignment": "v 1 0", "satisfied": 1}):
        missed.append("ls below its ratio passed")
    grid_clauses = [(1, 2), (-1, 3), (-2, -4), (3, 4), (-3,), (-4,)]
    if grid_opt(2, 2, grid_clauses) != brute_force_opt(4, grid_clauses):
        missed.append("grid DP disagrees with brute force")
    return missed


if __name__ == "__main__":
    problems = self_test()
    for p in problems:
        print("SELF-TEST FAIL:", p)
    print("self-test", "FAIL" if problems else "PASS")
    sys.exit(1 if problems else 0)
