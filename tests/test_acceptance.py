"""Acceptance gate: one test per criterion, one printed verdict line each.

Every check is against an independent ground truth (the brute-force oracle,
exact rational arithmetic, or re-derived reference quantities); tolerances
are pinned in-line and never loosened at runtime.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

from satmeter.biased import (
    bias_profile,
    chou_solve,
    flipped_formula,
    random_assignment_floor,
    search_marginal,
)
from satmeter.cli import main as cli_main
from satmeter.formula import Formula
from satmeter.hashfam import HashFamilySpec
from satmeter.metering import meter_scope
from satmeter.oracle import exact_maxsat, expected_satisfied
from satmeter.planar import gen_planar_instance, partition, verify_partition
from satmeter.treedp import (
    bdtw_maxsat,
    planar_ptas,
    rebalance,
    solve_part_exact,
    tree_decompose,
)
from satmeter.twosat import half_approx, ls_solve
from satmeter.formula import eval_assignment, incidence_graph

from conftest import assignment_from_hash, enum_family, random_formula, random_positive_units_formula

# sqrt(2)/2 as an exact rational lower bound (error < 1e-14)
SQRT2_OVER_2 = Fraction(math.isqrt(2 * 10**28), 2 * 10**14)
LS_RATIO = Fraction(618, 1000)


def _verdict(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion} [{name}]: {status}{suffix}")


def _adversarial_cases() -> list[Formula]:
    return [
        Formula(n=1, clauses=((1,), (-1,))),  # complementary units
        Formula(n=3, clauses=((1,), (-2,), (3,), (-1,), (2,))),  # all units
        Formula(n=2, clauses=((1, 2),)),  # single clause
        Formula(n=3, clauses=((-1, -2, -3),)),  # single all-negative clause
        Formula(n=2, clauses=((1,), (1,), (-1,), (2,))),
    ]


def test_criterion_1_ratio_suites():
    rng = random.Random(20260823)
    start = time.perf_counter()
    violations = []
    corpus = []
    for _ in range(500):
        r = rng.choice([2, 3])
        n = rng.randint(4, 20)
        m = rng.randint(n, 4 * n)
        corpus.append(random_formula(rng, n, m, r))
    corpus.extend(_adversarial_cases())
    for idx, f in enumerate(corpus):
        opt, _ = exact_maxsat(f)
        _, h = half_approx(f)
        if h < math.ceil(f.m / 2):
            violations.append((idx, "half", h, f.m))
        _, l = ls_solve(f)
        if l < math.ceil(LS_RATIO * opt):
            violations.append((idx, "ls", l, opt))
        _, c = chou_solve(f)
        if c < math.ceil(SQRT2_OVER_2 * opt):
            violations.append((idx, "chou", c, opt))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed <= 300
    _verdict(
        1,
        "ratio suites",
        ok,
        f"{len(corpus)} instances, {len(violations)} violations, "
        f"{elapsed:.1f}s",
    )
    assert not violations, violations[:5]
    assert elapsed <= 300


def test_criterion_2_expectation_bounds():
    rng = random.Random(42)
    failures = []

    # 2-satisfiable positive-unit formulas: E at 618/1000 >= 0.618 m
    for i in range(200):
        n = rng.randint(2, 12)
        f = random_positive_units_formula(rng, n, rng.randint(1, 3 * n), 3)
        if expected_satisfied(f, LS_RATIO) < LS_RATIO * f.m:
            failures.append(("ls-expectation", i))

    # positively-biased formulas with b_F <= min(b*, m/3):
    # E at p = (m - b_F)/(2m - 4 b_F) >= sum (1 - 1/2^i) m_i + b_F^2/(4 b*)
    accepted = 0
    attempts = 0
    while accepted < 200 and attempts < 40000:
        attempts += 1
        n = rng.randint(2, 12)
        f = random_formula(rng, n, rng.randint(2 * n, 4 * n), 3, min_width=2)
        p = bias_profile(f)
        fp = flipped_formula(f, p.neg)
        pp = bias_profile(fp)
        if pp.b_star == 0 or pp.b_f * 3 > pp.scale * fp.m:
            continue
        if pp.b_f > pp.b_star:
            continue
        accepted += 1
        marginal = search_marginal(pp, fp.m)
        target = random_assignment_floor(pp)
        target += Fraction(pp.b_f, pp.scale) ** 2 / (
            4 * Fraction(pp.b_star, pp.scale)
        )
        if expected_satisfied(fp, marginal) < target:
            failures.append(("prop4-bullet2", accepted))

    ok = not failures and accepted == 200
    _verdict(
        2,
        "expectation bounds",
        ok,
        f"200 + {accepted} formulas, {len(failures)} failures",
    )
    assert accepted == 200
    assert not failures, failures[:5]


def test_criterion_3_derandomization_soundness():
    rng = random.Random(7)
    failures = []
    checked = 0
    for q in (5, 7):
        for k in (1, 2):
            for _ in range(10):
                n = rng.randint(k, 4)
                # exactness holds for clause widths up to the independence
                # order, so the corpus is capped at width k
                f = random_formula(rng, n, rng.randint(1, 4), min(k, n))
                spec = HashFamilySpec(n=n, k=k, a=1, b=2, q=q)
                total = 0
                size = 0
                for h in enum_family(spec):
                    total += eval_assignment(f, assignment_from_hash(h, n))
                    size += 1
                checked += 1
                mean = Fraction(total, size)
                expect = expected_satisfied(f, Fraction(spec.threshold, q))
                if mean != expect:
                    failures.append((q, k, f, mean, expect))
    ok = not failures
    _verdict(
        3, "derandomization", ok, f"{checked} families, {len(failures)} mismatches"
    )
    assert not failures, failures[:3]


def test_criterion_4_partition_properties():
    rng = random.Random(99)
    instances = []
    for i in range(50):
        kind = ("chain", "grid", "tree")[i % 3]
        if kind == "grid":
            size = (rng.randint(2, 6), rng.randint(2, 6))
        else:
            size = rng.randint(4, 40)
        instances.append(gen_planar_instance(kind, size, seed=i))
    failures = []
    for idx, f in enumerate(instances):
        for k in (2, 3, 4):
            result = partition(f, k)
            report = verify_partition(f, result, k)
            if not report.ok:
                failures.append((idx, k, report.as_dict()))
    ok = not failures
    _verdict(
        4,
        "partition properties",
        ok,
        f"50 instances x k in 2..4, {len(failures)} violations",
    )
    assert not failures, failures[:3]


def test_criterion_5_dp_exactness():
    rng = random.Random(55)
    failures = []
    for i in range(200):
        n = rng.randint(2, 15)
        f = random_formula(rng, n, rng.randint(1, 3 * n), min(3, n))
        opt, _ = exact_maxsat(f)
        g = incidence_graph(f)
        td = tree_decompose(g)
        v_before, phi_before = bdtw_maxsat(td, f)
        v_after, phi_after = bdtw_maxsat(rebalance(td), f)
        if v_before != opt or eval_assignment(f, phi_before) != opt:
            failures.append((i, "before", v_before, opt))
        if v_after != opt or eval_assignment(f, phi_after) != opt:
            failures.append((i, "after", v_after, opt))
    ok = not failures
    _verdict(5, "dp exactness", ok, f"200 instances, {len(failures)} mismatches")
    assert not failures, failures[:5]


def test_criterion_6_ptas_bound():
    rng = random.Random(66)
    instances = []
    while len(instances) < 50:
        kind = ("chain", "grid", "tree")[len(instances) % 3]
        if kind == "grid":
            size = (rng.randint(2, 4), rng.randint(2, 5))
        else:
            size = rng.randint(4, 20)
        f = gen_planar_instance(kind, size, seed=rng.randint(0, 10**6))
        if f.n <= 20:
            instances.append(f)
    failures = []
    slowest = 0.0
    for idx, f in enumerate(instances):
        opt, _ = exact_maxsat(f)
        for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)):
            t0 = time.perf_counter()
            res = planar_ptas(f, eps)
            dt = time.perf_counter() - t0
            slowest = max(slowest, dt)
            if res.count < math.ceil((1 - eps) * opt):
                failures.append((idx, str(eps), res.count, opt))
            if dt > 30:
                failures.append((idx, str(eps), "timeout", dt))
    ok = not failures
    _verdict(
        6,
        "ptas bound",
        ok,
        f"50 instances x 3 eps, {len(failures)} violations, "
        f"slowest run {slowest:.2f}s",
    )
    assert not failures, failures[:5]


def _fit_residual(xs, ys):
    """Least-squares a + b*x; returns rms residual / mean(y)."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        b = 0.0
    else:
        b = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    a = my - b * mx
    rms = math.sqrt(
        sum((y - (a + b * x)) ** 2 for x, y in zip(xs, ys)) / n
    )
    return rms / my if my else 0.0


def _fit_scale_residual(xs, ys):
    """Least-squares c*x (no intercept); returns rms residual / mean(y)."""
    c = sum(x * y for x, y in zip(xs, ys)) / sum(x * x for x in xs)
    n = len(xs)
    rms = math.sqrt(sum((y - c * x) ** 2 for x, y in zip(xs, ys)) / n)
    my = sum(ys) / n
    return rms / my if my else 0.0


def test_criterion_7_space_scaling():
    sizes = [2**e for e in range(8, 15)]
    ls_peaks = []
    chou_peaks = []
    part_peaks = []
    for n in sizes:
        f = gen_planar_instance("chain", n, seed=1)
        ls_peaks.append(ls_solve(f).report.peak_aux_cells)
        chou_peaks.append(chou_solve(f).report.peak_aux_cells)
        with meter_scope("part") as sc:
            partition(f, 3)
        part_peaks.append(sc.report.peak_aux_cells)

    logs = [math.log2(n) for n in sizes]
    lin = list(sizes)
    details = []
    ok = True
    for name, peaks in (("ls", ls_peaks), ("chou", chou_peaks)):
        res_log = _fit_residual(logs, peaks)
        res_lin = _fit_residual(lin, peaks)
        details.append(f"{name}: log-res {res_log:.3f} lin-res {res_lin:.3f}")
        if res_log >= 0.20 or res_log > res_lin + 1e-9:
            ok = False
    sqrt_x = [math.sqrt(n) * math.log2(n) for n in sizes]
    res_part = _fit_scale_residual(sqrt_x, part_peaks)
    details.append(f"partition: sqrtlog-res {res_part:.3f}")
    if res_part >= 0.20:
        ok = False
    _verdict(7, "space scaling", ok, "; ".join(details))
    assert ok, details


def test_criterion_7_star_ladder_ptas_peak():
    # the planar star (x1 v x_i), (-x_i): min-fill gives x1 one bag with a
    # child per leg, so the DP's frames stack along whatever depth
    # rebalance leaves there; the paper's (r/eps) log^2 n term needs it
    # logarithmic
    sizes = [100, 400, 1600]
    eps = Fraction(1, 3)
    k = math.ceil(2 / eps)
    ptas_peaks, bfs_peaks, dp_peaks = [], [], []
    for n in sizes:
        f = Formula(n=n, clauses=tuple(
            c for i in range(2, n + 1) for c in ((1, i), (-i,))))
        ptas_peaks.append(planar_ptas(f, eps).report.peak_aux_cells)
        with meter_scope("partition") as sc:
            parts = partition(f, k).parts
        bfs_peaks.append(sc.report.peak_aux_cells)
        peak = 0
        for part in parts:
            with meter_scope("part") as sc:
                solve_part_exact(part)
            peak = max(peak, sc.report.peak_aux_cells)
        dp_peaks.append(peak)
    log2_sq = [math.log2(n) ** 2 for n in sizes]
    res_log2 = _fit_residual(log2_sq, dp_peaks)
    res_lin = _fit_residual(sizes, dp_peaks)
    ok = (res_log2 < 0.20 and res_log2 <= res_lin + 1e-9
          and ptas_peaks == [max(b, d) for b, d in zip(bfs_peaks, dp_peaks)])
    _verdict(7, "star ladder ptas peak", ok,
             f"ptas peaks {ptas_peaks}, dp peaks {dp_peaks}: "
             f"log2^2-res {res_log2:.3f} lin-res {res_lin:.3f}")
    assert ok, (ptas_peaks, bfs_peaks, dp_peaks, res_log2, res_lin)


def _cli_json(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    assert code == 0, argv
    return buf.getvalue()


def test_criterion_8_cli_determinism(tmp_path):
    chain = tmp_path / "chain.cnf"
    out = _cli_json(
        ["gen-planar", "--kind", "chain", "--size", "12", "--seed", "4"]
    )
    chain.write_text(out)
    runs = [
        ["solve", "--alg", "half", str(chain)],
        ["solve", "--alg", "ls", str(chain)],
        ["solve", "--alg", "chou", str(chain)],
        ["solve", "--alg", "planar-ptas", "--eps", "1/3", str(chain)],
        ["solve", "--alg", "exact", str(chain)],
        ["bias", str(chain)],
        ["partition", "--k", "3", str(chain)],
        ["oracle", str(chain)],
        ["hashfam", "--n", "4", "--k", "2", "--a", "1", "--b", "2",
         "--q", "13"],
    ]
    mismatches = []
    for argv in runs:
        first = json.loads(_cli_json(argv))
        second = json.loads(_cli_json(argv))
        for rep in (first, second):
            rep.pop("timestamp", None)
            rep.pop("runtime_seconds", None)
        a = json.dumps(first, sort_keys=True).encode()
        b = json.dumps(second, sort_keys=True).encode()
        if a != b:
            mismatches.append(argv)
    ok = not mismatches
    _verdict(
        8, "cli determinism", ok, f"{len(runs)} commands, {len(mismatches)} diffs"
    )
    assert not mismatches, mismatches
