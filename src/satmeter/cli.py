"""Batch front door: parse, solve, partition, audit; JSON reports out.

Exit codes: 0 success, 2 input error (n above ``formula.MAX_VARS``, a
padded clause layout over ``formula.PACK_CELL_CAP``, n over the oracle's
variable cap, or a DP plan over ``treedp.PATTERN_CAP`` extension patterns,
is one), 3 internal invariant violation.
Reports are deterministic for fixed inputs apart from the timestamp field
and the `oracle` command's runtime_seconds.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from fractions import Fraction

import numpy as np

from satmeter import formula as fm
from satmeter import oracle as orc
from satmeter.biased import bias_profile, chou_solve
from satmeter.hashfam import HashFamilySpec, _candidate_chunks, smallest_prime_geq
from satmeter.planar import gen_planar_instance, partition, verify_partition
from satmeter.treedp import FrameCapError, PatternCapError, planar_ptas
from satmeter.twosat import SolveResult, half_approx, ls_solve

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class InputError(Exception):
    pass


def _read_formula(path: str) -> fm.Formula:
    try:
        with open(path, "rb") as fh:
            return fm.parse_dimacs(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except fm.FormulaError as exc:
        raise InputError(str(exc)) from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _instance_id(formula: fm.Formula) -> str:
    """First 16 hex digits of SHA-256 over little-endian int64 n, clause
    widths and literals: the validated arrays, so duplicate literals are
    collapsed."""
    digest = hashlib.sha256()
    for part in ([formula.n], formula.widths, formula.lits):
        digest.update(np.ascontiguousarray(part, dtype="<i8"))
    return digest.hexdigest()[:16]


def _base_report(formula: fm.Formula) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "timestamp": time.time(),
        "instance": {
            "id": _instance_id(formula),
            "n": formula.n,
            "m": formula.m,
            "r": formula.r,
        },
    }


def _in_full(convert, *args, **kwargs):
    """``convert(*args, **kwargs)`` with Python's int/str digit limit lifted,
    so exact integers (2^r scales, q^k family sizes) convert in full; parsing
    keeps the limit.  Interpreters before 3.10.7 have no limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return convert(*args, **kwargs)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _emit(report: dict) -> None:
    """Write ``report`` as one JSON line, exact numbers (``Fraction``s by
    ``str``) in full."""
    sys.stdout.write(_in_full(json.dumps, report, sort_keys=True, default=str) + "\n")


def _solve_report(formula: fm.Formula, algorithm: str, result: SolveResult,
                  opt: int | None) -> dict:
    recount = fm.eval_assignment(formula, result.assignment)
    if recount != result.count:
        raise AssertionError(
            f"count self-audit failed: reported {result.count}, "
            f"recomputed {recount}"
        )
    report = _base_report(formula)
    report.update(
        {
            "algorithm": algorithm,
            "satisfied": result.count,
            "assignment": fm.serialize_assignment(result.assignment),
            "details": result.details,
        }
    )
    if result.report is not None:
        report["space"] = result.report.as_dict()
    if opt is not None:
        report["opt"] = opt
        report["ratio"] = (result.count / opt) if opt else 1.0
    return report


def cmd_solve(args) -> int:
    formula = _read_formula(args.file)
    solvers = {"half": half_approx, "ls": ls_solve, "chou": chou_solve}
    if args.alg in solvers:
        result = solvers[args.alg](formula)
    elif args.alg == "planar-ptas":
        if args.eps is None:
            raise InputError("--eps is required for planar-ptas")
        try:
            eps = Fraction(args.eps)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"--eps {args.eps!r} is not a fraction") from exc
        if not 0 < eps < 1:
            raise InputError("--eps must be in (0, 1)")
        result = planar_ptas(formula, eps)
    elif args.alg == "exact":
        opt, phi = orc.exact_maxsat(formula)
        result = SolveResult(assignment=phi, count=opt, details={})
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown algorithm {args.alg}")
    opt = None
    if args.oracle:
        if args.alg == "exact":
            opt = result.count  # already OPT
        else:
            opt, _ = orc.exact_maxsat(formula)
    _emit(_solve_report(formula, args.alg, result, opt))
    return EXIT_OK


def cmd_bias(args) -> int:
    formula = _read_formula(args.file)
    profile = bias_profile(formula)
    report = _base_report(formula)
    report["bias"] = {
        "scale": profile.scale,
        "per_var_scaled": {str(i): v for i, v in enumerate(profile.per_var.tolist()) if i},
        "b_f_scaled": profile.b_f,
        "b_f": profile.b_f_fraction(),
        "b_star_scaled": profile.b_star,
        "b_star": profile.b_star_fraction(),
        "histogram": {str(w): c for w, c in sorted(profile.histogram.items())},
        "neg_vars": np.flatnonzero(profile.neg).tolist(),
    }
    _emit(report)
    return EXIT_OK


def cmd_partition(args) -> int:
    formula = _read_formula(args.file)
    if args.k < 2:
        raise InputError("--k must be >= 2")
    result = partition(formula, args.k)
    report = _base_report(formula)
    report["k"] = args.k
    report["partition"] = verify_partition(formula, result, args.k).as_dict()
    part_files = []
    for idx, part in enumerate(result.parts, start=1):
        if args.out_prefix:
            path = f"{args.out_prefix}.part{idx}.cnf"
            _write_text(path, fm.serialize_dimacs(part))
            part_files.append(path)
    if part_files:
        report["part_files"] = part_files
    _emit(report)
    return EXIT_OK


def cmd_hashfam(args) -> int:
    if not args.n >= args.k >= 1:
        raise InputError("need n >= k >= 1")
    # the family has at least max(n, b, 2)^k members (q^k for a given q):
    # check that against --limit before the prime search and primality test,
    # whose trial division does not finish on a large field.  Past the
    # limit's bit length, any base >= 2 exceeds it, so the exponent stops there.
    base = args.q if args.q is not None else max(args.n, args.b, 2)
    if base ** min(args.k, args.limit.bit_length() + 1) > args.limit:
        raise InputError(f"family size {base}^{args.k} exceeds --limit {args.limit}")
    q = args.q if args.q is not None else smallest_prime_geq(base)
    try:
        spec = HashFamilySpec(n=args.n, k=args.k, a=args.a, b=args.b, q=q)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if spec.size > args.limit:
        raise InputError(f"family size {spec.size} exceeds --limit {args.limit}")
    marginals = np.zeros(args.n, dtype=np.int64)
    pair = 0
    for bits in _candidate_chunks(spec, spec.n):  # one row per function
        marginals += bits.sum(axis=0)
        pair += int(bits[:, :2].all(axis=1).sum())
    report = {
        "schema_version": SCHEMA_VERSION,
        "timestamp": time.time(),
        "spec": {"n": args.n, "k": args.k, "a": args.a, "b": args.b, "q": q},
        "threshold": spec.threshold,
        "family_size": spec.size,
        "marginal_counts": marginals.tolist(),
        "pair11_count_vars_1_2": pair if args.n >= 2 else None,
    }
    _emit(report)
    return EXIT_OK


def cmd_gen_planar(args) -> int:
    if args.kind == "grid":
        try:
            rows, cols = (int(x) for x in args.size.lower().split("x"))
        except ValueError as exc:
            raise InputError("grid size must look like 5x5") from exc
        size, nvars = (rows, cols), rows * cols
    else:
        try:
            size = nvars = int(args.size)
        except ValueError as exc:
            raise InputError("size must be an integer") from exc
    if nvars > fm.MAX_VARS:
        raise InputError(f"size {args.size} exceeds the variable cap {fm.MAX_VARS}")
    try:
        formula = gen_planar_instance(args.kind, size, seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    text = fm.serialize_dimacs(formula)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_oracle(args) -> int:
    formula = _read_formula(args.file)
    start = time.perf_counter()
    opt, phi = orc.exact_maxsat(formula)
    elapsed = time.perf_counter() - start
    report = _base_report(formula)
    report.update(
        {
            "opt": opt,
            "witness": fm.serialize_assignment(phi),
            "runtime_seconds": elapsed,
        }
    )
    _emit(report)
    return EXIT_OK


@functools.cache  # parsing does not change the parser; build it once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satmeter",
        description="Space-metered Max-r-SAT approximation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="approximate or exact Max-SAT")
    p.add_argument(
        "--alg",
        required=True,
        choices=["half", "ls", "chou", "planar-ptas", "exact"],
    )
    p.add_argument("--eps", help="accuracy for planar-ptas, e.g. 1/3")
    p.add_argument("--oracle", action="store_true", help="also compute OPT and the ratio")
    p.add_argument("file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bias", help="dump the bias profile")
    p.add_argument("file")
    p.set_defaults(func=cmd_bias)

    p = sub.add_parser("partition", help="band-partition a planar instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-prefix", help="write parts as DIMACS files")
    p.add_argument("file")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("hashfam", help="enumerate a hash family and stats")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--limit", type=int, default=100_000)
    p.set_defaults(func=cmd_hashfam)

    p = sub.add_parser("gen-planar", help="generate a planar instance")
    p.add_argument("--kind", required=True, choices=["chain", "grid", "tree"])
    p.add_argument("--size", required=True, help="e.g. 8 or 5x5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_planar)

    p = sub.add_parser("oracle", help="brute-force exact Max-SAT")
    p.add_argument("file")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, orc.OracleCapError, fm.PackCapError, PatternCapError,
            FrameCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, ZeroDivisionError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
