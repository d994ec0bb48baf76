"""satmeter benchmark: three workloads through ``satmeter solve``.

Usage (from the repository root):

    python3 perfbench/run.py --workload gate-ratio --seed 1 --seconds 30 --trace 0

Set-up writes the workload's seeded instances as DIMACS under
``perfbench/out/<workload>/``, times SETUP_PROBES fresh interpreters that
import satmeter and solve once, and computes every instance's exact
optimum here, in a process that never imports satmeter.  The timed
operations then run in a worker process (``worker.py``); their reports
are checked here against the optima.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``), as named in
BENCHMARK.json.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

import gen
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
SETUP_N = 2000  # variables of the fixed planted 3-CNF that set-up solves
APPROX = {"half", "ls", "chou", "planar-ptas"}
# The one known fault kept in the benchmark: ls on duplicated unit clauses.
KNOWN_FAULT_SET, KNOWN_FAULT_ALG = "dup-units", "ls"


def instance(set_name, n, clauses, shape):
    return {"set": set_name, "n": n, "clauses": clauses, "shape": shape}


# (m / n, r) cells of the random corpus.  A few formulas in a thousand send
# ls or chou into a scan of 1000-7000 candidates, which would make `passes`
# a count of rare events; that happens to one in 100 at n <= 10 and to one
# in 600-2000 at n = 11-14, and more often at m <= 2n, so n starts at 14
# and m stays at 3n-4n.
GATE_CELLS = [(3, 3), (4, 2), (3, 2)]
GATE_SIZES = [14] * 6 + [15] * 6 + [16] * 4 + [17] * 3 + [18] * 3


def gate_ratio(rng: random.Random):
    """Tier-1-gate traffic: small random 2/3-CNF, exact + half + ls + chou."""
    insts = []
    for k, n in enumerate(GATE_SIZES):
        ratio, r = GATE_CELLS[k % len(GATE_CELLS)]
        insts.append((n, ratio * n, r))
    out = [
        instance("random", n, gen.random_cnf(rng, n, m, r), {"kind": "random"})
        for n, m, r in insts
    ]
    out += [
        instance(KNOWN_FAULT_SET, k, gen.dup_units(k), {"kind": "random"})
        for k in (1, 2, 3, 4)
    ]
    ops = [
        {"inst": i, "alg": alg}
        for i in range(len(out))
        for alg in ("exact", "half", "ls", "chou")
    ]
    return out, ops


GRIDS = [((6, 6), "1/3"), ((7, 7), "1/3"), ((8, 8), "1/3"), ((10, 6), "1/3"),
         ((10, 7), "1/3"), ((5, 5), "1/4"), ((5, 6), "1/4"), ((10, 4), "1/4")]


def ptas_grid(rng: random.Random):
    """Grids through planar-ptas: few parts, each with many DP frames."""
    out, ops = [], []
    for (rows, cols), eps in GRIDS:
        clauses = gen.grid(rng, rows, cols, unit_every=4)
        shape = {"kind": "grid", "rows": rows, "cols": cols}
        ops.append({"inst": len(out), "alg": "planar-ptas", "eps": eps})
        out.append(instance("grid", rows * cols, clauses, shape))
    return out, ops


def sparse_large(rng: random.Random):
    """Large sparse inputs: linear-time layers, family search, many small parts."""
    out, ops = [], []
    forest = {"kind": "forest"}
    for n, chain in ((1 << 15, True), (1 << 14, False)):
        i = len(out)
        out.append(instance("forest", n, gen.forest(rng, n, chain, unit_every=8), forest))
        ops += [{"inst": i, "alg": alg} for alg in ("half", "ls", "chou")]
    # (n, m, width, share of negative literals): mixed polarity lets the
    # all-ones candidate 0 accept; negative-heavy clauses make ls scan deep
    for n, m, width, neg in ((200, 800, 3, 0.5), (2000, 8000, 3, 0.5),
                             (300, 600, 3, 0.85)):
        clauses, sigma = gen.planted_cnf(rng, n, m, width, neg)
        shape = {"kind": "planted", "sigma": [sigma[v] for v in range(1, n + 1)]}
        i = len(out)
        out.append(instance("planted", n, clauses, shape))
        ops += [{"inst": i, "alg": alg} for alg in ("half", "ls", "chou")]
    for n, chain in ((1 << 12, True), (1 << 12, False)):
        ops.append({"inst": len(out), "alg": "planar-ptas", "eps": "1/3"})
        out.append(instance("forest", n, gen.forest(rng, n, chain, unit_every=8), forest))
    return out, ops


WORKLOADS = {"gate-ratio": gate_ratio, "ptas-grid": ptas_grid, "sparse-large": sparse_large}


def setup_seconds(probe: Path) -> float:
    """Median over fresh interpreters of import + one ``ls`` solve of `probe`."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), str(probe)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def verdicts(insts, ops, opts, outputs):
    """Per operation, per distinct output: None if it passes, else the reason."""
    return [
        [reference.check(op, insts[op["inst"]]["n"], insts[op["inst"]]["clauses"],
                         opts[op["inst"]], o["code"], o["report"]) for o in distinct]
        for op, distinct in zip(ops, outputs)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "satmeter" / "cli.py").is_file():
        print(f"error: no satmeter sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = HERE / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    insts, ops = WORKLOADS[args.workload](rng)
    files = []
    for i, inst in enumerate(insts):
        path = out_dir / f"i{i:03d}.cnf"
        path.write_text(gen.dimacs(inst["n"], inst["clauses"]))
        files.append(str(path))
    warmup = out_dir / "warmup.cnf"
    warmup.write_text(gen.dimacs(10, gen.random_cnf(random.Random(0), 10, 30, 3)))
    # set-up's solve has real work in it: import alone is cold-start code,
    # whose speed on a shared host drifted by ~30% where warm loops moved ~5%
    probe = out_dir / "setup.cnf"
    clauses, _ = gen.planted_cnf(random.Random(0), SETUP_N, 4 * SETUP_N, 3, 0.5)
    probe.write_text(gen.dimacs(SETUP_N, clauses))

    setup_s = setup_seconds(probe)
    opts = [reference.opt_of(i["shape"], i["n"], i["clauses"]) for i in insts]
    selftest_misses = reference.self_test()

    plan = {
        "ops": [dict(op, file=files[op["inst"]]) for op in ops],
        "warmup": {"file": str(warmup)},
        "spans_file": str(out_dir / "spans.jsonl"),
    }
    plan_path, result_path = out_dir / "plan.json", out_dir / "result.json"
    plan_path.write_text(json.dumps(plan))
    result_path.unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(SRC), str(plan_path),
         str(result_path), str(args.seconds), str(args.trace)],
        timeout=2 * args.seconds + 90, check=True, stdout=sys.stderr,
    )
    result = json.loads(result_path.read_text())
    print("pass times:", " ".join(f"{t:.3f}" for t in result["pass_s"]), file=sys.stderr)
    for distinct in result["outputs"]:
        for o in distinct:
            o["report"] = None
            if o["code"] == 0:
                try:
                    o["report"] = json.loads(o["text"])
                except json.JSONDecodeError:
                    pass  # checked as an operation without a report

    ver = verdicts(insts, ops, opts, result["outputs"])
    attempted = failed = 0
    correct = not selftest_misses
    for p in selftest_misses:
        print("checker self-test:", p, file=sys.stderr)
    for picks in result["per_pass"]:
        for op, row, pick in zip(ops, ver, picks):
            attempted += 1
            if row[pick] is not None:
                failed += 1
                if not (insts[op["inst"]]["set"] == KNOWN_FAULT_SET
                        and op["alg"] == KNOWN_FAULT_ALG):
                    correct = False
    for i, (op, row) in enumerate(zip(ops, ver)):
        for why in filter(None, row):
            print(f"op {i} ({op['alg']} on {insts[op['inst']]['set']} "
                  f"i{op['inst']:03d}): {why}", file=sys.stderr)

    first = [o[0]["report"] or {} for o in result["outputs"]]
    values = {
        "setup_s": setup_s,
        "pass_s": statistics.median(result["pass_s"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "satisfied": sum(r.get("satisfied", 0) for op, r in zip(ops, first) if op["alg"] in APPROX),
        "aux_cells": sum(r.get("space", {}).get("peak_aux_cells", 0) for r in first),
        "passes": sum(sum(r.get("space", {}).get("pass_counts", {}).values()) for r in first),
    }
    if args.trace:
        values = dict(result["layers"])
        values["treedp.dp_frames"] = sum(
            r.get("space", {}).get("pass_counts", {}).get("decomposition", 0) for r in first)
        values["treedp.max_width"] = max(
            [p["width"] for r in first for p in r.get("details", {}).get("part_infos", [])],
            default=0)
        values["trace.pass_s"] = statistics.median(result["traced_pass_s"])
        values["trace.overhead"] = values["trace.pass_s"] / statistics.median(result["pass_s"])
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
