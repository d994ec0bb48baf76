"""Golden `satmeter solve`, `partition` and `bias` reports: every field but
`timestamp` must match.

``golden_reports.json`` pins the assignment, count, search details and
metered space (peak cells, pass counts) of a few small instances under every
algorithm, the partition check of one and the bias profile of two, so a
refactor that moves any of them fails here.  When a change alters reports on purpose, regenerate the
file with ``PYTHONPATH=src python tests/test_golden_reports.py`` and say why.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

from conftest import chain_with_units, random_formula, two_chains
from satmeter.cli import main
from satmeter.formula import Formula, serialize_dimacs
from satmeter.planar import gen_planar_instance

GOLDEN = Path(__file__).with_name("golden_reports.json")

INSTANCES = {
    "chain12-seed4": lambda: gen_planar_instance("chain", 12, seed=4),
    "grid4x4": lambda: gen_planar_instance("grid", (4, 4), seed=0),
    # one part, 74,913 DP frames: pins the DP's peak cells and frame count
    "grid5x6": lambda: gen_planar_instance("grid", (5, 6), seed=0),
    # nine parts at k = 10: per-part witnesses merged across parts
    "tree300-seed2": lambda: gen_planar_instance("tree", 300, seed=2),
    # 100 parts at k = 6 of 3 distinct shapes (clause widths and variable
    # ids once renumbered): pins the reports of parts that share a shape
    "chain600-units8": lambda: chain_with_units(600, seed=5, every=8),
    # 77 parts at k = 6 of 47 distinct shapes
    "tree1000-seed1": lambda: gen_planar_instance("tree", 1000, seed=1),
    "random-n12-m40-r3": lambda: random_formula(
        random.Random(12), n=12, m=40, r=3
    ),
    # chou's clamped regime: a = ceil(m - b_F) = 11 > b = ceil(2m - 4 b_F) = 10
    "random-n8-m16-r3": lambda: random_formula(
        random.Random(120), n=8, m=16, r=3
    ),
    # at k = 5 the band keeps the dummy: one part holds clauses of both chains
    "chain12-twice": two_chains,
    # m * 2^r >= 2^62: the bias profile leaves int64 for Python ints
    "wide62-n64": lambda: Formula(
        n=64, clauses=(tuple(-i for i in range(1, 63)), (-1, 2), (3,))
    ),
}

CASES = [
    *(("chain12-seed4", alg, None) for alg in ("half", "ls", "chou", "exact")),
    ("chain12-seed4", "planar-ptas", "1/3"),
    ("grid4x4", "planar-ptas", "1/4"),
    ("grid5x6", "planar-ptas", "1/4"),
    ("tree300-seed2", "planar-ptas", "1/5"),
    ("chain12-twice", "planar-ptas", "2/5"),
    ("chain600-units8", "planar-ptas", "1/3"),
    ("tree1000-seed1", "planar-ptas", "1/3"),
    *(("random-n12-m40-r3", alg, None) for alg in ("half", "ls", "chou", "exact")),
    *(("random-n8-m16-r3", alg, None) for alg in ("ls", "chou")),
]
PARTITION_CASES = [("chain12-twice", "5")]
BIAS_CASES = ["random-n12-m40-r3", "wide62-n64"]


def case_id(case) -> str:
    return " ".join(part for part in case if part)


def partition_case_id(case) -> str:
    name, k = case
    return f"{name} partition --k {k}"


def bias_case_id(name: str) -> str:
    return f"{name} bias"


def cli_report(name: str, args: list[str], workdir: Path) -> dict:
    path = workdir / f"{name}.cnf"
    path.write_text(serialize_dimacs(INSTANCES[name]()))
    argv = args + [str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    report = json.loads(out.getvalue())
    report.pop("timestamp")
    return report


def solve_report(case, workdir: Path) -> dict:
    name, alg, eps = case
    args = ["solve", "--alg", alg] + (["--eps", eps] if eps else [])
    return cli_report(name, args, workdir)


def partition_report(case, workdir: Path) -> dict:
    name, k = case
    return cli_report(name, ["partition", "--k", k], workdir)


def bias_report(name: str, workdir: Path) -> dict:
    return cli_report(name, ["bias"], workdir)


def assert_golden(key: str, report: dict) -> None:
    golden = json.loads(GOLDEN.read_text())
    assert json.dumps(report, sort_keys=True) == json.dumps(golden[key], sort_keys=True)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_solve_report_matches_golden(case, tmp_path):
    assert_golden(case_id(case), solve_report(case, tmp_path))


@pytest.mark.parametrize("case", PARTITION_CASES, ids=partition_case_id)
def test_partition_report_matches_golden(case, tmp_path):
    assert_golden(partition_case_id(case), partition_report(case, tmp_path))


@pytest.mark.parametrize("name", BIAS_CASES, ids=bias_case_id)
def test_bias_report_matches_golden(name, tmp_path):
    assert_golden(bias_case_id(name), bias_report(name, tmp_path))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        reports = {case_id(c): solve_report(c, Path(tmp)) for c in CASES}
        reports |= {partition_case_id(c): partition_report(c, Path(tmp))
                    for c in PARTITION_CASES}
        reports |= {bias_case_id(c): bias_report(c, Path(tmp)) for c in BIAS_CASES}
    GOLDEN.write_text(json.dumps(reports, sort_keys=True, indent=1) + "\n")
