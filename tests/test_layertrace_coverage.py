"""Every per-layer metric perfbench/layertrace.py wraps is reached by a solve.

A refactor can keep a wrapped name callable (``test_layertrace_names``) yet
stop calling it, and the layer's metric would then read 0 in every traced
benchmark run.  Here one `satmeter solve` per algorithm on a 4x4 grid runs
under ``layertrace.install`` and each metric in ``SPANS`` must record some
self time.  It runs in a subprocess: ``install`` patches satmeter's modules
for the rest of the process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layertrace
from satmeter.cli import main
from satmeter.formula import serialize_dimacs
from satmeter.planar import gen_planar_instance

tracer = layertrace.Tracer()
layertrace.install(tracer)
path = sys.argv[3]
with open(path, "w") as fh:
    fh.write(serialize_dimacs(gen_planar_instance("grid", (4, 4), seed=0)))
for extra in (["half"], ["ls"], ["chou"], ["exact"], ["planar-ptas", "--eps", "1/3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", "--alg", *extra, path]) == 0, extra
print(json.dumps({"self_ns": tracer.self_ns,
                  "metrics": sorted({metric for _, _, metric in layertrace.SPANS})}))
"""


def test_every_span_metric_records_self_time(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path / "grid4x4.cnf")],
        capture_output=True, text=True, check=True,
    ).stdout
    traced = json.loads(out.splitlines()[-1])
    silent = [m for m in traced["metrics"] if traced["self_ns"].get(m, 0) <= 0]
    assert not silent, f"metrics never reached: {silent}"
