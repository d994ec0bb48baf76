"""Timed process: runs a workload's operations through ``satmeter solve``.

Usage: worker.py SRC_DIR PLAN_JSON RESULT_JSON SECONDS TRACE

Each operation is one in-process call of ``satmeter.cli.main`` with stdout
captured; a pass runs every operation once.  Passes repeat until the next
one would end past SECONDS (at least MIN_PASSES).  With TRACE=1 the first
half of the time runs untraced and the rest under ``layertrace.install``, so
the traced and untraced pass times come from one process.

The result file holds the pass times, this process's peak RSS and every
distinct report per operation (a later pass whose report differs from the
first adds an entry), for the caller to check outside this process.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import re
import resource
import sys
import time
import traceback

MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def run_op(main, op: dict, tracer) -> tuple[float, int, str]:
    argv = ["solve", "--alg", op["alg"]]
    if op["alg"] == "planar-ptas":
        argv += ["--eps", op["eps"]]
    argv.append(op["file"])
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = main(argv)
            else:
                tracer.open("cli.main_s")
                try:
                    code = main(argv)
                finally:
                    tracer.close()
    except Exception:  # an escaped exception is this operation's failure
        code = -1
        buf = io.StringIO(traceback.format_exc())
    return time.perf_counter() - start, code, buf.getvalue()


TIMESTAMP = re.compile(r'"timestamp": [0-9.e+-]+')


class Outputs:
    """Distinct (exit code, stdout) per operation, and which one each pass got.

    Reports are kept as text, timestamp removed, so the timed process holds
    no large object graphs between passes.
    """

    def __init__(self, n_ops: int):
        self.distinct: list[list[dict]] = [[] for _ in range(n_ops)]
        self.per_pass: list[list[int]] = []

    def add_pass(self, results: list[tuple[int, str]]) -> None:
        picks = []
        for seen, (code, text) in zip(self.distinct, results):
            out = {"code": code, "text": TIMESTAMP.sub('"timestamp": 0', text, count=1)}
            if out not in seen:
                seen.append(out)
            picks.append(seen.index(out))
        self.per_pass.append(picks)


def run_passes(main, ops, outputs, budget_s, min_passes, tracer=None):
    times = []
    start = time.perf_counter()
    while True:
        gc.collect()  # start every pass from the same heap state, untimed
        elapsed, results = 0.0, []
        for op in ops:
            if tracer is not None:
                tracer.op += 1
            dt, code, text = run_op(main, op, tracer)
            elapsed += dt
            results.append((code, text))
        times.append(elapsed)
        outputs.add_pass(results)
        if tracer is not None:
            tracer.keep_spans = False  # keep the first traced pass only
        spent = time.perf_counter() - start
        if len(times) >= min_passes and spent * (len(times) + 1) / len(times) > budget_s:
            return times


def main() -> int:
    src, plan_path, result_path, seconds, trace = sys.argv[1:6]
    seconds, trace = float(seconds), trace == "1"
    sys.path.insert(0, src)
    from satmeter.cli import main as cli_main

    with open(plan_path) as fh:
        plan = json.load(fh)
    ops = plan["ops"]
    # untimed warm-up: one solve per algorithm on a small fixed formula
    for alg in sorted({op["alg"] for op in ops}):
        run_op(cli_main, dict(plan["warmup"], alg=alg, eps="1/3"), None)

    outputs = Outputs(len(ops))
    result: dict = {}
    if not trace:
        result["pass_s"] = run_passes(cli_main, ops, outputs, seconds, MIN_PASSES)
    else:
        import layertrace as tr

        result["pass_s"] = run_passes(cli_main, ops, outputs, seconds / 2, MIN_TRACED_PASSES)
        tracer = tr.Tracer()
        tr.install(tracer)
        traced = run_passes(cli_main, ops, outputs, seconds / 2, MIN_TRACED_PASSES, tracer)
        result["traced_pass_s"] = traced
        result["layers"] = tr.layer_metrics(tracer, len(traced))
        with open(plan["spans_file"], "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["outputs"] = outputs.distinct
    result["per_pass"] = outputs.per_pass
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
