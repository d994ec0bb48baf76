"""Outside-in layer tracing: wrap satmeter's public functions with spans.

The callers import most names directly (``from satmeter.planar import
partition``), so a wrapper is installed in every satmeter module namespace
that holds the original object, and methods are replaced on their class.
A span records its name, start, end, parent and self time (its duration
minus the time covered by its child spans).  Spans stay in memory; the
caller writes them out when the run ends.

``exact_maxsat`` is opaque: the packing and evaluation it calls are the
oracle's own enumeration and are charged to ``oracle.exact_s``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, metric) -- attribute "Class.method" patches the class
SPANS = [
    ("satmeter.formula", "parse_dimacs", "formula.parse_s"),
    ("satmeter.formula", "serialize_dimacs", "formula.serialize_s"),
    ("satmeter.formula", "serialize_assignment", "formula.serialize_s"),
    ("satmeter.formula", "eval_assignment", "formula.eval_s"),
    ("satmeter.formula", "Formula.__post_init__", "formula.construct_s"),
    ("satmeter.formula", "incidence_graph", "formula.incidence_graph_s"),
    ("satmeter.formula", "pack_clauses", "formula.pack_s"),
    ("satmeter.formula", "PackedClauses.count_satisfied", "formula.count_satisfied_s"),
    ("satmeter.hashfam", "batch_assignments", "hashfam.batch_s"),
    ("satmeter.oracle", "exact_maxsat", "oracle.exact_s"),
    ("satmeter.twosat", "half_approx", "twosat.half_s"),
    ("satmeter.twosat", "to_two_satisfiable", "twosat.transform_s"),
    ("satmeter.twosat", "TwoSatStream.clauses", "twosat.transform_s"),
    ("satmeter.twosat", "TwoSatStream.flipped_vars", "twosat.transform_s"),
    ("satmeter.twosat", "ls_search", "twosat.ls_search_s"),
    ("satmeter.twosat", "ls_solve", "twosat.ls_solve_s"),
    ("satmeter.biased", "bias_profile", "biased.profile_s"),
    ("satmeter.biased", "flipped_formula", "biased.flip_s"),
    ("satmeter.biased", "chou_search", "biased.chou_search_s"),
    ("satmeter.biased", "chou_solve", "biased.chou_solve_s"),
    ("satmeter.planar", "connect_with_dummy", "planar.connect_s"),
    ("satmeter.planar", "bfs_levels", "planar.bfs_s"),
    ("satmeter.planar", "choose_deletion_band", "planar.band_s"),
    ("satmeter.planar", "partition", "planar.partition_s"),
    ("satmeter.planar", "verify_partition", "planar.verify_s"),
    ("satmeter.treedp", "tree_decompose", "treedp.decompose_s"),
    ("satmeter.treedp", "rebalance", "treedp.rebalance_s"),
    ("satmeter.treedp", "validate_td", "treedp.validate_s"),
    ("satmeter.treedp", "bdtw_maxsat", "treedp.dp_s"),
    ("satmeter.treedp", "solve_part_exact", "treedp.part_solve_s"),
    ("satmeter.treedp", "planar_ptas", "treedp.ptas_s"),
]
OPAQUE = {"oracle.exact_s"}
METER_CALLS = ["alloc_cells", "free_cells", "note_pass", "tracked"]
SEARCHES = {"twosat.ls_search_s", "biased.chou_search_s"}


class Tracer:
    """Span recorder plus the counters measured at the same boundaries.

    Spans are kept while ``keep_spans`` is true; self times and counts
    accumulate over everything traced.
    """

    def __init__(self):
        self.spans: list[tuple] = []  # (id, op, name, start, end, parent, self)
        self.keep_spans = True
        self.op = -1
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.meter_calls = [0]
        self._stack: list[list] = []  # [id, name, start, child_ns]
        self._next_id = 0
        self._opaque = 0

    def open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])
        self._next_id += 1

    def close(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        dur = end - start
        parent = -1
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][3] += dur
        self.self_ns[name] += dur - child_ns
        if self.keep_spans:
            self.spans.append((span_id, self.op, name, start, end, parent, dur - child_ns))

    def wrap(self, fn, name: str):
        opaque = name in OPAQUE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            rows_before = self.counts["hashfam.candidates_evaluated"]
            self.open(name)
            self._opaque += opaque
            try:
                out = fn(*args, **kwargs)
            finally:
                self._opaque -= opaque
                self.close()
            self._observe(name, args, out, rows_before)
            return out

        return traced

    def _observe(self, name, args, out, rows_before) -> None:
        c = self.counts
        if name == "formula.construct_s":
            c["formula.formulas_built"] += 1
        elif name == "hashfam.batch_s":
            c["hashfam.candidates_evaluated"] += out.shape[0]
        elif name == "oracle.exact_s":
            c["oracle.rows"] += 1 << args[0].n
        elif name == "planar.partition_s":
            c["planar.parts"] += len(out.parts)
        elif name in SEARCHES and c["hashfam.candidates_evaluated"] > rows_before:
            c["hashfam.useful_rows"] += out.family_index + 1

    def count_calls(self, fn):
        """Count calls of a meter function; kept lean, the DP calls it per frame."""
        box = self.meter_calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return counted


def _replace_everywhere(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "satmeter" or mod_name.startswith("satmeter."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced function where its callers look it up."""
    import satmeter.cli  # noqa: F401  (loads every module first)

    for mod_name, attr, metric in SPANS:
        mod = sys.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(vars(cls)[meth], metric))
        else:
            original = getattr(mod, attr)
            _replace_everywhere(original, tracer.wrap(original, metric))
    metering = sys.modules["satmeter.metering"]
    for attr in METER_CALLS:
        original = getattr(metering, attr)
        _replace_everywhere(original, tracer.count_calls(original))


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass self seconds per layer and per-pass counts."""
    out = {name: ns / 1e9 / passes for name, ns in tracer.self_ns.items()}
    c = tracer.counts
    for key in ("formula.formulas_built", "hashfam.candidates_evaluated", "planar.parts"):
        out[key] = c[key] / passes
    out["metering.calls"] = tracer.meter_calls[0] / passes
    exact_s = tracer.self_ns["oracle.exact_s"] / 1e9
    out["oracle.rows_per_s"] = c["oracle.rows"] / exact_s if exact_s else 0.0
    rows = c["hashfam.candidates_evaluated"]
    out["hashfam.useful_ratio"] = c["hashfam.useful_rows"] / rows if rows else 0.0
    return out
