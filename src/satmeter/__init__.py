"""Space-metered Max-r-SAT approximation toolkit.

Approximation algorithms for Max-r-SAT (1/2, 0.618, sqrt(2)/2 and a planar
(1-eps) scheme) built on a read-only-input / restartable-stream runtime that
meters auxiliary space and recomputation passes, with a brute-force oracle
for end-to-end verification.
"""

from satmeter.formula import (
    Assignment,
    Formula,
    clause_histogram,
    eval_assignment,
    incidence_graph,
    parse_dimacs,
    serialize_dimacs,
)
from satmeter.metering import SpaceReport, Stream, meter_scope

__all__ = [
    "Assignment",
    "Formula",
    "SpaceReport",
    "Stream",
    "clause_histogram",
    "eval_assignment",
    "incidence_graph",
    "meter_scope",
    "parse_dimacs",
    "serialize_dimacs",
]
