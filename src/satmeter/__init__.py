"""Space-metered Max-r-SAT approximation toolkit.

Approximation algorithms for Max-r-SAT (1/2, 0.618, sqrt(2)/2 and a planar
(1-eps) scheme) over a read-only input, metered for auxiliary space and for
recomputation passes (one charged wherever a derived formula is rebuilt),
with a brute-force oracle for end-to-end verification.
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
from satmeter.metering import SpaceReport, meter_scope

__all__ = [
    "Assignment",
    "Formula",
    "SpaceReport",
    "clause_histogram",
    "eval_assignment",
    "incidence_graph",
    "meter_scope",
    "parse_dimacs",
    "serialize_dimacs",
]
