"""The auxiliary-space / recomputation-pass meter.

The runtime discipline: algorithms get read-only access to their input
(``Formula`` objects are exempt from accounting), an intermediate result is
a derived formula rebuilt from the input whenever it is needed, each rebuild
charged as one pass with ``note_pass`` where it happens, and all auxiliary
working state is declared to the ambient meter in units of machine words
("cells").  Nested consumers compose the way the cost model demands: pass
counts multiply, live cells add, and a scope's peak is the maximum number of
concurrently-live cells observed inside it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any


@dataclass
class SpaceReport:
    """Resource summary for one metered scope."""

    label: str = ""
    peak_aux_cells: int = 0
    pass_counts: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "peak_aux_cells": self.peak_aux_cells,
            "pass_counts": dict(sorted(self.pass_counts.items())),
        }


class _Scope:
    __slots__ = ("label", "live", "report")

    def __init__(self, label: str):
        self.label = label
        self.live = 0
        self.report = SpaceReport(label=label)

    def _bump_peak(self) -> None:
        if self.live > self.report.peak_aux_cells:
            self.report.peak_aux_cells = self.live


class _MeterState(threading.local):
    def __init__(self):
        self.stack: list[_Scope] = []


_state = _MeterState()


def alloc_cells(cells: int) -> None:
    """Declare `cells` machine words of auxiliary state as live."""
    if cells < 0:
        raise ValueError("cells must be nonnegative")
    for scope in _state.stack:
        scope.live += cells
        scope._bump_peak()


def free_cells(cells: int) -> None:
    """Declare `cells` previously-allocated words as released."""
    if cells < 0:
        raise ValueError("cells must be nonnegative")
    for scope in _state.stack:
        scope.live -= cells


def note_pass(producer: str, count: int = 1) -> None:
    """Record `count` complete recomputations of the named producer."""
    for scope in _state.stack:
        pc = scope.report.pass_counts
        pc[producer] = pc.get(producer, 0) + count


@contextmanager
def tracked(cells: int):
    """Context manager that holds `cells` live for the duration of the body."""
    alloc_cells(cells)
    try:
        yield
    finally:
        free_cells(cells)


@contextmanager
def meter_scope(label: str):
    """Meter allocations and passes attributed inside the body.

    Yields the scope; its ``report`` field holds the final SpaceReport once
    the block exits.  Scopes nest: inner allocations count against every
    enclosing scope (live cells add, peaks are max-of-concurrent-live), and
    pass counts aggregate upward.
    """
    scope = _Scope(label)
    _state.stack.append(scope)
    try:
        yield scope
    finally:
        _state.stack.pop()

