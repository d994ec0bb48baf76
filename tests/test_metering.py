"""Space meter: accounting semantics."""

import pytest

from satmeter.metering import (
    alloc_cells,
    free_cells,
    meter_scope,
    note_pass,
    tracked,
)


def test_peak_accounting_alloc_then_free():
    with meter_scope("s") as sc:
        alloc_cells(64)
        free_cells(64)
    assert sc.report.peak_aux_cells == 64


def test_sequential_scopes_peak_is_max():
    with meter_scope("outer") as outer:
        with tracked(10):
            pass
        with tracked(20):
            pass
    assert outer.report.peak_aux_cells == 20


def test_nested_allocations_add():
    with meter_scope("outer") as outer:
        with tracked(10):
            with meter_scope("inner") as inner:
                with tracked(5):
                    pass
    assert outer.report.peak_aux_cells == 15
    assert inner.report.peak_aux_cells == 5


def test_negative_cells_rejected():
    with pytest.raises(ValueError):
        alloc_cells(-1)
    with pytest.raises(ValueError):
        free_cells(-1)


def test_note_pass_aggregates():
    with meter_scope("outer") as outer:
        with meter_scope("inner") as inner:
            note_pass("p", 3)
        note_pass("p")  # adds to the 3 counted inside "inner"
        note_pass("q")
    assert outer.report.pass_counts == {"p": 4, "q": 1}
    assert inner.report.pass_counts == {"p": 3}


def test_report_as_dict_shape():
    with meter_scope("lbl") as sc:
        with tracked(1):
            pass
    d = sc.report.as_dict()
    assert set(d) == {"label", "peak_aux_cells", "pass_counts"}
    assert d["label"] == "lbl"
