"""Space meter and restartable streams: accounting semantics."""

import pytest

from satmeter.metering import (
    Stream,
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


def test_stream_restartable_and_pass_counted():
    s = Stream("A", lambda: iter([1, 2, 3]))
    with meter_scope("sc") as sc:
        assert list(s.scan()) == [1, 2, 3]
        assert list(s.scan()) == [1, 2, 3]
    assert sc.report.pass_counts == {"A": 2}
    assert s.passes == 2


def test_nested_streams_pass_composition():
    a = Stream("A", lambda: iter([1, 2]))

    def produce_b():
        total = sum(a.scan())  # first scan of A
        for x in a.scan():  # second scan of A
            yield x + total

    b = Stream("B", produce_b)
    with meter_scope("sc") as sc:
        assert list(b.scan()) == [4, 5]
    assert sc.report.pass_counts == {"A": 2, "B": 1}


def test_empty_stream_still_counts_a_pass():
    s = Stream("E", lambda: iter([]))
    with meter_scope("sc") as sc:
        assert list(s.scan()) == []
    assert sc.report.pass_counts == {"E": 1}


def test_note_pass_aggregates():
    with meter_scope("outer") as outer:
        with meter_scope("inner") as inner:
            note_pass("p", 3)
    assert outer.report.pass_counts == {"p": 3}
    assert inner.report.pass_counts == {"p": 3}


def test_report_as_dict_shape():
    with meter_scope("lbl") as sc:
        with tracked(1):
            pass
    d = sc.report.as_dict()
    assert set(d) == {"label", "peak_aux_cells", "pass_counts"}
    assert d["label"] == "lbl"
