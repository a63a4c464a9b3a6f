"""The perf-suite baseline gate (``check_regression``) on hand-built docs."""

import pytest

from repro.bench.perfsuite import check_regression


def _doc(events, candidates_per_sec=500.0):
    return {
        "quick": True,
        "static_search": {
            "events_processed": events,
            "candidates_per_sec": candidates_per_sec,
        },
    }


def test_ceiling_series_fails_on_any_rise():
    failures = check_regression(_doc(43_815), _doc(43_814))
    assert len(failures) == 1
    assert "static-search engine events" in failures[0]


@pytest.mark.parametrize("events", [43_814, 40_000])
def test_ceiling_series_passes_at_or_below_baseline(events):
    assert check_regression(_doc(events), _doc(43_814)) == []


def test_throughput_series_gated_loosely():
    assert check_regression(_doc(1, 400.0), _doc(1, 500.0)) == []
    assert len(check_regression(_doc(1, 300.0), _doc(1, 500.0))) == 1


def test_series_absent_from_baseline_not_gated():
    assert check_regression(_doc(10**9, 1.0), {"quick": True}) == []
