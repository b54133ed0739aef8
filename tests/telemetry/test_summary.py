"""Tests for trace summarisation: stage totals, tree folding, slowest spans."""

from __future__ import annotations

import pytest

from repro.telemetry.summary import (
    UNATTRIBUTED,
    aggregate_stages,
    aggregate_tree,
    render_trace_summary,
    slowest_spans,
    stage_shares,
)
from repro.telemetry.tracing import SpanRecord


def _record(name, span_id, parent_id=None, start_s=0.0, end_s=1.0, **attributes):
    return SpanRecord(name=name, span_id=span_id, parent_id=parent_id,
                      start_s=start_s, end_s=end_s, attributes=attributes)


def _sample_trace():
    return [
        _record("sweep", "1.0", None, 0.0, 10.0),
        _record("trial", "1.1", "1.0", 0.0, 4.0, trial_index=0),
        _record("trial", "1.2", "1.0", 4.0, 10.0, trial_index=1),
        _record("engine.step", "1.3", "1.1", 0.0, 1.0),
        _record("engine.step", "1.4", "1.2", 4.0, 9.0),
    ]


class TestAggregateStages:
    def test_totals_sorted_by_time(self):
        stats = {s.name: s for s in aggregate_stages(_sample_trace())}
        assert stats["trial"].count == 2
        assert stats["trial"].total_s == 10.0
        assert stats["trial"].max_s == 6.0
        assert stats["trial"].mean_s == 5.0
        assert [s.name for s in aggregate_stages(_sample_trace())][0] in ("sweep", "trial")


class TestSelfTimeShares:
    """Share is self (exclusive) time over the wall clock: nested spans are
    never counted twice, and with the unattributed row the shares sum to 100%."""

    def test_self_time_subtracts_direct_children(self):
        stats = {s.name: s for s in aggregate_stages(_sample_trace())}
        assert stats["sweep"].self_s == 0.0     # 10 s minus its two trials
        assert stats["trial"].self_s == 4.0     # (4 - 1) + (6 - 5)
        assert stats["engine.step"].self_s == 6.0

    def test_nested_shares_sum_to_wall_clock(self):
        shares = stage_shares(_sample_trace())
        assert shares == {"sweep": 0.0, "trial": 0.4, "engine.step": 0.6, UNATTRIBUTED: 0.0}
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_gaps_between_roots_are_unattributed(self):
        records = [
            _record("cache_scan", "1.0", None, 0.0, 2.0),
            _record("execute", "1.1", None, 5.0, 10.0),
            _record("trial", "1.2", "1.1", 5.0, 9.0),
        ]
        shares = stage_shares(records)
        assert shares[UNATTRIBUTED] == pytest.approx(0.3)
        assert shares["execute"] == pytest.approx(0.1)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_report_has_self_column_and_unattributed_row(self):
        report = render_trace_summary(_sample_trace())
        assert "Self (s)" in report
        assert UNATTRIBUTED in report
        assert "60%" in report and "40%" in report


class TestAggregateTree:
    def test_same_named_siblings_fold(self):
        rows = aggregate_tree(_sample_trace())
        assert [(depth, stat.name, stat.count) for depth, stat in rows] == [
            (0, "sweep", 1), (1, "trial", 2), (2, "engine.step", 2),
        ]

    def test_dangling_parents_become_roots(self):
        rows = aggregate_tree([_record("orphan", "1.0", parent_id="gone.1")])
        assert [(depth, stat.name) for depth, stat in rows] == [(0, "orphan")]


class TestSlowest:
    def test_ranked_by_duration(self):
        slow = slowest_spans(_sample_trace(), name="trial", top=1)
        assert len(slow) == 1
        assert slow[0].attributes["trial_index"] == 1  # the 6s trial

    def test_missing_name_is_empty(self):
        assert slowest_spans(_sample_trace(), name="nope") == []


class TestRender:
    def test_report_sections(self):
        report = render_trace_summary(_sample_trace())
        assert "5 spans" in report
        assert "Span tree" in report
        assert "Time per stage" in report
        assert "Slowest 'trial' spans" in report
        assert "trial_index=1" in report

    def test_empty_trace(self):
        assert render_trace_summary([]) == "empty trace (0 spans)"
