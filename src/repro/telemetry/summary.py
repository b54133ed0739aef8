"""Trace summarisation: the analysis behind the ``repro trace`` subcommand.

Takes the flat JSONL span list a traced sweep exports and answers the three
questions a slow run raises: *what ran* (the span tree, aggregated by name so
a thousand trials render as one line), *where the time went* (per-stage
totals over every span of a name, with each stage's *self* time — its
spans' durations minus their children's — as its share of the wall clock,
plus an ``unattributed`` row for the time no root span covers, so the shares
of a serial trace sum to 100%), and *which trials were worst* (the slowest
``trial`` spans with their identifying attributes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.telemetry.tracing import SpanRecord
from repro.utils.tables import format_table

__all__ = [
    "StageStat",
    "UNATTRIBUTED",
    "aggregate_stages",
    "aggregate_tree",
    "slowest_spans",
    "stage_shares",
    "render_trace_summary",
]

#: The stage row for wall time that no root span covers.
UNATTRIBUTED = "unattributed"


@dataclass(frozen=True)
class StageStat:
    """Aggregate timing of every span sharing one name."""

    name: str
    count: int
    total_s: float
    max_s: float
    #: Exclusive time: ``total_s`` minus the time of the spans' direct
    #: children (never negative; concurrent worker children can exceed it).
    self_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


def aggregate_stages(records: Sequence[SpanRecord]) -> list[StageStat]:
    """Per-name timing totals and self times, sorted by total time (descending)."""
    child_time: dict[str, float] = {}
    for record in records:
        if record.parent_id is not None:
            child_time[record.parent_id] = (
                child_time.get(record.parent_id, 0.0) + record.duration_s
            )
    counts: dict[str, int] = {}
    totals: dict[str, float] = {}
    maxima: dict[str, float] = {}
    selfs: dict[str, float] = {}
    for record in records:
        counts[record.name] = counts.get(record.name, 0) + 1
        totals[record.name] = totals.get(record.name, 0.0) + record.duration_s
        maxima[record.name] = max(maxima.get(record.name, 0.0), record.duration_s)
        selfs[record.name] = selfs.get(record.name, 0.0) + max(
            0.0, record.duration_s - child_time.get(record.span_id, 0.0)
        )
    stats = [
        StageStat(name=name, count=counts[name], total_s=totals[name],
                  max_s=maxima[name], self_s=selfs[name])
        for name in counts
    ]
    return sorted(stats, key=lambda stat: (-stat.total_s, stat.name))


def _wall_s(records: Sequence[SpanRecord]) -> float:
    return max(record.end_s for record in records) - min(
        record.start_s for record in records
    )


def stage_shares(records: Sequence[SpanRecord]) -> dict[str, float]:
    """Each span name's self time as a fraction of the trace's wall clock.

    The extra ``unattributed`` entry is the wall time no root span covers
    (a span whose parent is not in the trace counts as a root), so for a
    serial trace the fractions sum to 1.  An empty or zero-length trace
    reports all zeros.
    """
    if not records:
        return {UNATTRIBUTED: 0.0}
    wall_s = _wall_s(records)
    known = {record.span_id for record in records}
    rooted = sum(record.duration_s for record in records if record.parent_id not in known)
    seconds = {stat.name: stat.self_s for stat in aggregate_stages(records)}
    seconds[UNATTRIBUTED] = max(0.0, wall_s - rooted)
    return {
        name: (value / wall_s if wall_s > 0 else 0.0) for name, value in seconds.items()
    }


def aggregate_tree(records: Sequence[SpanRecord]) -> list[tuple[int, StageStat]]:
    """The span tree with same-named siblings folded together.

    Returns ``(depth, stat)`` rows in depth-first order: every group of
    same-named spans sharing a *structural* position (the chain of ancestor
    names) becomes one row, so a million-trial trace renders in a screenful.
    Spans with dangling parents are treated as roots (a truncated trace file
    still summarises).
    """
    known = {record.span_id for record in records}
    children: dict[str | None, list[SpanRecord]] = {}
    for record in records:
        parent = record.parent_id if record.parent_id in known else None
        children.setdefault(parent, []).append(record)

    rows: list[tuple[int, StageStat]] = []

    def walk(parent_ids: list[str | None], depth: int) -> None:
        group: dict[str, list[SpanRecord]] = {}
        order: list[str] = []
        for parent in parent_ids:
            for record in children.get(parent, ()):
                if record.name not in group:
                    group[record.name] = []
                    order.append(record.name)
                group[record.name].append(record)
        for name in order:
            spans = group[name]
            rows.append((
                depth,
                StageStat(
                    name=name,
                    count=len(spans),
                    total_s=sum(span.duration_s for span in spans),
                    max_s=max(span.duration_s for span in spans),
                ),
            ))
            walk([span.span_id for span in spans], depth + 1)

    walk([None], 0)
    return rows


def slowest_spans(
    records: Sequence[SpanRecord], name: str = "trial", top: int = 5
) -> list[SpanRecord]:
    """The ``top`` longest spans named ``name``, slowest first."""
    matching = [record for record in records if record.name == name]
    return sorted(matching, key=lambda record: -record.duration_s)[:top]


def _format_attributes(attributes: Mapping[str, object]) -> str:
    return " ".join(f"{key}={value}" for key, value in sorted(attributes.items()))


def render_trace_summary(
    records: Sequence[SpanRecord], slowest: int = 5, slowest_name: str = "trial"
) -> str:
    """The full ``repro trace`` report: tree, stage table, slowest trials."""
    if not records:
        return "empty trace (0 spans)"
    stages = aggregate_stages(records)
    wall_s = _wall_s(records)
    sections = [f"{len(records)} spans, {wall_s:.3f}s wall time"]

    tree_rows = []
    for depth, stat in aggregate_tree(records):
        tree_rows.append((
            "  " * depth + stat.name, stat.count,
            f"{stat.total_s:.4f}", f"{stat.mean_s * 1e3:.2f}", f"{stat.max_s * 1e3:.2f}",
        ))
    sections.append(format_table(
        ["Span", "Count", "Total (s)", "Mean (ms)", "Max (ms)"],
        tree_rows, title="Span tree (same-named siblings folded)",
    ))

    shares = stage_shares(records)

    def share(name: str) -> str:
        return f"{shares[name]:.0%}" if wall_s > 0 else "-"

    rows = [
        (
            stat.name, stat.count, f"{stat.total_s:.4f}", f"{stat.self_s:.4f}",
            f"{stat.mean_s * 1e3:.2f}", share(stat.name),
        )
        for stat in stages
    ]
    rows.append((
        UNATTRIBUTED, "-", "-", f"{shares[UNATTRIBUTED] * wall_s:.4f}", "-",
        share(UNATTRIBUTED),
    ))
    sections.append(format_table(
        ["Stage", "Count", "Total (s)", "Self (s)", "Mean (ms)", "Share"],
        rows,
        title="Time per stage (Share = self time / wall time)",
    ))

    slow = slowest_spans(records, name=slowest_name, top=slowest)
    if slow:
        sections.append(format_table(
            ["Duration (ms)", "Attributes"],
            [
                (f"{record.duration_s * 1e3:.2f}", _format_attributes(record.attributes))
                for record in slow
            ],
            title=f"Slowest {slowest_name!r} spans",
        ))
    return "\n\n".join(sections)
