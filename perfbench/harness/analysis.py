"""Per-layer metrics from the spans of a traced run."""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from harness.spans import ROOT, UNATTRIBUTED, attribute, depths
from harness.stats import median

#: Span names whose time is engine work (the layers under the trial functions).
ENGINES = ("core.ipcore", "core.fixedpoint", "core.mp", "modem.link.dsss",
           "modem.link.fsk", "network.batch", "network.sim", "network.lifetime")

#: Attributed span name -> per-layer metric (seconds per op).
PER_OP_SECONDS = {
    "cli.exit": "cli.exit_s",
    "runner.run_sweep": "runner.self_s",
    "runner.trial": "runner.trial_self_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "store.write": "store.write_s",
    "core.ipcore": "core.ipcore.s",
    "core.fixedpoint": "core.fixedpoint.s",
    "core.mp": "core.mp.s",
    "modem.link.dsss": "modem.link.dsss_s",
    "modem.link.fsk": "modem.link.fsk_s",
    "network.batch": "network.batch.s",
    "network.sim": "network.sim.s",
    "network.lifetime": "network.lifetime.s",
    "warehouse.ingest": "warehouse.ingest_s",
}

#: Span name -> per-layer metric (calls per op).
PER_OP_CALLS = {
    "runner.trial": "runner.trial_calls",
    "core.ipcore": "core.ipcore.calls",
    "core.fixedpoint": "core.fixedpoint.calls",
    "modem.link.dsss": "modem.link.calls",
    "modem.link.fsk": "modem.link.calls",
    "network.batch": "network.batch.calls",
}


def place(spans: list[dict[str, Any]], offset: int = 0) -> list[tuple[dict[str, Any], int]]:
    """Spans of one process paired with their depths.

    ``offset`` nests a process's roots under the benchmark's ``op`` spans.
    """
    return list(zip(spans, depths(spans, offset)))


def layer_metrics(placed: list[tuple[dict[str, Any], int]], ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced run of ``ops`` ops."""
    totals = attribute(placed)
    wall = sum(totals.values())
    # counts and call times only from the measured phase: a daemon's spans
    # also cover its warm-up jobs
    ops_spans = [span for span, _ in placed if span["name"] == ROOT]
    first = min(span["start"] for span in ops_spans)
    last = max(span["end"] for span in ops_spans)
    spans = [span for span, _ in placed if first <= span["start"] <= last]
    calls: dict[str, int] = defaultdict(int)
    rows: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    hits = executed = 0
    for span in spans:
        name, attrs = span["name"], span["attrs"]
        calls[name] += 1
        rows[name] += attrs.get("rows", 0)
        hits += bool(attrs.get("hit"))
        if name == "runner.run_sweep":
            executed += attrs.get("executed", 0)
            # engine time only: calls that read any trial from the cache are left out
            if attrs.get("executed") and not attrs.get("cache_hits"):
                durations[f"runner.sweep_s.{attrs['scenario']}"].append(
                    span["end"] - span["start"])
        elif name == "warehouse.runs":
            durations["warehouse.runs_query_s"].append(span["end"] - span["start"])
        elif name == "warehouse.ingest":
            durations["warehouse.ingest"].append(span["end"] - span["start"])

    metrics = {metric: 0.0 for metric in
               list(PER_OP_SECONDS.values()) + list(PER_OP_CALLS.values())}
    for name, metric in PER_OP_SECONDS.items():
        metrics[metric] = totals.get(name, 0.0) / ops
    for name, metric in PER_OP_CALLS.items():
        metrics[metric] += calls[name] / ops
    metrics["runner.trials_per_call"] = (
        executed / calls["runner.trial"] if calls["runner.trial"] else 0.0
    )
    metrics["cache.hit_ratio"] = hits / calls["cache.get"] if calls["cache.get"] else 0.0
    metrics["core.ipcore.rows_per_call"] = (
        rows["core.ipcore"] / calls["core.ipcore"] if calls["core.ipcore"] else 0.0
    )
    ingest_s = sum(durations.pop("warehouse.ingest", []))
    metrics["warehouse.ingest_rows_per_s"] = rows["warehouse.ingest"] / ingest_s if ingest_s else 0.0
    for metric, values in durations.items():
        metrics[metric] = median(values)
    metrics["trace.unattributed_share"] = totals.get(UNATTRIBUTED, 0.0) / wall if wall else 0.0
    metrics["trace.engine_share"] = (
        sum(totals.get(name, 0.0) for name in ENGINES) / wall if wall else 0.0
    )
    return metrics


def breakdown_lines(placed: list[tuple[dict[str, Any], int]], ops: int) -> list[str]:
    """A readable table of where the traced ops' time went."""
    totals = attribute(placed)
    wall = sum(totals.values())
    lines = [f"traced breakdown over {ops} ops, {wall:.3f} s "
             "(layer self times plus the unattributed row add up to the op time):"]
    for name, seconds in sorted(totals.items(), key=lambda item: -item[1]):
        lines.append(f"  {name:<24} {seconds / ops:10.5f} s/op  {seconds / wall:7.2%}")
    return lines
