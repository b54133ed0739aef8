"""Which public functions of the program are wrapped in spans, and under what name.

Imported only by processes that run the program in-process (``child.py``):
it imports ``repro``.
"""

from __future__ import annotations

import importlib
from typing import Any

from harness.spans import SpanRecorder


def _rows(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    received = kwargs.get("received", args[1] if len(args) > 1 else None)
    return {"rows": int(received.shape[0])}


def _hit(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"hit": result is not None}


def _ingested(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"rows": int(result.trials_added)}


def _scenario(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    spec = kwargs.get("spec", args[0])
    return {"scenario": spec.scenario, "executed": int(result.stats.executed),
            "cache_hits": int(result.stats.cache_hits)}


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the per-layer metrics are built from."""
    from repro.core.fixedpoint_mp import FixedPointMatchingPursuit
    from repro.core.ipcore import BatchIPCoreEngine
    from repro.experiments import ResultCache, ResultStore, list_scenarios, runner
    from repro.modem.batch import BatchLinkEngine
    from repro.network.batch import BatchNetworkEngine
    from repro.network.simulator import NetworkSimulator
    from repro.warehouse import Warehouse

    # by module path: the packages re-export functions under the module names
    matching_pursuit = importlib.import_module("repro.core.matching_pursuit")
    lifetime = importlib.import_module("repro.network.lifetime")

    recorder.wrap(runner, "run_sweep", "runner.run_sweep", _scenario)
    for scenario in list_scenarios():
        recorder.wrap(scenario, "run_trial", "runner.trial")
    recorder.wrap(ResultCache, "get", "cache.get", _hit)
    recorder.wrap(ResultCache, "put", "cache.put")
    recorder.wrap(ResultStore, "write", "store.write")
    recorder.wrap(BatchIPCoreEngine, "estimate_batch", "core.ipcore", _rows)
    recorder.wrap(FixedPointMatchingPursuit, "estimate", "core.fixedpoint")
    recorder.wrap(FixedPointMatchingPursuit, "estimate_batch", "core.fixedpoint", _rows)
    recorder.wrap(matching_pursuit, "matching_pursuit", "core.mp")
    # LinkSimulator.run reaches the engine through these two, not through run()
    recorder.wrap(BatchLinkEngine, "run_dsss", "modem.link.dsss")
    recorder.wrap(BatchLinkEngine, "run_fsk", "modem.link.fsk")
    recorder.wrap(BatchNetworkEngine, "run", "network.batch")
    recorder.wrap(NetworkSimulator, "run", "network.sim")
    recorder.wrap(lifetime, "lifetime_by_platform", "network.lifetime")
    recorder.wrap(Warehouse, "ingest", "warehouse.ingest", _ingested)
    recorder.wrap(Warehouse, "runs", "warehouse.runs")
