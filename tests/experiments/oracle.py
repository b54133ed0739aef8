"""The scalar oracle of every scenario, rebuilt as sweep records.

Each scenario's ``run_trial`` is its per-trial oracle.  Where ``run_trial``
itself calls a vectorised engine, :func:`scalar_oracles` swaps that engine's
entry point for its executable specification: the per-frame link loops, the
per-packet network event loop and the per-node lifetime loop.
:func:`oracle_records` then builds the records a sweep must reproduce ``==``.
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.experiments import get_scenario
from repro.experiments.runner import plain_value
from repro.experiments.spec import SweepSpec
from repro.modem.link import LinkSimulator
from repro.network.lifetime import lifetime_by_platform_per_node
from repro.network.simulator import NetworkSimulator


def scalar_oracles(monkeypatch: pytest.MonkeyPatch) -> None:
    """Route every vectorised engine call of the trial functions to its scalar spec."""
    monkeypatch.setattr(LinkSimulator, "run_dsss", LinkSimulator.run_dsss_perframe)
    monkeypatch.setattr(LinkSimulator, "run_fsk", LinkSimulator.run_fsk_perframe)
    monkeypatch.setattr(NetworkSimulator, "run", NetworkSimulator.run_event_loop)
    # the registry imports it at call time, so the module attribute is the seam
    monkeypatch.setattr(
        "repro.network.lifetime.lifetime_by_platform", lifetime_by_platform_per_node
    )


def oracle_records(spec: SweepSpec) -> list[dict[str, Any]]:
    """``spec``'s records built trial by trial from ``run_trial``, in sweep layout."""
    scenario = get_scenario(spec.scenario)
    records = []
    for trial in spec.expand():
        metrics = scenario.run_trial(trial.params, trial.seed)
        record: dict[str, Any] = {
            "scenario": scenario.name,
            "trial_index": trial.index,
            "replicate": trial.replicate,
            "seed": trial.seed,
        }
        for source in (trial.params, metrics):
            record.update((key, plain_value(value)) for key, value in source.items())
        records.append(record)
    return records
