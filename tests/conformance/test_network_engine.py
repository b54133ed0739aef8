"""Differential conformance: batched network engine vs the per-packet event loop.

Hypothesis draws whole simulator configurations — traffic jitter (none or
some), routed forwarding or TTL flooding (TTL 1-5), no MAC / CSMA /
slotted ALOHA, grid or random topology, current drift on or off — plus an
event cap or horizon placed on, just before or just after the boundaries of
the engine's growing schedule chunks (256, then 512, 1024, 2048 events).
:meth:`BatchNetworkEngine.run` must return a result ``==`` the event loop's
on every observable.  CI runs this under the pinned, derandomised ``ci``
profile (``tests/conftest.py``).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, strategies as st  # noqa: E402

from repro.modem.energy_budget import ModemEnergyBudget  # noqa: E402
from repro.network.batch import _CHUNK_EVENTS, _FIRST_CHUNK_EVENTS  # noqa: E402
from repro.network.mac import CsmaMac, SlottedAloha  # noqa: E402
from repro.network.routing import RoutedForwarding, TtlFlooding  # noqa: E402
from repro.network.simulator import NetworkSimulator  # noqa: E402
from repro.network.topology import (  # noqa: E402
    LinearMobility,
    connectivity_graph,
    grid_deployment,
    random_deployment,
)
from repro.network.traffic import PeriodicTraffic  # noqa: E402

from tests.network.test_batch_equivalence import assert_identical  # noqa: E402

INTERVAL_S = 30.0
RANGE_M = 300.0


def _chunk_ends() -> list[int]:
    """Cumulative event counts at which the engine's schedule chunks end."""
    ends, size, total = [], _FIRST_CHUNK_EVENTS, 0
    while size <= _CHUNK_EVENTS // 2:
        total += size
        ends.append(total)
        size *= 2
    return ends


#: event counts on, one before and one after every chunk boundary
EVENT_COUNTS = sorted({end + delta for end in _chunk_ends() for delta in (-1, 0, 1)} | {1, 40})

deployments = st.one_of(
    st.builds(
        grid_deployment,
        rows=st.integers(2, 3),
        cols=st.integers(2, 4),
        spacing_m=st.sampled_from([150.0, 200.0, 250.0]),
    ),
    st.builds(
        random_deployment,
        num_nodes=st.integers(3, 10),
        area_m=st.sampled_from([(400.0, 400.0), (600.0, 500.0)]),
        rng=st.integers(0, 2**16),
    ),
)

macs = st.one_of(
    st.none(),
    st.builds(
        CsmaMac,
        channel_load=st.floats(0.0, 0.6),
        max_attempts=st.integers(1, 5),
        capture_probability=st.floats(0.0, 0.5),
    ),
    st.builds(SlottedAloha, offered_load=st.floats(0.0, 2.0), max_attempts=st.integers(1, 6)),
)

protocols = st.one_of(
    st.just(RoutedForwarding()),
    st.builds(TtlFlooding, ttl=st.integers(1, 5)),
)

mobilities = st.one_of(
    st.none(),
    st.builds(
        LinearMobility,
        speed_mps=st.floats(0.001, 0.2),
        epoch_s=st.sampled_from([5 * INTERVAL_S, 40 * INTERVAL_S, 300 * INTERVAL_S]),
        heading_seed=st.integers(0, 2**16),
    ),
)


@st.composite
def configurations(draw):
    deployment = draw(deployments)
    mobility = draw(mobilities)
    if mobility is None:
        # a static deployment must be connected to build its routes
        try:
            connectivity_graph(deployment, RANGE_M)
        except ValueError:
            assume(False)
    simulator = dict(
        deployment=deployment,
        energy_budget=ModemEnergyBudget(
            transmit_power_w=2.0,
            receive_frontend_power_w=0.05,
            processing_energy_per_estimation_j=draw(st.sampled_from([9.5e-6, 500.76e-6])),
            processing_idle_power_w=0.01,
        ),
        traffic=PeriodicTraffic(
            report_interval_s=INTERVAL_S,
            packet_symbols=16,
            jitter_fraction=draw(st.sampled_from([0.0, 0.05, 0.3])),
        ),
        communication_range_m=RANGE_M,
        battery_capacity_j=draw(st.sampled_from([20.0, 60.0, 150.0, 1e9])),
        mac=draw(macs),
        rng=draw(st.integers(0, 2**32)),
        protocol=draw(protocols),
        mobility=mobility,
    )
    events = draw(st.sampled_from(EVENT_COUNTS))
    if draw(st.booleans()):
        # cap by event count; the horizon is out of reach
        limits = dict(max_time_s=1e9, max_events=events)
    else:
        # cap by horizon: about ``events`` reports fall before it
        sensors = deployment.num_nodes - 1
        limits = dict(max_time_s=INTERVAL_S * events / sensors, max_events=500_000)
    return simulator, limits, draw(st.booleans())


@given(configurations())
def test_batch_engine_equals_event_loop(configuration):
    simulator, limits, stop_at_first_death = configuration
    reference = NetworkSimulator(**simulator).run_event_loop(
        stop_at_first_death=stop_at_first_death, **limits
    )
    batched = NetworkSimulator(**simulator).run(
        stop_at_first_death=stop_at_first_death, **limits
    )
    assert_identical(reference, batched)


def test_event_counts_straddle_every_growing_chunk():
    """The drawn caps land on and either side of the 256/512/1024/2048 chunks."""
    assert _chunk_ends() == [256, 768, 1792, 3840]
    for end in _chunk_ends():
        assert {end - 1, end, end + 1} <= set(EVENT_COUNTS)
