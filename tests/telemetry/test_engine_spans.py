"""Every batch engine emits spans when traced — and nothing when not.

The instrumentation contract (CONTRIBUTING): hot-path stages of a batch
engine open spans, per-batch metrics count activity, and the disabled path
records zero spans.  These tests drive each of the four engines once under
``start_trace`` and once without, asserting both halves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ipcore import BatchIPCoreEngine, IPCoreConfig
from repro.experiments import get_scenario, run_sweep
from repro.modem.batch import BatchLinkEngine
from repro.modem.energy_budget import ModemEnergyBudget
from repro.network.simulator import NetworkSimulator
from repro.network.topology import grid_deployment
from repro.network.traffic import PeriodicTraffic
from repro.telemetry import registry, start_trace


def _names(tracer):
    return [record.name for record in tracer.records]


class TestIPCoreEngineSpans:
    def test_estimate_batch_stages(self, small_matrices, rng):
        engine = BatchIPCoreEngine(
            small_matrices, IPCoreConfig(num_fc_blocks=3, word_length=8, num_paths=2)
        )
        received = rng.standard_normal((3, small_matrices.window_length)) * (1 + 0.5j)
        cycles_before = registry().counter("engine.ipcore.cycles").value
        with start_trace() as tracer:
            run = engine.estimate_batch(received)
        names = _names(tracer)
        assert "engine.ipcore.estimate_batch" in names
        assert "engine.ipcore.matched_filter" in names
        assert "engine.ipcore.iterations" in names
        # the stage spans nest under the batch span
        by_name = {r.name: r for r in tracer.records}
        batch_id = by_name["engine.ipcore.estimate_batch"].span_id
        assert by_name["engine.ipcore.matched_filter"].parent_id == batch_id
        assert by_name["engine.ipcore.iterations"].parent_id == batch_id
        # cycle accounting: schedule cycles x trials
        cycles = registry().counter("engine.ipcore.cycles").value - cycles_before
        assert cycles == run.total_cycles * 3

    def test_untraced_run_emits_nothing(self, small_matrices, rng):
        engine = BatchIPCoreEngine(
            small_matrices, IPCoreConfig(num_fc_blocks=3, word_length=8, num_paths=2)
        )
        received = rng.standard_normal((2, small_matrices.window_length)) * (1 + 0.5j)
        with start_trace() as probe:
            pass  # tracer closed: nothing below may record into it
        engine.estimate_batch(received)
        assert probe.records == []


class TestFixedPointEngineSpans:
    @pytest.fixture(scope="class")
    def tiny_spec(self):
        return (
            get_scenario("fixedpoint-bitwidth").spec
            .with_axis("word_length", (6, 8))
            .with_seed(replicates=1)
        )

    def test_run_batch_and_group_spans(self, tiny_spec):
        trials_before = registry().counter("engine.fixedpoint.trials").value
        with start_trace() as tracer:
            result = run_sweep(tiny_spec)
        names = _names(tracer)
        assert names.count("trial.batch") == 1  # every trial in one run_batch call
        assert names.count("trial") == result.stats.num_trials
        assert names.count("engine.fixedpoint.group") == 2  # one per word length
        groups = [r for r in tracer.records if r.name == "engine.fixedpoint.group"]
        assert sorted(g.attributes["word_length"] for g in groups) == [6, 8]
        assert registry().counter("engine.fixedpoint.trials").value - trials_before == (
            result.stats.num_trials
        )


class TestLinkEngineSpans:
    def test_run_draw_and_compute_stages(self):
        frames_before = registry().counter("engine.link.frames").value
        with start_trace() as tracer:
            BatchLinkEngine(rng=0).run("DSSS", 0.0, num_symbols=8, num_frames=2)
        names = _names(tracer)
        assert "engine.link.draw" in names
        assert "engine.link.compute" in names
        assert registry().counter("engine.link.frames").value - frames_before == 2

    def test_curve_spans_nest_despite_worker_thread(self):
        # run_curve computes point t on a worker thread while drawing t+1;
        # contextvars.copy_context must keep those spans under the curve span
        with start_trace() as tracer:
            BatchLinkEngine(rng=0).run_curve("FSK", [0.0, 3.0], num_symbols=8,
                                             num_frames=2)
        by_name: dict[str, list] = {}
        for record in tracer.records:
            by_name.setdefault(record.name, []).append(record)
        (curve,) = by_name["engine.link.curve"]
        assert len(by_name["engine.link.compute"]) == 2
        for compute in by_name["engine.link.compute"]:
            assert compute.parent_id == curve.span_id


class TestNetworkEngineSpans:
    def test_run_span_and_event_counter(self):
        simulator = NetworkSimulator(
            deployment=grid_deployment(3, 3, spacing_m=200.0),
            energy_budget=ModemEnergyBudget(processing_energy_per_estimation_j=500.76e-6),
            traffic=PeriodicTraffic(report_interval_s=30.0, packet_symbols=16,
                                    jitter_fraction=0.0),
            battery_capacity_j=150.0,
            rng=0,
        )
        events_before = registry().counter("engine.network.events").value
        with start_trace() as tracer:
            simulator.run(max_time_s=3_600.0)
        (run_span,) = [r for r in tracer.records if r.name == "engine.network.run"]
        assert run_span.attributes["nodes"] == 9
        assert registry().counter("engine.network.events").value > events_before

    def test_consumed_events_count_what_the_event_loop_processes(self):
        """``events_consumed`` is exactly the event loop's processed-event count;
        ``events`` adds what was generated past the death that ended the run."""
        def simulator():
            return NetworkSimulator(
                deployment=grid_deployment(3, 3, spacing_m=200.0),
                energy_budget=ModemEnergyBudget(processing_energy_per_estimation_j=500.76e-6),
                traffic=PeriodicTraffic(report_interval_s=30.0, packet_symbols=16,
                                        jitter_fraction=0.1),
                battery_capacity_j=150.0,
                rng=0,
            )
        generated = registry().counter("engine.network.events")
        consumed = registry().counter("engine.network.events_consumed")
        generated_before, consumed_before = generated.value, consumed.value
        result = simulator().run(max_time_s=86_400.0)
        oracle = simulator()
        oracle.run_event_loop(max_time_s=86_400.0)
        assert result.first_death_time_s is not None
        assert consumed.value - consumed_before == oracle._event_index
        assert generated.value - generated_before > oracle._event_index


class TestNumpyAttributeSafety:
    def test_span_attributes_serialise_after_numpy_inputs(self, small_matrices, rng):
        # engines pass sizes/word lengths into span attributes; make sure a
        # traced run's records survive the JSONL round trip with plain types
        import json

        engine = BatchIPCoreEngine(
            small_matrices, IPCoreConfig(num_fc_blocks=1, word_length=8, num_paths=2)
        )
        received = rng.standard_normal((1, small_matrices.window_length)) * (1 + 0.5j)
        with start_trace() as tracer:
            engine.estimate_batch(received)
        for record in tracer.records:
            json.dumps(record.to_dict())  # must not raise

    def test_empty_batch_still_spans(self, small_matrices):
        engine = BatchIPCoreEngine(
            small_matrices, IPCoreConfig(num_fc_blocks=1, word_length=8, num_paths=2)
        )
        empty = np.zeros((0, small_matrices.window_length), dtype=np.complex128)
        with start_trace() as tracer:
            run = engine.estimate_batch(empty)
        assert run.num_trials == 0
        assert "engine.ipcore.estimate_batch" in _names(tracer)
