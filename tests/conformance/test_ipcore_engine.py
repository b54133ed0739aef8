"""Generated conformance: the batched IP core is the fixed-point batch estimator.

P splits the delay columns across FC blocks and changes only the schedule,
so :meth:`BatchIPCoreEngine.estimate_batch` runs
:meth:`FixedPointMatchingPursuit.estimate_batch` plus P's closed-form
schedule.  Hypothesis draws the configurations the hand-picked grids of
``tests/core`` do not enumerate — every divisor P of the delay count, word
lengths from 2 to 32 bits, both rounding and both overflow modes, 0-4
trials, any ``num_paths`` — and checks, ``==`` on raw integer codes:

* ``estimate_batch`` == a loop of the scalar FC-block walk
  (:meth:`IPCoreSimulator.estimate`) == the scalar
  :meth:`FixedPointMatchingPursuit.estimate`, each trial with its P's
  schedule;
* the ``ipcore-parallelism`` scenario's ``run_batch`` (one estimate per
  word length, each row given its own P's schedule) == its per-trial
  ``run_trial`` oracle, on point lists that mix P, word lengths, estimator
  depths, duplicate and unpaired seeds; its default sweep makes one engine
  call per word length and still counts each row's cycles at its own P.

CI runs this under the pinned, derandomised ``ci`` profile
(``tests/conftest.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.core.fixedpoint_mp import FixedPointMatchingPursuit  # noqa: E402
from repro.core.ipcore import BatchIPCoreEngine, IPCoreConfig  # noqa: E402
from repro.experiments import get_scenario, run_sweep  # noqa: E402
from repro.fixedpoint.quantize import OverflowMode, RoundingMode  # noqa: E402
from repro.telemetry import registry, start_trace  # noqa: E402


def _divisors(n: int) -> list[int]:
    return [p for p in range(1, n + 1) if n % p == 0]


#: delay columns of the ``small_matrices`` fixture (a 48 x 24 S matrix)
SMALL_DELAYS = 24

configs = st.builds(
    IPCoreConfig,
    num_fc_blocks=st.sampled_from(_divisors(SMALL_DELAYS)),
    word_length=st.sampled_from((2, 3, 6, 8, 12, 16, 24, 32)),
    num_paths=st.integers(1, SMALL_DELAYS),
    rounding=st.sampled_from(list(RoundingMode)),
    overflow=st.sampled_from(list(OverflowMode)),
)


@given(
    config=configs,
    trials=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
    amplitude=st.sampled_from((0.0, 1e-3, 0.25, 1.0, 50.0)),
)
def test_estimate_batch_is_the_scalar_walk_and_the_fixed_point_estimate(
    small_matrices, config, trials, seed, amplitude
):
    assert small_matrices.num_delays == SMALL_DELAYS
    rng = np.random.default_rng(seed)
    shape = (trials, small_matrices.window_length)
    received = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * amplitude
    if trials > 1:
        received[0] = 0.0  # the all-zero corner inside a mixed batch
    engine = BatchIPCoreEngine(small_matrices, config)
    reference = FixedPointMatchingPursuit(
        small_matrices, word_length=config.word_length, num_paths=config.num_paths,
        rounding=config.rounding, overflow=config.overflow,
    )

    run = engine.estimate_batch(received)

    assert run.result == reference.estimate_batch(received)
    assert run.result.path_indices.shape == (trials, config.num_paths)
    assert run.schedule == engine.core.control.schedule()
    for trial in range(trials):
        scalar = engine.core.estimate(received[trial])
        assert run[trial].result == scalar.result
        assert run[trial].schedule == scalar.schedule
        assert scalar.result == reference.estimate(received[trial])


IPCORE = get_scenario("ipcore-parallelism")

#: one point: (P, word length, estimator depth, snr, seed) over the default
#: 224 x 112 geometry; the small seed pool makes duplicates and pairs likely
points = st.lists(
    st.tuples(
        st.sampled_from(_divisors(112)),
        st.sampled_from((4, 8, 12, 16)),
        st.sampled_from((4, 6)),
        st.sampled_from((10.0, 25.0)),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=6,
)


@given(points=points)
def test_run_batch_groups_by_word_length_and_equals_run_trial(points):
    batch = [
        ({**IPCORE.spec.base, "num_fc_blocks": p, "word_length": w,
          "num_paths": num_paths, "snr_db": snr_db}, seed)
        for p, w, num_paths, snr_db, seed in points
    ]
    assert IPCORE.run_batch(batch) == [IPCORE.run_trial(params, seed) for params, seed in batch]


def test_default_sweep_runs_one_estimate_per_word_length():
    """The default 3 x 3 grid: three engine calls of 12 rows, not nine of 4,
    with every row's cycles counted at its own P."""
    spec = IPCORE.spec
    cycles_before = registry().counter("engine.ipcore.cycles").value
    with start_trace() as tracer:
        result = run_sweep(spec)
    assert registry().counter("engine.ipcore.cycles").value - cycles_before == sum(
        record["total_cycles"] for record in result.records
    )
    calls = [r for r in tracer.records if r.name == "engine.ipcore.estimate_batch"]
    assert sorted(call.attributes["word_length"] for call in calls) == sorted(
        spec.grid["word_length"]
    )
    assert {call.attributes["trials"] for call in calls} == {
        len(spec.grid["num_fc_blocks"]) * spec.seed.replicates
    }
