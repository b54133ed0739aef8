"""Benchmark — batched IP-core engine vs the scalar FC-block walk.

Runs a stack of Monte-Carlo channel estimations through the scalar
:class:`~repro.core.ipcore.simulator.IPCoreSimulator` (one Python walk over
the FC blocks per trial — the executable specification) and through
:class:`~repro.core.ipcore.batch.BatchIPCoreEngine` (the fixed-point batch
estimator over the whole stack plus P's closed-form schedule) at equal
trial counts, and records the speed-up.  The engine is pinned bit-identical
on raw integer codes, so besides being faster it returns *identical*
results — which this benchmark also asserts trial by trial with ``==`` at
benchmark scale, making it an end-to-end conformance check.

Two gates, both on interleaved minima:

* >= 5x over the scalar walk at the paper's 14-block design, where the walk
  pays ~100 small NumPy calls per estimation (a 2-vCPU container measures
  ~100x);
* P sets the schedule, not the work: the fully parallel P=112 engine must
  run within 2x of the single-block P=1 engine.

The measured ratios are stored in ``extra_info`` (and the benchmark JSON
artifact in CI, where ``benchmarks/compare.py`` tracks regressions against
the previous run).
"""

from __future__ import annotations

import time

import numpy as np

from repro.channel.multipath import random_sparse_channel
from repro.channel.simulator import add_noise_for_snr
from repro.core.ipcore import BatchIPCoreEngine, IPCoreConfig
from repro.utils.tables import format_table

NUM_FC_BLOCKS = 14
WORD_LENGTH = 12
TRIALS = 96
ROUNDS = 3
MIN_SPEEDUP = 5.0
#: the P=1 and P=112 ends of the design space, for the schedule-only gate
PARALLELISM_ENDS = (1, 112)
MAX_PARALLELISM_RATIO = 2.0


def _problem_stack(matrices) -> np.ndarray:
    rows = []
    for seed in range(TRIALS):
        channel = random_sparse_channel(
            num_paths=4, max_delay=100, rng=seed, min_separation=4
        )
        rows.append(add_noise_for_snr(
            matrices.synthesize(channel.coefficient_vector(matrices.num_delays)),
            22.0, rng=seed + 1_000,
        ))
    return np.stack(rows)


def test_bench_ipcore_batch(benchmark, aquamodem_matrices):
    def engine_at(num_fc_blocks):
        return BatchIPCoreEngine(
            aquamodem_matrices,
            IPCoreConfig(num_fc_blocks=num_fc_blocks, word_length=WORD_LENGTH, num_paths=6),
        )

    engine = engine_at(NUM_FC_BLOCKS)
    ends = {p: engine_at(p) for p in PARALLELISM_ENDS}
    received = _problem_stack(aquamodem_matrices)

    # Interleave every measurement round by round so machine-load drift hits
    # all paths equally; the gates use the interleaved minima.  The scalar
    # walk and the P=14 engine share one simulator instance (same quantised
    # matrices, same control unit), so that comparison is pure datapath.
    times = {"scalar": float("inf"), "batch": float("inf")}
    times.update({p: float("inf") for p in PARALLELISM_ENDS})
    results = {}
    for _ in range(ROUNDS):
        for path in ("scalar", "batch", *PARALLELISM_ENDS):
            start = time.perf_counter()
            if path == "scalar":
                runs = [engine.core.estimate(row) for row in received]
                results[path] = [run.result for run in runs]
            elif path == "batch":
                outcome = engine.estimate_batch(received)
                results[path] = [outcome.result[t] for t in range(TRIALS)]
            else:
                ends[path].estimate_batch(received)
            times[path] = min(times[path], time.perf_counter() - start)

    # result identity at benchmark scale: raw integer codes, trial by trial
    assert results["batch"] == results["scalar"], "batched IP core diverged from the scalar walk"

    # the recorded pytest-benchmark timing is the batched engine's full stack
    benchmark.pedantic(lambda: engine.estimate_batch(received), iterations=1, rounds=1)

    speedup = times["scalar"] / times["batch"]
    parallelism_ratio = times[PARALLELISM_ENDS[1]] / times[PARALLELISM_ENDS[0]]
    benchmark.extra_info["num_fc_blocks"] = NUM_FC_BLOCKS
    benchmark.extra_info["word_length"] = WORD_LENGTH
    benchmark.extra_info["trials"] = TRIALS
    benchmark.extra_info["scalar_walk_s"] = round(times["scalar"], 4)
    benchmark.extra_info["batch_s"] = round(times["batch"], 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    for p in PARALLELISM_ENDS:
        benchmark.extra_info[f"batch_p{p}_s"] = round(times[p], 4)
    benchmark.extra_info["p112_over_p1"] = round(parallelism_ratio, 2)

    print()
    print(
        format_table(
            ["Path", "Time (s)", "Speed-up"],
            [
                ("scalar FC-block walk (reference)", round(times["scalar"], 3), "1.0x"),
                ("batched engine", round(times["batch"], 3), f"{speedup:.1f}x"),
                *(
                    (f"batched engine, P={p}", round(times[p], 3),
                     f"{times['scalar'] / times[p]:.1f}x")
                    for p in PARALLELISM_ENDS
                ),
            ],
            title=(
                f"IP core — batched engine vs scalar walk "
                f"(P={NUM_FC_BLOCKS}, w={WORD_LENGTH}, {TRIALS} trials)"
            ),
        )
    )

    assert speedup >= MIN_SPEEDUP, (
        f"batched IP-core engine only {speedup:.2f}x faster (gate: {MIN_SPEEDUP}x)"
    )
    assert parallelism_ratio <= MAX_PARALLELISM_RATIO, (
        f"P={PARALLELISM_ENDS[1]} estimate_batch takes {parallelism_ratio:.2f}x the "
        f"P={PARALLELISM_ENDS[0]} time (gate: {MAX_PARALLELISM_RATIO}x)"
    )
