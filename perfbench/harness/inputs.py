"""Workload inputs, made only from the ``--seed`` argument.

The seed picks base seeds and visiting orders.  The kinds of work, their
proportions and their sizes are the same for every seed, so runs on
different seeds measure the same mix.
"""

from __future__ import annotations

import copy
import math
import random
from collections import deque
from typing import Any, Iterator

#: The cheap scenarios the service mix submits: job latency there is mostly
#: HTTP, queueing, cache and store work, not engine time.
SERVICE_SCENARIOS = ("platform-energy", "network-lifetime", "mp-refinement",
                     "fixedpoint-bitwidth")
#: Submitted once, in the warm-up: the warehouse reads list its runs, so each
#: read returns the same one run however many mix jobs were ingested before.
READ_SCENARIO = "modem-ser-vs-snr"
#: Replicate counts of fresh service jobs (an overlap job adds one more).
SERVICE_REPLICATES = (1, 2, 3)
#: One block of the service mix; every fourth op is a warehouse read.
SERVICE_PATTERN = ("fresh", "fresh", "overlap", "runs", "fresh", "dedup", "overlap", "runs")


def base_seeds(seed: int, names: list[str]) -> dict[str, int]:
    """One base seed per scenario name."""
    rng = random.Random(f"base-seeds:{seed}")
    return {name: rng.randrange(1, 2**31) for name in sorted(names)}


def rotation(seed: int, names: list[str]) -> list[str]:
    """The order ops visit the scenarios in."""
    order = sorted(names)
    random.Random(f"rotation:{seed}").shuffle(order)
    return order


def with_seed(spec: dict[str, Any], base_seed: int, replicates: int | None = None) -> dict[str, Any]:
    """A copy of a spec dict with its seed policy changed."""
    changed = copy.deepcopy(spec)
    changed["seed"]["base_seed"] = base_seed
    if replicates is not None:
        changed["seed"]["replicates"] = replicates
    return changed


def num_trials(spec: dict[str, Any]) -> int:
    """Trials a spec dict expands to: grid product x zipped rows x replicates."""
    grid = math.prod(len(values) for values in spec.get("grid", {}).values())
    zipped = spec.get("zipped") or {}
    rows = len(next(iter(zipped.values()))) if zipped else 1
    return grid * rows * int(spec["seed"]["replicates"])


def service_ops(seed: int, defaults: dict[str, dict[str, Any]]) -> Iterator[dict[str, Any]]:
    """The service-mix op sequence (endless; the run stops taking ops).

    Each op is ``{"kind": ..., "spec": ..., "of": ...}``:

    * ``fresh`` — a scenario's default spec with a new base seed and a
      replicate count from :data:`SERVICE_REPLICATES`: trials execute;
    * ``overlap`` — an earlier fresh spec with one extra replicate: its
      trials are cache reads except the new replicate;
    * ``dedup`` — an earlier fresh spec resubmitted as is: the daemon
      returns the original job (``of`` is the index of that fresh op);
    * ``runs`` — a warehouse read, ``GET /api/v1/runs?scenario=`` of
      :data:`READ_SCENARIO`.
    """
    rng = random.Random(f"service:{seed}")
    combos = [(name, replicates) for name in SERVICE_SCENARIOS
              for replicates in SERVICE_REPLICATES]
    fresh_block: list[tuple[str, int]] = []
    to_overlap: deque[int] = deque()
    to_dedup: deque[int] = deque()
    specs: dict[int, dict[str, Any]] = {}
    index = 0
    while True:
        for kind in SERVICE_PATTERN:
            op: dict[str, Any] = {"kind": kind, "index": index}
            if kind == "fresh":
                if not fresh_block:
                    fresh_block = combos[:]
                    rng.shuffle(fresh_block)
                name, replicates = fresh_block.pop()
                op["spec"] = with_seed(defaults[name], rng.randrange(1, 2**31), replicates)
                specs[index] = op["spec"]
                to_overlap.append(index)
                to_dedup.append(index)
            elif kind == "overlap":
                earlier = specs[to_overlap.popleft()]
                op["spec"] = with_seed(earlier, earlier["seed"]["base_seed"],
                                       earlier["seed"]["replicates"] + 1)
            elif kind == "dedup":
                op["of"] = to_dedup.popleft()
                op["spec"] = specs[op["of"]]
            yield op
            index += 1
