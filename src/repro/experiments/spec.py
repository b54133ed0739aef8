"""Declarative sweep specifications.

A :class:`SweepSpec` describes *what* to run — a scenario name, a set of
parameter axes and a seeding policy — without saying anything about *how*
(serial vs parallel, cached vs fresh).  The split is what makes sweeps
reproducible and resumable: the spec round-trips through JSON, expands into a
deterministic list of :class:`TrialPoint` objects, and each trial carries a
seed derived purely from the seed policy (never from execution order), so the
same spec always produces the same trials in the same order no matter how it
is executed.

Two kinds of axes are supported:

* ``grid`` axes are swept as a cartesian product (every combination runs);
* ``zipped`` axes vary together, row by row — useful when values are paired
  data rather than independent dimensions (e.g. platform label and its
  per-estimation energy).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Mapping, Sequence

__all__ = ["SeedPolicy", "SweepSpec", "TrialPoint", "canonical_json", "stable_hash"]

#: Parameter values a spec may carry (must survive a JSON round trip).
ParamValue = int | float | str | bool | None

#: Version of the seed-derivation scheme, folded into every trial seed's
#: entropy.  Bumping it re-draws every random stream (and, since seeds enter
#: cache keys, invalidates cached stochastic results) without touching specs.
SEED_SCHEME_VERSION = 4


def canonical_json(value: Any) -> str:
    """Serialise ``value`` to JSON with sorted keys and no whitespace.

    The canonical form is the basis of every stable identity in the
    experiments subsystem (trial seeds, cache keys), so it must not depend on
    dict insertion order or platform.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=_jsonable)


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars (and anything with ``item()``) to plain Python."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"{value!r} is not JSON serialisable")


def stable_hash(value: Any, *, length: int = 16) -> str:
    """A hex digest of ``value``'s canonical JSON, stable across processes.

    Unlike :func:`hash`, this does not depend on ``PYTHONHASHSEED``, so it is
    safe to use for on-disk cache keys and cross-process seed derivation.
    """
    digest = hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
    return digest[:length]


# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx): a 4-word
# uint32 pool, hashmix/mix multipliers, and the xorshift of half a word.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


@functools.lru_cache(maxsize=4096)
def seed_sequence_uint64(entropy: tuple[int, ...]) -> int:
    """``SeedSequence(entropy).generate_state(1, numpy.uint64)[0]`` in pure Python.

    A port of NumPy's documented algorithm for a tuple of non-negative ints
    (no spawn key), so seed derivation needs no numpy: each int is split
    into little-endian uint32 words, the words are hash-mixed into a 4-word
    pool, and two output words are drawn from the pool and joined low word
    first.  Memoised on ``entropy``: with the default paired seed policy a
    whole sweep shares a handful of entropies.
    """
    words: list[int] = []
    for value in entropy:
        if value < 0:
            raise ValueError(f"entropy must be non-negative, got {value}")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state_const = _INIT_B
    state: list[int] = []
    for data in pool[:2]:
        data ^= state_const
        state_const = (state_const * _MULT_B) & _MASK32
        data = (data * state_const) & _MASK32
        state.append(data ^ (data >> _XSHIFT))
    return state[0] | state[1] << 32


#: ``stable_hash({})`` — the ``vary_with`` contribution of the common
#: fully-paired policy, precomputed so per-trial seed derivation skips the
#: JSON/sha round trip (the derived seeds are unchanged).
_EMPTY_VARIED_HASH = int(stable_hash({}), 16)


@dataclass(frozen=True)
class SeedPolicy:
    """How per-trial seeds are derived.

    Parameters
    ----------
    base_seed:
        Root seed of the whole sweep.
    replicates:
        Number of independent repetitions of every axis combination.
    vary_with:
        Axis names whose values additionally enter the seed derivation.  By
        default the seed depends only on ``(base_seed, replicate)``, which
        gives a *paired* design: trials that differ only in swept parameters
        (say, word length) see the same random channels, so differences in
        their metrics are attributable to the parameters, not to noise.  Add
        an axis here to give each of its values an independent random stream.
    """

    base_seed: int = 0
    replicates: int = 1
    vary_with: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")

    def trial_seed(self, replicate: int, params: Mapping[str, ParamValue]) -> int:
        """Deterministic 63-bit seed for one trial.

        Derived through NumPy's ``SeedSequence`` algorithm
        (:func:`seed_sequence_uint64`) from
        ``(base_seed, replicate)`` plus a stable hash of the ``vary_with``
        axis values, so it depends only on the policy — never on expansion
        order, process boundaries or ``PYTHONHASHSEED``.
        """
        if self.vary_with:
            varied = {name: params[name] for name in self.vary_with if name in params}
            varied_hash = int(stable_hash(varied), 16)
        else:
            varied_hash = _EMPTY_VARIED_HASH
        entropy = (
            SEED_SCHEME_VERSION,
            int(self.base_seed),
            int(replicate),
            varied_hash,
        )
        return seed_sequence_uint64(entropy) % (2**63 - 1)

    def to_dict(self) -> dict[str, Any]:
        return {
            "base_seed": self.base_seed,
            "replicates": self.replicates,
            "vary_with": list(self.vary_with),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SeedPolicy":
        return cls(
            base_seed=int(data.get("base_seed", 0)),
            replicates=int(data.get("replicates", 1)),
            vary_with=tuple(data.get("vary_with", ())),
        )


@dataclass(frozen=True)
class TrialPoint:
    """One fully-resolved point of a sweep: parameters plus a derived seed."""

    index: int
    replicate: int
    seed: int
    params: Mapping[str, ParamValue]


@dataclass(frozen=True)
class SweepSpec:
    """A declarative description of one parameter sweep.

    Parameters
    ----------
    scenario:
        Registry name of the scenario whose trial function runs each point.
    grid:
        Cartesian-product axes: every combination of values runs.
    zipped:
        Co-varying axes: all must have the same length; row ``i`` of every
        zipped axis runs together.
    base:
        Fixed parameters shared by every trial.
    seed:
        The :class:`SeedPolicy`.
    """

    scenario: str
    grid: Mapping[str, tuple[ParamValue, ...]] = field(default_factory=dict)
    zipped: Mapping[str, tuple[ParamValue, ...]] = field(default_factory=dict)
    base: Mapping[str, ParamValue] = field(default_factory=dict)
    seed: SeedPolicy = field(default_factory=SeedPolicy)

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", {k: tuple(v) for k, v in self.grid.items()})
        object.__setattr__(self, "zipped", {k: tuple(v) for k, v in self.zipped.items()})
        object.__setattr__(self, "base", dict(self.base))
        for name, values in self.grid.items():
            if len(values) == 0:
                raise ValueError(f"grid axis {name!r} has no values")
        lengths = {name: len(values) for name, values in self.zipped.items()}
        if lengths and len(set(lengths.values())) > 1:
            raise ValueError(f"zipped axes must have equal lengths, got {lengths}")
        if lengths and 0 in lengths.values():
            raise ValueError("zipped axes have no values")
        groups = [set(self.grid), set(self.zipped), set(self.base)]
        for i, a in enumerate(groups):
            for b in groups[i + 1:]:
                overlap = a & b
                if overlap:
                    raise ValueError(
                        f"parameter(s) {sorted(overlap)} appear in more than one of "
                        "grid / zipped / base"
                    )

    # ------------------------------------------------------------------ #
    # expansion
    # ------------------------------------------------------------------ #
    @property
    def num_trials(self) -> int:
        """Total number of trial points the spec expands to."""
        count = self.seed.replicates
        for values in self.grid.values():
            count *= len(values)
        if self.zipped:
            count *= len(next(iter(self.zipped.values())))
        return count

    def iter_trials(self) -> Iterator[TrialPoint]:
        """Yield the trial points in their canonical (deterministic) order.

        The order is: grid axes in declaration order (outer product), then
        zipped rows, then replicates — so appending a replicate or a grid
        value extends the sequence without reshuffling existing trials.
        """
        grid_names = list(self.grid)
        grid_values = [self.grid[name] for name in grid_names]
        zip_names = list(self.zipped)
        zip_rows: Sequence[tuple[ParamValue, ...]]
        if zip_names:
            zip_rows = list(zip(*(self.zipped[name] for name in zip_names)))
        else:
            zip_rows = [()]

        index = 0
        for combo in itertools.product(*grid_values):
            for row in zip_rows:
                params = dict(self.base)
                params.update(zip(grid_names, combo))
                params.update(zip(zip_names, row))
                for replicate in range(self.seed.replicates):
                    yield TrialPoint(
                        index=index,
                        replicate=replicate,
                        seed=self.seed.trial_seed(replicate, params),
                        params=dict(params),
                    )
                    index += 1

    def expand(self) -> list[TrialPoint]:
        """All trial points as a list (see :meth:`iter_trials`)."""
        return list(self.iter_trials())

    # ------------------------------------------------------------------ #
    # overrides (CLI --set, programmatic ports)
    # ------------------------------------------------------------------ #
    def with_axis(self, name: str, values: Sequence[ParamValue]) -> "SweepSpec":
        """A copy with grid axis ``name`` set to ``values``.

        If ``name`` currently lives in ``base`` it is promoted to a grid
        axis; a single-value axis is folded back into ``base`` so the seed
        pairing and record layout stay tidy.
        """
        if name in self.zipped:
            raise ValueError(
                f"{name!r} is a zipped axis; zipped axes must be replaced together "
                "via with_zipped()"
            )
        values = tuple(values)
        if not values:
            raise ValueError(f"axis {name!r} needs at least one value")
        grid = {k: v for k, v in self.grid.items() if k != name}
        base = {k: v for k, v in self.base.items() if k != name}
        if len(values) == 1:
            base[name] = values[0]
        else:
            grid[name] = values
        return replace(self, grid=grid, base=base)

    def with_zipped(self, axes: Mapping[str, Sequence[ParamValue]]) -> "SweepSpec":
        """A copy with the zipped axes replaced wholesale by ``axes``."""
        return replace(self, zipped={k: tuple(v) for k, v in axes.items()})

    def select_zipped(self, name: str, values: Sequence[ParamValue]) -> "SweepSpec":
        """A copy keeping only the zip rows where axis ``name`` takes ``values``.

        Because zipped axes are paired data, overriding one in isolation is
        meaningless; selecting rows by one axis's values keeps the pairing
        intact (e.g. pick two platforms and their energies travel along).
        Rows follow the order of ``values``; unknown values are rejected.
        """
        if name not in self.zipped:
            raise ValueError(f"{name!r} is not a zipped axis of this spec")
        axis = self.zipped[name]
        rows: list[int] = []
        for value in values:
            matches = [i for i, existing in enumerate(axis) if existing == value]
            if not matches:
                raise ValueError(
                    f"{value!r} is not a value of zipped axis {name!r}; "
                    f"available: {', '.join(repr(v) for v in axis)}"
                )
            rows.extend(matches)
        return replace(
            self,
            zipped={k: tuple(v[i] for i in rows) for k, v in self.zipped.items()},
        )

    def with_base(self, **params: ParamValue) -> "SweepSpec":
        """A copy with ``params`` merged into the fixed base parameters."""
        base = dict(self.base)
        base.update(params)
        grid = {k: v for k, v in self.grid.items() if k not in params}
        return replace(self, grid=grid, base=base)

    def with_seed(
        self,
        base_seed: int | None = None,
        replicates: int | None = None,
        vary_with: tuple[str, ...] | None = None,
    ) -> "SweepSpec":
        """A copy with parts of the seed policy replaced."""
        return replace(
            self,
            seed=SeedPolicy(
                base_seed=self.seed.base_seed if base_seed is None else base_seed,
                replicates=self.seed.replicates if replicates is None else replicates,
                vary_with=self.seed.vary_with if vary_with is None else vary_with,
            ),
        )

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "grid": {name: list(values) for name, values in self.grid.items()},
            "zipped": {name: list(values) for name, values in self.zipped.items()},
            "base": dict(self.base),
            "seed": self.seed.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        return cls(
            scenario=data["scenario"],
            grid={name: tuple(values) for name, values in data.get("grid", {}).items()},
            zipped={name: tuple(values) for name, values in data.get("zipped", {}).items()},
            base=dict(data.get("base", {})),
            seed=SeedPolicy.from_dict(data.get("seed", {})),
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(json.loads(text))
