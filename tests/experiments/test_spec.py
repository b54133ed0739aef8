"""Tests for the declarative sweep specifications."""

from __future__ import annotations

import pytest

from repro.experiments import get_scenario
from repro.experiments.spec import (
    SEED_SCHEME_VERSION,
    SeedPolicy,
    SweepSpec,
    seed_sequence_uint64,
    stable_hash,
)


def make_spec(**overrides) -> SweepSpec:
    defaults = dict(
        scenario="demo",
        grid={"a": (1, 2), "b": ("x", "y", "z")},
        zipped={"p": ("p0", "p1"), "q": (10.0, 20.0)},
        base={"c": 7},
        seed=SeedPolicy(base_seed=3, replicates=2),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestExpansion:
    def test_num_trials_counts_grid_zip_and_replicates(self):
        spec = make_spec()
        assert spec.num_trials == 2 * 3 * 2 * 2  # grid a * grid b * zip rows * replicates
        assert len(spec.expand()) == spec.num_trials

    def test_indices_are_sequential_and_order_deterministic(self):
        trials_a = make_spec().expand()
        trials_b = make_spec().expand()
        assert [t.index for t in trials_a] == list(range(len(trials_a)))
        assert trials_a == trials_b

    def test_params_merge_base_grid_and_zip(self):
        first = make_spec().expand()[0]
        assert first.params == {"c": 7, "a": 1, "b": "x", "p": "p0", "q": 10.0}

    def test_zipped_axes_vary_together(self):
        pairs = {(t.params["p"], t.params["q"]) for t in make_spec().expand()}
        assert pairs == {("p0", 10.0), ("p1", 20.0)}

    def test_zip_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            make_spec(zipped={"p": ("p0",), "q": (1.0, 2.0)})

    def test_overlapping_parameter_names_rejected(self):
        with pytest.raises(ValueError, match="more than one"):
            make_spec(base={"a": 1})

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            make_spec(grid={"a": ()})


class TestSeedPolicy:
    def test_seeds_paired_across_axes_by_default(self):
        trials = make_spec().expand()
        by_replicate: dict[int, set[int]] = {}
        for trial in trials:
            by_replicate.setdefault(trial.replicate, set()).add(trial.seed)
        # all trials of one replicate share a seed; replicates differ
        assert all(len(seeds) == 1 for seeds in by_replicate.values())
        assert len({next(iter(s)) for s in by_replicate.values()}) == 2

    def test_vary_with_gives_axis_values_independent_streams(self):
        spec = make_spec(seed=SeedPolicy(base_seed=3, replicates=1, vary_with=("a",)))
        seeds_by_a: dict[int, set[int]] = {}
        for trial in spec.expand():
            seeds_by_a.setdefault(trial.params["a"], set()).add(trial.seed)
        assert len(seeds_by_a[1]) == 1 and len(seeds_by_a[2]) == 1
        assert seeds_by_a[1] != seeds_by_a[2]

    def test_seed_independent_of_expansion_order(self):
        policy = SeedPolicy(base_seed=5, replicates=1, vary_with=("w",))
        assert policy.trial_seed(0, {"w": 8, "other": 1}) == policy.trial_seed(0, {"w": 8})

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SeedPolicy(replicates=0)
        with pytest.raises(ValueError):
            SeedPolicy(base_seed=-1)


class TestSeedSequencePort:
    """The pure-Python ``SeedSequence`` must equal NumPy's, word for word."""

    def test_matches_numpy_over_trial_seed_entropies(self):
        hypothesis = pytest.importorskip("hypothesis")
        np = pytest.importorskip("numpy")
        st = hypothesis.strategies

        # the shape of trial_seed's entropy: scheme version, 63-bit base
        # seed, replicate, and a stable_hash of up to 256 bits
        @hypothesis.given(
            version=st.integers(0, 2**32 - 1),
            base_seed=st.integers(0, 2**63 - 1),
            replicate=st.integers(0, 2**20),
            varied_hash=st.integers(0, 2**256 - 1),
        )
        @hypothesis.example(
            version=SEED_SCHEME_VERSION, base_seed=0, replicate=0, varied_hash=0
        )
        @hypothesis.example(
            version=SEED_SCHEME_VERSION, base_seed=2**63 - 1, replicate=1,
            varied_hash=2**256 - 1,
        )
        def check(version, base_seed, replicate, varied_hash):
            entropy = (version, base_seed, replicate, varied_hash)
            expected = np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0]
            assert seed_sequence_uint64(entropy) == int(expected)

        check()

    def test_rejects_negative_entropy(self):
        with pytest.raises(ValueError, match="non-negative"):
            seed_sequence_uint64((4, -1))

    def test_trial_seeds_pinned(self):
        """Seeds derived before the port; a change re-draws every stream."""
        assert [t.seed for t in get_scenario("platform-energy").spec.expand()][:1] == [
            1153317701730015897
        ]
        modem = get_scenario("modem-ser-vs-snr").spec.with_seed(base_seed=7)
        assert [t.seed for t in modem.expand()][:3] == [
            2773153532677996236, 7686453536108465464, 2773153532677996236,
        ]
        policy = SeedPolicy(base_seed=3, replicates=2)
        assert [policy.trial_seed(r, {}) for r in (0, 1)] == [
            5421097854029659792, 7435264323945576305,
        ]
        varied = SeedPolicy(base_seed=5, vary_with=("w",))
        assert varied.trial_seed(0, {"w": 8}) == 5251329018667941701
        assert varied.trial_seed(2, {"w": "x"}) == 5273502103561043519
        assert SeedPolicy(base_seed=2**63 - 1).trial_seed(0, {}) == 4970876124332614945
        assert SeedPolicy(base_seed=2**32).trial_seed(2**40, {}) == 2270909840123056318


class TestOverrides:
    def test_with_axis_replaces_grid_axis(self):
        spec = make_spec().with_axis("a", (9, 10, 11))
        assert spec.grid["a"] == (9, 10, 11)
        assert spec.num_trials == 3 * 3 * 2 * 2

    def test_with_axis_single_value_folds_into_base(self):
        spec = make_spec().with_axis("a", (9,))
        assert "a" not in spec.grid
        assert spec.base["a"] == 9

    def test_with_axis_promotes_base_key(self):
        spec = make_spec().with_axis("c", (1, 2))
        assert spec.grid["c"] == (1, 2)
        assert "c" not in spec.base

    def test_with_axis_rejects_zipped_axis(self):
        with pytest.raises(ValueError, match="zipped"):
            make_spec().with_axis("p", ("p9",))

    def test_select_zipped_keeps_pairing_and_order(self):
        spec = make_spec().select_zipped("p", ("p1", "p0"))
        assert spec.zipped == {"p": ("p1", "p0"), "q": (20.0, 10.0)}

    def test_select_zipped_rejects_unknown_value(self):
        with pytest.raises(ValueError, match="not a value"):
            make_spec().select_zipped("p", ("p9",))
        with pytest.raises(ValueError, match="not a zipped axis"):
            make_spec().select_zipped("a", (1,))

    def test_with_seed_partial_override(self):
        spec = make_spec().with_seed(replicates=5)
        assert spec.seed.replicates == 5
        assert spec.seed.base_seed == 3


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = make_spec()
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_preserves_expansion(self):
        spec = make_spec()
        restored = SweepSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.expand() == spec.expand()

    def test_stable_hash_ignores_key_order(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})
