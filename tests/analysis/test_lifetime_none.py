"""`lifetime_days is None` (censored deployments) must be handled explicitly.

Mirrors the PR 2 NaN-SER fix: a deployment that outlives the simulation
horizon has no death time, so its lifetime is ``None`` — downstream
aggregation must treat that as a censored observation, never as 0 days.
Sweep records carry censored lifetimes and zero-packet delivery ratios as
``None``; ``SweepResult.group_mean`` skips them and the ``lifetime
--trials`` table renders a platform without deaths as ``> horizon``.
"""

from __future__ import annotations

import math

import pytest

from repro.cli import _lifetime_trials_spec, _lifetime_trials_table, build_parser, main
from repro.experiments.runner import SweepResult, run_sweep
from repro.network.simulator import NetworkSimulationResult


def result(first_death_time_s, generated=10, delivered=10) -> NetworkSimulationResult:
    return NetworkSimulationResult(
        first_death_time_s=first_death_time_s,
        simulated_time_s=86_400.0,
        packets_generated=generated,
        packets_delivered=delivered,
        node_reports={},
        node_alive={},
    )


def trials_spec(*argv: str):
    return _lifetime_trials_spec(build_parser().parse_args(["lifetime", *argv]))


def sweep_of(*records: tuple[float | None, float | None]) -> SweepResult:
    """A one-platform ``lifetime --trials`` sweep with the given
    (lifetime_days, delivery_ratio) records."""
    spec = trials_spec("--trials", str(len(records))).with_zipped(
        {"platform": ("X",), "energy_uj": (1.0,)}
    )
    return SweepResult(spec=spec, records=[
        {"platform": "X", "lifetime_days": days, "delivery_ratio": ratio}
        for days, ratio in records
    ])


def table_row(table: str, platform: str = "X") -> list[str]:
    (row,) = [line for line in table.splitlines() if line.startswith(platform)]
    return [cell.strip() for cell in row.split("|")]


class TestLifetimeDaysNone:
    def test_no_death_yields_none_not_zero(self):
        censored = result(None)
        assert censored.first_death_time_s is None
        assert censored.lifetime_days is None  # explicitly not 0.0

    def test_death_at_time_zero_is_zero_days_not_none(self):
        """A death at t=0 is a real (zero) lifetime; only no-death is None."""
        instant = result(0.0)
        assert instant.lifetime_days == 0.0
        assert instant.lifetime_days is not None


class TestCensoredAggregation:
    def test_all_censored_renders_beyond_horizon(self):
        sweep = sweep_of((None, 1.0), (None, 1.0))
        assert "X" not in sweep.group_mean(by="platform", metric="lifetime_days")
        assert table_row(_lifetime_trials_table(sweep)) == ["X", "> horizon", "0/2", "1"]

    def test_censored_trials_excluded_from_mean(self):
        sweep = sweep_of((1.0, 1.0), (None, 1.0), (3.0, 1.0))
        # mean over the two deaths only: (1 + 3) / 2 days, not (1 + 0 + 3) / 3
        assert sweep.group_mean(by="platform", metric="lifetime_days") == {"X": 2.0}
        assert table_row(_lifetime_trials_table(sweep))[1:3] == ["2", "2/3"]

    def test_zero_day_death_still_counts_as_death(self):
        sweep = sweep_of((0.0, 1.0), (None, 1.0))
        assert sweep.group_mean(by="platform", metric="lifetime_days") == {"X": 0.0}
        assert table_row(_lifetime_trials_table(sweep))[1:3] == ["0", "1/2"]

    def test_none_ratios_excluded_from_mean(self):
        """Zero-packet trials have an undefined (NaN) delivery ratio, stored
        as None; the mean skips them instead of poisoning the aggregate."""
        sweep = sweep_of((None, 0.5), (None, None))
        assert sweep.group_mean(by="platform", metric="delivery_ratio") == {"X": 0.5}
        assert table_row(_lifetime_trials_table(sweep))[3] == "0.5"

    def test_all_none_ratios_render_nan(self):
        sweep = sweep_of((None, None))
        assert sweep.group_mean(by="platform", metric="delivery_ratio") == {}
        assert table_row(_lifetime_trials_table(sweep))[3] == "nan"

    def test_censored_platforms_sort_last(self):
        spec = trials_spec("--trials", "1").with_zipped(
            {"platform": ("A", "B", "C"), "energy_uj": (1.0, 2.0, 3.0)}
        )
        sweep = SweepResult(spec=spec, records=[
            {"platform": "A", "lifetime_days": None, "delivery_ratio": 1.0},
            {"platform": "B", "lifetime_days": 5.0, "delivery_ratio": 1.0},
            {"platform": "C", "lifetime_days": 2.0, "delivery_ratio": 1.0},
        ])
        rows = [line.split("|")[0].strip() for line in
                _lifetime_trials_table(sweep).splitlines()[3:]]
        assert rows == ["C", "B", "A"]


class TestSimulatedSweepCensoring:
    def test_huge_battery_reports_censored_not_zero(self):
        spec = trials_spec(
            "--trials", "2", "--grid", "2", "--battery-kj", "1e6",
            "--report-interval-s", "600",
        ).with_zipped({"platform": ("FPGA",), "energy_uj": (9.5,)}).with_base(max_days=0.2)
        sweep = run_sweep(spec)
        assert [r["lifetime_days"] for r in sweep.records] == [None, None]
        assert sweep.group_mean(by="platform", metric="lifetime_days") == {}
        assert sweep.group_mean(by="platform", metric="delivery_ratio")["FPGA"] == (
            pytest.approx(1.0)
        )

    def test_tiny_battery_reports_deaths(self):
        spec = trials_spec(
            "--trials", "2", "--grid", "3", "--battery-kj", "0.1",
            "--report-interval-s", "30",
        ).with_zipped({"platform": ("MicroBlaze",), "energy_uj": (2000.40,)}).with_base(
            max_days=2.0
        )
        sweep = run_sweep(spec)
        assert all(r["lifetime_days"] is not None for r in sweep.records)
        assert sweep.group_mean(by="platform", metric="lifetime_days")["MicroBlaze"] > 0.0


class TestCliRendering:
    def test_censored_platform_rendered_as_beyond_horizon(self, capsys):
        assert main([
            "lifetime", "--trials", "1", "--grid", "2",
            "--battery-kj", "100000", "--report-interval-s", "600",
        ]) == 0
        out = capsys.readouterr().out
        assert "> horizon" in out
        assert "0/1" in out

    def test_contention_flags_drive_the_simulated_study(self, capsys):
        """--mac/--protocol/--drift-* plumb through to the network stack;
        under contention the delivery column drops below the perfect 1.000."""
        assert main([
            "lifetime", "--trials", "1", "--grid", "3",
            "--battery-kj", "0.15", "--report-interval-s", "30",
            "--mac", "csma", "--channel-load", "0.3", "--max-attempts", "3",
            "--protocol", "flooding", "--ttl", "3",
            "--drift-speed", "0.02", "--drift-epoch-s", "3600",
        ]) == 0
        out = capsys.readouterr().out
        assert "1/1" in out  # the tiny battery still dies
        rows = [
            line for line in out.splitlines()
            if "|" in line and "Platform" not in line
        ]
        ratios = [float(row.rsplit("|", 1)[1]) for row in rows]
        assert ratios and all(ratio < 1.0 for ratio in ratios)
        assert not math.isnan(sum(ratios))
