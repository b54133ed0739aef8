"""The committed perf ledgers pass ``benchmarks/compare.py``'s ledger check.

``python benchmarks/compare.py BENCH_<pr>.json`` compares each workload's
end-to-end medians, change against parent, with the bounds in
``BENCHMARK.json``; a median pushed past its bound must fail the check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
COMPARE = ROOT / "benchmarks" / "compare.py"
LEDGERS = sorted(ROOT.glob("BENCH_*.json"))


def _compare(ledger: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(COMPARE), str(ledger)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("ledger", LEDGERS, ids=[path.name for path in LEDGERS])
def test_committed_ledger_is_within_bounds(ledger):
    done = _compare(ledger)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "end-to-end medians within their bounds" in done.stdout


@pytest.mark.parametrize("workload, metric, factor, shift", [
    ("cli-sweep", "op_p50_ref", 1.30, "+30.0%"),         # lower is better
    ("service-mix", "trials_per_ref", 0.70, "-30.0%"),   # higher is better
])
def test_a_median_past_its_bound_fails(workload, metric, factor, shift, tmp_path):
    """A change median 30% worse than the parent's breaches the 25% bound."""
    ledger = json.loads((ROOT / "BENCH_18.json").read_text())
    medians = ledger["end_to_end"][workload]["metrics"][metric]
    medians["change"]["median"] = medians["parent"]["median"] * factor
    breached = tmp_path / "BENCH_breach.json"
    breached.write_text(json.dumps(ledger))
    done = _compare(breached)
    assert done.returncode == 1, done.stdout + done.stderr
    assert f"FAIL {workload} {metric}: {shift}" in done.stdout
