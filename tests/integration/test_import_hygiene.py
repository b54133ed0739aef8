"""Each ``repro`` process imports only what its subcommand runs.

The checks run in fresh interpreters, since what a process has imported
depends on everything imported before it.  scipy backs only
:mod:`repro.dsp.passband`, so a CLI start, ``repro scenarios`` and a
hardware-only sweep load none of it, and every registered scenario runs
with scipy blocked outright.  networkx is a test-only oracle: every
network sweep runs with it blocked and writes the same records.  numpy backs
only the engines, so the control plane runs with numpy blocked outright:
``repro scenarios``, the closed-form ``platform-energy`` sweep, a fully
cached resume of every scenario, and the trace and warehouse commands.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import scenario_names

SRC = str(Path(__file__).resolve().parents[2] / "src")

HEAVY = ("numpy", "scipy", "networkx")

PACKAGES = (
    "repro", "repro.analysis", "repro.channel", "repro.core", "repro.core.ipcore",
    "repro.dsp", "repro.dsp.modulation", "repro.experiments", "repro.fixedpoint",
    "repro.hardware", "repro.modem", "repro.network", "repro.service",
    "repro.telemetry", "repro.utils", "repro.warehouse",
)


def _block(package: str) -> str:
    """Guard code refusing every ``package`` import, as on a machine without it."""
    return f'''
class Block:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == {package!r}:
            raise ModuleNotFoundError(f"No module named {{name!r}}", name=name)
sys.meta_path.insert(0, Block())
'''


BLOCK_SCIPY = _block("scipy")
BLOCK_NUMPY = _block("numpy")
BLOCK_NETWORKX = _block("networkx")

#: ``repro <argv>`` in-process; writes which HEAVY modules it loaded to argv[1].
RUN_CLI = '''
import json, sys
{block}
from repro.cli import main
try:
    code = main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w") as handle:
        json.dump([name for name in {heavy!r} if name in sys.modules], handle)
sys.exit(code)
'''


def _python(code: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def _repro(tmp_path: Path, *argv: str, block: str = "") -> list[str]:
    """Run ``repro argv`` in a fresh process, after the ``block`` guard code.

    Returns the HEAVY modules the process loaded.
    """
    loaded = tmp_path / "loaded.json"
    done = _python(RUN_CLI.format(block=block, heavy=HEAVY), str(loaded), *argv, cwd=tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(loaded.read_text())


def test_importing_the_cli_loads_no_numpy_scipy_or_networkx(tmp_path):
    done = _python(
        "import json, sys, repro.cli\n"
        f"print(json.dumps([name for name in {HEAVY!r} if name in sys.modules]))",
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


@pytest.mark.parametrize("argv", [
    ["scenarios"],
    ["sweep", "platform-energy", "--no-cache"],
], ids=["scenarios", "sweep-platform-energy"])
def test_command_loads_neither_scipy_nor_networkx(argv, tmp_path):
    loaded = _repro(tmp_path, *argv)
    assert "scipy" not in loaded and "networkx" not in loaded


def test_help_runs_without_scipy(tmp_path):
    assert "scipy" not in _repro(tmp_path, "--help", block=BLOCK_SCIPY)


@pytest.mark.parametrize("scenario", scenario_names())
def test_default_sweep_runs_without_scipy(scenario, tmp_path):
    loaded = _repro(tmp_path, "sweep", scenario, "--no-cache", block=BLOCK_SCIPY)
    assert "scipy" not in loaded
    assert (tmp_path / "results" / "sweeps" / scenario / "results.jsonl").is_file()


@pytest.mark.parametrize(
    "scenario", [name for name in scenario_names() if name.startswith("network-")]
)
def test_network_sweep_runs_without_networkx(scenario, tmp_path):
    """A networkx-free miss writes the records an unrestricted run writes."""
    free, plain = tmp_path / "free", tmp_path / "plain"
    loaded = _repro(tmp_path, "sweep", scenario, "--no-cache", "--output", str(free),
                    block=BLOCK_NETWORKX)
    assert "networkx" not in loaded
    _repro(tmp_path, "sweep", scenario, "--no-cache", "--output", str(plain))
    assert (free / "results.jsonl").read_bytes() == (plain / "results.jsonl").read_bytes()


@pytest.mark.parametrize("scenario", scenario_names())
def test_cached_resume_runs_without_numpy(scenario, tmp_path):
    """A scipy-free miss fills the default cache; its 100%-hit resume needs no numpy."""
    _repro(tmp_path, "sweep", scenario, block=BLOCK_SCIPY)
    miss = tmp_path / "results" / "sweeps" / scenario
    hit = tmp_path / "hit"
    _repro(tmp_path, "sweep", scenario, "--output", str(hit), block=BLOCK_NUMPY)
    assert (hit / "results.jsonl").read_bytes() == (miss / "results.jsonl").read_bytes()
    stats = json.loads((hit / "manifest.json").read_text())["stats"]
    assert stats["executed"] == 0 and stats["cache_hits"] == stats["num_trials"] > 0


def test_scenario_list_runs_without_numpy(tmp_path):
    _repro(tmp_path, "scenarios", block=BLOCK_NUMPY)


def test_platform_energy_sweep_and_its_readers_run_without_numpy(tmp_path):
    """The closed-form sweep, then trace, ingest, query and compare over it."""
    first, second = tmp_path / "first", tmp_path / "second"
    db = str(tmp_path / "warehouse.sqlite")
    for argv in (
        ["sweep", "platform-energy", "--no-cache", "--trace", "--output", str(first)],
        ["sweep", "platform-energy", "--no-cache", "--output", str(second)],
        ["trace", str(first / "trace.jsonl"), "--check"],
        ["ingest", str(first), str(second), "--db", db],
        ["query", "--db", db, "--scenario", "platform-energy"],
        ["compare", "1", "2", "--db", db, "--fail-on-regression"],
    ):
        _repro(tmp_path, *argv, block=BLOCK_NUMPY)


def test_blocking_scipy_does_block_it(tmp_path):
    """The guard the scipy-free runs rely on: a passband import really fails."""
    done = _python(f"import sys\n{BLOCK_SCIPY}\nimport repro.dsp.passband", cwd=tmp_path)
    assert done.returncode != 0
    assert "No module named 'scipy" in done.stderr


def test_blocking_networkx_does_block_it(tmp_path):
    """The guard the networkx-free runs rely on: a networkx import really fails."""
    done = _python(f"import sys\n{BLOCK_NETWORKX}\nimport networkx", cwd=tmp_path)
    assert done.returncode != 0
    assert "No module named 'networkx" in done.stderr


def test_blocking_numpy_does_block_it(tmp_path):
    """The guard the numpy-free runs rely on: an engine import really fails."""
    done = _python(f"import sys\n{BLOCK_NUMPY}\nimport repro.utils.rng", cwd=tmp_path)
    assert done.returncode != 0
    assert "No module named 'numpy" in done.stderr


def test_every_export_resolves_in_a_fresh_process(tmp_path):
    """Every ``__all__`` name resolves and is listed by ``dir()``."""
    done = _python(
        "import importlib, sys\n"
        f"for package in {PACKAGES!r}:\n"
        "    module = importlib.import_module(package)\n"
        "    for name in module.__all__:\n"
        "        getattr(module, name)\n"
        "        assert name in dir(module), (package, name)\n"
        "from repro.dsp import upconvert\n"
        "import repro.dsp\n"
        "assert repro.dsp.upconvert is upconvert\n"
        "print('ok')",
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


@pytest.mark.parametrize("package, name", [
    ("repro.core", "matching_pursuit"),
    ("repro.dsp", "matched_filter"),
    ("repro.fixedpoint", "quantize"),
])
def test_export_named_like_its_submodule_stays_the_export(package, name, tmp_path):
    """Importing the submodule first must not turn the package's export into it."""
    done = _python(
        "import importlib\n"
        f"submodule = importlib.import_module('{package}.{name}')\n"
        f"from {package} import {name}\n"
        f"assert {name} is submodule.{name}, {name}\n",
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr


def test_unknown_attribute_is_an_attribute_error():
    import repro.analysis

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        repro.analysis.no_such_name
    assert not hasattr(repro.analysis, "__no_such_dunder__")
