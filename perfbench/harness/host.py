"""Processes, environment and the host noise sentinel shared by all workloads."""

from __future__ import annotations

import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from harness.stats import median

#: Thread pools pinned to one thread in every launched process.  On a 2-core
#: host, rounds of ``run_sweep`` over every default spec in one warm process
#: ran 8% faster with one BLAS thread, at 0.99 instead of 1.13 CPU seconds
#: per wall second, and varied less from run to run (CV 3.5% against 5.2%);
#: see plan.json.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent.parent
CHILD = BENCH_DIR / "child.py"


@dataclass
class Context:
    """Where a run happens and what it was asked to do."""

    root: Path
    workdir: Path
    seed: int
    seconds: float
    trace: bool
    env: dict[str, str] = field(default_factory=dict)
    #: Every process started and not yet reaped, so a failure can stop them.
    live: list[subprocess.Popen] = field(default_factory=list)

    def __post_init__(self) -> None:
        tmp = self.workdir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env.update({name: "1" for name in PINNED_THREADS})
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(tmp)
        self.env = env

    def spawn(self, argv: list[str], **kwargs: Any) -> subprocess.Popen:
        for stream in ("stdin", "stdout", "stderr"):
            kwargs.setdefault(stream, subprocess.DEVNULL)
        proc = subprocess.Popen(argv, env=self.env, cwd=self.workdir, **kwargs)
        self.live.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen, timeout: float) -> tuple[int, float, int]:
        """Wait for ``proc`` (killed after ``timeout``): (exit code, end time, max RSS kB).

        ``os.wait4`` blocks until the exit itself, so the end time is not
        rounded up to a polling interval.
        """
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return proc.returncode, end, usage.ru_maxrss

    def run(self, argv: list[str], timeout: float = 120.0, **kwargs: Any) -> "Finished":
        """Run one process to completion; time it from spawn to exit."""
        start = time.perf_counter()
        proc = self.spawn(argv, **kwargs)
        code, end, rss_kb = self.reap(proc, timeout)
        return Finished(code, start, end, rss_kb)

    def stop(self, proc: subprocess.Popen, timeout: float = 30.0) -> int:
        """Interrupt ``proc`` (a clean shutdown), kill it if it hangs, reap it."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc in self.live:
            self.live.remove(proc)
        return proc.returncode

    def stop_all(self) -> None:
        for proc in list(self.live):
            self.stop(proc, timeout=10.0)


@dataclass
class Finished:
    code: int
    start: float
    end: float
    rss_kb: int

    @property
    def wall(self) -> float:
        return self.end - self.start


def python() -> str:
    return sys.executable


# --------------------------------------------------------------------------- #
# noise sentinel and reference op
# --------------------------------------------------------------------------- #
#: The reference process: a fresh interpreter importing numpy, the same kind
#: of work (start-up, imports, extension loading) as most of a CLI op, and
#: none of it the program's.
REFERENCE_ARGV = ("-c", "import numpy")
#: Least time between two reference samples.
REFERENCE_EVERY_S = 1.0


class Sentinel:
    """Times the reference process between ops, at most once a second.

    The samples trace the host's speed through the run: a neighbour's burst
    shows as a slow sample.  An op taken after :meth:`tick` returned ``i``
    lies between samples ``i`` and ``i + 1`` (:meth:`close` takes the last
    one), and :meth:`reference` is their mean, the host's speed beside the
    op.  On a shared 2-core host the speed of this kind of work drifts by
    up to 40% within minutes; an op's time over its reference cancels most
    of that drift.
    """

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.samples: list[float] = []
        self._last = -float("inf")

    def tick(self) -> int:
        """Take a sample if :data:`REFERENCE_EVERY_S` has passed; the latest index."""
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            done = self.ctx.run([python(), *REFERENCE_ARGV])
            if done.code != 0:
                raise RuntimeError(f"reference process exited {done.code}")
            self.samples.append(done.wall)
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def close(self) -> None:
        """Take a sample now, so every op has one after it."""
        self._last = -float("inf")
        self.tick()

    def reference(self, index: int) -> float:
        return (self.samples[index] + self.samples[index + 1]) / 2.0


def cpu_seconds() -> float:
    """CPU seconds of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


# --------------------------------------------------------------------------- #
# interpreter and import probes (the cli layer)
# --------------------------------------------------------------------------- #
_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")
_PROBE = ("import sys, repro.cli; "
          "print(len(sys.modules), int('scipy' in sys.modules))")


def import_seconds(stderr: str) -> float:
    """Cumulative ``-X importtime`` seconds of the top-level ``repro`` imports.

    Everything ``repro`` pulls in (numpy, scipy, ...) nests under those
    entries; interpreter start-up imports are separate top-level entries.
    """
    entries = [(int(m.group(2)), len(m.group(3)), m.group(4))
               for m in _IMPORTTIME.finditer(stderr)]
    top = min((indent for _, indent, _ in entries), default=0)
    repro = [cumulative for cumulative, indent, module in entries
             if indent == top and module.split(".")[0] == "repro"]
    if not repro:
        raise ValueError("no repro import in the -X importtime output")
    return sum(repro) / 1e6


def cli_probes(ctx: Context) -> dict[str, float]:
    """``cli.*`` metrics: a bare interpreter (control) and ``import repro.cli``, 5 times each."""
    interp = [ctx.run([python(), "-c", "pass"]).wall for _ in range(5)]
    imports: list[float] = []
    loaded = scipy = 0
    for index in range(5):
        err = ctx.workdir / f"importtime-{index}.txt"
        out = ctx.workdir / f"modules-{index}.txt"
        with open(err, "w") as err_file, open(out, "w") as out_file:
            done = ctx.run([python(), "-X", "importtime", "-c", _PROBE],
                           stdout=out_file, stderr=err_file)
        if done.code != 0:
            raise RuntimeError(f"import probe exited {done.code}: {err.read_text()[-400:]}")
        imports.append(import_seconds(err.read_text()))
        loaded, scipy = (int(word) for word in out.read_text().split())
    return {
        "cli.interp_s": median(interp),
        "cli.import_s": median(imports),
        "cli.modules_loaded": float(loaded),
        "cli.scipy_loaded": float(scipy),
    }


@dataclass
class Outcome:
    """What one workload run measured.

    ``ops`` come from the untraced phase and give the end-to-end metrics;
    ``layers`` holds the per-layer metrics of the traced phase (trace runs).
    Each op is ``{"wall": s, "records": n, "error": str | None, ...}``.
    """

    setup: list[float]
    ops: list[dict[str, Any]]
    peak_rss_mb: float
    cpu_per_wall: float
    traced_ops: list[dict[str, Any]] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)


def keep_going(started: float, last: float, seconds: float) -> bool:
    """Closed-loop stop rule: start another unit only if it should end in time."""
    return time.perf_counter() - started + last <= seconds
