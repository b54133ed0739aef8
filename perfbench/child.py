"""Processes the benchmark launches to run the program in-process.

    child.py cli SPANS -- <repro arguments>    a CLI run with layer spans
    child.py serve SPANS -- <repro arguments>  a daemon with layer spans
    child.py reference SPECS DIGESTS           records digests, one per spec

Span files hold ``{"start": ..., "end": ..., "spans": [...]}``, the first
and last moments the script saw.
"""

from __future__ import annotations

import json
import sys
import time

START = time.perf_counter()

from pathlib import Path  # noqa: E402  (START is taken before any further import)

from harness import layers  # noqa: E402
from harness.checks import digest  # noqa: E402
from harness.spans import SpanRecorder  # noqa: E402


def _write_spans(path: str, recorder: SpanRecorder) -> None:
    Path(path).write_text(json.dumps(
        {"start": START, "end": time.perf_counter(), "spans": recorder.spans}
    ))


def run_cli(spans_path: str, argv: list[str], daemon: bool) -> int:
    """``repro`` with its layers wrapped; spans go to ``spans_path`` at exit.

    A daemon outlives every op, so its import and main spans are not
    recorded: they would cover the client's whole run.
    """
    recorder = SpanRecorder()
    try:
        import repro.cli
        if not daemon:
            recorder.spans.append({"name": "cli.import", "id": "import", "parent": None,
                                   "start": START, "end": time.perf_counter(), "attrs": {}})
        layers.install(recorder)
        if daemon:
            return repro.cli.main(argv)
        with recorder.span("cli.main"):
            return repro.cli.main(argv)
    finally:
        recorder.restore()
        _write_spans(spans_path, recorder)


def run_reference(specs_path: str, digests_path: str) -> int:
    """Digest the records ``run_sweep`` gives in-process for each spec."""
    from repro.experiments import SweepSpec, run_sweep

    specs = json.loads(Path(specs_path).read_text())
    digests = [digest(run_sweep(SweepSpec.from_dict(spec), jobs=1, cache=None).records)
               for spec in specs]
    Path(digests_path).write_text(json.dumps(digests))
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] in (["cli"], ["serve"]) and len(argv) >= 3 and argv[2] == "--":
        return run_cli(argv[1], argv[3:], daemon=argv[0] == "serve")
    if argv[:1] == ["reference"] and len(argv) == 3:
        return run_reference(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
