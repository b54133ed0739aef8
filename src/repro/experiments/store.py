"""Tidy on-disk results for sweeps: JSONL, CSV and a manifest.

Every sweep writes three artefacts into its output directory:

* ``results.jsonl`` — one tidy record per line, one line per trial (the
  machine-readable source of truth; append-friendly);
* ``results.csv`` — the same records as CSV (via
  :func:`repro.analysis.export.write_csv`, so the format matches the rest of
  the analysis exports and loads straight into pandas / a spreadsheet);
* ``manifest.json`` — the sweep spec plus execution stats, so a results
  directory is self-describing and the sweep can be re-run verbatim.

Records are flat dicts: identity columns (scenario, trial index, replicate,
seed), then the trial parameters, then the measured metrics.  Missing keys
(scenarios whose metrics differ by parameter) become empty CSV cells.

All three artefacts are written atomically (same-directory temp file +
``os.replace``, via :mod:`repro.utils.atomic`): a sweep killed mid-write —
including ``kill -9`` — leaves either the previous complete file or the new
complete file, never a torn ``results.jsonl`` or half a ``manifest.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.analysis.export import write_csv
from repro.telemetry.tracing import span
from repro.utils.atomic import atomic_writer

__all__ = [
    "ResultStore", "write_jsonl", "read_jsonl", "iter_jsonl", "tidy_headers",
    "write_table_and_manifest",
]

#: Columns that lead every CSV, in this order, when present in the records.
IDENTITY_COLUMNS = ("scenario", "trial_index", "replicate", "seed")


def write_jsonl(path: Path | str, records: Iterable[Mapping[str, Any]]) -> Path:
    """Atomically write records as JSON Lines (creating parent directories).

    The records stream into a temp file that replaces ``path`` in one rename,
    so an interrupted write (or a record that fails to serialise mid-stream)
    never leaves a truncated results file behind.
    """

    def _write(handle: Any) -> None:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    return atomic_writer(path, _write)


def read_jsonl(path: Path | str) -> list[dict[str, Any]]:
    """Load a JSONL results file back into a list of records."""
    return list(iter_jsonl(path))


def iter_jsonl(path: Path | str) -> Iterator[dict[str, Any]]:
    """Stream a JSONL results file one record at a time (O(1) memory).

    The streaming counterpart of :func:`read_jsonl`: the online aggregators in
    :mod:`repro.analysis.intervals` and the segment merge in
    :mod:`repro.experiments.segments` consume this so a 10^7-trial result
    file never has to fit in memory.
    """
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def write_table_and_manifest(
    out: Path,
    basename: str,
    headers: Sequence[str],
    records: Iterable[Mapping[str, Any]],
    spec: Mapping[str, Any] | None,
    stats: Mapping[str, Any] | None,
) -> dict[str, Path]:
    """Write ``<basename>.csv`` over ``headers``, plus ``manifest.json`` when
    ``spec`` or ``stats`` is given; return the paths by kind.

    ``records`` is consumed once, row by row, so a streamed re-read of a
    JSONL file keeps memory flat.  Both files are written atomically.
    """
    written = {"csv": write_csv(
        out / f"{basename}.csv",
        headers,
        ([record.get(column, "") for column in headers] for record in records),
    )}
    if spec is not None or stats is not None:
        manifest = {"spec": dict(spec or {}), "stats": dict(stats or {})}
        written["manifest"] = atomic_writer(
            out / "manifest.json",
            lambda handle: json.dump(manifest, handle, indent=2, sort_keys=True),
        )
    return written


def tidy_headers(records: Sequence[Mapping[str, Any]]) -> list[str]:
    """Column order for a set of tidy records: identity first, rest sorted."""
    keys: set[str] = set()
    for record in records:
        keys.update(record)
    leading = [column for column in IDENTITY_COLUMNS if column in keys]
    rest = sorted(keys - set(leading))
    return leading + rest


@dataclass
class ResultStore:
    """Writes one sweep's records and manifest under ``output_dir``."""

    output_dir: Path | str

    def __post_init__(self) -> None:
        self.output_dir = Path(self.output_dir)

    def write(
        self,
        records: Iterable[Mapping[str, Any]],
        spec: Mapping[str, Any] | None = None,
        stats: Mapping[str, Any] | None = None,
        basename: str = "results",
    ) -> dict[str, Path]:
        """Write JSONL + CSV (+ manifest when spec/stats given); return paths."""
        # materialise exactly once: a one-shot iterable (generator) would be
        # consumed by the JSONL writer, leaving the header scan and the CSV
        # writer an empty stream — JSONL full, CSV silently empty
        records = [record for record in records]
        with span("store.write", records=len(records)):
            out = Path(self.output_dir)
            written = {"jsonl": write_jsonl(out / f"{basename}.jsonl", records)}
            written.update(write_table_and_manifest(
                out, basename, tidy_headers(records), records, spec, stats
            ))
        return written
