"""Sharded result storage: append-only JSONL segments with a streaming merge.

A fixed-count sweep can hand :class:`~repro.experiments.store.ResultStore`
its full record list; a 10^7-trial adaptive sweep cannot.  This module is the
out-of-core half of the storage layer:

* **segments** — completed waves of records are appended as immutable
  ``segments/segment-NNNNNN[-label].jsonl`` files, each written atomically
  (same-directory temp + ``os.replace``), each internally sorted by
  ``trial_index``.  A writer killed mid-wave — including ``kill -9`` — leaves
  either a complete segment or no segment, never a torn one, so every record
  that reached disk is trustworthy;
* **streaming merge** — :meth:`SegmentedResultStore.merge` k-way-merges the
  segments by ``trial_index`` (a ``heapq.merge`` over lazy per-file readers)
  into the canonical ``results.jsonl`` / ``results.csv`` / ``manifest.json``
  triple that the rest of the stack (warehouse ingest, ``repro compare``,
  plots) already understands.  Peak memory is O(segments), never O(records);
* **resume-safe dedup** — a crashed-and-resumed sweep re-executes its last
  incomplete wave and may flush trials that an earlier segment already holds.
  Trials are deterministic, so duplicates are byte-identical; the merge keeps
  the first copy of each ``trial_index`` and *verifies* the equality, turning
  any nondeterminism into a loud error instead of silent corruption.

The merged artefacts are byte-identical to what a fixed-count
``ResultStore.write`` of the same realised records would produce — pinned by
the segment tests — so every downstream consumer works unchanged.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import re
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro.experiments.store import iter_jsonl, tidy_headers, write_jsonl, write_table_and_manifest
from repro.telemetry.metrics import counter
from repro.telemetry.tracing import span
from repro.utils.atomic import atomic_writer

__all__ = [
    "SegmentedResultStore",
    "iter_merged_records",
    "run_fingerprint",
    "segment_files",
]

_SEGMENTS_FLUSHED = counter("segments.flushed")
_SEGMENT_RECORDS = counter("segments.records_flushed")

#: A segment file name: zero-padded sequence number plus an optional label.
_SEGMENT_FILE = re.compile(r"^segment-(\d{6})(?:-[A-Za-z0-9_.-]+)?\.jsonl$")

#: Run-identity sidecar inside ``segments/`` (never matches ``_SEGMENT_FILE``).
_META_FILE = "run.json"


def run_fingerprint(**parts: Mapping[str, Any] | None) -> str:
    """A stable content hash identifying one sweep run's inputs.

    Segments are only mergeable when every one came from the *same* run —
    the same spec and (for adaptive sweeps) the same stopping rule, since
    those determine the ceiling indexing.  Callers hash the run's defining
    dicts (``run_fingerprint(spec=..., adaptive=...)``) and hand the digest
    to :class:`SegmentedResultStore` so a reused output directory is caught
    up front instead of corrupting the merge.
    """
    payload = json.dumps(
        {name: dict(part or {}) for name, part in parts.items()}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def segment_files(directory: Path | str) -> list[Path]:
    """The segment files under ``directory``'s ``segments/`` dir, in order."""
    segments_dir = Path(directory) / "segments"
    if not segments_dir.is_dir():
        return []
    return sorted(
        path for path in segments_dir.iterdir() if _SEGMENT_FILE.match(path.name)
    )


def _ordered_records(path: Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(trial_index, record)`` pairs of one segment, lazily."""
    for record in iter_jsonl(path):
        yield (int(record.get("trial_index", 0)), record)


def iter_merged_records(directory: Path | str) -> Iterator[dict[str, Any]]:
    """Stream the deduplicated union of all segments in ``trial_index`` order.

    The k-way merge holds one record per segment in memory.  Duplicate trial
    indexes (a resumed sweep re-flushing its interrupted wave) must carry
    identical records — trials are deterministic — and collapse to one; a
    content mismatch raises ``ValueError`` rather than pick a winner silently.
    """
    streams = [_ordered_records(path) for path in segment_files(directory)]
    previous_index: int | None = None
    previous_record: dict[str, Any] | None = None
    for index, record in heapq.merge(*streams, key=lambda pair: pair[0]):
        if previous_index == index:
            if record != previous_record:
                raise ValueError(
                    f"segments disagree about trial_index {index}: "
                    "deterministic trials can never produce two different records"
                )
            continue
        previous_index, previous_record = index, record
        yield record


class SegmentedResultStore:
    """Append-only per-wave segments under ``output_dir`` plus their merge.

    Parameters
    ----------
    output_dir:
        The sweep's results directory; segments land in a ``segments/``
        subdirectory, the merged artefacts beside it.
    flush_trials:
        Advisory buffer size for callers that flush incrementally (the
        ``store=`` hook of :func:`~repro.experiments.runner.run_sweep` flushes
        a segment every this many completed trials).
    fingerprint:
        Optional run identity (see :func:`run_fingerprint`).  When given, it
        is recorded in ``segments/run.json`` before any segment is written;
        opening a directory whose surviving segments carry a *different*
        fingerprint raises ``ValueError`` — resuming the same run is safe,
        merging segments of two different sweeps never is.
    """

    def __init__(
        self,
        output_dir: Path | str,
        flush_trials: int = 4096,
        fingerprint: str | None = None,
    ) -> None:
        if flush_trials < 1:
            raise ValueError(f"flush_trials must be >= 1, got {flush_trials}")
        self.output_dir = Path(output_dir)
        self.flush_trials = flush_trials
        # resume-safe: continue numbering after any segments a previous
        # (possibly killed) run of the same output directory left behind
        existing = segment_files(self.output_dir)
        if fingerprint is not None:
            self._claim(fingerprint, bool(existing))
        self._sequence = (
            int(_SEGMENT_FILE.match(existing[-1].name).group(1)) + 1  # type: ignore[union-attr]
            if existing
            else 0
        )

    def _claim(self, fingerprint: str, has_segments: bool) -> None:
        """Record the run identity, refusing another run's leftover segments."""
        meta_path = self.segments_dir / _META_FILE
        recorded: str | None = None
        try:
            recorded = json.loads(meta_path.read_text()).get("fingerprint")
        except (OSError, ValueError):
            recorded = None
        if recorded == fingerprint:
            return
        if has_segments:
            raise ValueError(
                f"{self.segments_dir} holds segments from a different sweep "
                "(the spec or adaptive config changed); remove that directory "
                "or choose a fresh output directory"
            )
        # fresh directory (or stale sidecar with no data behind it): claim it
        # *before* the first segment so a killed run still identifies itself
        atomic_writer(
            meta_path,
            lambda handle: json.dump({"fingerprint": fingerprint}, handle),
        )

    @property
    def segments_dir(self) -> Path:
        """Where the segment files live."""
        return self.output_dir / "segments"

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def append(
        self, records: Iterable[Mapping[str, Any]], label: str | None = None
    ) -> Path | None:
        """Atomically write one new segment holding ``records``.

        Records are sorted by ``trial_index`` before writing (each segment
        must be internally ordered for the streaming merge); an empty batch
        writes nothing and returns ``None``.  The segment file appears
        complete or not at all — there is no partially-visible state.
        """
        batch = sorted(
            (dict(record) for record in records),
            key=lambda record: int(record.get("trial_index", 0)),
        )
        if not batch:
            return None
        name = f"segment-{self._sequence:06d}" + (f"-{label}" if label else "")
        self._sequence += 1
        written = write_jsonl(self.segments_dir / f"{name}.jsonl", batch)
        _SEGMENTS_FLUSHED.inc()
        _SEGMENT_RECORDS.inc(len(batch))
        return written

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def segments(self) -> list[Path]:
        """The segment files written so far, in sequence order."""
        return segment_files(self.output_dir)

    def iter_records(self) -> Iterator[dict[str, Any]]:
        """Stream the merged, deduplicated records in canonical trial order."""
        return iter_merged_records(self.output_dir)

    def record_count(self) -> int:
        """Number of distinct records across all segments (streamed, O(1) memory)."""
        return sum(1 for _ in self.iter_records())

    # ------------------------------------------------------------------ #
    # merge
    # ------------------------------------------------------------------ #
    def merge(
        self,
        spec: Mapping[str, Any] | None = None,
        stats: Mapping[str, Any] | None = None,
        basename: str = "results",
    ) -> dict[str, Path]:
        """Merge every segment into the canonical store artefacts; return paths.

        Two streaming passes, each atomic:

        1. k-way merge all segments into ``<basename>.jsonl`` while collecting
           the header set (identity columns first, rest sorted — the
           :func:`~repro.experiments.store.tidy_headers` order);
        2. re-stream the merged JSONL into ``<basename>.csv``.

        With ``spec``/``stats`` given, ``manifest.json`` is written too, so a
        merged segmented store is indistinguishable from a
        :class:`~repro.experiments.store.ResultStore` output — warehouse
        ingest, ``repro compare`` and the plots consume it unchanged.
        """
        with span("store.merge"):
            keys: set[str] = set()

            def _collect_keys() -> Iterator[dict[str, Any]]:
                for record in self.iter_records():
                    keys.update(record)
                    yield record

            jsonl_path = self.output_dir / f"{basename}.jsonl"
            written = {"jsonl": write_jsonl(jsonl_path, _collect_keys())}
            headers = tidy_headers([dict.fromkeys(keys)]) if keys else []
            written.update(write_table_and_manifest(
                self.output_dir, basename, headers, iter_jsonl(jsonl_path), spec, stats
            ))
        return written
