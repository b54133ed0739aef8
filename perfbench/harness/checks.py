"""Output checks applied to every op; a failed check makes the op a failure."""

from __future__ import annotations

import hashlib
import json
from typing import Any, Sequence


def digest(records: Sequence[dict[str, Any]]) -> str:
    """A stable hash of records as JSON (key order and whitespace ignored)."""
    text = json.dumps(list(records), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_records(
    records: Sequence[dict[str, Any]],
    expected_count: int,
    reference: str | None = None,
) -> str | None:
    """``None`` when ``records`` are right, else why not.

    Right means exactly ``expected_count`` records and, when a ``reference``
    digest is given, the same records as the reference run.
    """
    if len(records) != expected_count:
        return f"{len(records)} records, expected {expected_count}"
    if reference is not None and digest(records) != reference:
        return "records differ from the reference run"
    return None


def parse_jsonl(data: bytes) -> list[dict[str, Any]]:
    return [json.loads(line) for line in data.splitlines() if line.strip()]


def parse_scenarios(listing: str) -> dict[str, int]:
    """Scenario name -> default trial count, from ``repro scenarios`` output."""
    rows: dict[str, int] = {}
    lines = listing.splitlines()
    separator = next(
        (i for i, line in enumerate(lines) if line.startswith("---")), None
    )
    if separator is None:
        raise ValueError("no table in the scenario listing")
    for line in lines[separator + 1:]:
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) >= 3 and cells[0]:
            rows[cells[0]] = int(cells[2])
    if not rows:
        raise ValueError("the scenario listing names no scenario")
    return rows
