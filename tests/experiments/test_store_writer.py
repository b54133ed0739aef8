"""Unit tests for ``write_table_and_manifest``, the one CSV + manifest writer.

``ResultStore.write`` and ``SegmentedResultStore.merge`` both write their
``results.csv`` and ``manifest.json`` through it; the segment tests pin the
two stores to the same bytes, these pin the helper itself.
"""

from __future__ import annotations

import csv
import json

import pytest

from repro.experiments.store import ResultStore, tidy_headers, write_table_and_manifest

RECORDS = [
    {"scenario": "s", "trial_index": 0, "seed": 7, "ber": 0.5},
    {"scenario": "s", "trial_index": 1, "seed": 8, "energy_uj": 9.5},
]


def _rows(path):
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


def test_rows_follow_the_headers_and_missing_keys_are_empty_cells(tmp_path):
    headers = tidy_headers(RECORDS)
    written = write_table_and_manifest(tmp_path, "results", headers, RECORDS, None, None)
    assert written == {"csv": tmp_path / "results.csv"}
    assert _rows(written["csv"]) == [
        ["scenario", "trial_index", "seed", "ber", "energy_uj"],
        ["s", "0", "7", "0.5", ""],
        ["s", "1", "8", "", "9.5"],
    ]


def test_a_one_shot_generator_is_written_in_full(tmp_path):
    headers = tidy_headers(RECORDS)
    written = write_table_and_manifest(
        tmp_path, "streamed", headers, (record for record in RECORDS), None, None
    )
    assert len(_rows(written["csv"])) == 1 + len(RECORDS)


@pytest.mark.parametrize("spec, stats", [
    ({"scenario": "s"}, None),
    (None, {"trials": 2}),
    ({"scenario": "s"}, {"trials": 2}),
])
def test_manifest_holds_spec_and_stats_with_empty_defaults(spec, stats, tmp_path):
    written = write_table_and_manifest(tmp_path, "results", ["seed"], [], spec, stats)
    manifest = json.loads(written["manifest"].read_text())
    assert manifest == {"spec": spec or {}, "stats": stats or {}}


def test_no_manifest_without_spec_or_stats(tmp_path):
    write_table_and_manifest(tmp_path, "results", ["seed"], [], None, None)
    assert not (tmp_path / "manifest.json").exists()


def test_result_store_writes_its_table_through_the_helper(tmp_path):
    """ResultStore.write's CSV and manifest are the helper's, byte for byte."""
    spec, stats = {"scenario": "s"}, {"trials": 2}
    store_dir, helper_dir = tmp_path / "store", tmp_path / "helper"
    ResultStore(store_dir).write(iter(RECORDS), spec=spec, stats=stats)
    write_table_and_manifest(helper_dir, "results", tidy_headers(RECORDS), RECORDS, spec, stats)
    for name in ("results.csv", "manifest.json"):
        assert (store_dir / name).read_bytes() == (helper_dir / name).read_bytes()
