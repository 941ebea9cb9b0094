"""Tests for result-store durability and garbage collection.

The load-bearing guarantees:

* :meth:`ResultStore.put` is atomic — artifacts land via temp-file +
  ``os.replace``, so a crashed writer never leaves a torn ``result.json``
  and a half-written entry is invisible to readers;
* :meth:`ResultStore.gc` evicts least-recently-written entries by byte
  budget and/or age, records the reclaimed bytes in ``last-gc.json``,
  and ``repro cache stats`` / ``repro cache gc`` surface it on the CLI.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.cli import main
from repro.engine.store import ResultStore
from repro.experiments.results import ExperimentResult, Series
from repro.experiments.runner import ExperimentScale


def _result(tag: str = "a") -> ExperimentResult:
    return ExperimentResult(
        experiment_id=f"fake-{tag}",
        title="fake experiment",
        series=[Series(label=tag, x=[1, 2], y=[0.5, 1.5], metadata={"m": 1})],
        parameters={"name": "smoke"},
        notes="gc me",
    )


def _fill(store: ResultStore, count: int, scale: ExperimentScale) -> None:
    for index in range(count):
        store.put(f"fake-{index}", scale, _result(str(index)))


class TestAtomicPut:
    def test_put_leaves_no_temp_files(self, tmp_path, smoke_scale):
        store = ResultStore(tmp_path)
        directory = store.put("fake", smoke_scale, _result())
        names = {p.name for p in directory.iterdir()}
        assert names == {"result.json", "result.csv", "meta.json"}
        assert not any(".tmp-" in name for name in names)

    def test_interrupted_put_leaves_entry_invisible(self, tmp_path, smoke_scale):
        """A writer that dies before the final rename leaves no torn entry."""
        store = ResultStore(tmp_path)
        result = _result()

        # Simulate the crash by failing the last artifact's serialization:
        # the temp files written so far must be cleaned up and the entry
        # must stay a miss (result.json is the completeness marker).
        class Exploding(ExperimentResult):
            def save_json(self, path):
                raise OSError("disk died")

        exploding = Exploding(
            experiment_id=result.experiment_id,
            title=result.title,
            series=result.series,
            parameters=result.parameters,
            notes=result.notes,
        )
        with pytest.raises(OSError):
            store.put("fake", smoke_scale, exploding)
        assert store.get("fake", smoke_scale) is None
        leftovers = [
            p for p in tmp_path.rglob("*") if p.is_file() and ".tmp-" in p.name
        ]
        assert leftovers == []

    def test_put_overwrites_completely(self, tmp_path, smoke_scale):
        store = ResultStore(tmp_path)
        store.put("fake", smoke_scale, _result("first"))
        store.put("fake", smoke_scale, _result("second"))
        loaded = store.get("fake", smoke_scale)
        assert loaded is not None
        assert loaded.series[0].label == "second"


class TestGC:
    def test_older_than_evicts_only_stale_entries(self, tmp_path, smoke_scale):
        store = ResultStore(tmp_path)
        _fill(store, 3, smoke_scale)
        # Age two entries by backdating their result.json mtime.
        directories = sorted(p.parent for p in tmp_path.glob("*/*/meta.json"))
        old = time.time() - 3600
        for directory in directories[:2]:
            os.utime(directory / "result.json", (old, old))
        summary = store.gc(older_than_seconds=600)
        assert summary["removed_entries"] == 2
        assert summary["remaining_entries"] == 1
        assert summary["reclaimed_bytes"] > 0
        assert store.disk_stats()["entries"] == 1

    def test_max_bytes_keeps_newest(self, tmp_path, smoke_scale):
        store = ResultStore(tmp_path)
        _fill(store, 4, smoke_scale)
        entries = sorted(
            (p.parent for p in tmp_path.glob("*/*/meta.json")),
            key=lambda d: (d / "result.json").stat().st_mtime,
        )
        # Make mtimes strictly increasing so LRU order is deterministic.
        base = time.time() - 1000
        for index, directory in enumerate(entries):
            stamp = base + index
            os.utime(directory / "result.json", (stamp, stamp))
        newest = entries[-1]
        one_entry_bytes = sum(
            f.stat().st_size for f in newest.iterdir() if f.is_file()
        )
        summary = store.gc(max_bytes=one_entry_bytes)
        assert summary["removed_entries"] == 3
        assert summary["remaining_entries"] == 1
        assert newest.exists()  # the newest entry survived

    def test_dry_run_deletes_nothing(self, tmp_path, smoke_scale):
        store = ResultStore(tmp_path)
        _fill(store, 2, smoke_scale)
        summary = store.gc(max_bytes=0, dry_run=True)
        assert summary["removed_entries"] == 2
        assert store.disk_stats()["entries"] == 2
        assert store.last_gc_stats() is None  # no record persisted

    def test_gc_summary_is_persisted_and_readable(self, tmp_path, smoke_scale):
        store = ResultStore(tmp_path)
        _fill(store, 2, smoke_scale)
        summary = store.gc(max_bytes=0)
        persisted = store.last_gc_stats()
        assert persisted == summary
        assert persisted["reclaimed_bytes"] == summary["scanned_bytes"]

    def test_entry_without_meta_is_counted_and_reclaimed(self, tmp_path, smoke_scale):
        """``get`` serves an entry by its result.json alone, so gc sees it too."""
        store = ResultStore(tmp_path)
        _fill(store, 2, smoke_scale)
        directory = store.put("fake-0", smoke_scale, _result("0"))
        (directory / "meta.json").unlink()
        assert store.get("fake-0", smoke_scale) is not None
        assert store.stats()["entries"] == store.disk_stats()["entries"] == 2
        summary = store.gc(max_bytes=0)
        assert summary["removed_entries"] == 2
        assert not directory.exists()

    def test_gc_on_empty_store(self, tmp_path):
        store = ResultStore(tmp_path)
        summary = store.gc(max_bytes=100)
        assert summary["scanned_entries"] == 0
        assert summary["removed_entries"] == 0


class TestCacheCLI:
    def test_cache_gc_requires_a_policy(self, tmp_path, capsys):
        assert main(["cache", "gc", "--cache", str(tmp_path)]) == 1
        assert "needs a policy" in capsys.readouterr().err

    def test_cache_gc_json_roundtrip(self, tmp_path, smoke_scale, capsys):
        store = ResultStore(tmp_path)
        _fill(store, 2, smoke_scale)
        code = main(
            ["cache", "gc", "--cache", str(tmp_path), "--max-bytes", "0", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["removed_entries"] == 2
        assert payload["root"] == str(store.root)

    def test_cache_gc_size_suffixes(self, tmp_path, smoke_scale, capsys):
        store = ResultStore(tmp_path)
        _fill(store, 2, smoke_scale)
        code = main(
            ["cache", "gc", "--cache", str(tmp_path), "--max-bytes", "1g"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reclaimed 0 bytes" in out
        assert store.disk_stats()["entries"] == 2

    def test_cache_stats_surfaces_last_gc(self, tmp_path, smoke_scale, capsys):
        store = ResultStore(tmp_path)
        _fill(store, 2, smoke_scale)
        store.gc(max_bytes=0)
        assert main(["cache", "stats", "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "last gc:" in out and "entries evicted" in out
        assert main(["cache", "stats", "--cache", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["last_gc"]["removed_entries"] == 2
