"""Content-addressed on-disk cache of experiment results.

Every :class:`~repro.experiments.results.ExperimentResult` is keyed by a
SHA-256 hash of the inputs that determine its numbers — the experiment id,
the full scale preset (sizes, realization count, TTL grids, *and* base
seed), any extra code-relevant parameters, and a store schema version.  A
re-run with identical inputs is served from disk; changing any input (a
different seed, a bigger scale, a bumped schema version) produces a new key
and a fresh computation, so stale hits are impossible by construction.

Layout under the cache root::

    <root>/<key[:2]>/<key>/result.json   # ExperimentResult.as_dict()
    <root>/<key[:2]>/<key>/result.csv    # long-format label,x,y rows
    <root>/<key[:2]>/<key>/meta.json     # the hashed inputs + timestamps

``result.json`` is byte-compatible with
:meth:`~repro.experiments.results.ExperimentResult.save_json`, so cached
artifacts can be consumed by the same tooling as directly-saved ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import shutil
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.errors import ExperimentError
from repro.experiments.results import ExperimentResult
from repro.telemetry.collector import active_telemetry
from repro.telemetry.logs import get_logger

__all__ = ["ResultStore"]

_log = get_logger("repro.store")

#: Bump when the result schema or the experiment semantics change in a way
#: that should invalidate previously cached artifacts.
STORE_SCHEMA_VERSION = 1


class ResultStore:
    """Persistent experiment-result cache under a root directory.

    Examples
    --------
    >>> import tempfile
    >>> from repro.experiments.results import ExperimentResult
    >>> from repro.experiments.runner import ExperimentScale
    >>> store = ResultStore(tempfile.mkdtemp())
    >>> scale = ExperimentScale.smoke()
    >>> store.get("fig9", scale) is None
    True
    >>> _ = store.put("fig9", scale, ExperimentResult("fig9", "t"))
    >>> store.get("fig9", scale).experiment_id
    'fig9'
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as error:
            raise ExperimentError(
                f"result-store path {self.root} is not a directory: {error}"
            ) from error
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------ #
    # Keys and paths
    # ------------------------------------------------------------------ #
    @staticmethod
    def key_for(
        experiment_id: str,
        scale: Any,
        extra: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Return the content-address of one (experiment, scale) cell.

        ``scale`` is anything with an ``as_dict()`` method (normally an
        :class:`~repro.experiments.runner.ExperimentScale`); the dict — which
        includes the base seed — is hashed canonically, so logically equal
        scales map to the same key across processes and machines.
        """
        payload = {
            "store_schema": STORE_SCHEMA_VERSION,
            "experiment_id": experiment_id,
            "scale": scale.as_dict(),
            "extra": extra or {},
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> Path:
        """Directory holding the artifacts of ``key`` (two-level fan-out)."""
        if len(key) < 8:
            raise ExperimentError(f"malformed store key {key!r}")
        return self.root / key[:2] / key

    # ------------------------------------------------------------------ #
    # Read / write
    # ------------------------------------------------------------------ #
    def contains(
        self,
        experiment_id: str,
        scale: Any,
        extra: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """True when a completed result for these inputs is on disk."""
        return (self.path_for(self.key_for(experiment_id, scale, extra)) / "result.json").exists()

    def get(
        self,
        experiment_id: str,
        scale: Any,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Optional[ExperimentResult]:
        """Return the cached result, or ``None`` on a miss (counted).

        An entry that cannot be read back is a miss too, counted as
        ``corrupt`` and logged as a ``store-corrupt`` warning.
        """
        telemetry = active_telemetry()
        key = self.key_for(experiment_id, scale, extra)
        path = self.path_for(key) / "result.json"
        with telemetry.span("store"):
            if not path.exists():
                self.misses += 1
                telemetry.count("store.misses")
                return None
            try:
                result = ExperimentResult.load_json(path)
            except (OSError, ValueError, KeyError, TypeError) as error:
                # A torn or malformed entry (JSON of the wrong shape raises
                # TypeError) must not poison future runs: the caller
                # recomputes and the next put replaces it.
                self.misses += 1
                self.corrupt += 1
                telemetry.count("store.misses")
                telemetry.count("store.corrupt")
                _log.warning("store-corrupt", key=key, error=type(error).__name__)
                return None
            self.hits += 1
            telemetry.count("store.hits")
            size = path.stat().st_size
            self.bytes_read += size
            telemetry.count("store.bytes_read", size)
            return result

    def put(
        self,
        experiment_id: str,
        scale: Any,
        result: ExperimentResult,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist ``result`` (JSON + CSV + meta) and return its directory."""
        telemetry = active_telemetry()
        key = self.key_for(experiment_id, scale, extra)
        directory = self.path_for(key)
        with telemetry.span("store"):
            directory.mkdir(parents=True, exist_ok=True)
            meta = {
                "key": key,
                "store_schema": STORE_SCHEMA_VERSION,
                "experiment_id": experiment_id,
                "scale": scale.as_dict(),
                "extra": extra or {},
                "created_at": time.time(),
            }
            # Crash/concurrency safety: every artifact is written to a
            # uniquely named temp file in the same directory and renamed
            # into place with os.replace (atomic on POSIX).  A killed
            # writer leaves at worst a stray ``.tmp-*`` file, never a torn
            # artifact — and because ``result.json`` is replaced last, its
            # presence still marks the entry as complete.  Two racing
            # writers of one key both hold identical bytes (content
            # addressing), so whichever rename lands last is harmless.
            token = f".tmp-{os.getpid()}-{secrets.token_hex(4)}"
            tmp_csv = directory / f"result.csv{token}"
            tmp_meta = directory / f"meta.json{token}"
            tmp_json = directory / f"result.json{token}"
            try:
                result.save_csv(tmp_csv)
                tmp_meta.write_text(json.dumps(meta, indent=2, sort_keys=True))
                result.save_json(tmp_json)
                os.replace(tmp_csv, directory / "result.csv")
                os.replace(tmp_meta, directory / "meta.json")
                os.replace(tmp_json, directory / "result.json")
            finally:
                for leftover in (tmp_csv, tmp_meta, tmp_json):
                    leftover.unlink(missing_ok=True)
            written = sum(
                (directory / name).stat().st_size
                for name in ("result.json", "result.csv", "meta.json")
            )
            self.bytes_written += written
            telemetry.count("store.bytes_written", written)
        return directory

    def fetch_or_run(
        self,
        experiment_id: str,
        scale: Any,
        runner: Callable[[], ExperimentResult],
        extra: Optional[Dict[str, Any]] = None,
    ) -> Tuple[ExperimentResult, bool]:
        """Serve from cache, or run ``runner`` and cache its output.

        Returns ``(result, from_cache)``.
        """
        cached = self.get(experiment_id, scale, extra)
        if cached is not None:
            return cached, True
        result = runner()
        self.put(experiment_id, scale, result, extra)
        return result, False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _markers(self) -> Iterator[Path]:
        """The ``result.json`` of every completed entry.

        :meth:`put` replaces ``result.json`` last, so its presence marks an
        entry :meth:`get` can read, whatever state ``meta.json`` is in.
        """
        return self.root.glob("*/*/result.json")

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters for this store instance plus the disk entry count.

        Entries are counted by their marker, without reading any file: a
        live service calls this on every ``/metrics`` scrape.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "entries": sum(1 for _ in self._markers()),
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }

    def disk_stats(self) -> Dict[str, int]:
        """Entry count and total on-disk bytes of every completed entry."""
        entries = 0
        total_bytes = 0
        for marker in self._markers():
            entries += 1
            for artifact in marker.parent.iterdir():
                if artifact.is_file():
                    total_bytes += artifact.stat().st_size
        return {"entries": entries, "total_bytes": total_bytes}

    # ------------------------------------------------------------------ #
    # Garbage collection
    # ------------------------------------------------------------------ #
    def gc(
        self,
        max_bytes: Optional[int] = None,
        older_than_seconds: Optional[float] = None,
        dry_run: bool = False,
        now: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Evict entries LRU-by-mtime; return what was (or would be) reclaimed.

        Long-lived service nodes need a bounded store.  Two independent
        policies compose:

        * ``older_than_seconds`` — drop every entry whose ``result.json``
          mtime is older than this many seconds;
        * ``max_bytes`` — then drop oldest-first until the remaining
          entries fit the budget.

        ``result.json`` mtime is the recency signal: :meth:`put` replaces
        it on every write, so recently recomputed entries survive.  With
        ``dry_run`` nothing is deleted and no record is persisted.  The
        summary (also written to ``last-gc.json`` so ``repro cache stats``
        can surface reclaimed bytes) reports entry counts and byte totals
        before/after.
        """
        if now is None:
            now = time.time()
        entries: List[Tuple[float, int, Path]] = []  # (mtime, bytes, dir)
        for marker in self._markers():
            directory = marker.parent
            size = sum(
                artifact.stat().st_size
                for artifact in directory.iterdir()
                if artifact.is_file()
            )
            entries.append((marker.stat().st_mtime, size, directory))
        entries.sort(reverse=True)  # newest first
        total_bytes = sum(size for _, size, _ in entries)

        evict: List[Tuple[float, int, Path]] = []
        keep: List[Tuple[float, int, Path]] = []
        for entry in entries:
            if older_than_seconds is not None and now - entry[0] > older_than_seconds:
                evict.append(entry)
            else:
                keep.append(entry)
        if max_bytes is not None:
            kept_bytes = 0
            within: List[Tuple[float, int, Path]] = []
            for entry in keep:  # newest first: the budget keeps recent entries
                if kept_bytes + entry[1] <= max_bytes:
                    kept_bytes += entry[1]
                    within.append(entry)
                else:
                    evict.append(entry)
            keep = within

        reclaimed = sum(size for _, size, _ in evict)
        if not dry_run:
            for _, _, directory in evict:
                shutil.rmtree(directory, ignore_errors=True)
                try:  # prune the two-char fan-out dir when it empties
                    directory.parent.rmdir()
                except OSError:
                    pass
        summary = {
            "scanned_entries": len(entries),
            "scanned_bytes": total_bytes,
            "removed_entries": len(evict),
            "reclaimed_bytes": reclaimed,
            "remaining_entries": len(keep),
            "remaining_bytes": total_bytes - reclaimed,
            "max_bytes": max_bytes,
            "older_than_seconds": older_than_seconds,
            "dry_run": dry_run,
            "at": now,
        }
        if not dry_run:
            (self.root / "last-gc.json").write_text(
                json.dumps(summary, indent=2, sort_keys=True)
            )
        _log.info(
            "gc",
            removed_entries=summary["removed_entries"],
            reclaimed_bytes=summary["reclaimed_bytes"],
            remaining_entries=summary["remaining_entries"],
            remaining_bytes=summary["remaining_bytes"],
            dry_run=dry_run,
        )
        return summary

    def last_gc_stats(self) -> Optional[Dict[str, Any]]:
        """Return the persisted summary of the last :meth:`gc`, or ``None``."""
        path = self.root / "last-gc.json"
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except ValueError:  # pragma: no cover - corrupted record
            return None

    def save_stats(self) -> Path:
        """Persist this instance's counters as the store's last-run record.

        ``repro figure|suite|run`` call this after completing, which is what
        ``repro cache stats`` reads back as "the last run's hit/miss line".
        """
        path = self.root / "last-run.json"
        payload = dict(self.stats(), saved_at=time.time())
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return path

    def last_run_stats(self) -> Optional[Dict[str, Any]]:
        """Return the persisted last-run counters, or ``None`` if absent."""
        path = self.root / "last-run.json"
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except ValueError:  # pragma: no cover - corrupted record
            return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore(root={str(self.root)!r})"
