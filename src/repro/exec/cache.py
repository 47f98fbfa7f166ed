"""Content-addressed on-disk result cache.

Simulation results are tiny (a few hundred bytes of counters) while the
work producing them is expensive, so the cache stores one JSON document
per :attr:`repro.exec.plan.SimNode.key` under a two-level fan-out
directory (``<root>/<key[:2]>/<key>.json``).  Keys encode every input
that can change the result — workload spec parameters, SimConfig
fields, canonical prefetcher name, schema and code versions — so a hit
is always safe to replay and a re-run of any figure with unchanged
inputs is a pure cache read.

Entry integrity: every document carries a schema version and a SHA-256
checksum of its canonical result payload.  ``get`` verifies both before
deserializing — a bit-flipped, truncated, or stale-schema entry is
*demoted to a miss* (logged, deleted, rebuilt by the caller) instead of
crashing the run or, worse, silently poisoning it.  Writes are atomic
(temp file + ``os.replace``) so a crashed or concurrent writer can never
leave a half-written entry under the final name.  They are not fsync'd:
a finished write survives any process death, and an entry that a kernel
crash or power cut truncates or loses fails its checksum or is absent,
so the cell is simulated again (DESIGN.md §8).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import ReproError, raise_if_disk_full
from repro.sim.results import SimResult

logger = logging.getLogger("repro.exec")

#: Version of the cache *envelope* (schema + checksum + result layout).
#: Bump whenever the document shape changes; older entries are then
#: treated as misses and deleted rather than deserialized.
CACHE_SCHEMA_VERSION = 2


def _result_checksum(result_payload: dict) -> str:
    canonical = json.dumps(result_payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_atomically(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` through a temp file and ``os.replace``.

    Readers see the old file or the whole new one, never a prefix.  No
    fsync: the callers (result-cache entries, the telemetry snapshot)
    verify or can lose what they read back.  The temp file is unlinked
    only when the replace did not happen.
    """
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w") as handle:
            handle.write(text)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


@dataclass
class GcStats:
    """What one :meth:`ResultCache.gc` pass scanned and evicted."""

    scanned: int = 0
    evicted: int = 0
    kept: int = 0
    bytes_total: int = 0
    bytes_reclaimed: int = 0
    evicted_by_age: int = 0
    evicted_by_size: int = 0
    dry_run: bool = False

    def evict(self, size: int, path: Path, reason: str,
              dry_run: bool) -> None:
        """Record (and, unless dry-run, perform) one eviction."""
        self.evicted += 1
        self.bytes_reclaimed += size
        if reason == "age":
            self.evicted_by_age += 1
        else:
            self.evicted_by_size += 1
        self.dry_run = dry_run
        if not dry_run:
            path.unlink(missing_ok=True)

    @property
    def bytes_after(self) -> int:
        return self.bytes_total - self.bytes_reclaimed


class ResultCache:
    """A directory of content-addressed simulation results."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    def _verify_document(self, document: object) -> SimResult:
        """Deserialize one envelope, raising :class:`ReproError` variants
        on any schema or integrity violation."""
        if not isinstance(document, dict):
            raise ReproError("cache entry is not a JSON object")
        schema = document.get("schema")
        if schema != CACHE_SCHEMA_VERSION:
            raise ReproError(
                f"cache entry schema {schema!r} does not match "
                f"version {CACHE_SCHEMA_VERSION}"
            )
        payload = document["result"]
        recorded = document.get("checksum")
        actual = _result_checksum(payload)
        if recorded != actual:
            raise ReproError(
                f"cache entry checksum mismatch (recorded {recorded!r}, "
                f"actual {actual!r})"
            )
        return SimResult.from_dict(payload)

    def get(self, key: str) -> SimResult | None:
        """The cached result, or None on a miss.

        A corrupt, checksum-failing, or stale-schema entry counts as a
        miss and is deleted so the slot is rebuilt cleanly.
        """
        path = self.path_for(key)
        try:
            document = json.loads(path.read_text())
            return self._verify_document(document)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError, ReproError) as error:
            logger.warning(
                "discarding unusable result-cache entry %s: %s", path, error
            )
            path.unlink(missing_ok=True)
            return None

    def put(self, key: str, result: SimResult) -> None:
        """Store one result atomically (no fsync; see the module doc).

        A full disk (``ENOSPC``/``EDQUOT``) is escalated to
        :class:`~repro.common.errors.DiskFullError` — a *permanent*
        environment failure, so the retry policy fails fast with a
        ``repro cache gc`` remediation hint instead of hammering the
        same full filesystem.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = result.to_dict()
        document = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "checksum": _result_checksum(payload),
            "result": payload,
        }
        try:
            _write_atomically(path, json.dumps(document, sort_keys=True))
        except OSError as error:
            raise_if_disk_full(error, f"result-cache entry {key[:12]}…")
            raise

    def contains(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> None:
        """Delete every entry (the fan-out directories stay)."""
        for entry in self.root.glob("*/*.json"):
            entry.unlink(missing_ok=True)

    def gc(
        self,
        max_bytes: int | None = None,
        max_age_seconds: float | None = None,
        *,
        now: float | None = None,
        dry_run: bool = False,
    ) -> "GcStats":
        """Bound the cache by size and/or age, evicting oldest-first.

        Campaigns grow the cache without limit (every unique cell is one
        entry forever); ``repro cache gc`` keeps it bounded.  Policy:

        * entries older than ``max_age_seconds`` (by mtime) are evicted;
        * if the surviving total still exceeds ``max_bytes``, the oldest
          entries are evicted until it fits.

        Eviction is safe by construction — every entry is a pure
        function of its key, so a future miss simply recomputes.
        ``dry_run`` reports what *would* be evicted without deleting.
        Returns :class:`GcStats`; with no bounds given, nothing is
        evicted and the stats are a pure census.
        """
        import time as time_module

        clock = time_module.time() if now is None else now
        entries: list[tuple[float, int, Path]] = []
        for path in self.root.glob("*/*.json"):
            try:
                status = path.stat()
            except OSError:
                continue  # raced with a concurrent eviction
            entries.append((status.st_mtime, status.st_size, path))
        entries.sort(key=lambda entry: (entry[0], entry[2].name))

        stats = GcStats(scanned=len(entries),
                        bytes_total=sum(size for _, size, _ in entries))
        survivors: list[tuple[float, int, Path]] = []
        for mtime, size, path in entries:
            if (max_age_seconds is not None
                    and clock - mtime > max_age_seconds):
                stats.evict(size, path, reason="age", dry_run=dry_run)
            else:
                survivors.append((mtime, size, path))
        if max_bytes is not None:
            remaining = sum(size for _, size, _ in survivors)
            for mtime, size, path in survivors:
                if remaining <= max_bytes:
                    break
                stats.evict(size, path, reason="size", dry_run=dry_run)
                remaining -= size
        stats.kept = stats.scanned - stats.evicted
        return stats

    def verify(self) -> tuple[int, list[tuple[Path, str]]]:
        """Integrity-check every entry without deleting anything.

        Returns ``(ok_count, [(path, reason), ...])`` for the entries
        that fail schema or checksum verification.
        """
        ok = 0
        corrupt: list[tuple[Path, str]] = []
        for entry in sorted(self.root.glob("*/*.json")):
            try:
                document = json.loads(entry.read_text())
                result = self._verify_document(document)
                expected_key = document.get("key")
                if expected_key != entry.stem:
                    raise ReproError(
                        f"entry key {expected_key!r} does not match its "
                        f"filename {entry.stem!r}"
                    )
                del result
                ok += 1
            except (OSError, ValueError, KeyError, TypeError,
                    ReproError) as error:
                corrupt.append((entry, str(error)))
        return ok, corrupt
