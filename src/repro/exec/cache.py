"""Content-addressed result cache: one SQLite table per cache directory.

Simulation results are tiny (a few hundred bytes of counters) while the
work producing them is expensive, so the cache keeps one row per
:attr:`repro.exec.plan.SimNode.key` in ``<root>/results.sqlite``: a
64-bit slot hashed from the key (the row id), the key, the time the row
was written, and a JSON envelope.  Keys encode
every input that can change the result — workload spec parameters,
SimConfig fields, canonical prefetcher name, schema and code versions —
so a hit is always safe to replay and a re-run of any figure with
unchanged inputs is a pure cache read.

Entry integrity: every envelope carries a schema version, its key and a
SHA-256 checksum of its canonical result payload.  ``get`` verifies all
three before deserializing — a bit-flipped, truncated, stale-schema or
misfiled row is *demoted to a miss* (logged, deleted, rebuilt by the
caller) instead of crashing the run or, worse, silently poisoning it.
A database file that SQLite reports as corrupt or as not a database is
logged and moved aside with its ``-wal``/``-shm`` files, and the cache
carries on with an empty store.  Another process holding the write
lock is not corruption: the call waits up to :data:`BUSY_TIMEOUT_S`
and then raises.  A full disk raises
:class:`~repro.common.errors.DiskFullError`.

The store runs in WAL mode at ``synchronous=OFF``: nothing is fsync'd.
A put that has returned survives any process death; an OS crash can
lose recent rows or damage the file, and both read as misses, so the
cell is simulated again (DESIGN.md §8).  ``sqlite3`` is imported and
the connection opened on first use, so importing this module costs
nothing; one lock-guarded connection serves every thread (the serve
broker calls in from its event loop and from ``asyncio.to_thread``),
and :meth:`ResultCache.close` ends it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.common.errors import DiskFullError, ReproError, raise_if_disk_full
from repro.sim.results import SimResult

logger = logging.getLogger("repro.exec")

#: Version of the cache *envelope* (schema + checksum + result layout).
#: Bump whenever the document shape changes; older entries are then
#: treated as misses and deleted rather than deserialized.
CACHE_SCHEMA_VERSION = 2

#: The database file inside a result-cache directory.
STORE_NAME = "results.sqlite"

#: Seconds a statement waits for another process's lock before raising.
BUSY_TIMEOUT_S = 5.0

_TABLE = ("CREATE TABLE IF NOT EXISTS results ("
          "slot INTEGER PRIMARY KEY, key TEXT NOT NULL, "
          "written REAL NOT NULL, envelope TEXT NOT NULL)")

# SQLite primary result codes (https://www.sqlite.org/rescode.html);
# Python 3.10 exceptions carry only the message, hence the fallback.
_IOERR, _CORRUPT, _FULL, _NOTADB = 10, 11, 13, 26
_CODE_OF_MESSAGE = {
    "disk I/O error": _IOERR,
    "database disk image is malformed": _CORRUPT,
    "database or disk is full": _FULL,
    "file is not a database": _NOTADB,
}


def _result_code(error: Exception) -> int:
    code = getattr(error, "sqlite_errorcode", None)
    if code is None:
        return _CODE_OF_MESSAGE.get(str(error), 0)
    return code & 0xFF


def _slot(key: str) -> int:
    """The row id of ``key``: 64 bits of its BLAKE2b digest.

    Keying the table by it makes a lookup one B-tree descent, where a
    TEXT primary key first descends its own index.  Two keys that share
    a slot replace each other, as any eviction would.
    """
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big", signed=True)


def _result_checksum(result_payload: dict) -> str:
    canonical = json.dumps(result_payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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

    def evict(self, size: int, reason: str) -> None:
        """Count one eviction (the caller deletes the row)."""
        self.evicted += 1
        self.bytes_reclaimed += size
        if reason == "age":
            self.evicted_by_age += 1
        else:
            self.evicted_by_size += 1

    @property
    def bytes_after(self) -> int:
        return self.bytes_total - self.bytes_reclaimed


class ResultCache:
    """A directory holding one SQLite table of simulation results."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / STORE_NAME
        self._connection: Any = None
        self._lock = threading.Lock()

    def _connect(self) -> Any:
        """The open connection; call with the lock held."""
        if self._connection is None:
            import sqlite3

            connection = sqlite3.connect(
                self.path, timeout=BUSY_TIMEOUT_S, isolation_level=None,
                check_same_thread=False)
            try:
                connection.execute("PRAGMA journal_mode=WAL")
                connection.execute("PRAGMA synchronous=OFF")
                connection.execute(_TABLE)
            except BaseException:
                connection.close()
                raise
            self._connection = connection
        return self._connection

    def close(self) -> None:
        """Close the connection; the next call opens it again."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def _move_aside(self, error: object) -> Path:
        """Close, and rename the damaged database and its ``-wal`` and
        ``-shm`` files out of the way; returns the database's new path.
        Call with the lock held."""
        if self._connection is not None:
            try:
                self._connection.close()
            except Exception:
                pass  # a damaged file may fail its close too
            self._connection = None
        suffix = f".corrupt-{time.time_ns()}"
        for name in (STORE_NAME, f"{STORE_NAME}-wal", f"{STORE_NAME}-shm"):
            damaged = self.root / name
            if damaged.exists():
                damaged.rename(damaged.with_name(name + suffix))
        moved = self.root / (STORE_NAME + suffix)
        logger.warning("result cache %s is damaged (%s); moved it to %s "
                       "and continuing with an empty store",
                       self.path, error, moved.name)
        return moved

    def _probe_space(self) -> None:
        """Raise :class:`DiskFullError` if a page-sized write beside the
        store fails for want of space.

        SQLite reports ``ENOSPC`` on its own writes as ``SQLITE_FULL``,
        but an exhausted quota (``EDQUOT``), or ``ENOSPC`` while growing
        the ``-shm`` file, as a plain I/O error; this probe tells those
        apart from other I/O faults.  Call with the lock held.
        """
        probe = self.root / f".space-probe-{os.getpid()}"
        try:
            with open(probe, "wb") as handle:
                handle.write(bytes(4096))
        except OSError as error:
            raise_if_disk_full(error, str(self.path))
        finally:
            probe.unlink(missing_ok=True)

    def _execute(self, operation: Callable[[Any], Any]) -> Any:
        """``operation(connection)`` under the lock.

        A damaged database is moved aside and ``operation`` runs again
        on a fresh, empty store; a full disk (``SQLITE_FULL``, or an I/O
        error that :meth:`_probe_space` traces to a full disk or quota)
        raises :class:`~repro.common.errors.DiskFullError`, which the
        retry policy treats as permanent, with a ``repro cache gc`` hint.
        Every other error (a lock held too long, say) propagates.
        """
        with self._lock:
            try:
                return operation(self._connect())
            except Exception as error:  # sqlite3 is imported lazily
                code = _result_code(error)
                if code == _IOERR:
                    self._probe_space()
                if code == _FULL:
                    raise DiskFullError(
                        f"disk full while writing {self.path} ({error})"
                    ) from error
                if code not in (_CORRUPT, _NOTADB):
                    raise
                self._move_aside(error)
            return operation(self._connect())

    def _verify_document(self, document: object, key: str) -> SimResult:
        """Deserialize the envelope stored under ``key``, raising
        :class:`ReproError` variants on any schema, integrity or key
        violation."""
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
        if document.get("key") != key:
            raise ReproError(
                f"entry key {document.get('key')!r} does not match its "
                f"row key {key!r}"
            )
        return SimResult.from_dict(payload)

    def get(self, key: str) -> SimResult | None:
        """The cached result, or None on a miss.

        A corrupt, checksum-failing, stale-schema or misfiled entry
        counts as a miss and is deleted so the slot is rebuilt cleanly.
        """
        slot = _slot(key)
        row = self._execute(lambda db: db.execute(
            "SELECT key, envelope FROM results WHERE slot = ?",
            (slot,)).fetchone())
        if row is None or row[0] != key:
            return None
        try:
            return self._verify_document(json.loads(row[1]), key)
        except (ValueError, KeyError, TypeError, ReproError) as error:
            logger.warning(
                "discarding unusable result-cache entry %s: %s", key, error
            )
            self.discard([key])
            return None

    def put(self, key: str, result: SimResult) -> None:
        """Store one result (no fsync; see the module doc)."""
        payload = result.to_dict()
        document = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "checksum": _result_checksum(payload),
            "result": payload,
        }
        row = (_slot(key), key, time.time(),
               json.dumps(document, sort_keys=True))
        self._execute(lambda db: db.execute(
            "INSERT OR REPLACE INTO results (slot, key, written, envelope) "
            "VALUES (?, ?, ?, ?)", row))

    def discard(self, keys: list[str]) -> None:
        """Delete the rows of ``keys`` (absent keys are ignored)."""
        self._execute(lambda db: db.executemany(
            "DELETE FROM results WHERE slot = ? AND key = ?",
            [(_slot(key), key) for key in keys]))

    def contains(self, key: str) -> bool:
        """Whether ``key`` has a row (not verified; ``get`` verifies)."""
        slot = _slot(key)
        return self._execute(lambda db: db.execute(
            "SELECT key FROM results WHERE slot = ?", (slot,)).fetchone()
        ) == (key,)

    def __len__(self) -> int:
        return self._execute(lambda db: db.execute(
            "SELECT COUNT(*) FROM results").fetchone()[0])

    def clear(self) -> None:
        """Delete every entry."""
        self._execute(lambda db: db.execute("DELETE FROM results"))

    def gc(
        self,
        max_bytes: int | None = None,
        max_age_seconds: float | None = None,
        *,
        now: float | None = None,
        dry_run: bool = False,
    ) -> GcStats:
        """Bound the cache by size and/or age, evicting oldest-first.

        Campaigns grow the cache without limit (every unique cell is one
        entry forever); ``repro cache gc`` keeps it bounded.  Policy:

        * entries written more than ``max_age_seconds`` ago are evicted;
        * if the surviving envelopes' total size still exceeds
          ``max_bytes``, the oldest entries are evicted until it fits.

        Eviction is safe by construction — every entry is a pure
        function of its key, so a future miss simply recomputes.  A
        real eviction ends with a VACUUM, so the file shrinks too.
        ``dry_run`` reports what *would* be evicted without deleting.
        Returns :class:`GcStats`; with no bounds given, nothing is
        evicted and the stats are a pure census.
        """
        clock = time.time() if now is None else now
        entries = self._execute(lambda db: db.execute(
            "SELECT written, length(CAST(envelope AS BLOB)), key "
            "FROM results ORDER BY written, key").fetchall())

        stats = GcStats(scanned=len(entries), dry_run=dry_run,
                        bytes_total=sum(size for _, size, _ in entries))
        evicted: list[str] = []
        survivors: list[tuple[int, str]] = []
        for written, size, key in entries:
            if (max_age_seconds is not None
                    and clock - written > max_age_seconds):
                stats.evict(size, reason="age")
                evicted.append(key)
            else:
                survivors.append((size, key))
        if max_bytes is not None:
            remaining = sum(size for size, _ in survivors)
            for size, key in survivors:
                if remaining <= max_bytes:
                    break
                stats.evict(size, reason="size")
                evicted.append(key)
                remaining -= size
        stats.kept = stats.scanned - stats.evicted
        if evicted and not dry_run:
            self.discard(evicted)
            self._execute(lambda db: db.execute("VACUUM"))
        return stats

    def verify(self, purge: bool = False) -> tuple[int, list[tuple[str, str]]]:
        """Integrity-check the store and every entry.

        Returns ``(ok_count, [(where, reason), ...])`` for the entries
        that fail schema, checksum or key verification, where ``where``
        is ``<store path>[<key>]``; ``purge`` deletes those rows.  A
        database that fails SQLite's own ``quick_check`` is moved aside,
        as on any access, and reported under its new path.
        """
        import sqlite3

        with self._lock:
            try:
                db = self._connect()
                check = [row[0] for row in db.execute("PRAGMA quick_check")]
                rows = (db.execute("SELECT key, envelope FROM results "
                                   "ORDER BY key").fetchall()
                        if check == ["ok"] else None)
            except sqlite3.DatabaseError as error:
                if _result_code(error) not in (_CORRUPT, _NOTADB):
                    raise
                check, rows = [str(error)], None
            if rows is None:
                reason = "; ".join(check[:3])
                return 0, [(str(self._move_aside(reason)), reason)]
        ok = 0
        corrupt: list[tuple[str, str]] = []
        bad_keys: list[str] = []
        for key, envelope in rows:
            try:
                self._verify_document(json.loads(envelope), key)
                ok += 1
            except (ValueError, KeyError, TypeError, ReproError) as error:
                corrupt.append((f"{self.path}[{key}]", str(error)))
                bad_keys.append(key)
        if purge and bad_keys:
            self.discard(bad_keys)
        return ok, corrupt
