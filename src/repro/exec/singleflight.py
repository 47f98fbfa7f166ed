"""Single-flight deduplication of identical in-flight work.

A :class:`SingleFlight` registry maps a content-addressed key (e.g.
:attr:`repro.exec.plan.SimNode.key`) to whatever object represents the work
in flight for that key.  The first caller to :meth:`lease` a key becomes
its *leader* and owns execution; every later caller for the same key is
a *follower* and receives the leader's in-flight object instead of
spawning duplicate work.  When the leader finishes it releases the key
(:meth:`release`), after which a new lease starts fresh work (a completed result
should by then be in the result cache, so the fresh leader is usually a
pure cache read).

The registry is thread-safe — the serve broker leases from its event
loop while CLI helpers may probe from other threads — and deliberately
value-agnostic: it stores whatever the caller's factory returns (a job
object, a future, ...) and never inspects it.
"""

from __future__ import annotations

import threading
from typing import Callable, Generic, TypeVar

T = TypeVar("T")


class SingleFlight(Generic[T]):
    """Key -> in-flight-work registry with hit accounting."""

    def __init__(self) -> None:
        self._inflight: dict[str, T] = {}
        self._lock = threading.Lock()
        #: Leases that attached to an existing leader.
        self.hits = 0
        #: Leases that created a new leader.
        self.leaders = 0

    def lease(self, key: str, factory: Callable[[], T]) -> tuple[T, bool]:
        """Join or start the in-flight work for ``key``.

        Returns ``(work, is_leader)``: ``is_leader`` is True when this
        call created the work via ``factory`` (and must eventually call
        :meth:`release`), False when it attached to an existing leader.
        """
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                self.hits += 1
                return existing, False
            work = factory()
            self._inflight[key] = work
            self.leaders += 1
            return work, True

    def peek(self, key: str) -> T | None:
        """The in-flight work for ``key``, without joining it."""
        with self._lock:
            return self._inflight.get(key)

    def release(self, key: str) -> None:
        """Retire ``key``; the next lease starts fresh work."""
        with self._lock:
            self._inflight.pop(key, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._inflight)
