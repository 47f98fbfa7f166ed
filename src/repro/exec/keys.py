"""Stable content-addressed keys for grid tasks and cached artifacts.

Cache keys must be identical across processes and Python invocations, so
they cannot use ``hash()`` (randomized per process) or raw float ``repr``
embedded in filenames (``0.1 + 0.2`` prints as ``0.30000000000000004``
and ``1.0`` vs ``1`` collide or diverge depending on the caller).  Keys
here are SHA-256 digests of a canonical JSON encoding:

* floats encode as their exact ``float.hex()`` form — equal floats
  always produce equal keys, unequal floats never collide;
* dataclasses (e.g. :class:`repro.sim.config.SimConfig`) encode as their
  class name plus every field, recursively;
* mappings are sorted; enums encode as their value.

Every key mixes in :data:`CODE_VERSION` (bump it whenever simulation
semantics change so stale cached results are never replayed) and, for
simulation results, the :data:`repro.sim.results.RESULT_SCHEMA_VERSION`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from typing import Any

#: Salt mixed into every key.  Bump when a change anywhere in the
#: trace-generation or simulation pipeline alters results, so previously
#: cached artifacts are invalidated wholesale.
CODE_VERSION = 1


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to JSON-encodable primitives, deterministically."""
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, float):
        return {"__float__": value.hex()}
    if isinstance(value, Enum):
        return {"__enum__": type(value).__name__, "value": canonicalize(value.value)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {
                field.name: canonicalize(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        items = [
            [canonicalize(key), canonicalize(item)]
            for key, item in value.items()
        ]
        items.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
        return {"__map__": items}
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        members = [canonicalize(item) for item in value]
        members.sort(key=lambda member: json.dumps(member, sort_keys=True))
        return {"__set__": members}
    raise TypeError(
        f"cannot build a stable key from {type(value).__name__!r} values"
    )


def stable_hash(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``parts``."""
    payload = json.dumps(
        [canonicalize(part) for part in parts],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def short_digest(*parts: Any, length: int = 12) -> str:
    """Filename-sized prefix of :func:`stable_hash`."""
    return stable_hash(*parts)[:length]


def _ext_salt(workload: str) -> list[str]:
    """Extra key material for ``ext:`` workloads: their content digest.

    A synthetic workload's name fully determines its trace (given
    scale/seed), but an ``ext:`` name is a mutable registry pointer —
    re-ingesting different content under the same name with ``--force``
    changes what the name means.  Mixing the stored digest in makes
    every trace/sim key follow the content, so stale cached results can
    never be replayed against new bytes.  Non-``ext:`` keys get no salt
    and are byte-identical to before.
    """
    if not workload.startswith("ext:"):
        return []
    from repro.ingest.store import IngestStore

    return [IngestStore().digest(workload)]


def trace_key(
    workload: str, scale: float, budget_fraction: float, seed: int
) -> str:
    """Content key of one workload trace build."""
    return stable_hash(
        "trace", CODE_VERSION, workload, scale, budget_fraction, seed,
        *_ext_salt(workload),
    )


def sim_key(
    workload: str,
    prefetcher: str,
    scale: float,
    budget_fraction: float,
    seed: int,
    config: Any,
) -> str:
    """Content key of one (workload, prefetcher) simulation result.

    :attr:`repro.exec.plan.SimNode.key` is the one caller; it passes the
    canonical prefetcher name, so spellings of one geometry share a key.
    """
    from repro.sim.results import RESULT_SCHEMA_VERSION

    return stable_hash(
        "sim",
        CODE_VERSION,
        RESULT_SCHEMA_VERSION,
        workload,
        prefetcher,
        scale,
        budget_fraction,
        seed,
        config,
        *_ext_salt(workload),
    )
