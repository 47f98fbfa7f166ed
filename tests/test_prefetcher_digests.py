"""Frozen SimResult digests of every registered prefetcher.

The fig14 bench grid and perfbench's pins cover only the paper's seven
prefetchers at 64-byte lines.  This file pins every name in
``PREFETCHER_FACTORIES`` plus one parametrized CBWS geometry, on three
workloads, at 64-byte and 128-byte lines, so a change to the engine's
hook dispatch or to any prefetcher's replay shows up as a digest flip.

Regenerate ``tests/fixtures/prefetcher_digests.json`` only after a change
that is meant to move simulated results::

    PYTHONPATH=src python tests/test_prefetcher_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.check.diff import config_with_line_size
from repro.harness.registry import PREFETCHER_FACTORIES, make_prefetcher
from repro.sim.engine import simulate
from repro.workloads import build_trace, get_workload

GOLDEN = Path(__file__).parent / "fixtures" / "prefetcher_digests.json"
WORKLOADS = ("stencil-default", "401.bzip2-source", "429.mcf-ref")
PREFETCHERS = (*sorted(PREFETCHER_FACTORIES), "cbws[max_step=2]")
LINE_SIZES = (64, 128)
ACCESSES = 3000


def cell_digest(workload: str, prefetcher: str, line_size: int) -> str:
    trace = build_trace(get_workload(workload), max_accesses=ACCESSES, seed=0)
    result = simulate(config_with_line_size(line_size),
                      make_prefetcher(prefetcher), trace)
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def cell_id(workload: str, prefetcher: str, line_size: int) -> str:
    return f"{workload}:{prefetcher}:{line_size}"


CELLS = [(w, p, s) for w in WORKLOADS for p in PREFETCHERS for s in LINE_SIZES]


def test_golden_file_covers_every_cell():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(cell_id(*cell) for cell in CELLS)


@pytest.mark.parametrize("line_size", LINE_SIZES)
@pytest.mark.parametrize("prefetcher", PREFETCHERS)
def test_digests_are_frozen(prefetcher, line_size):
    golden = json.loads(GOLDEN.read_text())
    for workload in WORKLOADS:
        key = cell_id(workload, prefetcher, line_size)
        assert cell_digest(workload, prefetcher, line_size) == golden[key], (
            f"{key} drifted; if intentional, regenerate {GOLDEN.name}")


if __name__ == "__main__":
    digests = {cell_id(*cell): cell_digest(*cell) for cell in CELLS}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
