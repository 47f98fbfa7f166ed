"""Stencil deep dive: reproduce the paper's Figures 2, 3 and 4 worked example.

The Parboil stencil is the paper's running example: its innermost loop
strides a whole xy-plane per iteration, so each iteration's working set
is a vector of far-apart cache lines related to its predecessor by one
constant differential.  This script prints:

* the CBWS matrix (Figure 3) — rows are loop iterations, columns static
  instructions;
* the differential matrix (Figure 4) — one constant stride vector;
* the CBWS predictor run over those iterations and the point at which
  its history table starts predicting entire future working sets.

Run:  python examples/stencil_deep_dive.py
"""

from repro import CbwsConfig, GridRunner
from repro.analysis.differentials import extract_cbws_sequences
from repro.core.cbws import differential
from repro.core.predictor import predict_trace
from repro.trace.events import BlockBegin, BlockEnd, MemoryAccess
from repro.trace.stream import Trace


def main() -> None:
    runner = GridRunner(budget_fraction=0.1)
    trace = runner.trace("stencil-default")

    sequences = extract_cbws_sequences(trace)
    block_id = min(sequences)
    vectors = sequences[block_id][1:9]

    print("Figure 3 — CBWS matrix (cache line numbers, one row per "
          "iteration):")
    for index, cbws in enumerate(vectors):
        cells = "  ".join(f"{line:6d}" for line in cbws)
        print(f"  CBWS{index} = ( {cells} )")

    print("\nFigure 4 — CBWS differentials (element-wise subtraction):")
    deltas = [differential(a, b) for a, b in zip(vectors, vectors[1:])]
    for index, delta in enumerate(deltas):
        cells = "  ".join(f"{stride:6d}" for stride in delta)
        print(f"  CBWS{index + 1}-CBWS{index} = ( {cells} )")
    if len(set(deltas)) == 1:
        print("  -> one constant differential vector, exactly as in the "
              "paper")

    print("\nLive predictor (Algorithm 1):")
    events = []
    for cbws in sequences[block_id][:16]:
        events.append(BlockBegin(0, block_id))
        events += [MemoryAccess(0, 0, line << 6, False) for line in cbws]
        events.append(BlockEnd(0, block_id))
    stream = predict_trace(Trace("stencil-loop", events, 0), CbwsConfig(), 6)
    for n in range(len(stream)):
        predicted = stream.block(n)
        status = f"predicted {len(predicted):2d} lines" if predicted else (
            "no prediction (history warming up)"
        )
        print(f"  after iteration {n:2d}: {status}")

    stats = stream.predictor.stats
    print(f"\nhistory-table hit rate: {stats.hit_rate:.0%} "
          f"({stats.table_hits}/{stats.table_lookups} lookups), "
          f"{stats.lines_predicted} lines predicted in total")


if __name__ == "__main__":
    main()
