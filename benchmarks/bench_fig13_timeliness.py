"""Figure 13: timeliness and accuracy of the competing prefetchers.

Paper shapes asserted here:

* the standalone CBWS scheme stays accurate: CBWS wrong < 10 % on the
  MI group (the paper reports ~5 % and the smallest wrong fraction;
  here the degree-2 stride is more accurate still, see EXPERIMENTS.md);
* integrating CBWS improves SMS coverage: the timely + shorter-waiting
  fraction rises and the missing fraction falls.
"""

from repro.harness import experiments

from conftest import publish


def bench_figure13(benchmark, runner, results_dir):
    result = benchmark.pedantic(
        lambda: experiments.figure13(runner), rounds=1, iterations=1
    )
    publish(results_dir, "figure13_timeliness", result.render())

    prefetchers = [
        p for p in experiments.EVALUATED_PREFETCHERS if p != "no-prefetch"
    ]
    wrong = {p: result.average_fraction(p, "wrong") for p in prefetchers}
    benchmark.extra_info["average_wrong"] = {
        name: round(value, 4) for name, value in wrong.items()
    }

    # The standalone CBWS prefetcher stays accurate: wrong under ~10%.
    assert wrong["cbws"] < 0.10, f"cbws wrong fraction {wrong['cbws']:.1%}"

    # Integration improves coverage over plain SMS.
    def covered(prefetcher):
        return (
            result.average_fraction(prefetcher, "timely")
            + result.average_fraction(prefetcher, "shorter_waiting")
        )

    assert covered("cbws+sms") > covered("sms")
    assert result.average_fraction("cbws+sms", "missing") < (
        result.average_fraction("sms", "missing")
    )
