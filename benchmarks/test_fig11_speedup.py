"""Figure 11: speed-up of the proposed technique over CARS.

The paper reports, for each of the 14 applications and each of the three
machine configurations, the speed-up in total dynamic cycles of the proposed
technique over CARS, at compile-time thresholds of 1 and 4 minutes.  Here the
thresholds are deduction-work budgets (see benchmarks/conftest.py); one
benchmark per machine configuration regenerates the full per-application
series and prints it, for both thresholds.

Expected shape (paper): speed-ups >= 1 almost everywhere, small on the
2-cluster machine (~2.5 % mean), largest on the 4-cluster machines
(~9.5 % mean), peaks around 15 %; the large threshold is at least as good as
the small one.
"""

import pytest

from benchmarks.conftest import bench_blocks, bench_budget
from repro.analysis import format_speedup_series, geometric_mean
from repro.analysis.experiments import run_speedup_experiment
from repro.machine import paper_configurations
from repro.scheduler import VcsConfig
from repro.workloads import all_profiles, build_suite


@pytest.fixture(scope="module")
def suite():
    return build_suite(all_profiles(), blocks_per_benchmark=bench_blocks())


def _run(suite, machine, budget, runner):
    grouped = run_speedup_experiment(
        [w for w in suite], [machine], vcs_config=VcsConfig(work_budget=budget), runner=runner
    )
    return grouped[machine.name]


@pytest.mark.parametrize("machine", paper_configurations(), ids=lambda m: m.name.replace(" ", "_"))
def test_fig11_speedup_over_cars(benchmark, suite, machine, runner):
    """Regenerate the Figure 11 series for one machine configuration."""
    large = bench_budget()
    small = max(large // 4, 2000)

    results = {}

    def run_both_thresholds():
        results["th_small"] = _run(suite, machine, small, runner)
        results["th_large"] = _run(suite, machine, large, runner)
        return results

    benchmark.pedantic(run_both_thresholds, rounds=1, iterations=1)

    for label, rows in (("threshold = 1m-equiv", results["th_small"]),
                        ("threshold = 4m-equiv", results["th_large"])):
        print(f"\n=== Figure 11 | {machine.name} | {label} ===")
        print(format_speedup_series(rows))

    large_rows = results["th_large"]
    speedups = [row.speedup for row in large_rows]
    mean = geometric_mean(speedups)
    # Shape checks: the proposed technique wins on average and is never
    # catastrophically worse on any single application.
    assert mean >= 1.0, f"mean speed-up {mean:.3f} below 1 on {machine.name}"
    assert min(speedups) >= 0.97
    # The larger threshold can only help (fallbacks are a subset).
    small_mean = geometric_mean([row.speedup for row in results["th_small"]])
    assert mean >= small_mean - 0.02
