"""Figure 12: robustness to a different profiling input.

The paper re-evaluates 099.go, 132.ijpeg and 134.perl when the profile used
for scheduling comes from a different input than the one used for execution,
with a 1-minute threshold; the speed-ups keep the same trends, only slightly
reduced (134.perl on the 4-cluster/2-cycle machine drops the most but stays
around 6 %).  The reproduction schedules each block with a perturbed
("train") profile and evaluates the resulting schedules with the reference
profile.
"""

import pytest

from benchmarks.conftest import bench_blocks, bench_budget
from repro.analysis import format_speedup_series, geometric_mean
from repro.analysis.experiments import run_cross_input_experiment, run_speedup_experiment
from repro.machine import paper_configurations
from repro.scheduler import VcsConfig
from repro.workloads import build_suite, profile_by_name

FIG12_BENCHMARKS = ["099.go", "132.ijpeg", "134.perl"]


@pytest.fixture(scope="module")
def fig12_suite():
    profiles = [profile_by_name(name) for name in FIG12_BENCHMARKS]
    return build_suite(profiles, blocks_per_benchmark=max(bench_blocks(), 2))


def test_fig12_cross_input_profiling(benchmark, fig12_suite, runner):
    """Regenerate the Figure 12 series (train-profile scheduling, ref-profile
    evaluation) and compare with the same-input speed-ups."""
    machines = paper_configurations()
    # The paper uses the 1-minute threshold.
    config = VcsConfig(work_budget=max(bench_budget() // 4, 2000))
    results = {}

    def run():
        results["cross"] = run_cross_input_experiment(
            fig12_suite, machines, vcs_config=config, runner=runner
        )
        results["same"] = run_speedup_experiment(
            fig12_suite, machines, vcs_config=config, runner=runner
        )
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    for machine in machines:
        print(f"\n=== Figure 12 | {machine.name} | train-profile scheduling, ref evaluation ===")
        print(format_speedup_series(results["cross"][machine.name]))

    cross_speedups = [
        row.speedup for machine in machines for row in results["cross"][machine.name]
    ]
    same_speedups = [
        row.speedup for machine in machines for row in results["same"][machine.name]
    ]
    # Shape: the technique still wins on average with a mismatched profile,
    # and the cross-input gains do not exceed the same-input gains by much.
    assert geometric_mean(cross_speedups) >= 0.99
    assert geometric_mean(cross_speedups) <= geometric_mean(same_speedups) + 0.05
