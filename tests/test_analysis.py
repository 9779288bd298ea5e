"""Tests for metrics, compile-effort statistics, reports and experiments."""

import pytest

from repro.analysis import (
    EffortThresholds,
    collect_effort,
    compare_block,
    evaluate_benchmark,
    format_compile_time_table,
    format_speedup_series,
    geometric_mean,
)
from repro.analysis.compile_time import fraction_within
from repro.analysis.experiments import (
    run_compile_time_experiment,
    run_cross_input_experiment,
    run_speedup_experiment,
    run_workload,
)
from repro.analysis.metrics import BlockComparison, evaluated_awct, speedup
from repro.analysis.report import format_table
from repro.machine import paper_2c_8i_1lat
from repro.scheduler import CarsScheduler, VcsConfig, VirtualClusterScheduler
from repro.workloads import build_benchmark, profile_by_name, train_variant


@pytest.fixture(scope="module")
def small_workload():
    return build_benchmark(profile_by_name("130.li").scaled(3))


@pytest.fixture(scope="module")
def small_record(small_workload):
    return run_workload(
        small_workload, paper_2c_8i_1lat(), vcs_config=VcsConfig(work_budget=30_000)
    )


class TestMetrics:
    def test_speedup_and_geomean(self):
        assert speedup(110.0, 100.0) == pytest.approx(1.1)
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])
        with pytest.raises(ValueError):
            speedup(10.0, 0.0)

    def test_block_comparison_properties(self):
        comparison = BlockComparison(
            block_name="b",
            execution_count=10,
            baseline_awct=12.0,
            proposed_awct=10.0,
            baseline_work=5,
            proposed_work=50,
        )
        assert comparison.baseline_cycles == pytest.approx(120.0)
        assert comparison.proposed_cycles == pytest.approx(100.0)
        assert comparison.speedup == pytest.approx(1.2)

    def test_compare_block_from_results(self, small_workload):
        block = small_workload.blocks[0]
        machine = paper_2c_8i_1lat()
        cars = CarsScheduler().schedule(block, machine)
        vcs = VirtualClusterScheduler().schedule(block, machine)
        comparison = compare_block(cars, vcs)
        assert comparison.block_name == block.name
        assert comparison.speedup >= 1.0 - 1e-9 or comparison.proposed_fallback

    def test_compare_block_rejects_mismatched_blocks(self, small_workload):
        machine = paper_2c_8i_1lat()
        first = CarsScheduler().schedule(small_workload.blocks[0], machine)
        second = CarsScheduler().schedule(small_workload.blocks[1], machine)
        with pytest.raises(ValueError):
            compare_block(first, second)

    def test_evaluated_awct_with_other_profile(self, small_workload):
        block = small_workload.blocks[0]
        machine = paper_2c_8i_1lat()
        result = CarsScheduler().schedule(block, machine)
        same = evaluated_awct(result.schedule)
        other_profile = train_variant(small_workload).blocks[0]
        other = evaluated_awct(result.schedule, other_profile)
        assert same == pytest.approx(result.awct)
        assert other > 0

    def test_benchmark_aggregation(self):
        rows = [
            BlockComparison("a", 10, 10.0, 8.0, 1, 2),
            BlockComparison("b", 5, 6.0, 6.0, 1, 2, proposed_fallback=True),
        ]
        agg = evaluate_benchmark("bench", "specint", "m", rows)
        assert agg.n_blocks == 2
        assert agg.baseline_cycles == pytest.approx(130.0)
        assert agg.proposed_cycles == pytest.approx(110.0)
        assert agg.speedup == pytest.approx(130.0 / 110.0)
        assert agg.fallback_fraction == pytest.approx(0.5)


class TestCompileEffort:
    def test_thresholds(self):
        thresholds = EffortThresholds(small=10, medium=100, large=1000)
        assert thresholds.as_tuple() == (10, 100, 1000)
        assert len(thresholds.labels) == 3

    def test_collect_and_fractions(self, small_record):
        stats = collect_effort("VCS", "2clust", small_record.proposed_results)
        assert stats.n_blocks == 3
        assert 0.0 <= stats.fraction_within(1) <= 1.0
        assert stats.fraction_within(10**9) == 1.0
        fracs = stats.fractions(EffortThresholds())
        assert set(fracs) == set(EffortThresholds().labels)
        assert stats.total_work == sum(stats.work_per_block)

    def test_fraction_within_helper(self, small_record):
        assert fraction_within(small_record.baseline_results, 10**9) == 1.0

    def test_empty_stats(self):
        stats = collect_effort("X", "m", [])
        assert stats.fraction_within(10) == 1.0
        assert stats.n_blocks == 0


class TestReports:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_format_speedup_series_includes_means(self, small_record):
        comparison = small_record.comparison()
        text = format_speedup_series([comparison])
        assert "130.li" in text
        assert "Spec Mean" in text
        assert "Mean" in text

    def test_format_compile_time_table(self, small_record):
        cars_stats, vcs_stats = small_record.effort()
        text = format_compile_time_table([cars_stats, vcs_stats], EffortThresholds())
        assert "CARS" in text and "VCS" in text
        assert "1s-equiv" in text


class TestExperimentRunners:
    def test_run_workload_record(self, small_record, small_workload):
        assert len(small_record.baseline_results) == small_workload.n_blocks
        assert len(small_record.proposed_results) == small_workload.n_blocks
        comparison = small_record.comparison()
        assert comparison.name == "130.li"
        assert comparison.speedup >= 0.99

    def test_speedup_experiment_shape(self, small_workload):
        grouped = run_speedup_experiment(
            [small_workload], [paper_2c_8i_1lat()], vcs_config=VcsConfig(work_budget=20_000)
        )
        assert set(grouped) == {"2clust 1b 1lat"}
        assert len(grouped["2clust 1b 1lat"]) == 1

    def test_compile_time_experiment_shape(self, small_workload):
        stats = run_compile_time_experiment(
            [small_workload], [paper_2c_8i_1lat()], EffortThresholds(large=20_000)
        )
        assert len(stats) == 2  # CARS + VCS for the single machine
        assert {s.scheduler for s in stats} == {"CARS", "VCS"}

    def test_cross_input_experiment_shape(self, small_workload):
        grouped = run_cross_input_experiment(
            [small_workload], [paper_2c_8i_1lat()], vcs_config=VcsConfig(work_budget=20_000)
        )
        rows = grouped["2clust 1b 1lat"]
        assert len(rows) == 1
        assert rows[0].n_blocks == small_workload.n_blocks
