"""Tests for the parallel batch runner (``repro.runner``).

The hard invariant under test: a parallel batch is byte-identical to a
serial one — same values, same order, same schedule fingerprints — for
any worker count and completion order.  Alongside it: stable
job ids, per-job error capture, worker-crash and timeout propagation,
and ``REPRO_JOBS`` environment handling.
"""

import os
import pickle
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.experiments import run_workload
from repro.api import ScheduleRequest
from repro.machine import MachineSpec, all_machine_specs, paper_2c_8i_1lat, paper_4c_16i_1lat
from repro.runner import (
    BatchError,
    BatchScheduler,
    MachineRef,
    enumerate_workload_jobs,
    fingerprint_digest,
    resolve_jobs,
    run_schedule_job,
    schedule_job_id,
    shared_pool,
    shutdown_shared_pools,
)
from repro.runner import pool as pool_module
from repro.runner.pool import resolve_machine
from repro.scheduler import VcsConfig, machine_digest
from repro.workloads import all_kernels, build_benchmark, profile_by_name, stable_block_id
from repro.workloads.synth import GeneratorConfig, SuperblockGenerator


# --------------------------------------------------------------------------- #
# worker functions (module level so they pickle by reference)
# --------------------------------------------------------------------------- #
def _pid(_):
    return os.getpid()


def _double(x):
    return 2 * x


def _fail_on_multiples_of_three(x):
    if x % 3 == 0:
        raise ValueError(f"refusing {x}")
    return x + 100


def _sleep_long(x):
    time.sleep(60)
    return x


def _exit_hard(x):
    os._exit(3)


def _mark_and_sleep(marker):
    Path(marker).touch()
    time.sleep(60)


def _done_on_retry(marker):
    """Runs long on its first attempt, returns at once on a second one."""
    if Path(marker).exists():
        return "done"
    Path(marker).touch()
    time.sleep(60)


# --------------------------------------------------------------------------- #
# REPRO_JOBS / worker-count resolution
# --------------------------------------------------------------------------- #
class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1
        assert BatchScheduler().n_workers == 1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        assert BatchScheduler().n_workers == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2
        assert BatchScheduler(jobs=2).n_workers == 2

    def test_auto_uses_cpu_count(self, monkeypatch):
        expected = os.cpu_count() or 1
        assert resolve_jobs("auto") == expected
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert resolve_jobs() == expected

    @pytest.mark.parametrize("bad", [0, -1, -8, "many", "0", 1.5])
    def test_nonpositive_and_nonint_rejected(self, bad):
        with pytest.raises(ValueError, match="positive integer or 'auto'"):
            resolve_jobs(bad)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            BatchScheduler().map(_double, [1], on_error="explode")


# --------------------------------------------------------------------------- #
# deterministic merge
# --------------------------------------------------------------------------- #
class TestDeterministicMerge:
    def test_order_preserved_on_the_pool(self):
        values = list(range(23))
        serial = BatchScheduler(jobs=1).map(_double, values)
        parallel = BatchScheduler(jobs=2).map(_double, values)
        assert parallel.values == serial.values == [2 * v for v in values]
        assert parallel.backend == "process"
        assert serial.backend == "serial"

    def test_single_job_runs_on_the_pool_unless_serial(self):
        pooled = BatchScheduler(jobs=2).map(_pid, [0])
        serial = BatchScheduler(jobs=1).map(_pid, [0])
        assert pooled.backend == "process" and pooled.values != [os.getpid()]
        assert serial.backend == "serial" and serial.values == [os.getpid()]


# --------------------------------------------------------------------------- #
# parallel-vs-serial equality on real scheduling jobs
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def mixed_blocks():
    """The paper kernels plus seeded synthetic blocks."""
    gen = SuperblockGenerator(GeneratorConfig(min_ops=10, max_ops=20), seed=3)
    return list(all_kernels().values()) + gen.generate_many("runner-synth", 2)


class TestParallelEqualsSerial:
    def test_kernels_and_synthetic_blocks(self, mixed_blocks):
        machine = paper_2c_8i_1lat()
        jobs = enumerate_workload_jobs(
            "runner-test",
            mixed_blocks,
            machine,
            vcs_config=VcsConfig(work_budget=20_000),
        )
        serial = BatchScheduler(jobs=1).map(run_schedule_job, jobs)
        parallel = BatchScheduler(jobs=2).map(run_schedule_job, jobs)

        assert serial.ok and parallel.ok
        for s, p in zip(serial.values, parallel.values):
            assert s.fingerprint() == p.fingerprint()
            assert s.work == p.work
            assert s.ok == p.ok
            if s.ok:
                assert s.awct == p.awct
        assert fingerprint_digest(v.fingerprint() for v in serial.values) == fingerprint_digest(
            v.fingerprint() for v in parallel.values
        )

    def test_run_workload_through_parallel_runner(self):
        workload = build_benchmark(profile_by_name("130.li").scaled(3))
        machine = paper_4c_16i_1lat()
        config = VcsConfig(work_budget=20_000)
        serial = run_workload(workload, machine, vcs_config=config, runner=BatchScheduler(jobs=1))
        parallel = run_workload(
            workload, machine, vcs_config=config, runner=BatchScheduler(jobs=3)
        )
        assert serial.fingerprints() == parallel.fingerprints()
        assert [r.awct for r in serial.proposed_results] == [
            r.awct for r in parallel.proposed_results
        ]
        assert serial.comparison().speedup == parallel.comparison().speedup


# --------------------------------------------------------------------------- #
# job enumeration and stable ids
# --------------------------------------------------------------------------- #
class TestJobEnumeration:
    def test_ids_are_stable_and_self_describing(self, mixed_blocks):
        machine = paper_2c_8i_1lat()
        first = enumerate_workload_jobs("w", mixed_blocks, machine)
        second = enumerate_workload_jobs("w", mixed_blocks, machine)
        assert [j.job_id for j in first] == [j.job_id for j in second]
        # Canonical order: blocks in position order, cars before vcs.
        assert first[0].backend == "cars" and first[1].backend == "vcs"
        assert first[0].job_id == schedule_job_id(
            "cars", "w", machine.name, 0, mixed_blocks[0].name
        )
        assert len(first) == 2 * len(mixed_blocks)
        assert len({j.job_id for j in first}) == len(first)

    def test_workload_block_ids(self):
        workload = build_benchmark(profile_by_name("130.li").scaled(2))
        assert workload.block_ids == [workload.block_id(0), workload.block_id(1)]
        assert workload.block_id(1).startswith("130.li[0001]:")
        # One id scheme across the system: job ids embed the block id.
        block_id = stable_block_id("130.li", 1, workload.blocks[1].name)
        assert workload.block_id(1) == block_id
        job_id = schedule_job_id("vcs", "130.li", "m", 1, workload.blocks[1].name)
        assert job_id == f"vcs:m:{block_id}"

    def test_unknown_scheduler_rejected(self, mixed_blocks):
        with pytest.raises(ValueError):
            ScheduleRequest(
                backend="llvm",
                job_name="x",
                block=mixed_blocks[0],
                machine=paper_2c_8i_1lat(),
            )


# --------------------------------------------------------------------------- #
# failure propagation
# --------------------------------------------------------------------------- #
class TestFailurePropagation:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "process"])
    def test_job_error_capture(self, jobs):
        values = list(range(7))
        result = BatchScheduler(jobs=jobs).map(
            _fail_on_multiples_of_three, values, on_error="capture"
        )
        assert [f.index for f in result.failures] == [0, 3, 6]
        for failure in result.failures:
            assert failure.kind == "error"
            assert failure.error_type == "ValueError"
            assert "refusing" in failure.message
            assert "ValueError" in failure.traceback_text
        assert [v for v in result.values if v is not None] == [101, 102, 104, 105]

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "process"])
    def test_job_error_raises_batch_error(self, jobs):
        with pytest.raises(BatchError) as excinfo:
            BatchScheduler(jobs=jobs).map(_fail_on_multiples_of_three, [3])
        assert excinfo.value.failures[0].error_type == "ValueError"
        assert "refusing 3" in str(excinfo.value)

    def test_worker_crash_propagates(self):
        result = BatchScheduler(jobs=2).map(
            _exit_hard, [1, 2, 3, 4], on_error="capture"
        )
        assert len(result.failures) == 4
        assert all(v is None for v in result.values)
        assert any(f.kind == "crash" for f in result.failures)
        with pytest.raises(BatchError):
            BatchScheduler(jobs=2).map(_exit_hard, [1, 2])

    def test_crash_while_submitting_fails_the_batch(self, monkeypatch):
        # Slow submission down until a warm worker's crash breaks the pool
        # before the batch's last job is submitted.
        submit = ProcessPoolExecutor.submit

        def slow_submit(self, fn, *args, **kwargs):
            future = submit(self, fn, *args, **kwargs)
            time.sleep(0.3)
            return future

        runner = BatchScheduler(jobs=2)
        assert runner.map(_double, [1, 2]).values == [2, 4]
        monkeypatch.setattr(ProcessPoolExecutor, "submit", slow_submit)
        result = runner.map(_exit_hard, [1, 2, 3, 4], on_error="capture")
        assert len(result.failures) == 4
        assert {f.kind for f in result.failures} <= {"crash", "cancelled"}
        assert "crash" in {f.kind for f in result.failures}

    def test_timeout_tears_the_pool_down(self):
        start = time.perf_counter()
        result = BatchScheduler(jobs=2, timeout=0.5).map(
            _sleep_long, [1, 2, 3], on_error="capture"
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 30, "timeout did not preempt the sleeping workers"
        assert len(result.failures) == 3
        kinds = {f.kind for f in result.failures}
        assert "timeout" in kinds
        assert kinds <= {"timeout", "cancelled", "crash"}

    def test_mismatched_job_ids_rejected(self):
        with pytest.raises(ValueError):
            BatchScheduler().map(_double, [1, 2], job_ids=["only-one"])


# --------------------------------------------------------------------------- #
# persistent shared pool
# --------------------------------------------------------------------------- #
@pytest.fixture()
def clean_pools():
    """Isolate each test from pools created by earlier batches."""
    shutdown_shared_pools()
    yield
    shutdown_shared_pools()


class TestPersistentPool:
    def test_pool_survives_across_batches(self, clean_pools):
        runner = BatchScheduler(jobs=2, persistent=True)
        first = runner.map(_double, [1, 2, 3])
        second = runner.map(_double, [4, 5, 6])
        assert first.values == [2, 4, 6] and second.values == [8, 10, 12]
        pool = shared_pool(2)
        assert pool.alive
        assert pool.spin_ups == 1, "second batch must reuse the first batch's executor"
        assert pool.batches_served == 2

    def test_two_runners_share_one_pool(self, clean_pools):
        BatchScheduler(jobs=2, persistent=True).map(_double, [1, 2])
        BatchScheduler(jobs=2, persistent=True).map(_double, [3, 4])
        assert shared_pool(2).spin_ups == 1

    def test_crash_replaces_pool_and_next_batch_recovers(self, clean_pools):
        runner = BatchScheduler(jobs=2, persistent=True)
        crashed = runner.map(_exit_hard, [1, 2, 3], on_error="capture")
        assert not crashed.ok and any(f.kind == "crash" for f in crashed.failures)
        # The broken executor was discarded; a fresh one serves the next batch.
        after = runner.map(_double, [5, 6])
        assert after.ok and after.values == [10, 12]
        assert shared_pool(2).spin_ups == 2

    def test_timeout_replaces_pool_and_next_batch_recovers(self, clean_pools):
        runner = BatchScheduler(jobs=2, timeout=0.5, persistent=True)
        timed_out = runner.map(_sleep_long, [1, 2], on_error="capture")
        assert {f.kind for f in timed_out.failures} <= {"timeout", "cancelled", "crash"}
        after = BatchScheduler(jobs=2, persistent=True).map(_double, [7, 8])
        assert after.ok and after.values == [14, 16]

    def test_timeout_spares_a_concurrent_batch_on_the_pool(self, clean_pools, tmp_path):
        """One batch's timeout kills the shared pool's workers; the job of
        another batch that was running on them is resubmitted, not failed."""
        runner = BatchScheduler(jobs=2, timeout=3.0, persistent=True)
        guilty_started, innocent_ran = tmp_path / "guilty", tmp_path / "innocent"
        results = {}

        def run(name, fn, marker):
            results[name] = runner.map(fn, [str(marker)], on_error="capture")

        guilty = threading.Thread(target=run, args=("guilty", _mark_and_sleep, guilty_started))
        guilty.start()
        deadline = time.monotonic() + 30
        while not guilty_started.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert guilty_started.exists()
        innocent = threading.Thread(target=run, args=("innocent", _done_on_retry, innocent_ran))
        innocent.start()
        guilty.join(timeout=60)
        innocent.join(timeout=60)
        assert not guilty.is_alive() and not innocent.is_alive()
        assert [f.kind for f in results["guilty"].failures] == ["timeout"]
        assert innocent_ran.exists(), "the innocent job must have been running at the kill"
        assert results["innocent"].ok and results["innocent"].values == ["done"]

    def test_stale_replace_keeps_a_fresh_executor(self, clean_pools):
        pool = shared_pool(2)
        stale = pool.executor()
        pool.replace(stale)
        fresh = pool.executor()
        # A second batch that saw the same executor fail replaces nothing.
        pool.replace(stale)
        assert pool.executor() is fresh and pool.spin_ups == 2

    def test_concurrent_one_job_batches_share_the_pool(self, clean_pools):
        runner = BatchScheduler(jobs=2, persistent=True)
        results = {}

        def submit(thread):
            for index in range(4):
                value = thread * 10 + index
                results[value] = runner.map(_double, [value]).values

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {value: [2 * value] for value in results} and len(results) == 32
        pool = shared_pool(2)
        assert pool.batches_served == 32 and pool.spin_ups == 1

    def test_fresh_mode_leaves_no_shared_pool(self, clean_pools):
        result = BatchScheduler(jobs=2, persistent=False).map(_double, [1, 2, 3])
        assert result.values == [2, 4, 6]
        assert not shared_pool(2).alive

    def test_parallel_schedule_results_identical_on_shared_pool(
        self, clean_pools, mixed_blocks
    ):
        machine = paper_2c_8i_1lat()
        jobs = enumerate_workload_jobs(
            "pool-test",
            mixed_blocks,
            machine,
            vcs_config=VcsConfig(work_budget=20_000),
        )
        serial = BatchScheduler(jobs=1).map(run_schedule_job, jobs)
        runner = BatchScheduler(jobs=2, persistent=True)
        first = runner.map(run_schedule_job, jobs)
        second = runner.map(run_schedule_job, jobs)
        assert shared_pool(2).spin_ups == 1
        for s, a, b in zip(serial.values, first.values, second.values):
            assert s.fingerprint() == a.fingerprint() == b.fingerprint()
            assert s.work == a.work == b.work


class TestMachineInterning:
    def test_machine_ref_round_trips(self, monkeypatch):
        """Every registered machine (buses, rings, point-to-point links),
        plus a ``copies_use_issue`` variant that no family registers,
        survives a pickled ref."""
        monkeypatch.setattr(pool_module, "_MACHINES", {})
        specs = all_machine_specs()
        assert {spec.topology for spec in specs.values()} == {"bus", "ring", "p2p"}
        copies = replace(specs["2clust 1b 1lat"], name="2clust copies", copies_use_issue=True)
        specs[copies.name] = copies
        for name, spec in sorted(specs.items()):
            machine = spec.to_machine()
            ref = pickle.loads(pickle.dumps(MachineRef.of(machine)))
            rebuilt = resolve_machine(ref)
            assert machine_digest(rebuilt) == ref.digest == machine_digest(machine), name
            assert MachineSpec.from_machine(rebuilt) == MachineSpec.from_machine(machine), name
            # Same digest resolves to the same interned object.
            assert resolve_machine(ref) is rebuilt, name


# --------------------------------------------------------------------------- #
# fingerprint digests
# --------------------------------------------------------------------------- #
class TestFingerprintDigest:
    def test_digest_is_stable_and_discriminating(self):
        a = [["b", [[0, 1]], [[0, 0]], []]]
        assert fingerprint_digest(a) == fingerprint_digest(list(a))
        assert fingerprint_digest(a) != fingerprint_digest(a + a)
        assert len(fingerprint_digest(a)) == 64
