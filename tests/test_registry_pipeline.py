"""Tests for the scheduler-backend registry and the decision-stage pipeline.

Covers the registry round-trips (``create(name, config)`` for every
registered backend on the paper kernels, with every backend's output
checked against the dependence/resource model), the picklable
``BackendSpec``/``VcsConfig`` configuration layer, parallel-vs-serial
byte-equality for a mixed-backend batch, and the stage pipeline's
composition rules.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.machine import paper_2c_8i_1lat, paper_4c_16i_2lat, paper_configurations
from repro.api import ScheduleRequest, schedule_many
from repro.runner import BatchScheduler, CacheSpec, enumerate_workload_jobs, run_schedule_job
from repro.scheduler import (
    BackendSpec,
    CarsScheduler,
    SchedulePolicy,
    UnknownBackendError,
    UnknownStageError,
    VcsConfig,
    VirtualClusterScheduler,
    available_backends,
    available_stages,
    backend_info,
    create,
    resolve_stage_order,
    validate_schedule,
)
from repro.scheduler.pipeline import (
    DEFAULT_STAGE_ORDER,
    EAGER_STAGE_ORDER,
    STAGE_EXTRACTION,
)
from repro.scheduler import candidates as cand
from repro.workloads import dot_product_kernel, fir_kernel, paper_figure1_block

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KERNELS = [paper_figure1_block(), fir_kernel(taps=3), dot_product_kernel(width=3)]
MACHINES = [paper_2c_8i_1lat(), paper_4c_16i_2lat()]


# --------------------------------------------------------------------------- #
# registry round-trips + per-backend schedule validation
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(available_backends()) >= {"cars", "vcs", "list"}

    def test_unknown_backend_raises(self):
        with pytest.raises(UnknownBackendError):
            create("does-not-exist")
        with pytest.raises(ValueError):  # UnknownBackendError is a ValueError
            backend_info("does-not-exist")

    @pytest.mark.parametrize("name", ["cars", "vcs", "list"])
    def test_create_round_trip_produces_valid_schedules(self, name):
        """Every registered backend schedules the paper kernels, and every
        schedule passes the dependence/resource correctness model."""
        backend = create(name, vcs_config=VcsConfig(work_budget=40_000))
        for machine in MACHINES:
            for block in KERNELS:
                result = backend.schedule(block, machine)
                assert result.ok, f"{name} produced no schedule for {block.name}"
                report = validate_schedule(result.schedule)
                assert report.ok, f"{name}/{block.name}: {report.errors}"

    def test_cars_and_list_validated_on_all_paper_machines(self):
        """The baselines' schedules hold up on every paper configuration
        (historically only VCS output was validated in tests)."""
        for name in ("cars", "list"):
            backend = create(name)
            for machine in paper_configurations():
                for block in KERNELS:
                    result = backend.schedule(block, machine)
                    report = validate_schedule(result.schedule)
                    assert report.ok, f"{name}/{machine.name}/{block.name}: {report.errors}"

    def test_vcs_backend_matches_direct_instantiation(self):
        """The registry's "vcs" (CARS fallback composed in) is byte-identical
        to constructing the scheduler directly."""
        block, machine = KERNELS[1], MACHINES[0]
        via_registry = create("vcs").schedule(block, machine)
        direct = VirtualClusterScheduler().schedule(block, machine)
        assert via_registry.fingerprint() == direct.fingerprint()

    def test_vcs_fallback_is_composed_backend(self):
        """With a zero budget the composed fallback produces the schedule."""
        config = VcsConfig(work_budget=0)
        result = create("vcs", vcs_config=config).schedule(KERNELS[0], MACHINES[0])
        assert result.fallback_used
        assert result.ok
        baseline = CarsScheduler().schedule(KERNELS[0], MACHINES[0])
        assert result.schedule.fingerprint() == baseline.schedule.fingerprint()


# --------------------------------------------------------------------------- #
# the picklable config layer
# --------------------------------------------------------------------------- #
class TestConfigLayer:
    def test_vcs_config_dict_round_trip(self):
        config = VcsConfig(
            work_budget=123,
            enable_plc=False,
            stage_order=("combinations", "fix-cycles"),
            policy=SchedulePolicy(max_probes=50),
        )
        assert VcsConfig.from_dict(config.to_dict()) == config

    def test_vcs_config_string_coercion(self):
        config = VcsConfig.from_dict(
            {"work_budget": "200", "enable_plc": "0", "stage1_slack_limit": "1.5"}
        )
        assert config.work_budget == 200
        assert config.enable_plc is False
        assert config.stage1_slack_limit == 1.5

    def test_vcs_config_rejects_unknown_keys(self):
        # The removed probing modes must fail loudly, not be silently ignored.
        for key in (
            "no_such_knob",
            "probe_cache",
            "queue_mode",
            "prune_candidates",
            "use_trail",
            "probe_early_cut",
            "cycle_hints",
        ):
            with pytest.raises(ValueError, match="unknown VcsConfig keys"):
                VcsConfig.from_dict({key: 1})

    def test_backend_spec_env_rejects_removed_knob(self):
        for knob in (
            "REPRO_VCS_PROBE_CACHE",
            "REPRO_VCS_USE_TRAIL",
            "REPRO_VCS_PROBE_EARLY_CUT",
            "REPRO_VCS_CYCLE_HINTS",
        ):
            with pytest.raises(ValueError, match="unknown VcsConfig keys"):
                BackendSpec.from_env(env={knob: "0"})

    def test_backend_spec_round_trip_all_backends(self):
        for name in available_backends():
            spec = BackendSpec(name=name, vcs=VcsConfig(work_budget=500))
            restored = BackendSpec.from_dict(spec.to_dict())
            assert restored == spec
            assert restored.create().name  # instantiates

    def test_backend_spec_rejects_unknown_backend(self):
        with pytest.raises(UnknownBackendError):
            BackendSpec(name="nope")
        with pytest.raises(ValueError):
            BackendSpec.from_dict({"name": "nope"})
        # The removed hybrid backend is an unknown name, in the
        # environment too.
        with pytest.raises(UnknownBackendError, match="registered: cars, vcs, list"):
            BackendSpec.from_dict({"name": "hybrid"})
        with pytest.raises(UnknownBackendError):
            BackendSpec.from_env(env={"REPRO_SCHEDULER": "hybrid"})

    def test_backend_spec_env_overrides(self):
        env = {"REPRO_SCHEDULER": "list", "REPRO_VCS_WORK_BUDGET": "777"}
        spec = BackendSpec.from_env(env=env)
        assert spec.name == "list"
        assert spec.vcs.work_budget == 777

    def test_env_overrides_coerce_sequence_fields(self):
        env = {
            "REPRO_VCS_STAGE_ORDER": "combinations,fix-cycles",
            "REPRO_VCS_POLICY": "max_probes=50",
        }
        spec = BackendSpec.from_env(env=env)
        assert spec.vcs.stage_order == ("combinations", "fix-cycles")
        assert spec.vcs.policy == SchedulePolicy(max_probes=50)
        assert resolve_stage_order(spec.vcs)[-1] == STAGE_EXTRACTION
        # Overrides stack on an explicit base without clobbering it.
        base = BackendSpec(name="vcs", vcs=VcsConfig(enable_plc=False))
        spec = BackendSpec.from_env(base=base, env={"REPRO_VCS_WORK_BUDGET": "9"})
        assert spec.name == "vcs"
        assert spec.vcs.enable_plc is False
        assert spec.vcs.work_budget == 9

    def test_schedule_job_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            ScheduleRequest(
                backend="not-a-backend",
                job_name="x",
                block=KERNELS[0],
                machine=MACHINES[0],
            )


# --------------------------------------------------------------------------- #
# the stage pipeline
# --------------------------------------------------------------------------- #
class TestStagePipeline:
    def test_default_and_eager_orders(self):
        assert resolve_stage_order(VcsConfig()) == DEFAULT_STAGE_ORDER
        assert resolve_stage_order(VcsConfig(eager_mapping=True)) == EAGER_STAGE_ORDER

    def test_extraction_always_appended(self):
        order = resolve_stage_order(VcsConfig(stage_order=("combinations", "fix-cycles")))
        assert order[-1] == STAGE_EXTRACTION

    def test_unknown_stage_rejected(self):
        with pytest.raises(UnknownStageError):
            resolve_stage_order(VcsConfig(stage_order=("combinations", "bogus")))

    def test_premature_extraction_rejected(self):
        """Extraction before the decision stages would silently degrade
        every block to the fallback; the pipeline refuses the order."""
        with pytest.raises(UnknownStageError, match="must come last"):
            resolve_stage_order(
                VcsConfig(stage_order=(STAGE_EXTRACTION, "combinations"))
            )

    def test_available_stages_cover_the_paper(self):
        assert tuple(available_stages()) == DEFAULT_STAGE_ORDER

    def test_explicit_paper_order_is_byte_identical_to_default(self):
        block, machine = KERNELS[0], MACHINES[0]
        default = VirtualClusterScheduler().schedule(block, machine)
        explicit = VirtualClusterScheduler(
            VcsConfig(stage_order=DEFAULT_STAGE_ORDER)
        ).schedule(block, machine)
        assert default.fingerprint() == explicit.fingerprint()

    def test_eager_flag_matches_explicit_eager_order(self):
        block, machine = KERNELS[0], MACHINES[0]
        flag = VirtualClusterScheduler(VcsConfig(eager_mapping=True)).schedule(block, machine)
        explicit = VirtualClusterScheduler(
            VcsConfig(stage_order=EAGER_STAGE_ORDER)
        ).schedule(block, machine)
        assert flag.fingerprint() == explicit.fingerprint()

    def test_stage_timings_reported(self):
        result = VirtualClusterScheduler().schedule(KERNELS[0], MACHINES[0])
        assert set(result.stage_timings) <= set(DEFAULT_STAGE_ORDER)
        assert all(entry["calls"] >= 1 for entry in result.stage_timings.values())
        # Timings never leak into the determinism fingerprint.
        assert "stage_timings" not in str(result.fingerprint())

    def test_cycle_candidate_hints(self):
        """Hints fill the non-estart slots with the nearest window cycles,
        never widen the window, keep estart probed (the ForbidCycle
        progress mechanism depends on it), and return ascending cycles
        (the winner selection is order-independent)."""
        class FakeState:
            estart = {0: 2}
            lstart = {0: 9}

        plain = cand.cycle_candidates(FakeState(), 0, 3)
        assert plain == [2, 3, 4]
        hinted = cand.cycle_candidates(FakeState(), 0, 3, hint=7)
        assert hinted == [2, 6, 7]
        assert cand.cycle_candidates(FakeState(), 0, 3, hint=0) == [2, 3, 4]
        assert cand.cycle_candidates(FakeState(), 0, 3, hint=50) == [2, 8, 9]
        # estart survives any hint, at any count.
        for hint in range(0, 12):
            for count in range(1, 5):
                assert cand.cycle_candidates(FakeState(), 0, count, hint=hint)[0] == 2


# --------------------------------------------------------------------------- #
# mixed-backend batches through the parallel runner
# --------------------------------------------------------------------------- #
class TestMixedBackendBatches:
    @staticmethod
    def _jobs():
        return enumerate_workload_jobs(
            "mixed",
            KERNELS[:2],
            MACHINES[0],
            vcs_config=VcsConfig(work_budget=40_000),
            schedulers=("cars", "list", "vcs"),
        )

    def test_parallel_equals_serial_for_mixed_backends(self):
        jobs = self._jobs()
        serial = BatchScheduler(jobs=1).map(run_schedule_job, jobs)
        parallel = BatchScheduler(jobs=2).map(run_schedule_job, jobs)
        assert serial.ok and parallel.ok
        serial_fps = [result.fingerprint() for result in serial.values]
        parallel_fps = [result.fingerprint() for result in parallel.values]
        assert serial_fps == parallel_fps
        # The same cases through schedule_many's one payload path, serial
        # and on the pool, cold.
        for workers in (1, 2):
            batch = schedule_many(
                jobs, runner=BatchScheduler(jobs=workers), cache=CacheSpec.disabled()
            )
            assert [result.fingerprint() for result in batch.values] == serial_fps

    def test_worker_validates_every_backend_schedule(self):
        """check_schedule=True runs the correctness model inside the worker
        for every backend kind (no exception = every schedule valid)."""
        for job, result in zip(self._jobs(), map(run_schedule_job, self._jobs())):
            assert result.ok, job.job_id


# --------------------------------------------------------------------------- #
# CLI discovery flags (satellite: --list-schedulers / --list-machines)
# --------------------------------------------------------------------------- #
class TestRunSuiteCli:
    @staticmethod
    def _run(*argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "suite", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )

    def test_list_schedulers(self):
        proc = self._run("--list-schedulers")
        assert proc.returncode == 0
        for name in ("cars", "vcs", "list"):
            assert name in proc.stdout
        assert "hybrid" not in proc.stdout

    def test_list_machines(self):
        proc = self._run("--list-machines")
        assert proc.returncode == 0
        assert "2clust 1b 1lat" in proc.stdout

    def test_unknown_scheduler_exits_nonzero(self):
        proc = self._run("--scheduler", "nope")
        assert proc.returncode != 0
        assert "unknown scheduler" in proc.stderr

    def test_unknown_machine_exits_nonzero(self):
        proc = self._run("--machines", "nope")
        assert proc.returncode != 0
        assert "unknown machine" in proc.stderr

    def test_unknown_stage_exits_nonzero(self):
        proc = self._run("--stages", "combinations,bogus")
        assert proc.returncode != 0
        assert "unknown stage" in proc.stderr
