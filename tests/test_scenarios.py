"""Tests for the scenario matrix: machine specs/families, interconnect
topologies, workload families and the matrix driver + CLI."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.analysis.experiments import run_scenario_matrix
from repro.api import schedule_many
from repro.machine import (
    BusConfig,
    ClusterConfig,
    ClusteredMachine,
    ClusterSpec,
    InterconnectConfig,
    MachineSpec,
    PointToPointConfig,
    RingConfig,
    all_machine_specs,
    machine_by_name,
    machine_families,
    machine_family,
    paper_configurations,
)
from repro.runner import BatchScheduler, CacheSpec, enumerate_workload_jobs, fingerprint_digest
from repro.scheduler import (
    CarsScheduler,
    Schedule,
    VcsConfig,
    VirtualClusterScheduler,
    validate_schedule,
)
from repro.scheduler.schedule import ScheduledComm
from repro.workloads import (
    all_kernels,
    build_family,
    build_suite,
    profile_by_name,
    workload_families,
    workload_family,
    workload_family_names,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --------------------------------------------------------------------------- #
# interconnect topologies
# --------------------------------------------------------------------------- #
class TestInterconnect:
    def test_bus_matches_legacy_semantics(self):
        bus = BusConfig(count=2, latency=3, pipelined=False)
        assert bus.topology == "bus"
        assert bus.effective_latency(4) == 3
        assert bus.effective_occupancy(4) == 3
        assert bus.channel_count(4) == 2

    def test_ring_worst_case_hops(self):
        ring = RingConfig(count=1, latency=1)
        assert ring.effective_latency(2) == 1
        assert ring.effective_latency(4) == 2
        assert ring.effective_latency(8) == 4
        assert ring.channel_count(8) == 1

    def test_p2p_single_hop_per_cluster_ports(self):
        p2p = PointToPointConfig(count=1, latency=2, pipelined=False)
        assert p2p.effective_latency(8) == 2
        assert p2p.effective_occupancy(8) == 2
        assert p2p.channel_count(4) == 4

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            InterconnectConfig(topology="mesh")

    def test_machine_properties_delegate(self):
        machine = machine_by_name("4c-ring-lat1")
        assert machine.copy_latency == 2
        assert machine.copy_occupancy == 1
        assert machine.channel_count == 1

    def test_bus_machine_properties_unchanged(self):
        machine = paper_configurations()[2]  # 4clust 1b 2lat, non-pipelined
        assert machine.copy_latency == 2
        assert machine.copy_occupancy == 2
        assert machine.channel_count == 1


# --------------------------------------------------------------------------- #
# machine specs and families
# --------------------------------------------------------------------------- #
class TestMachineSpec:
    def test_every_spec_round_trips_through_dict(self):
        for name, spec in all_machine_specs().items():
            assert MachineSpec.from_dict(spec.to_dict()) == spec, name

    def test_every_spec_round_trips_through_machine(self):
        for name, spec in all_machine_specs().items():
            machine = spec.to_machine()
            assert MachineSpec.from_machine(machine).to_machine() == machine, name

    def test_specs_pickle(self):
        specs = all_machine_specs()
        assert pickle.loads(pickle.dumps(specs)) == specs

    def test_paper_family_byte_identical_to_presets(self):
        family = machine_family("paper")
        assert family.machines() == paper_configurations()
        # Field-level identity with the historical hard-coded construction.
        legacy = ClusteredMachine(
            name="2clust 1b 1lat",
            clusters=(ClusterConfig.uniform(1), ClusterConfig.uniform(1)),
            bus=BusConfig(count=1, latency=1, pipelined=True),
        )
        assert family.spec("2clust 1b 1lat").to_machine() == legacy

    def test_machine_by_name_and_unknown(self):
        assert machine_by_name("4clust 1b 2lat").n_clusters == 4
        with pytest.raises(KeyError):
            machine_by_name("not-a-machine")
        with pytest.raises(KeyError):
            machine_family("not-a-family")

    def test_family_names_unique_across_registry(self):
        names = [family.name for family in machine_families()]
        assert len(names) == len(set(names))
        all_machine_specs()  # raises on conflicting duplicate spec names

    def test_register_constraint_validated(self):
        with pytest.raises(ValueError):
            ClusterSpec.uniform(n_registers=0)

    def test_duplicate_fu_kinds_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ClusterSpec(fu_counts=(("int", 1), ("int", 4)))

    def test_notes_do_not_affect_equality(self):
        a = MachineSpec.uniform("m", 2, notes="x")
        b = MachineSpec.uniform("m", 2, notes="y")
        assert a == b


class TestNewTopologiesSchedule:
    """Every backend produces validated schedules on the new topologies."""

    @pytest.mark.parametrize(
        "machine_name",
        ["4c-ring-lat1", "8c-ring-lat1", "2c-p2p-lat1", "4c-p2p-lat2"],
    )
    def test_kernels_schedule_and_validate(self, machine_name):
        machine = machine_by_name(machine_name)
        block = all_kernels()["dot"]
        for scheduler in (CarsScheduler(), VirtualClusterScheduler()):
            result = scheduler.schedule(block, machine)
            assert result.ok
            validate_schedule(result.schedule).raise_if_invalid()

    def test_hetero_machine_cars(self):
        machine = machine_by_name("4c-hetero-fp02")
        for block in all_kernels().values():
            result = CarsScheduler().schedule(block, machine)
            assert result.ok
            validate_schedule(result.schedule).raise_if_invalid()

    def test_ring_consumer_waits_for_worst_case_latency(self):
        """On a 4-cluster ring the modelled copy latency is 2, so a consumer
        one cycle after the copy is flagged."""
        machine = machine_by_name("4c-ring-lat1")
        block = all_kernels()["fig1"]
        result = VirtualClusterScheduler().schedule(block, machine)
        assert result.ok
        for comm in result.schedule.comms:
            for consumer in block.graph.consumers_of(comm.value):
                if result.schedule.clusters[consumer] != comm.src_cluster:
                    assert result.schedule.cycles[consumer] >= comm.cycle + 2


class TestRegisterFileConstraint:
    def test_generous_constraint_passes(self):
        machine = machine_by_name("2c-bus1-r32")
        result = VirtualClusterScheduler().schedule(all_kernels()["dot"], machine)
        assert result.ok
        assert validate_schedule(result.schedule).ok

    def test_oversubscribed_register_file_detected(self):
        base = machine_by_name("2c-bus1-r32")
        tight = ClusteredMachine(
            name="2c-r1",
            clusters=tuple(
                ClusterConfig(fu_counts=c.fu_counts, issue_width=c.issue_width, n_registers=1)
                for c in base.clusters
            ),
            bus=base.bus,
        )
        block = all_kernels()["dot"]
        result = VirtualClusterScheduler().schedule(block, base)
        schedule = result.schedule
        constrained = Schedule(
            block=block,
            machine=tight,
            cycles=schedule.cycles,
            clusters=schedule.clusters,
            comms=list(schedule.comms),
        )
        report = validate_schedule(constrained)
        assert any("register" in error for error in report.errors)

    def test_unconstrained_machines_skip_the_check(self):
        machine = paper_configurations()[0]
        block = all_kernels()["dot"]
        result = VirtualClusterScheduler().schedule(block, machine)
        assert validate_schedule(result.schedule).ok

    def test_copy_delivered_value_counts_in_destination(self):
        """A communicated value occupies a register in the destination
        cluster from arrival to last use."""
        machine = machine_by_name("2c-bus1-r32")
        block = all_kernels()["fig1"]
        result = VirtualClusterScheduler().schedule(block, machine)
        if not result.schedule.comms:
            pytest.skip("schedule placed everything in one cluster")
        from repro.scheduler.correctness import _peak_live_values

        peaks = _peak_live_values(result.schedule)
        assert all(peak >= 0 for peak in peaks.values())
        comm = result.schedule.comms[0]
        assert comm.dst_cluster is None or peaks[comm.dst_cluster] >= 1


# --------------------------------------------------------------------------- #
# workload families
# --------------------------------------------------------------------------- #
class TestWorkloadFamilies:
    def test_registry_names_unique(self):
        names = workload_family_names()
        assert len(names) == len(set(names))

    def test_every_family_builds_deterministically(self):
        for family in workload_families():
            first = family.build(1)
            second = family.build(1)
            assert [b.name for w in first for b in w.blocks] == [
                b.name for w in second for b in w.blocks
            ], family.name

    def test_parametric_families_have_the_advertised_character(self):
        membound = workload_family("membound")
        assert all(p.generator.mem_fraction >= 0.5 for p in membound.profiles)
        longchain = workload_family("longchain")
        assert all(p.generator.ilp <= 1.2 for p in longchain.profiles)
        exitdense = workload_family("exitdense")
        assert all(p.generator.exit_every <= 3 for p in exitdense.profiles)

    def test_kernel_family_fixed_blocks(self):
        workloads = build_family("kernels")
        assert len(workloads) == 1
        assert [b.name for b in workloads[0].blocks] == [b.name for b in all_kernels().values()]

    def test_unknown_family_raises_with_known_names(self):
        with pytest.raises(KeyError, match="ilp-sweep"):
            workload_family("desktop")


# --------------------------------------------------------------------------- #
# the matrix driver
# --------------------------------------------------------------------------- #
class TestScenarioMatrix:
    def test_cells_cover_the_cross_product(self):
        cells, records = run_scenario_matrix(
            ["p2p"], ["exitdense", "kernels"], backends=("vcs",), blocks_per_benchmark=1
        )
        keys = {(c.machine, c.workload_family, c.backend) for c in cells}
        machines = {spec.name for spec in machine_family("p2p").specs}
        assert keys == {(m, wf, "vcs") for m in machines for wf in ("exitdense", "kernels")}
        assert all(c.schedule_digest for c in cells)
        assert all(c.n_blocks > 0 for c in cells)

    def test_parallel_matches_serial(self):
        serial, _ = run_scenario_matrix(
            ["ring"],
            ["kernels"],
            backends=("cars", "vcs"),
            blocks_per_benchmark=2,
            runner=BatchScheduler(jobs=1),
        )
        parallel, _ = run_scenario_matrix(
            ["ring"],
            ["kernels"],
            backends=("cars", "vcs"),
            blocks_per_benchmark=2,
            runner=BatchScheduler(jobs=2),
        )
        assert [c.as_row() for c in serial] == [c.as_row() for c in parallel]

    def test_overlapping_workload_families_rejected(self):
        with pytest.raises(ValueError, match="non-overlapping"):
            run_scenario_matrix(["paper"], ["paper", "specint"], blocks_per_benchmark=1)

    def test_shared_machine_names_deduplicated(self):
        # cluster-sweep and bus-sweep both contain 4c-bus1-lat1.
        cells, _ = run_scenario_matrix(
            ["cluster-sweep", "bus-sweep"],
            ["kernels"],
            backends=("cars",),
            blocks_per_benchmark=1,
        )
        machines = [c.machine for c in cells]
        assert len(machines) == len(set(machines))


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
class TestScenarioCli:
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

    def test_list_machine_families(self):
        proc = self._run("--list-machine-families")
        assert proc.returncode == 0
        for name in ("paper", "ring", "p2p", "bus-sweep"):
            assert name in proc.stdout

    def test_list_workload_families(self):
        proc = self._run("--list-workload-families")
        assert proc.returncode == 0
        for name in ("ilp-sweep", "membound", "exitdense", "kernels"):
            assert name in proc.stdout

    def test_list_machines_covers_every_family(self):
        proc = self._run("--list-machines")
        assert proc.returncode == 0
        for name in ("2clust 1b 1lat", "4c-ring-lat1", "2c-p2p-lat1"):
            assert name in proc.stdout

    def test_unknown_machine_family_exits_nonzero(self):
        proc = self._run("--experiment", "matrix", "--machine-family", "nope")
        assert proc.returncode != 0
        assert "unknown machine family" in proc.stderr

    def test_unknown_workload_family_exits_nonzero(self):
        proc = self._run("--experiment", "matrix", "--workload-family", "nope")
        assert proc.returncode != 0
        assert "unknown workload family" in proc.stderr

    def test_matrix_experiment_runs(self, tmp_path):
        out = tmp_path / "matrix.json"
        proc = self._run(
            "--experiment",
            "matrix",
            "--machine-family",
            "p2p",
            "--workload-family",
            "kernels",
            "--blocks",
            "1",
            "--quiet",
            "--output",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        import json

        results = json.loads(out.read_text())["results"]
        # Matrix-only runs do not generate (or list) the figure suite.
        assert results["workload"]["benchmarks"] == []
        assert results["matrix"]["workload_families"] == ["kernels"]
        assert len(results["matrix"]["cells"]) == 6

    def test_speedup_report_has_the_per_job_digest_map(self, tmp_path):
        """``results["jobs"]`` maps each runner job id to the job's digest
        and ``dp_work``, equal to a library run of the same jobs."""
        import json

        out = tmp_path / "speedup.json"
        machine = "2clust 1b 1lat"
        proc = self._run(
            "--experiment", "speedup",
            "--benchmarks", "130.li",
            "--blocks", "2",
            "--machines", machine,
            "--budget", "20000",
            "--no-cache",
            "--quiet",
            "--output", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        results = json.loads(out.read_text())["results"]
        (workload,) = build_suite([profile_by_name("130.li")], blocks_per_benchmark=2)
        requests = enumerate_workload_jobs(
            workload.name,
            workload.blocks,
            all_machine_specs()[machine].to_machine(),
            vcs_config=VcsConfig(work_budget=20_000),
        )
        batch = schedule_many(requests, cache=CacheSpec.disabled())
        assert results["jobs"] == {
            request.job_id: {
                "digest": fingerprint_digest([result.fingerprint()]),
                "dp_work": result.work,
            }
            for request, result in zip(requests, batch.values)
        }
        assert sum(job["dp_work"] for job in results["jobs"].values()) == (
            results["dp_work"][machine]
        )

    def test_no_cache_and_cache_dir_conflict(self):
        proc = self._run("--no-cache", "--cache-dir", "/tmp/x")
        assert proc.returncode != 0
        assert "mutually exclusive" in proc.stderr
        assert "--no-cache" in proc.stderr and "--cache-dir" in proc.stderr

    def test_cache_dir_must_be_a_directory(self, tmp_path):
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("file, not a directory")
        proc = self._run("--cache-dir", str(not_a_dir))
        assert proc.returncode != 0
        assert "not a directory" in proc.stderr
        assert str(not_a_dir) in proc.stderr

    def _matrix_args(self, out, *extra):
        return (
            "--experiment", "matrix",
            "--machine-family", "p2p",
            "--workload-family", "kernels",
            "--blocks", "1",
            "--quiet",
            "--output", str(out),
            *extra,
        )

    def test_cache_dir_serves_warm_rerun_from_cache(self, tmp_path):
        import json

        cache_dir = tmp_path / "cache"
        cold_out, warm_out = tmp_path / "cold.json", tmp_path / "warm.json"
        cold = self._run(*self._matrix_args(cold_out, "--cache-dir", str(cache_dir)))
        warm = self._run(*self._matrix_args(warm_out, "--cache-dir", str(cache_dir)))
        assert cold.returncode == 0, cold.stderr
        assert warm.returncode == 0, warm.stderr
        cold_report = json.loads(cold_out.read_text())
        warm_report = json.loads(warm_out.read_text())
        assert cold_report["meta"]["cache"]["dir"] == str(cache_dir)
        assert cold_report["meta"]["cache"]["hits"] == 0
        warm_cache = warm_report["meta"]["cache"]
        assert warm_cache["misses"] == 0 and warm_cache["hits"] == warm_cache["lookups"] > 0
        # The warm run recomputed nothing yet reports identical cells.
        assert warm_report["results"]["matrix"] == cold_report["results"]["matrix"]

    def test_no_cache_disables_caching(self, tmp_path):
        import json

        out = tmp_path / "nocache.json"
        proc = self._run(*self._matrix_args(out, "--no-cache"))
        assert proc.returncode == 0, proc.stderr
        cache_meta = json.loads(out.read_text())["meta"]["cache"]
        assert cache_meta["enabled"] is False
        assert cache_meta["dir"] is None
        assert cache_meta["lookups"] == 0


class TestScheduledCommLatency:
    def test_comm_occupies_its_window(self):
        comm = ScheduledComm(value="v", producer=0, cycle=3, src_cluster=0)
        assert comm.occupies(3, occupancy=2)
        assert comm.occupies(4, occupancy=2)
        assert not comm.occupies(5, occupancy=2)
