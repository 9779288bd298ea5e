#!/usr/bin/env python
"""Hot-path benchmark report: emit ``BENCH_vcs.json``.

Runs the proposed scheduler over the paper's three machine configurations
(2c-8i-1lat, 4c-16i-1lat, 4c-16i-2lat) on the hand-written kernels plus a
seeded synthetic workload, and records for each configuration and probing
mode (trail vs legacy copy):

* wall time and schedules/second,
* deterministic DP work (deduction rule firings), including the per-rule-
  class split (``dp_rule_<RuleName>`` counters),
* trail counters (probes, rollbacks, redos, copies avoided) and the
  early-cut counter, plus the share of the VCS stage wall spent in the
  two probing stages (fix-cycles + fix-communications),
* total AWCT (quality invariance check),
* a SHA-256 digest of every produced schedule (the byte-identity key the
  CI perf-regression gate compares).

A registry sweep additionally runs every scheduler backend
(``cars``/``vcs``/``list``/``hybrid``) over the same workload and records
per-backend ``dp_work`` and schedule digests (gated) plus the VCS
pipeline's per-decision-stage wall-time breakdown (reported only).

A scenario-matrix sample (``ring``/``p2p`` machine families crossed with
the ``membound``/``exitdense`` workload families) records a gated
``dp_work`` + schedule digest per (machine, workload family, backend)
cell, so interconnect-topology and workload-family behaviour is
byte-tracked like the default configurations.

A ``policy`` section records the anytime-quality curve of the budget
policy layer: each block re-scheduled under a ``finalize_partial``
policy at 25/50/75/100% of its own full-run ``dp_work``, with mean AWCT
ratios vs the full run and vs pure CARS, tier transitions and the
partial-finalize rate (the gate requires the section and warns on curve
drift).

The trail-mode workload is run twice through the parallel batch runner
(``repro.runner``): once serially and once with ``--jobs`` workers, so
the report also records the sharded runner's wall-time throughput and
verifies that parallel execution leaves every schedule byte-identical.

Optionally (``--baseline-rev``, default the repository's seed commit) the
same workload is also run against a past git revision in a subprocess, so
the report demonstrates the wall-time speedup of the current hot path and
verifies that the produced schedules are byte-identical to the baseline's.

Usage::

    PYTHONPATH=src python scripts/bench_report.py            # full report
    PYTHONPATH=src python scripts/bench_report.py --skip-baseline --jobs 4
    REPRO_BENCH_BLOCKS=4 PYTHONPATH=src python scripts/bench_report.py

The perf smoke job of CI runs this with ``REPRO_BENCH_BLOCKS=1`` and
``REPRO_JOBS=2``, gates on the result with
``scripts/check_perf_regression.py`` and uploads the JSON as an
artifact, tracking the trajectory from PR 1 onward.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if not any((Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(REPO_ROOT / "src"))

#: The v0 seed revision: copy-per-probe deduction, linear rule dispatch.
DEFAULT_BASELINE_REV = "746df46"

# --------------------------------------------------------------------------- #
# the measurement driver (run in-process for the current tree and as a
# subprocess for the baseline revision — the same code path for fairness)
# --------------------------------------------------------------------------- #
DRIVER = r"""
import json, sys, time


def build_workload(n_synth):
    from repro.workloads import (
        paper_figure1_block, fir_kernel, dot_product_kernel,
        dct_butterfly_kernel, string_search_kernel,
    )
    from repro.workloads.synth import SuperblockGenerator, GeneratorConfig

    blocks = [
        paper_figure1_block(),
        fir_kernel(taps=3),
        dot_product_kernel(width=3),
        dct_butterfly_kernel(),
        string_search_kernel(),
    ]
    gen = SuperblockGenerator(GeneratorConfig(min_ops=24, max_ops=48), seed=7)
    blocks += gen.generate_many("bench-synth", n_synth)
    return blocks


def vcs_config_for(mode):
    if mode == "default":
        return None
    from repro.scheduler import VcsConfig
    try:
        return VcsConfig(use_trail=(mode == "trail"))
    except TypeError:  # revision predates the use_trail knob
        return None


def make_scheduler(mode):
    from repro.scheduler import VirtualClusterScheduler
    config = vcs_config_for(mode)
    return VirtualClusterScheduler() if config is None else VirtualClusterScheduler(config)


def schedule_all(blocks, machine, mode):
    # All proposed-scheduler results for one machine, in block order.
    # Shards across the parallel batch runner when the tree has one
    # (REPRO_JOBS workers); old revisions fall back to the serial loop.
    try:
        from repro.runner import BatchScheduler, ScheduleJob, run_schedule_job, schedule_job_id
    except ImportError:
        return [make_scheduler(mode).schedule(block, machine) for block in blocks]
    jobs = [
        ScheduleJob(
            job_id=schedule_job_id("vcs", "bench", machine.name, index, block.name),
            scheduler="vcs",
            block=block,
            machine=machine,
            vcs_config=vcs_config_for(mode),
            check_schedule=False,
        )
        for index, block in enumerate(blocks)
    ]
    return BatchScheduler().map(run_schedule_job, jobs).values


def main(mode, n_synth, out_path):
    from repro.machine import paper_2c_8i_1lat, paper_4c_16i_1lat, paper_4c_16i_2lat

    machines = [paper_2c_8i_1lat(), paper_4c_16i_1lat(), paper_4c_16i_2lat()]
    blocks = build_workload(n_synth)
    report = {"mode": mode, "machines": []}
    for machine in machines:
        runs, work, fingerprints = 0, 0, []
        stats_total = {}
        awct_total = 0.0
        t0 = time.perf_counter()
        for block, result in zip(blocks, schedule_all(blocks, machine, mode)):
            runs += 1
            work += result.work
            awct_total += result.awct if result.ok else 0.0
            for key, value in getattr(result, "stats", {}).items():
                stats_total[key] = stats_total.get(key, 0) + value
            s = result.schedule
            fingerprints.append([
                block.name,
                sorted(s.cycles.items()) if s else None,
                sorted(s.clusters.items()) if s else None,
                sorted(
                    (c.value, c.producer, c.cycle, c.src_cluster, c.dst_cluster)
                    for c in (s.comms if s else [])
                ),
            ])
        wall = time.perf_counter() - t0
        report["machines"].append({
            "machine": machine.name,
            "wall_time_s": wall,
            "schedules": runs,
            "schedules_per_sec": runs / wall if wall > 0 else None,
            "dp_work": work,
            "awct_total": awct_total,
            "stats": stats_total,
            "fingerprints": fingerprints,
        })
    json.dump(report, open(out_path, "w"))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
"""


def run_driver(python_path: str, mode: str, n_synth: int, jobs: int = 1) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        driver = Path(tmp) / "driver.py"
        out = Path(tmp) / "out.json"
        driver.write_text(DRIVER)
        env = dict(os.environ)
        env["PYTHONPATH"] = python_path
        env["REPRO_JOBS"] = str(jobs)
        subprocess.run(
            [sys.executable, str(driver), mode, str(n_synth), str(out)],
            check=True,
            env=env,
        )
        return json.loads(out.read_text())


def export_revision(rev: str) -> tempfile.TemporaryDirectory:
    """Materialise *rev* into a temporary directory via ``git archive``."""
    tmp = tempfile.TemporaryDirectory(prefix=f"bench-baseline-{rev}-")
    archive = subprocess.run(
        ["git", "archive", rev],
        check=True,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
    )
    with tempfile.NamedTemporaryFile(suffix=".tar") as tar_file:
        tar_file.write(archive.stdout)
        tar_file.flush()
        with tarfile.open(tar_file.name) as tar:
            tar.extractall(tmp.name)
    return tmp


def measure_backends(n_synth: int) -> dict:
    """Serial sweep of every registered scheduler backend over the bench
    workload (current tree only — old revisions predate the registry).

    Returns, per backend and machine, the deterministic ``dp_work`` and a
    SHA-256 digest of every :class:`ScheduleResult` fingerprint (gated by
    the CI perf-regression gate), the wall time (reported, not gated),
    and — for the VCS pipeline — aggregated per-decision-stage call
    counts and wall times."""
    from repro.machine import paper_configurations
    from repro.runner import fingerprint_digest
    from repro.scheduler import available_backends, create

    # build_workload is shared with the DRIVER for workload parity.
    namespace: dict = {"__name__": "bench_driver"}
    exec(compile(DRIVER, "<driver>", "exec"), namespace)
    blocks = namespace["build_workload"](n_synth)

    backends: dict = {}
    for name in available_backends():
        backend = create(name)
        per_machine = []
        stage_totals: dict = {}
        for machine in paper_configurations():
            t0 = time.perf_counter()
            results = [backend.schedule(block, machine) for block in blocks]
            wall = time.perf_counter() - t0
            for result in results:
                for stage, entry in result.stage_timings.items():
                    slot = stage_totals.setdefault(stage, {"calls": 0, "wall_time_s": 0.0})
                    slot["calls"] += entry["calls"]
                    slot["wall_time_s"] += entry["wall_time_s"]
            per_machine.append(
                {
                    "machine": machine.name,
                    "wall_time_s": wall,
                    "dp_work": sum(r.work for r in results),
                    "schedule_digest": fingerprint_digest(r.fingerprint() for r in results),
                    "fallback_blocks": sum(1 for r in results if r.fallback_used),
                }
            )
        entry = {"machines": per_machine}
        if stage_totals:
            entry["stage_timings"] = stage_totals
        backends[name] = entry
    return backends


#: The gated scenario sample: every machine of these families crossed with
#: these workload families (>= 2 interconnect topologies x >= 2 workload
#: families).  Fixed block count so the committed digests are environment
#: independent (REPRO_BENCH_BLOCKS scales only the main bench workload).
SCENARIO_MACHINE_FAMILIES = ("ring", "p2p")
SCENARIO_WORKLOAD_FAMILIES = ("membound", "exitdense")
SCENARIO_BACKENDS = ("vcs",)
SCENARIO_BLOCKS = 1


def measure_scenarios() -> dict:
    """The scenario-matrix sweep the CI gate records (current tree only).

    Runs the proposed backend over a small sample of the scenario matrix —
    ring and point-to-point machines crossed with the memory-bound and
    exit-dense workload families — and records each cell's deterministic
    ``dp_work`` and schedule digest.  Wall time is reported, not gated."""
    from repro.analysis.experiments import run_scenario_matrix

    t0 = time.perf_counter()
    cells, _records = run_scenario_matrix(
        SCENARIO_MACHINE_FAMILIES,
        SCENARIO_WORKLOAD_FAMILIES,
        backends=SCENARIO_BACKENDS,
        blocks_per_benchmark=SCENARIO_BLOCKS,
    )
    return {
        "config": {
            "machine_families": list(SCENARIO_MACHINE_FAMILIES),
            "workload_families": list(SCENARIO_WORKLOAD_FAMILIES),
            "backends": list(SCENARIO_BACKENDS),
            "blocks_per_benchmark": SCENARIO_BLOCKS,
        },
        "wall_time_s": time.perf_counter() - t0,
        "cells": [cell.as_row() for cell in cells],
    }


def measure_runner(n_synth: int, jobs: int) -> dict:
    """The runner-layer performance section (current tree only).

    Three measurements, all on the bench workload with the result cache
    disabled unless stated:

    * **pool** — the same job stream run as several small batches on the
      shared persistent pool (one executor spin-up, reused) vs with a
      fresh ``ProcessPoolExecutor`` per batch (the historical mode); the
      wall-time ratio is the price per-batch spin-up used to charge.
    * **parallel** — warm-pool parallel vs serial wall over the whole
      workload.  The throughput ratio is gated ≥ 1.0 on multi-core hosts
      and *honestly skipped* (explicit ``skipped`` reason) on 1-CPU
      hosts, where a "speedup" would really measure pool overhead.
      Schedule byte-identity serial-vs-parallel is always asserted.
    * **matrix** — the gated 12-cell scenario sample run twice against a
      fresh temp cache: the cold leg computes and stores, the warm leg
      must be 100% cache hits (``warm_recomputed == 0``) with
      byte-identical cell digests.
    """
    from repro.analysis.experiments import run_scenario_matrix
    from repro.machine import paper_configurations
    from repro.api import schedule_many
    from repro.runner import (
        BatchScheduler,
        CacheSpec,
        CacheStats,
        ScheduleJob,
        schedule_job_id,
        shared_pool_stats,
        shutdown_shared_pools,
    )

    namespace: dict = {"__name__": "bench_driver"}
    exec(compile(DRIVER, "<driver>", "exec"), namespace)
    blocks = namespace["build_workload"](n_synth)
    job_list = [
        ScheduleJob(
            job_id=schedule_job_id("vcs", "bench", machine.name, index, block.name),
            scheduler="vcs",
            block=block,
            machine=machine,
            check_schedule=False,
        )
        for machine in paper_configurations()
        for index, block in enumerate(blocks)
    ]
    no_cache = CacheSpec.disabled()
    cpu_count = os.cpu_count() or 1
    n_batches = 4
    batches = [job_list[i::n_batches] for i in range(n_batches)]

    # --- pool reuse vs per-batch spin-up ------------------------------- #
    shutdown_shared_pools()
    reused_runner = BatchScheduler(jobs=jobs, persistent=True)
    # Warm-up batch: spin the shared pool up and pre-import the workers,
    # so the reuse leg measures steady-state batches, not the first spin-up.
    schedule_many(job_list[:2], runner=reused_runner, cache=no_cache)
    t0 = time.perf_counter()
    for batch in batches:
        schedule_many(batch, runner=reused_runner, cache=no_cache)
    reused_wall = time.perf_counter() - t0
    pool_stats = shared_pool_stats()

    fresh_runner = BatchScheduler(jobs=jobs, persistent=False)
    t0 = time.perf_counter()
    for batch in batches:
        schedule_many(batch, runner=fresh_runner, cache=no_cache)
    fresh_wall = time.perf_counter() - t0

    pool = {
        "jobs": jobs,
        "batches": n_batches,
        "batch_jobs": len(job_list),
        "reused_pool_wall_s": reused_wall,
        "fresh_pool_wall_s": fresh_wall,
        "reuse_speedup_vs_fresh": fresh_wall / reused_wall if reused_wall else None,
        "shared_pool_stats": pool_stats,
    }

    # --- warm-pool parallel vs serial throughput ----------------------- #
    serial_runner = BatchScheduler(jobs=1)
    t0 = time.perf_counter()
    serial_batch = schedule_many(job_list, runner=serial_runner, cache=no_cache)
    serial_wall = time.perf_counter() - t0
    # The shared pool is already warm from the pool measurement above.
    t0 = time.perf_counter()
    parallel_batch = schedule_many(job_list, runner=reused_runner, cache=no_cache)
    parallel_wall = time.perf_counter() - t0
    identical = [r.fingerprint() for r in serial_batch.values] == [
        r.fingerprint() for r in parallel_batch.values
    ]
    parallel = {
        "jobs": jobs,
        "cpu_count": cpu_count,
        "serial_wall_s": serial_wall,
        "warm_parallel_wall_s": parallel_wall,
        "schedules_identical_serial_vs_parallel": identical,
    }
    if cpu_count <= 1:
        parallel["throughput_speedup_vs_serial"] = None
        parallel["skipped"] = (
            "single-CPU host: parallel wall time measures pool overhead, "
            "not speedup"
        )
    else:
        parallel["throughput_speedup_vs_serial"] = (
            serial_wall / parallel_wall if parallel_wall else None
        )

    # --- warm vs cold matrix re-run through the result cache ----------- #
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as tmp:
        spec = CacheSpec(root=tmp, enabled=True)
        cold_stats = CacheStats()
        t0 = time.perf_counter()
        cold_cells, _ = run_scenario_matrix(
            SCENARIO_MACHINE_FAMILIES,
            SCENARIO_WORKLOAD_FAMILIES,
            backends=SCENARIO_BACKENDS,
            blocks_per_benchmark=SCENARIO_BLOCKS,
            cache=spec,
            cache_stats=cold_stats,
        )
        cold_wall = time.perf_counter() - t0
        warm_stats = CacheStats()
        t0 = time.perf_counter()
        warm_cells, _ = run_scenario_matrix(
            SCENARIO_MACHINE_FAMILIES,
            SCENARIO_WORKLOAD_FAMILIES,
            backends=SCENARIO_BACKENDS,
            blocks_per_benchmark=SCENARIO_BLOCKS,
            cache=spec,
            cache_stats=warm_stats,
        )
        warm_wall = time.perf_counter() - t0
    matrix = {
        "cells": len(cold_cells),
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "warm_speedup_vs_cold": cold_wall / warm_wall if warm_wall else None,
        "cold_cache": cold_stats.to_dict(),
        "warm_cache": warm_stats.to_dict(),
        "warm_recomputed": warm_stats.misses,
        "digests_identical_warm_vs_cold": (
            [cell.as_row() for cell in cold_cells]
            == [cell.as_row() for cell in warm_cells]
        ),
    }
    return {"pool": pool, "parallel": parallel, "matrix": matrix}


#: Concurrent HTTP clients of the service load benchmark (the gate
#: requires >= 4).
SERVICE_CLIENTS = 4


def measure_service(jobs: int, n_clients: int = SERVICE_CLIENTS) -> dict:
    """The HTTP job-server load benchmark (current tree only).

    Submits the gated 12-cell scenario sample (the same flat job list
    as the ``matrix`` measurement) to a live in-process
    :class:`repro.service.JobServer` with a fresh temp result cache,
    from ``n_clients`` concurrent clients: a cold pass that computes
    and stores, then a warm pass that must be served 100% from cache.
    Gated: the aggregate HTTP schedule digest and ``dp_work`` must be
    byte-identical to the batch path's, and the warm hit rate must be
    1.0.  Submit-to-result latency percentiles are reported, not gated.
    """
    # Runs as a script, so the scripts directory is on sys.path.
    from check_service_identity import batch_reference, http_pass, latency_summary

    from repro.analysis.experiments import scenario_matrix_jobs
    from repro.runner import BatchScheduler, CacheSpec, fingerprint_digest
    from repro.service import ServerThread

    job_list = scenario_matrix_jobs(
        SCENARIO_MACHINE_FAMILIES,
        SCENARIO_WORKLOAD_FAMILIES,
        SCENARIO_BACKENDS,
        blocks_per_benchmark=SCENARIO_BLOCKS,
    )
    reference = batch_reference(job_list, jobs)
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        with ServerThread(
            runner=BatchScheduler(jobs=jobs), cache=CacheSpec(root=tmp)
        ) as server:
            t0 = time.perf_counter()
            cold_responses, cold_latencies, cold_errors = http_pass(
                server.url, job_list, n_clients
            )
            cold_wall = time.perf_counter() - t0
            t0 = time.perf_counter()
            warm_responses, warm_latencies, warm_errors = http_pass(
                server.url, job_list, n_clients
            )
            warm_wall = time.perf_counter() - t0

    def pass_section(responses, latencies, errors, wall):
        done = [r for r in responses if r is not None and r.state == "done"]
        return {
            "wall_s": wall,
            "completed": len(done),
            "errors": len(errors) + sum(1 for r in responses if r is None),
            "cache_hits": sum(1 for r in done if r.cache == "hit"),
            # A digest over the per-job digests (one per response, in
            # submission order) — comparable to the batch-side ``digest``.
            "http_digest": fingerprint_digest([r.digest for r in done]),
            "http_dp_work": sum(r.work for r in done),
            "latency": latency_summary(latencies),
        }

    cold = pass_section(cold_responses, cold_latencies, cold_errors, cold_wall)
    warm = pass_section(warm_responses, warm_latencies, warm_errors, warm_wall)
    n_jobs = len(job_list)
    return {
        "clients": n_clients,
        "workers": jobs,
        "jobs": n_jobs,
        "digest": fingerprint_digest([r["digest"] for r in reference]),
        "dp_work": sum(r["dp_work"] for r in reference),
        "cold": cold,
        "warm": warm,
        "warm_hit_rate": warm["cache_hits"] / n_jobs if n_jobs else 0.0,
        "http_identical_to_batch": (
            cold["http_digest"] == warm["http_digest"]
            and cold["http_dp_work"] == warm["http_dp_work"] == sum(
                r["dp_work"] for r in reference
            )
            and [r.digest if r is not None else None for r in cold_responses]
            == [r["digest"] for r in reference]
        ),
    }


#: The anytime-quality sample: budget fractions of each block's own full-run
#: ``dp_work`` (deterministic, so the recorded curve is environment
#: independent) under a ``finalize_partial`` policy, on one machine.
POLICY_FRACTIONS = (0.25, 0.5, 0.75, 1.0)


def measure_policy(n_synth: int) -> dict:
    """The anytime-quality curve of the budget-policy layer (current tree).

    For every bench block: measure the full (unlimited) VCS run's
    ``dp_work``, then re-run under a ``finalize_partial`` policy whose
    ``max_dp_work`` is 25/50/75/100% of that — each run emits a complete
    valid schedule (partial extraction, fallback, or the real thing) —
    and record AWCT relative to the full run and to the pure-CARS
    baseline, plus tier transitions and the partial-finalize rate.  All
    recorded values are deterministic; the perf gate requires the section
    to exist and warns (never fails) on curve drift."""
    from repro.machine import paper_4c_16i_1lat
    from repro.scheduler import (
        CarsScheduler,
        SchedulePolicy,
        VcsConfig,
        VirtualClusterScheduler,
    )

    namespace: dict = {"__name__": "bench_driver"}
    exec(compile(DRIVER, "<driver>", "exec"), namespace)
    blocks = namespace["build_workload"](n_synth)
    machine = paper_4c_16i_1lat()

    t0 = time.perf_counter()
    per_block = []
    totals = {
        fraction: {"vs_full": 0.0, "vs_cars": 0.0, "partial": 0, "fallback": 0}
        for fraction in POLICY_FRACTIONS
    }
    n_blocks = 0
    for block in blocks:
        full = VirtualClusterScheduler().schedule(block, machine)
        cars = CarsScheduler().schedule(block, machine)
        if not (full.ok and cars.ok):
            continue
        n_blocks += 1
        row = {
            "block": block.name,
            "full_dp_work": full.work,
            "full_awct": full.awct,
            "cars_awct": cars.awct,
            "points": [],
        }
        for fraction in POLICY_FRACTIONS:
            limit = max(1, int(full.work * fraction))
            policy = SchedulePolicy(exhaustion_mode="finalize_partial", max_dp_work=limit)
            result = VirtualClusterScheduler(VcsConfig(policy=policy)).schedule(
                block, machine
            )
            info = result.policy or {}
            row["points"].append(
                {
                    "fraction": fraction,
                    "dp_limit": limit,
                    "awct": result.awct if result.ok else None,
                    "source": info.get("source"),
                    "tier": info.get("tier"),
                    "partial_finalize": bool(info.get("partial_finalize")),
                    "tier_transitions": [t["tier"] for t in info.get("transitions", [])],
                }
            )
            totals[fraction]["vs_full"] += result.awct / full.awct
            totals[fraction]["vs_cars"] += result.awct / cars.awct
            totals[fraction]["partial"] += bool(info.get("partial_finalize"))
            totals[fraction]["fallback"] += bool(result.fallback_used)
        per_block.append(row)

    curve = [
        {
            "fraction": fraction,
            "mean_awct_ratio_vs_full": entry["vs_full"] / n_blocks,
            "mean_awct_ratio_vs_cars": entry["vs_cars"] / n_blocks,
            "partial_finalize_rate": entry["partial"] / n_blocks,
            "fallback_rate": entry["fallback"] / n_blocks,
        }
        for fraction, entry in totals.items()
    ]
    return {
        "config": {
            "machine": machine.name,
            "mode": "finalize_partial",
            "fractions": list(POLICY_FRACTIONS),
        },
        "wall_time_s": time.perf_counter() - t0,
        "anytime_curve": curve,
        "blocks": per_block,
    }


def deduction_counters(report: dict) -> dict:
    """Aggregate the deduction-layer counters of one driver report.

    Sums the per-machine ``stats`` and splits them into the per-rule-class
    ``dp_work`` breakdown and the probing counters.  Reported in the
    summary (and compared by the perf gate as non-gating warnings); the
    gated totals stay ``dp_work`` and the schedule digests."""
    totals: dict = {}
    for machine in report["machines"]:
        for key, value in machine.get("stats", {}).items():
            totals[key] = totals.get(key, 0) + value
    prefix = "dp_rule_"
    by_rule = {
        key.removeprefix(prefix): value
        for key, value in sorted(totals.items())
        if key.startswith(prefix)
    }
    return {
        "dp_work_by_rule": by_rule,
        "probing": {
            "probes": totals.get("probes", 0),
            "rollbacks": totals.get("rollbacks", 0),
            "redos": totals.get("redos", 0),
            # Zero at the default configuration: early cut is opt-in.
            # Recorded anyway so an opt-in bench run shows how much it
            # skips.
            "early_cut_skips": totals.get("early_cut_skips", 0),
        },
    }


#: The two probing stages the fix-cycles fast path targets; their share of
#: the VCS stage wall is the headline number PR 6 drives down.
PROBING_STAGES = ("fix-cycles", "fix-communications")


def fix_cycles_wall_share(stage_timings: dict) -> float | None:
    """Fraction of the VCS per-stage wall spent in the probing stages.

    Wall times are host dependent, so the share is reported (and compared
    by the perf gate as a non-gating warning), never gated."""
    total = sum(entry.get("wall_time_s", 0.0) for entry in stage_timings.values())
    if not total:
        return None
    probing = sum(
        stage_timings.get(stage, {}).get("wall_time_s", 0.0) for stage in PROBING_STAGES
    )
    return probing / total


def profile_vcs_leg(n_synth: int, top_n: int, out_path: str) -> None:
    """cProfile the trail-mode vcs leg in-process and write the top-N
    functions (by cumulative and by internal time) as a text artifact.

    Runs a dedicated serial pass over the bench workload — the gated
    numbers always come from unprofiled subprocess runs, so enabling the
    profiler cannot skew them."""
    import cProfile
    import io
    import pstats

    from repro.machine import paper_configurations
    from repro.scheduler import VcsConfig, VirtualClusterScheduler

    namespace: dict = {"__name__": "bench_driver"}
    exec(compile(DRIVER, "<driver>", "exec"), namespace)
    blocks = namespace["build_workload"](n_synth)
    scheduler = VirtualClusterScheduler(VcsConfig(use_trail=True))

    profiler = cProfile.Profile()
    profiler.enable()
    for machine in paper_configurations():
        for block in blocks:
            scheduler.schedule(block, machine)
    profiler.disable()

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    for sort in ("cumulative", "tottime"):
        buffer.write(f"== vcs trail leg, top {top_n} by {sort} ==\n")
        stats.sort_stats(sort).print_stats(top_n)
        buffer.write("\n")
    Path(out_path).write_text(buffer.getvalue())
    print(f"[bench] wrote {out_path} (cProfile top {top_n}, vcs trail leg)")


def parallel_section(jobs: int, serial_wall: float, parallel_wall: float, identical: bool) -> dict:
    """The cold-pool parallel-vs-serial section of the summary.

    ``cpu_count`` is recorded honestly, and on a single-CPU host the
    throughput ratio is *skipped* with an explicit reason instead of
    publishing a sub-1.0 "speedup" that really measures pool spin-up
    overhead.  The byte-identity flag is always recorded — identity holds
    on any host."""
    cpu_count = os.cpu_count() or 1
    section = {
        "jobs": jobs,
        "cpu_count": cpu_count,
        "wall_time_s": parallel_wall,
        "serial_wall_time_s": serial_wall,
        "schedules_identical_serial_vs_parallel": identical,
    }
    if cpu_count <= 1 and jobs > 1:
        section["throughput_speedup_vs_serial"] = None
        section["skipped"] = (
            "single-CPU host: parallel wall time measures pool overhead, not speedup"
        )
    else:
        section["throughput_speedup_vs_serial"] = (
            serial_wall / parallel_wall if parallel_wall else None
        )
    return section


def digest_fingerprints(report: dict) -> dict:
    """Replace each machine's raw fingerprint list with its SHA-256 digest.

    The digest is what the committed report stores and what the CI
    perf-regression gate compares, so schedule byte-identity is tracked
    without committing the schedules themselves.
    """
    from repro.runner import fingerprint_digest

    machines = []
    for m in report["machines"]:
        entry = {k: v for k, v in m.items() if k != "fingerprints"}
        entry["schedule_digest"] = fingerprint_digest(m["fingerprints"])
        machines.append(entry)
    return {**report, "machines": machines}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_vcs.json"))
    parser.add_argument(
        "--blocks",
        type=int,
        default=int(os.environ.get("REPRO_BENCH_BLOCKS", "2")),
        help="synthetic superblocks added to the kernel workload",
    )
    parser.add_argument(
        "--baseline-rev",
        default=DEFAULT_BASELINE_REV,
        help="git revision to compare against (seed commit by default)",
    )
    parser.add_argument("--skip-baseline", action="store_true")
    parser.add_argument(
        "--cprofile",
        type=int,
        default=0,
        metavar="N",
        help="also cProfile the trail-mode vcs leg and write the top-N "
        "functions to --cprofile-output (0 disables; nightly artifact)",
    )
    parser.add_argument(
        "--cprofile-output",
        default=str(REPO_ROOT / "BENCH_profile_vcs.txt"),
        help="where --cprofile writes its text report",
    )
    parser.add_argument(
        "--jobs",
        default=None,
        help="workers for the parallel-runner measurement (default: $REPRO_JOBS or 2)",
    )
    args = parser.parse_args()

    from repro.runner import resolve_jobs

    if args.jobs is None and "REPRO_JOBS" not in os.environ:
        jobs = 2  # the serial run is measured separately; exercise the pool
    else:
        # An explicit worker count (flag or env) is honoured as-is so CI can
        # matrix the gate over REPRO_JOBS={1,2} and verify that the recorded
        # digests are identical whether the runner shards or not.
        jobs = resolve_jobs(args.jobs)

    src = str(REPO_ROOT / "src")
    print(f"[bench] current tree, trail mode, serial ({args.blocks} synthetic blocks)...")
    trail = run_driver(src, "trail", args.blocks, jobs=1)
    print(f"[bench] current tree, trail mode, parallel ({jobs} workers)...")
    parallel = run_driver(src, "trail", args.blocks, jobs=jobs)
    print("[bench] current tree, copy mode...")
    copy = run_driver(src, "copy", args.blocks, jobs=1)
    print("[bench] current tree, backend sweep (registry)...")
    backends = measure_backends(args.blocks)
    print("[bench] current tree, scenario-matrix sample (ring/p2p x workload families)...")
    scenarios = measure_scenarios()
    print("[bench] current tree, anytime policy curve (finalize_partial @ 25/50/75/100%)...")
    policy = measure_policy(args.blocks)
    print(
        "[bench] current tree, runner layer "
        f"(pool reuse, warm throughput, matrix cache; {jobs} workers)..."
    )
    runner = measure_runner(args.blocks, max(jobs, 2))
    print(
        "[bench] current tree, HTTP job server "
        f"({SERVICE_CLIENTS} clients x 12-cell matrix, cold+warm; {max(jobs, 2)} workers)..."
    )
    service = measure_service(max(jobs, 2))
    if args.cprofile > 0:
        print(f"[bench] current tree, cProfile of the trail-mode vcs leg (top {args.cprofile})...")
        profile_vcs_leg(args.blocks, args.cprofile, args.cprofile_output)

    baseline = None
    baseline_identical = None
    if not args.skip_baseline:
        try:
            tree = export_revision(args.baseline_rev)
        except subprocess.CalledProcessError:
            print(f"[bench] baseline revision {args.baseline_rev!r} unavailable; skipping")
        else:
            with tree:
                print(f"[bench] baseline revision {args.baseline_rev}...")
                baseline = run_driver(str(Path(tree.name) / "src"), "default", args.blocks)
            baseline_identical = all(
                b["fingerprints"] == t["fingerprints"]
                for b, t in zip(baseline["machines"], trail["machines"])
            )

    def total_wall(report):
        return sum(m["wall_time_s"] for m in report["machines"])

    trail_wall, copy_wall = total_wall(trail), total_wall(copy)
    parallel_wall = total_wall(parallel)
    parallel_identical = all(
        s["fingerprints"] == p["fingerprints"]
        for s, p in zip(trail["machines"], parallel["machines"])
    )
    summary = {
        "generated_unix": time.time(),
        "workload": {
            "kernels": 5,
            "synthetic_blocks": args.blocks,
            "machines": [m["machine"] for m in trail["machines"]],
        },
        "trail": digest_fingerprints(trail),
        "copy": digest_fingerprints(copy),
        "trail_vs_copy_speedup": copy_wall / trail_wall if trail_wall else None,
        "schedules_identical_trail_vs_copy": all(
            t["fingerprints"] == c["fingerprints"]
            for t, c in zip(trail["machines"], copy["machines"])
        ),
        "parallel": parallel_section(jobs, trail_wall, parallel_wall, parallel_identical),
        "runner": runner,
        "service": service,
        "backends": backends,
        "scenarios": scenarios,
        "policy": policy,
        "deduction": {
            **deduction_counters(trail),
            "fix_cycles_wall_share": fix_cycles_wall_share(
                backends.get("vcs", {}).get("stage_timings", {})
            ),
        },
    }
    if baseline is not None:
        base_wall = total_wall(baseline)
        summary["baseline"] = {
            "rev": args.baseline_rev,
            **digest_fingerprints(baseline),
        }
        summary["baseline_vs_current_speedup"] = (
            base_wall / trail_wall if trail_wall else None
        )
        summary["schedules_identical_vs_baseline"] = baseline_identical

    Path(args.output).write_text(json.dumps(summary, indent=2) + "\n")

    print(f"\n[bench] wrote {args.output}")
    print(f"[bench] trail {trail_wall:.2f}s | copy {copy_wall:.2f}s | "
          f"trail-vs-copy {summary['trail_vs_copy_speedup']:.2f}x | "
          f"identical={summary['schedules_identical_trail_vs_copy']}")
    cold_speedup = summary["parallel"]["throughput_speedup_vs_serial"]
    cold_note = (
        f"throughput {cold_speedup:.2f}x"
        if cold_speedup is not None
        else f"throughput skipped ({summary['parallel']['skipped']})"
    )
    print(f"[bench] runner: parallel({jobs} workers, {os.cpu_count()} cpus) {parallel_wall:.2f}s | "
          f"serial {trail_wall:.2f}s | {cold_note} | "
          f"identical={parallel_identical}")
    pool_info, warm_info, matrix_info = runner["pool"], runner["parallel"], runner["matrix"]
    warm_speedup = warm_info["throughput_speedup_vs_serial"]
    warm_note = (
        f"warm throughput {warm_speedup:.2f}x"
        if warm_speedup is not None
        else f"warm throughput skipped ({warm_info['skipped']})"
    )
    print(
        f"[bench] pool: reuse {pool_info['reused_pool_wall_s']:.2f}s vs fresh "
        f"{pool_info['fresh_pool_wall_s']:.2f}s over {pool_info['batches']} batches "
        f"({pool_info['reuse_speedup_vs_fresh']:.2f}x) | {warm_note} | "
        f"identical={warm_info['schedules_identical_serial_vs_parallel']}"
    )
    print(
        f"[bench] result cache: matrix cold {matrix_info['cold_wall_s']:.2f}s -> warm "
        f"{matrix_info['warm_wall_s']:.2f}s ({matrix_info['warm_speedup_vs_cold']:.1f}x), "
        f"{matrix_info['warm_recomputed']} of {matrix_info['cells']} cells recomputed warm, "
        f"digests identical={matrix_info['digests_identical_warm_vs_cold']}"
    )
    print(
        f"[bench] service: {service['jobs']} jobs x {service['clients']} clients over HTTP | "
        f"cold p50 {service['cold']['latency']['p50_s'] * 1000:.0f}ms "
        f"p99 {service['cold']['latency']['p99_s'] * 1000:.0f}ms | "
        f"warm p50 {service['warm']['latency']['p50_s'] * 1000:.0f}ms | "
        f"warm hit rate {service['warm_hit_rate']:.0%} | "
        f"identical={service['http_identical_to_batch']}"
    )
    if baseline is not None:
        print(f"[bench] baseline({args.baseline_rev}) {total_wall(baseline):.2f}s | "
              f"speedup {summary['baseline_vs_current_speedup']:.2f}x | "
              f"byte-identical={baseline_identical}")
    copies_avoided = sum(
        m["stats"].get("copies_avoided", 0) for m in trail["machines"]
    )
    print(f"[bench] copies avoided by the trail: {copies_avoided}")
    deduction = summary["deduction"]
    probing = deduction["probing"]
    print(
        f"[bench] probing: {probing['probes']} probes, {probing['rollbacks']} rollbacks, "
        f"{probing['redos']} redos | early-cut {probing['early_cut_skips']} probes"
    )
    share = deduction["fix_cycles_wall_share"]
    if share is not None:
        print(f"[bench] fix-cycles wall share (vcs probing stages): {share:.1%}")
    top_rules = sorted(deduction["dp_work_by_rule"].items(), key=lambda item: -item[1])[:4]
    if top_rules:
        split = " | ".join(f"{name} {count}" for name, count in top_rules)
        print(f"[bench] dp_work by rule (top): {split}")
    for name, entry in backends.items():
        wall = sum(m["wall_time_s"] for m in entry["machines"])
        work = sum(m["dp_work"] for m in entry["machines"])
        print(f"[bench] backend {name:8s} wall {wall:.2f}s | dp_work {work}")
    n_cells = len(scenarios["cells"])
    topologies = sorted({cell["machine_family"] for cell in scenarios["cells"]})
    print(
        f"[bench] scenario sample: {n_cells} cells over {'/'.join(topologies)} "
        f"in {scenarios['wall_time_s']:.2f}s"
    )
    curve_text = " | ".join(
        f"{point['fraction']:.0%}: {point['mean_awct_ratio_vs_full']:.3f}x full, "
        f"{point['mean_awct_ratio_vs_cars']:.3f}x cars, "
        f"partial {point['partial_finalize_rate']:.0%}"
        for point in policy["anytime_curve"]
    )
    print(f"[bench] anytime curve ({policy['config']['machine']}): {curve_text}")
    vcs_stages = backends.get("vcs", {}).get("stage_timings", {})
    if vcs_stages:
        breakdown = " | ".join(
            f"{stage} {entry['wall_time_s']:.2f}s/{entry['calls']}"
            for stage, entry in vcs_stages.items()
        )
        print(f"[bench] vcs stage timing: {breakdown}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
