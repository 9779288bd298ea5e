"""The batch workload ``compile-cold``.

Each pass submits the whole paper job set as one
``repro.api.schedule_many`` call on a 2-worker ``BatchScheduler``, with
an empty cache directory and in an order the seed shuffles anew for
every pass: every job is computed (deduction, trail, stages) and stored
once.  Passes repeat until the measured time reaches ``--seconds``; only
whole passes are measured, so every run schedules the same mix of jobs.

The traced pass replaces ``schedule_many`` by the same steps called one
by one from here: the cache key in the caller, then, in the pool
workers, ``ResultCache.get``, the backend's ``schedule()``,
``validate_schedule`` and ``ResultCache.put``, each timed.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List

from perfbench import layers
from perfbench.common import Outputs, key_of, make_request, median, percentile, share, shuffled


@dataclass
class BatchRun:
    pairs: list
    rng: object
    runner: object
    outputs: Outputs
    tmp: Path

    def __post_init__(self) -> None:
        self.requests = [make_request(block, machine) for block, machine in self.pairs]

    def pass_cache(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.tmp, prefix="pass-"))

    def check(self, order: List[int], index: int, result, failure: str) -> None:
        self.outputs.check_result(key_of(*self.pairs[order[index]]), result, failure)


def run_untraced(run: BatchRun, seconds: float) -> Dict[str, float]:
    """End-to-end metrics: throughput of the median pass, and the latency
    of one block compile (the scheduler's own ``wall_time``)."""
    from repro.api import schedule_many
    from repro.runner.cache import CacheSpec

    walls: List[float] = []
    compile_s: Dict[int, List[float]] = {i: [] for i in range(len(run.requests))}
    while sum(walls) < seconds:
        order = shuffled(range(len(run.requests)), run.rng)
        root = run.pass_cache()
        start = time.perf_counter()
        batch = schedule_many(
            [run.requests[i] for i in order],
            runner=run.runner,
            cache=CacheSpec(root=str(root)),
            on_error="capture",
        )
        walls.append(time.perf_counter() - start)
        shutil.rmtree(root)
        failures = {failure.index: failure.describe() for failure in batch.failures}
        for index, result in enumerate(batch.values):
            run.check(order, index, result, failures.get(index, ""))
            if result is not None:
                compile_s[order[index]].append(result.wall_time)
    # Each job's median over the passes, then percentiles over the jobs:
    # over raw samples the p50 falls between two jobs' clusters and reads
    # one of their extremes.
    latencies = [median(samples) for samples in compile_s.values() if samples]
    return {
        # The median pass: a burst of load on the host moves one pass, not the figure.
        "blocks_per_s": len(run.requests) / median(walls),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
    }


def traced_job(payload):
    """Pool-worker side of a traced job: the steps of the runner's cached
    job function, called and timed one by one."""
    from repro.runner.cache import worker_cache
    from repro.runner.pool import resolve_machine
    from repro.scheduler.correctness import validate_schedule

    job, machine_ref, spec, key = payload
    job = replace(job, machine=resolve_machine(machine_ref))
    cache = worker_cache(spec)
    times = {}
    start = time.perf_counter()
    hit = cache.get(key)
    times["get"] = time.perf_counter() - start
    if hit is not None:
        return "hit", hit, times
    start = time.perf_counter()
    result = job.spec.create().schedule(job.block, job.machine)
    times["schedule"] = time.perf_counter() - start
    start = time.perf_counter()
    validate_schedule(result.schedule).raise_if_invalid()
    times["validate"] = time.perf_counter() - start
    start = time.perf_counter()
    cache.put(key, result)
    times["put"] = time.perf_counter() - start
    return "miss", result, times


def run_traced(run: BatchRun, seconds: float) -> Dict[str, float]:
    """Per-layer metrics; also returns the traced ``blocks_per_s``."""
    from repro.runner.cache import CacheSpec
    from repro.runner.pool import MachineRef, shared_pool_stats
    from repro.scheduler.fingerprint import schedule_cache_key

    walls: List[float] = []
    key_s: List[float] = []
    steps: Dict[str, List[float]] = {"get": [], "schedule": [], "validate": [], "put": []}
    computed = []
    hits = lookups = jobs = 0
    entry_kb = 0.0
    while sum(walls) < seconds:
        order = shuffled(range(len(run.requests)), run.rng)
        root = run.pass_cache()
        spec = CacheSpec(root=str(root))
        start = time.perf_counter()
        payloads = []
        for i in order:
            job = run.requests[i].job()
            t0 = time.perf_counter()
            key = schedule_cache_key(job.block, job.machine, job.spec.to_dict(), salt=spec.salt)
            key_s.append(time.perf_counter() - t0)
            payloads.append((replace(job, machine=None), MachineRef.of(job.machine), spec, key))
        batch = run.runner.map(
            traced_job, payloads, job_ids=[p[0].job_id for p in payloads], on_error="capture"
        )
        walls.append(time.perf_counter() - start)
        entry_kb = layers.entry_kb(root)
        shutil.rmtree(root)
        failures = {failure.index: failure.describe() for failure in batch.failures}
        for index, value in enumerate(batch.values):
            if value is None:
                run.check(order, index, None, failures.get(index, ""))
                continue
            outcome, result, times = value
            run.check(order, index, result, "")
            lookups += 1
            hits += outcome == "hit"
            for step, seconds_in_step in times.items():
                steps[step].append(seconds_in_step)
            if "schedule" in times:
                computed.append((result, times["schedule"]))
        jobs += len(order)

    wall = sum(walls)
    accounted = sum(key_s) + sum(sum(values) for values in steps.values())
    capacity = wall * run.runner.n_workers
    out = layers.scheduler_layers(computed, passes=len(walls))
    out.update(
        {
            "scheduler.validate_ms.p50": layers.p50_ms(steps["validate"]),
            "runner.cache.put_us.p50": layers.p50_us(steps["put"]),
            "scheduler.fingerprint.key_us.p50": layers.p50_us(key_s),
            "runner.cache.get_us.p50": layers.p50_us(steps["get"]),
            "runner.cache.entry_kb": entry_kb,
            "runner.cache.hit_share": share(hits, lookups),
            "runner.dispatch_us_per_job": (capacity - accounted) / jobs * 1e6,
            "runner.pool.spin_ups": float(
                sum(pool["spin_ups"] for pool in shared_pool_stats().values())
            ),
            "runner.unaccounted_share": 1.0 - share(accounted, capacity),
            "blocks_per_s": len(run.requests) / median(walls),
        }
    )
    return out
