"""End-to-end experiment runners used by the benchmark harness and examples.

Each function reproduces the workflow of one of the paper's evaluation
figures: schedule every block of a workload with CARS and with the proposed
technique (at a given compile-effort threshold), aggregate the results and
return both the raw records and the formatted report.

Every driver executes through the parallel runner
(:mod:`repro.runner`): the full (workload, machine, block) cross product
of an experiment is enumerated up front as one flat job list, sharded
across worker processes, and merged back in enumeration order — so the
records an experiment returns are byte-identical whether it ran serially
(the ``REPRO_JOBS=1`` default) or on every core of the machine.

Schedulers are selected by registry name (:mod:`repro.scheduler.registry`),
so the same drivers compare any baseline/proposed backend pair
(``run_workload(..., schedulers=("cars", "hybrid"))``), and
:func:`run_backend_records` / :func:`run_backend_comparison` sweep an
arbitrary backend list as one flat batch — the Figure 11-style
backend-vs-backend experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.compile_time import CompileEffortStats, EffortThresholds, collect_effort
from repro.analysis.metrics import (
    BenchmarkComparison,
    compare_block,
    evaluate_benchmark,
)
from repro.machine.families import machine_family
from repro.machine.machine import ClusteredMachine
from repro.api import schedule_many
from repro.runner import (
    SCHEDULER_KINDS,
    BatchScheduler,
    CacheStats,
    ScheduleJob,
    enumerate_workload_jobs,
    fingerprint_digest,
)
from repro.scheduler.schedule import ScheduleResult
from repro.scheduler.vcs import VcsConfig
from repro.workloads.families import build_workload_families
from repro.workloads.suite import BenchmarkWorkload, train_variant


@dataclass
class ExperimentRecord:
    """Raw results of scheduling one workload on one machine."""

    workload: BenchmarkWorkload
    machine: ClusteredMachine
    baseline_results: List[ScheduleResult] = field(default_factory=list)
    proposed_results: List[ScheduleResult] = field(default_factory=list)

    def comparison(self, evaluation_blocks: Optional[Sequence] = None) -> BenchmarkComparison:
        blocks = []
        for index, (base, prop) in enumerate(zip(self.baseline_results, self.proposed_results)):
            eval_block = evaluation_blocks[index] if evaluation_blocks is not None else None
            blocks.append(compare_block(base, prop, evaluation_block=eval_block))
        return evaluate_benchmark(
            self.workload.name, self.workload.suite, self.machine.name, blocks
        )

    def effort(self) -> Tuple[CompileEffortStats, CompileEffortStats]:
        return (
            collect_effort("CARS", self.machine.name, self.baseline_results),
            collect_effort("VCS", self.machine.name, self.proposed_results),
        )

    def fingerprints(self) -> List[list]:
        """Canonical fingerprints of every result, baseline then proposed
        per block — the payload the determinism checks compare."""
        out: List[list] = []
        for base, prop in zip(self.baseline_results, self.proposed_results):
            out.append(base.fingerprint())
            out.append(prop.fingerprint())
        return out


@dataclass(frozen=True)
class _RecordSpec:
    """One (workload, machine) record to produce, with its job slice."""

    workload: BenchmarkWorkload
    machine: ClusteredMachine
    offset: int
    n_jobs: int


def _effective_config(vcs_config: Optional[VcsConfig], work_budget: Optional[int]) -> VcsConfig:
    config = vcs_config or VcsConfig()
    if work_budget is not None:
        config = replace(config, work_budget=work_budget)
    return config


def run_experiment_records(
    pairs: Sequence[Tuple[BenchmarkWorkload, ClusteredMachine]],
    work_budget: Optional[int] = None,
    vcs_config: Optional[VcsConfig] = None,
    check_schedules: bool = True,
    scheduling_blocks: Optional[Dict[str, Sequence]] = None,
    runner: Optional[BatchScheduler] = None,
    schedulers: Sequence[str] = SCHEDULER_KINDS,
    cache: object = None,
    cache_stats: Optional[CacheStats] = None,
) -> List[ExperimentRecord]:
    """Schedule every block of every ``(workload, machine)`` pair as one
    flat batch and regroup the results into per-pair records.

    ``schedulers`` is the (baseline, proposed) backend-name pair —
    ``("cars", "vcs")`` by default, any two registered backends otherwise
    (``repro suite --scheduler hybrid`` passes ``("cars", "hybrid")``).
    ``scheduling_blocks`` optionally maps a workload name to different
    blocks (same DGs, different profiles) to *schedule*, while the
    workload's own blocks are what the caller will later *evaluate*
    against — the Figure 12 setup.  ``cache`` selects the result cache
    (``None`` follows ``REPRO_CACHE``/``REPRO_CACHE_DIR``); pass a
    :class:`~repro.runner.CacheStats` as ``cache_stats`` to accumulate
    hit/miss counters across several driver calls.
    """
    schedulers = tuple(schedulers)
    if len(schedulers) != 2:
        raise ValueError(
            f"expected a (baseline, proposed) backend pair, got {schedulers!r}"
        )
    config = _effective_config(vcs_config, work_budget)
    jobs = []
    specs: List[_RecordSpec] = []
    for workload, machine in pairs:
        blocks = workload.blocks
        if scheduling_blocks is not None and workload.name in scheduling_blocks:
            blocks = scheduling_blocks[workload.name]
        pair_jobs = enumerate_workload_jobs(
            workload.name,
            blocks,
            machine,
            vcs_config=config,
            check_schedules=check_schedules,
            schedulers=schedulers,
        )
        specs.append(_RecordSpec(workload, machine, len(jobs), len(pair_jobs)))
        jobs.extend(pair_jobs)

    batch = schedule_many(jobs, runner=runner, cache=cache)
    if cache_stats is not None and batch.cache is not None:
        cache_stats.merge(batch.cache)

    records: List[ExperimentRecord] = []
    for spec in specs:
        record = ExperimentRecord(workload=spec.workload, machine=spec.machine)
        # Jobs come in (baseline, proposed) pairs per block, in block order.
        for i in range(spec.offset, spec.offset + spec.n_jobs, 2):
            record.baseline_results.append(batch.values[i])
            record.proposed_results.append(batch.values[i + 1])
        records.append(record)
    return records


def run_workload(
    workload: BenchmarkWorkload,
    machine: ClusteredMachine,
    work_budget: Optional[int] = None,
    vcs_config: Optional[VcsConfig] = None,
    check_schedules: bool = True,
    scheduling_blocks: Optional[Sequence] = None,
    runner: Optional[BatchScheduler] = None,
    schedulers: Sequence[str] = SCHEDULER_KINDS,
    cache: object = None,
    cache_stats: Optional[CacheStats] = None,
) -> ExperimentRecord:
    """Schedule every block of *workload* with the baseline and the
    proposed backend (CARS and VCS by default).

    ``scheduling_blocks`` optionally provides different blocks (same DGs,
    different profiles) to *schedule*, while the workload's own blocks are
    what the caller will later *evaluate* against — the Figure 12 setup.
    """
    overrides = None
    if scheduling_blocks is not None:
        overrides = {workload.name: scheduling_blocks}
    return run_experiment_records(
        [(workload, machine)],
        work_budget=work_budget,
        vcs_config=vcs_config,
        check_schedules=check_schedules,
        scheduling_blocks=overrides,
        runner=runner,
        schedulers=schedulers,
        cache=cache,
        cache_stats=cache_stats,
    )[0]


def run_speedup_records(
    workloads: Sequence[BenchmarkWorkload],
    machines: Sequence[ClusteredMachine],
    work_budget: Optional[int] = None,
    vcs_config: Optional[VcsConfig] = None,
    runner: Optional[BatchScheduler] = None,
    schedulers: Sequence[str] = SCHEDULER_KINDS,
    cache: object = None,
    cache_stats: Optional[CacheStats] = None,
) -> Dict[str, List[ExperimentRecord]]:
    """The raw records behind Figure 11, grouped by machine name."""
    pairs = [(workload, machine) for machine in machines for workload in workloads]
    records = run_experiment_records(
        pairs,
        work_budget=work_budget,
        vcs_config=vcs_config,
        runner=runner,
        schedulers=schedulers,
        cache=cache,
        cache_stats=cache_stats,
    )
    grouped: Dict[str, List[ExperimentRecord]] = {machine.name: [] for machine in machines}
    for record in records:
        grouped[record.machine.name].append(record)
    return grouped


def run_speedup_experiment(
    workloads: Sequence[BenchmarkWorkload],
    machines: Sequence[ClusteredMachine],
    work_budget: Optional[int] = None,
    vcs_config: Optional[VcsConfig] = None,
    runner: Optional[BatchScheduler] = None,
    schedulers: Sequence[str] = SCHEDULER_KINDS,
    cache: object = None,
    cache_stats: Optional[CacheStats] = None,
) -> Dict[str, List[BenchmarkComparison]]:
    """Figure 11: per-benchmark speed-up of the proposed backend over the
    baseline backend (VCS over CARS by default) for every machine
    configuration.  Returns comparisons grouped by machine name."""
    grouped = run_speedup_records(
        workloads,
        machines,
        work_budget=work_budget,
        vcs_config=vcs_config,
        runner=runner,
        schedulers=schedulers,
        cache=cache,
        cache_stats=cache_stats,
    )
    return {
        machine_name: [record.comparison() for record in records]
        for machine_name, records in grouped.items()
    }


# --------------------------------------------------------------------------- #
# backend-vs-backend sweeps (the registry-driven Figure 11 generalisation)
# --------------------------------------------------------------------------- #
@dataclass
class BackendRecord:
    """All of one backend's results on one (workload, machine) pair."""

    workload: BenchmarkWorkload
    machine: ClusteredMachine
    backend: str
    results: List[ScheduleResult] = field(default_factory=list)

    def fingerprints(self) -> List[list]:
        return [result.fingerprint() for result in self.results]

    @property
    def total_work(self) -> int:
        return sum(result.work for result in self.results)


def run_backend_records(
    workloads: Sequence[BenchmarkWorkload],
    machines: Sequence[ClusteredMachine],
    backends: Sequence[str],
    work_budget: Optional[int] = None,
    vcs_config: Optional[VcsConfig] = None,
    check_schedules: bool = True,
    runner: Optional[BatchScheduler] = None,
    cache: object = None,
    cache_stats: Optional[CacheStats] = None,
) -> List[BackendRecord]:
    """Schedule every block of every workload on every machine with every
    backend in *backends*, as one flat batch.

    Returns one record per (machine, workload, backend), machines outer,
    ``backends`` order innermost — matching the canonical job enumeration
    (blocks in position order, backends within a block), so a parallel
    run is byte-identical to a serial one like every other driver."""
    backends = tuple(backends)
    if not backends:
        raise ValueError("need at least one backend name")
    config = _effective_config(vcs_config, work_budget)
    jobs = []
    specs: List[_RecordSpec] = []
    for machine in machines:
        for workload in workloads:
            pair_jobs = enumerate_workload_jobs(
                workload.name,
                workload.blocks,
                machine,
                vcs_config=config,
                check_schedules=check_schedules,
                schedulers=backends,
            )
            specs.append(_RecordSpec(workload, machine, len(jobs), len(pair_jobs)))
            jobs.extend(pair_jobs)

    batch = schedule_many(jobs, runner=runner, cache=cache)
    if cache_stats is not None and batch.cache is not None:
        cache_stats.merge(batch.cache)

    records: List[BackendRecord] = []
    for spec in specs:
        for b_index, backend in enumerate(backends):
            record = BackendRecord(workload=spec.workload, machine=spec.machine, backend=backend)
            for i in range(spec.offset + b_index, spec.offset + spec.n_jobs, len(backends)):
                record.results.append(batch.values[i])
            records.append(record)
    return records


def backend_comparisons(
    records: Sequence[BackendRecord], baseline: str = "cars"
) -> Dict[str, Dict[str, List[BenchmarkComparison]]]:
    """Group per-backend *records* into per-benchmark comparisons of every
    backend against *baseline*: ``{machine_name: {backend: [comparison]}}``.

    Pure aggregation over records from :func:`run_backend_records` —
    callers that already hold the records (e.g. ``repro suite``'s
    ``backends`` experiment) reuse them without scheduling anything
    again.  Machine/workload/backend order follows first appearance in
    *records* (the canonical enumeration order)."""
    machines: List[str] = []
    workloads: List[str] = []
    backends: List[str] = []
    by_key: Dict[Tuple[str, str, str], BackendRecord] = {}
    for record in records:
        key = (record.machine.name, record.workload.name, record.backend)
        by_key[key] = record
        if record.machine.name not in machines:
            machines.append(record.machine.name)
        if record.workload.name not in workloads:
            workloads.append(record.workload.name)
        if record.backend not in backends:
            backends.append(record.backend)
    if baseline not in backends:
        raise ValueError(f"baseline backend {baseline!r} not among the records' {backends}")
    grouped: Dict[str, Dict[str, List[BenchmarkComparison]]] = {
        machine: {b: [] for b in backends if b != baseline} for machine in machines
    }
    for machine in machines:
        for workload in workloads:
            base = by_key.get((machine, workload, baseline))
            if base is None:
                raise ValueError(
                    f"missing {baseline!r} baseline record for ({machine!r}, {workload!r}); "
                    "records must cover the full (machine, workload, backend) cross product"
                )
            for backend in backends:
                if backend == baseline:
                    continue
                record = by_key.get((machine, workload, backend))
                if record is None:
                    raise ValueError(
                        f"missing {backend!r} record for ({machine!r}, {workload!r}); "
                        "records must cover the full (machine, workload, backend) cross product"
                    )
                blocks = [
                    compare_block(base_result, result)
                    for base_result, result in zip(base.results, record.results)
                ]
                grouped[machine][backend].append(
                    evaluate_benchmark(
                        record.workload.name, record.workload.suite, machine, blocks
                    )
                )
    return grouped


def run_backend_comparison(
    workloads: Sequence[BenchmarkWorkload],
    machines: Sequence[ClusteredMachine],
    backends: Sequence[str] = ("cars", "vcs", "hybrid"),
    baseline: str = "cars",
    work_budget: Optional[int] = None,
    vcs_config: Optional[VcsConfig] = None,
    runner: Optional[BatchScheduler] = None,
    cache: object = None,
    cache_stats: Optional[CacheStats] = None,
) -> Dict[str, Dict[str, List[BenchmarkComparison]]]:
    """Figure 11 generalised to a backend dimension: per-benchmark
    comparisons of every backend against *baseline*.

    The baseline is scheduled once per (workload, machine) and reused for
    every backend's comparison; the whole cross product runs as a single
    batch, then aggregates through :func:`backend_comparisons`."""
    backends = tuple(backends)
    if baseline not in backends:
        backends = (baseline,) + backends
    records = run_backend_records(
        workloads,
        machines,
        backends,
        work_budget=work_budget,
        vcs_config=vcs_config,
        runner=runner,
        cache=cache,
        cache_stats=cache_stats,
    )
    return backend_comparisons(records, baseline=baseline)


# --------------------------------------------------------------------------- #
# the scenario matrix: (machine family x workload family x backend)
# --------------------------------------------------------------------------- #
@dataclass
class ScenarioCell:
    """Deterministic summary of one (machine, workload family, backend)
    cell of the scenario matrix.

    ``schedule_digest`` and ``dp_work`` are the byte-identity keys the CI
    perf-regression gate records for the gated scenario sample."""

    machine_family: str
    machine: str
    workload_family: str
    backend: str
    n_blocks: int
    dp_work: int
    schedule_digest: str
    total_cycles: float
    fallback_blocks: int

    def as_row(self) -> dict:
        return {
            "machine_family": self.machine_family,
            "machine": self.machine,
            "workload_family": self.workload_family,
            "backend": self.backend,
            "n_blocks": self.n_blocks,
            "dp_work": self.dp_work,
            "schedule_digest": self.schedule_digest,
            "total_cycles": self.total_cycles,
            "fallback_blocks": self.fallback_blocks,
        }


def _scenario_inputs(
    machine_families: Sequence[str],
    workload_families: Sequence[str],
    blocks_per_benchmark: Optional[int],
) -> Tuple[List[Tuple[str, ClusteredMachine]], list, Dict[str, str]]:
    """Resolve the matrix's named families into concrete (family, machine)
    pairs and (family, workload) pairs, deduplicating machine specs shared
    between families (first family wins, matching the cell attribution)."""
    machines: List[Tuple[str, ClusteredMachine]] = []
    seen_machines: Dict[str, str] = {}
    for family_name in machine_families:
        for machine in machine_family(family_name).machines():
            if machine.name in seen_machines:
                continue  # families may share identically-named specs
            seen_machines[machine.name] = family_name
            machines.append((family_name, machine))
    workloads = build_workload_families(workload_families, blocks_per_benchmark)
    return machines, workloads, seen_machines


def scenario_matrix_jobs(
    machine_families: Sequence[str],
    workload_families: Sequence[str],
    backends: Sequence[str] = ("vcs",),
    blocks_per_benchmark: Optional[int] = None,
    work_budget: Optional[int] = None,
    vcs_config: Optional[VcsConfig] = None,
    check_schedules: bool = True,
) -> List[ScheduleJob]:
    """The scenario matrix as a flat job list, in the exact canonical
    order :func:`run_scenario_matrix` batches it (machines outer, then
    workload families' workloads, blocks, ``backends`` innermost).

    This is the shared enumeration behind the batch matrix and the HTTP
    service-identity gate (``scripts/check_service_identity.py``): both
    paths schedule *these* jobs, so per-job results can be compared
    position by position and digests must match byte for byte.
    """
    machines, workloads, _ = _scenario_inputs(
        machine_families, workload_families, blocks_per_benchmark
    )
    config = _effective_config(vcs_config, work_budget)
    jobs: List[ScheduleJob] = []
    for _, machine in machines:
        for _, workload in workloads:
            jobs.extend(
                enumerate_workload_jobs(
                    workload.name,
                    workload.blocks,
                    machine,
                    vcs_config=config,
                    check_schedules=check_schedules,
                    schedulers=tuple(backends),
                )
            )
    return jobs


def run_scenario_matrix(
    machine_families: Sequence[str],
    workload_families: Sequence[str],
    backends: Sequence[str] = ("vcs",),
    blocks_per_benchmark: Optional[int] = None,
    work_budget: Optional[int] = None,
    vcs_config: Optional[VcsConfig] = None,
    check_schedules: bool = True,
    runner: Optional[BatchScheduler] = None,
    cache: object = None,
    cache_stats: Optional[CacheStats] = None,
) -> Tuple[List[ScenarioCell], List[BackendRecord]]:
    """Schedule the full (machine family x workload family x backend)
    cross product as one flat sharded batch.

    Families are named (see :mod:`repro.machine.families` and
    :mod:`repro.workloads.families`), so a whole sweep is reproducible
    from its name lists alone.  Returns one :class:`ScenarioCell` per
    (machine, workload family, backend) — digesting every schedule of the
    family's workloads on that machine — plus the underlying per-workload
    :class:`BackendRecord` list for finer-grained analysis.  Cells follow
    the canonical enumeration order (machine families outer, workload
    families, then backends), and a parallel run is byte-identical to a
    serial one like every other driver.
    """
    machines, workloads, seen_machines = _scenario_inputs(
        machine_families, workload_families, blocks_per_benchmark
    )

    records = run_backend_records(
        [workload for _, workload in workloads],
        [machine for _, machine in machines],
        tuple(backends),
        work_budget=work_budget,
        vcs_config=vcs_config,
        check_schedules=check_schedules,
        runner=runner,
        cache=cache,
        cache_stats=cache_stats,
    )

    workload_to_family = {workload.name: name for name, workload in workloads}
    grouped: Dict[Tuple[str, str, str], List[BackendRecord]] = {}
    for record in records:
        key = (
            record.machine.name,
            workload_to_family[record.workload.name],
            record.backend,
        )
        grouped.setdefault(key, []).append(record)

    cells: List[ScenarioCell] = []
    for (machine_name, wf_name, backend), group in grouped.items():
        results = [result for record in group for result in record.results]
        cells.append(
            ScenarioCell(
                machine_family=seen_machines[machine_name],
                machine=machine_name,
                workload_family=wf_name,
                backend=backend,
                n_blocks=len(results),
                dp_work=sum(result.work for result in results),
                schedule_digest=fingerprint_digest(result.fingerprint() for result in results),
                total_cycles=sum(result.total_cycles for result in results if result.ok),
                fallback_blocks=sum(1 for result in results if result.fallback_used),
            )
        )
    return cells, records


def run_compile_time_experiment(
    workloads: Sequence[BenchmarkWorkload],
    machines: Sequence[ClusteredMachine],
    thresholds: EffortThresholds,
    runner: Optional[BatchScheduler] = None,
    vcs_config: Optional[VcsConfig] = None,
    schedulers: Sequence[str] = SCHEDULER_KINDS,
    cache: object = None,
    cache_stats: Optional[CacheStats] = None,
) -> List[CompileEffortStats]:
    """Figure 10: compile-effort distribution of the baseline and the
    proposed backend on every machine (the proposed backend runs at the
    large threshold budget so the full effort per block is observed)."""
    baseline_name, proposed_name = tuple(schedulers)
    pairs = [(workload, machine) for machine in machines for workload in workloads]
    records = run_experiment_records(
        pairs,
        work_budget=thresholds.large,
        vcs_config=vcs_config,
        runner=runner,
        schedulers=schedulers,
        cache=cache,
        cache_stats=cache_stats,
    )
    by_machine: Dict[str, List[ExperimentRecord]] = {machine.name: [] for machine in machines}
    for record in records:
        by_machine[record.machine.name].append(record)

    stats: List[CompileEffortStats] = []
    for machine in machines:
        baseline_results: List[ScheduleResult] = []
        proposed_results: List[ScheduleResult] = []
        for record in by_machine[machine.name]:
            baseline_results.extend(record.baseline_results)
            proposed_results.extend(record.proposed_results)
        stats.append(collect_effort(baseline_name.upper(), machine.name, baseline_results))
        stats.append(collect_effort(proposed_name.upper(), machine.name, proposed_results))
    return stats


def run_cross_input_experiment(
    workloads: Sequence[BenchmarkWorkload],
    machines: Sequence[ClusteredMachine],
    work_budget: Optional[int] = None,
    noise: float = 0.35,
    runner: Optional[BatchScheduler] = None,
    vcs_config: Optional[VcsConfig] = None,
    schedulers: Sequence[str] = SCHEDULER_KINDS,
    cache: object = None,
    cache_stats: Optional[CacheStats] = None,
) -> Dict[str, List[BenchmarkComparison]]:
    """Figure 12: schedule with the ``train`` profile, evaluate with ``ref``.

    For each workload a train variant is derived; both the baseline and
    the proposed backend schedule the train blocks, and the resulting
    schedules are evaluated with the original (ref) exit probabilities
    and execution counts."""
    # Train variants are seeded by workload name only, so deriving them
    # once up front is identical to deriving them per machine.
    train_blocks = {
        workload.name: train_variant(workload, noise=noise).blocks for workload in workloads
    }
    pairs = [(workload, machine) for machine in machines for workload in workloads]
    records = run_experiment_records(
        pairs,
        work_budget=work_budget,
        vcs_config=vcs_config,
        scheduling_blocks=train_blocks,
        runner=runner,
        schedulers=schedulers,
        cache=cache,
        cache_stats=cache_stats,
    )
    grouped: Dict[str, List[BenchmarkComparison]] = {machine.name: [] for machine in machines}
    for record in records:
        grouped[record.machine.name].append(
            record.comparison(evaluation_blocks=record.workload.blocks)
        )
    return grouped
