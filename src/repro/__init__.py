"""repro — a reproduction of "Virtual Cluster Scheduling Through the
Scheduling Graph" (Codina, Sánchez, González; CGO 2007).

The package implements, from scratch, the paper's instruction scheduling and
cluster assignment technique for clustered VLIW processors together with the
substrates it needs: a superblock IR, a clustered machine model, the
scheduling graph, virtual clusters, the deduction process, the CARS
baseline, synthetic SpecInt95/MediaBench-style workloads and the evaluation
harness reproducing the paper's figures.

Quick start
-----------
>>> from repro import (
...     paper_figure1_block, example_2cluster,
...     VirtualClusterScheduler, CarsScheduler,
... )
>>> block = paper_figure1_block()
>>> machine = example_2cluster()
>>> proposed = VirtualClusterScheduler().schedule(block, machine)
>>> baseline = CarsScheduler().schedule(block, machine)
>>> proposed.awct <= baseline.awct
True
"""

from repro.ir import (
    OpClass,
    Operation,
    DependenceGraph,
    DepKind,
    Superblock,
    SuperblockBuilder,
    validate_superblock,
    ValidationError,
)
from repro.machine import (
    ClusteredMachine,
    ClusterConfig,
    ClusterSpec,
    BusConfig,
    InterconnectConfig,
    RingConfig,
    PointToPointConfig,
    FuKind,
    MachineFamily,
    MachineSpec,
    all_machine_specs,
    machine_by_name,
    machine_families,
    machine_family,
    paper_2c_8i_1lat,
    paper_4c_16i_1lat,
    paper_4c_16i_2lat,
    paper_configurations,
    example_2cluster,
    example_1cluster_fig4,
    unified,
)
from repro.bounds import (
    awct,
    min_awct,
    min_exit_cycles,
    compute_bounds,
    ExitBoundEnumerator,
)
from repro.sgraph import SchedulingGraph, Combination
from repro.vcluster import VirtualClusterGraph, Communication, CommKind
from repro.deduction import (
    SchedulingState,
    DeductionProcess,
    DeductionResult,
    WorkBudget,
    Contradiction,
)
from repro.scheduler import (
    Schedule,
    ScheduleResult,
    validate_schedule,
    ScheduleError,
    CarsScheduler,
    ListScheduler,
    VirtualClusterScheduler,
    VcsConfig,
)
from repro.workloads import (
    SuperblockGenerator,
    GeneratorConfig,
    BenchmarkProfile,
    WorkloadFamily,
    build_benchmark,
    build_family,
    build_suite,
    train_variant,
    all_profiles,
    profile_by_name,
    workload_families,
    workload_family,
    paper_figure1_block,
    fir_kernel,
    dot_product_kernel,
    dct_butterfly_kernel,
    string_search_kernel,
)
from repro.analysis import (
    compare_block,
    evaluate_benchmark,
    geometric_mean,
    EffortThresholds,
    collect_effort,
    format_speedup_series,
    format_compile_time_table,
    ScenarioCell,
    run_scenario_matrix,
)
from repro.runner import (
    BatchScheduler,
    BatchError,
    enumerate_workload_jobs,
    run_schedule_job,
    resolve_jobs,
)
from repro.api import (
    JobStatus,
    ScheduleRequest,
    ScheduleResponse,
    schedule_many,
)
from repro.config import RuntimeConfig

__version__ = "1.0.0"

__all__ = [
    # IR
    "OpClass",
    "Operation",
    "DependenceGraph",
    "DepKind",
    "Superblock",
    "SuperblockBuilder",
    "validate_superblock",
    "ValidationError",
    # machine
    "ClusteredMachine",
    "ClusterConfig",
    "ClusterSpec",
    "BusConfig",
    "InterconnectConfig",
    "RingConfig",
    "PointToPointConfig",
    "FuKind",
    "MachineFamily",
    "MachineSpec",
    "all_machine_specs",
    "machine_by_name",
    "machine_families",
    "machine_family",
    "paper_2c_8i_1lat",
    "paper_4c_16i_1lat",
    "paper_4c_16i_2lat",
    "paper_configurations",
    "example_2cluster",
    "example_1cluster_fig4",
    "unified",
    # bounds
    "awct",
    "min_awct",
    "min_exit_cycles",
    "compute_bounds",
    "ExitBoundEnumerator",
    # scheduling graph / virtual clusters / deduction
    "SchedulingGraph",
    "Combination",
    "VirtualClusterGraph",
    "Communication",
    "CommKind",
    "SchedulingState",
    "DeductionProcess",
    "DeductionResult",
    "WorkBudget",
    "Contradiction",
    # schedulers
    "Schedule",
    "ScheduleResult",
    "validate_schedule",
    "ScheduleError",
    "CarsScheduler",
    "ListScheduler",
    "VirtualClusterScheduler",
    "VcsConfig",
    # workloads
    "SuperblockGenerator",
    "GeneratorConfig",
    "BenchmarkProfile",
    "WorkloadFamily",
    "workload_families",
    "workload_family",
    "build_benchmark",
    "build_family",
    "build_suite",
    "train_variant",
    "all_profiles",
    "profile_by_name",
    "paper_figure1_block",
    "fir_kernel",
    "dot_product_kernel",
    "dct_butterfly_kernel",
    "string_search_kernel",
    # analysis
    "compare_block",
    "evaluate_benchmark",
    "geometric_mean",
    "EffortThresholds",
    "collect_effort",
    "format_speedup_series",
    "format_compile_time_table",
    "ScenarioCell",
    "run_scenario_matrix",
    # parallel runner
    "BatchScheduler",
    "BatchError",
    "enumerate_workload_jobs",
    "run_schedule_job",
    "resolve_jobs",
    # api facade / runtime config
    "JobStatus",
    "ScheduleRequest",
    "ScheduleResponse",
    "schedule_many",
    "RuntimeConfig",
    "__version__",
]
