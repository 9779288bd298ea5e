"""The ``repro suite`` subcommand: the paper's evaluation suite.

Schedules the selected benchmarks on the selected machine configurations
with CARS and with the proposed technique, sharded across ``--jobs``
worker processes, and emits the per-benchmark speed-up series
(Figure 11), the compile-effort distribution (Figure 10) and optionally
the cross-input comparison (Figure 12) as tables on stdout and as JSON.
Every experiment drives :func:`repro.api.schedule_many` — the same
facade the HTTP job server dispatches through.

The JSON has two top-level keys: ``results`` is a pure function of the
workload definition (schedule digests, dp work, cycle counts — byte-
identical for any ``--jobs`` value), while ``meta`` carries the
non-deterministic context (wall time, worker count, host).  The
determinism tests compare ``results`` only.

Usage::

    repro suite --jobs 4
    repro suite --suite specint --blocks 4
    repro suite --experiment all --output suite.json
    repro suite --benchmarks 130.li g721dec --jobs auto

Without an installed entry point, ``PYTHONPATH=src python -m repro.cli
suite …`` runs the same driver.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.analysis import EffortThresholds, format_compile_time_table, format_speedup_series
from repro.analysis.experiments import (
    backend_comparisons,
    run_backend_records,
    run_compile_time_experiment,
    run_cross_input_experiment,
    run_scenario_matrix,
    run_speedup_records,
)
from repro.machine import (
    all_machine_specs,
    machine_families,
    machine_family,
    paper_configurations,
)
from repro.runner import (
    BatchScheduler,
    CacheSpec,
    CacheStats,
    fingerprint_digest,
    shared_pool_stats,
)
from repro.scheduler import (
    BackendSpec,
    UnknownStageError,
    VcsConfig,
    available_backends,
    available_stages,
    backend_info,
    resolve_stage_order,
)
from repro.scheduler.registry import SCHEDULER_ENV_VAR, VCS_ENV_PREFIX
from repro.workloads import (
    all_profiles,
    build_suite,
    build_workload_families,
    profile_by_name,
    workload_families,
    workload_family,
)

EXPERIMENTS = ("speedup", "compile-time", "cross-input", "backends", "matrix")
#: Backends swept by the ``backends`` experiment: everything registered,
#: with the CARS baseline first (same source of truth as --list-schedulers,
#: so newly registered backends join the sweep automatically).
BACKEND_SWEEP = ("cars",) + tuple(b for b in available_backends() if b != "cars")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "--experiment",
        choices=EXPERIMENTS + ("all",),
        default="speedup",
        help="which evaluation to run (default: speedup)",
    )
    parser.add_argument(
        "--scheduler",
        default=None,
        metavar="NAME",
        help="proposed-side scheduler backend (see --list-schedulers; "
        "default: $REPRO_SCHEDULER or vcs)",
    )
    parser.add_argument(
        "--stages",
        metavar="NAME[,NAME...]",
        help="explicit decision-stage order for VCS-derived backends "
        "(names from the stage pipeline; extraction is appended when omitted)",
    )
    parser.add_argument(
        "--list-schedulers",
        action="store_true",
        help="list the registered scheduler backends and exit",
    )
    parser.add_argument(
        "--list-machines",
        action="store_true",
        help="list the known machine configurations (every family's specs) and exit",
    )
    parser.add_argument(
        "--list-machine-families",
        action="store_true",
        help="list the registered machine families and exit",
    )
    parser.add_argument(
        "--list-workload-families",
        action="store_true",
        help="list the registered workload families and exit",
    )
    parser.add_argument(
        "--suite",
        choices=("all", "specint", "mediabench"),
        default="all",
        help="benchmark suite to run (default: all 14 applications)",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        metavar="NAME",
        help="explicit benchmark names (overrides --suite)",
    )
    parser.add_argument(
        "--machines",
        nargs="+",
        metavar="NAME",
        help="machine configuration names from any family "
        "(default: the paper's three)",
    )
    parser.add_argument(
        "--machine-family",
        nargs="+",
        metavar="NAME",
        dest="machine_families",
        help="machine families: the figure experiments run on every machine "
        "of the selected families, and the matrix experiment sweeps them "
        "(default: paper)",
    )
    parser.add_argument(
        "--workload-family",
        nargs="+",
        metavar="NAME",
        dest="workload_families",
        help="workload families: the figure experiments run every profile of "
        "the selected families, and the matrix experiment sweeps them "
        "(default: the --suite selection; matrix default: kernels)",
    )
    parser.add_argument(
        "--blocks",
        type=int,
        default=2,
        help="superblocks generated per benchmark (default: 2)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="deduction-work budget per block "
        "(default: $REPRO_VCS_WORK_BUDGET or 60000)",
    )
    parser.add_argument(
        "--jobs",
        default=None,
        help="worker processes: an integer or 'auto' (default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="jobs per pool task (default: computed from the batch size)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job time allowance in seconds (default: none)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this run "
        "(equivalent to REPRO_CACHE=off)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument("--output", metavar="PATH", help="write the JSON report here")
    parser.add_argument("--quiet", action="store_true", help="suppress the stdout tables")
    return parser.parse_args(argv)


def select_profiles(args: argparse.Namespace):
    if args.benchmarks:
        try:
            return [profile_by_name(name) for name in args.benchmarks]
        except KeyError as exc:
            # profile_by_name raises KeyError with a full message already.
            known = sorted(p.name for p in all_profiles())
            raise SystemExit(f"{exc.args[0]}; known: {known}") from None
    profiles = all_profiles()
    if args.suite != "all":
        profiles = [p for p in profiles if p.suite == args.suite]
    return profiles


def select_workload_families(names):
    """Resolve workload family names (non-zero exit on unknown ones)."""
    try:
        return [workload_family(name) for name in names]
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None


def select_machine_families(names):
    """Resolve machine family names (non-zero exit on unknown ones)."""
    try:
        return [machine_family(name) for name in names]
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None


def build_workloads(args: argparse.Namespace):
    """The workload populations the figure experiments run on.

    ``--workload-family`` builds the selected families (any registered
    family, parametric or paper); otherwise the ``--suite``/
    ``--benchmarks`` profile selection is generated as before."""
    if args.workload_families:
        try:
            pairs = build_workload_families(args.workload_families, args.blocks)
        except (KeyError, ValueError) as exc:
            raise SystemExit(exc.args[0]) from None
        return [workload for _, workload in pairs]
    return build_suite(select_profiles(args), blocks_per_benchmark=args.blocks)


def select_machines(args: argparse.Namespace):
    if args.machines:
        specs = all_machine_specs()
        missing = [name for name in args.machines if name not in specs]
        if missing:
            raise SystemExit(
                f"unknown machine(s) {missing}; known: {sorted(specs)} "
                "(see --list-machines)"
            )
        return [specs[name].to_machine() for name in args.machines]
    if args.machine_families:
        machines = []
        seen = set()
        for family in select_machine_families(args.machine_families):
            for machine in family.machines():
                if machine.name not in seen:
                    seen.add(machine.name)
                    machines.append(machine)
        return machines
    return paper_configurations()


def select_scheduler(args: argparse.Namespace) -> str:
    """The proposed-side backend: ``--scheduler`` wins over the
    ``REPRO_SCHEDULER`` environment override; validated against the
    registry (non-zero exit on unknown names)."""
    name = args.scheduler or os.environ.get(SCHEDULER_ENV_VAR) or "vcs"
    if name not in available_backends():
        raise SystemExit(
            f"unknown scheduler {name!r}; known: {available_backends()} "
            "(see --list-schedulers)"
        )
    return name


def build_vcs_config(args: argparse.Namespace) -> VcsConfig:
    """The VCS knobs shared by every VCS-derived backend of the run:
    ``REPRO_VCS_<FIELD>`` environment overrides first, then the explicit
    ``--stages`` flag on top.  Only the VCS fields are read here — the
    backend name is :func:`select_scheduler`'s business, so a stale
    ``REPRO_SCHEDULER`` cannot abort a run that picked a valid
    ``--scheduler`` explicitly."""
    vcs_env = {
        key: value for key, value in os.environ.items() if key.startswith(VCS_ENV_PREFIX)
    }
    try:
        config = BackendSpec.from_env(env=vcs_env).vcs or VcsConfig()
        if args.stages:
            names = tuple(name.strip() for name in args.stages.split(",") if name.strip())
            config = replace(config, stage_order=names)
        # Resolve once so a bad order fails before any scheduling happens.
        resolve_stage_order(config)
    except (UnknownStageError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    return config


def build_cache(args: argparse.Namespace) -> CacheSpec:
    """The result-cache configuration of this run: ``--no-cache`` /
    ``--cache-dir`` win over ``REPRO_CACHE`` / ``REPRO_CACHE_DIR``
    (non-zero exit on contradictory or unusable selections)."""
    if args.no_cache and args.cache_dir:
        raise SystemExit(
            "--no-cache and --cache-dir are mutually exclusive: --no-cache "
            "disables the result cache entirely, --cache-dir relocates it "
            "(drop one of the two)"
        )
    if args.no_cache:
        return CacheSpec.disabled()
    if args.cache_dir:
        path = Path(args.cache_dir)
        if path.exists() and not path.is_dir():
            raise SystemExit(
                f"--cache-dir {str(path)!r} exists and is not a directory; "
                "pass a directory path (it is created on the first store)"
            )
        return CacheSpec.from_env(cache_dir=str(path))
    return CacheSpec.from_env()


def list_schedulers() -> int:
    print("registered scheduler backends:")
    for name in available_backends():
        info = backend_info(name)
        knobs = " [takes --stages and VCS knobs]" if info.uses_vcs_config else ""
        print(f"  {name:8s} {info.description}{knobs}")
    print(f"\ndecision stages (VCS pipeline order): {', '.join(available_stages())}")
    return 0


def list_machines() -> int:
    print("known machine configurations (by family):")
    for family in machine_families():
        print(f"{family.name}: {family.description}")
        for spec in family.specs:
            print(f"  {spec.name:16s} {spec.describe()}")
    return 0


def list_machine_families() -> int:
    print("registered machine families:")
    for family in machine_families():
        print(f"  {family.name:16s} {len(family.specs):2d} machines  {family.description}")
    return 0


def list_workload_families() -> int:
    print("registered workload families:")
    for family in workload_families():
        count = len(family.benchmark_names)
        print(f"  {family.name:12s} {count:2d} workloads  {family.description}")
    return 0


def comparison_row(comparison) -> dict:
    return {
        "benchmark": comparison.name,
        "suite": comparison.suite,
        "n_blocks": comparison.n_blocks,
        "baseline_cycles": comparison.baseline_cycles,
        "proposed_cycles": comparison.proposed_cycles,
        "speedup": comparison.speedup,
        "fallback_fraction": comparison.fallback_fraction,
    }


def effort_row(stats, thresholds: EffortThresholds) -> dict:
    return {
        "scheduler": stats.scheduler,
        "machine": stats.machine,
        "n_blocks": stats.n_blocks,
        "total_work": stats.total_work,
        "timed_out_blocks": stats.timed_out_blocks,
        "fractions": stats.fractions(thresholds),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.list_schedulers:
        return list_schedulers()
    if args.list_machines:
        return list_machines()
    if args.list_machine_families:
        return list_machine_families()
    if args.list_workload_families:
        return list_workload_families()
    scheduler = select_scheduler(args)
    vcs_config = build_vcs_config(args)
    # Explicit --budget wins over the REPRO_VCS_WORK_BUDGET override the
    # config layer read from the environment.
    if args.budget is not None:
        budget = args.budget
    elif vcs_config.work_budget is not None:
        budget = vcs_config.work_budget
    else:
        budget = 60_000
    machines = select_machines(args)
    runner = BatchScheduler(jobs=args.jobs, chunk_size=args.chunk_size, timeout=args.timeout)
    cache_spec = build_cache(args)
    cache_stats = CacheStats()
    experiments = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    # The matrix sweeps whole families; the figure experiments a flat
    # workload x machine selection.
    matrix_machine_families = args.machine_families or ["paper"]
    matrix_workload_families = args.workload_families or ["kernels"]
    if "matrix" in experiments:
        select_machine_families(matrix_machine_families)
        select_workload_families(matrix_workload_families)

    # The figure-suite population is only generated when a figure
    # experiment will schedule it; a matrix-only run describes its
    # workloads in the results["matrix"] section instead.
    figure_experiments = tuple(name for name in experiments if name != "matrix")
    suite = build_workloads(args) if figure_experiments else []
    n_blocks = sum(w.n_blocks for w in suite)
    # Jobs per (block, machine): the backend sweep schedules every
    # registered backend, the figure experiments a (baseline, proposed)
    # pair.  The matrix enumerates its own cross product and reports it
    # when it runs.
    def experiment_jobs(name: str) -> int:
        if name == "matrix":
            return 0
        per_block = len(BACKEND_SWEEP) if name == "backends" else 2
        return per_block * n_blocks * len(machines)

    total_jobs = sum(experiment_jobs(name) for name in experiments)
    if not args.quiet:
        print(
            f"[suite] {len(suite)} benchmarks x {args.blocks} blocks x "
            f"{len(machines)} machines ({total_jobs} jobs over "
            f"{len(experiments)} experiment(s)) "
            f"on {runner.n_workers} worker(s), proposed backend {scheduler!r}"
        )

    results: dict = {
        "workload": {
            "benchmarks": [w.name for w in suite],
            "blocks_per_benchmark": args.blocks,
            "machines": [m.name for m in machines],
            "work_budget": budget,
            "scheduler": scheduler,
            "stage_order": list(resolve_stage_order(vcs_config)),
        },
    }
    t0 = time.perf_counter()

    if "speedup" in experiments:
        grouped = run_speedup_records(
            suite,
            machines,
            work_budget=budget,
            vcs_config=vcs_config,
            runner=runner,
            schedulers=("cars", scheduler),
            cache=cache_spec,
            cache_stats=cache_stats,
        )
        results["speedup"] = {
            machine.name: [record.comparison() for record in grouped[machine.name]]
            for machine in machines
        }
        results["schedule_digests"] = {
            machine.name: fingerprint_digest(
                fp for record in grouped[machine.name] for fp in record.fingerprints()
            )
            for machine in machines
        }
        results["dp_work"] = {
            machine.name: sum(
                result.work
                for record in grouped[machine.name]
                for result in record.baseline_results + record.proposed_results
            )
            for machine in machines
        }
        if not args.quiet:
            for machine in machines:
                print(f"\n=== speed-up over CARS | {machine.name} ===")
                print(format_speedup_series(results["speedup"][machine.name]))
        results["speedup"] = {
            name: [comparison_row(c) for c in rows] for name, rows in results["speedup"].items()
        }

    if "backends" in experiments:
        backend_records = run_backend_records(
            suite,
            machines,
            BACKEND_SWEEP,
            work_budget=budget,
            vcs_config=vcs_config,
            runner=runner,
            cache=cache_spec,
            cache_stats=cache_stats,
        )
        rows = [
            {
                "backend": record.backend,
                "benchmark": record.workload.name,
                "machine": record.machine.name,
                "total_work": record.total_work,
                "total_cycles": sum(r.total_cycles for r in record.results if r.ok),
                "fallback_blocks": sum(1 for r in record.results if r.fallback_used),
            }
            for record in backend_records
        ]
        digests = {
            backend: fingerprint_digest(
                fp
                for record in backend_records
                if record.backend == backend
                for fp in record.fingerprints()
            )
            for backend in BACKEND_SWEEP
        }
        grouped = backend_comparisons(backend_records, baseline="cars")
        results["backends"] = {
            "rows": rows,
            "schedule_digests": digests,
            "speedup_vs_cars": {
                machine_name: {
                    backend: [comparison_row(c) for c in comparisons]
                    for backend, comparisons in by_backend.items()
                }
                for machine_name, by_backend in grouped.items()
            },
        }
        if not args.quiet:
            for machine in machines:
                print(f"\n=== backend comparison vs CARS | {machine.name} ===")
                for backend, comparisons in grouped[machine.name].items():
                    print(f"-- {backend} --")
                    print(format_speedup_series(comparisons))

    if "compile-time" in experiments:
        thresholds = EffortThresholds(
            small=max(budget // 30, 500),
            medium=max(budget // 4, 2000),
            large=budget,
        )
        stats = run_compile_time_experiment(
            suite,
            machines,
            thresholds,
            runner=runner,
            vcs_config=vcs_config,
            schedulers=("cars", scheduler),
            cache=cache_spec,
            cache_stats=cache_stats,
        )
        if not args.quiet:
            print("\n=== compile-effort distribution ===")
            print(format_compile_time_table(stats, thresholds))
        results["compile_time"] = {
            "thresholds": dict(zip(thresholds.labels, thresholds.as_tuple())),
            "rows": [effort_row(s, thresholds) for s in stats],
        }

    if "cross-input" in experiments:
        grouped = run_cross_input_experiment(
            suite,
            machines,
            work_budget=budget,
            runner=runner,
            vcs_config=vcs_config,
            schedulers=("cars", scheduler),
            cache=cache_spec,
            cache_stats=cache_stats,
        )
        if not args.quiet:
            for machine in machines:
                print(f"\n=== cross-input (train-profile scheduling) | {machine.name} ===")
                print(format_speedup_series(grouped[machine.name]))
        results["cross_input"] = {
            name: [comparison_row(c) for c in rows] for name, rows in grouped.items()
        }

    if "matrix" in experiments:
        backends = ("cars", scheduler) if scheduler != "cars" else ("cars",)
        cells, _records = run_scenario_matrix(
            matrix_machine_families,
            matrix_workload_families,
            backends=backends,
            blocks_per_benchmark=args.blocks,
            work_budget=budget,
            vcs_config=vcs_config,
            runner=runner,
            cache=cache_spec,
            cache_stats=cache_stats,
        )
        results["matrix"] = {
            "machine_families": list(matrix_machine_families),
            "workload_families": list(matrix_workload_families),
            "backends": list(backends),
            "cells": [cell.as_row() for cell in cells],
        }
        if not args.quiet:
            print(
                f"\n=== scenario matrix | {len(cells)} cells "
                f"({'+'.join(matrix_machine_families)} x "
                f"{'+'.join(matrix_workload_families)} x {'+'.join(backends)}) ==="
            )
            header = (
                f"{'machine':18s} {'workloads':12s} {'backend':8s} "
                f"{'blocks':>6s} {'dp_work':>10s} {'cycles':>12s} {'fb':>3s}"
            )
            print(header)
            for cell in cells:
                print(
                    f"{cell.machine:18s} {cell.workload_family:12s} "
                    f"{cell.backend:8s} {cell.n_blocks:6d} {cell.dp_work:10d} "
                    f"{cell.total_cycles:12.0f} {cell.fallback_blocks:3d}"
                )

    wall = time.perf_counter() - t0
    report = {
        "meta": {
            "jobs": runner.n_workers,
            "cpu_count": os.cpu_count(),
            "wall_time_s": wall,
            "experiments": list(experiments),
            "python": sys.version.split()[0],
            "cache": {
                "enabled": cache_spec.enabled,
                "dir": cache_spec.root if cache_spec.enabled else None,
                **cache_stats.to_dict(),
            },
            "pool": shared_pool_stats(),
        },
        "results": results,
    }
    if not args.quiet:
        per_sec = total_jobs / wall if wall > 0 else 0.0
        cache_note = (
            f", cache {cache_stats.hits}/{cache_stats.lookups} hits"
            if cache_spec.enabled
            else ", cache off"
        )
        print(
            f"\n[suite] wall time {wall:.2f}s "
            f"({per_sec:.1f} schedules/s, {runner.n_workers} worker(s){cache_note})"
        )
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        if not args.quiet:
            print(f"[suite] wrote {args.output}")
    return 0
