"""Per-layer metrics of the traced run.

Every workload reports the same set of layer metrics; a layer the
workload bypasses reads 0 (for example no HTTP on ``compile-cold``).
Counts and busy times are given per *pass*: one pass schedules each
distinct (block, machine) job once, so a count repeats exactly from run
to run however many passes fit in the measured time.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from perfbench.common import median, percentile, share

#: The pipeline stages, as named in ``ScheduleResult.stage_timings``.
STAGES = (
    "combinations",
    "fix-cycles",
    "eliminate-outedges",
    "final-mapping",
    "fix-communications",
    "extraction",
)

#: The deduction rule classes, as counted in ``ScheduleResult.stats``.
RULES = (
    "BackwardBoundPropagation",
    "ChosenCombinationClusterRule",
    "ClassWindowPressureRule",
    "CombinationWindowRule",
    "CommunicationLinkRule",
    "CommunicationSlackRule",
    "CommunicationTimingRule",
    "ComponentPropagation",
    "FixedCycleResourceRule",
    "ForwardBoundPropagation",
    "IncompatibilityCommunicationRule",
    "MustOverlapRule",
    "PLCCreationRule",
    "PLCPromotionRule",
    "VCFusionResourceRule",
)

_SCHEDULER = [
    "scheduler.vcs.block_ms.p50",
    "scheduler.vcs.block_ms.p90",
    "scheduler.vcs.busy_s",
    *[f"scheduler.stage.{stage}_s" for stage in STAGES],
    "scheduler.vcs.unstaged_s",
    "deduction.dp_work",
    "deduction.fires_per_s",
    *[f"deduction.rule.{rule}" for rule in RULES],
    "deduction.probes",
    "deduction.rollbacks",
    "deduction.redos",
    "deduction.probe_cache_hit_share",
    "trail.entries_undone",
    "trail.undone_per_rollback",
    "scheduler.vcs.fallback_share",
    "scheduler.vcs.fallback_busy_share",
    "scheduler.vcs.awct_steps",
]

#: Every layer metric, in report order.
LAYER_METRICS = [
    *_SCHEDULER,
    "scheduler.cars.busy_s",
    "scheduler.validate_ms.p50",
    "runner.cache.put_us.p50",
    "scheduler.fingerprint.key_us.p50",
    "runner.cache.get_us.p50",
    "runner.cache.entry_kb",
    "runner.cache.hit_share",
    "runner.dispatch_us_per_job",
    "runner.pool.spin_ups",
    "api.request_encode_us.p50",
    "api.request_decode_us.p50",
    "service.submit_ms.p50",
    "service.fetch_ms.p50",
    "service.queue_wait_ms.p50",
    "service.queue_wait_ms.p90",
    "service.run_ms.p50",
    "service.run_ms.p90",
    "repro.import_s",
    "workloads.build_s",
    "trace.overhead_share",
    "runner.unaccounted_share",
]


def blank() -> Dict[str, float]:
    return {name: 0.0 for name in LAYER_METRICS}


def scheduler_layers(computed: Sequence[Tuple[object, float]], passes: int) -> Dict[str, float]:
    """Scheduler, deduction and trail metrics of the jobs that were
    actually computed: ``(ScheduleResult, seconds in schedule())`` each."""
    if not computed:
        return {}
    per_pass = 1.0 / max(passes, 1)
    results = [result for result, _ in computed]
    seconds = [s for _, s in computed]
    busy = sum(seconds)

    def total(stat: str) -> float:
        return float(sum(result.stats.get(stat, 0) for result in results))

    stages = {
        stage: sum(r.stage_timings.get(stage, {}).get("wall_time_s", 0.0) for r in results)
        for stage in STAGES
    }
    work = float(sum(result.work for result in results))
    rollbacks = total("rollbacks")
    cache_hits, cache_misses = total("probe_cache_hits"), total("probe_cache_misses")
    fallback = [s for (result, s) in computed if result.fallback_used]
    out = {
        "scheduler.vcs.block_ms.p50": percentile(seconds, 50) * 1e3,
        "scheduler.vcs.block_ms.p90": percentile(seconds, 90) * 1e3,
        "scheduler.vcs.busy_s": busy * per_pass,
        "scheduler.vcs.unstaged_s": (busy - sum(stages.values())) * per_pass,
        "deduction.dp_work": work * per_pass,
        "deduction.fires_per_s": share(work, busy),
        "deduction.probes": total("probes") * per_pass,
        "deduction.rollbacks": rollbacks * per_pass,
        "deduction.redos": total("redos") * per_pass,
        "deduction.probe_cache_hit_share": share(cache_hits, cache_hits + cache_misses),
        "trail.entries_undone": total("trail_entries_undone") * per_pass,
        "trail.undone_per_rollback": share(total("trail_entries_undone"), rollbacks),
        "scheduler.vcs.fallback_share": share(len(fallback), len(results)),
        "scheduler.vcs.fallback_busy_share": share(sum(fallback), busy),
        "scheduler.vcs.awct_steps": sum(r.awct_target_steps for r in results) * per_pass,
    }
    for stage, seconds_in_stage in stages.items():
        out[f"scheduler.stage.{stage}_s"] = seconds_in_stage * per_pass
    for rule in RULES:
        out[f"deduction.rule.{rule}"] = total(f"dp_rule_{rule}") * per_pass
    return out


def p50_us(seconds: Iterable[float]) -> float:
    return percentile(list(seconds), 50) * 1e6


def p50_ms(seconds: Iterable[float]) -> float:
    return percentile(list(seconds), 50) * 1e3


def entry_kb(root: Path) -> float:
    """Median size of the result-cache entries under *root*, in KiB."""
    sizes: List[int] = []
    for directory, _, files in os.walk(root):
        sizes.extend(
            os.path.getsize(os.path.join(directory, f)) for f in files if f.endswith(".pkl")
        )
    return median(sizes) / 1024.0 if sizes else 0.0
