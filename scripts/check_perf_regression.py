#!/usr/bin/env python
"""CI perf-regression gate: compare a fresh ``BENCH_vcs.json`` against
the committed one.

Gated (the job fails on any mismatch):

* the workload definition (kernels, synthetic blocks, machines) — a drift
  here means the two reports are not comparable at all;
* per machine and probing mode: ``dp_work`` (deterministic deduction
  effort) and ``schedule_digest`` (SHA-256 over every produced schedule)
  — together they detect both silent behaviour changes and schedule
  regressions;
* per scheduler backend (``cars``/``vcs``/``list``/``hybrid``) and
  machine: ``dp_work`` and ``schedule_digest`` of the registry sweep —
  a behaviour change in *any* backend fails the gate, not just the
  default pair;
* per scenario cell (machine x workload family x backend) of the
  scenario-matrix sample: ``dp_work`` and ``schedule_digest`` — ring and
  point-to-point topologies and the parametric workload families are
  byte-tracked like the default configurations;
* the fresh report's serial-vs-parallel identity flag — the parallel
  runner must not change any schedule;
* the ``runner`` section: warm-pool parallel schedules byte-identical to
  serial with throughput >= 1.0x (skipped with an explicit reason on
  single-CPU hosts), and a warm scenario-matrix re-run served entirely
  from the result cache (zero recomputed cells, identical digests).

Also gated: the fresh report must carry the deduction-counter section
with every expected block (per-rule-class ``dp_work`` split, probing
counters including early-cut) — a missing block means
``bench_report.py`` silently stopped recording a deterministic signal
the warnings below depend on.

Reported but NOT gated: wall times, throughput and the per-decision-stage
timing breakdown (host dependent).  Per-stage timing drift against the
committed report is surfaced as a warning section, as is drift in the
deduction-layer counters (per-rule-class ``dp_work`` split, probing
counters) and in the fix-cycles wall share (the fraction of the VCS
stage wall spent in the two probing stages): those counters are deterministic, but a shift
with an unchanged total usually means a rule or probing-policy change
worth a look, not a regression — and the wall share is host dependent to
boot.

Usage::

    python scripts/check_perf_regression.py BENCH_vcs.json BENCH_fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Probing modes whose deterministic outputs are gated.
GATED_MODES = ("trail", "copy")


def load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"[gate] cannot read {path}: {exc}")


def machine_rows(report: dict, mode: str) -> dict:
    return {m["machine"]: m for m in report.get(mode, {}).get("machines", [])}


def report_stage_drift(old_stages: dict, new_stages: dict) -> None:
    """Per-decision-stage timing drift vs the committed report (warnings,
    never gated: wall times are host dependent, but a stage suddenly
    dominating the pipeline is worth a look before it shows up as a wall
    regression)."""
    if not new_stages:
        return
    if not old_stages:
        for stage, entry in new_stages.items():
            print(
                f"[gate] vcs stage {stage}: {entry.get('wall_time_s', 0):.2f}s "
                f"over {entry.get('calls', 0)} calls (not gated)"
            )
        return
    old_total = sum(entry.get("wall_time_s", 0) for entry in old_stages.values())
    new_total = sum(entry.get("wall_time_s", 0) for entry in new_stages.values())
    for stage in sorted(set(old_stages) | set(new_stages)):
        old = old_stages.get(stage, {})
        new = new_stages.get(stage, {})
        old_share = old.get("wall_time_s", 0) / old_total if old_total else 0.0
        new_share = new.get("wall_time_s", 0) / new_total if new_total else 0.0
        line = (
            f"vcs stage {stage}: {old.get('wall_time_s', 0):.2f}s "
            f"({old_share:5.1%}) -> {new.get('wall_time_s', 0):.2f}s "
            f"({new_share:5.1%}), calls {old.get('calls', 0)} -> {new.get('calls', 0)}"
        )
        drifted = abs(new_share - old_share) > 0.10
        calls_changed = old.get("calls") != new.get("calls")
        if drifted or calls_changed:
            why = []
            if drifted:
                why.append("wall-time share drifted > 10pp")
            if calls_changed:
                why.append("call count changed")
            print(f"[gate] WARNING {line} ({'; '.join(why)}; not gated)")
        else:
            print(f"[gate] {line} (not gated)")


#: Blocks the fresh report's ``deduction`` section must carry.  Their
#: *values* are warned on, not gated, but their *presence* is: dropping
#: one silently would blind the drift warnings below.
DEDUCTION_BLOCKS = ("dp_work_by_rule", "probing")


def check_deduction_blocks(new_section, errors: list) -> None:
    """Gate the shape of the fresh deduction-counter section."""
    if not new_section:
        errors.append(
            "fresh report is missing the 'deduction' counter section "
            "(bench_report.py no longer aggregating the probe stats?)"
        )
        return
    missing = [block for block in DEDUCTION_BLOCKS if block not in new_section]
    if missing:
        errors.append(
            f"fresh deduction section is missing the {missing} block(s) "
            "(bench_report.py stopped recording a deterministic counter group)"
        )


def report_deduction_drift(old_section, new_section) -> None:
    """Deduction-counter drift vs the committed report (warnings only).

    Compares the per-rule-class ``dp_work`` split, the probing counters
    (probes/rollbacks/redos plus early-cut) and the fix-cycles wall
    share.  Never gated: the gated ``dp_work`` totals and digests
    already pin behaviour; this surfaces *where* inside the deduction the effort
    moved when they legitimately change."""
    if not new_section:
        return
    if not old_section:
        print("[gate] committed report predates the deduction counters; not compared")
        return
    old_rules = old_section.get("dp_work_by_rule", {})
    new_rules = new_section.get("dp_work_by_rule", {})
    for rule in sorted(set(old_rules) | set(new_rules)):
        old, new = old_rules.get(rule, 0), new_rules.get(rule, 0)
        if old != new:
            print(f"[gate] WARNING deduction rule {rule}: dp_work {old} -> {new} (not gated)")
    old_probing = old_section.get("probing") or {}
    new_probing = new_section.get("probing") or {}
    for counter in sorted(set(old_probing) | set(new_probing)):
        old, new = old_probing.get(counter, 0), new_probing.get(counter, 0)
        if old != new:
            print(f"[gate] WARNING deduction probing {counter}: {old} -> {new} (not gated)")
    old_share = old_section.get("fix_cycles_wall_share")
    new_share = new_section.get("fix_cycles_wall_share")
    if isinstance(old_share, float) and isinstance(new_share, float):
        line = f"fix-cycles wall share: {old_share:.1%} -> {new_share:.1%}"
        if abs(new_share - old_share) > 0.10:
            print(f"[gate] WARNING {line} (drifted > 10pp; host dependent, not gated)")
        else:
            print(f"[gate] {line} (not gated)")
    elif new_share is not None:
        print(f"[gate] fix-cycles wall share: {new_share:.1%} (no committed value; not gated)")


def check_policy(old_section, new_section, errors: list) -> None:
    """The anytime-policy section: presence gated, curve drift warned.

    The curve's inputs are deterministic (dp_work-fraction budgets,
    deterministic scheduling), but the curve is a quality trajectory, not
    a byte-identity invariant: legitimate scheduler changes move it.  So
    a missing section fails the gate — ``bench_report.py`` silently
    stopped recording degradation quality — while value drift is
    surfaced as warnings for a human to judge."""
    if new_section is None:
        if old_section is not None:
            errors.append(
                "fresh report is missing the 'policy' anytime-curve section the "
                "committed report has (bench_report.py no longer measuring "
                "budget-policy degradation quality?)"
            )
        return
    if old_section is None:
        print("[gate] committed report predates the policy anytime curve; not compared")
        return
    if old_section.get("config") != new_section.get("config"):
        print(
            "[gate] WARNING policy curve configuration changed "
            f"({old_section.get('config')} -> {new_section.get('config')}); "
            "values not compared (not gated)"
        )
        return
    old_curve = {point["fraction"]: point for point in old_section.get("anytime_curve", [])}
    new_curve = {point["fraction"]: point for point in new_section.get("anytime_curve", [])}
    for fraction in sorted(set(old_curve) | set(new_curve)):
        old = old_curve.get(fraction)
        new = new_curve.get(fraction)
        if old is None or new is None:
            print(
                f"[gate] WARNING policy curve fraction {fraction} "
                f"{'appeared' if old is None else 'disappeared'} (not gated)"
            )
            continue
        for key in (
            "mean_awct_ratio_vs_full",
            "mean_awct_ratio_vs_cars",
            "partial_finalize_rate",
            "fallback_rate",
        ):
            old_value, new_value = old.get(key), new.get(key)
            if old_value is None or new_value is None:
                continue
            if abs(new_value - old_value) > 1e-9:
                print(
                    f"[gate] WARNING policy curve @{fraction:.0%} {key}: "
                    f"{old_value:.4f} -> {new_value:.4f} (not gated)"
                )
    matched = [
        fraction
        for fraction in sorted(set(old_curve) & set(new_curve))
    ]
    if matched:
        print(
            f"[gate] policy anytime curve: {len(matched)} budget fractions compared "
            "(drift warns, presence gated)"
        )


def scenario_cells(section: dict) -> dict:
    return {
        (cell["machine"], cell["workload_family"], cell["backend"]): cell
        for cell in section.get("cells", [])
    }


def check_scenarios(old_section, new_section, errors: list) -> None:
    """Gate the scenario-matrix sample: per-cell dp_work and digest."""
    if old_section is None:
        # Only the committed report may legitimately predate the sweep.
        print("[gate] committed report predates the scenario sweep; skipping")
        return
    if new_section is None:
        errors.append(
            "fresh report is missing the 'scenarios' sweep the committed report "
            "has (bench_report.py no longer sampling the scenario matrix?)"
        )
        return
    if old_section.get("config") != new_section.get("config"):
        errors.append(
            "scenario sweep configuration differs (not comparable):\n"
            f"  committed: {old_section.get('config')}\n"
            f"  fresh:     {new_section.get('config')}"
        )
        return
    old_cells, new_cells = scenario_cells(old_section), scenario_cells(new_section)
    if set(old_cells) != set(new_cells):
        errors.append(f"scenario cell sets differ: {sorted(old_cells)} vs {sorted(new_cells)}")
        return
    changed = 0
    for key in sorted(old_cells):
        old, new = old_cells[key], new_cells[key]
        for field in ("dp_work", "schedule_digest"):
            if old.get(field) != new.get(field):
                changed += 1
                errors.append(
                    f"scenario {key}: {field} changed: "
                    f"{old.get(field)!r} -> {new.get(field)!r}"
                )
    if not changed:
        print(
            f"[gate] scenario sweep: {len(new_cells)} cells "
            "(dp_work + digests) match the committed report"
        )


def check_runner(new_section, errors: list) -> None:
    """Gate the runner-layer section of the fresh report.

    Presence is gated (all three blocks), as are the deterministic
    invariants: warm-pool parallel schedules byte-identical to serial,
    warm parallel throughput >= 1.0x serial (skipped with an explicit
    reason on single-CPU hosts — never silently), and a warm matrix
    re-run that recomputes zero cells with byte-identical digests.
    Wall times themselves are reported, not gated."""
    if not new_section:
        errors.append(
            "fresh report is missing the 'runner' section "
            "(bench_report.py no longer measuring the pool/cache layer?)"
        )
        return
    missing = [block for block in ("pool", "parallel", "matrix") if block not in new_section]
    if missing:
        errors.append(f"fresh runner section is missing the {missing} block(s)")
        return

    pool = new_section["pool"]
    reuse = pool.get("reuse_speedup_vs_fresh")
    print(
        f"[gate] runner pool: reused {pool.get('reused_pool_wall_s', 0):.2f}s vs fresh "
        f"{pool.get('fresh_pool_wall_s', 0):.2f}s over {pool.get('batches')} batches "
        + (f"({reuse:.2f}x, not gated)" if reuse is not None else "(not gated)")
    )

    parallel = new_section["parallel"]
    if parallel.get("schedules_identical_serial_vs_parallel") is not True:
        errors.append(
            "runner warm-pool parallel schedules differ from serial "
            f"(runner.parallel section: {parallel})"
        )
    throughput = parallel.get("throughput_speedup_vs_serial")
    if parallel.get("skipped"):
        print(f"[gate] runner warm throughput gate skipped: {parallel['skipped']}")
    elif throughput is None:
        errors.append(
            "runner.parallel carries neither a throughput ratio nor a skip "
            f"reason (section: {parallel})"
        )
    elif throughput < 1.0:
        errors.append(
            f"warm-pool parallel throughput {throughput:.2f}x is below serial "
            f"({parallel.get('jobs')} workers on {parallel.get('cpu_count')} cpus) "
            "— the persistent pool should make parallel at least break even"
        )
    else:
        print(
            f"[gate] runner warm throughput: {throughput:.2f}x serial "
            f"({parallel.get('jobs')} workers on {parallel.get('cpu_count')} cpus), gated >= 1.0"
        )

    matrix = new_section["matrix"]
    recomputed = matrix.get("warm_recomputed")
    if recomputed != 0:
        errors.append(
            f"warm matrix re-run recomputed {recomputed!r} cell job(s); the "
            "result cache must serve a warm re-run entirely from disk "
            f"(warm cache stats: {matrix.get('warm_cache')})"
        )
    if matrix.get("digests_identical_warm_vs_cold") is not True:
        errors.append(
            "warm matrix re-run digests differ from the cold run "
            f"(runner.matrix section: {matrix})"
        )
    if recomputed == 0 and matrix.get("digests_identical_warm_vs_cold") is True:
        print(
            f"[gate] runner cache: warm matrix re-run of {matrix.get('cells')} cells "
            f"served 100% from cache ({matrix.get('cold_wall_s', 0):.2f}s cold -> "
            f"{matrix.get('warm_wall_s', 0):.2f}s warm), digests identical"
        )


def check_service(new_section, errors: list) -> None:
    """Gate the HTTP job-server section of the fresh report.

    Presence is gated, as are the deterministic invariants: >= 4
    concurrent clients, every HTTP response byte-identical to the batch
    path (aggregate digest and ``dp_work``), and a warm replay served
    100% from the result cache.  Submit-to-result latency percentiles
    are reported, not gated (host dependent)."""
    if not new_section:
        errors.append(
            "fresh report is missing the 'service' section "
            "(bench_report.py no longer measuring the HTTP job server?)"
        )
        return
    n_before = len(errors)
    clients = new_section.get("clients", 0)
    if clients < 4:
        errors.append(
            f"service load bench ran {clients} concurrent client(s); the gate "
            "requires >= 4"
        )
    if new_section.get("http_identical_to_batch") is not True:
        errors.append(
            "HTTP job-server responses are not byte-identical to the batch "
            f"path (service section: cold digest "
            f"{new_section.get('cold', {}).get('http_digest')!r} vs batch "
            f"{new_section.get('digest')!r})"
        )
    hit_rate = new_section.get("warm_hit_rate")
    if hit_rate != 1.0:
        errors.append(
            f"warm HTTP replay hit rate {hit_rate!r} != 1.0 — repeated "
            "submissions must be served from the result cache "
            f"(warm pass: {new_section.get('warm')})"
        )
    for leg in ("cold", "warm"):
        pass_stats = new_section.get(leg, {})
        if pass_stats.get("errors"):
            errors.append(
                f"service {leg} pass had {pass_stats['errors']} failed "
                f"submission(s) of {new_section.get('jobs')} jobs"
            )
    if len(errors) == n_before:
        cold = new_section.get("cold", {}).get("latency", {})
        warm = new_section.get("warm", {}).get("latency", {})
        print(
            f"[gate] service: {new_section.get('jobs')} jobs x {clients} clients, "
            f"HTTP identical to batch, warm hit rate 1.0 | latency cold "
            f"p50 {cold.get('p50_s', 0) * 1000:.0f}ms p99 {cold.get('p99_s', 0) * 1000:.0f}ms, "
            f"warm p50 {warm.get('p50_s', 0) * 1000:.0f}ms "
            f"p99 {warm.get('p99_s', 0) * 1000:.0f}ms (not gated)"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("committed", help="the BENCH_vcs.json checked into the repository")
    parser.add_argument("fresh", help="the BENCH_vcs.json produced by this run")
    args = parser.parse_args()

    committed = load(args.committed)
    fresh = load(args.fresh)
    errors = []

    if committed.get("workload") != fresh.get("workload"):
        errors.append(
            "workload definition differs (not comparable):\n"
            f"  committed: {committed.get('workload')}\n"
            f"  fresh:     {fresh.get('workload')}"
        )
    else:
        for mode in GATED_MODES:
            old_rows = machine_rows(committed, mode)
            new_rows = machine_rows(fresh, mode)
            if set(old_rows) != set(new_rows):
                errors.append(
                    f"{mode}: machine sets differ: {sorted(old_rows)} vs {sorted(new_rows)}"
                )
                continue
            for name in old_rows:
                old, new = old_rows[name], new_rows[name]
                for key in ("dp_work", "schedule_digest"):
                    if old.get(key) != new.get(key):
                        errors.append(
                            f"{mode} / {name}: {key} changed: "
                            f"{old.get(key)!r} -> {new.get(key)!r}"
                        )
                old_wall, new_wall = old.get("wall_time_s"), new.get("wall_time_s")
                if old_wall and new_wall:
                    print(
                        f"[gate] {mode:5s} / {name}: wall {old_wall:.2f}s -> {new_wall:.2f}s "
                        f"({new_wall / old_wall:.2f}x, not gated)"
                    )

    # The backend sweep shares the workload definition; without
    # comparability the per-backend diffs would only bury the real error.
    comparable = committed.get("workload") == fresh.get("workload")
    old_backends = committed.get("backends") if comparable else None
    new_backends = fresh.get("backends") if comparable else None
    if not comparable:
        print("[gate] workload definitions differ; skipping backend gate")
    elif old_backends is None:
        # Only the committed report may legitimately predate the registry;
        # a fresh report must always carry the sweep (gated below).
        print("[gate] committed report predates the backend sweep; skipping backend gate")
    elif new_backends is None:
        errors.append(
            "fresh report is missing the 'backends' sweep the committed report has "
            "(bench_report.py no longer measuring the registry backends?)"
        )
    elif set(old_backends) != set(new_backends):
        errors.append(
            f"backend sets differ: {sorted(old_backends)} vs {sorted(new_backends)}"
        )
    else:
        for backend in sorted(old_backends):
            old_rows = {m["machine"]: m for m in old_backends[backend].get("machines", [])}
            new_rows = {m["machine"]: m for m in new_backends[backend].get("machines", [])}
            if set(old_rows) != set(new_rows):
                errors.append(
                    f"backend {backend}: machine sets differ: "
                    f"{sorted(old_rows)} vs {sorted(new_rows)}"
                )
                continue
            for name in old_rows:
                old, new = old_rows[name], new_rows[name]
                for key in ("dp_work", "schedule_digest"):
                    if old.get(key) != new.get(key):
                        errors.append(
                            f"backend {backend} / {name}: {key} changed: "
                            f"{old.get(key)!r} -> {new.get(key)!r}"
                        )
        report_stage_drift(
            committed.get("backends", {}).get("vcs", {}).get("stage_timings", {}),
            new_backends.get("vcs", {}).get("stage_timings", {}),
        )

    check_scenarios(committed.get("scenarios"), fresh.get("scenarios"), errors)
    check_policy(committed.get("policy"), fresh.get("policy"), errors)
    check_deduction_blocks(fresh.get("deduction"), errors)
    report_deduction_drift(committed.get("deduction"), fresh.get("deduction"))

    parallel = fresh.get("parallel", {})
    if parallel.get("schedules_identical_serial_vs_parallel") is not True:
        errors.append(
            "parallel runner produced schedules that differ from the serial run "
            f"(parallel section: {parallel})"
        )
    else:
        cold_throughput = parallel.get("throughput_speedup_vs_serial")
        throughput_note = (
            f"{cold_throughput:.2f}x throughput, not gated"
            if cold_throughput is not None
            else f"throughput skipped: {parallel.get('skipped', 'no reason recorded')}"
        )
        print(
            f"[gate] parallel runner: {parallel.get('jobs')} workers on "
            f"{parallel.get('cpu_count')} cpus, "
            f"serial {parallel.get('serial_wall_time_s', 0):.2f}s "
            f"-> parallel {parallel.get('wall_time_s', 0):.2f}s "
            f"({throughput_note}), schedules identical"
        )
    check_runner(fresh.get("runner"), errors)
    check_service(fresh.get("service"), errors)

    if fresh.get("schedules_identical_trail_vs_copy") is not True:
        errors.append("trail and copy probing modes disagree in the fresh run")

    if errors:
        print("\n[gate] PERF REGRESSION GATE FAILED:", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 1
    print("[gate] ok: dp_work and schedule digests match the committed report")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
