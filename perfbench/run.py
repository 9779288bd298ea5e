"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` splits the measured time into an untraced half and a
traced half and prints the per-layer metrics.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when every output was correct;
it is 2 when the checkout holds no ``src/repro`` to benchmark.

A run: compiles the package's bytecode (untimed warm-up); times five
complete set-ups in fresh interpreters (``setup_s`` is their median);
cold-computes every job once as the reference the outputs must match;
measures the workload; and tears down every pool, server and temporary
directory it made.  See ``README.md`` beside this file for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("compile-cold", "service-mixed")
SETUP_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0, help="shuffles jobs and client streams")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--benchmarks", type=int, default=None, help="keep only the first N paper profiles"
    )
    parser.add_argument(
        "--doctor",
        type=int,
        default=0,
        help="self-test: expect a wrong digest for N jobs, so the run must fail",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cache-dir", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args: argparse.Namespace) -> int:
    """One complete set-up; prints a line when ready, tears down on stdin EOF."""
    start = time.perf_counter()
    from repro.runner.batch import BatchScheduler
    from repro.runner.pool import shutdown_shared_pools

    from perfbench import common, service

    import_s = time.perf_counter() - start
    start = time.perf_counter()
    common.paper_pairs(args.benchmarks)
    build_s = time.perf_counter() - start
    server = None
    try:
        if args.workload == "service-mixed":
            server, _ = service.start_server(Path(args.cache_dir))
        else:
            BatchScheduler(jobs=common.WORKERS, persistent=True).map(abs, [0] * common.WORKERS)
        print(json.dumps({"import_s": import_s, "build_s": build_s}), flush=True)
        sys.stdin.read()
    finally:
        if server is not None:
            service.stop_server(server)
        shutdown_shared_pools(wait=True)
    return 0


def warm_up() -> None:
    """Compile bytecode and page in the interpreter and the packages, so a
    fresh checkout's first import is not counted in ``setup_s``."""
    from perfbench.common import SRC, child_env

    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(ROOT / "perfbench")],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        check=False,
    )
    subprocess.run(
        [sys.executable, "-c", "import repro.api, repro.cli.serve, repro.service.client"],
        cwd=ROOT,
        env=child_env(),
        check=True,
    )


def cars_speedup(pairs, reference):
    """Geometric-mean AWCT(CARS) / AWCT(vcs) over the distinct jobs, and the
    seconds spent in the CARS backend's ``schedule()``."""
    from repro.scheduler.registry import BackendSpec

    from perfbench.common import geomean, key_of

    ratios, busy = [], 0.0
    for block, machine in pairs:
        start = time.perf_counter()
        cars = BackendSpec(name="cars").create().schedule(block, machine)
        busy += time.perf_counter() - start
        ratios.append(cars.awct / reference.results[key_of(block, machine)].awct)
    return geomean(ratios), busy


def measure(args: argparse.Namespace, tmp: Path):
    """Run the workload; returns (end-to-end metrics, layer metrics, outputs)."""
    from repro.runner.batch import BatchScheduler
    from repro.runner.pool import shutdown_shared_pools

    from perfbench import batch, common, layers, service

    setups = [
        common.measure_setup(args.workload, tmp / f"setup-{i}", args.benchmarks)
        for i in range(SETUP_REPEATS)
    ]
    pairs = common.paper_pairs(args.benchmarks)
    runner = BatchScheduler(jobs=common.WORKERS, persistent=True)
    reference = common.compute_reference(pairs, runner, doctor=args.doctor)
    # The workload gets pool processes that have not run the reference.
    shutdown_shared_pools(wait=True)
    outputs = common.Outputs(reference)
    seconds = args.seconds / 2 if args.trace else args.seconds
    traced = {}

    if args.workload == "service-mixed":
        server_cache = tmp / "server-cache"
        server, url = service.start_server(server_cache)
        try:
            service.warm_pool(url, pairs)
            samples, wall, generations, peak_rss = service.run_clients(
                pairs, url, args.seed, seconds, outputs, generation=0, server_pid=server.pid
            )
            if peak_rss is None:
                peak_rss = common.largest_peak_rss_mb([server.pid])
            e2e = service.end_to_end(samples, wall)
            if args.trace:
                samples, wall, traced_generations, _ = service.run_clients(
                    pairs, url, args.seed, seconds, outputs, generations, server_cache
                )
                traced = service.trace_layers(samples, wall, traced_generations, reference)
                traced["runner.cache.entry_kb"] = layers.entry_kb(server_cache)
        finally:
            service.stop_server(server)
    else:
        runner.map(abs, [0] * common.WORKERS)
        run = batch.BatchRun(pairs, random.Random(args.seed), runner, outputs, tmp)
        e2e = batch.run_untraced(run, seconds)
        if args.trace:
            traced = batch.run_traced(run, seconds)
        peak_rss = common.largest_peak_rss_mb(common.children(os.getpid()))

    speedup, cars_busy = cars_speedup(pairs, reference)
    e2e.update(
        {
            "setup_s": common.median([s.seconds for s in setups]),
            "awct_speedup_vs_cars": speedup,
            "ok_share": outputs.ok_share,
            "peak_rss_mb": peak_rss,
        }
    )
    layer = layers.blank()
    if args.trace:
        traced_rate = traced.pop("blocks_per_s")
        layer.update(traced)
        layer.update(
            {
                "scheduler.cars.busy_s": cars_busy,
                "repro.import_s": common.median([s.import_s for s in setups]),
                "workloads.build_s": common.median([s.build_s for s in setups]),
                "trace.overhead_share": 1.0 - traced_rate / e2e["blocks_per_s"],
            }
        )
    return e2e, layer, outputs


def report(spec_metrics, values) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def run(args: argparse.Namespace) -> int:
    from repro.runner.pool import shutdown_shared_pools

    from perfbench.common import TMP_ROOT

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    warm_up()
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT, prefix=f"{args.workload}-"))
    try:
        e2e, layer, outputs = measure(args, tmp)
    finally:
        shutdown_shared_pools(wait=True)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    if args.trace:
        metrics = report(spec["per_layer"], layer)
    else:
        metrics = report(spec["end_to_end"], e2e)
    for problem in outputs.problems:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    print(
        f"perfbench: workload={args.workload} seed={args.seed} cpu_count={os.cpu_count()} "
        f"attempted={outputs.attempted} failed={outputs.failed}"
    )
    print(
        json.dumps(
            {
                "correct": outputs.failed == 0,
                "attempted": outputs.attempted,
                "failed": outputs.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outputs.failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to benchmark", file=sys.stderr)
        return 2
    # The checkout's package and this one, never a module beside this file
    # shadowing a top-level import.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    # Started in the background of a non-interactive shell, this process
    # inherits an ignored SIGINT, and so would the job server: it would
    # then ignore the interrupt that shuts it down.  A handler (unlike an
    # ignored signal) is reset to the default in every program started
    # from here, so the server stops on SIGINT again.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    from perfbench.common import scrub_environment

    scrub_environment()
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
