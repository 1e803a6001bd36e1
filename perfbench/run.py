"""coil2coil benchmark.

One workload, ending with a machine-readable result line:

    python3 perfbench/run.py --workload train-c2c --seed 0 --seconds 10 --trace 0

Every workload, each in its own process, with the metrics printed by name and
BENCHMARK.json rewritten from perfbench/spec.py:

    python3 perfbench/run.py [--seed 0] [--seconds 10] [--trace 0]

The last line of a one-workload run is a JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it is a
report with the environment and the workload's own metric names.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from tracing import Tracer, instrument, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    """Pin BLAS to one thread; must run before numpy is imported.

    At the sizes measured here a second thread makes a train step no faster
    and its time much less repeatable from one process to the next.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return 1


def l3_bytes():
    """Size of the L3 cache of cpu0, read-only from sysfs; None if unknown."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return None


def environment(seed, threads):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
        "seed": seed,
    }


def run_phase(workload, seconds, tracers, targets, min_samples):
    """Operations back to back for `seconds`, and until each tally has at
    least min_samples timed samples (within a hard cap of 6x the run length).

    Operations alternate between the tracers, each run with that tracer's
    wrappers installed, so a traced and an untraced tally see the same host
    conditions.  Returns one Tally per tracer.
    """
    from workloads import Tally

    tallies = [Tally() for _ in tracers]
    start = time.perf_counter()
    for i in itertools.count():
        elapsed = time.perf_counter() - start
        enough = all(len(t.samples_ms) >= min_samples for t in tallies)
        if (elapsed >= seconds and enough) or elapsed >= 6 * seconds:
            return tallies
        tracer = tracers[i % len(tracers)]
        with instrument(tracer, targets):
            root = tracer.begin("bench.op")
            result = workload.op(tracer)
            tracer.end(root)
        tallies[i % len(tracers)].merge(result)


def layer_metrics(tracer, untraced, traced):
    summary = summarize(tracer.spans)
    values = {}
    for span in spec.span_names():
        calls, total, self_time = summary.get(span, (0, 0.0, 0.0))
        values[f"{span}.calls"] = calls
        values[f"{span}_ms"] = total * 1e3
        values[f"{span}.self_ms"] = self_time * 1e3
    c = tracer.counts
    net_s = sum(summary.get(s, (0, 0.0, 0.0))[1] for s in ("network.forward", "network.forward_eval", "network.backward"))
    forwards = values["network.forward.calls"] + values["network.forward_eval.calls"]
    _, op_total, op_self = summary["bench.op"]
    glue = op_self + summary.get("train.train", (0, 0.0, 0.0))[2]
    values.update({
        "network.conv_gflop_per_step": c.get("conv_flop_per_step", 0) / 1e9,
        "network.conv_gflop_per_image": c.get("conv_flop_per_image", 0) / 1e9,
        "network.conv_gflops": c.get("conv_flop", 0) / net_s / 1e9 if net_s else 0.0,
        "network.im2col_mb": c.get("im2col_bytes", 0) / forwards / 1e6 if forwards else 0.0,
        "network.fullscale_step_ms": 0.0,
        "network.fullscale_conv_gflops": 0.0,
        "pairs.fallback_ratio": c["fallback"] / c["masked"] if c.get("masked") else 0.0,
        "pairs.masked_voxels": c.get("masked", 0),
        "pairs.min_coverage": c.get("min_coverage", 0.0),
        "tensorio.bytes_read": c.get("bytes_read", 0),
        "tensorio.bytes_written": c.get("bytes_written", 0),
        "trace.op_ms_p50_untraced": untraced.p50(),
        "trace.op_ms_p50_traced": traced.p50(),
        "trace.overhead_ms": traced.p50() - untraced.p50(),
        "trace.covered_share": 1.0 - glue / op_total,
        "trace.spans": len(tracer.spans),
    })
    return values


def write_trace(workload, seed, env, tracer):
    OUT.mkdir(exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [[name, (s - t0) * 1e3, (e - t0) * 1e3, parent] for name, s, e, parent in tracer.spans]
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "env": env, "counts": tracer.counts, "spans": spans}))
    return path


def run_workload(name, seed, seconds, trace):
    threads = pin_threads()
    if not (SRC / "coil2coil" / "__init__.py").is_file():
        sys.exit(f"perfbench: no coil2coil sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    env = environment(seed, threads)
    workload = workloads.WORKLOADS[name]()
    all_targets = workloads.targets(spec.SPANS)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s = []
        while len(setup_s) < spec.SETUP_REPEATS or sum(setup_s) < spec.SETUP_SECONDS:
            t0 = time.perf_counter()
            workload.setup(seed, str(workdir))
            setup_s.append(time.perf_counter() - t0)
        clock = Tracer(only=workload.clock)
        if not trace:
            (tally,) = run_phase(workload, seconds, [clock], all_targets, min_samples=100)
            attempted, failed = tally.attempted, tally.failed
            metrics = {
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "throughput_per_s": tally.throughput(),
                "op_ms_p50": tally.p50(),
                "op_ms_p90": tally.p90(),
                "quality_db": workload.quality(),
            }
            units = {n: u for n, u, _, _ in spec.END_TO_END}
        else:
            tracer = Tracer()
            with instrument(tracer, all_targets):
                workload.setup(seed, str(workdir))
            tally, traced = run_phase(workload, seconds, [clock, tracer], all_targets, min_samples=20)
            attempted = tally.attempted + traced.attempted
            failed = tally.failed + traced.failed
            metrics = layer_metrics(tracer, tally, traced)
            if name == "train-c2c":
                ms, gflops = workloads.fullscale_step(seed)
                metrics["network.fullscale_step_ms"] = ms
                metrics["network.fullscale_conv_gflops"] = gflops
            env["trace_file"] = str(write_trace(name, seed, env, tracer).relative_to(ROOT))
            units = {n: u for n, u, _ in spec.per_layer()}
        report = {
            "workload": name,
            "env": env,
            "setup_s_samples": setup_s,
            "metrics": [
                ("setup_s", statistics.median(setup_s), "s", len(setup_s)),
                ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
                *workload.report(tally),
                ("fail_ratio", failed / attempted, "ratio", attempted),
            ],
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(seed, seconds, trace):
    """Each workload in its own process; prints every metric, writes BENCHMARK.json."""
    all_correct = True
    for name, why in spec.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exited with {proc.returncode}")
            all_correct = False
            continue
        lines = proc.stdout.strip().splitlines()
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        all_correct = all_correct and result["correct"]
        print(f"== {name}: {why}")
        print(f"   env: {json.dumps(report['env'])}")
        for metric, value, unit, base in report["metrics"]:
            print(f"   {metric:<24} {value:>14.6g} {unit:<6} (n={base})")
        print(f"   correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        if trace:
            for metric, m in result["metrics"].items():
                print(f"   {metric:<44} {m['value']:>14.6g} {m['unit']}")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    return 0 if all_correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
