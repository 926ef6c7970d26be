"""Set-up, the measured loop and the result line for one benchmark run."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "train_ex_per_s": "ex/s",
    "score_ex_per_s": "ex/s",
    "val_auc": "auc",
    "pipeline_s": "s",
    "eval_verb_ex_per_s": "ex/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith(("_ms", ".ms", ".p50", ".p90")):
        return "ms"
    if name.endswith(".mb"):
        return "MB"
    if name == "trace.slowdown":
        return "ratio"
    return "count"


def import_seconds(clock):
    """Median time of a fresh interpreter importing mmfuse, in reference seconds.

    Interpreter start and imports happen once per process, so they are timed
    in child processes to get several samples.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", "import numpy, mmfuse.cli"]
    samples = [
        clock.measure(lambda: subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)).ref_s
        for _ in range(SETUP_REPEATS)
    ]
    return float(np.median(samples))


def git_revision():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(args):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args):
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    OUT.mkdir(exist_ok=True)
    work_root = OUT / f"run-{os.getpid()}"
    work_root.mkdir()
    try:
        return measure(args, workload, work_root)
    finally:
        shutil.rmtree(work_root)


def measure(args, workload, work_root):
    # Traced runs compare traced with untraced wall time, so they run no
    # reference kernel (see hostspeed).
    clock = hostspeed.Clock(enabled=not args.trace)
    setup_start = time.perf_counter()
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        timing = clock.measure(lambda: workload.prepare(args.seed, work_root))
        state = timing.result
        prepare_s.append(timing.ref_s)
    setup_s = import_seconds(clock) + float(np.median(prepare_s))

    ops = workloads.OpCounter()
    recorder = tracing.SpanRecorder()
    samples, traced_samples, cycle_walls = [], [], []
    min_cycles = 2 if args.trace else 1
    deadline = time.perf_counter() + args.seconds
    setup_wall = time.perf_counter() - setup_start

    def cycle():
        try:
            return workload.cycle(state, ops, clock)
        except Exception as exc:  # an output check could not run; the loop goes on
            ops.record("cycle", [f"{type(exc).__name__}: {exc}"])
            return None

    while True:
        traced = bool(args.trace) and len(cycle_walls) % 2 == 1
        start = time.perf_counter()
        if traced:
            recorder.run = len(cycle_walls)
            instrumentation = tracing.Instrumentation(recorder)
            instrumentation.install()
            cycle_span = recorder.begin("workload.cycle")
            try:
                sample = cycle()
            finally:
                recorder.end_until(cycle_span)
                recorder.end()
                instrumentation.remove()
        else:
            sample = cycle()
        cycle_walls.append(time.perf_counter() - start)
        if sample is not None:
            (traced_samples if traced else samples).append(sample)
        done = len(cycle_walls) >= min_cycles
        if done and time.perf_counter() + float(np.median(cycle_walls)) > deadline:
            break

    if args.trace:
        metrics = {}
        if samples and traced_samples:
            metrics = tracing.layer_metrics(recorder, len(traced_samples))
            metrics["trace.cycle_ms"] = float(np.median(
                [s.duration for s in recorder.spans if s.name == "workload.cycle"])) * 1e3
            metrics["trace.slowdown"] = (
                float(np.median([workload.primary_s(s) for s in traced_samples]))
                / float(np.median([workload.primary_s(s) for s in samples]))
            )
            recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        units = {name: layer_unit(name) for name in metrics}
        counts = {name: len(traced_samples) for name in metrics}
    else:
        metrics = workload.metrics(samples) if samples else {}
        if samples:
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
        counts = {name: len(samples) for name in metrics}
        counts["setup_s"] = SETUP_REPEATS
        counts["peak_rss_mb"] = 1

    print("env " + json.dumps(environment(args), sort_keys=True))
    print(f"cycles {len(cycle_walls)} ({len(traced_samples)} traced), "
          f"set-up wall {setup_wall:.2f} s, measured wall {sum(cycle_walls):.2f} s")
    if clock.reference_runs:
        print(f"reference kernel: {len(clock.reference_runs)} runs, median "
              f"{float(np.median(clock.reference_runs)):.4f} s against "
              f"{hostspeed.REFERENCE_S} s unloaded; timings below are in reference seconds")
    for message in ops.messages:
        print("FAILED " + message)
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]:<6} (n={counts[name]})")
    ops_failed = ops.failed / ops.attempted if ops.attempted else 1.0
    print(f"  {'ops_failed':<28} {ops_failed:>14.6g} {'ratio':<6} (n={ops.attempted})")
    result = {
        "correct": ops.attempted > 0 and ops.failed == 0,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed if ops.attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0
