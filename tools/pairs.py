"""Alternating parent/change pairs of perfbench runs, written as one BENCH file.

    python3 tools/pairs.py --parent REV --change REV --workload NAME [--workload NAME ...]
        --seeds N [N ...] [--seconds 35] [--trace 0|1] --out BENCH_<n>.json

Run from inside the repository. Both revisions are checked out into two
``git worktree``s under a temporary directory, and for every workload and
seed ``perfbench/run.py --trace T`` runs once from each checkout, in a fresh
process. The parent goes first in even-numbered pairs and the change in odd
ones, so a drift in host speed falls on both sides alike.

The file holds both commits, the seeds, every pair's metrics, and per
workload and metric each side's median and quartiles, the change's gain
over the parent's median (positive is better, in the direction
``BENCHMARK.json`` gives) and the number of pairs the change won, and per
workload and side the operations attempted and failed and the failed share.
With ``--trace 0`` (the default) the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones of traced cycles.
It is rewritten after every pair, so an interrupted run keeps the pairs it
finished.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
# per-run settings in run.py's env line; the rest describes the host and build
RUN_KEYS = ("workload", "seed", "seconds", "trace")


def parse_run(stdout):
    """(env, result) from one ``run.py`` output: its ``env`` line and its last line."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return env, {**result, "metrics": metrics}


def quartiles(values):
    """(first quartile, median, third quartile), linearly interpolated like np.percentile."""
    q1, median, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25, 50, 75])
    return float(q1), float(median), float(q3)


def summarize(pairs, better):
    """Per metric: each side's median and quartiles, the change's gain and its wins.

    ``better`` maps a metric to "higher" or "lower"; other metrics are left
    out. A pair counts as a win when the change's value is strictly better.
    ``gain`` is the change's median minus the parent's, signed so that
    positive is better, and ``clears_parent_spread`` says whether it exceeds
    the distance between the parent's quartiles.
    """
    summary = {}
    for name, direction in better.items():
        rows = [p for p in pairs if all(name in p[side]["metrics"] for side in SIDES)]
        if not rows:
            continue
        sign = 1.0 if direction == "higher" else -1.0
        entry = {"better": direction, "pairs": len(rows)}
        for side in SIDES:
            q1, median, q3 = quartiles([p[side]["metrics"][name] for p in rows])
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        entry["change_wins"] = sum(
            sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) > 0 for p in rows
        )
        parent_median = entry["parent"]["median"]
        gain = sign * (entry["change"]["median"] - parent_median)
        entry["gain"] = gain
        entry["gain_ratio"] = gain / abs(parent_median) if parent_median else None
        entry["clears_parent_spread"] = bool(gain > entry["parent"]["q3"] - entry["parent"]["q1"])
        summary[name] = entry
    return summary


def failed_ops(pairs):
    """Per side: the operations its runs attempted and failed, and the failed share."""
    ops = {}
    for side in SIDES:
        attempted = sum(p[side]["attempted"] for p in pairs)
        failed = sum(p[side]["failed"] for p in pairs)
        share = failed / attempted if attempted else None
        ops[side] = {"attempted": attempted, "failed": failed, "failed_share": share}
    return ops


def build_report(commits, seconds, seeds, pairs_by_workload, better, envs, trace=0):
    """The BENCH file's content; ``pairs_by_workload`` maps a workload to its pairs so far."""
    return {
        "commits": commits,
        "seconds": seconds,
        "seeds": list(seeds),
        "trace": trace,
        "env": envs,
        "workloads": {
            name: {"pairs": pairs, "summary": summarize(pairs, better), "ops": failed_ops(pairs)}
            for name, pairs in pairs_by_workload.items()
        },
    }


def run_pairs(workloads, seeds, run, on_pair=None):
    """Pairs per workload; ``run(side, workload, seed)`` returns one run.py output.

    Returns ({workload: [pair, ...]}, {side: env}). A pair is
    ``{"seed", "first", "parent": result, "change": result}``; ``on_pair``
    is called with both dicts after every pair.
    """
    pairs_by_workload = {name: [] for name in workloads}
    envs = {}
    for workload in workloads:
        for index, seed in enumerate(seeds):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                env, pair[side] = parse_run(run(side, workload, seed))
                envs.setdefault(side, {k: v for k, v in env.items() if k not in RUN_KEYS})
            pairs_by_workload[workload].append(pair)
            if on_pair is not None:
                on_pair(pairs_by_workload, envs)
    return pairs_by_workload, envs


def metric_directions(benchmark, trace):
    """Metric name -> "higher" or "lower", from ``BENCHMARK.json``'s end-to-end or per-layer list."""
    return {m["name"]: m["better"] for m in benchmark["per_layer" if trace else "end_to_end"]}


def run_argv(workload, seed, seconds, trace):
    """The ``perfbench/run.py`` command line of one run."""
    return [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def git(*args, cwd=None):
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: compare the per-layer metrics of traced cycles")
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path(git("rev-parse", "--show-toplevel"))
    commits = {side: git("rev-parse", getattr(args, side), cwd=root) for side in SIDES}
    better = metric_directions(json.loads((root / "BENCHMARK.json").read_text()), args.trace)
    out = args.out.resolve()

    def write(pairs_by_workload, envs):
        report = build_report(
            commits, args.seconds, args.seeds, pairs_by_workload, better, envs, args.trace
        )
        out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}

        def run(side, workload, seed):
            argv = run_argv(workload, seed, args.seconds, args.trace)
            print(f"pairs: {side} {workload} seed {seed}", file=sys.stderr, flush=True)
            return subprocess.run(
                argv, cwd=checkouts[side], check=True, capture_output=True, text=True
            ).stdout

        try:
            for side, path in checkouts.items():
                git("worktree", "add", "--detach", str(path), commits[side], cwd=root)
            run_pairs(args.workload, args.seeds, run, on_pair=write)
        finally:
            for path in checkouts.values():
                if path.exists():
                    git("worktree", "remove", "--force", str(path), cwd=root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
