"""Smoke test for the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json at minimum size, untraced and traced,
and checks that the result line has exactly the contract's keys, that every
named metric is emitted with its unit, and that no operation failed. Then
checks that the benchmark exits non-zero without printing a result when the
mmfuse sources are absent. Exits 1 if any check fails.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(command, cwd, workload, trace):
    argv = [*command, "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, expected_units):
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"ops_failed: {result['failed']} of {result['attempted']}")
    metrics = result["metrics"]
    for name, unit in expected_units.items():
        if name not in metrics:
            problems.append(f"missing metric {name}")
        elif metrics[name]["unit"] != unit:
            problems.append(f"{name}: unit {metrics[name]['unit']!r}, expected {unit!r}")
    extra = set(metrics) - set(expected_units)
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable, *spec["command"][1:], "--smoke"]
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_result(run(command, ROOT, workload, trace), units[trace])
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            failures += [f"{workload} --trace {trace}: {p}" for p in problems]

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(command, bare, spec["workloads"][0]["name"], 0)
        lines = proc.stdout.strip().splitlines()
        refused = proc.returncode != 0 and not (lines and lines[-1].startswith("{"))
        print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the mmfuse sources")
        if not refused:
            failures.append("ran without the mmfuse sources")
    finally:
        shutil.rmtree(bare)

    for failure in failures:
        print("  " + failure)
    print(f"smoke: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
