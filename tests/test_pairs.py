"""``tools/pairs.py`` on canned ``perfbench/run.py`` output; perfbench itself never runs."""

import importlib.util
import json
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"

BETTER = {"score_ex_per_s": "higher", "pipeline_s": "lower"}


def load_pairs():
    spec = importlib.util.spec_from_file_location("pairs_tool", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = load_pairs()


def canned_output(workload, seed, metrics, attempted=3, failed=0):
    """Output shaped like run.py's with ``--trace 0``: env line, metric table, JSON line."""
    env = {"python": "3.x", "numpy": "2.x", "blas": "openblas", "git_revision": "abc",
           "workload": workload, "seed": seed, "seconds": 35.0, "trace": 0}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
    table = "".join(f"  {k:<28} {v:>14.6g} u      (n=3)\n" for k, v in metrics.items())
    return (f"env {json.dumps(env, sort_keys=True)}\ncycles 3 (0 traced)\n{table}"
            f"  ops_failed                        0 ratio  (n=3)\n{json.dumps(result)}\n")


# (parent, change) values per seed: score_ex_per_s, then pipeline_s
VALUES = {
    1: ((100.0, 2.0), (110.0, 1.9)),
    2: ((104.0, 2.2), (103.0, 2.0)),
    3: ((98.0, 2.1), (120.0, 2.3)),
    4: ((102.0, 2.0), (115.0, 1.8)),
}


def fake_run(calls):
    def run(side, workload, seed):
        calls.append((side, workload, seed))
        score, pipeline = VALUES[seed][pairs.SIDES.index(side)]
        return canned_output(workload, seed, {"score_ex_per_s": score, "pipeline_s": pipeline})

    return run


def test_parse_run_reads_env_and_last_line():
    env, result = pairs.parse_run(canned_output("train-wide", 7, {"score_ex_per_s": 2.5}))
    assert env["seed"] == 7 and env["blas"] == "openblas"
    assert result == {"correct": True, "attempted": 3, "failed": 0,
                      "metrics": {"score_ex_per_s": 2.5}}


def test_sides_alternate_which_goes_first():
    calls = []
    pairs.run_pairs(["train-wide", "cli-pipeline"], [1, 2, 3], fake_run(calls))
    assert calls == [
        ("parent", "train-wide", 1), ("change", "train-wide", 1),
        ("change", "train-wide", 2), ("parent", "train-wide", 2),
        ("parent", "train-wide", 3), ("change", "train-wide", 3),
        ("parent", "cli-pipeline", 1), ("change", "cli-pipeline", 1),
        ("change", "cli-pipeline", 2), ("parent", "cli-pipeline", 2),
        ("parent", "cli-pipeline", 3), ("change", "cli-pipeline", 3),
    ]


def test_quartiles_interpolate_linearly():
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_summary_medians_quartiles_and_wins():
    by_workload, _ = pairs.run_pairs(["train-wide"], [1, 2, 3, 4], fake_run([]))
    summary = pairs.summarize(by_workload["train-wide"], BETTER)
    score = summary["score_ex_per_s"]
    # parent 98, 100, 102, 104; change 103, 110, 115, 120
    assert score["parent"] == {"median": 101.0, "q1": 99.5, "q3": 102.5}
    assert score["change"] == {"median": 112.5, "q1": 108.25, "q3": 116.25}
    assert score["change_wins"] == 3  # seed 2: 103 < 104
    assert score["gain"] == pytest.approx(11.5)
    assert score["gain_ratio"] == pytest.approx(11.5 / 101.0)
    assert score["clears_parent_spread"] is True
    pipeline = summary["pipeline_s"]  # lower is better
    assert pipeline["parent"]["median"] == pytest.approx(2.05)
    assert pipeline["change"]["median"] == pytest.approx(1.95)
    assert pipeline["change_wins"] == 3  # seed 3: 2.3 > 2.1
    assert pipeline["gain"] == pytest.approx(0.1)
    assert pipeline["clears_parent_spread"] is False  # 0.1 against 2.125 - 2.0
    assert set(summary) == set(BETTER)


def test_failed_ops_are_summed_per_side():
    counts = {"parent": [(3, 0), (5, 0)], "change": [(4, 1), (4, 0)]}  # (attempted, failed)

    def run(side, workload, seed):
        attempted, failed = counts[side][seed - 1]
        return canned_output(workload, seed, {"score_ex_per_s": 1.0}, attempted, failed)

    by_workload, _ = pairs.run_pairs(["train-wide"], [1, 2], run)
    assert pairs.failed_ops(by_workload["train-wide"]) == {
        "parent": {"attempted": 8, "failed": 0, "failed_share": 0.0},
        "change": {"attempted": 8, "failed": 1, "failed_share": 0.125},
    }
    assert pairs.failed_ops([])["parent"] == {"attempted": 0, "failed": 0, "failed_share": None}


def test_report_layout():
    written = []
    commits = {"parent": "p" * 40, "change": "c" * 40}

    def write(by_workload, envs):
        report = pairs.build_report(commits, 35.0, [1, 2], by_workload, BETTER, envs)
        written.append(json.loads(json.dumps(report)))

    pairs.run_pairs(["train-wide"], [1, 2], fake_run([]), on_pair=write)
    assert len(written) == 2  # rewritten after every pair
    report = written[-1]
    assert set(report) == {"commits", "seconds", "seeds", "trace", "env", "workloads"}
    assert report["commits"] == commits and report["seeds"] == [1, 2] and report["trace"] == 0
    assert report["env"]["parent"] == {"python": "3.x", "numpy": "2.x", "blas": "openblas",
                                       "git_revision": "abc"}
    wide = report["workloads"]["train-wide"]
    assert [p["seed"] for p in wide["pairs"]] == [1, 2]
    assert [p["first"] for p in wide["pairs"]] == ["parent", "change"]
    assert wide["pairs"][1]["change"]["metrics"] == {"score_ex_per_s": 103.0, "pipeline_s": 2.0}
    assert wide["summary"]["score_ex_per_s"]["pairs"] == 2
    assert wide["ops"]["change"] == {"attempted": 6, "failed": 0, "failed_share": 0.0}
    assert len(written[0]["workloads"]["train-wide"]["pairs"]) == 1


def test_trace_reaches_run_py_and_picks_the_metric_list():
    assert pairs.parse_args(["--parent", "p", "--change", "c", "--workload", "cli-pipeline",
                             "--seeds", "1", "--out", "b.json"]).trace == 0
    args = pairs.parse_args(["--parent", "p", "--change", "c", "--workload", "cli-pipeline",
                             "--seeds", "1", "2", "--trace", "1", "--out", "b.json"])
    assert args.trace == 1 and args.seeds == [1, 2]
    assert pairs.run_argv("cli-pipeline", 7, 35.0, args.trace)[1:] == [
        "perfbench/run.py", "--workload", "cli-pipeline", "--seed", "7", "--seconds", "35.0",
        "--trace", "1",
    ]
    with pytest.raises(SystemExit):
        pairs.parse_args(["--parent", "p", "--change", "c", "--workload", "w", "--seeds", "1",
                          "--trace", "2", "--out", "b.json"])
    benchmark = json.loads((PAIRS.parent.parent / "BENCHMARK.json").read_text())
    assert pairs.metric_directions(benchmark, 0)["pipeline_s"] == "lower"
    per_layer = pairs.metric_directions(benchmark, 1)
    assert per_layer["dataset.import_ms"] == "lower" and "pipeline_s" not in per_layer


def test_traced_runs_summarize_per_layer_metrics():
    better = {"dataset.import_ms": "lower", "cli.load_split_ms": "lower"}
    values = {"parent": (30.0, 60.0), "change": (12.0, 35.0)}

    def run(side, workload, seed):
        imported, loaded = values[side]
        return canned_output(workload, seed, {"dataset.import_ms": imported + seed,
                                              "cli.load_split_ms": loaded + seed,
                                              "trace.slowdown": 1.2})

    by_workload, _ = pairs.run_pairs(["cli-pipeline"], [1, 2, 3], run)
    summary = pairs.summarize(by_workload["cli-pipeline"], better)
    assert set(summary) == set(better)  # trace.slowdown has no direction here
    assert summary["dataset.import_ms"]["parent"]["median"] == 32.0
    assert summary["dataset.import_ms"]["gain"] == pytest.approx(18.0)
    assert summary["cli.load_split_ms"]["change_wins"] == 3
