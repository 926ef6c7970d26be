"""perfbench's tracer still sees every data span of the CLI path.

perfbench wraps mmfuse functions by their module attribute. A refactor that
renames one, or calls it by another route, leaves its per-layer metric reading
0 without failing anything; this test fails instead. It reads perfbench and
changes nothing in it.
"""

import importlib.util
from pathlib import Path

from mmfuse.cli import EXIT_OK, main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

DATA_SPANS = ("cli.load_split", "dataset.import", "dataset.label", "dataset.export", "synth.to_records")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sets(*pairs):
    return [arg for pair in pairs for arg in ("--set", pair)]


def current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_data_spans_are_recorded_and_removed(tmp_path):
    tracing = load_tracing()
    recorder = tracing.SpanRecorder()
    instrumentation = tracing.Instrumentation(recorder)
    instrumentation.install()
    wrapped = list(instrumentation._saved)
    try:
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["synth", "--out", str(data), *sets(
            "synth.n_train=64", "synth.n_val=32", "synth.n_test=64", "synth.image_side=8"
        )]) == EXIT_OK
        assert main([
            "train", "--data", str(data), "--out", str(run),
            *sets("model.variant=FCM", "train.epochs=1"),
        ]) == EXIT_OK
        assert main([
            "eval", "--checkpoint", str(run / "checkpoint.mfuse"), "--data", str(data),
            "--out", str(tmp_path / "eval"),
        ]) == EXIT_OK
    finally:
        instrumentation.remove()
    names = {span.name for span in recorder.spans}
    assert [name for name in DATA_SPANS if name not in names] == []
    restored = [current(owner, attr) is original for owner, attr, original in wrapped]
    assert wrapped and all(restored)
