"""The three benchmark workloads, driven through mmfuse's public API.

Each workload is a closed loop of identical cycles: every call waits for the
previous one. ``prepare`` builds the inputs from the seed (it is the set-up
that ``setup_s`` times); ``cycle`` runs the timed calls once, checks their
outputs and returns the timings; ``metrics`` reduces the timings of all
cycles to the end-to-end metrics.

* train-desk: TKM at the desk config with 5-9-token texts. Two LSTM passes
  per step make most of the tape, so LSTM work dominates here.
* train-wide: SCM on 32-px images with a 16,32,64 backbone, 64 fusion
  channels and 1-2-token texts. conv2d dominates; the LSTM barely runs.
* cli-pipeline: ``mmfuse.cli.main`` runs synth -> train (FCM, one epoch on a
  small split) -> eval (a large split). Corpus, image and checkpoint I/O sit
  beside forward-only scoring; the train call is about a third of the time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from mmfuse import cli, evaluation, synth, training
from mmfuse.autodiff.checkpoint import load_arrays

# Shared by every workload: the ROADMAP desk config's text, batch and head sizes.
BATCH_SIZE = 32
NOISE_RATE = 0.1  # label noise keeps val_auc below 1
VAL_AUC_EPOCH = 4  # crossmodal_xor is learnt by then, so val_auc repeats across seeds


class OpCounter:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, name, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{name}: {'; '.join(problems)}")
        return not problems


def _run_op(ops, name, fn, clock):
    """Run one operation as a timed section; an exception fails it.

    Returns (ok, result, seconds), the seconds in reference seconds (see
    ``hostspeed``).
    """
    try:
        timing = clock.measure(fn)
    except Exception as exc:  # the loop keeps running and reports the failure
        ops.record(name, [f"{type(exc).__name__}: {exc}"])
        return False, None, None
    return True, timing.result, timing.ref_s


def _median(values):
    return float(np.median(values))


def _val_auc(samples):
    """Best validation AUC after epoch VAL_AUC_EPOCH, or after the last epoch run."""
    at_epoch = [s for s in samples if s["epoch"] == VAL_AUC_EPOCH]
    return (at_epoch or samples[-1:])[0]["val_auc"]


# ---------------------------------------------------------------------------
# training workloads


@dataclass(frozen=True)
class TrainWorkload:
    """One ``training.train`` epoch, then scoring and evaluating the test split."""

    name: str
    variant: str
    image_side: int
    backbone: str
    fusion_channels: int
    min_tokens: int
    max_tokens: int
    n_train: int
    n_val: int
    n_test: int
    learning_rate: float

    def model_config(self, seed):
        return {
            "model.variant": self.variant,
            "model.image_side": str(self.image_side),
            "model.backbone_channels": self.backbone,
            "model.hidden_dim": "32",
            "model.embedding_dim": "16",
            "model.fc_plan": "32,16,2",
            "model.fusion_channels": str(self.fusion_channels),
            "model.seed": str(seed),
        }

    def prepare(self, seed, work_root):
        spec = synth.SynthSpec(
            mode="crossmodal_xor",
            n_train=self.n_train,
            n_val=self.n_val,
            n_test=self.n_test,
            noise_rate=NOISE_RATE,
            image_side=self.image_side,
            min_tokens=self.min_tokens,
            max_tokens=self.max_tokens,
            seed=seed,
        )
        vocab = synth.build_vocabulary()
        data = {k: synth.to_model_data(v, vocab) for k, v in synth.generate(spec).items()}
        model = cli.build_model(self.model_config(seed), len(vocab))
        return {"seed": seed, "data": data, "model": model, "epoch": 0}

    def cycle(self, state, ops, clock):
        """One epoch of training, then scoring and evaluating the test split.

        The model carries over from cycle to cycle, so cycle k ends epoch k;
        every cycle does the same amount of work.
        """
        data, model = state["data"], state["model"]
        state["epoch"] += 1
        config = training.TrainConfig(
            learning_rate=self.learning_rate, batch_size=BATCH_SIZE, epochs=1,
            seed=state["seed"] + state["epoch"],
        )
        ok, result, train_s = _run_op(
            ops, "train", lambda: training.train(model, data["train"], data["val"], config), clock
        )
        if not ok or not ops.record("train", checks.check_history(result[1])):
            return None
        history = result[1]

        def score():
            timing = clock.measure(lambda: training.score_dataset(model, data["test"]))
            return timing, evaluation.evaluate(timing.result)

        ok, result, eval_s = _run_op(ops, "score", score, clock)
        if not ok:
            return None
        score_timing, report = result
        scored = score_timing.result
        problems = checks.check_scores(scored, data["test"]) or checks.check_auc(report.auc, scored)
        if not ops.record("score", problems):
            return None
        return {
            "epoch": state["epoch"],
            "train_s": train_s,
            "score_s": score_timing.ref_s,
            "eval_s": eval_s,
            "val_auc": history.best_val_auc,
        }

    def primary_s(self, sample):
        """The section whose slowdown under tracing is reported."""
        return sample["train_s"]

    def metrics(self, samples):
        return {
            "train_ex_per_s": self.n_train / _median([s["train_s"] for s in samples]),
            "score_ex_per_s": self.n_test / _median([s["score_s"] for s in samples]),
            "val_auc": _val_auc(samples),
            "pipeline_s": _median([s["train_s"] + s["eval_s"] for s in samples]),
            "eval_verb_ex_per_s": self.n_test / _median([s["eval_s"] for s in samples]),
        }

    def smoke(self):
        return dataclasses.replace(self, n_train=64, n_val=32, n_test=64)


# ---------------------------------------------------------------------------
# CLI pipeline workload


class _Capture:
    """Keep the arguments, result and time of a function the CLI looks up by name.

    The call is a section on ``clock``, nested in the verb's.
    """

    def __init__(self, owner, attr, clock):
        self.owner, self.attr = owner, attr
        self.original = getattr(owner, attr)
        self.args = self.timing = None

        def wrapper(*args, **kwargs):
            self.args = args
            self.timing = clock.measure(lambda: self.original(*args, **kwargs))
            return self.timing.result

        setattr(owner, attr, wrapper)

    def remove(self):
        setattr(self.owner, self.attr, self.original)


def _verb(ops, argv, clock):
    """Run one CLI verb in-process as a timed section, its output captured.

    Returns (ok, seconds), the seconds in reference seconds.
    """
    out = io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                return exc.code

    ok, code, seconds = _run_op(ops, argv[0], call, clock)
    if ok and code != 0:
        ops.record(argv[0], [f"exit code {code}: {out.getvalue().strip()[-300:]}"])
        return False, seconds
    return ok, seconds


@dataclass(frozen=True)
class CliWorkload:
    """synth, train and eval verbs of ``mmfuse.cli.main`` per cycle."""

    name: str
    n_train: int
    n_val: int
    n_test: int
    learning_rate: float

    def prepare(self, seed, work_root):
        return {"seed": seed, "work_root": work_root}

    def cycle(self, state, ops, clock):
        """Run the three verbs; every cycle writes to the same directory.

        On an ext4 volume mounted with ``discard``, writing 2816 images into
        a new directory took about 2 s, and deleting a cycle's files made
        later file creation slower and erratic. Rewriting the same files
        every cycle took 0.3-0.6 s. Every cycle writes the same bytes, so a
        stale file cannot pass a check that a fresh one would fail.
        """
        train_cap = _Capture(cli, "train", clock)
        score_cap = _Capture(cli, "score_dataset", clock)
        try:
            return self._verbs(
                Path(state["work_root"]), state["seed"], ops, clock, train_cap, score_cap
            )
        finally:
            score_cap.remove()
            train_cap.remove()

    def _verbs(self, root, seed, ops, clock, train_cap, score_cap):
        data, run, report = root / "data", root / "run", root / "eval"
        settings = {
            "synth.mode": "unimodal_text",
            "synth.n_train": self.n_train,
            "synth.n_val": self.n_val,
            "synth.n_test": self.n_test,
            "synth.noise_rate": NOISE_RATE,
            "synth.seed": seed,
            "model.variant": "FCM",
            "model.seed": seed,
            "train.seed": seed,
            "train.epochs": 1,
            "train.lr": self.learning_rate,
            "train.batch_size": BATCH_SIZE,
        }

        def sets(*prefixes):
            return [a for k, v in settings.items() if k.startswith(prefixes)
                    for a in ("--set", f"{k}={v}")]

        ok, synth_s = _verb(ops, ["synth", "--out", str(data), *sets("synth.")], clock)
        if not ok or not ops.record("synth", checks.check_manifest(data)):
            return None

        ok, train_verb_s = _verb(
            ops, ["train", "--data", str(data), "--out", str(run), *sets("model.", "train.")], clock
        )
        if not ok:
            return None
        best, history = train_cap.timing.result
        problems = (
            checks.check_manifest(run)
            + checks.check_history(history)
            + checks.check_checkpoint(best, load_arrays(run / "checkpoint.mfuse"))
        )
        if not ops.record("train", problems):
            return None

        checkpoint = str(run / "checkpoint.mfuse")
        ok, eval_s = _verb(
            ops, ["eval", "--checkpoint", checkpoint, "--data", str(data), "--out", str(report)],
            clock,
        )
        if not ok:
            return None
        scored, test = score_cap.timing.result, score_cap.args[1]
        problems = checks.check_manifest(report) + checks.check_scores(scored, test)
        if len(scored) != self.n_test:
            problems.append(f"{len(scored)} scores for {self.n_test} test examples")
        if not problems:
            problems = checks.check_auc(checks.read_report_auc(report / "report.csv"), scored)
        if not ops.record("eval", problems):
            return None
        return {
            "synth_s": synth_s,
            "train_verb_s": train_verb_s,
            "eval_s": eval_s,
            "train_s": train_cap.timing.ref_s,
            "score_s": score_cap.timing.ref_s,
            "val_auc": history.best_val_auc,
        }

    VERBS = ("synth_s", "train_verb_s", "eval_s")

    def primary_s(self, sample):
        return sum(sample[k] for k in self.VERBS)

    def metrics(self, samples):
        return {
            "train_ex_per_s": self.n_train / _median([s["train_s"] for s in samples]),
            "score_ex_per_s": self.n_test / _median([s["score_s"] for s in samples]),
            "val_auc": samples[0]["val_auc"],
            # Each verb's median, summed: a slow spell of the shared disk in
            # one verb's file writes then moves one sample, not the sum.
            "pipeline_s": sum(_median([s[k] for s in samples]) for k in self.VERBS),
            "eval_verb_ex_per_s": self.n_test / _median([s["eval_s"] for s in samples]),
        }

    def smoke(self):
        return dataclasses.replace(self, n_train=64, n_val=32, n_test=64)


# Learning rates: 1e-2 learns crossmodal_xor in a few epochs, and FCM needs
# 3e-2 to learn unimodal_text in its single CLI epoch on every seed. The CLI
# default of 1e-4 barely moves either model, which would make val_auc vary
# from seed to seed.
WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            name="train-desk", variant="TKM", image_side=16, backbone="8,16",
            fusion_channels=16, min_tokens=5, max_tokens=9,
            n_train=1024, n_val=512, n_test=1024, learning_rate=1e-2,
        ),
        TrainWorkload(
            name="train-wide", variant="SCM", image_side=32, backbone="16,32,64",
            fusion_channels=64, min_tokens=1, max_tokens=2,
            n_train=768, n_val=384, n_test=512, learning_rate=1e-2,
        ),
        CliWorkload(
            name="cli-pipeline", n_train=1024, n_val=256, n_test=1536, learning_rate=3e-2
        ),
    )
}
