import contextlib
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import checkpoint_bytes, checkpoint_parts

from mmfuse import cli, dataset, gradcheck_suite, synth, training
from mmfuse.autodiff import load_arrays, save_arrays
from mmfuse.autodiff.tensor import _toposort
from mmfuse.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from mmfuse.config import KEYS, ConfigError, resolve

FAST_TRAIN = [
    "--set", "train.epochs=1",
    "--set", "train.lr=0.002",
    "--set", "model.variant=FCM",
    "--set", "model.dropout_rate=0.1",
]


# the one stderr line of a train run that exits 0
NO_VAL_AUC_WARNING = (
    "train: model selection skipped: validation gave no AUC (an empty or single-class split); "
    "kept the final weights"
)

# the corpus the data_dir fixture writes
DATA_SPEC = synth.SynthSpec(n_train=96, n_val=40, n_test=40, seed=21)


def set_image_refs(data, split, refs):
    """Rewrite the image_ref of every record of ``<split>.jsonl``, in order."""
    path = data / f"{split}.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == len(refs)
    for record, ref in zip(records, refs):
        record["image_ref"] = ref
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main([
        "synth", "--out", str(out),
        "--set", "synth.n_train=96", "--set", "synth.n_val=40",
        "--set", "synth.n_test=40", "--set", "synth.seed=21",
    ])
    assert rc == EXIT_OK
    return out


@pytest.fixture
def data_copy(data_dir, tmp_path):
    """A copy of the data_dir corpus that a test may change."""
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    return data


@pytest.fixture(scope="module")
def run_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--data", str(data_dir), "--out", str(out), *FAST_TRAIN])
    assert rc == EXIT_OK
    return out


class TestSynthVerb:
    def test_artifacts_on_disk(self, data_dir):
        for name in ("vocab.txt", "train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"):
            assert (data_dir / name).exists()
        assert any((data_dir / "images").iterdir())

    def test_manifest_hashes_artifacts(self, data_dir):
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["verb"] == "synth"
        for name in ("vocab.txt", "train.jsonl"):
            assert len(manifest["artifacts"][name]) == 64

    def test_records_parse_back(self, data_dir):
        records, diagnostics = dataset.import_corpus(data_dir / "train.jsonl")
        assert diagnostics == []
        assert len(records) == 96

    def test_manifest_hashes_split_image_arrays(self, data_copy):
        artifacts = json.loads((data_copy / "manifest.json").read_text())["artifacts"]
        for split in ("train", "val", "test"):
            raw = (data_copy / "images" / f"{split}.npy").read_bytes()
            assert artifacts[f"images/{split}.npy"] == hashlib.sha256(raw).hexdigest()
        raw = bytearray((data_copy / "images" / "test.npy").read_bytes())
        raw[-1] ^= 1
        (data_copy / "images" / "test.npy").write_bytes(bytes(raw))
        changed = hashlib.sha256(bytes(raw)).hexdigest()
        assert artifacts["images/test.npy"] != changed


class TestLoadSplit:
    def test_images_bitwise_equal_to_generated(self, data_dir):
        vocab, splits = cli.load_data_dir(data_dir)
        generated = synth.generate(DATA_SPEC)
        for split in ("train", "val", "test"):
            expected = synth.to_model_data(generated[split], vocab).images
            loaded = splits[split].images
            assert loaded.shape == expected.shape and loaded.dtype == expected.dtype
            assert loaded.tobytes() == expected.tobytes()

    def test_split_array_is_used_as_loaded(self, data_dir, monkeypatch):
        loaded = []
        real_load = np.load

        def recording_load(path, *args, **kwargs):
            loaded.append(real_load(path, *args, **kwargs))
            return loaded[-1]

        monkeypatch.setattr(np, "load", recording_load)
        vocab, splits = cli.load_data_dir(data_dir, ("test",))
        assert len(loaded) == 1
        assert splits["test"].images is loaded[0]

    def test_refs_in_another_order_gather_their_rows(self, data_dir, data_copy):
        _, expected = cli.load_data_dir(data_dir, ("val",))
        set_image_refs(data_copy, "val", [f"val.npy#{i}" for i in reversed(range(40))])
        _, splits = cli.load_data_dir(data_copy, ("val",))
        assert np.array_equal(splits["val"].images, expected["val"].images[::-1])


class TestTrainVerb:
    def test_artifacts(self, run_dir):
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "checkpoint.mfuse", "history.csv", "manifest.json"
        ]

    def test_missing_data_dir_is_data_error(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA

    def test_bad_config_value_is_config_error(self, data_dir, tmp_path):
        rc = main([
            "train", "--data", str(data_dir), "--out", str(tmp_path / "o"),
            "--set", "train.epochs=many",
        ])
        assert rc == EXIT_CONFIG

    def test_malformed_override_is_config_error(self, data_dir, tmp_path):
        rc = main([
            "train", "--data", str(data_dir), "--out", str(tmp_path / "o"), "--set", "oops",
        ])
        assert rc == EXIT_CONFIG

    def test_manifest_rerun_reproduces_checkpoint(self, data_dir, run_dir, tmp_path):
        rerun = tmp_path / "rerun"
        rc = main([
            "train", "--data", str(data_dir), "--out", str(rerun),
            "--manifest", str(run_dir / "manifest.json"),
        ])
        assert rc == EXIT_OK
        first = json.loads((run_dir / "manifest.json").read_text())
        second = json.loads((rerun / "manifest.json").read_text())
        assert first["artifacts"]["checkpoint.mfuse"] == second["artifacts"]["checkpoint.mfuse"]

    def test_manifest_lists_every_key_train_read(self, run_dir):
        config = json.loads((run_dir / "manifest.json").read_text())["config"]
        assert sorted(config) == sorted(name for name, key in KEYS.items() if "train" in key.verbs)
        assert config["train.epochs"] == "1" and config["model.variant"] == "FCM"  # set
        assert config["model.hidden_dim"] == "32" and config["train.mask"] == "TT,IT,I"  # defaults
        assert config["train.vocab_size"] == "19" and config["model.image_side"] == "16"  # data

    def test_replay_reads_no_default(self, data_dir, run_dir, tmp_path, monkeypatch):
        others = {
            "model.variant": "SCM", "model.hidden_dim": "8", "model.backbone_channels": "4",
            "model.dropout_rate": "0.2", "model.seed": "5", "train.mask": "TT",
            "train.lr": "0.5", "train.epochs": "2", "train.batch_size": "7", "train.seed": "9",
        }
        for name, default in others.items():
            monkeypatch.setitem(KEYS, name, dataclasses.replace(KEYS[name], default=default))
        assert resolve({"train.vocab_size": "19"}, "train")[0]["model.hidden_dim"] == "8"
        rerun = tmp_path / "rerun"
        rc = main([
            "train", "--data", str(data_dir), "--out", str(rerun),
            "--manifest", str(run_dir / "manifest.json"),
        ])
        assert rc == EXIT_OK
        for name in ("checkpoint.mfuse", "history.csv", "manifest.json"):
            assert (rerun / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_replay_on_another_vocabulary_exits_3(self, data_copy, run_dir, tmp_path):
        with open(data_copy / "vocab.txt", "a") as fh:
            fh.write("extra\n")
        rc, err = run_main([
            "train", "--data", str(data_copy), "--out", str(tmp_path / "o"),
            "--manifest", str(run_dir / "manifest.json"),
        ])
        assert rc == EXIT_DATA
        assert err == [
            f"data error: {data_copy / 'vocab.txt'} holds 20 tokens, the model was trained on 19"
        ]

    def test_replay_does_not_read_the_environment(self, data_dir, tmp_path, monkeypatch):
        first, second = tmp_path / "first", tmp_path / "second"
        monkeypatch.setenv("MFUSE_SEED", "77")
        rc = main(["train", "--data", str(data_dir), "--out", str(first), *FAST_TRAIN])
        assert rc == EXIT_OK
        monkeypatch.delenv("MFUSE_SEED")
        rc = main([
            "train", "--data", str(data_dir), "--out", str(second),
            "--manifest", str(first / "manifest.json"),
        ])
        assert rc == EXIT_OK
        hashes = [
            json.loads((run / "manifest.json").read_text())["artifacts"]["checkpoint.mfuse"]
            for run in (first, second)
        ]
        assert hashes[0] == hashes[1]

    def test_image_side_comes_from_the_data(self, tmp_path):
        data = tmp_path / "data"
        rc = main([
            "synth", "--out", str(data), "--set", "synth.image_side=8",
            "--set", "synth.n_train=32", "--set", "synth.n_val=16", "--set", "synth.n_test=16",
        ])
        assert rc == EXIT_OK
        (data / "manifest.json").unlink()
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run"), *FAST_TRAIN])
        assert rc == EXIT_OK
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["model.image_side"] == "8"
        rc = main([
            "train", "--data", str(data), "--out", str(tmp_path / "bad"), *FAST_TRAIN,
            "--set", "model.image_side=16",
        ])
        assert rc == EXIT_DATA

    def test_no_validation_auc_keeps_final_weights_and_warns(self, tmp_path, capsys):
        data, run = tmp_path / "data", tmp_path / "run"
        rc = main([
            "synth", "--out", str(data), "--set", "synth.image_side=8",
            "--set", "synth.n_train=40", "--set", "synth.n_val=0", "--set", "synth.n_test=8",
        ])
        assert rc == EXIT_OK
        capsys.readouterr()
        rc = main(["train", "--data", str(data), "--out", str(run), *FAST_TRAIN])
        out, err = capsys.readouterr()
        assert rc == EXIT_OK
        assert out == "train: 2 steps\n"
        assert err == NO_VAL_AUC_WARNING + "\n"
        history = (run / "history.csv").read_text().splitlines()
        assert len(history) == 3 and all(line.endswith(",") for line in history[1:])
        assert load_arrays(run / "checkpoint.mfuse")

    def test_nonfinite_gradient_names_parameter(self, data_dir, tmp_path, monkeypatch, capsys):
        real_backward = training.backward

        def nan_gradients(loss):
            real_backward(loss)
            for node in _toposort(loss):
                if node._backprop is None and node.grad is not None:
                    node.grad = np.full_like(node.grad, np.nan)

        monkeypatch.setattr(training, "backward", nan_gradients)
        out = tmp_path / "o"
        capsys.readouterr()
        rc = main(["train", "--data", str(data_dir), "--out", str(out), *FAST_TRAIN])
        err = capsys.readouterr().err.strip()
        assert rc == EXIT_NUMERIC
        match = re.fullmatch(
            r"train: diverged \(non-finite gradient of '([\w.]+)'\); kept last finite checkpoint",
            err,
        )
        assert match, err
        assert match.group(1) in load_arrays(out / "checkpoint.mfuse")


# Each case damages one key of a train manifest: (key, new value or None to drop it).
DAMAGED_MANIFESTS = {
    "missing_vocab_size": ("train.vocab_size", None),
    "unknown_variant": ("model.variant", "XYZ"),
    "non_integer_hidden_dim": ("model.hidden_dim", "x"),
    "unknown_mask": ("train.mask", "Q"),
    "missing_hidden_dim": ("model.hidden_dim", None),
    "unknown_key": ("model.hiden_dim", "32"),
}

# Each case is an eval --set override that cannot build the trained model.
BAD_EVAL_OVERRIDES = {
    "unknown_variant": "model.variant=XYZ",
    "non_integer_hidden_dim": "model.hidden_dim=x",
    "non_integer_vocab_size": "train.vocab_size=x",
}


class TestEvalAndReportVerbs:
    def test_eval_writes_report_and_curves(self, data_dir, run_dir, tmp_path):
        out = tmp_path / "eval"
        rc = main([
            "eval", "--checkpoint", str(run_dir / "checkpoint.mfuse"),
            "--data", str(data_dir), "--split", "test", "--out", str(out),
        ])
        assert rc == EXIT_OK
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "model,inputs,f1_at_half,max_f1,auc,balanced_accuracy"
        assert (out / "pr_curve.csv").exists()
        assert (out / "roc_curve.csv").exists()

        merged = tmp_path / "merged"
        rc = main(["report", str(out / "report.csv"), "--out", str(merged)])
        assert rc == EXIT_OK
        table = (merged / "results.txt").read_text()
        assert table.splitlines()[0].split() == ["Model", "Inputs", "F", "AUC", "ACC"]
        assert "FCM" in table

    def test_csv_values_parse_as_numbers(self, data_dir, run_dir, tmp_path, monkeypatch):
        """Every value cell of the curve and gradcheck CSVs is a plain number for float()."""
        rc = main([
            "eval", "--checkpoint", str(run_dir / "checkpoint.mfuse"),
            "--data", str(data_dir), "--split", "test", "--out", str(tmp_path / "eval"),
        ])
        assert rc == EXIT_OK
        monkeypatch.setattr(gradcheck_suite, "model_checks", lambda seed: [])  # primitives: fast
        assert main(["gradcheck", "--out", str(tmp_path / "gc")]) == EXIT_OK
        tables = [
            (tmp_path / "eval" / "pr_curve.csv", 0),
            (tmp_path / "eval" / "roc_curve.csv", 0),
            (tmp_path / "gc" / "gradcheck.csv", 1),  # the first column names the check
        ]
        for path, first in tables:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows, path
            for row in rows:
                for cell in row[first:]:
                    float(cell)

    def test_report_without_rows_is_data_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("model,inputs,f1_at_half,max_f1,auc,balanced_accuracy\n")
        rc = main(["report", str(empty), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA

    def test_malformed_report_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("model,inputs,f1_at_half,max_f1,auc,balanced_accuracy\nFCM,TT,0.5\n")
        rc = main(["report", str(bad), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("metric", ["inf", "nan", "-0.5", "1.5"])
    def test_report_metric_outside_0_1_exits_3(self, metric, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "model,inputs,f1_at_half,max_f1,auc,balanced_accuracy\n"
            f"FCM,TT,0.5,0.5,{metric},0.5\n"
        )
        out = tmp_path / "out"
        rc, err = run_main(["report", str(bad), "--out", str(out)])
        assert rc == EXIT_DATA
        assert err == [f"data error: {bad}: malformed report: line 2: auc {float(metric)} "
                       "is not in [0, 1]"]
        assert not (out / "results.txt").exists()

    def test_report_row_without_a_name_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("model,inputs,f1_at_half,max_f1,auc,balanced_accuracy\n,TT,0.5,0.5,0.5,0.5\n")
        rc, err = run_main(["report", str(bad), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert err == [f"data error: {bad}: malformed report: line 2 names no model"]

    def test_report_on_a_directory_exits_3(self, tmp_path):
        rc, err = run_main(["report", str(tmp_path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert err == [f"data error: cannot read report {tmp_path}: Is a directory"]

    def test_other_mask_than_trained_is_config_error(self, data_dir, run_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        capsys.readouterr()
        rc = main([
            "eval", "--checkpoint", str(run_dir / "checkpoint.mfuse"),
            "--data", str(data_dir), "--out", str(out), "--set", "train.mask=I",
        ])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("config error: ")
        assert len(err.strip().splitlines()) == 1
        assert "train.mask=I " in err and "TT,IT,I" in err
        assert "Traceback" not in err
        assert not (out / "report.csv").exists()

    def test_trained_mask_in_any_order_is_allowed(self, data_dir, run_dir, tmp_path):
        rc = main([
            "eval", "--checkpoint", str(run_dir / "checkpoint.mfuse"),
            "--data", str(data_dir), "--out", str(tmp_path / "eval"), "--set", "train.mask=I,TT,IT",
        ])
        assert rc == EXIT_OK

    def test_missing_checkpoint_is_data_error(self, data_dir, tmp_path):
        rc = main([
            "eval", "--checkpoint", str(tmp_path / "nope.mfuse"),
            "--data", str(data_dir), "--out", str(tmp_path / "o"),
        ])
        assert rc == EXIT_DATA

    def test_checkpoint_without_its_manifest_exits_3(self, data_dir, run_dir, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(run_dir / "checkpoint.mfuse", run)
        rc, err = run_main([
            "eval", "--checkpoint", str(run / "checkpoint.mfuse"),
            "--data", str(data_dir), "--out", str(tmp_path / "o"),
        ])
        assert rc == EXIT_DATA
        assert len(err) == 1 and err[0].startswith(
            f"data error: cannot read manifest {run / 'manifest.json'}: "
        ), err

    def test_eval_reads_model_keys_from_the_manifest(self, data_dir, run_dir, tmp_path):
        """The train manifest alone rebuilds the model; its other keys do not reach eval."""
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(run_dir / "checkpoint.mfuse", run)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["config"]["eval.name"] = "stored"
        (run / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "eval"
        rc, err = run_main([
            "eval", "--checkpoint", str(run / "checkpoint.mfuse"),
            "--data", str(data_dir), "--out", str(out),
        ])
        assert rc == EXIT_OK, err
        row = list(csv.reader((out / "report.csv").read_text().splitlines()))[1]
        assert row[:2] == ["FCM", "TT,IT,I"]

    @pytest.mark.parametrize("case", sorted(DAMAGED_MANIFESTS))
    def test_damaged_manifest_key_exits_3(self, case, data_dir, run_dir, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(run_dir / "checkpoint.mfuse", run)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        key, value = DAMAGED_MANIFESTS[case]
        if value is None:
            del manifest["config"][key]
        else:
            manifest["config"][key] = value
        (run / "manifest.json").write_text(json.dumps(manifest))
        rc, err = run_main([
            "eval", "--checkpoint", str(run / "checkpoint.mfuse"),
            "--data", str(data_dir), "--out", str(tmp_path / "o"),
        ])
        assert rc == EXIT_DATA
        assert len(err) == 1 and err[0].startswith(f"data error: {run / 'manifest.json'}: "), err

    @pytest.mark.parametrize("case", sorted(BAD_EVAL_OVERRIDES))
    def test_bad_override_exits_2(self, case, data_dir, run_dir, tmp_path):
        rc, err = run_main([
            "eval", "--checkpoint", str(run_dir / "checkpoint.mfuse"),
            "--data", str(data_dir), "--out", str(tmp_path / "o"),
            "--set", BAD_EVAL_OVERRIDES[case],
        ])
        assert rc == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith("config error: "), err


class TestAblateVerb:
    def test_one_arm_per_input_mask(self, tmp_path):
        data = tmp_path / "data"
        rc = main([
            "synth", "--out", str(data),
            "--set", "synth.n_train=64", "--set", "synth.n_val=32", "--set", "synth.n_test=32",
        ])
        assert rc == EXIT_OK
        out = tmp_path / "ablate"
        rc = main(["ablate", "--data", str(data), "--out", str(out), "--set", "train.epochs=1"])
        assert rc == EXIT_OK
        # where each arm's eval writes must not change the merged table
        assert (out / "results.csv").read_text() == (
            "Model,Inputs,F,AUC,ACC\n"
            "FCM (TT),TT,0.815,0.641,50.0\n"
            '"FCM (TT,IT)","TT,IT",0.830,0.695,50.0\n'
            "FCM (I),I,0.815,0.355,50.0\n"
            '"FCM (TT,IT,I)","TT,IT,I",0.824,0.491,50.0\n'
        )
        for inputs in ("TT", "TT,IT", "I", "TT,IT,I"):
            arm = out / ("arm_" + inputs.replace(",", "_"))
            manifest = json.loads((arm / "manifest.json").read_text())
            assert manifest["verb"] == "train"
            assert manifest["config"]["train.mask"] == inputs
            assert not [key for key in manifest["config"] if key.startswith("eval.")]
            checkpoint = hashlib.sha256((arm / "checkpoint.mfuse").read_bytes()).hexdigest()
            assert manifest["artifacts"]["checkpoint.mfuse"] == checkpoint
            evaluated = json.loads((arm / "eval" / "manifest.json").read_text())
            assert evaluated["verb"] == "eval" and evaluated["config"]["eval.name"] == "FCM"
            assert (arm / "eval" / "report.csv").exists()

    def test_tkm_exits_2_before_any_arm_trains(self, tiny_data):
        data, root = tiny_data
        out = root / "ablate_tkm"
        rc, err = run_main(["ablate", "--data", str(data), "--out", str(out),
                            "--set", "model.variant=TKM"])
        assert rc == EXIT_CONFIG
        assert err == ["config error: model.variant=TKM makes its kernels from TT or IT, not I"]
        assert list(out.iterdir()) == []


def train_images():
    return synth.to_model_data(synth.generate(DATA_SPEC)["train"], synth.build_vocabulary()).images


def write_train_images(data, images, layout="split"):
    """Store the train split's images as one array; returns the records' refs.

    In the ``split`` layout record ``i`` is row ``i``, as ``synth`` writes it;
    in the ``gathered`` layout the rows are stored in reverse, so loading
    gathers them.
    """
    rows = range(len(images)) if layout == "split" else reversed(range(len(images)))
    refs = [f"train.npy#{i}" for i in rows]
    np.save(data / "images" / "train.npy", images if layout == "split" else images[::-1])
    set_image_refs(data, "train", refs)
    return refs


def train_data_error(data, tmp_path, capsys):
    """Run the train verb on ``data``; it must exit 3 with one line. Returns that line."""
    capsys.readouterr()
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "o"), *FAST_TRAIN])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA, err
    assert err.startswith("data error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    return err


def corrupt_pixels(images, row):
    images[row, 3, 4, 1] = np.nan
    return images


# Each case turns the train split's (N, S, S, 3) images into bad content for
# the file(s) and names a phrase the error line must hold.
BAD_IMAGE_CONTENT = {
    "grayscale": (lambda images: images[..., 0], "needs shape ("),
    "nan_pixel": (lambda images: corrupt_pixels(images, 5), "non-finite pixel"),
    "strings": (lambda images: images.astype(str), "is not numeric"),
}


def edit_arrays(change):
    """A checkpoint edit that loads the arrays, applies ``change`` to them and saves them."""

    def edit(path):
        arrays = load_arrays(path)
        change(arrays)
        save_arrays(path, arrays)

    return edit


def edit_layout(change):
    """A checkpoint edit of the header entries and payload bytes; the digest stays valid."""

    def edit(path):
        header, payload = checkpoint_parts(path.read_bytes())
        path.write_bytes(checkpoint_bytes(*change(header, payload)))

    return edit


def add_conv_bias(arrays):
    """Add the zero ``backbone.stage0.conv.bias`` array that older checkpoints hold."""
    arrays["backbone.stage0.conv.bias"] = np.zeros_like(arrays["backbone.stage0.bn.beta"])


def with_non_integer_dim(header, payload):
    header[0]["shape"][-1] = "x"
    return header, payload


# Each case edits the FCM run's checkpoint in place and adds eval overrides.
BAD_CHECKPOINTS = {
    "wrong_variant": (lambda path: None, ["--set", "model.variant=TKM"]),
    "wrong_hidden_dim": (lambda path: None, ["--set", "model.hidden_dim=16"]),
    "missing_key": (edit_arrays(lambda arrays: arrays.pop(min(arrays))), []),
    "unexpected_key": (
        edit_arrays(lambda arrays: arrays.update({"zzz.extra": np.array([0.5, 0.25])})), []
    ),
    "dropped_conv_bias": (edit_arrays(add_conv_bias), []),
    "truncated_record": (edit_layout(lambda header, payload: (header, payload[:-8])), []),
    "non_integer_dim": (edit_layout(with_non_integer_dim), []),
}


class TestDataErrors:
    @pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
    def test_bad_checkpoint_exits_3(self, case, data_dir, run_dir, tmp_path, capsys):
        edit, overrides = BAD_CHECKPOINTS[case]
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(run_dir / "manifest.json", run)
        shutil.copy(run_dir / "checkpoint.mfuse", run)
        edit(run / "checkpoint.mfuse")
        capsys.readouterr()
        rc = main([
            "eval", "--checkpoint", str(run / "checkpoint.mfuse"),
            "--data", str(data_dir), "--out", str(tmp_path / "o"), *overrides,
        ])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert err.startswith("data error: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        if case == "dropped_conv_bias":
            assert "unexpected key 'backbone.stage0.conv.bias'" in err

    def test_single_class_test_split_exits_3(self, data_dir, run_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        records = (data / "test.jsonl").read_text().splitlines()
        not_hate = [
            line for line in records
            if all(a["category"] == "NotHate" for a in json.loads(line)["annotations"])
        ]
        assert 0 < len(not_hate) < len(records)
        (data / "test.jsonl").write_text("\n".join(not_hate) + "\n")
        capsys.readouterr()
        rc = main([
            "eval", "--checkpoint", str(run_dir / "checkpoint.mfuse"),
            "--data", str(data), "--out", str(tmp_path / "o"),
        ])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert err.startswith("data error: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_vocabulary_of_another_size_exits_3(self, data_copy, run_dir, tmp_path):
        with open(data_copy / "vocab.txt", "a") as fh:
            fh.write("extra\n")
        rc, err = run_main([
            "eval", "--checkpoint", str(run_dir / "checkpoint.mfuse"),
            "--data", str(data_copy), "--out", str(tmp_path / "o"),
        ])
        assert rc == EXIT_DATA
        assert err == [
            f"data error: {data_copy / 'vocab.txt'} holds 20 tokens, the model was trained on 19"
        ]

    def test_non_utf8_split_line_exits_3(self, data_copy, tmp_path, capsys):
        path = data_copy / "train.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"filler", b"fill\xffer", 1)
        path.write_bytes(b"".join(lines))
        err = train_data_error(data_copy, tmp_path, capsys)
        assert f"{path}: 1 malformed lines, first: line 3: 'utf-8' codec can't decode" in err

    def test_non_utf8_vocabulary_exits_3(self, data_copy, tmp_path, capsys):
        with open(data_copy / "vocab.txt", "ab") as fh:
            fh.write(b"caf\xe9\n")
        err = train_data_error(data_copy, tmp_path, capsys)
        assert f"{data_copy / 'vocab.txt'}:20: not UTF-8 text" in err

    @pytest.mark.parametrize("fault", ["missing", "directory"])
    @pytest.mark.parametrize("verb", ["train", "eval"])
    def test_unreadable_vocabulary_exits_3(self, verb, fault, data_copy, run_dir, tmp_path):
        vocab = data_copy / "vocab.txt"
        vocab.unlink()
        if fault == "directory":
            vocab.mkdir()
        argv = {
            "train": ["train", "--data", str(data_copy), "--out", str(tmp_path / "o"), *FAST_TRAIN],
            "eval": [
                "eval", "--checkpoint", str(run_dir / "checkpoint.mfuse"),
                "--data", str(data_copy), "--out", str(tmp_path / "o"),
            ],
        }[verb]
        rc, err = run_main(argv)
        assert rc == EXIT_DATA
        assert len(err) == 1, err
        reason = {"missing": "No such file or directory", "directory": "Is a directory"}[fault]
        assert err == [f"data error: {vocab}: cannot read vocabulary: {reason}"]

    def test_malformed_vocabulary_exits_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "vocab.txt").write_text("plain\ntokens\n")
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")

    @pytest.mark.parametrize("layout", ["split", "gathered"])
    @pytest.mark.parametrize("case", sorted(BAD_IMAGE_CONTENT))
    def test_bad_image_content_exits_3(self, case, layout, data_copy, tmp_path, capsys):
        edit, phrase = BAD_IMAGE_CONTENT[case]
        refs = write_train_images(data_copy, edit(train_images()), layout)
        err = train_data_error(data_copy, tmp_path, capsys)
        assert phrase in err
        if case == "nan_pixel":
            assert f"{refs[5]}: non-finite pixel" in err

    def test_mixed_image_sizes_exit_3(self, data_copy, tmp_path, capsys):
        refs = write_train_images(data_copy, train_images())
        np.save(data_copy / "images" / "small.npy", np.zeros((1, 8, 8, 3)))
        set_image_refs(data_copy, "train", ["small.npy#0"] + refs[1:])
        assert "different sizes" in train_data_error(data_copy, tmp_path, capsys)

    def test_directory_ref_exits_3(self, data_copy, tmp_path, capsys):
        refs = write_train_images(data_copy, train_images())
        (data_copy / "images" / "folder.npy").mkdir()
        set_image_refs(data_copy, "train", ["folder.npy#0"] + refs[1:])
        err = train_data_error(data_copy, tmp_path, capsys)
        assert "folder.npy: cannot read image array" in err

    @pytest.mark.parametrize("ref", ["train.npy#", "train.npy#x1", "train.npy#-1", "train.npy#96"])
    def test_bad_row_exits_3(self, ref, data_copy, tmp_path, capsys):
        refs = write_train_images(data_copy, train_images())
        refs[3] = ref
        set_image_refs(data_copy, "train", refs)
        assert f"image ref {ref!r}" in train_data_error(data_copy, tmp_path, capsys)

    @pytest.mark.parametrize("absolute", [False, True], ids=["dotdot", "absolute"])
    def test_ref_outside_images_exits_3(self, absolute, data_copy, tmp_path, capsys):
        images = train_images()
        refs = write_train_images(data_copy, images)
        outside = tmp_path / "other" / "images"
        outside.mkdir(parents=True)
        np.save(outside / "x.npy", images[:1])
        ref = str(outside / "x.npy#0") if absolute else "../../other/images/x.npy#0"
        set_image_refs(data_copy, "train", [ref] + refs[1:])
        assert "must name a file inside" in train_data_error(data_copy, tmp_path, capsys)


class TestLstmVariant:
    def test_train_then_eval(self, data_dir, tmp_path):
        run = tmp_path / "run"
        rc = main([
            "train", "--data", str(data_dir), "--out", str(run),
            "--set", "model.variant=LSTM", "--set", "train.epochs=1", "--set", "train.lr=0.002",
        ])
        assert rc == EXIT_OK
        names = load_arrays(run / "checkpoint.mfuse")
        assert {name.split(".")[0] for name in names} == {"text", "head"}
        out = tmp_path / "eval"
        rc = main([
            "eval", "--checkpoint", str(run / "checkpoint.mfuse"),
            "--data", str(data_dir), "--out", str(out),
        ])
        assert rc == EXIT_OK
        row = (out / "report.csv").read_text().splitlines()[1].split(",")
        assert row[:2] == ["LSTM", "TT"]

    def test_tkm_without_text_is_refused(self):
        with pytest.raises(ConfigError, match="^model.variant=TKM makes its kernels from TT or IT"):
            cli.build_model({"model.variant": "TKM", "train.mask": "I"}, 19)
        assert cli.build_model({"model.variant": "TKM", "train.mask": "IT,I"}, 19).mask.image_text

    def test_mask_beyond_tweet_text_is_config_error(self, data_dir, tmp_path):
        rc = main([
            "train", "--data", str(data_dir), "--out", str(tmp_path / "o"),
            "--set", "model.variant=LSTM", "--set", "train.mask=I",
        ])
        assert rc == EXIT_CONFIG

    def test_fc_plan_beyond_the_linear_head_is_config_error(self, data_dir, tmp_path):
        rc, err = run_main([
            "train", "--data", str(data_dir), "--out", str(tmp_path / "o"),
            "--set", "model.variant=LSTM", "--set", "model.fc_plan=32,16,2",
        ])
        assert rc == EXIT_CONFIG
        assert err == [
            "config error: model.variant=LSTM has a linear head: "
            "model.fc_plan must be 2, not 32,16,2"
        ]

    def test_manifest_with_a_deeper_fc_plan_exits_2_on_replay_and_3_under_eval(
        self, tiny_data, tmp_path
    ):
        data, _ = tiny_data
        run = tmp_path / "run"
        rc, err = run_main([
            "train", "--data", str(data), "--out", str(run),
            "--set", "model.variant=LSTM", "--set", "train.epochs=1",
        ])
        assert rc == EXIT_OK, err
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["config"]["model.fc_plan"] == "2"
        manifest["config"]["model.fc_plan"] = "32,16,2"
        (run / "manifest.json").write_text(json.dumps(manifest))
        rc, err = run_main([
            "train", "--data", str(data), "--out", str(tmp_path / "replay"),
            "--manifest", str(run / "manifest.json"),
        ])
        assert rc == EXIT_CONFIG and len(err) == 1 and "model.fc_plan must be 2" in err[0], err
        rc, err = run_main([
            "eval", "--checkpoint", str(run / "checkpoint.mfuse"), "--data", str(data),
            "--out", str(tmp_path / "eval"),
        ])
        assert rc == EXIT_DATA and len(err) == 1, err
        assert err[0].startswith(f"data error: {run / 'manifest.json'}: model.variant=LSTM"), err


class TestPrepareVerb:
    def test_full_prepare_run(self, tmp_path):
        image_dir = tmp_path / "imgs"
        image_dir.mkdir()
        spec = synth.SynthSpec(n_train=30, n_val=5, n_test=5, seed=2)
        records = synth.to_records(
            synth.generate(spec)["train"], "train", image_dir=str(image_dir)
        )
        corpus = tmp_path / "raw.jsonl"
        dataset.export_corpus(records, corpus)
        out = tmp_path / "prep"
        rc = main([
            "prepare", "--corpus", str(corpus), "--out", str(out),
            "--set", "dataset.keywords=zork",
        ])
        assert rc == EXIT_OK
        for name in ("filtered.jsonl", "examples.csv", "discards.csv",
                     "keyword_rates.csv", "class_distribution.csv", "manifest.json"):
            assert (out / name).exists()
        lines = (out / "examples.csv").read_text().splitlines()
        assert len(lines) == 31  # header + 30 examples

    def test_missing_corpus_is_data_error(self, tmp_path):
        rc = main(["prepare", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA

    def test_ids_with_commas_and_quotes_read_back(self, tmp_path):
        spec = synth.SynthSpec(n_train=4, n_val=0, n_test=0, seed=2)
        records = synth.to_records(synth.generate(spec)["train"], "train", image_dir=str(tmp_path))
        records[0] = dataclasses.replace(records[0], id="comma,id")
        records[1] = dataclasses.replace(records[1], id='rt,"1"', is_retweet=True)
        corpus, out = tmp_path / "raw.jsonl", tmp_path / "prep"
        dataset.export_corpus(records, corpus)
        assert main(["prepare", "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK

        def rows(name):
            with open(out / name, newline="") as fh:
                return list(csv.reader(fh))

        examples = rows("examples.csv")
        assert [len(row) for row in examples] == [5] * 4
        assert [row[0] for row in examples] == ["id", "comma,id", "train-000002", "train-000003"]
        assert rows("discards.csv") == [["id", "reason"], ['rt,"1"', "retweet"]]


    def test_outputs_are_utf8_under_a_c_locale(self, tmp_path):
        spec = synth.SynthSpec(n_train=12, n_val=0, n_test=0, seed=2)
        records = synth.to_records(synth.generate(spec)["train"], "train", image_dir=str(tmp_path))
        records = [dataclasses.replace(r, id=f"é-{i}") for i, r in enumerate(records)]
        records[0] = dataclasses.replace(records[0], is_retweet=True)
        corpus = tmp_path / "raw.jsonl"
        dataset.export_corpus(records, corpus)
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write(records[1].to_json() + "\n")  # a duplicate id, for import_errors.txt
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONPATH": str(src)}
        env.pop("PYTHONIOENCODING", None)
        argv = ["prepare", "--corpus", str(corpus)]
        done = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "mmfuse.cli", *argv, "--out", str(tmp_path / "c")],
            env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == EXIT_OK, done.stderr.decode(errors="replace")
        assert run_main([*argv, "--out", str(tmp_path / "utf8")])[0] == EXIT_OK
        for name in ("examples.csv", "discards.csv", "import_errors.txt"):
            written = (tmp_path / "c" / name).read_bytes()
            assert "é-".encode("utf-8") in written, name
            assert written == (tmp_path / "utf8" / name).read_bytes(), name

    @pytest.fixture
    def corpus(self, tmp_path):
        """A 16-record raw corpus, 8 of it hate."""
        split = synth.generate(synth.SynthSpec(n_train=16, n_val=0, n_test=0, seed=2))["train"]
        path = tmp_path / "raw.jsonl"
        dataset.export_corpus(synth.to_records(split, "train", image_dir=str(tmp_path)), path)
        return path

    # an odd size exited 3 as a data error; a negative one wrote a short or no split
    @pytest.mark.parametrize("pairs,refused", [
        (["dataset.val_size=-2"], "dataset.val_size must be a non-negative even integer"),
        (["dataset.val_size=-2", "dataset.test_size=4"],
         "dataset.val_size must be a non-negative even integer"),
        (["dataset.test_size=3"], "dataset.test_size must be a non-negative even integer"),
    ], ids=["negative_val", "negative_val_with_test", "odd_test"])
    def test_negative_or_odd_split_size_exits_2(self, pairs, refused, corpus, tmp_path):
        rc, err = run_main(["prepare", "--corpus", str(corpus), "--out", str(tmp_path / "p"),
                            *sets(pairs)])
        got = pairs[0].split("=")[1]
        assert rc == EXIT_CONFIG
        assert err == [f"config error: {refused} (half hate, half not-hate), got {got}"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_min_duration_exits_2(self, value, corpus, tmp_path):
        rc, err = run_main(["prepare", "--corpus", str(corpus), "--out", str(tmp_path / "p"),
                            "--set", f"dataset.min_duration={value}"])
        assert rc == EXIT_CONFIG
        assert err == [f"config error: dataset.min_duration must be a finite number, got {value!r}"]


def test_records_built_with_no_arguments_take_the_table_defaults():
    """A library caller and the CLI start a run from the same settings."""
    _, values = resolve({"train.vocab_size": "1"}, "train")
    assert training.TrainConfig() == cli._train_config(values)
    _, values = resolve({}, "synth")
    assert synth.SynthSpec() == cli._record(synth.SynthSpec, values, "synth")
    _, values = resolve({}, "prepare")
    assert dataset.FilterRuleSet() == cli._record(dataset.FilterRuleSet, values, "dataset")
    label_corpus = inspect.signature(dataset.label_corpus)
    assert label_corpus.parameters["min_duration"].default == values["dataset.min_duration"]


# JSON that parses to no manifest, or that the parser gives up on
NOT_A_MANIFEST = {
    "list": "[]",
    "config_list": '{"config": [1]}',
    "deep": "[" * 100_000 + "]" * 100_000,
}


class TestConfigFile:
    def test_non_utf8_config_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"synth.n_train = 8\nsynth.mode = caf\xe9\n")
        rc, err = run_main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert err == [f"config error: {cfg}:2: not UTF-8 text (invalid continuation byte)"]

    def test_non_utf8_manifest_exits_2(self, tiny_data, tmp_path):
        data, _ = tiny_data
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b'{"config": {"train.epochs": "1\xff"}}')
        rc, err = run_main([
            "train", "--data", str(data), "--out", str(tmp_path / "o"), "--manifest", str(manifest),
        ])
        assert rc == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith(f"config error: cannot read manifest {manifest}")

    @pytest.mark.parametrize("case", sorted(NOT_A_MANIFEST))
    @pytest.mark.parametrize("verb", ["train", "eval"])
    def test_json_that_is_not_a_manifest_exits_with_one_line(
        self, verb, case, tiny_data, tmp_path
    ):
        data, _ = tiny_data
        manifest = tmp_path / "manifest.json"
        manifest.write_text(NOT_A_MANIFEST[case])
        checkpoint = tmp_path / "checkpoint.mfuse"
        checkpoint.write_text("")  # eval reads the manifest beside it first
        argv = {
            "train": ["train", "--data", str(data), "--manifest", str(manifest)],
            "eval": ["eval", "--checkpoint", str(checkpoint), "--data", str(data)],
        }[verb]
        rc, err = run_main([*argv, "--out", str(tmp_path / "o")])
        kind, code = {"train": ("config", EXIT_CONFIG), "eval": ("data", EXIT_DATA)}[verb]
        assert rc == code
        if case == "deep":
            expected = f"cannot read manifest {manifest}: maximum recursion depth exceeded"
        else:
            expected = f'{manifest}: a manifest is a JSON object whose "config" is an object'
        assert len(err) == 1 and err[0].startswith(f"{kind} error: {expected}"), err

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synth.n_train = 8\nsynth.n_val = 4  # comment\nsynth.n_test = 4\n")
        out = tmp_path / "out"
        rc = main(["synth", "--config", str(cfg), "--out", str(out),
                   "--set", "synth.n_train=12"])
        assert rc == EXIT_OK
        records, _ = dataset.import_corpus(out / "train.jsonl")
        assert len(records) == 12


def run_main(argv):
    """(exit code, stderr lines) of ``main(argv)`` in this process."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue().strip().splitlines()


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    """A 16/8/8 corpus of 8-px images, and a directory runs on it may write to."""
    root = tmp_path_factory.mktemp("tiny")
    rc = main(["synth", "--out", str(root / "data"), *TINY_SYNTH])
    assert rc == EXIT_OK
    return root / "data", root


TINY_SYNTH = [
    "--set", "synth.n_train=16", "--set", "synth.n_val=8", "--set", "synth.n_test=8",
    "--set", "synth.image_side=8",
]

# every key train reads but the sizes the data fixes: another size is a data error
TRAIN_KEYS = [
    name for name, key in KEYS.items()
    if "train" in key.verbs and name not in ("model.image_side", "train.vocab_size")
]
SYNTH_KEYS = [name for name, key in KEYS.items() if "synth" in key.verbs]
FUZZ_VALUES = ["", ",", "0", "-1", "0,2", "1,0", "nan", "inf", "x", "1.5"]
EXA = 10**18

CONFIG_FAULTS = {
    "empty_fc_plan": ["model.fc_plan="],
    "comma_fc_plan": ["model.fc_plan=,"],
    "zero_width_fc_layer": ["model.fc_plan=0,2"],
    "zero_fusion_channels_scm": ["model.variant=SCM", "model.fusion_channels=0"],
    "zero_fusion_channels_tkm": ["model.variant=TKM", "model.fusion_channels=0"],
    "zero_backbone_channels": ["model.backbone_channels=8,0"],
    "negative_epochs": ["train.epochs=-1"],
    "negative_eval_every": ["train.eval_every=-3"],
    "nan_lr": ["train.lr=nan"],
    "inf_lr": ["train.lr=inf"],
    "negative_train_seed": ["train.seed=-1"],
    "tkm_without_text": ["model.variant=TKM", "train.mask=I"],
}


def sets(pairs):
    return [arg for pair in pairs for arg in ("--set", pair)]


class TestConfigFaults:
    @pytest.mark.parametrize("case", sorted(CONFIG_FAULTS))
    def test_train_fault_exits_2_with_one_line(self, case, tiny_data):
        data, root = tiny_data
        rc, err = run_main([
            "train", "--data", str(data), "--out", str(root / "fault"),
            *sets(["model.variant=FCM", "train.epochs=1", *CONFIG_FAULTS[case]]),
        ])
        assert rc == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith("config error: "), err

    def test_negative_synth_seed_exits_2(self, tiny_data):
        _, root = tiny_data
        rc, err = run_main(
            ["synth", "--out", str(root / "neg"), *TINY_SYNTH, "--set", "synth.seed=-1"]
        )
        assert rc == EXIT_CONFIG
        assert err == ["config error: synth.seed must be a non-negative integer, got -1"]

    # Each size makes a first array of about an exabyte, which no host can map, so
    # the allocation fails at once; a size that fits the address space but not
    # memory could be overcommitted and then killed, and is not tried. The
    # hidden_dim, embedding_dim and fusion_channels sizes also make a later
    # array larger than any array can be, which ModelSpec refuses first.
    @pytest.mark.parametrize("pairs,line", [
        (["model.hidden_dim=10000000000000000"], "config error: model.hidden_dim makes a"),
        (["model.embedding_dim=10000000000000000"], "config error: model.embedding_dim makes a"),
        (["model.backbone_channels=8,2000000000000000"], "out of memory: Unable to allocate"),
        (["model.fc_plan=2000000000000000,2"], "out of memory: Unable to allocate"),
        (["model.variant=SCM", "model.fusion_channels=1000000000000000"],
         "config error: model.fusion_channels makes a"),
    ], ids=["hidden_dim", "embedding_dim", "backbone_channels", "fc_plan", "fusion_channels"])
    def test_train_too_large_to_allocate_exits_2_with_one_line(self, pairs, line, tiny_data):
        data, root = tiny_data
        rc, err = run_main([
            "train", "--data", str(data), "--out", str(root / "huge"),
            *sets(["model.variant=FCM", "train.epochs=1", *pairs]),
        ])
        assert rc == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith(line), err

    # each key at 10^18 makes a weight array larger than sys.maxsize bytes,
    # which NumPy would refuse with a ValueError after the model began drawing
    @pytest.mark.parametrize("pair,shape,size", [
        (f"model.hidden_dim={EXA}", f"({EXA}, {4 * EXA})", 32 * EXA**2),
        (f"model.embedding_dim={EXA}", f"({EXA}, 128)", 1024 * EXA),
        (f"model.fusion_channels={EXA}", f"(3, 3, {EXA}, {EXA})", 72 * EXA**2),
        (f"model.fc_plan={EXA},2", f"(16, {EXA})", 128 * EXA),
        (f"model.backbone_channels=8,{EXA}", f"(3, 3, {EXA + 64}, 16)", 1152 * (EXA + 64)),
    ], ids=["hidden_dim", "embedding_dim", "fusion_channels", "fc_plan", "backbone_channels"])
    def test_weight_array_larger_than_any_array_exits_2(self, pair, shape, size, tiny_data):
        data, root = tiny_data
        rc, err = run_main([
            "train", "--data", str(data), "--out", str(root / "wide_model"),
            *sets(["model.variant=SCM", "train.epochs=1", pair]),
        ])
        key = pair.split("=")[0]
        assert rc == EXIT_CONFIG
        assert err == [
            f"config error: {key} makes a {shape} weight array of {size} bytes, "
            f"more than one array can hold ({sys.maxsize})"
        ]

    def test_embedding_table_larger_than_any_array_exits_2(self, tiny_data):
        """The (vocabulary, embedding_dim) table, which ModelSpec cannot size, is checked too."""
        data, root = tiny_data
        rc, err = run_main([
            "train", "--data", str(data), "--out", str(root / "wide_table"),
            *sets(["model.variant=FCM", "model.hidden_dim=1", f"model.embedding_dim={EXA // 10}"]),
        ])
        vocab = len(synth.build_vocabulary())
        assert rc == EXIT_CONFIG
        assert err == [
            f"config error: model.embedding_dim makes a ({vocab}, {EXA // 10}) weight array of "
            f"{8 * vocab * EXA // 10} bytes, more than one array can hold ({sys.maxsize})"
        ]

    def test_synth_too_large_to_allocate_exits_2_with_one_line(self, tiny_data):
        _, root = tiny_data
        rc, err = run_main(["synth", "--out", str(root / "huge_synth"),
                            "--set", "synth.n_train=1000000000000000"])
        assert rc == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith("out of memory: Unable to allocate"), err

    def test_synth_split_larger_than_any_array_exits_2(self, tiny_data):
        _, root = tiny_data
        rc, err = run_main(["synth", "--out", str(root / "wide_synth"),
                            "--set", "synth.image_side=10000000"])
        assert rc == EXIT_CONFIG
        assert err == [
            "config error: a split of 8000 images of side 10000000 needs "
            f"19200000000000000000 bytes, more than one array can hold ({sys.maxsize})"
        ]

    @given(
        variant=st.sampled_from(["FCM", "SCM", "TKM", "LSTM"]),
        key=st.sampled_from(TRAIN_KEYS),
        value=st.sampled_from(FUZZ_VALUES),
    )
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_train_key_exits_0_or_2(self, tiny_data, variant, key, value):
        data, root = tiny_data
        rc, err = run_main([
            "train", "--data", str(data), "--out", str(root / "fuzz"),
            *sets([f"model.variant={variant}", "train.epochs=1", f"{key}={value}"]),
        ])
        assert rc in (EXIT_OK, EXIT_CONFIG), err
        if rc == EXIT_CONFIG:
            assert len(err) == 1 and err[0].startswith("config error: "), err

    @given(key=st.sampled_from(SYNTH_KEYS), value=st.sampled_from(FUZZ_VALUES))
    @settings(max_examples=30, deadline=None)
    def test_fuzzed_synth_key_exits_0_or_2(self, tiny_data, key, value):
        _, root = tiny_data
        rc, err = run_main(
            ["synth", "--out", str(root / "fuzz_synth"), *TINY_SYNTH, "--set", f"{key}={value}"]
        )
        assert rc in (EXIT_OK, EXIT_CONFIG), err
        if rc == EXIT_CONFIG:
            assert len(err) == 1 and err[0].startswith("config error: "), err


# small shapes keep each replay example short
REPLAY_MODEL = [
    "model.backbone_channels=4,8", "model.embedding_dim=5", "model.hidden_dim=6",
    "model.fusion_channels=5", "train.epochs=2", "train.lr=0.01",
]


class TestReplay:
    @given(
        variant=st.sampled_from(["FCM", "SCM", "TKM", "LSTM"]),
        mask=st.sampled_from(["TT", "IT", "I", "TT,IT", "TT,I", "IT,I", "TT,IT,I"]),
        share=st.booleans(),
        eval_every=st.integers(0, 5),
        batch_size=st.integers(1, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_train_replays_and_eval_repeats_bitwise(
        self, tiny_data, variant, mask, share, eval_every, batch_size
    ):
        """``train --manifest`` rewrites the run's bytes, and ``eval`` run twice agrees.

        Batch sizes that do not divide the 16 training examples leave a short
        last batch; the LSTM reads tweet text alone.
        """
        assume(not (variant == "TKM" and mask == "I"))
        data, root = tiny_data
        pairs = [
            f"model.variant={variant}", f"model.share_text_encoder={share}",
            f"train.eval_every={eval_every}", f"train.batch_size={batch_size}", *REPLAY_MODEL,
        ]
        if variant != "LSTM":  # the LSTM has a linear head: the table's fc_plan 2
            pairs += [f"train.mask={mask}", "model.fc_plan=10,2"]
        with tempfile.TemporaryDirectory(dir=root) as tmp:
            first, second = Path(tmp) / "first", Path(tmp) / "second"
            rc, err = run_main(["train", "--data", str(data), "--out", str(first), *sets(pairs)])
            assert rc == EXIT_OK, err
            rc, err = run_main([
                "train", "--data", str(data), "--out", str(second),
                "--manifest", str(first / "manifest.json"),
            ])
            assert rc == EXIT_OK, err
            for name in ("checkpoint.mfuse", "history.csv"):
                assert (first / name).read_bytes() == (second / name).read_bytes(), name
            reports = []
            for out in ("eval1", "eval2"):
                rc, err = run_main([
                    "eval", "--checkpoint", str(first / "checkpoint.mfuse"),
                    "--data", str(data), "--out", str(Path(tmp) / out),
                ])
                assert rc == EXIT_OK, err
                reports.append((Path(tmp) / out / "report.csv").read_bytes())
            assert reports[0] == reports[1]


class TestNonFiniteScores:
    def test_overflowing_lr_exits_4(self, tiny_data):
        data, root = tiny_data
        out = root / "overflow"
        rc, err = run_main([
            "train", "--data", str(data), "--out", str(out),
            *sets(["model.variant=SCM", "train.epochs=1", "train.lr=1e30"]),
        ])
        assert rc == EXIT_NUMERIC
        assert err[-1] == "train: diverged (non-finite validation score); kept last finite checkpoint"
        arrays = load_arrays(out / "checkpoint.mfuse")
        assert all(np.isfinite(a).all() for a in arrays.values())

    def test_huge_weights_exit_4_at_eval(self, data_dir, run_dir, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(run_dir / "manifest.json", run)
        arrays = load_arrays(run_dir / "checkpoint.mfuse")
        save_arrays(run / "checkpoint.mfuse", {k: v * 1e300 for k, v in arrays.items()})
        out = tmp_path / "o"
        rc, err = run_main([
            "eval", "--checkpoint", str(run / "checkpoint.mfuse"),
            "--data", str(data_dir), "--out", str(out),
        ])
        assert rc == EXIT_NUMERIC
        assert len(err) == 1 and err[0].startswith("numeric failure: non-finite score"), err
        assert not (out / "report.csv").exists()

    def test_overflowing_running_statistic_exits_4(self, data_copy, tmp_path):
        """A huge but finite pixel overflows the stem's batch variance, not the loss."""
        path = data_copy / "images" / "train.npy"
        images = np.load(path)
        images[5, 3, 4, 1] = 1e300
        np.save(path, images)
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, err = run_main(["train", "--data", str(data_copy), "--out", str(out), *FAST_TRAIN])
        assert rc == EXIT_NUMERIC
        assert err == [
            "train: diverged (non-finite running statistic 'backbone.stage0.bn.running_var'); "
            "kept last finite checkpoint"
        ]
        assert [str(w.message) for w in caught] == []
        arrays = load_arrays(out / "checkpoint.mfuse")
        assert all(np.isfinite(a).all() for a in arrays.values())
        rc, err = run_main([
            "eval", "--checkpoint", str(out / "checkpoint.mfuse"),
            "--data", str(data_copy), "--out", str(tmp_path / "eval"),
        ])
        assert rc == EXIT_OK, err


# Each verb that takes --out, with inputs it never reaches: the output directory comes first.
OUT_VERB_ARGS = {
    "prepare": ["--corpus", "corpus.jsonl"],
    "synth": [],
    "train": ["--data", "data"],
    "eval": ["--checkpoint", "checkpoint.mfuse", "--data", "data"],
    "ablate": ["--data", "data"],
    "gradcheck": [],
    "report": ["report.csv"],
}


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("verb", sorted(OUT_VERB_ARGS))
def test_out_that_cannot_be_a_directory_exits_2(verb, under, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    out = taken / "sub" if under else taken
    rc, err = run_main([verb, *OUT_VERB_ARGS[verb], "--out", str(out)])
    assert rc == EXIT_CONFIG
    reason = "Not a directory" if under else "File exists"
    assert err == [f"config error: --out {out}: {reason}"]
    assert taken.read_text() == "keep"


def misspellings(name):
    """A deletion, a substitution and a transposition at the start of ``name``'s last part."""
    i = name.index(".") + 1
    return [
        name[:i] + name[i + 1 :],
        name[:i] + ("y" if name[i] == "x" else "x") + name[i + 1 :],
        name[:i] + name[i + 1] + name[i] + name[i + 2 :],
    ]


@pytest.mark.parametrize("name", sorted(KEYS))
def test_misspelt_key_exits_2_before_any_work(name, tmp_path):
    verb = KEYS[name].verbs[0]
    out = tmp_path / "out"
    for edit in misspellings(name):
        assert edit not in KEYS
        config = tmp_path / "run.cfg"
        config.write_text(f"{edit} = 1\n")
        for source in (["--set", f"{edit}=1"], ["--config", str(config)]):
            rc, err = run_main([verb, *OUT_VERB_ARGS[verb], "--out", str(out), *source])
            assert rc == EXIT_CONFIG
            assert err == [f"config error: unknown key {edit!r}; did you mean {name}?"]
            assert not out.exists()


def test_config_file_with_another_verbs_key_exits_2(tmp_path):
    config = tmp_path / "shared.cfg"
    config.write_text("synth.n_train = 8\ntrain.epochs = 1\n")
    rc, err = run_main(["synth", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert err == ["config error: synth does not read train.epochs, a key of train, ablate"]


FILE_MUTATIONS = ("truncate", "flip", "invalid_utf8", "nul", "overlong")


def mutate(data, mutation, at, byte):
    """``data`` cut, changed or added to at the fraction ``at`` of its length; ``byte`` in 1..255."""
    i = int(at * (len(data) - 1))
    if mutation == "truncate":
        return data[:i]
    if mutation == "flip":
        return data[:i] + bytes([data[i] ^ byte]) + data[i + 1 :]
    insert = {
        "invalid_utf8": (b"\xff", b"\xc3", b"\xed\xa0\x80")[byte % 3],
        "nul": b"\0",
        "overlong": (b" ", b"a")[byte % 2] * 65536,
    }[mutation]
    return data[:i] + insert + data[i:]


@pytest.fixture(scope="module")
def fuzz_run(tiny_data):
    """The tiny corpus, an FCM trained on it and its settings as a ``--config`` file.

    Fuzz tests restore every file they change.
    """
    data, root = tiny_data
    rc, err = run_main(["train", "--data", str(data), "--out", str(root / "fuzz_run"), *FAST_TRAIN])
    assert rc == EXIT_OK, err
    pairs = FAST_TRAIN[1::2]
    (root / "fuzz.cfg").write_text("".join(p.replace("=", " = ") + "\n" for p in pairs))
    return data, root


def run_on_mutated(path, mutation, at, byte, argv):
    """(exit code, stderr lines) of ``argv`` run with ``path`` mutated, which is then restored."""
    original = path.read_bytes()
    path.write_bytes(mutate(original, mutation, at, byte))
    try:
        return run_main(argv)
    finally:
        path.write_bytes(original)


def assert_clean_outcome(rc, err):
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC), err
    if rc == EXIT_OK:  # a val split cut to one class or none still trains
        assert err in ([], [NO_VAL_AUC_WARNING])
    else:
        assert len(err) == 1, err
        assert err[0].startswith(("config error: ", "data error: ", "numeric failure: ", "train: "))


mutations = st.sampled_from(FILE_MUTATIONS)
positions = st.floats(0, 1)
mutation_bytes = st.integers(1, 255)


# the files of the trained run; the other fuzzed files are the corpus's
RUN_FILES = ("checkpoint.mfuse", "manifest.json")


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    """A copy of the raw corpus criterion 8 checks, for prepare; fuzz tests restore it."""
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    shutil.copy(Path(__file__).parent / "fixtures" / "corpus.jsonl", path)
    return path


@pytest.fixture(scope="module")
def fuzz_report(fuzz_run):
    """The report.csv of an eval of the fuzz_run model; fuzz tests restore it."""
    data, root = fuzz_run
    out = root / "fuzz_report"
    rc, err = run_main([
        "eval", "--checkpoint", str(root / "fuzz_run" / "checkpoint.mfuse"),
        "--data", str(data), "--out", str(out),
    ])
    assert rc == EXIT_OK, err
    return out / "report.csv"


class TestFuzzedFiles:
    @pytest.mark.parametrize(
        "name", ["train.jsonl", "val.jsonl", "vocab.txt", "images/train.npy"]
    )
    @given(mutation=mutations, at=positions, byte=mutation_bytes)
    @settings(max_examples=15, deadline=None)
    def test_train_on_mutated_file(self, fuzz_run, name, mutation, at, byte):
        data, root = fuzz_run
        argv = ["train", "--data", str(data), "--out", str(root / "fuzz_train"), *FAST_TRAIN]
        assert_clean_outcome(*run_on_mutated(data / name, mutation, at, byte, argv))

    @pytest.mark.parametrize("option", ["--config", "--manifest"])
    @given(mutation=mutations, at=positions, byte=mutation_bytes)
    @settings(max_examples=15, deadline=None)
    def test_train_on_mutated_option_file(self, fuzz_run, option, mutation, at, byte):
        data, root = fuzz_run
        path = {"--config": root / "fuzz.cfg", "--manifest": root / "fuzz_run" / "manifest.json"}
        argv = [
            "train", "--data", str(data), "--out", str(root / "fuzz_train"),
            option, str(path[option]),
        ]
        assert_clean_outcome(*run_on_mutated(path[option], mutation, at, byte, argv))

    @given(mutation=mutations, at=positions, byte=mutation_bytes)
    @settings(max_examples=15, deadline=None)
    def test_prepare_on_mutated_corpus(self, fuzz_corpus, mutation, at, byte):
        argv = [
            "prepare", "--corpus", str(fuzz_corpus), "--out", str(fuzz_corpus.parent / "out"),
            *sets(["dataset.val_size=8", "dataset.test_size=12", "dataset.seed=13",
                   "dataset.banned_terms=badword", "dataset.keywords=termx,termy,termz"]),
        ]
        assert_clean_outcome(*run_on_mutated(fuzz_corpus, mutation, at, byte, argv))

    @given(mutation=mutations, at=positions, byte=mutation_bytes)
    @settings(max_examples=15, deadline=None)
    def test_report_on_mutated_report(self, fuzz_report, mutation, at, byte):
        argv = ["report", str(fuzz_report), "--out", str(fuzz_report.parent / "fuzz_table")]
        rc, err = run_on_mutated(fuzz_report, mutation, at, byte, argv)
        assert rc in (EXIT_OK, EXIT_DATA), err
        assert_clean_outcome(rc, err)

    @pytest.mark.parametrize(
        "name", ["test.jsonl", "vocab.txt", "images/test.npy", *RUN_FILES]
    )
    @given(mutation=mutations, at=positions, byte=mutation_bytes)
    @settings(max_examples=15, deadline=None)
    def test_eval_on_mutated_file(self, fuzz_run, name, mutation, at, byte):
        data, root = fuzz_run
        run = root / "fuzz_run"
        argv = [
            "eval", "--checkpoint", str(run / "checkpoint.mfuse"),
            "--data", str(data), "--out", str(root / "fuzz_eval"),
        ]
        path = (run if name in RUN_FILES else data) / name
        rc, err = run_on_mutated(path, mutation, at, byte, argv)
        if name == "checkpoint.mfuse":  # the digest catches every damaged byte
            assert rc == EXIT_DATA and len(err) == 1 and err[0].startswith("data error: "), err
        else:
            assert_clean_outcome(rc, err)
