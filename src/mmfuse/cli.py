"""Command-line entry point wiring the full pipeline.

Verbs: prepare, synth, train, eval, ablate, gradcheck, report. Each verb
reads the config keys :data:`config.KEYS` gives it, and any other key is a
config error. Every run writes a manifest (the text of every key the verb
read, defaults included, and artifact hashes) into its output directory. A
training run's manifest is its only record: `train --manifest` re-runs the
training and reproduces its checkpoint bitwise, and `eval` rebuilds the
model from the manifest beside the checkpoint.

Exit codes: 0 success, 2 configuration error (also when the run's sizes
cannot be allocated), 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import dataset, evaluation, synth
from .autodiff import AutodiffError, CheckpointError, file_sha256, load_arrays, save_arrays
from .config import ConfigError
from .encoders import encode_texts
from .encoders.text import Vocabulary
from .fusion import ModelSpec, MultimodalModel, check_weight_size
from .gradcheck_suite import run_suite
from .training import ModelData, TrainConfig, score_dataset, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

ABLATION_MASKS = ("TT", "TT,IT", "I", "TT,IT,I")
REPORT_METRICS = ("f1_at_half", "max_f1", "auc", "balanced_accuracy")


class DataError(Exception):
    pass


@contextlib.contextmanager
def _reraise(kind, prefix=""):
    """Re-raise a ValueError from the block as ``kind`` (ConfigError or DataError)."""
    try:
        yield
    except ValueError as exc:
        raise kind(f"{prefix}{exc}") from exc


# ---------------------------------------------------------------------------
# manifest handling


def write_manifest(out_dir, verb, cfg, artifact_paths):
    """Write ``manifest.json``; artifacts are keyed by their path relative to ``out_dir``."""
    manifest = {
        "verb": verb,
        "config": dict(sorted(cfg.items())),
        "artifacts": {
            Path(p).relative_to(out_dir).as_posix(): file_sha256(p)
            for p in artifact_paths
            if Path(p).exists()
        },
    }
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def load_manifest_config(path, error=ConfigError):
    """The ``config`` block of the manifest at ``path`` as strings; a fault raises ``error``."""
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, nested too deep
        raise error(f"cannot read manifest {path}: {exc}") from exc
    config = manifest.get("config", {}) if isinstance(manifest, dict) else None
    if not isinstance(config, dict):
        raise error(f"{path}: a manifest is a JSON object whose \"config\" is an object")
    return {str(k): str(v) for k, v in config.items()}


# ---------------------------------------------------------------------------
# model construction from config

# the keys of a train manifest that eval rebuilds the model from
_RUN_KEYS = [name for name, key in cfgmod.KEYS.items() if {"train", "eval"} <= set(key.verbs)]


def _record(cls, values, section, **fields):
    """A ``cls`` whose fields take the typed ``values`` of the keys ``<section>.<field>``.

    ``fields`` give the fields no key names. A ValueError from ``cls`` is a ConfigError.
    """
    for field in dataclasses.fields(cls):
        key = f"{section}.{field.name}"
        if key in values:
            fields[field.name] = values[key]
    with _reraise(ConfigError):
        return cls(**fields)


def _model_spec(values):
    """The :class:`ModelSpec` of the typed ``values``: the ``model.*`` keys and ``train.mask``.

    The LSTM baseline is an FCM over tweet text with a linear head. Every
    fault is a ConfigError, raised before any weight is drawn, an embedding
    table of ``train.vocab_size`` rows too large for one array included.
    """
    mask = values["train.mask"]
    if values["model.variant"] == "LSTM":
        if mask.label() != "TT":
            raise ConfigError(f"model.variant=LSTM reads tweet text only, not {mask.label()}")
        if values["model.fc_plan"] != (2,):
            plan = ",".join(map(str, values["model.fc_plan"]))
            raise ConfigError(
                f"model.variant=LSTM has a linear head: model.fc_plan must be 2, not {plan}"
            )
        values = {**values, "model.variant": "FCM"}
    spec = _record(ModelSpec, values, "model", mask=mask)
    if spec.texts:
        with _reraise(ConfigError):
            check_weight_size("model.embedding_dim", (values["train.vocab_size"], spec.embedding_dim))
    return spec


def _build(values):
    """The model the typed ``values`` name, for ``train.vocab_size`` tokens."""
    return MultimodalModel(values["train.vocab_size"], _model_spec(values))


def build_model(cfg, vocab_size):
    """The model the string config ``cfg`` names, read as ``train`` reads it.

    ``model.variant=LSTM`` is the text-only baseline, an FCM over tweet text
    with a linear head. ``train.mask`` picks the inputs the model reads and so
    the modules it builds; the LSTM reads nothing but tweet text, and a TKM
    needs one text at least.
    """
    _, values = cfgmod.resolve({**cfg, "train.vocab_size": str(vocab_size)}, "train")
    return _build(values)


# ---------------------------------------------------------------------------
# data directory handling


def _parse_image_ref(image_dir, ref):
    """Split ``file.npy#row`` into (file, row)."""
    name, hashmark, row = ref.partition("#")
    if not name or name.startswith("/") or ".." in name.split("/"):
        raise DataError(f"image ref {ref!r} must name a file inside {image_dir}")
    if not (hashmark and row.isascii() and row.isdigit()):
        raise DataError(f"{image_dir / name}: image ref {ref!r} needs a decimal row after '#'")
    return name, int(row)


def _read_image_file(path):
    """The numeric array in the .npy file ``path``."""
    try:
        array = np.load(path)
    except (OSError, ValueError, EOFError) as exc:  # missing, a directory, not a .npy array
        raise DataError(f"{path}: cannot read image array: {exc}") from None
    if not isinstance(array, np.ndarray):  # an .npz archive
        array.close()
        raise DataError(f"{path}: not a .npy array")
    if array.dtype.kind not in "iuf":
        raise DataError(f"{path}: image dtype {array.dtype} is not numeric")
    return array


def _load_images(image_dir, refs):
    """The images a non-empty list of ``refs`` names, as one (len(refs), S, S, 3) array.

    A ref is ``file.npy#row``, row ``row`` of an (N, S, S, 3) array in a file
    inside ``image_dir``. Each file is loaded once. When the refs are rows
    0..N-1 of one file in order, as ``synth`` writes a split, the result is
    that array as loaded, not a copy.
    """
    parsed = [_parse_image_ref(image_dir, ref) for ref in refs]
    arrays = {}
    for ref, (name, row) in zip(refs, parsed):
        if name not in arrays:
            arrays[name] = _read_image_file(image_dir / name)
        shape = arrays[name].shape
        if len(shape) != 4 or shape[-1] != 3 or shape[-2] != shape[-3] or shape[-2] == 0:
            raise DataError(
                f"{image_dir / name}: image ref {ref!r} needs shape (N, S, S, 3), not {shape}"
            )
        if row >= shape[0]:
            raise DataError(f"{image_dir / name}: image ref {ref!r} is past its {shape[0]} rows")
    first = next(iter(arrays.values()))
    if len(arrays) == 1 and [row for _, row in parsed] == list(range(len(first))):
        images = first
    else:
        with _reraise(DataError, f"{image_dir}: images of different sizes: "):
            images = np.stack([arrays[name][row] for name, row in parsed])
    if images.dtype.kind == "f":
        finite = np.isfinite(images).all(axis=(1, 2, 3))
        if not finite.all():
            raise DataError(f"{image_dir / refs[int(np.argmin(finite))]}: non-finite pixel")
    return images


def load_split(data_dir, split, vocab):
    """Read <split>.jsonl (+ images/) back into a batchable ModelData."""
    path = Path(data_dir) / f"{split}.jsonl"
    if not path.exists():
        raise DataError(f"missing split file {path}")
    records, diagnostics = dataset.import_corpus(path)
    if diagnostics:
        raise DataError(f"{path}: {len(diagnostics)} malformed lines, first: {diagnostics[0][1]}")
    with _reraise(DataError, f"{path}: "):  # a record without annotations
        examples, unlabelable = dataset.label_corpus(records)
    if unlabelable:
        raise DataError(f"{path}: {len(unlabelable)} unlabelable records (all-fast votes)")
    # every record is labelled, so examples[i] is records[i]
    refs = [r.image_ref for r in records if r.image_ref]
    if refs and len(refs) != len(records):
        raise DataError(f"{path}: some records have images and some do not")
    if refs:
        images = _load_images(Path(data_dir) / "images", refs)
    else:
        images = np.zeros((len(records), 0, 0, 3))
    return ModelData.from_id_lists(
        images=images,
        tweet_ids=encode_texts(vocab, [r.tweet_text for r in records]),
        imgtext_ids=encode_texts(vocab, [r.image_text for r in records]),
        labels=np.array([ex.hate for ex in examples], dtype=np.int64),
        ids=[ex.id for ex in examples],
    )


def load_data_dir(data_dir, splits=("train", "val", "test")):
    vocab_path = Path(data_dir) / "vocab.txt"
    with _reraise(DataError):
        try:
            vocab = Vocabulary.load(vocab_path)
        except OSError as exc:  # missing, a directory, or unreadable
            raise DataError(f"{vocab_path}: cannot read vocabulary: {exc.strerror}") from None
    return vocab, {split: load_split(data_dir, split, vocab) for split in splits}


# ---------------------------------------------------------------------------
# verbs


def _make_out_dir(path):
    """Make the output directory ``path`` and its parents; returns it as a Path.

    Every verb that takes ``--out`` calls this first. A path that cannot be a
    directory, such as an existing file or a path under one, is a config error.
    """
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path}: {exc.strerror}") from None
    return out


def cmd_prepare(args, cfg):
    out = _make_out_dir(args.out)
    texts, values = cfgmod.resolve(cfg, "prepare")
    rules = _record(dataset.FilterRuleSet, values, "dataset")
    records, diagnostics = dataset.import_corpus(args.corpus)
    kept, filter_log = [], []
    for record in records:
        reason = dataset.filter_tweet(record, rules)
        if reason is not dataset.FilterReason.KEEP:
            filter_log.append((record.id, reason.value))
            continue
        gate = dataset.gate_image_by_text_probability(record, rules.text_probability_threshold)
        if gate == "discard":
            filter_log.append((record.id, "text_image"))
            continue
        kept.append(record)

    with _reraise(DataError, f"{args.corpus}: "):
        examples, unlabelable = dataset.label_corpus(
            kept, min_duration=values["dataset.min_duration"]
        )
    sizes = values["dataset.val_size"], values["dataset.test_size"]
    with _reraise(DataError):  # too few examples of a class
        dataset.build_splits(examples, *sizes, values["dataset.seed"])

    dataset.export_corpus(kept, out / "filtered.jsonl")
    with open(out / "examples.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "label", "category", "split", "binary_tie"])
        for ex in examples:
            label = "hate" if ex.hate else "not_hate"
            writer.writerow([ex.id, label, ex.category, ex.split, int(ex.binary_tie)])
    with open(out / "discards.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "reason"])
        writer.writerows(filter_log)
    with open(out / "import_errors.txt", "w", encoding="utf-8") as fh:
        for _, message in diagnostics:
            fh.write(message + "\n")
        for ident in unlabelable:
            fh.write(f"unlabelable record {ident}: every annotation was a fast hit\n")
    if rules.keywords:
        rows = dataset.keyword_hate_rates(examples, rules.keywords)
        dataset.write_keyword_csv(rows, out / "keyword_rates.csv")
    counts = {}
    for ex in examples:
        counts[ex.category] = counts.get(ex.category, 0) + 1
    if counts:
        dataset.write_class_distribution_csv(counts, out / "class_distribution.csv")
    write_manifest(out, "prepare", texts, sorted(str(p) for p in out.iterdir() if p.is_file()))
    print(
        f"prepare: {len(records)} records in, {len(kept)} kept, "
        f"{len(examples)} labeled, {len(diagnostics)} malformed lines"
    )
    return EXIT_OK


def cmd_synth(args, cfg):
    out = _make_out_dir(args.out)
    _make_out_dir(out / "images")
    texts, values = cfgmod.resolve(cfg, "synth")
    splits = synth.generate(_record(synth.SynthSpec, values, "synth"))
    vocab = synth.build_vocabulary()
    vocab.save(out / "vocab.txt")
    artifacts = [out / "vocab.txt"]
    for split, generated in splits.items():
        records = synth.to_records(generated, split, image_dir=str(out / "images"))
        dataset.export_corpus(records, out / f"{split}.jsonl")
        artifacts += [out / f"{split}.jsonl", out / "images" / f"{split}.npy"]
    write_manifest(out, "synth", texts, [str(p) for p in artifacts])
    print(f"synth: wrote {', '.join(f'{len(v)} {k}' for k, v in splits.items())} to {out}")
    return EXIT_OK


def _check_vocab(data_dir, vocab, trained):
    if len(vocab) != trained:  # the token ids would index another embedding table
        raise DataError(
            f"{Path(data_dir) / 'vocab.txt'} holds {len(vocab)} tokens, "
            f"the model was trained on {trained}"
        )


def _resolve_on_data(cfg, verb, data_dir, vocab, train_split):
    """``verb``'s texts and values; the data gives the vocabulary size and image side.

    ``train.vocab_size`` is the size of ``vocab`` unless ``cfg`` sets it, and
    then it must be that size. ``model.image_side`` is the side of the
    training images, when there are any, unless ``cfg`` sets it.
    """
    found = {"train.vocab_size": str(len(vocab))}
    if train_split.images.size:
        found["model.image_side"] = str(train_split.images.shape[1])
    texts, values = cfgmod.resolve({**found, **cfg}, verb)
    _check_vocab(data_dir, vocab, values["train.vocab_size"])
    return texts, values


def _train_config(values):
    return _record(TrainConfig, values, "train", learning_rate=values["train.lr"])


def _fit(out, data_dir, texts, values, splits):
    """Train the model ``values`` name; write its checkpoint, history and manifest to ``out``."""
    model = _build(values)
    train_config = _train_config(values)
    # an empty or single-class split, or images of another size than the model's
    with _reraise(DataError, f"{data_dir}: "):
        best, history = train(model, splits["train"], splits["val"], train_config)
    checkpoint = out / "checkpoint.mfuse"
    save_arrays(checkpoint, best)
    history.write_csv(out / "history.csv")
    write_manifest(out, "train", texts, [str(checkpoint), str(out / "history.csv")])
    if history.diverged:
        print(f"train: diverged ({history.diverged}); kept last finite checkpoint", file=sys.stderr)
        return EXIT_NUMERIC
    if history.best_step < 0:
        print(
            "train: model selection skipped: validation gave no AUC (an empty or "
            "single-class split); kept the final weights",
            file=sys.stderr,
        )
        print(f"train: {len(history.steps)} steps")
    else:
        print(
            f"train: {len(history.steps)} steps, best val AUC "
            f"{history.best_val_auc:.4f} at step {history.best_step}"
        )
    return EXIT_OK


def cmd_train(args, cfg):
    if args.manifest:
        cfg = {**load_manifest_config(args.manifest), **cfg}
    out = _make_out_dir(args.out)
    vocab, splits = load_data_dir(args.data, ("train", "val"))
    texts, values = _resolve_on_data(cfg, "train", args.data, vocab, splits["train"])
    return _fit(out, args.data, texts, values, splits)


def _restore_model(checkpoint_path, cfg):
    """The model at ``checkpoint_path``, with the texts and values of eval's keys.

    The model is rebuilt from the keys of the train manifest beside the
    checkpoint, which must hold every key it is built from, under the
    overrides ``cfg``. The manifest's keys are resolved first: a fault there
    is a data error naming the file. A fault in ``cfg`` is a config error.
    """
    if not Path(checkpoint_path).exists():
        raise DataError(f"missing checkpoint {checkpoint_path}")
    path = Path(checkpoint_path).parent / "manifest.json"
    stored = load_manifest_config(path, DataError)
    # keys of other verbs, such as train.lr, do not reach eval; unknown keys fail
    recorded = {k: v for k, v in stored.items() if k in _RUN_KEYS or k not in cfgmod.KEYS}
    try:
        missing = [name for name in _RUN_KEYS if name not in recorded]
        if missing:
            raise ConfigError(f"missing key {missing[0]}")
        _, trained = cfgmod.resolve(recorded, "eval")
        _model_spec(trained)
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from None
    texts, values = cfgmod.resolve({**recorded, **cfg}, "eval")
    # another mask builds other modules than the ones the checkpoint trained
    if values["train.mask"] != trained["train.mask"]:
        raise ConfigError(
            f"train.mask={texts['train.mask']} differs from the model's "
            f"train.mask={trained['train.mask'].label()}"
        )
    model = _build(values)
    arrays = load_arrays(checkpoint_path)
    try:
        model.load_state_dict(arrays)
    except CheckpointError as exc:
        raise CheckpointError(f"{checkpoint_path} does not fit the model config: {exc}") from None
    return model, texts, values


def _evaluate(out, checkpoint, data_dir, split, cfg):
    """Score ``checkpoint`` on ``split``, write its report, curves and manifest to ``out``.

    Returns the report's row: the model's name, its inputs and the :data:`REPORT_METRICS`.
    """
    out = _make_out_dir(out)
    model, texts, values = _restore_model(checkpoint, cfg)
    vocab, splits = load_data_dir(data_dir, (split,))
    _check_vocab(data_dir, vocab, values["train.vocab_size"])
    with _reraise(DataError, f"{data_dir}: "):  # images of another size than the model's
        scored = score_dataset(model, splits[split])
    try:
        report = evaluation.evaluate(scored)
    except evaluation.MetricError as exc:  # a split with one class only
        raise DataError(f"{data_dir}: {split} split: {exc}") from None
    row = (values["eval.name"], model.mask.label(), report.f1_at_half, report.max_f1,
           report.auc, report.balanced_accuracy)
    with open(out / "report.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "inputs", *REPORT_METRICS])
        writer.writerow([*row[:2], *map(repr, row[2:])])
    evaluation.write_curve_csv(report.pr_points, out / "pr_curve.csv")
    evaluation.write_curve_csv(report.roc_points, out / "roc_curve.csv")
    write_manifest(
        out, "eval", texts,
        [str(out / n) for n in ("report.csv", "pr_curve.csv", "roc_curve.csv")],
    )
    print(
        f"eval[{row[0]} {row[1]}]: F={report.max_f1:.3f} AUC={report.auc:.3f} "
        f"ACC={100 * report.balanced_accuracy:.1f}"
    )
    return row


def cmd_eval(args, cfg):
    _evaluate(args.out, args.checkpoint, args.data, args.split, cfg)
    return EXIT_OK


def _read_report_rows(paths):
    """The rows of the ``report.csv`` files at ``paths``; a fault is a DataError naming the file.

    Each row names a model, and each metric is a number in [0, 1].
    """
    rows = []
    for path in paths:
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                next(reader, None)
                for row in reader:
                    where = f"line {reader.line_num}"
                    if len(row) != 2 + len(REPORT_METRICS):
                        raise ValueError(f"{where} has {len(row)} fields")
                    if not row[0]:
                        raise ValueError(f"{where} names no model")
                    metrics = [float(text) for text in row[2:]]
                    for column, value in zip(REPORT_METRICS, metrics):
                        if not 0.0 <= value <= 1.0:  # also refuses nan
                            raise ValueError(f"{where}: {column} {value} is not in [0, 1]")
                    rows.append((row[0], row[1], *metrics))
        except OSError as exc:  # missing, a directory, unreadable
            raise DataError(f"cannot read report {path}: {exc.strerror or exc}") from None
        except (ValueError, csv.Error) as exc:  # not UTF-8, not a number, a short row
            raise DataError(f"{path}: malformed report: {exc}") from None
    return rows


def _write_results(rows, out):
    names = [row[0] for row in rows]
    csv_text, aligned = evaluation.results_table(
        (name if names.count(name) == 1 else f"{name} ({inputs})", inputs, max_f1, auc, bacc)
        for name, inputs, _, max_f1, auc, bacc in rows
    )
    (Path(out) / "results.csv").write_text(csv_text, encoding="utf-8")
    (Path(out) / "results.txt").write_text(aligned, encoding="utf-8")
    print(aligned, end="")


def cmd_report(args, cfg):
    out = _make_out_dir(args.out)
    rows = _read_report_rows(args.reports)
    if not rows:
        raise DataError("no report rows found")
    _write_results(rows, out)
    write_manifest(out, "report", {}, [str(out / "results.csv"), str(out / "results.txt")])
    return EXIT_OK


def cmd_ablate(args, cfg):
    out = _make_out_dir(args.out)
    vocab, splits = load_data_dir(args.data, ("train", "val"))
    texts, _ = _resolve_on_data(cfg, "ablate", args.data, vocab, splits["train"])
    arms = []
    for mask_text in ABLATION_MASKS:  # every arm's config is checked before the first one trains
        arm_texts, arm_values = cfgmod.resolve({**texts, "train.mask": mask_text}, "train")
        _model_spec(arm_values)
        _train_config(arm_values)
        arms.append((out / ("arm_" + mask_text.replace(",", "_")), arm_texts, arm_values))
    rows = []
    for arm, arm_texts, arm_values in arms:
        status = _fit(_make_out_dir(arm), args.data, arm_texts, arm_values, splits)
        if status != EXIT_OK:
            return status
        # not arm itself: its manifest.json is the train record
        rows.append(_evaluate(arm / "eval", arm / "checkpoint.mfuse", args.data, "test", {}))
    _write_results(rows, out)
    write_manifest(out, "ablate", texts, [str(out / "results.csv"), str(out / "results.txt")])
    return EXIT_OK


def cmd_gradcheck(args, cfg):
    texts, values = cfgmod.resolve(cfg, "gradcheck")
    out = _make_out_dir(args.out) if args.out else None
    results = run_suite(seed=values["gradcheck.seed"])
    failures = 0
    for name, err, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name} max_rel_err={err:.3e}")
        failures += not ok
    print(f"gradcheck: {len(results) - failures}/{len(results)} checks passed")
    if out:
        with open(out / "gradcheck.csv", "w", encoding="utf-8") as fh:
            fh.write("check,max_rel_error,passed\n")
            for name, err, ok in results:
                fh.write(f"{name},{err!r},{int(ok)}\n")
        write_manifest(out, "gradcheck", texts, [str(out / "gradcheck.csv")])
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mmfuse",
        description="Multimodal hate-speech models: data preparation, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE", help="config override (repeatable)",
        )
        p.add_argument("--out", required=out_required, help="output directory")

    p = sub.add_parser("prepare", help="filter, aggregate and split a raw corpus")
    p.add_argument("--corpus", required=True, help="line-delimited corpus file")
    common(p)

    p = sub.add_parser("synth", help="generate a synthetic multimodal corpus")
    common(p)

    p = sub.add_parser("train", help="train a model on a data directory")
    p.add_argument("--data", required=True, help="data directory (synth/prepare output)")
    p.add_argument("--manifest", help="re-run training from a previous manifest")
    common(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    common(p)

    p = sub.add_parser("ablate", help="train+eval one model per input mask")
    p.add_argument("--data", required=True)
    common(p)

    p = sub.add_parser("gradcheck", help="run the gradient-check suite")
    common(p, out_required=False)

    p = sub.add_parser("report", help="merge eval reports into a comparison table")
    p.add_argument("reports", nargs="+", help="report.csv files to merge")
    common(p)

    return parser


COMMANDS = {
    "prepare": cmd_prepare,
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "gradcheck": cmd_gradcheck,
    "report": cmd_report,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = cfgmod.load_config(getattr(args, "config", None), getattr(args, "overrides", []))
        cfgmod.check_keys(cfg, args.verb)
        return COMMANDS[args.verb](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, dataset.CorpusError, CheckpointError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (AutodiffError, evaluation.MetricError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # a size in the config that cannot be allocated
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
