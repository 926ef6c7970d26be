"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The heavy criteria train small models end to end on synthetic corpora; every
run is seed-fixed, so results are reproducible across machines up to BLAS
rounding.
"""

import json
import time

import numpy as np
import pytest

from conftest import (
    build_model, make_scored, oracle_auc, oracle_balanced_accuracy, oracle_f1, oracle_max_f1,
    random_instance,
)
from mmfuse import synth
from mmfuse.cli import EXIT_OK, main as cli_main
from mmfuse.encoders import pad_ids
from mmfuse.evaluation import auc_roc, evaluate
from mmfuse.fusion import ModelSpec
from mmfuse.gradcheck_suite import run_suite
from mmfuse.training import TrainConfig, score_dataset, train


def report(num, text, ok):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


# ---------------------------------------------------------------------------
# desk-scale experiment helpers


DESK = dict(
    image_side=16, backbone_channels=(8, 16), embedding_dim=16, hidden_dim=32, tweet_kernels=4,
    imgtext_kernels=2, fc_plan=(32, 16, 2), fusion_channels=16, dropout_rate=0.1,
)


def desk_model(variant, vocab_size, seed, mask=None):
    """A desk-config model; ``LSTM`` is the text-only baseline, over tweet text alone."""
    return build_model(variant, mask, vocab_size, seed=seed, **DESK)


def text_only(vocab_size, seed):
    return desk_model("LSTM", vocab_size, seed)


def run_experiment(model, train_spec, epochs=2, lr=2e-3, seed=0, test_spec=None):
    """Train on train_spec's train/val splits; balanced accuracy on the test split.

    ``test_spec`` lets the test distribution differ from the training one.
    """
    vocab = synth.build_vocabulary()
    splits = synth.generate(train_spec)
    test_split = synth.generate(test_spec)["test"] if test_spec else splits["test"]
    config = TrainConfig(learning_rate=lr, batch_size=32, epochs=epochs, seed=seed)
    train(
        model,
        synth.to_model_data(splits["train"], vocab),
        synth.to_model_data(splits["val"], vocab),
        config,
    )
    scored = score_dataset(model, synth.to_model_data(test_split, vocab))
    return evaluate(scored).balanced_accuracy


def xor_spec(seed=0, **kw):
    defaults = dict(mode="crossmodal_xor", n_train=8000, n_val=1000, n_test=2000, seed=seed)
    defaults.update(kw)
    return synth.SynthSpec(**defaults)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_gradient_check_suite():
    start = time.monotonic()
    results = run_suite(seed=0)
    elapsed = time.monotonic() - start
    failures = [(name, err) for name, err, ok in results if not ok]
    ok = not failures and len(results) >= 24 and elapsed < 120.0
    report(
        1,
        f"gradient checks {len(results) - len(failures)}/{len(results)} passed "
        f"(rel err <= 1e-4) in {elapsed:.1f}s",
        ok,
    )


def test_criterion_2_metric_oracle_equivalence():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(200):
        scores, labels = random_instance(rng)
        scored = make_scored(scores, labels)
        metrics = evaluate(scored)
        worst = max(
            worst,
            abs(auc_roc(scored) - oracle_auc(scores, labels)),
            abs(metrics.f1_at_half - oracle_f1(scores, labels, 0.5)),
            abs(metrics.max_f1 - oracle_max_f1(scores, labels)),
            abs(metrics.balanced_accuracy - oracle_balanced_accuracy(scores, labels)),
        )
    report(2, f"metrics match brute-force oracles, max abs diff {worst:.2e}", worst <= 1e-12)


def test_criterion_3_random_row_reproduction():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    scores = rng.random(10_000)
    labels = np.arange(10_000) < 5_000
    scored = make_scored(scores, labels)
    metrics = evaluate(scored)
    max_f1 = metrics.max_f1
    auc = auc_roc(scored)
    acc = 100.0 * metrics.balanced_accuracy
    elapsed = time.monotonic() - start
    ok = (
        abs(max_f1 - 0.667) <= 0.005
        and abs(auc - 0.5) <= 0.02
        and abs(acc - 50.0) <= 1.0
        and elapsed < 10.0
    )
    report(
        3,
        f"random scores give F={max_f1:.3f} AUC={auc:.3f} ACC={acc:.1f} in {elapsed:.1f}s",
        ok,
    )


def test_criterion_4_reference_shape_conformance():
    fcm = ModelSpec.reference("FCM")
    tkm = ModelSpec.reference("TKM")
    ok = (
        fcm.concat_dim == 2348
        and (tkm.tweet_kernels, tkm.imgtext_kernels) == (10, 5)
        and tkm.kernel_count == 15
        and tkm.map_side == 8
        and tkm.kernel_count + 2 * tkm.hidden_dim == 315
    )
    report(4, "reference configuration: FCM concat 2348, TKM map 8x8x15 -> 8x8x315", ok)


def test_criterion_5_masked_modality_invariance():
    rng = np.random.default_rng(5)
    vocab = synth.build_vocabulary()
    all_ok = True
    for variant in ("FCM", "SCM", "TKM"):
        model = desk_model(variant, len(vocab), seed=11, mask="TT,IT")
        tweets = pad_ids([[1 + int(rng.integers(0, 10))] * 3 for _ in range(100)])
        imgtexts = pad_ids([[2 + int(rng.integers(0, 10))] * 2 for _ in range(100)])
        images_a = rng.random((100, 16, 16, 3))
        images_b = rng.random((100, 16, 16, 3))
        a = model.forward(images_a, tweets, imgtexts, training=False).data
        b = model.forward(images_b, tweets, imgtexts, training=False).data
        all_ok &= bool((a == b).all())
    report(5, "eval logits bitwise identical across 100 masked-image pairs per variant", all_ok)


def test_criterion_6_crossmodal_learnability():
    start = time.monotonic()
    vocab_size = len(synth.build_vocabulary())
    spec = xor_spec(seed=0)
    accs = {}
    accs["TKM"] = run_experiment(desk_model("TKM", vocab_size, 1), spec, seed=1)
    accs["SCM"] = run_experiment(desk_model("SCM", vocab_size, 2), spec, seed=2)
    accs["FCM"] = run_experiment(desk_model("FCM", vocab_size, 3), spec, seed=3)
    accs["text-only"] = run_experiment(text_only(vocab_size, 4), spec, seed=4)
    accs["image-only"] = run_experiment(
        desk_model("FCM", vocab_size, 5, mask="I"), spec, seed=5
    )
    uni = synth.SynthSpec(mode="unimodal_text", n_train=2000, n_val=400, n_test=1000, seed=6)
    accs["text-only/unimodal"] = run_experiment(text_only(vocab_size, 6), uni, seed=6)
    elapsed = time.monotonic() - start
    ok = (
        accs["TKM"] >= 0.95
        and accs["SCM"] >= 0.95
        and accs["FCM"] >= 0.90
        and accs["text-only"] <= 0.55
        and accs["image-only"] <= 0.55
        and accs["text-only/unimodal"] >= 0.95
        and elapsed < 600.0
    )
    summary = " ".join(f"{k}={v:.3f}" for k, v in accs.items())
    report(6, f"crossmodal xor learnability: {summary} ({elapsed:.0f}s)", ok)


def test_criterion_7_degradation_curves():
    vocab_size = len(synth.build_vocabulary())
    base = dict(n_train=4000, n_val=500, n_test=2000)

    noise_points = [0.0, 0.1, 0.2, 0.3]
    noise_accs = []
    for i, rho in enumerate(noise_points):
        spec = xor_spec(seed=20 + i, noise_rate=rho, **base)
        noise_accs.append(run_experiment(desk_model("TKM", vocab_size, 30 + i), spec, seed=30 + i))

    # the multimodal fraction shrinks in training data only; the test split
    # stays purely crossmodal
    clean_test = xor_spec(seed=50, **base)
    mu_points = [1.0, 0.7, 0.4, 0.1]
    mu_accs = []
    for i, mu in enumerate(mu_points):
        spec = xor_spec(seed=40 + i, multimodal_fraction=mu, **base)
        mu_accs.append(
            run_experiment(
                desk_model("TKM", vocab_size, 60 + i), spec, seed=60 + i, test_spec=clean_test
            )
        )

    text_spec = xor_spec(seed=43, multimodal_fraction=0.1, **base)
    text_acc = run_experiment(
        text_only(vocab_size, 70), text_spec, seed=70, test_spec=clean_test,
    )

    def monotone_decreasing(values, jitter=0.02):
        return all(b <= a + jitter for a, b in zip(values, values[1:]))

    ok = (
        monotone_decreasing(noise_accs)
        and noise_accs[-1] <= noise_accs[0] - 0.05
        and monotone_decreasing(mu_accs)
        and mu_accs[-1] <= mu_accs[0] - 0.05
        and abs(mu_accs[-1] - text_acc) <= 0.05
    )
    report(
        7,
        "degradation: noise "
        + "->".join(f"{a:.3f}" for a in noise_accs)
        + ", mu "
        + "->".join(f"{a:.3f}" for a in mu_accs)
        + f", text-only at mu=0.1 {text_acc:.3f}",
        ok,
    )


def test_criterion_8_dataset_fixture_and_class_weights(corpus_records, fixture_expected):
    from mmfuse.dataset import (
        FilterReason,
        FilterRuleSet,
        build_splits,
        filter_tweet,
        gate_image_by_text_probability,
        keyword_hate_rates,
        label_corpus,
    )
    from mmfuse.training import class_weights

    expected = fixture_expected
    rules = FilterRuleSet(banned_terms=tuple(expected["banned_terms"]))
    ok = True
    for record in corpus_records:
        want = expected["filter"].get(record.id, "keep")
        ok &= filter_tweet(record, rules).value == want
    by_id = {r.id: r for r in corpus_records}
    for ident, want in expected["gate"].items():
        ok &= gate_image_by_text_probability(by_id[ident], expected["gate_threshold"]) == want
    kept = [
        r for r in corpus_records
        if filter_tweet(r, rules) is FilterReason.KEEP
        and gate_image_by_text_probability(r, expected["gate_threshold"]) != "discard"
    ]
    examples, unlabelable = label_corpus(kept)
    ok &= unlabelable == expected["unlabelable"]
    for ex in examples:
        want = expected["labels"][ex.id]
        ok &= (ex.hate, ex.category, ex.binary_tie) == (want["hate"], want["category"], want["tie"])
    build_splits(examples, expected["val_size"], expected["test_size"], expected["split_seed"])
    for split in ("val", "test", "train"):
        got = sorted(ex.id for ex in examples if ex.split == split)
        ok &= got == expected["splits"][split]
    rows = keyword_hate_rates(examples, ("termx", "termy", "termz"))
    ok &= rows == [tuple(row) for row in expected["keyword_rows"]]

    w_not, w_hate = class_weights([112_845, 36_978])
    ok &= 2.025 <= w_hate <= 2.027 and 0.663 <= w_not <= 0.665
    report(
        8,
        f"60-record fixture pipeline exact; class weights w_hate={w_hate:.4f} w_not={w_not:.4f}",
        ok,
    )


def test_criterion_9_manifest_determinism(tmp_path):
    data = tmp_path / "data"
    rc = cli_main([
        "synth", "--out", str(data),
        "--set", "synth.n_train=96", "--set", "synth.n_val=40", "--set", "synth.n_test=40",
    ])
    assert rc == EXIT_OK
    args = ["--set", "train.epochs=1", "--set", "train.lr=0.002", "--set", "model.variant=FCM"]
    first = tmp_path / "run1"
    rc = cli_main(["train", "--data", str(data), "--out", str(first), *args])
    assert rc == EXIT_OK
    second = tmp_path / "run2"
    rc = cli_main([
        "train", "--data", str(data), "--out", str(second),
        "--manifest", str(first / "manifest.json"),
    ])
    assert rc == EXIT_OK
    h1 = json.loads((first / "manifest.json").read_text())["artifacts"]["checkpoint.mfuse"]
    h2 = json.loads((second / "manifest.json").read_text())["artifacts"]["checkpoint.mfuse"]
    report(9, f"manifest rerun reproduces checkpoint hash {h1[:12]}...", h1 == h2)


# fixture plumbing for criterion 8


@pytest.fixture
def corpus_records():
    from pathlib import Path

    from mmfuse.dataset import import_corpus

    records, diagnostics = import_corpus(Path(__file__).parent / "fixtures" / "corpus.jsonl")
    assert diagnostics == []
    return records


@pytest.fixture
def fixture_expected():
    from pathlib import Path

    path = Path(__file__).parent / "fixtures" / "expected.json"
    return json.loads(path.read_text())
