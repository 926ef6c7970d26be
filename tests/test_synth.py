import numpy as np
import pytest

from mmfuse import synth
from mmfuse.dataset import WorkerAnnotation, label_corpus
from mmfuse.synth import SynthSpec, generate


def bayes_accuracy_text_only(spec):
    """Best achievable accuracy from the text bit alone, before label noise."""
    base = {
        "unimodal_text": 1.0,
        "unimodal_image": 0.5,
        "crossmodal_xor": 0.5,
        # under the rebalanced cells: predict 0 at t=0 (always right, mass 1/3),
        # predict 1 at t=1 (right 3/4 of the time, mass 2/3) -> 5/6. With the
        # unweighted 25/75 cells this would be the textbook 3/4.
        "crossmodal_and": 5.0 / 6.0,
    }[spec.mode]
    mu = spec.multimodal_fraction
    mixed = mu * base + (1.0 - mu) * 1.0
    return (1.0 - spec.noise_rate) * mixed + spec.noise_rate * (1.0 - mixed)


class TestSpecValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(mode="nonsense")

    def test_noise_rate_range(self):
        with pytest.raises(ValueError):
            SynthSpec(noise_rate=0.5)
        SynthSpec(noise_rate=0.49)

    def test_multimodal_fraction_range(self):
        with pytest.raises(ValueError):
            SynthSpec(multimodal_fraction=0.0)
        SynthSpec(multimodal_fraction=1.0)

    @pytest.mark.parametrize("low, high", [(0, 9), (-1, 3), (6, 5), (1, 0)])
    def test_token_counts_rejected(self, low, high):
        with pytest.raises(ValueError, match="min_tokens"):
            SynthSpec(min_tokens=low, max_tokens=high)

    def test_single_token_texts(self):
        spec = SynthSpec(n_train=4, n_val=0, n_test=0, min_tokens=1, max_tokens=1)
        assert all(len(ex.tweet_tokens) == 1 for ex in generate(spec)["train"])


class TestGeneration:
    def test_split_sizes(self):
        spec = SynthSpec(n_train=50, n_val=20, n_test=30, seed=1)
        splits = generate(spec)
        assert {k: len(v) for k, v in splits.items()} == {"train": 50, "val": 20, "test": 30}

    def test_determinism(self):
        spec = SynthSpec(n_train=30, n_val=5, n_test=5, seed=9)
        a = generate(spec)["train"]
        b = generate(spec)["train"]
        for x, y in zip(a, b):
            assert np.array_equal(x.image, y.image)
            assert x.tweet_tokens == y.tweet_tokens
            assert x.label == y.label

    def test_splits_differ_from_each_other(self):
        spec = SynthSpec(n_train=20, n_val=20, n_test=20, seed=2)
        splits = generate(spec)
        assert not np.array_equal(splits["train"][0].image, splits["val"][0].image)

    @pytest.mark.parametrize("mode", synth.MODES)
    def test_class_balance(self, mode):
        spec = SynthSpec(mode=mode, n_train=4000, n_val=10, n_test=10, seed=3)
        labels = [ex.label for ex in generate(spec)["train"]]
        assert abs(np.mean(labels) - 0.5) <= 0.02

    def test_label_rules(self):
        for mode, rule in [
            ("unimodal_text", lambda t, v: t),
            ("unimodal_image", lambda t, v: v),
            ("crossmodal_and", lambda t, v: t & v),
            ("crossmodal_xor", lambda t, v: t ^ v),
        ]:
            spec = SynthSpec(mode=mode, n_train=500, n_val=5, n_test=5, seed=4)
            for ex in generate(spec)["train"]:
                assert ex.label == rule(ex.text_bit, ex.image_bit), mode

    def test_signal_token_matches_text_bit(self):
        spec = SynthSpec(n_train=300, n_val=5, n_test=5, seed=5)
        for ex in generate(spec)["train"]:
            assert (synth.SIGNAL_TOKEN in ex.tweet_tokens) == bool(ex.text_bit)

    def test_image_patch_matches_image_bit(self):
        spec = SynthSpec(n_train=200, n_val=5, n_test=5, seed=6, image_side=16)
        for ex in generate(spec)["train"]:
            has_patch = (ex.image == 1.0).all(axis=2).sum() >= 16
            assert has_patch == bool(ex.image_bit)

    def test_xor_marginal_independence(self):
        spec = SynthSpec(mode="crossmodal_xor", n_train=10_000, n_val=10, n_test=10, seed=7)
        examples = generate(spec)["train"]
        t = np.array([ex.text_bit for ex in examples], dtype=float)
        y = np.array([ex.label for ex in examples], dtype=float)
        r = np.corrcoef(t, y)[0, 1]
        assert abs(r) <= 0.05

    def test_noise_rate_flips_labels(self):
        clean = SynthSpec(n_train=2000, n_val=5, n_test=5, seed=8)
        noisy = SynthSpec(n_train=2000, n_val=5, n_test=5, seed=8, noise_rate=0.2)
        flips = np.mean(
            [
                ex.label != (ex.text_bit ^ ex.image_bit)
                for ex in generate(noisy)["train"]
            ]
        )
        assert flips == pytest.approx(0.2, abs=0.03)
        assert all(ex.label == (ex.text_bit ^ ex.image_bit) for ex in generate(clean)["train"])


class TestBayesAccuracy:
    def test_closed_forms(self):
        assert bayes_accuracy_text_only(SynthSpec(mode="unimodal_text")) == 1.0
        assert bayes_accuracy_text_only(SynthSpec(mode="crossmodal_xor")) == 0.5
        assert bayes_accuracy_text_only(SynthSpec(mode="crossmodal_and")) == pytest.approx(5 / 6)
        assert bayes_accuracy_text_only(SynthSpec(mode="unimodal_image")) == 0.5

    def test_noise_shrinks_towards_half(self):
        spec = SynthSpec(mode="unimodal_text", noise_rate=0.1)
        assert bayes_accuracy_text_only(spec) == pytest.approx(0.9, abs=1e-12)

    def test_multimodal_fraction_mixes(self):
        spec = SynthSpec(mode="crossmodal_xor", multimodal_fraction=0.4)
        assert bayes_accuracy_text_only(spec) == pytest.approx(0.4 * 0.5 + 0.6 * 1.0, abs=1e-12)

    def test_and_mode_empirical_text_only_accuracy(self):
        spec = SynthSpec(mode="crossmodal_and", n_train=8000, n_val=5, n_test=5, seed=10)
        examples = generate(spec)["train"]
        # Bayes text-only rule: predict 1 iff the text bit is set
        correct = np.mean([(ex.text_bit == ex.label) for ex in examples])
        assert correct == pytest.approx(5 / 6, abs=0.02)

    def test_and_mode_unweighted_cells_give_three_quarters(self):
        # with equal (t, v) cells the same rule would score 3/4
        cells = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
        correct = sum(1 for t, _, label in cells if (t == label)) / len(cells)
        assert correct == 0.75


class TestInterop:
    def test_vocabulary_covers_tokens(self):
        vocab = synth.build_vocabulary()
        assert synth.SIGNAL_TOKEN in vocab
        for tok in synth.DISTRACTOR_TOKENS:
            assert tok in vocab

    def test_to_model_data_shapes(self):
        spec = SynthSpec(n_train=12, n_val=5, n_test=5, seed=11, image_side=8)
        examples = generate(spec)["train"]
        data = synth.to_model_data(examples, synth.build_vocabulary())
        assert data.images.shape == (12, 8, 8, 3)
        assert len(data.tweet[0]) == 12
        assert set(np.unique(data.labels)) <= {0, 1}

    def test_to_records_round_trips_labels(self, tmp_path):
        spec = SynthSpec(n_train=20, n_val=5, n_test=5, seed=12)
        examples = generate(spec)["train"]
        records = synth.to_records(examples, "train", image_dir=str(tmp_path))
        labeled, unlabelable = label_corpus(records)
        assert unlabelable == []
        for ex, lab in zip(examples, labeled):
            assert bool(ex.label) == lab.hate
        assert [r.image_ref for r in records] == [f"train.npy#{i}" for i in range(20)]
        images = np.load(tmp_path / "train.npy")
        assert np.array_equal(images, np.stack([ex.image for ex in examples]))

    def test_split_array_is_np_save_of_the_stack(self, tmp_path):
        examples = generate(SynthSpec(n_train=7, n_val=1, n_test=1, seed=13))["train"]
        synth.to_records(examples, "train", image_dir=str(tmp_path))
        np.save(tmp_path / "stacked.npy", np.stack([ex.image for ex in examples]))
        assert (tmp_path / "train.npy").read_bytes() == (tmp_path / "stacked.npy").read_bytes()

    def test_records_get_their_own_vote_lists(self):
        examples = generate(SynthSpec(n_train=6, n_val=1, n_test=1, seed=15))["train"]
        records = synth.to_records(examples, "train")
        assert len({id(r.annotations) for r in records}) == len(records)
        for ex, record in zip(examples, records):
            category = "OtherHate" if ex.label else "NotHate"
            assert record.annotations == [
                WorkerAnnotation(f"synth-{w}", category, 10.0) for w in range(3)
            ]

    def test_no_images_without_image_dir(self):
        examples = generate(SynthSpec(n_train=3, n_val=1, n_test=1, seed=14))["train"]
        assert all(r.image_ref is None for r in synth.to_records(examples, "train"))
