import tracemalloc

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


def per_example_images(spec, split_index, n):
    """The images of split ``split_index`` as the per-example generator drew them.

    A copy of its loop: each image is a fresh (S, S, 3) array and the split is
    their ``np.stack``. The text draws are kept so the RNG stream lines up.
    """
    rng = np.random.default_rng([spec.seed, split_index])
    side = spec.image_side
    images = []
    for _ in range(n):
        mode = spec.mode
        if spec.multimodal_fraction < 1.0 and rng.random() >= spec.multimodal_fraction:
            mode = "unimodal_text"
        t, v, _ = synth._sample_bits(rng, mode)
        rng.random()  # the label-noise draw
        image = np.clip(rng.normal(0.0, 0.1, (side, side, 3)), 0.0, 1.0)
        if v:
            patch = max(1, side // 4)
            y = int(rng.integers(0, side - patch + 1))
            x = int(rng.integers(0, side - patch + 1))
            image[y : y + patch, x : x + patch, :] = 1.0
        synth._render_text(rng, t, spec)
        synth._render_text(rng, int(rng.integers(0, 2)), spec)
        images.append(image)
    return np.stack(images) if images else np.zeros((0, side, side, 3))


PIXEL_SPECS = [
    SynthSpec(n_train=9, n_val=3, n_test=0, seed=13),
    SynthSpec(mode="crossmodal_and", n_train=12, n_val=2, n_test=5, image_side=5, seed=17,
              noise_rate=0.3, multimodal_fraction=0.5, min_tokens=1, max_tokens=3),
    SynthSpec(mode="unimodal_image", n_train=6, n_val=1, n_test=1, image_side=32, seed=18),
]


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
        assert all(len(ex.tweet_tokens) == 1 for ex in generate(spec)["train"].examples)


class TestGeneration:
    def test_split_sizes(self):
        spec = SynthSpec(n_train=50, n_val=20, n_test=30, seed=1)
        splits = generate(spec)
        assert {k: len(v) for k, v in splits.items()} == {"train": 50, "val": 20, "test": 30}

    def test_determinism(self):
        spec = SynthSpec(n_train=30, n_val=5, n_test=5, seed=9)
        a = generate(spec)["train"]
        b = generate(spec)["train"]
        assert a.images.tobytes() == b.images.tobytes()
        for x, y in zip(a.examples, b.examples):
            assert x.tweet_tokens == y.tweet_tokens
            assert x.label == y.label

    def test_splits_differ_from_each_other(self):
        spec = SynthSpec(n_train=20, n_val=20, n_test=20, seed=2)
        splits = generate(spec)
        assert not np.array_equal(splits["train"].images[0], splits["val"].images[0])

    @pytest.mark.parametrize("mode", synth.MODES)
    def test_class_balance(self, mode):
        spec = SynthSpec(mode=mode, n_train=4000, n_val=10, n_test=10, seed=3)
        labels = [ex.label for ex in generate(spec)["train"].examples]
        assert abs(np.mean(labels) - 0.5) <= 0.02

    def test_label_rules(self):
        for mode, rule in [
            ("unimodal_text", lambda t, v: t),
            ("unimodal_image", lambda t, v: v),
            ("crossmodal_and", lambda t, v: t & v),
            ("crossmodal_xor", lambda t, v: t ^ v),
        ]:
            spec = SynthSpec(mode=mode, n_train=500, n_val=5, n_test=5, seed=4)
            for ex in generate(spec)["train"].examples:
                assert ex.label == rule(ex.text_bit, ex.image_bit), mode

    def test_signal_token_matches_text_bit(self):
        spec = SynthSpec(n_train=300, n_val=5, n_test=5, seed=5)
        for ex in generate(spec)["train"].examples:
            assert (synth.SIGNAL_TOKEN in ex.tweet_tokens) == bool(ex.text_bit)

    def test_image_patch_matches_image_bit(self):
        spec = SynthSpec(n_train=200, n_val=5, n_test=5, seed=6, image_side=16)
        split = generate(spec)["train"]
        for image, ex in zip(split.images, split.examples):
            has_patch = (image == 1.0).all(axis=2).sum() >= 16
            assert has_patch == bool(ex.image_bit)

    def test_xor_marginal_independence(self):
        spec = SynthSpec(mode="crossmodal_xor", n_train=10_000, n_val=10, n_test=10, seed=7)
        examples = generate(spec)["train"].examples
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
                for ex in generate(noisy)["train"].examples
            ]
        )
        assert flips == pytest.approx(0.2, abs=0.03)
        clean_examples = generate(clean)["train"].examples
        assert all(ex.label == (ex.text_bit ^ ex.image_bit) for ex in clean_examples)


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
        examples = generate(spec)["train"].examples
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
        data = synth.to_model_data(generate(spec)["train"], synth.build_vocabulary())
        assert data.images.shape == (12, 8, 8, 3)
        assert len(data.tweet[0]) == 12
        assert set(np.unique(data.labels)) <= {0, 1}

    def test_to_records_round_trips_labels(self, tmp_path):
        spec = SynthSpec(n_train=20, n_val=5, n_test=5, seed=12)
        split = generate(spec)["train"]
        records = synth.to_records(split, "train", image_dir=str(tmp_path))
        labeled, unlabelable = label_corpus(records)
        assert unlabelable == []
        for ex, lab in zip(split.examples, labeled):
            assert bool(ex.label) == lab.hate
        assert [r.image_ref for r in records] == [f"train.npy#{i}" for i in range(20)]
        assert np.array_equal(np.load(tmp_path / "train.npy"), split.images)

    @pytest.mark.parametrize(
        "spec", PIXEL_SPECS, ids=lambda spec: f"{spec.mode}-{spec.image_side}px"
    )
    def test_pixels_and_file_are_the_per_example_loops(self, spec, tmp_path):
        for index, (name, split) in enumerate(generate(spec).items()):
            expected = per_example_images(spec, index, len(split))
            assert split.images.flags.c_contiguous
            assert split.images.shape == expected.shape
            assert split.images.tobytes() == expected.tobytes()
            if len(split):
                synth.to_records(split, name, image_dir=str(tmp_path))
                np.save(tmp_path / "stacked.npy", expected)
                assert (tmp_path / f"{name}.npy").read_bytes() == (
                    tmp_path / "stacked.npy"
                ).read_bytes()

    def test_split_images_are_held_once(self):
        spec = SynthSpec(n_train=400, n_val=0, n_test=0, image_side=32, seed=16)
        vocab = synth.build_vocabulary()
        tracemalloc.start()
        try:
            split = generate(spec)["train"]
            data = synth.to_model_data(split, vocab)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * split.images.nbytes
        assert np.shares_memory(data.images, split.images)

    def test_records_get_their_own_vote_lists(self):
        split = generate(SynthSpec(n_train=6, n_val=1, n_test=1, seed=15))["train"]
        records = synth.to_records(split, "train")
        assert len({id(r.annotations) for r in records}) == len(records)
        for ex, record in zip(split.examples, records):
            category = "OtherHate" if ex.label else "NotHate"
            assert record.annotations == [
                WorkerAnnotation(f"synth-{w}", category, 10.0) for w in range(3)
            ]

    def test_no_images_without_image_dir(self):
        split = generate(SynthSpec(n_train=3, n_val=1, n_test=1, seed=14))["train"]
        assert all(r.image_ref is None for r in synth.to_records(split, "train"))
