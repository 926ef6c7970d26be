import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfuse import synth
from mmfuse.config import KEYS
from mmfuse.dataset import WorkerAnnotation, label_corpus
from mmfuse.synth import SynthSpec, generate
from mmfuse.training import ModelData


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


CELLS = [(0, 0), (0, 1), (1, 0), (1, 1)]
AND_SLOTS = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 1), (1, 1)]  # label 1 is half the mass
RULES = {
    "unimodal_text": lambda t, v: t,
    "unimodal_image": lambda t, v: v,
    "crossmodal_and": lambda t, v: t & v,
    "crossmodal_xor": lambda t, v: t ^ v,
}


def texts_of(text):
    """The token lists of an (indices, lengths) pair."""
    tokens, lengths = text
    return [[synth.TOKENS[i] for i in row[:n]] for row, n in zip(tokens.tolist(), lengths.tolist())]


def per_row_reference(spec, split_index, n):
    """Split ``split_index`` drawn from the same stream, then built row by row.

    Each random quantity is taken whole from the split's rng, in the
    generator's order; the bits, labels, patches and texts are then made by
    plain per-row loops. Returns (images, tweet texts, image texts, labels,
    text bits, image bits), the texts as token lists.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(3)[split_index])
    side = spec.image_side
    images = np.clip(0.1 * rng.standard_normal((n, side, side, 3)), 0.0, 1.0)
    follows_mode = rng.random(n) < spec.multimodal_fraction
    if spec.mode == "crossmodal_and":
        cells = rng.integers(0, [6 if f else 4 for f in follows_mode], n)
    else:
        cells = rng.integers(0, 4, n)
    flips = rng.random(n) < spec.noise_rate
    bits, labels = [], []
    for follows, cell, flip in zip(follows_mode, cells, flips):
        and_row = follows and spec.mode == "crossmodal_and"
        t, v = (AND_SLOTS if and_row else CELLS)[cell]
        label = RULES[spec.mode if follows else "unimodal_text"](t, v)
        bits.append((t, v))
        labels.append(label ^ int(flip))
    patch = max(1, side // 4)
    corners = rng.integers(0, side - patch + 1, (n, 2))
    for image, (_, v), (y, x) in zip(images, bits, corners):
        if v:
            image[y : y + patch, x : x + patch, :] = 1.0

    def draw_texts(text_bits):
        lengths = rng.integers(spec.min_tokens, spec.max_tokens + 1, n)
        tokens = rng.integers(2, len(synth.TOKENS), (n, spec.max_tokens))
        signal_at = rng.integers(0, lengths)
        texts = []
        for bit, row, length, at in zip(text_bits, tokens, lengths, signal_at):
            words = [synth.TOKENS[i] for i in row[:length]]
            if bit:
                words[at] = synth.SIGNAL_TOKEN
            texts.append(words)
        return texts

    tweets = draw_texts([t for t, _ in bits])
    imgtexts = draw_texts(rng.integers(0, 2, n))
    text_bits = [t for t, _ in bits]
    image_bits = [v for _, v in bits]
    return images, tweets, imgtexts, labels, text_bits, image_bits


PIXEL_SPECS = [
    SynthSpec(n_train=9, n_val=3, n_test=0, seed=13),
    SynthSpec(mode="crossmodal_and", n_train=12, n_val=2, n_test=5, image_side=5, seed=17,
              noise_rate=0.3, multimodal_fraction=0.5, min_tokens=1, max_tokens=3),
    SynthSpec(mode="unimodal_image", n_train=6, n_val=1, n_test=1, image_side=32, seed=18),
]


class TestSpecValidation:
    def test_fields_are_the_synth_keys_and_the_text_lengths(self):
        keys = {name.removeprefix("synth.") for name in KEYS if name.startswith("synth.")}
        fields = {f.name for f in dataclasses.fields(SynthSpec)}
        assert fields == keys | {"min_tokens", "max_tokens"}

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
        split = generate(spec)["train"]
        assert split.tweet[1].tolist() == [1] * 4
        assert split.tweet[0].shape == (4, 1)


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
        assert texts_of(a.tweet) == texts_of(b.tweet)
        assert np.array_equal(a.labels, b.labels)

    def test_splits_differ_from_each_other(self):
        spec = SynthSpec(n_train=20, n_val=20, n_test=20, seed=2)
        splits = generate(spec)
        assert not np.array_equal(splits["train"].images[0], splits["val"].images[0])

    @pytest.mark.parametrize("mode", synth.MODES)
    def test_class_balance(self, mode):
        spec = SynthSpec(mode=mode, n_train=4000, n_val=10, n_test=10, seed=3)
        labels = generate(spec)["train"].labels
        assert abs(np.mean(labels) - 0.5) <= 0.02

    def test_label_rules(self):
        for mode, rule in RULES.items():
            spec = SynthSpec(mode=mode, n_train=500, n_val=5, n_test=5, seed=4)
            split = generate(spec)["train"]
            assert np.array_equal(split.labels, rule(split.text_bits, split.image_bits)), mode

    def test_signal_token_matches_text_bit(self):
        spec = SynthSpec(n_train=300, n_val=5, n_test=5, seed=5)
        split = generate(spec)["train"]
        for tokens, bit in zip(texts_of(split.tweet), split.text_bits):
            assert (synth.SIGNAL_TOKEN in tokens) == bit

    def test_image_patch_matches_image_bit(self):
        spec = SynthSpec(n_train=200, n_val=5, n_test=5, seed=6, image_side=16)
        split = generate(spec)["train"]
        for image, bit in zip(split.images, split.image_bits):
            has_patch = (image == 1.0).all(axis=2).sum() >= 16
            assert has_patch == bit

    def test_xor_marginal_independence(self):
        spec = SynthSpec(mode="crossmodal_xor", n_train=10_000, n_val=10, n_test=10, seed=7)
        split = generate(spec)["train"]
        r = np.corrcoef(split.text_bits.astype(float), split.labels.astype(float))[0, 1]
        assert abs(r) <= 0.05

    def test_noise_rate_flips_labels(self):
        clean = SynthSpec(n_train=2000, n_val=5, n_test=5, seed=8)
        noisy = SynthSpec(n_train=2000, n_val=5, n_test=5, seed=8, noise_rate=0.2)
        split = generate(noisy)["train"]
        flips = np.mean(split.labels != (split.text_bits ^ split.image_bits))
        assert flips == pytest.approx(0.2, abs=0.03)
        split = generate(clean)["train"]
        assert np.array_equal(split.labels, split.text_bits ^ split.image_bits)


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
        split = generate(spec)["train"]
        # Bayes text-only rule: predict 1 iff the text bit is set
        correct = np.mean(split.text_bits == split.labels)
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
        assert [lab.hate for lab in labeled] == split.labels.astype(bool).tolist()
        assert [r.image_ref for r in records] == [f"train.npy#{i}" for i in range(20)]
        assert np.array_equal(np.load(tmp_path / "train.npy"), split.images)

    @pytest.mark.parametrize(
        "spec", PIXEL_SPECS, ids=lambda spec: f"{spec.mode}-{spec.image_side}px"
    )
    def test_split_and_file_are_the_per_row_loops(self, spec, tmp_path):
        for index, (name, split) in enumerate(generate(spec).items()):
            images, tweets, imgtexts, labels, text_bits, image_bits = per_row_reference(
                spec, index, len(split)
            )
            assert split.images.flags.c_contiguous
            assert split.images.shape == images.shape
            assert split.images.tobytes() == images.tobytes()
            assert texts_of(split.tweet) == tweets
            assert texts_of(split.imgtext) == imgtexts
            assert split.labels.tolist() == labels
            assert split.text_bits.tolist() == text_bits
            assert split.image_bits.tolist() == image_bits
            if len(split):
                synth.to_records(split, name, image_dir=str(tmp_path))
                np.save(tmp_path / "reference.npy", images)
                assert (tmp_path / f"{name}.npy").read_bytes() == (
                    tmp_path / "reference.npy"
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
        for label, record in zip(split.labels, records):
            category = "OtherHate" if label else "NotHate"
            assert record.annotations == [
                WorkerAnnotation(f"synth-{w}", category, 10.0) for w in range(3)
            ]

    def test_no_images_without_image_dir(self):
        split = generate(SynthSpec(n_train=3, n_val=1, n_test=1, seed=14))["train"]
        assert all(r.image_ref is None for r in synth.to_records(split, "train"))


@st.composite
def specs(draw):
    min_tokens = draw(st.integers(1, 6))
    return SynthSpec(
        mode=draw(st.sampled_from(synth.MODES)),
        n_train=draw(st.integers(0, 12)),
        n_val=draw(st.integers(0, 5)),
        n_test=draw(st.integers(0, 5)),
        noise_rate=draw(st.sampled_from([0.0, 0.0, 0.1, 0.49])),
        multimodal_fraction=draw(st.sampled_from([1.0, 1.0, 0.6, 0.05])),
        image_side=draw(st.integers(4, 33)),
        min_tokens=min_tokens,
        max_tokens=draw(st.integers(min_tokens, min_tokens + 4)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def split_bytes(split):
    """Every array of ``split`` with its dtype and shape, as bytes."""
    arrays = [split.images, *split.tweet, *split.imgtext, split.labels]
    arrays += [split.text_bits, split.image_bits]
    return b"".join(f"{a.dtype}{a.shape}".encode() + a.tobytes() for a in arrays)


class TestProperties:
    @given(spec=specs())
    @settings(max_examples=60, deadline=None)
    def test_generated_splits(self, spec):
        splits = generate(spec)
        side, vocab = spec.image_side, synth.build_vocabulary()
        patch = max(1, side // 4)
        for name, split in splits.items():
            n = getattr(spec, f"n_{name}")
            assert len(split) == n
            assert split.images.shape == (n, side, side, 3)
            assert split.images.dtype == np.float64 and split.images.flags.c_contiguous
            assert ((split.images >= 0.0) & (split.images <= 1.0)).all()
            assert split.labels.dtype == np.int64 and split.labels.shape == (n,)
            assert split.text_bits.dtype == split.image_bits.dtype == np.bool_
            # noise never reaches 1.0, so the all-ones pixels are the patch
            ones = (split.images == 1.0).all(axis=3)
            for mask, bit in zip(ones, split.image_bits):
                ys, xs = np.nonzero(mask)
                if bit:
                    assert len(ys) == patch * patch
                    assert np.ptp(ys) == np.ptp(xs) == patch - 1
                else:
                    assert len(ys) == 0
            for text, bits in ((split.tweet, split.text_bits), (split.imgtext, None)):
                tokens, lengths = text
                assert tokens.shape == (n, spec.max_tokens) and lengths.shape == (n,)
                assert ((lengths >= spec.min_tokens) & (lengths <= spec.max_tokens)).all()
                inside = np.arange(spec.max_tokens) < lengths[:, None]
                assert (tokens[~inside] == 0).all() and (tokens[inside] > 0).all()
                signals = ((tokens == 1) & inside).sum(axis=1)
                assert (signals <= 1).all()
                if bits is not None:
                    assert np.array_equal(signals == 1, bits)
            if spec.noise_rate == 0.0:
                rule = RULES[spec.mode](split.text_bits, split.image_bits)
                follows = split.labels == rule
                if spec.multimodal_fraction == 1.0:
                    assert follows.all()
                else:  # the other rows are unimodal_text
                    assert (follows | (split.labels == split.text_bits)).all()
            data = synth.to_model_data(split, vocab)
            expected = ModelData.from_id_lists(
                images=split.images,
                tweet_ids=[vocab.encode(t) for t in texts_of(split.tweet)],
                imgtext_ids=[vocab.encode(t) for t in texts_of(split.imgtext)],
                labels=split.labels,
            )
            assert data.images is split.images
            for got, want in ((data.tweet, expected.tweet), (data.imgtext, expected.imgtext)):
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert np.array_equal(a, b)
            assert np.array_equal(data.labels, expected.labels)
            assert np.array_equal(data.ids, expected.ids)
            records = synth.to_records(split, name)
            assert [r.tweet_text for r in records] == [" ".join(t) for t in texts_of(split.tweet)]
            assert [r.image_text for r in records] == [
                " ".join(t) for t in texts_of(split.imgtext)
            ]
        again = generate(spec)
        assert all(split_bytes(again[k]) == split_bytes(v) for k, v in splits.items())
        bigger = generate(SynthSpec(**{**vars(spec), "n_train": spec.n_train + 3}))
        for name in ("val", "test"):
            assert split_bytes(bigger[name]) == split_bytes(splits[name])

    @pytest.mark.parametrize(
        "spec",
        [
            SynthSpec(n_train=768, n_val=384, n_test=512, image_side=32,
                      min_tokens=1, max_tokens=2, seed=3),
            SynthSpec(mode="unimodal_text", n_train=1024, n_val=256, n_test=1536, seed=3),
        ],
        ids=["32px", "16px"],
    )
    def test_generate_holds_no_second_image_array(self, spec):
        """The pixel noise is drawn into the split's array: no full-size temporary."""
        tracemalloc.start()
        try:
            splits = generate(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * sum(split.images.nbytes for split in splits.values())


class TestStream:
    def test_pinned_stream(self):
        """A fixed seed gives these bytes; an accidental change to the draws fails here."""
        spec = SynthSpec(mode="crossmodal_and", n_train=7, n_val=3, n_test=0, noise_rate=0.2,
                         multimodal_fraction=0.5, image_side=5, min_tokens=1, max_tokens=4,
                         seed=2024)
        digest = hashlib.sha256()
        for split in generate(spec).values():
            digest.update(split_bytes(split))
        assert digest.hexdigest() == (
            "27c0fa9c910c0b4bf83dde8beca0c2a6111d201b84a81434d82a2d6274cd81cb"
        )

    @pytest.mark.parametrize("seed", [0, 7])
    def test_no_split_draws_from_a_plain_seed_stream(self, seed):
        """No split draws from ``default_rng(seed)``, a model's init stream, or ``[seed, i]``.

        ``default_rng(seed)`` and ``default_rng([seed, 0])`` are one stream.
        """
        spec = SynthSpec(n_train=2, n_val=2, n_test=2, image_side=4, seed=seed)
        for name, split in generate(spec).items():
            for entropy in (seed, *([seed, i] for i in range(3))):
                noise = np.random.default_rng(entropy).standard_normal(split.images.shape)
                assert not np.array_equal(split.images, np.clip(0.1 * noise, 0.0, 1.0)), name
