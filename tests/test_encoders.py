import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_model
from mmfuse.autodiff import Tensor, check_gradients, ops
from mmfuse.encoders import (
    TextEncoder,
    VisionBackbone,
    Vocabulary,
    encode_texts,
    pad_ids,
    preprocess_tweet_text,
)
from mmfuse.encoders.text import HASHTAG, NUMBER, PAD, SPECIALS, UNK, URL, USER
from mmfuse.fusion import ModelSpec


class TestPreprocessing:
    def test_symbol_substitution(self):
        assert preprocess_tweet_text("@john you rock #cool") == [USER, "you", "rock", HASHTAG, "cool"]

    def test_empty_string(self):
        assert preprocess_tweet_text("") == []

    def test_url_and_alphanumeric(self):
        assert preprocess_tweet_text("Visit http://x.co 2day") == ["visit", URL, "2day"]

    def test_numbers_collapse(self):
        assert preprocess_tweet_text("I won 1,000 times") == ["i", "won", NUMBER, "times"]

    def test_punctuation_stripped_and_lowercased(self):
        assert preprocess_tweet_text("Hello, World!") == ["hello", "world"]

    def test_bare_symbols_dropped(self):
        assert preprocess_tweet_text("wow !! ...") == ["wow"]


# Pieces that hit every branch of preprocess_tweet_text, and the separators str.split() cuts at.
PIECES = [
    "http://x.co", "(http://x.co)", "HTTPS://Example.com/Path", "www.site.org", "www.", "http://",
    "@", "#", "@john", "#Cool", "@@", "##tag", "@john,", "#cool!", "email@x",
    "1,000", "-3.5", "+7", "1.2.3", "12,", "1,,2", "(42)", "3rd",
    "!!", "...", "'\"", "()", "[]", ";:",
    "<pad>", "<PAD>", "<unk>", "<url>",
    "Hello", "hello,", "WORLD!", "café", "Naïve", "ÉCOLE", "ß",
]
SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", "\x0b", "\x1c", "\u00a0", "\u2003", "\u2028", "\u3000"]

texts = st.one_of(
    st.builds(
        lambda lead, parts, trail: lead + "".join(p + s for p, s in parts) + trail,
        st.sampled_from(["", " ", "\u3000"]),
        st.lists(st.tuples(st.sampled_from(PIECES), st.sampled_from(SEPARATORS)), max_size=8),
        st.sampled_from(["", "\n", "\u00a0"]),
    ),
    st.text(max_size=20),
)


class TestEncodeTexts:
    @given(st.lists(texts, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_equals_encoding_each_text(self, batch):
        vocab = Vocabulary(["hello", "world", "cool", "café", "tag", "john"])
        assert encode_texts(vocab, batch) == [vocab.encode(preprocess_tweet_text(t)) for t in batch]

    def test_texts_get_their_own_lists(self):
        encoded = encode_texts(Vocabulary(["hello"]), ["hello", "hello"])
        encoded[0].append(99)
        assert encoded == [[6, 99], [6]]


class TestVocabulary:
    def test_specials_occupy_first_indices(self):
        vocab = Vocabulary()
        assert [vocab.lookup(tok) for tok in SPECIALS] == list(range(6))
        assert vocab.lookup(PAD) == 0

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary(["alpha"])
        assert vocab.lookup("never-seen") == vocab.lookup(UNK)

    def test_add_is_idempotent(self):
        vocab = Vocabulary()
        first = vocab.add("word")
        assert vocab.add("word") == first
        assert len(vocab) == 7

    def test_save_load_round_trip(self, tmp_path):
        vocab = Vocabulary(["hello", "world", "tag"])
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert len(loaded) == len(vocab)
        for tok in ("hello", "world", "tag"):
            assert loaded.lookup(tok) == vocab.lookup(tok)

    def test_load_rejects_missing_specials(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("plain\ntokens\n")
        with pytest.raises(ValueError):
            Vocabulary.load(path)


class TestTextEncoder:
    def test_reference_default_dims(self):
        spec = ModelSpec.reference()
        assert spec.hidden_dim == 150
        assert spec.embedding_dim == 100

    def test_empty_sequence_encodes_to_zero(self, rng):
        enc = TextEncoder(10, 4, 6, rng)
        out = enc.encode(pad_ids([[]]))
        assert out.shape == (1, 6)
        assert np.array_equal(out.data, np.zeros((1, 6)))

    def test_zero_weights_encode_to_zero(self, rng):
        enc = TextEncoder(10, 4, 6, rng)
        for tensor in enc.lstm.parameters().values():
            tensor.data = np.zeros_like(tensor.data)
        out = enc.encode(pad_ids([[1, 2, 3]]))
        assert np.allclose(out.data, 0.0, atol=1e-15)

    def test_zero_head_gives_zero_logits(self):
        model = build_model("LSTM", vocab_size=10, embedding_dim=4)
        model.head.fc.final.weight.data[:] = 0.0
        model.head.fc.final.bias.data[:] = 0.0
        logits = model.forward(None, pad_ids([[1, 2], [3]]), None)
        assert logits.shape == (2, 2)
        assert np.array_equal(logits.data, np.zeros((2, 2)))

    def test_variable_lengths_match_individual_encodings(self, rng):
        enc = TextEncoder(12, 5, 7, rng)
        batch = enc.encode(pad_ids([[1, 2, 3], [4], [5, 6]])).data
        for i, seq in enumerate([[1, 2, 3], [4], [5, 6]]):
            single = enc.encode(pad_ids([seq])).data
            assert np.allclose(batch[i], single[0], atol=1e-12)

    def test_pad_ids_right_pads(self):
        ids, lengths = pad_ids([[7, 8], [9]])
        assert np.array_equal(ids, [[7, 8], [9, 0]])
        assert np.array_equal(lengths, [2, 1])

    def test_classifier_gradient(self, rng):
        model = build_model("LSTM", vocab_size=8, embedding_dim=3, hidden_dim=4)
        probe = Tensor(rng.standard_normal((2, 2)))

        def fn(*params):
            logits = model.forward(None, pad_ids([[1, 2], [3, 4, 5]]), None)
            return ops.sum_(ops.mul(ops.tanh(logits), probe))

        inputs = list(model.parameters().values())
        assert check_gradients(fn, inputs) <= 1e-4


class TestVisionBackbone:
    def test_desk_geometry(self):
        spec = dataclasses.replace(
            ModelSpec.reference(), image_side=56, backbone_channels=(16, 32, 48, 64)
        )
        assert spec.map_side == 4
        assert spec.visual_dim == 64

    def test_reference_shaped_geometry(self):
        # the reference 8x8x2048 map / 2048-d vector
        spec = ModelSpec.reference()
        assert spec.backbone_channels == (128, 256, 512, 1024, 2048)
        assert spec.map_side == 8
        assert spec.visual_dim == 2048

    def test_zero_input_zero_bias_gives_zero(self, rng):
        backbone = VisionBackbone(8, (4, 6), rng)
        pooled, fmap = backbone(Tensor(np.zeros((2, 8, 8, 3))), training=False)
        assert np.array_equal(fmap.data, np.zeros_like(fmap.data))
        assert np.array_equal(pooled.data, np.zeros((2, 6)))

    def test_pooled_equals_map_mean(self, rng):
        backbone = VisionBackbone(8, (4, 6), rng)
        pooled, fmap = backbone(Tensor(rng.random((3, 8, 8, 3))), training=True)
        assert np.allclose(pooled.data, fmap.data.mean(axis=(1, 2)), atol=1e-12)

    def test_map_shape_matches_config(self, rng):
        spec = dataclasses.replace(ModelSpec.reference(), image_side=16, backbone_channels=(4, 8))
        backbone = VisionBackbone(spec.image_side, spec.backbone_channels, rng)
        _, fmap = backbone(Tensor(rng.random((2, 16, 16, 3))), training=True)
        assert fmap.shape == (2, spec.map_side, spec.map_side, spec.visual_dim)

    def test_wrong_input_side_rejected(self, rng):
        backbone = VisionBackbone(16, (4,), rng)
        with pytest.raises(ValueError):
            backbone.feature_map(Tensor(rng.random((1, 8, 8, 3))), training=False)
