import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_model
from mmfuse import synth, training
from mmfuse.autodiff import Tensor, ops, save_arrays
from mmfuse.autodiff.tensor import _toposort
from mmfuse.config import KEYS
from mmfuse.encoders import TextEncoder, pad_ids, preprocess_tweet_text
from mmfuse.evaluation import auc_roc
from mmfuse.training import (
    ModelData,
    TrainConfig,
    TrainHistory,
    class_weights,
    score_dataset,
    train,
)


def text_only_model(seed=0, vocab_size=None, hidden=16):
    vocab_size = vocab_size or len(synth.build_vocabulary())
    return build_model("LSTM", vocab_size=vocab_size, seed=seed, embedding_dim=8, hidden_dim=hidden)


def small_fcm(mask=None, share_text_encoder=True):
    return build_model(
        "FCM", mask, len(synth.build_vocabulary()), dropout_rate=0.1,
        share_text_encoder=share_text_encoder,
    )


def synth_data(mode="unimodal_text", n=200, seed=0, **kw):
    spec = synth.SynthSpec(mode=mode, n_train=n, n_val=max(20, n // 5), n_test=20, seed=seed, **kw)
    splits = synth.generate(spec)
    vocab = synth.build_vocabulary()
    return (
        synth.to_model_data(splits["train"], vocab),
        synth.to_model_data(splits["val"], vocab),
    )


class TestClassWeights:
    def test_published_counts(self):
        w_not, w_hate = class_weights([112_845, 36_978])
        assert 2.025 <= w_hate <= 2.027
        assert 0.663 <= w_not <= 0.665

    def test_equal_counts_give_unit_weights(self):
        assert np.allclose(class_weights([50, 50]), [1.0, 1.0])

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            class_weights([10, 0])

    def test_balanced_batch_weighted_equals_unweighted(self, rng):
        logits = Tensor(rng.standard_normal((8, 2)))
        labels = np.array([0, 1] * 4)
        weights = class_weights([4, 4])
        weighted = ops.softmax_cross_entropy(Tensor(logits.data), labels, weights).item()
        plain = ops.softmax_cross_entropy(Tensor(logits.data), labels).item()
        assert weighted == pytest.approx(plain, abs=1e-12)


class TestTrainConfig:
    def test_fields_are_the_train_keys_training_reads(self):
        keys = [name.removeprefix("train.") for name in KEYS if name.startswith("train.")]
        keys = [{"lr": "learning_rate"}.get(k, k) for k in keys if k not in ("mask", "vocab_size")]
        assert [f.name for f in dataclasses.fields(TrainConfig)] == keys

    def test_defaults_match_reference_settings(self):
        config = TrainConfig()
        assert config.learning_rate == pytest.approx(1e-4)
        assert config.class_weight_mode == "balanced"

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(class_weight_mode="other")


def split_of(tweets, imgtexts):
    n = len(tweets)
    labels = np.zeros(n, dtype=np.int64)
    return ModelData.from_id_lists(np.zeros((n, 0, 0, 3)), tweets, imgtexts, labels)


TEXTS = st.lists(st.lists(st.integers(0, 30), max_size=6), min_size=1, max_size=8)


class TestModelData:
    @settings(max_examples=60, deadline=None)
    @given(tweets=TEXTS, data=st.data())
    def test_subset_is_pad_ids_of_the_selection(self, tweets, data):
        n = len(tweets)
        imgtexts = data.draw(st.lists(st.lists(st.integers(0, 30), max_size=2), min_size=n, max_size=n))
        indices = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=np.int64)
        batch = split_of(tweets, imgtexts).subset(indices)
        for (ids, lengths), lists in [(batch.tweet, tweets), (batch.imgtext, imgtexts)]:
            want_ids, want_lengths = pad_ids([lists[i] for i in indices])
            assert ids.dtype == want_ids.dtype and lengths.dtype == want_lengths.dtype
            assert np.array_equal(ids, want_ids)
            assert np.array_equal(lengths, want_lengths)

    @pytest.mark.parametrize("start,stop", [(0, 5), (2, 4), (3, 3)])
    def test_slice_subset_is_a_view_equal_to_the_index_subset(self, start, stop, rng):
        texts = [list(rng.integers(1, 9, k)) for k in (3, 0, 5, 1, 2)]
        split = ModelData.from_id_lists(
            rng.random((5, 4, 4, 3)), texts, texts[::-1], np.arange(5) % 2, list("abcde")
        )
        view = split.subset(slice(start, stop))
        copy = split.subset(np.arange(start, stop))
        assert view.images.base is split.images
        assert view.ids.tolist() == copy.ids.tolist() == list("abcde")[start:stop]
        for got, want in [(view.images, copy.images), (view.labels, copy.labels),
                          *zip(view.tweet + view.imgtext, copy.tweet + copy.imgtext)]:
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_all_empty_batch_has_no_steps(self, rng):
        batch = split_of([[], [], [4, 5]], [[], [1], []]).subset(np.array([1, 0]))
        assert batch.tweet[0].shape == (2, 0)
        assert batch.tweet[1].tolist() == [0, 0]
        encoder = TextEncoder(8, 3, 4, rng)
        assert np.array_equal(encoder.encode(batch.tweet).data, np.zeros((2, 4)))

    def test_literal_pad_token_keeps_its_length(self, rng):
        vocab = synth.build_vocabulary()
        ids = vocab.encode(preprocess_tweet_text("zork <pad>"))
        assert ids[1] == 0
        batch = split_of([ids], [[]]).subset(np.array([0]))
        assert batch.tweet[1].tolist() == [2]
        encoder = TextEncoder(len(vocab), 3, 4, rng)
        read_pad = encoder.encode(batch.tweet).data
        assert not np.array_equal(read_pad, encoder.encode(pad_ids([ids[:1]])).data)


class TestScoreDataset:
    def test_empty_data(self):
        model = text_only_model()
        data = ModelData.from_id_lists(np.zeros((0,)), [], [], np.zeros(0, dtype=np.int64))
        assert len(score_dataset(model, data)) == 0

    def test_scores_are_probabilities(self):
        model = text_only_model()
        train_data, _ = synth_data(n=30)
        scored = score_dataset(model, train_data)
        assert len(scored) == 30
        for ex in scored:
            assert 0.0 <= ex.score <= 1.0

    def test_deterministic(self):
        model = text_only_model()
        train_data, _ = synth_data(n=30)
        a = [ex.score for ex in score_dataset(model, train_data)]
        b = [ex.score for ex in score_dataset(model, train_data)]
        assert a == b

    def test_batching_does_not_change_scores(self, monkeypatch):
        model = text_only_model()
        train_data, _ = synth_data(n=30)
        scores = []
        for size in (7, 30):
            monkeypatch.setattr(training, "SCORE_BATCH", size)
            scores.append([ex.score for ex in score_dataset(model, train_data)])
        assert scores[0] == scores[1]

    def test_a_lone_tail_example_joins_the_batch_before_it(self, monkeypatch):
        train_data, _ = synth_data(n=22)
        sizes = []
        subset = ModelData.subset

        def recording_subset(data, rows):
            batch = subset(data, rows)
            sizes.append(len(batch))
            return batch

        monkeypatch.setattr(training, "SCORE_BATCH", 7)
        monkeypatch.setattr(ModelData, "subset", recording_subset)
        assert len(score_dataset(text_only_model(), train_data)) == 22
        assert sizes == [7, 7, 8]


class TestTrainLoop:
    def test_empty_train_split_rejected(self):
        model = text_only_model()
        empty = ModelData.from_id_lists(np.zeros((0,)), [], [], np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            train(model, empty, empty, TrainConfig(epochs=1))

    def test_initial_loss_is_ln2_with_zero_head(self):
        model = text_only_model()
        model.head.fc.final.weight.data[:] = 0.0
        model.head.fc.final.bias.data[:] = 0.0
        train_data, val_data = synth_data(n=32)
        config = TrainConfig(epochs=1, batch_size=32, learning_rate=1e-9, seed=0)
        _, history = train(model, train_data, val_data, config)
        assert history.steps[0][1] == pytest.approx(np.log(2.0), abs=1e-9)

    def test_validation_batching_does_not_move_model_selection(self, monkeypatch, tmp_path):
        train_data, val_data = synth_data(mode="crossmodal_xor", n=110, seed=3, image_side=8)
        config = TrainConfig(epochs=2, batch_size=16, learning_rate=1e-2, eval_every=2, seed=1)
        written = []
        for size in (7, 128):  # 22 validation examples: batches 7, 7, 8 against one of 22
            monkeypatch.setattr(training, "SCORE_BATCH", size)
            best, history = train(small_fcm(), train_data, val_data, config)
            out = tmp_path / str(size)
            out.mkdir()
            save_arrays(out / "checkpoint.mfuse", best)
            history.write_csv(out / "history.csv")
            written.append([(out / f).read_bytes() for f in ("checkpoint.mfuse", "history.csv")])
        assert len(history.evals) == 7 and history.best_step > 0
        assert written[0] == written[1]

    def test_same_seed_bitwise_identical(self):
        def run():
            model = text_only_model(seed=3)
            train_data, val_data = synth_data(n=60, seed=4)
            config = TrainConfig(epochs=2, batch_size=16, learning_rate=1e-3, seed=5)
            best, _ = train(model, train_data, val_data, config)
            return best

        a, b = run(), run()
        assert sorted(a) == sorted(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_convergence_on_separable_task(self):
        model = text_only_model(seed=1)
        train_data, val_data = synth_data(mode="unimodal_text", n=320, seed=2)
        config = TrainConfig(epochs=20, batch_size=32, learning_rate=1e-2, seed=3)
        _, history = train(model, train_data, val_data, config)
        assert len(history.steps) == 200
        assert history.steps[-1][1] < 0.1

    def test_best_checkpoint_tracks_val_auc(self):
        model = text_only_model(seed=1)
        train_data, val_data = synth_data(mode="unimodal_text", n=160, seed=6)
        config = TrainConfig(epochs=4, batch_size=32, learning_rate=1e-2, seed=7)
        best, history = train(model, train_data, val_data, config)
        assert history.best_step in [step for step, _ in history.evals]
        assert history.best_val_auc == max(auc for _, auc in history.evals)
        # the model is left holding the best parameters
        scored = score_dataset(model, val_data)
        assert auc_roc(scored) == pytest.approx(history.best_val_auc, abs=1e-12)

    def test_history_csv(self, tmp_path):
        history = TrainHistory(steps=[(1, 0.7), (2, 0.6)], evals=[(2, 0.8)])
        path = tmp_path / "history.csv"
        history.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss,val_auc"
        assert lines[1].startswith("1,0.7,")
        assert lines[2] == "2,0.6,0.8"

    def test_uniform_weight_mode(self):
        model = text_only_model(seed=2)
        train_data, val_data = synth_data(n=32, seed=8)
        config = TrainConfig(epochs=1, batch_size=32, class_weight_mode="uniform", seed=9)
        _, history = train(model, train_data, val_data, config)
        assert len(history.steps) == 1

    def test_nonfinite_gradient_aborts_before_adam(self, monkeypatch):
        model = text_only_model(seed=2)
        initial = model.state_dict()
        real_backward = training.backward
        losses = []

        def nan_on_second_step(loss):
            real_backward(loss)
            losses.append(loss)
            if len(losses) == 2:
                model.head.fc.final.bias.grad[1] = np.nan

        monkeypatch.setattr(training, "backward", nan_on_second_step)
        train_data, val_data = synth_data(n=96, seed=8)
        config = TrainConfig(epochs=1, batch_size=32, learning_rate=1e-2, seed=9)
        best, history = train(model, train_data, val_data, config)
        assert history.diverged == "non-finite gradient of 'head.fc.out.bias'"
        assert len(history.steps) == 2
        for name, value in model.state_dict().items():
            assert np.array_equal(value, initial[name]), name
            assert np.array_equal(best[name], initial[name]), name

    def test_nonfinite_gradients_name_the_first_parameter(self, monkeypatch):
        """Two NaN gradients: the first in ``model.parameters()`` order is named, not the first set."""
        model = text_only_model(seed=2)
        initial = model.state_dict()
        names = list(model.parameters())
        assert names.index("text.lstm.U") < names.index("head.fc.out.bias")
        real_backward = training.backward

        def nan_in_two(loss):
            real_backward(loss)
            model.head.fc.final.bias.grad[0] = np.nan
            model.text_encoder.lstm.U.grad[-1, -1] = np.nan

        monkeypatch.setattr(training, "backward", nan_in_two)
        train_data, val_data = synth_data(n=64, seed=8)
        config = TrainConfig(epochs=1, batch_size=32, learning_rate=1e-2, seed=9)
        _, history = train(model, train_data, val_data, config)
        assert history.diverged == "non-finite gradient of 'text.lstm.U'"
        assert len(history.steps) == 1
        for name, value in model.state_dict().items():
            assert np.array_equal(value, initial[name]), name

    def test_nonfinite_validation_score_diverges(self):
        """An overflowing learning rate drives the validation scores to NaN."""
        model = build_model("SCM", vocab_size=len(synth.build_vocabulary()), dropout_rate=0.1)
        initial = model.state_dict()
        train_data, val_data = synth_data(mode="crossmodal_xor", n=32, seed=3, image_side=8)
        config = TrainConfig(epochs=1, batch_size=32, learning_rate=1e30, seed=9)
        best, history = train(model, train_data, val_data, config)
        assert history.diverged == "non-finite validation score"
        assert len(history.steps) == 1 and history.evals == []
        for name, value in model.state_dict().items():  # the last finite checkpoint
            assert np.array_equal(value, initial[name]), name
            assert np.array_equal(best[name], initial[name]), name

    def test_nonfinite_loss_diverges(self, monkeypatch):
        """A weight that overflows to inf after step 3 makes step 4's loss NaN."""
        train_data, val_data = synth_data(n=64, seed=8)
        config = TrainConfig(epochs=2, batch_size=32, learning_rate=1e-2, seed=9)
        first_epoch, _ = train(text_only_model(seed=2), train_data, val_data,
                               dataclasses.replace(config, epochs=1))
        model = text_only_model(seed=2)
        real_adam_step = training.adam_step
        steps = []

        def overflow_after_third_step(grads, state):
            real_adam_step(grads, state)
            steps.append(state.t)
            if state.t == 3:
                model.head.fc.final.bias.data[1] = np.inf

        monkeypatch.setattr(training, "adam_step", overflow_after_third_step)
        best, history = train(model, train_data, val_data, config)
        assert history.diverged == "non-finite loss"
        assert len(history.steps) == 3 and steps == [1, 2, 3]
        assert [step for step, _ in history.evals] == [2] and history.best_step == 2
        for name, value in model.state_dict().items():  # the checkpoint of the first epoch
            assert np.array_equal(value, first_epoch[name]), name
            assert np.array_equal(best[name], first_epoch[name]), name

    def test_nonfinite_running_statistic_diverges(self, monkeypatch):
        """A huge but finite pixel in step 4's batch overflows a batch variance, not the loss."""
        train_data, val_data = synth_data(mode="crossmodal_xor", n=64, seed=3, image_side=8)
        config = TrainConfig(epochs=1, batch_size=16, learning_rate=1e-2, eval_every=2, seed=1)
        order = np.random.default_rng(config.seed).permutation(len(train_data))
        train_data.images[order[50], 3, 4, 1] = 1e300
        model = small_fcm()
        real_adam_step = training.adam_step
        snapshots = []

        def recording_step(grads, state):
            real_adam_step(grads, state)
            snapshots.append(model.state_dict())

        monkeypatch.setattr(training, "adam_step", recording_step)
        best, history = train(model, train_data, val_data, config)
        bad = "backbone.stage0.bn.running_var"
        assert history.diverged == f"non-finite running statistic {bad!r}"
        assert len(history.steps) == 4 and len(snapshots) == 4
        assert [step for step, _ in history.evals] == [2] and history.best_step == 2
        for name, value in model.state_dict().items():  # the state validated at step 2
            assert np.array_equal(value, snapshots[1][name]), name
            assert np.array_equal(best[name], snapshots[1][name]), name

    def test_a_step_tape_is_gone_before_adam(self, monkeypatch):
        """No op node of a step is alive when that step's ADAM update runs."""
        real_loss, real_adam_step = ops.softmax_cross_entropy, training.adam_step
        tapes, alive = [], []

        def recording_loss(*args):
            loss = real_loss(*args)
            tapes.append([weakref.ref(node.data) for node in _toposort(loss) if node._parents])
            return loss

        def checking_step(grads, state):
            alive.append(sum(ref() is not None for ref in tapes[-1]))
            real_adam_step(grads, state)

        monkeypatch.setattr(ops, "softmax_cross_entropy", recording_loss)
        monkeypatch.setattr(training, "adam_step", checking_step)
        train_data, val_data = synth_data(mode="crossmodal_xor", n=64, seed=3, image_side=8)
        train(build_model("SCM", vocab_size=len(synth.build_vocabulary())), train_data, val_data,
              TrainConfig(epochs=1, batch_size=16, seed=1))
        assert len(tapes) == 4 and all(len(tape) > 10 for tape in tapes)
        assert alive == [0, 0, 0, 0]

    def test_model_mask_rules_training_and_scoring(self):
        """A model without the image has no backbone, and scores as it validated."""
        model = small_fcm(mask="TT,IT")
        assert not [name for name in model.state_dict() if name.startswith("backbone.")]
        train_data, val_data = synth_data(mode="crossmodal_xor", n=64, seed=3, image_side=8)
        _, history = train(model, train_data, val_data, TrainConfig())
        assert history.best_val_auc == auc_roc(score_dataset(model, val_data))

    def test_unreached_parameter_gets_no_update(self, monkeypatch):
        """A step whose image texts are all empty leaves the unshared image-text LSTM alone."""
        model = small_fcm(share_text_encoder=False)
        rng = np.random.default_rng(0)
        first, second = np.split(np.random.default_rng(0).permutation(4), 2)  # train's batches
        imgtexts = [[]] * 4
        for i in first:
            imgtexts[i] = [7, 8]
        train_data = ModelData.from_id_lists(
            images=rng.random((4, 8, 8, 3)),
            tweet_ids=[[1, 2], [3], [4, 5], [6]],
            imgtext_ids=imgtexts,
            labels=np.array([0, 1, 0, 1]),
        )
        empty = ModelData.from_id_lists(np.zeros((0,)), [], [], np.zeros(0, dtype=np.int64))
        before = model.imgtext_encoder.lstm.U.data.copy()
        real_adam_step = training.adam_step
        snapshots = []

        def recording_step(grads, state):
            real_adam_step(grads, state)
            snapshots.append(state.params["imgtext.lstm.U"].data.copy())

        monkeypatch.setattr(training, "adam_step", recording_step)
        train(model, train_data, empty, TrainConfig(batch_size=2, epochs=1, seed=0))
        assert len(snapshots) == 2
        assert not np.array_equal(snapshots[0], before)
        assert np.array_equal(snapshots[1], snapshots[0])
