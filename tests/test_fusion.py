import dataclasses

import numpy as np
import pytest

from mmfuse import cli
from mmfuse.autodiff import ShapeMismatch, Tensor, check_gradients, ops
from mmfuse.config import KEYS, ConfigError
from mmfuse.encoders import pad_ids
from mmfuse.fusion import FusionHead, InputMask, ModelSpec, MultimodalModel


def desk_config(variant, **kw):
    """A small spec: 16-px images through backbone 4,8 give a 4x4x8 map."""
    defaults = dict(
        variant=variant,
        image_side=16,
        backbone_channels=(4, 8),
        embedding_dim=5,
        hidden_dim=6,
        tweet_kernels=4,
        imgtext_kernels=2,
        fc_plan=(10, 2),
        fusion_channels=5,
        dropout_rate=0.0,
        share_text_encoder=True,
        seed=0,
        mask=InputMask(),
    )
    defaults.update(kw)
    return ModelSpec(**defaults)


def desk_inputs(config, rng, n=3):
    if config.variant == "FCM":
        v = Tensor(rng.standard_normal((n, config.visual_dim)))
    else:
        v = Tensor(rng.standard_normal((n, config.map_side, config.map_side, config.visual_dim)))
    tt = Tensor(rng.standard_normal((n, config.hidden_dim)))
    it = Tensor(rng.standard_normal((n, config.hidden_dim)))
    return v, tt, it


class TestInputMask:
    def test_label_and_parse_round_trip(self):
        for text in ("TT", "TT,IT", "I", "TT,IT,I", "IT,I"):
            assert InputMask.parse(text).label() == ",".join(
                p for p in ("TT", "IT", "I") if p in text.split(",")
            )

    def test_all_false_rejected(self):
        with pytest.raises(ValueError):
            InputMask(tweet_text=False, image_text=False, image=False)

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            InputMask.parse("TT,XYZ")


class TestConfig:
    def test_fields_are_the_model_keys_and_the_mask(self):
        model_keys = [name.removeprefix("model.") for name in KEYS if name.startswith("model.")]
        assert [f.name for f in dataclasses.fields(ModelSpec)] == model_keys + ["mask"]

    def test_visual_map_follows_from_the_backbone(self):
        config = desk_config("SCM", image_side=15, backbone_channels=(3, 4, 7))
        assert (config.visual_dim, config.map_side) == (7, 2)

    def test_reference_fcm_concat_dim(self):
        assert ModelSpec.reference("FCM").concat_dim == 2348

    def test_reference_tkm_kernel_counts(self):
        config = ModelSpec.reference("TKM")
        assert (config.tweet_kernels, config.imgtext_kernels) == (10, 5)
        assert config.kernel_count == 15
        assert config.kernel_count + 2 * config.hidden_dim == 315

    def test_desk_tkm_map_depth(self):
        config = desk_config("TKM")
        assert config.kernel_count == 6

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError, match="variant must be one of"):
            desk_config("XYZ")

    def test_fc_plan_must_end_in_two(self):
        with pytest.raises(ValueError):
            desk_config("FCM", fc_plan=(10, 3))

    def test_tkm_ignores_the_kernel_count_of_a_text_it_drops(self):
        cfg = {"model.variant": "TKM", "train.mask": "TT,I", "model.imgtext_kernels": "0"}
        assert cli.build_model(cfg, 20).spec.texts == {"tweet": 4}

    def test_tkm_needs_a_kernel_for_each_text_it_reads(self):
        cfg = {"model.variant": "TKM", "train.mask": "TT,I", "model.tweet_kernels": "0"}
        with pytest.raises(ConfigError, match="^TKM needs at least one kernel per text input$"):
            cli.build_model(cfg, 20)


class TestForwardShapes:
    @pytest.mark.parametrize("variant", ["FCM", "SCM", "TKM"])
    def test_logits_shape(self, variant, rng):
        config = desk_config(variant)
        head = FusionHead(config, np.random.default_rng(1))
        v, tt, it = desk_inputs(config, rng)
        logits = head(v, tt, it, training=False)
        assert logits.shape == (3, 2)

    def test_fcm_rejects_wrong_visual_dim(self, rng):
        head = FusionHead(desk_config("FCM"), np.random.default_rng(1))
        with pytest.raises(ShapeMismatch):
            head(Tensor(rng.standard_normal((3, 9))),
                 Tensor(rng.standard_normal((3, 6))),
                 Tensor(rng.standard_normal((3, 6))))

    def test_scm_rejects_wrong_map_side(self, rng):
        head = FusionHead(desk_config("SCM"), np.random.default_rng(1))
        with pytest.raises(ShapeMismatch):
            head(Tensor(rng.standard_normal((3, 5, 5, 8))),
                 Tensor(rng.standard_normal((3, 6))),
                 Tensor(rng.standard_normal((3, 6))))

    def test_tkm_multimodal_map_shape(self, rng):
        config = desk_config("TKM")
        head = FusionHead(config, np.random.default_rng(1))
        v, tt, it = desk_inputs(config, rng)
        kernels = ops.concat(
            [head.make_textual_kernels(tt, "tweet"), head.make_textual_kernels(it, "imgtext")],
            axis=1,
        )
        assert kernels.shape == (3, 6, 8)
        mm_map = ops.dynamic_conv1x1(v, kernels)
        assert mm_map.shape == (3, 4, 4, 6)


class TestTextualKernels:
    def test_zero_generator_gives_zero_kernels(self, rng):
        config = desk_config("TKM")
        head = FusionHead(config, np.random.default_rng(1))
        head.kernel_gens["tweet"].weight.data[:] = 0.0
        head.kernel_gens["tweet"].bias.data[:] = 0.0
        kernels = head.make_textual_kernels(Tensor(rng.standard_normal((2, 6))), "tweet")
        assert np.array_equal(kernels.data, np.zeros((2, 4, 8)))

    def test_one_hot_kernel_selects_channel(self, rng):
        """A kernel that is a one-hot over channels copies that channel."""
        config = desk_config("TKM")
        head = FusionHead(config, np.random.default_rng(1))
        head.kernel_gens["tweet"].weight.data[:] = 0.0
        bias = np.zeros((config.tweet_kernels, config.visual_dim))
        bias[0, 3] = 1.0  # kernel 0 reads channel 3
        head.kernel_gens["tweet"].bias.data[:] = bias.ravel()
        v, tt, _ = desk_inputs(config, rng)
        kernels = head.make_textual_kernels(tt, "tweet")
        mm_map = ops.dynamic_conv1x1(v, kernels)
        assert np.allclose(mm_map.data[..., 0], v.data[..., 3], atol=1e-12)
        assert np.allclose(mm_map.data[..., 1:], 0.0, atol=1e-12)

    def test_kernels_depend_on_text(self, rng):
        config = desk_config("TKM")
        head = FusionHead(config, np.random.default_rng(1))
        a = head.make_textual_kernels(Tensor(rng.standard_normal((1, 6))), "tweet").data
        b = head.make_textual_kernels(Tensor(rng.standard_normal((1, 6))), "tweet").data
        assert not np.allclose(a, b)


class TestGradients:
    @pytest.mark.parametrize("variant", ["FCM", "SCM", "TKM"])
    def test_end_to_end_gradcheck(self, variant, rng):
        config = desk_config(variant)
        head = FusionHead(config, np.random.default_rng(2))
        v, tt, it = desk_inputs(config, rng)
        for t in (v, tt, it):
            t.requires_grad = True
        probe = Tensor(rng.standard_normal((3, 2)))

        def fn(v_, tt_, it_):
            logits = head(v_, tt_, it_, training=True, rng=np.random.default_rng(4))
            return ops.sum_(ops.mul(ops.tanh(logits), probe))

        assert check_gradients(fn, [v, tt, it]) <= 1e-4


class TestSpatialProperties:
    def test_scm_constant_map_interior_translation_invariance(self, rng):
        """With constant inputs, interior conv outputs are identical."""
        config = desk_config("SCM")
        head = FusionHead(config, np.random.default_rng(3))
        v = Tensor(np.broadcast_to(rng.standard_normal(8), (1, 4, 4, 8)).copy())
        tt = Tensor(rng.standard_normal((1, 6)))
        it = Tensor(rng.standard_normal((1, 6)))
        side = config.map_side
        fused = ops.concat(
            [v, ops.tile_spatial(tt, side, side), ops.tile_spatial(it, side, side)], axis=3
        )
        out = ops.conv2d(fused, head.conv.blocks[0].weight).data
        interior = out[0, 1:3, 1:3, :]
        assert np.allclose(interior, interior[0, 0], atol=1e-10)


class TestMultimodalModel:
    def build(self, variant, seed=0, mask=InputMask(), share_text_encoder=True):
        spec = desk_config(
            variant, image_side=8, seed=seed, mask=mask, share_text_encoder=share_text_encoder
        )
        return MultimodalModel(20, spec)

    @pytest.mark.parametrize("variant", ["FCM", "SCM", "TKM"])
    def test_forward_shape(self, variant, rng):
        model = self.build(variant)
        logits = model.forward(
            rng.random((3, 8, 8, 3)), pad_ids([[1, 2], [3], [4, 5]]), pad_ids([[6], [7], [8]])
        )
        assert logits.shape == (3, 2)

    @pytest.mark.parametrize("variant", ["FCM", "SCM", "TKM"])
    def test_masked_image_invariance(self, variant, rng):
        model = self.build(variant, mask=InputMask.parse("TT,IT"))
        tweets = pad_ids([[1, 2], [3]])
        imgtexts = pad_ids([[4], [5, 6]])
        a = model.forward(rng.random((2, 8, 8, 3)), tweets, imgtexts).data
        b = model.forward(rng.random((2, 8, 8, 3)), tweets, imgtexts).data
        assert np.array_equal(a, b)

    def test_masked_text_invariance(self, rng):
        model = self.build("FCM", mask=InputMask.parse("I"))
        images = rng.random((2, 8, 8, 3))
        a = model.forward(images, pad_ids([[1], [2]]), pad_ids([[3], [4]])).data
        b = model.forward(images, pad_ids([[9], [10]]), pad_ids([[11], [12]])).data
        assert np.array_equal(a, b)

    def test_shared_text_encoder_default(self):
        model = self.build("FCM")
        assert model.imgtext_encoder is model.text_encoder

    def test_tkm_without_text_is_refused_before_any_weight_is_drawn(self):
        with pytest.raises(ValueError, match="TKM makes its kernels from TT or IT, not I$"):
            self.build("TKM", mask=InputMask.parse("I"))

    @pytest.mark.parametrize(
        "variant, mask, share, modules",
        [
            ("FCM", "TT", True, {"text", "head.fc"}),
            ("FCM", "IT", True, {"text", "head.fc"}),
            ("FCM", "IT", False, {"imgtext", "head.fc"}),
            ("FCM", "I", False, {"backbone", "head.fc"}),
            ("SCM", "TT,IT", False, {"text", "imgtext", "head.conv", "head.fc"}),
            ("TKM", "TT,IT", True, {"text", "head.conv", "head.fc"}),
            (
                "TKM", "TT,I", False,
                {"backbone", "text", "head.kernels.tweet", "head.kernels.bn", "head.conv", "head.fc"},
            ),
            (
                "TKM", "TT,IT,I", True,
                {"backbone", "text", "head.kernels.tweet", "head.kernels.imgtext", "head.kernels.bn",
                 "head.conv", "head.fc"},
            ),
        ],
    )
    def test_mask_decides_which_modules_exist(self, variant, mask, share, modules):
        model = self.build(variant, mask=InputMask.parse(mask), share_text_encoder=share)

        def module(name):
            parts = name.split(".")
            keep = 3 if parts[:2] == ["head", "kernels"] else 2 if parts[0] == "head" else 1
            return ".".join(parts[:keep])

        assert {module(name) for name in model.state_dict()} == modules

    def test_tkm_without_image_is_the_scm_head(self, rng):
        """With no image there is nothing to apply textual kernels to: the texts fuse over zeros."""
        mask = InputMask.parse("TT,IT")
        tkm, scm = self.build("TKM", mask=mask), self.build("SCM", mask=mask)
        arrays = scm.state_dict()
        assert sorted(tkm.state_dict()) == sorted(arrays)
        tkm.load_state_dict(arrays)
        tweets, imgtexts = pad_ids([[1, 2], [3]]), pad_ids([[4], [5, 6]])
        assert np.array_equal(
            tkm.forward(None, tweets, imgtexts).data, scm.forward(None, tweets, imgtexts).data
        )

    def test_head_reads_only_the_inputs_its_mask_keeps(self, rng):
        config = desk_config("SCM", mask=InputMask.parse("TT,I"))
        head = FusionHead(config, np.random.default_rng(1))
        v, tt, it = desk_inputs(config, rng)
        assert head(v, tt, None).shape == (3, 2)
        with pytest.raises(ShapeMismatch, match="t_imgtext must be None under mask TT,I"):
            head(v, tt, it)
        with pytest.raises(ShapeMismatch, match=r"t_tweet must be \(N, 6\) under mask TT,I, got None"):
            head(v, None, None)


class TestReferenceScaleShapes:
    def test_fcm_reference_forward(self, rng):
        config = ModelSpec.reference("FCM")
        head = FusionHead(config, np.random.default_rng(0))
        logits = head(
            Tensor(rng.standard_normal((1, 2048))),
            Tensor(rng.standard_normal((1, 150))),
            Tensor(rng.standard_normal((1, 150))),
            training=False,
        )
        assert logits.shape == (1, 2)

    def test_tkm_reference_map_shapes(self, rng):
        config = ModelSpec.reference("TKM")
        head = FusionHead(config, np.random.default_rng(0))
        v = Tensor(rng.standard_normal((1, 8, 8, 2048)))
        tt = Tensor(rng.standard_normal((1, 150)))
        it = Tensor(rng.standard_normal((1, 150)))
        kernels = ops.concat(
            [head.make_textual_kernels(tt, "tweet"), head.make_textual_kernels(it, "imgtext")],
            axis=1,
        )
        assert kernels.shape == (1, 15, 2048)
        mm_map = ops.dynamic_conv1x1(v, kernels)
        assert mm_map.shape == (1, 8, 8, 15)
        fused = ops.concat(
            [mm_map, ops.tile_spatial(tt, 8, 8), ops.tile_spatial(it, 8, 8)], axis=3
        )
        assert fused.shape == (1, 8, 8, 315)
