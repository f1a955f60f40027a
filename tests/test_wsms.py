import dataclasses

import numpy as np
import pytest

from wsmsnet import ops
from wsmsnet.autodiff import Tape, Tensor, using_precision
from wsmsnet.cost import cost_report
from wsmsnet.model import build_model, image_pyramid
from wsmsnet.ops import softmax_cross_entropy
from wsmsnet.specs import WsmsSpec, build_resnet


def batch(shape, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal(shape))


class TestImagePyramid:
    def test_levels_halve_spatially(self):
        levels = image_pyramid(Tensor(np.zeros((2, 3, 32, 32))), 3)
        assert [lv.shape for lv in levels] == [(2, 3, 32, 32), (2, 3, 16, 16),
                                               (2, 3, 8, 8)]

    def test_second_level_is_2x2_average(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        levels = image_pyramid(x, 2)
        np.testing.assert_array_equal(levels[1].data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_first_level_is_input_itself(self):
        x = Tensor(np.ones((1, 3, 8, 8)))
        assert image_pyramid(x, 2)[0] is x

    def test_indivisible_extent_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            image_pyramid(Tensor(np.zeros((1, 3, 30, 30))), 3)


class TestPathwayMerge:
    def test_forward_concatenates_first_stage_first(self, tiny_backbone):
        spec = WsmsSpec(tiny_backbone, stages=2, integration="none")
        model = build_model(spec, seed=3)
        x = batch((2, 3, 32, 32), seed=1)
        feats = model.stage_features(x)
        assert [f.shape[1] for f in feats] == [16, 8]
        merged = ops.concat_channels(feats)
        pooled = ops.global_avg_pool(merged)
        manual = model.fc(ops.reshape(pooled, pooled.shape[:2]))
        np.testing.assert_array_equal(model.forward(x).data, manual.data)

    def test_single_stage_forward_is_plain_backbone_pipeline(self, tiny_backbone):
        spec = WsmsSpec(tiny_backbone, stages=1, integration="none")
        model = build_model(spec, seed=3)
        x = batch((2, 3, 32, 32), seed=2)
        feat = model.stages[0](x, False)
        pooled = ops.global_avg_pool(feat)
        manual = model.fc(ops.reshape(pooled, pooled.shape[:2]))
        np.testing.assert_array_equal(model.forward(x).data, manual.data)

    def test_integration_conv_reshapes_merged_width(self, tiny_wsms_spec):
        model = build_model(tiny_wsms_spec, seed=0)
        logits = model.forward(batch((2, 3, 32, 32)))
        assert logits.shape == (2, 5)
        assert model.integration_conv.in_channels == 24
        assert model.integration_conv.out_channels == 16

    def test_stage_gains_isolate_pathways(self, tiny_backbone):
        spec = WsmsSpec(tiny_backbone, stages=2, integration="none")
        model = build_model(spec, seed=5)
        x = batch((2, 3, 32, 32), seed=4)
        full = model.forward(x).data
        only1 = model.forward(x, stage_gains=[1.0, 0.0]).data
        only2 = model.forward(x, stage_gains=[0.0, 1.0]).data
        # the classifier is affine, so pathway logits recombine up to the bias
        bias = model.forward(x, stage_gains=[0.0, 0.0]).data
        np.testing.assert_allclose(only1 + only2 - bias, full, rtol=1e-4)


class TestWeightSharing:
    def test_stages_reference_identical_conv_objects(self, tiny_wsms_spec):
        model = build_model(tiny_wsms_spec, seed=0)
        s1, s2 = model.stages
        assert s1.stem_conv is s2.stem_conv
        assert s1.blocks[0][0].conv1 is s2.blocks[0][0].conv1
        assert s1.blocks[0][0].conv2 is s2.blocks[0][0].conv2

    def test_batch_norms_are_private_per_stage(self, tiny_wsms_spec):
        model = build_model(tiny_wsms_spec, seed=0)
        s1, s2 = model.stages
        assert s1.stem_bn is not s2.stem_bn
        assert s1.blocks[0][0].bn1 is not s2.blocks[0][0].bn1
        names = [e.name for e in model.store.entries()]
        assert "stage1.stem.bn.gamma" in names and "stage2.stem.bn.gamma" in names

    def test_running_buffers_diverge_across_stages(self, tiny_wsms_spec):
        model = build_model(tiny_wsms_spec, seed=0)
        model.forward(batch((8, 3, 32, 32), seed=9), training=True)
        s1, s2 = model.stages
        assert not np.array_equal(s1.stem_bn.running_mean, s2.stem_bn.running_mean)

    def test_private_bn_perturbation_stays_in_its_stage(self, tiny_wsms_spec):
        model = build_model(tiny_wsms_spec, seed=0)
        x = batch((2, 3, 32, 32), seed=6)
        before = [f.data.copy() for f in model.stage_features(x)]
        gamma = model.store.tensor(model.stages[1].stem_bn.gamma_id)
        gamma.data[:] = 2.0
        after = [f.data for f in model.stage_features(x)]
        np.testing.assert_array_equal(before[0], after[0])
        assert not np.array_equal(before[1], after[1])

    def test_shared_weight_perturbation_moves_every_stage(self, tiny_wsms_spec):
        model = build_model(tiny_wsms_spec, seed=0)
        x = batch((2, 3, 32, 32), seed=7)
        before = [f.data.copy() for f in model.stage_features(x)]
        weight = model.store.tensor(model.stages[0].stem_conv.weight_id)
        weight.data += 0.05
        after = [f.data for f in model.stage_features(x)]
        assert not np.array_equal(before[0], after[0])
        assert not np.array_equal(before[1], after[1])

    def test_truncated_pathway_matches_leading_blocks_of_stage_one(self, tiny_wsms_spec):
        # same conv objects and identically initialized private bn, so running
        # stage 1 up to the truncation point reproduces stage 2 exactly
        model = build_model(tiny_wsms_spec, seed=0)
        level2 = image_pyramid(batch((2, 3, 32, 32), seed=8), 2)[1]
        via_stage1 = model.stages[0](level2, False, upto_block=1)
        via_stage2 = model.stages[1](level2, False)
        np.testing.assert_array_equal(via_stage1.data, via_stage2.data)

    def test_clone_gradients_sum_to_the_shared_gradient(self, tiny_backbone):
        shared_spec = WsmsSpec(tiny_backbone, stages=2, integration="conv1x1",
                               integration_channels=16, sharing="shared")
        unshared_spec = dataclasses.replace(shared_spec, sharing="unshared")
        with using_precision("f64"):
            shared = build_model(shared_spec, seed=0)
            unshared = build_model(unshared_spec, seed=1)
            by_name = {e.name: e for e in shared.store.entries()}
            for e in unshared.store.entries():
                source = e.name
                if source not in by_name:
                    # conv clones carry a stage prefix the shared model lacks
                    source = source.split(".", 1)[1]
                e.tensor.data[...] = by_name[source].tensor.data

            x = batch((4, 3, 32, 32), seed=10)
            labels = np.array([0, 1, 2, 3])

            def grads_of(model):
                with Tape() as tape:
                    loss = softmax_cross_entropy(model.forward(x, training=True), labels)
                    return tape.backward(loss), loss.item()

            g_shared, loss_shared = grads_of(shared)
            g_unshared, loss_unshared = grads_of(unshared)
            assert loss_shared == loss_unshared

            unshared_by_name = {e.name: g_unshared[e.tensor]
                                for e in unshared.store.entries()}
            checked = 0
            for e in shared.store.entries():
                if e.role != "conv-weight" or e.name.startswith("integration"):
                    continue
                clones = [g for name, g in unshared_by_name.items()
                          if name.endswith("." + e.name)]
                assert clones, e.name
                total = np.sum(clones, axis=0)
                np.testing.assert_allclose(g_shared[e.tensor], total,
                                           rtol=0, atol=1e-10)
                checked += 1
            assert checked >= 4


@pytest.fixture(scope="module")
def backbone():
    return build_resnet(18, 10)


class TestParameterOrdering:

    def test_integration_widths_order_totals(self, backbone):
        totals = [cost_report(WsmsSpec(backbone, 3, integ)).total_params
                  for integ in ("none", "conv1x1", "conv3x3")]
        assert totals[0] < totals[1] < totals[2]

    def test_sharing_saves_parameters(self, backbone):
        shared = cost_report(WsmsSpec(backbone, 3, "conv1x1")).total_params
        unshared = cost_report(WsmsSpec(backbone, 3, "conv1x1",
                                        sharing="unshared")).total_params
        assert shared < unshared

    def test_extra_stages_cost_little(self, backbone):
        one = cost_report(WsmsSpec(backbone, 1)).total_params
        three = cost_report(WsmsSpec(backbone, 3)).total_params
        assert (three - one) / one < 0.01
