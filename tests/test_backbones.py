import numpy as np
import pytest

from wsmsnet.autodiff import Tensor
from wsmsnet.cost import cost_report
from wsmsnet.model import build_model
from wsmsnet.specs import (BackboneSpec, ConfigError, ResidualCompartment,
                           WsmsSpec, backbone_from_config, backbone_to_config,
                           build_conv_backbone, build_densenet, build_resnet,
                           model_from_config, model_to_config, stage_plan)


class TestResnetSpec:
    def test_compartment_layout(self):
        spec = build_resnet(18, class_count=10)
        assert spec.family == "resnet"
        assert [b.units for b in spec.blocks] == [18, 18, 18]
        assert [b.out_channels for b in spec.blocks] == [16, 32, 64]
        assert [b.downsample for b in spec.blocks] == [1, 2, 2]
        assert spec.stem.out_channels == 16

    def test_depth_accounting(self):
        # stem + 2 convs per unit + classifier = 6n + 2 layers with weights
        spec = build_resnet(18, 10)
        convs = 1 + sum(2 * b.units for b in spec.blocks)
        assert convs + 1 == 110

    def test_residual_unit_parameter_share(self):
        # one 16-channel unit: two 3x3 convs plus two bn pairs
        spec = WsmsSpec(build_resnet(1, 10, channels=(16,)), stages=1)
        per_unit = 2 * (16 * 16 * 9) + 2 * (2 * 16)
        unit_rows = [r for r in cost_report(spec).rows if "block1.unit0" in r.path]
        assert sum(r.params for r in unit_rows) == per_unit == 4672

    def test_invalid_unit_count_rejected(self):
        with pytest.raises(ConfigError, match="n"):
            build_resnet(0, 10)

    def test_channel_chain_must_connect(self):
        good = build_resnet(2, 10)
        blocks = (good.blocks[0],
                  ResidualCompartment(in_channels=99, out_channels=32, units=2,
                                      downsample=2),
                  good.blocks[2])
        broken = BackboneSpec(good.family, good.stem, blocks, good.class_count,
                              good.stage_tail)
        with pytest.raises(ConfigError, match="input channels"):
            broken.validate()


class TestDensenetSpec:
    def test_block_channel_growth(self):
        spec = build_densenet(24, class_count=10)
        blocks = spec.blocks
        assert [b.in_channels for b in blocks] == [16, 784, 1552]
        assert [b.out_channels for b in blocks] == [784, 1552, 2320]
        assert [b.lead_transition for b in blocks] == [False, True, True]
        assert blocks[0].out_channels == 16 + 32 * 24

    def test_first_block_conv_parameter_total(self):
        spec = WsmsSpec(build_densenet(24, 10), stages=1)
        rows = [r for r in cost_report(spec).rows
                if r.path.startswith("block1.") and r.kind == "conv"]
        expected = sum(9 * (16 + 24 * i) * 24 for i in range(32))
        assert sum(r.params for r in rows) == expected == 2681856

    def test_stage_tail_normalizes_features(self):
        spec = build_densenet(24, 10)
        assert spec.stage_tail == "bn-relu"


class TestConvBackbone:
    def test_zero_conv_block_keeps_width(self):
        spec = build_conv_backbone(8, (8, 8), convs_per_block=(1, 0), class_count=3)
        assert spec.blocks[1].convs == 0

    def test_zero_conv_block_cannot_change_width(self):
        with pytest.raises(ConfigError, match="cannot change width"):
            build_conv_backbone(8, (8, 16), convs_per_block=(1, 0), class_count=3)


class TestWsmsSpec:
    def test_stage_count_bounded_by_blocks(self):
        backbone = build_resnet(2, 10)
        with pytest.raises(ConfigError, match="exceeds"):
            WsmsSpec(backbone, stages=4).validate()

    def test_unknown_integration_rejected(self):
        backbone = build_resnet(2, 10)
        with pytest.raises(ConfigError, match="integration"):
            WsmsSpec(backbone, stages=2, integration="conv5x5").validate()

    def test_stage_plan_for_three_stages(self):
        plan = stage_plan(WsmsSpec(build_resnet(18, 10), stages=3,
                                   integration="conv1x1"))
        assert plan.scale_divisors == (1, 2, 4)
        assert plan.block_counts == (3, 2, 1)
        assert plan.stage_channels == (64, 32, 16)
        assert plan.concat_channels == 112
        assert plan.head_channels == 128

    def test_stage_plan_without_integration_keeps_concat_width(self):
        plan = stage_plan(WsmsSpec(build_resnet(18, 10), stages=3))
        assert plan.head_channels == 112

    def test_densenet_concat_width(self):
        plan = stage_plan(WsmsSpec(build_densenet(24, 10), stages=3))
        assert plan.stage_channels == (2320, 1552, 784)
        assert plan.concat_channels == 4656


class TestConfigRoundTrip:
    @pytest.mark.parametrize("cfg", [
        {"backbone": {"family": "resnet", "n": 3, "class_count": 10},
         "stages": 2, "integration": "conv3x3", "integration_channels": 64,
         "sharing": "shared"},
        {"backbone": {"family": "densenet", "growth": 12, "layers_per_block": 4,
                      "blocks": 2, "stem_channels": 16, "class_count": 100},
         "stages": 1, "integration": "none", "integration_channels": 128,
         "sharing": "shared"},
        {"backbone": {"family": "resnet", "n": 2, "channels": [8, 16],
                      "class_count": 5},
         "stages": 2, "integration": "conv1x1", "integration_channels": 16,
         "sharing": "unshared"},
    ])
    def test_to_config_inverts_from_config(self, cfg):
        spec = model_from_config(cfg)
        again = model_from_config(model_to_config(spec))
        assert model_to_config(spec) == model_to_config(again)

    def test_backbone_round_trip(self):
        spec = build_densenet(24, 10)
        assert backbone_to_config(backbone_from_config(backbone_to_config(spec))) \
            == backbone_to_config(spec)

    def test_missing_class_count_rejected(self):
        with pytest.raises(ConfigError, match="class_count"):
            backbone_from_config({"family": "resnet", "n": 3})


class TestForwardShapes:
    def test_resnet_stage_output_resolution(self):
        spec = WsmsSpec(build_resnet(1, 5, channels=(8, 16)), stages=1)
        model = build_model(spec, seed=0)
        feats = model.stage_features(Tensor(np.zeros((2, 3, 32, 32))))
        assert feats[0].shape == (2, 16, 16, 16)

    def test_densenet_forward_shape(self):
        spec = WsmsSpec(build_densenet(4, 7, layers_per_block=2, blocks=2), stages=1)
        model = build_model(spec, seed=0)
        logits = model.forward(Tensor(np.zeros((2, 3, 16, 16))))
        assert logits.shape == (2, 7)

    def test_all_stages_share_final_resolution(self):
        spec = WsmsSpec(build_resnet(2, 10), stages=3)
        model = build_model(spec, seed=0)
        feats = model.stage_features(Tensor(np.zeros((1, 3, 32, 32))))
        assert [f.shape[2:] for f in feats] == [(8, 8)] * 3
        assert [f.shape[1] for f in feats] == [64, 32, 16]
