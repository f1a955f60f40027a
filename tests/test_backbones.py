import dataclasses
import re

import numpy as np
import pytest

from wsmsnet.autodiff import Tensor
from wsmsnet.cost import cost_report
from wsmsnet.data import CifarLimits, SynthScaleConfig
from wsmsnet.model import build_model
from wsmsnet.specs import (ConfigError, ConvSite, DenseNet, ResNet, WsmsSpec,
                           backbone_from_config, backbone_to_config, block_width,
                           model_from_config, model_to_config, stage_plan, stage_units)
from wsmsnet.trainer import TrainConfig


def units_of(backbone, stages=1, stage=1):
    return list(stage_units(WsmsSpec(backbone, stages), stage))


class TestResnetSpec:
    def test_compartment_layout(self):
        spec = ResNet(n=18, class_count=10)
        assert spec.family == "resnet"
        units = units_of(spec)
        assert [sum(u.block == b for u in units) for b in (1, 2, 3)] == [18, 18, 18]
        assert [block_width(spec, b) for b in (1, 2, 3)] == [16, 32, 64]
        entries = [u.sites[0] for u in units if u.sites[0].path.endswith("unit0.conv1")]
        assert [site.stride for site in entries] == [1, 2, 2]
        assert units[0].sites[0].out_channels == block_width(spec, 0) == 16

    def test_depth_accounting(self):
        # stem + 2 convs per unit + classifier = 6n + 2 layers with weights
        units = units_of(ResNet(n=18, class_count=10))
        convs = sum(isinstance(site, ConvSite) for u in units for site in u.sites)
        assert convs + 1 == 110

    def test_residual_unit_parameter_share(self):
        # one 16-channel unit: two 3x3 convs plus two bn pairs
        spec = WsmsSpec(ResNet(n=1, class_count=10, channels=(16,)), stages=1)
        per_unit = 2 * (16 * 16 * 9) + 2 * (2 * 16)
        unit_rows = [r for r in cost_report(spec).rows if "block1.unit0" in r.path]
        assert sum(r.params for r in unit_rows) == per_unit == 4672

    def test_invalid_unit_count_rejected(self):
        with pytest.raises(ConfigError, match="n"):
            ResNet(n=0, class_count=10)


class TestDensenetSpec:
    def test_block_channel_growth(self):
        spec = DenseNet(growth=24, class_count=10)
        units = units_of(spec)
        convs = [site for u in units for site in u.sites if isinstance(site, ConvSite)]
        entries = [next(c for c in convs if c.path.startswith(f"block{b}.")) for b in (1, 2, 3)]
        assert [c.in_channels for c in entries] == [16, 784, 1552]
        assert [block_width(spec, b) for b in (1, 2, 3)] == [784, 1552, 2320]
        assert [u.block for u in units if u.kind == "transition"] == [2, 3]
        assert block_width(spec, 1) == 16 + 32 * 24

    def test_first_block_conv_parameter_total(self):
        spec = WsmsSpec(DenseNet(growth=24, class_count=10), stages=1)
        rows = [r for r in cost_report(spec).rows
                if r.path.startswith("block1.") and r.kind == "conv"]
        expected = sum(9 * (16 + 24 * i) * 24 for i in range(32))
        assert sum(r.params for r in rows) == expected == 2681856

    def test_stage_tail_normalizes_features(self):
        spec = DenseNet(growth=24, class_count=10)
        for stage in (1, 2, 3):
            tail = units_of(spec, 3, stage)[-1]
            assert tail.kind == "tail"
            assert tail.sites[0].channels == block_width(spec, 4 - stage)


class TestWsmsSpec:
    def test_stage_count_bounded_by_blocks(self):
        backbone = ResNet(n=2, class_count=10)
        with pytest.raises(ConfigError, match="exceeds"):
            WsmsSpec(backbone, stages=4)

    def test_unknown_integration_rejected(self):
        backbone = ResNet(n=2, class_count=10)
        with pytest.raises(ConfigError, match="integration"):
            WsmsSpec(backbone, stages=2, integration="conv5x5")

    def test_stage_plan_for_three_stages(self):
        spec = WsmsSpec(ResNet(n=18, class_count=10), stages=3, integration="conv1x1")
        plan = stage_plan(spec)
        assert plan.scale_divisors == (1, 2, 4)
        assert [max(u.block for u in stage_units(spec, s)) for s in (1, 2, 3)] == [3, 2, 1]
        assert plan.stage_channels == (64, 32, 16)
        assert plan.concat_channels == 112
        assert plan.head_channels == 128

    def test_stage_plan_without_integration_keeps_concat_width(self):
        plan = stage_plan(WsmsSpec(ResNet(n=18, class_count=10), stages=3))
        assert plan.head_channels == 112

    def test_densenet_concat_width(self):
        plan = stage_plan(WsmsSpec(DenseNet(growth=24, class_count=10), stages=3))
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
        spec = DenseNet(growth=24, class_count=10)
        assert backbone_to_config(backbone_from_config(backbone_to_config(spec))) \
            == backbone_to_config(spec)

    def test_missing_class_count_rejected(self):
        with pytest.raises(ConfigError, match="class_count"):
            backbone_from_config({"family": "resnet", "n": 3})


class TestSettingsCheckThemselves:
    """Every settings class rejects a bad value when it is constructed, so a
    copy made with ``dataclasses.replace`` is checked too."""

    @pytest.mark.parametrize("valid,change,message", [
        (ResNet(n=1, class_count=3), {"n": 0},
         "resnet units per compartment must be >= 1, got 0"),
        (DenseNet(growth=2, class_count=3), {"growth": 0},
         "densenet growth must be >= 1, got 0"),
        (WsmsSpec(ResNet(n=1, class_count=3)), {"stages": 99},
         "stages=99 exceeds the backbone's k=3 convolution blocks"),
        (TrainConfig(epochs=1), {"epochs": -1}, "epochs must be >= 0, got -1"),
        (SynthScaleConfig(), {"noise": -1}, "noise must be >= 0, got -1"),
        (CifarLimits(), {"train_limit": -1}, "train_limit must be >= 0, got -1"),
    ], ids=["ResNet", "DenseNet", "WsmsSpec", "TrainConfig",
            "SynthScaleConfig", "CifarLimits"])
    def test_replace_with_a_bad_value_raises(self, valid, change, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            dataclasses.replace(valid, **change)

    def test_train_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            TrainConfig(epochs=1).epochs = 2


class TestForwardShapes:
    def test_resnet_stage_output_resolution(self):
        spec = WsmsSpec(ResNet(n=1, class_count=5, channels=(8, 16)), stages=1)
        model = build_model(spec, seed=0)
        feats = model.stage_features(Tensor(np.zeros((2, 3, 32, 32))))
        assert feats[0].shape == (2, 16, 16, 16)

    def test_densenet_forward_shape(self):
        spec = WsmsSpec(DenseNet(growth=4, class_count=7, layers_per_block=2, blocks=2), stages=1)
        model = build_model(spec, seed=0)
        logits = model.forward(Tensor(np.zeros((2, 3, 16, 16))))
        assert logits.shape == (2, 7)

    def test_all_stages_share_final_resolution(self):
        spec = WsmsSpec(ResNet(n=2, class_count=10), stages=3)
        model = build_model(spec, seed=0)
        feats = model.stage_features(Tensor(np.zeros((1, 3, 32, 32))))
        assert [f.shape[2:] for f in feats] == [(8, 8)] * 3
        assert [f.shape[1] for f in feats] == [64, 32, 16]
