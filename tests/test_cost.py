import io

import pytest

from wsmsnet.cost import cost_report, stage_overhead
from wsmsnet.model import build_model
from wsmsnet.specs import DenseNet, ResNet, WsmsSpec

RESNET = ResNet(n=18, class_count=10)
DENSENET = DenseNet(growth=24, class_count=10)

# frozen reference totals for the residual family at depth 110 and its
# multi-stage variants (input 32x32, three stages)
RESNET_PARAM_TOTALS = {
    ("resnet", 18, 1, "none", "shared"): 1_727_962,
    ("resnet", 19, 1, "none", "shared"): 1_825_178,
    ("resnet", 20, 1, "none", "shared"): 1_922_394,
    ("resnet", 18, 3, "none", "shared"): 1_733_114,
    ("resnet", 18, 3, "conv1x1", "shared"): 1_747_866,
    ("resnet", 18, 3, "conv3x3", "shared"): 1_862_554,
    ("resnet", 18, 3, "conv1x1", "unshared"): 2_241_786,
}

DENSENET_PARAM_TOTALS = {
    (24, 1, "none", "shared"): 27_249_082,
    (26, 1, "none", "shared"): 31_919_802,
    (24, 3, "none", "shared"): 27_402_330,
    (24, 3, "conv1x1", "shared"): 27_953_274,
    (24, 3, "conv3x3", "shared"): 32_721_018,
    (24, 3, "conv1x1", "unshared"): 41_922_778,
}


class TestParameterTotals:
    @pytest.mark.parametrize("key,total", sorted(RESNET_PARAM_TOTALS.items()))
    def test_residual_family(self, key, total):
        _, n, stages, integration, sharing = key
        spec = WsmsSpec(ResNet(n=n, class_count=10), stages, integration,
                        sharing=sharing)
        assert cost_report(spec).total_params == total

    @pytest.mark.parametrize("key,total", sorted(DENSENET_PARAM_TOTALS.items()))
    def test_dense_family(self, key, total):
        growth, stages, integration, sharing = key
        spec = WsmsSpec(DenseNet(growth=growth, class_count=10), stages, integration,
                        sharing=sharing)
        assert cost_report(spec).total_params == total


class TestMultiplicationTotals:
    def test_residual_single_stage(self):
        spec = WsmsSpec(RESNET, 1)
        assert cost_report(spec, (32, 32)).total_mults == 252_887_040

    def test_residual_three_stage_with_merge_conv(self):
        spec = WsmsSpec(RESNET, 3, "conv1x1")
        assert cost_report(spec, (32, 32)).total_mults == 301_423_616

    def test_dense_single_stage(self):
        spec = WsmsSpec(DENSENET, 1)
        assert cost_report(spec, (32, 32)).total_mults == 6_889_324_544

    def test_dense_three_stage_with_merge_conv(self):
        spec = WsmsSpec(DENSENET, 3, "conv1x1")
        assert cost_report(spec, (32, 32)).total_mults == 8_454_528_000

    def test_sharing_does_not_change_mults(self):
        shared = cost_report(WsmsSpec(RESNET, 3, "conv1x1"), (32, 32))
        unshared = cost_report(WsmsSpec(RESNET, 3, "conv1x1",
                                        sharing="unshared"), (32, 32))
        assert shared.total_mults == unshared.total_mults

    def test_conv_mults_scale_quadratically_with_resolution(self):
        spec = WsmsSpec(ResNet(n=1, class_count=5, channels=(8, 16)), stages=1)
        small = cost_report(spec, (16, 16)).total_mults
        large = cost_report(spec, (32, 32)).total_mults
        assert large == 4 * small

    def test_later_stages_are_cheap(self):
        for backbone in (RESNET, DENSENET):
            ratios = stage_overhead(WsmsSpec(backbone, 3, "conv1x1"), (32, 32))
            assert set(ratios) == {2, 3}
            assert ratios[2] < 0.25
            assert ratios[3] < ratios[2]


class TestStaticDynamicAgreement:
    @pytest.mark.parametrize("spec", [
        WsmsSpec(ResNet(n=1, class_count=5, channels=(8, 16)), 1),
        WsmsSpec(ResNet(n=1, class_count=5, channels=(8, 16)), 2, "conv1x1", 16),
        WsmsSpec(ResNet(n=2, class_count=7), 3, "conv3x3", 32),
        WsmsSpec(ResNet(n=2, class_count=7), 2, "conv1x1", 32, sharing="unshared"),
        WsmsSpec(DenseNet(growth=4, class_count=5, layers_per_block=3, blocks=2), 2, "conv1x1", 8),
    ], ids=["tiny-1", "tiny-2", "res-3x3", "res-unshared", "dense"])
    def test_count_matches_instantiated_store(self, spec):
        assert cost_report(spec).total_params == build_model(spec, 0).param_count()


class TestReportStructure:
    def test_totals_equal_row_sums(self):
        report = cost_report(WsmsSpec(RESNET, 3, "conv1x1"), (32, 32))
        assert report.total_params == sum(r.params for r in report.rows)
        assert report.total_mults == sum(r.mults for r in report.rows)
        assert report.total_params_ex_bn == sum(
            r.params for r in report.rows if r.kind != "bn")

    def test_shared_convolutions_count_once(self):
        report = cost_report(WsmsSpec(RESNET, 3, "conv1x1"), (32, 32))
        stage2_conv_params = sum(r.params for r in report.rows
                                 if r.stage == 2 and r.kind == "conv")
        stage2_conv_mults = sum(r.mults for r in report.rows
                                if r.stage == 2 and r.kind == "conv")
        assert stage2_conv_params == 0
        assert stage2_conv_mults > 0

    def test_csv_round_trips_row_count(self):
        report = cost_report(WsmsSpec(ResNet(n=1, class_count=5, channels=(8, 16)), 2,
                                      "conv1x1", 16), (32, 32))
        buf = io.StringIO()
        report.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "layer_path,kind,stage,params,mults,out_shape"
        assert len(lines) == len(report.rows) + 1
