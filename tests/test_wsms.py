import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_layout import INPUT, wsms_specs
from wsmsnet import ops, trainer
from wsmsnet.autodiff import Tape, Tensor, using_precision
from wsmsnet.cost import cost_report
from wsmsnet.data import Dataset
from wsmsnet.model import Model, build_model, image_pyramid
from wsmsnet.specs import INTEGRATIONS, SHARINGS, DenseNet, ResNet, WsmsSpec


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

    def test_integration_conv_reshapes_merged_width(self, tiny_wsms_spec, layer_at):
        model = build_model(tiny_wsms_spec, seed=0)
        logits = model.forward(batch((2, 3, 32, 32)))
        assert logits.shape == (2, 5)
        integration_conv = layer_at([model.integration], "integration.conv")
        assert integration_conv.in_channels == 24
        assert integration_conv.out_channels == 16

    def test_stage_gains_isolate_pathways(self, tiny_backbone):
        spec = WsmsSpec(tiny_backbone, stages=2, integration="none")
        model = build_model(spec, seed=5)
        x = batch((2, 3, 32, 32), seed=4)
        feats = model.stage_features(x)

        def forward(stage_gains):
            scaled = [ops.scale(f, g) for f, g in zip(feats, stage_gains)]
            pooled = ops.global_avg_pool(model.integrate(ops.concat_channels(scaled)))
            return model.fc(ops.reshape(pooled, pooled.shape[:2])).data

        full = model.forward(x).data
        only1 = forward([1.0, 0.0])
        only2 = forward([0.0, 1.0])
        # the classifier is affine, so pathway logits recombine up to the bias
        bias = forward([0.0, 0.0])
        np.testing.assert_allclose(only1 + only2 - bias, full, rtol=1e-4)


class TestWeightSharing:
    def test_stages_reference_identical_conv_objects(self, tiny_wsms_spec, layer_at):
        model = build_model(tiny_wsms_spec, seed=0)
        s1, s2 = model.stages
        assert layer_at(s1.units, "stem") is layer_at(s2.units, "stem")
        assert (layer_at(s1.units, "block1.unit0.conv1")
                is layer_at(s2.units, "block1.unit0.conv1"))
        assert (layer_at(s1.units, "block1.unit0.conv2")
                is layer_at(s2.units, "block1.unit0.conv2"))

    def test_batch_norms_are_private_per_stage(self, tiny_wsms_spec, layer_at):
        model = build_model(tiny_wsms_spec, seed=0)
        s1, s2 = model.stages
        assert layer_at(s1.units, "stage1.stem.bn") is not layer_at(s2.units, "stage2.stem.bn")
        assert (layer_at(s1.units, "stage1.block1.unit0.bn1")
                is not layer_at(s2.units, "stage2.block1.unit0.bn1"))
        names = [e.name for e in model.params]
        assert "stage1.stem.bn.gamma" in names and "stage2.stem.bn.gamma" in names

    def test_running_buffers_diverge_across_stages(self, tiny_wsms_spec, layer_at):
        model = build_model(tiny_wsms_spec, seed=0)
        model.forward(batch((8, 3, 32, 32), seed=9), training=True)
        s1, s2 = model.stages
        assert not np.array_equal(layer_at(s1.units, "stage1.stem.bn").running_mean,
                                  layer_at(s2.units, "stage2.stem.bn").running_mean)

    def test_shared_weight_perturbation_moves_every_stage(self, tiny_wsms_spec, layer_at):
        model = build_model(tiny_wsms_spec, seed=0)
        x = batch((2, 3, 32, 32), seed=7)
        before = [f.data.copy() for f in model.stage_features(x)]
        weight = layer_at(model.stages[0].units, "stem").weight
        weight.data += 0.05
        after = [f.data for f in model.stage_features(x)]
        assert not np.array_equal(before[0], after[0])
        assert not np.array_equal(before[1], after[1])


EVAL_BACKBONES = {
    "resnet": ResNet(n=2, class_count=3, channels=(4, 6, 8)),
    "densenet": DenseNet(growth=2, class_count=3, layers_per_block=2, blocks=3, stem_channels=4),
}
EVAL_SPECS = {
    f"{family}-{stages}-{sharing}": WsmsSpec(backbone, stages, INTEGRATIONS[stages - 1], 5, sharing)
    for (family, backbone), stages, sharing in itertools.product(
        EVAL_BACKBONES.items(), (1, 2, 3), SHARINGS)
}


def eval_model(spec):
    """``spec`` built at seed 0 with every batch norm's running statistics and
    affine parameters drawn, so that no eval-mode pass is an identity."""
    model = build_model(spec, seed=0)
    rng = np.random.default_rng(11)
    for bn in model.batch_norms():
        c = len(bn.running_mean)
        bn.running_mean[...] = rng.normal(0.0, 0.5, c)
        bn.running_var[...] = rng.uniform(0.5, 2.0, c)
        bn.gamma.data[...] = rng.normal(1.0, 0.3, c)
        bn.beta.data[...] = rng.normal(0.0, 0.3, c)
    return model


class TestEvalInPlace:
    """With no tape, eval-mode batch norm, residual add and ReLU write into
    the conv output before them; that path must compute what the recorded
    path does, bit for bit, and write no array the caller or model owns."""

    @pytest.mark.parametrize("spec", list(EVAL_SPECS.values()), ids=list(EVAL_SPECS))
    def test_untaped_logits_equal_the_recorded_paths(self, spec):
        model = eval_model(spec)
        x = batch((3, 3, 8, 8), seed=12)
        untaped = model.forward(x, training=False).data
        with Tape() as tape:
            taped = model.forward(x, training=False).data
        tape.release()
        assert untaped.tobytes() == taped.tobytes()

    @pytest.mark.parametrize("spec", list(EVAL_SPECS.values()), ids=list(EVAL_SPECS))
    def test_eval_writes_no_input_parameter_or_buffer(self, spec):
        model = eval_model(spec)
        x = batch((3, 3, 8, 8), seed=13)
        owned = [x.data] + [e.tensor.data for e in model.params]
        owned += [buf for bn in model.batch_norms() for buf in (bn.running_mean, bn.running_var)]
        before = [a.tobytes() for a in owned]
        model.forward(x, training=False)
        assert [a.tobytes() for a in owned] == before

    def test_out_is_refused_when_the_op_records(self):
        x = Tensor(np.ones((2, 3, 4, 4)), requires_grad=True)
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        calls = {
            "relu": lambda: ops.relu(x, out=x.data),
            "add": lambda: ops.add(x, x, out=x.data),
            "batch_norm": lambda: ops.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3),
                                                 training=False, out=x.data),
        }
        for name, call in calls.items():
            with Tape(), pytest.raises(RuntimeError, match=f"{name}: out="):
                call()
        assert x.data.tobytes() == np.ones((2, 3, 4, 4), dtype=np.float32).tobytes()

    @pytest.mark.parametrize("training", [False, True])
    def test_out_writes_the_same_bits_in_place(self, training):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)))
        gamma, beta = Tensor(rng.standard_normal(3)), Tensor(rng.standard_normal(3))
        # of x's dtype: a wider operand would round differently into out=
        stats = (rng.standard_normal(3, dtype=np.float32),
                 rng.uniform(0.5, 2.0, 3).astype(np.float32))
        calls = {
            "relu": lambda t, **out: ops.relu(t, **out),
            "add": lambda t, **out: ops.add(t, x, **out),
            "batch_norm": lambda t, **out: ops.batch_norm(
                t, gamma, beta, *(s.copy() for s in stats), training=training, **out),
        }
        for name, op in calls.items():
            fresh = op(x).data
            target = x.data.copy()
            written = op(Tensor(target), out=target).data
            assert np.shares_memory(written, target), name
            assert written.tobytes() == fresh.tobytes(), name

    def test_residual_eval_holds_three_activations(self):
        """A residual unit's eval forward holds its input, conv1's output and
        conv2's output, plus one conv's im2col scratch; a batch norm or ReLU
        output of its own per conv would make four."""
        spec = WsmsSpec(ResNet(n=2, class_count=3, channels=(16,)), stages=1, integration="none")
        model = build_model(spec, seed=0)
        x = Tensor(np.random.default_rng(15).standard_normal((64, 3, 32, 32)))
        activation = 64 * 16 * 32 * 32 * 4  # 4 MiB
        tracemalloc.start()
        try:
            model.forward(x, training=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * activation

    def test_residual_features_hold_three_activations(self):
        """The same bound on ``features``, one pass of the whole batch:
        ``forward`` runs a batch of 64 in passes, whose peak stays under the
        bound with or without the in-place path."""
        spec = WsmsSpec(ResNet(n=2, class_count=3, channels=(16,)), stages=1, integration="none")
        model = build_model(spec, seed=0)
        x = Tensor(np.random.default_rng(15).standard_normal((64, 3, 32, 32)))
        activation = 64 * 16 * 32 * 32 * 4  # 4 MiB
        tracemalloc.start()
        try:
            model.features(x, training=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * activation


class TestEvalPasses:
    """With no tape, eval runs the features in passes of ``Model.eval_pass``
    examples and the classifier once over all rows; the logits must be the
    recorded single pass's, bit for bit, and no activation array may span
    the whole batch unless no pass fits the budget."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(wsms_specs(), st.sampled_from(["f32", "f64"]),
           st.sampled_from(["budget", "one", "none"]))
    def test_passes_give_the_single_pass_logits(self, spec, precision, rule):
        """P from the budget, P forced to 1, and a budget no example fits,
        which runs one pass of the whole batch."""
        with using_precision(precision), pytest.MonkeyPatch.context() as patch:
            if rule == "one":
                patch.setattr(Model, "eval_pass", lambda self, x: 1)
            if rule == "none":
                patch.setattr(ops, "COLUMN_BLOCK_BYTES", 1)
            model = eval_model(spec)
            step = model.eval_pass(batch((1, 3, INPUT, INPUT)))
            assert (step == 0) == (rule == "none")
            n = step + 3
            x = batch((n, 3, INPUT, INPUT), seed=16)
            passes = []
            features = Model.features

            def counted(self, y, training):
                passes.append(y.shape[0])
                return features(self, y, training)
            patch.setattr(Model, "features", counted)
            untaped = model.forward(x, training=False).data
            assert passes == ([min(step, n - s) for s in range(0, n, step)] if step else [n])
            with Tape() as tape:
                taped = model.forward(x, training=False).data
            tape.release()
        assert untaped.dtype == taped.dtype == np.dtype(precision.replace("f", "float"))
        assert untaped.tobytes() == taped.tobytes()

    def test_evaluate_holds_no_batch_wide_activation(self):
        """evaluate() of 256 examples at 16 channels, 32x32 runs passes of 16:
        its peak is the batch's image copy (3/16 of one activation array over
        the batch) and a few pass-sized arrays, not the three batch-wide
        arrays of one pass."""
        spec = WsmsSpec(ResNet(n=2, class_count=3, channels=(16,)), stages=1, integration="none")
        model = build_model(spec, seed=0)
        n = 256
        rng = np.random.default_rng(17)
        ds = Dataset(rng.standard_normal((n, 3, 32, 32)).astype(np.float32),
                     np.arange(n) % 3, np.arange(n), 3)
        activation = n * 16 * 32 * 32 * 4  # 16 MiB
        tracemalloc.start()
        try:
            trainer.evaluate(model, ds, batch_size=n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * activation


@pytest.fixture(scope="module")
def backbone():
    return ResNet(n=18, class_count=10)


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
