import numpy as np
import pytest

from wsmsnet.autodiff import Tape, Tensor
from wsmsnet.layers import BatchNorm, Conv2dLayer, LinearLayer, he_init


class TestParamEntries:
    def test_layers_append_their_tensors_in_creation_order(self):
        params, rng = [], np.random.default_rng(0)
        conv = Conv2dLayer(params, "stem", 3, 4, 3, 1, 1, rng)
        bn = BatchNorm(params, "bn", 4)
        fc = LinearLayer(params, "fc", 4, 2, rng)
        assert [(e.name, e.role) for e in params] == [
            ("stem.weight", "conv-weight"), ("bn.gamma", "bn"), ("bn.beta", "bn"),
            ("fc.weight", "fc"), ("fc.bias", "fc")]
        held = [conv.weight, bn.gamma, bn.beta, fc.weight, fc.bias]
        assert all(e.tensor is t for e, t in zip(params, held))
        assert all(e.tensor.requires_grad for e in params)


class TestHeInit:
    def test_scale_tracks_fan_in(self):
        rng = np.random.default_rng(0)
        t = he_init((64, 32, 3, 3), fan_in=32 * 9, rng=rng)
        expected = np.sqrt(2.0 / (32 * 9))
        assert t.data.std() == pytest.approx(expected, rel=0.05)
        assert t.data.mean() == pytest.approx(0.0, abs=expected / 10)

    def test_deterministic_per_seed(self):
        a = he_init((8, 8), 8, np.random.default_rng(7))
        b = he_init((8, 8), 8, np.random.default_rng(7))
        assert a.data.tobytes() == b.data.tobytes()


class TestConv2dLayer:
    def test_registers_weight_with_expected_shape(self):
        params = []
        layer = Conv2dLayer(params, "stem", 3, 16, 3, 1, 1, np.random.default_rng(0))
        assert [e.role for e in params] == ["conv-weight"]
        assert layer.weight.shape == (16, 3, 3, 3)
        y = layer(Tensor(np.zeros((2, 3, 8, 8))))
        assert y.shape == (2, 16, 8, 8)


class TestBatchNorm:
    def build(self, channels=3):
        return BatchNorm([], "bn", channels)

    def test_normalizes_batch_statistics(self):
        bn = self.build()
        rng = np.random.default_rng(1)
        x = Tensor(5.0 + 2.0 * rng.standard_normal((16, 3, 8, 8)))
        y = bn(x, training=True).data
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_constant_input_maps_to_beta(self):
        bn = self.build()
        bn.beta.data[:] = [1.0, -2.0, 0.5]
        y = bn(Tensor(np.full((4, 3, 2, 2), 7.0)), training=True).data
        np.testing.assert_allclose(y[:, 0], 1.0, atol=1e-2)
        np.testing.assert_allclose(y[:, 1], -2.0, atol=1e-2)

    def test_running_stats_converge_to_data_statistics(self):
        bn = self.build(2)
        rng = np.random.default_rng(2)
        x = 3.0 + 0.5 * rng.standard_normal((64, 2, 4, 4))
        for _ in range(300):
            bn(Tensor(x), training=True)
        np.testing.assert_allclose(bn.running_mean, x.mean(axis=(0, 2, 3)), rtol=1e-4)
        np.testing.assert_allclose(bn.running_var, x.var(axis=(0, 2, 3)), rtol=1e-3)

    def test_eval_mode_uses_running_buffers_and_keeps_them_fixed(self):
        bn = self.build(1)
        bn.running_mean[:] = 4.0
        bn.running_var[:] = 4.0
        before = bn.running_mean.copy()
        y = bn(Tensor(np.full((2, 1, 2, 2), 8.0)), training=False).data
        np.testing.assert_allclose(y, (8.0 - 4.0) / np.sqrt(4.0 + 1e-5), rtol=1e-6)
        np.testing.assert_array_equal(bn.running_mean, before)

    def test_train_mode_gradient_matches_finite_difference(self):
        from wsmsnet.autodiff import using_precision
        from wsmsnet.gradcheck import max_rel_error, numeric_grad
        from wsmsnet import ops

        with using_precision("f64"):
            bn = BatchNorm([], "bn", 2)
            rng = np.random.default_rng(3)
            x = Tensor(rng.standard_normal((4, 2, 3, 3)))
            x.requires_grad = True
            fixed = rng.standard_normal((4, 2, 3, 3))

            def loss():
                bn.running_mean[:] = 0.0
                bn.running_var[:] = 1.0
                return ops.sum_all(ops.mul(bn(x, training=True), Tensor(fixed)))

            with Tape() as tape:
                grads = tape.backward(loss())
            numeric = numeric_grad(lambda: loss().item(), x.data, 1e-5)
            assert max_rel_error(grads[x], numeric) < 1e-6


class TestLinearLayer:
    def test_parameter_count_and_shapes(self):
        params = []
        layer = LinearLayer(params, "fc", 112, 10, np.random.default_rng(0))
        assert sum(e.tensor.size for e in params) == 112 * 10 + 10
        y = layer(Tensor(np.zeros((5, 112))))
        assert y.shape == (5, 10)

    def test_bias_starts_at_zero(self):
        layer = LinearLayer([], "fc", 4, 3, np.random.default_rng(0))
        np.testing.assert_array_equal(layer.bias.data, 0.0)
