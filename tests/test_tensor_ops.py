import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from wsmsnet import model, ops
from wsmsnet.autodiff import Tape, Tensor, using_precision
from wsmsnet.layers import BatchNorm, Conv2dLayer
from wsmsnet.model import build_model
from wsmsnet.specs import BnSite, ConvSite, Unit, WsmsSpec


def tracked(arr) -> Tensor:
    t = Tensor(arr)
    t.requires_grad = True
    return t


class TestTensor:
    def test_rejects_zero_extents(self):
        with pytest.raises(ValueError, match="extents"):
            Tensor(np.empty((2, 0, 3)))

    def test_item_requires_scalar(self):
        with pytest.raises(ValueError, match="single-element"):
            Tensor(np.zeros((2, 2))).item()

    def test_default_dtype_follows_precision(self):
        assert Tensor([1.0]).dtype == np.float32
        with using_precision("f64"):
            assert Tensor([1.0]).dtype == np.float64


class TestTapeLifecycle:
    def test_tapes_do_not_nest(self):
        with Tape():
            with pytest.raises(RuntimeError, match="already active"):
                with Tape():
                    pass

    def test_backward_requires_scalar_loss(self):
        x = tracked(np.ones((2, 3)))
        with Tape() as tape:
            y = ops.relu(x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_backward_rejects_foreign_loss(self):
        x = tracked(np.ones(3))
        with Tape() as t1:
            loss = ops.sum_all(x)
        with Tape() as t2:
            with pytest.raises(RuntimeError, match="not produced on this tape"):
                t2.backward(loss)
        del t1

    def test_backward_releases_tape_by_default(self):
        x = tracked(np.ones(3))
        with Tape() as tape:
            loss = ops.sum_all(x)
        tape.backward(loss)
        assert tape.nodes == []
        with pytest.raises(RuntimeError, match="released"):
            tape.backward(loss)

    def test_raising_closure_still_releases_tape(self):
        x = tracked(np.ones(3))
        with Tape() as tape:
            loss = ops.sum_all(ops.relu(x))

        def broken(g):
            raise ArithmeticError("injected")
        tape.nodes[0].fn = broken  # relu's node, reached after sum_all's
        with pytest.raises(ArithmeticError, match="injected"):
            tape.backward(loss)
        assert tape.nodes == []
        with pytest.raises(RuntimeError, match="released"):
            tape.backward(loss)

    def test_backward_frees_each_node_once_it_has_run(self):
        x = tracked(np.ones((2, 3)))
        with Tape() as tape:
            loss = ops.sum_all(ops.relu(ops.scale(x, 2.0)))
        first, seen = tape.nodes[0].fn, []

        def spy(g):
            seen.append(len(tape.nodes))
            return first(g)
        tape.nodes[0].fn = spy
        tape.backward(loss)
        assert seen == [0]

    def test_map_holds_exactly_the_tracked_leaves(self):
        rng = np.random.default_rng(2)
        x = tracked(rng.standard_normal((2, 3, 4, 4)))
        w = tracked(rng.standard_normal((3, 3, 3, 3)))
        fixed = Tensor(rng.standard_normal((2, 3, 4, 4)))  # a leaf, not tracked
        with Tape() as tape:
            y = ops.conv2d(x, w, padding=1)
            z = ops.relu(ops.add(y, fixed))
            loss = ops.sum_all(ops.mul(z, y))
        grads = tape.backward(loss)
        assert {id(t) for t in grads} == {id(x), id(w)}
        assert tape.nodes == []

    def test_shared_tensor_grads_sum_across_sites(self):
        x = tracked(np.array([1.0, 2.0]))
        with Tape() as tape:
            loss = ops.sum_all(ops.add(x, x))
        grads = tape.backward(loss)
        np.testing.assert_allclose(grads[x], [2.0, 2.0])


class TestTapeLiveness:
    """What a recorded graph keeps alive: only the arrays a backward reads."""

    @staticmethod
    def spied(kind, fn, live):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            live.setdefault(kind, []).append(weakref.ref(out.data))
            return out
        return call

    def test_residual_forward_keeps_only_what_backward_reads(self, monkeypatch):
        live = {}
        monkeypatch.setattr(model, "add", self.spied("add", ops.add, live))
        monkeypatch.setattr(model, "relu", self.spied("relu", ops.relu, live))
        params, rng = [], np.random.default_rng(0)
        conv1, conv2 = (Conv2dLayer(params, f"conv{i}", 4, 4, 3, 1, 1, rng) for i in (1, 2))
        bn1, bn2 = (BatchNorm(params, f"bn{i}", 4) for i in (1, 2))
        unit = Unit("residual", 1, (ConvSite("conv1", 4, 4), BnSite("bn1", 4),
                                    ConvSite("conv2", 4, 4), BnSite("bn2", 4)))
        spied = [self.spied("conv", conv1, live), self.spied("bn", bn1, live),
                 self.spied("conv", conv2, live), self.spied("bn", bn2, live)]
        x = tracked(rng.standard_normal((2, 4, 6, 6)))
        with Tape() as tape:
            y = model.run_unit(unit, spied, x, training=True)
            loss = ops.sum_all(y)
        alive = {kind: [ref() is not None for ref in refs] for kind, refs in live.items()}
        # batch norm outputs are read by no backward; the ReLU after the first
        # keeps only the function that computes it again from conv1's output,
        # and so does conv2 for that ReLU's output; add's backward reads
        # nothing, and the last ReLU, over add's output, keeps its own output
        assert alive == {"conv": [True, True], "bn": [False, False], "add": [False],
                         "relu": [False, True]}
        assert x in tape.backward(loss)

    def test_spent_tape_frees_activations_while_logits_live(self):
        rng = np.random.default_rng(1)
        x = tracked(rng.standard_normal((2, 3, 6, 6)))
        w1 = tracked(rng.standard_normal((4, 3, 3, 3)))
        w2 = tracked(rng.standard_normal((5, 4, 3, 3)))
        with Tape() as tape:
            h = ops.relu(ops.conv2d(x, w1, padding=1))
            logits = ops.reshape(ops.global_avg_pool(ops.conv2d(h, w2, padding=1)), (2, 5))
            loss = ops.softmax_cross_entropy(logits, np.array([0, 3]))
        conv_input = weakref.ref(h.data)
        del h
        assert conv_input() is not None
        tape.backward(loss)
        assert conv_input() is None
        assert logits.shape == (2, 5) and loss.item() > 0


class TestConv2d:
    def test_identity_kernel_preserves_input(self):
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 5, 5)))
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        y = ops.conv2d(x, Tensor(w), stride=1, padding=1)
        np.testing.assert_array_equal(y.data, x.data)

    def test_known_cross_correlation_value(self):
        x = Tensor(np.arange(9.0).reshape(1, 1, 3, 3))
        w = Tensor(np.ones((1, 1, 2, 2)))
        y = ops.conv2d(x, w)
        expected = np.array([[0 + 1 + 3 + 4, 1 + 2 + 4 + 5],
                             [3 + 4 + 6 + 7, 4 + 5 + 7 + 8]], dtype=np.float32)
        np.testing.assert_array_equal(y.data[0, 0], expected)

    def test_stride_and_padding_shapes(self):
        x = Tensor(np.zeros((1, 4, 32, 32)))
        w = Tensor(np.zeros((8, 4, 3, 3)))
        assert ops.conv2d(x, w, stride=1, padding=1).shape == (1, 8, 32, 32)
        assert ops.conv2d(x, w, stride=2, padding=1).shape == (1, 8, 16, 16)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 4, 8, 8)))
        w = Tensor(np.zeros((8, 3, 3, 3)))
        with pytest.raises(ValueError, match="channel"):
            ops.conv2d(x, w)


def reference_conv2d(x, w, stride, padding, g=None):
    """Whole-batch im2col lowering, as conv2d computed it before it worked
    block by block. Returns the output, or (out, dx, dw) for gradient g."""
    n, c, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    cols = cols.reshape(n, c * kh * kw, oh * ow)
    w2 = w.reshape(cout, c * kh * kw)
    out = np.matmul(w2, cols).reshape(n, cout, oh, ow)
    if g is None:
        return out
    g2 = g.reshape(n, cout, oh * ow)
    dw = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    d6 = np.matmul(w2.T, g2).reshape(n, c, kh, kw, oh, ow)
    dxp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding), dtype=d6.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += d6[:, :, i, j]
    if padding:
        dxp = np.ascontiguousarray(dxp[:, :, padding:padding + h, padding:padding + wd])
    return out, dxp, dw


def exact(*arrays, requires_grad=False):
    """Tensors keeping each array's own dtype."""
    tensors = [Tensor(arr, dtype=arr.dtype) for arr in arrays]
    for t in tensors:
        t.requires_grad = requires_grad
    return tensors


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestConv2dBlocking:
    """Block-by-block lowering must reproduce whole-batch lowering bit for bit."""

    @staticmethod
    def check(monkeypatch, rng, shape, cout, kernel, stride, padding, dtype):
        """Untaped and taped output and taped gradients, for every block size."""
        n, cin = shape[:2]
        # zero entries of both signs exercise the sign of zero sums
        x = (rng.standard_normal(shape) * (rng.random(shape) > 0.2)).astype(dtype)
        w = rng.standard_normal((cout, cin, kernel, kernel)).astype(dtype)
        expected = reference_conv2d(x, w, stride, padding)
        g = (rng.standard_normal(expected.shape) * (rng.random(expected.shape) > 0.3)).astype(dtype)
        expected_grads = reference_conv2d(x, w, stride, padding, g)
        example_bytes = cin * kernel * kernel * expected.shape[2] * expected.shape[3] * x.itemsize
        # 1 example per block, 2 per block with a ragged last block, the whole batch
        for budget in (1, example_bytes, 2 * example_bytes, ops.COLUMN_BLOCK_BYTES):
            monkeypatch.setattr(ops, "COLUMN_BLOCK_BYTES", budget)
            assert_same_bits(ops.conv2d(*exact(x, w), stride=stride, padding=padding).data,
                             expected)
            with Tape() as tape:
                y = ops.conv2d(*exact(x, w, requires_grad=True), stride=stride,
                               padding=padding)
            assert_same_bits(y.data, expected)
            grads = tape.nodes[-1].fn(g)
            tape.release()
            assert len(grads) == 2
            for actual, wanted in zip(grads, expected_grads[1:]):
                assert_same_bits(actual, wanted)

    @pytest.mark.parametrize("kernel,stride,padding,extent,channels,dtype", list(
        itertools.product((1, 3), (1, 2), (0, 1, 2), ((7, 7), (8, 8), (5, 8)), (1, 3, 8),
                          (np.float32, np.float64))))
    def test_matches_whole_batch_lowering(self, monkeypatch, kernel, stride, padding, extent,
                                          channels, dtype):
        # TestLowering's grid: at stride 2 dx is summed on phase planes, whose
        # grid exceeds the output (g zero-extended) at 8x8 without padding,
        # and exceeds the input (planes cropped) at padding 2
        rng = np.random.default_rng([kernel, stride, padding, *extent, channels])
        self.check(monkeypatch, rng, (5, channels, *extent), 4, kernel, stride, padding, dtype)

    @pytest.mark.parametrize("kernel,height,width,dtype", list(itertools.product(
        (1, 2, 3), (7, 8), (6, 9), (np.float32, np.float64))))
    def test_matches_whole_batch_lowering_strided_padded(self, monkeypatch, kernel, height,
                                                         width, dtype):
        # stride 2 over a padded input: taps are clipped to the image at the
        # start and, depending on kernel and extent, at the end of each axis
        rng = np.random.default_rng(kernel * 100 + height * 10 + width)
        self.check(monkeypatch, rng, (5, 3, height, width), 4, kernel, 2, 1, dtype)

    @pytest.mark.parametrize("stride,padding", ((1, 0), (2, 0), (1, 2)))
    def test_infinite_weight_reaches_only_its_taps(self, stride, padding):
        # the gradient grid exceeds the output in the first two and the input
        # in the last; the products of g's zero extension (inf * 0 = nan)
        # must not reach dx
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        w[1, 2, 0, 0] = np.inf
        with np.errstate(invalid="ignore"):  # inf - inf in the sums over inputs
            expected = reference_conv2d(x, w, stride, padding)
            g = rng.standard_normal(expected.shape).astype(np.float32)
            with Tape() as tape:
                ops.conv2d(*exact(x, w, requires_grad=True), stride=stride, padding=padding)
            dx = tape.nodes[-1].fn(g)[0]
            tape.release()
            wanted = reference_conv2d(x, w, stride, padding, g)[1]
        assert np.isfinite(wanted).any()
        np.testing.assert_array_equal(dx, wanted)

    def test_untaped_conv_holds_no_whole_batch_columns(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((64, 16, 32, 32)), dtype=np.float32)
        w = Tensor(rng.standard_normal((16, 16, 3, 3)), dtype=np.float32)
        whole_batch_columns = 64 * 16 * 9 * 32 * 32 * 4  # 37.7 MB
        tracemalloc.start()
        try:
            ops.conv2d(x, w, padding=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < whole_batch_columns

    @staticmethod
    def check_taped_peaks(stride):
        rng = np.random.default_rng(0)
        x = tracked(rng.standard_normal((64, 16, 32, 32)))
        w = tracked(rng.standard_normal((16, 16, 3, 3)))
        out = 32 // stride
        g = rng.standard_normal((64, 16, out, out)).astype(np.float32)
        whole_batch_columns = 64 * 16 * 9 * out * out * 4  # 37.7 MB at stride 1
        tracemalloc.start()
        try:
            with Tape() as tape:
                ops.conv2d(x, w, stride=stride, padding=1)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            tape.nodes[-1].fn(g)
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            tape.release()
        assert forward_peak < whole_batch_columns
        assert backward_peak < whole_batch_columns

    def test_taped_conv_holds_no_whole_batch_columns(self):
        self.check_taped_peaks(1)

    def test_taped_strided_conv_holds_no_whole_batch_columns(self):
        # phase planes, one block of them, beside the (64, 16, 32, 32) dx
        self.check_taped_peaks(2)

    def test_untracked_input_gets_no_gradient(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 2, 6, 6)).astype(np.float32)
        w = tracked(rng.standard_normal((4, 2, 3, 3)))
        g = rng.standard_normal((3, 4, 6, 6)).astype(np.float32)

        def node_grads(x_tensor):
            with Tape() as tape:
                ops.conv2d(x_tensor, w, padding=1)
            grads = tape.nodes[-1].fn(g)
            tape.release()
            return grads

        dx, dw = node_grads(Tensor(x))
        assert dx is None
        _, dw_tracked = node_grads(tracked(x))
        assert_same_bits(dw, dw_tracked)


def naive_im2col(x, kh, kw, stride, padding):
    """(n, C*kh*kw, OH*OW) columns of ``x``, one output position at a time."""
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            for r in range(oh):
                for q in range(ow):
                    cols[:, :, i, j, r, q] = xp[:, :, i + stride * r, j + stride * q]
    return cols.reshape(n, c * kh * kw, oh * ow)


class TestLowering:
    """``_lowered`` yields, block by block, exactly the naive im2col columns."""

    @pytest.mark.parametrize("kernel,stride,padding,extent,channels", list(itertools.product(
        (1, 3), (1, 2), (0, 1, 2), ((7, 7), (8, 8), (5, 8)), (1, 3, 8))))
    def test_matches_naive_im2col(self, kernel, stride, padding, extent, channels):
        rng = np.random.default_rng(sum(extent) * 100 + channels * 10 + padding)
        n = 5
        x = signed_zeros(rng, (n, channels, *extent), np.float32)
        expected = naive_im2col(x, kernel, kernel, stride, padding)
        oh, ow = ((size + 2 * padding - kernel) // stride + 1 for size in extent)
        # 2 and 3 leave a partial last block; 5 is the whole batch
        for block in (1, 2, 3, n):
            lowered = np.concatenate([cols.copy() for _, cols in ops._lowered(
                x, block, kernel, kernel, stride, padding, oh, ow)])
            assert_same_bits(lowered, expected)


class TestPooling:
    def test_avg_pool_half_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        y = ops.avg_pool_half(x)
        np.testing.assert_array_equal(y.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_half_rejects_odd_extent(self):
        with pytest.raises(ValueError, match="even"):
            ops.avg_pool_half(Tensor(np.zeros((1, 1, 3, 4))))

    def test_global_avg_pool(self):
        x = Tensor(np.arange(8.0).reshape(1, 2, 2, 2))
        y = ops.global_avg_pool(x)
        np.testing.assert_allclose(y.data.reshape(-1), [1.5, 5.5])
        assert y.shape == (1, 2, 1, 1)


class TestElementwise:
    def test_relu_clamps_negatives(self):
        y = ops.relu(Tensor(np.array([-2.0, 0.0, 3.0])))
        np.testing.assert_array_equal(y.data, [0.0, 0.0, 3.0])

    def test_relu_gradient_mask(self, f64):
        x = tracked(np.array([-1.0, 0.0, 2.0]))
        with Tape() as tape:
            loss = ops.sum_all(ops.relu(x))
        grads = tape.backward(loss)
        np.testing.assert_array_equal(grads[x], [0.0, 0.0, 1.0])

    def test_subsample2_takes_even_grid(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        np.testing.assert_array_equal(ops.subsample2(x).data[0, 0], [[0, 2], [8, 10]])

    def test_pad_channels_appends_zero_planes(self):
        x = Tensor(np.ones((1, 2, 2, 2)))
        y = ops.pad_channels(x, 5)
        assert y.shape == (1, 5, 2, 2)
        np.testing.assert_array_equal(y.data[:, :2], x.data)
        np.testing.assert_array_equal(y.data[:, 2:], 0.0)

    def test_concat_channels_order_and_split_gradient(self):
        a = tracked(np.full((1, 2, 2, 2), 1.0))
        b = tracked(np.full((1, 3, 2, 2), 2.0))
        with Tape() as tape:
            y = ops.concat_channels([a, b])
            loss = ops.sum_all(ops.mul(y, y))
        assert y.shape == (1, 5, 2, 2)
        np.testing.assert_array_equal(y.data[:, :2], 1.0)
        np.testing.assert_array_equal(y.data[:, 2:], 2.0)
        grads = tape.backward(loss)
        np.testing.assert_array_equal(grads[a], 2.0 * a.data)
        np.testing.assert_array_equal(grads[b], 2.0 * b.data)

    def test_concat_channels_spatial_mismatch_raises(self):
        with pytest.raises(ValueError, match="does not align"):
            ops.concat_channels([Tensor(np.zeros((1, 2, 4, 4))),
                                 Tensor(np.zeros((1, 2, 2, 2)))])


def reference_batch_norm(x, gamma, beta, running_mean, running_var, training, g,
                         momentum=0.1, eps=1e-5):
    """batch_norm with one temporary per operation, as it computed before its
    passes ran in place. Moves the running buffers in train mode, as
    batch_norm does, and returns (out, dx, dgamma, dbeta) for gradient g."""
    n, c, h, w = x.shape
    if training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean
        running_var *= (1.0 - momentum)
        running_var += momentum * var
    else:
        mean, var = running_mean.copy(), running_var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None, None]) * inv[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    dbeta = g.sum(axis=(0, 2, 3))
    dgamma = (g * xhat).sum(axis=(0, 2, 3))
    coeff = (gamma * inv)[None, :, None, None]
    if training:
        m = n * h * w
        dx = coeff * (g - dbeta[None, :, None, None] / m
                      - xhat * dgamma[None, :, None, None] / m)
    else:
        dx = g * coeff
    return out, dx, dgamma, dbeta


def signed_zeros(rng, shape, dtype, keep=0.7):
    """Normal draws with about 1 - ``keep`` of them zeroed: +0.0 where the
    draw was positive, -0.0 where it was negative."""
    return (rng.standard_normal(shape) * (rng.random(shape) < keep)).astype(dtype)


class TestBatchNormOp:
    def test_eval_gradient_ignores_later_running_buffer_updates(self):
        rng = np.random.default_rng(4)
        x = tracked(rng.standard_normal((2, 3, 4, 4)))
        gamma = tracked(rng.standard_normal(3))
        beta = tracked(rng.standard_normal(3))
        fixed = Tensor(rng.standard_normal((2, 3, 4, 4)))
        running_mean = rng.standard_normal(3).astype(np.float32)
        running_var = rng.random(3).astype(np.float32) + 0.5

        def recorded():
            with Tape() as tape:
                y = ops.batch_norm(x, gamma, beta, running_mean, running_var, training=False)
                loss = ops.sum_all(ops.mul(y, fixed))
            return tape, loss

        tape, loss = recorded()
        expected = tape.backward(loss)
        tape, loss = recorded()
        # a training-mode call moves the running buffers in place
        ops.batch_norm(Tensor(rng.standard_normal((2, 3, 4, 4)) + 3.0), gamma, beta,
                       running_mean, running_var, training=True, momentum=0.5)
        grads = tape.backward(loss)
        for t in (x, gamma, beta):
            assert_same_bits(grads[t], expected[t])


class TestBatchNormBits:
    """In-place batch norm must reproduce the one-temporary-per-operation
    formulas bit for bit."""

    @pytest.mark.parametrize("training,dtype,shape", list(itertools.product(
        (True, False), (np.float32, np.float64), ((5, 3, 7, 7), (8, 4, 4, 4), (2, 6, 1, 3)))))
    def test_matches_reference_formulas(self, training, dtype, shape):
        rng = np.random.default_rng(sum(shape) + 10 * training)
        c = shape[1]
        x, g = signed_zeros(rng, shape, dtype), signed_zeros(rng, shape, dtype)
        gamma, beta = signed_zeros(rng, c, dtype, 0.5), signed_zeros(rng, c, dtype, 0.5)
        # a zero mean centers x's zeros to zeros of the same sign in eval mode
        running_mean = signed_zeros(rng, c, dtype, 0.5)
        running_var = (rng.random(c) + 0.5).astype(dtype)
        ref_mean, ref_var = running_mean.copy(), running_var.copy()
        expected = reference_batch_norm(x, gamma, beta, ref_mean, ref_var, training, g)
        with Tape() as tape:
            y = ops.batch_norm(*exact(x, gamma, beta, requires_grad=True),
                               running_mean, running_var, training=training)
        assert_same_bits(y.data, expected[0])
        assert_same_bits(running_mean, ref_mean)
        assert_same_bits(running_var, ref_var)
        grads = tape.nodes[-1].fn(g)
        tape.release()
        assert len(grads) == 3
        for actual, wanted in zip(grads, expected[1:]):
            assert_same_bits(actual, wanted)


class TestRecompute:
    """A recorded batch norm's output, and a ReLU's over it, can be computed
    again; what ``recompute`` returns must be the forward output's bytes."""

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_train_mode_recompute_returns_the_forward_bytes(self, dtype):
        rng = np.random.default_rng(3)
        half = rng.integers(-2, 3, size=(1, 3, 4, 4)).astype(dtype)
        # every channel sums to exactly 0, so its mean is 0 and its zeros
        # normalize to exact zeros; -0.0 survives where beta is -0.0
        x = np.concatenate([half, -half])
        gamma = np.array([1.5, -0.75, 2.0], dtype=dtype)
        beta = np.array([0.0, -0.0, -0.5], dtype=dtype)
        stats = np.zeros(3, dtype), np.ones(3, dtype)
        with Tape() as tape:
            y = ops.batch_norm(*exact(x, gamma, beta, requires_grad=True), *stats,
                               training=True)
            z = ops.relu(y)
        zeros = y.data[y.data == 0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        for t in (y, z):
            assert_same_bits(t.recompute(), t.data)
        tape.release()
        untaped = ops.batch_norm(*exact(x, gamma, beta), *stats, training=True)
        assert untaped.recompute is None and ops.relu(untaped).recompute is None

    def test_backward_normalizes_once_per_bn_relu(self, monkeypatch, tiny_backbone):
        # the conv reading a BN-ReLU output computes it again in its backward;
        # the ReLU's backward, which runs next, takes the mask from that array
        spec = WsmsSpec(tiny_backbone, stages=1)
        net = build_model(spec, seed=0)
        counts = {"bn_relu": 0, "normalized": 0}
        relu, normalized = ops.relu, ops._normalized

        def counted_relu(x):
            out = relu(x)
            counts["bn_relu"] += out.recompute is not None
            return out

        def counted_normalized(*args, **kwargs):
            counts["normalized"] += 1
            return normalized(*args, **kwargs)

        monkeypatch.setattr(model, "relu", counted_relu)
        monkeypatch.setattr(ops, "_normalized", counted_normalized)
        x = Tensor(np.random.default_rng(2).standard_normal((2, 3, 8, 8)))
        with Tape() as tape:
            loss = ops.softmax_cross_entropy(net.forward(x, training=True), np.array([0, 1]))
        counts["normalized"] = 0
        tape.backward(loss)
        assert counts["bn_relu"] == 3 and counts["normalized"] == 3  # stem and two units


def _batch_norm_call(training):
    def call(x, rng):
        c = x.shape[1]
        gamma, beta = exact(rng.standard_normal(c).astype(x.dtype),
                            rng.standard_normal(c).astype(x.dtype), requires_grad=True)
        return ops.batch_norm(x, gamma, beta, np.zeros(c, x.dtype), np.ones(c, x.dtype),
                              training=training)
    return call


def _conv2d_call(x, rng):
    w, = exact(rng.standard_normal((4, x.shape[1], 3, 3)).astype(x.dtype), requires_grad=True)
    return ops.conv2d(x, w, padding=1)


class TestOpsLeaveInputsAlone:
    """An op writes neither its input's data nor the gradient it is handed:
    add's backward hands one gradient array to two inputs."""

    @pytest.mark.parametrize("call", [
        _batch_norm_call(True), _batch_norm_call(False), lambda x, rng: ops.relu(x), _conv2d_call,
    ], ids=["batch_norm-train", "batch_norm-eval", "relu", "conv2d"])
    def test_forward_and_backward_keep_x_and_g(self, call):
        rng = np.random.default_rng(7)
        x_data = signed_zeros(rng, (3, 4, 6, 6), np.float32)
        x, = exact(x_data.copy(), requires_grad=True)
        with Tape() as tape:
            y = call(x, rng)
        assert_same_bits(x.data, x_data)
        g_data = signed_zeros(rng, y.shape, np.float32)
        g = g_data.copy()
        tape.nodes[-1].fn(g)
        tape.release()
        assert_same_bits(x.data, x_data)
        assert_same_bits(g, g_data)


class TestLinearAndLoss:
    def test_linear_known_value(self):
        x = Tensor(np.array([[1.0, 2.0]]))
        w = Tensor(np.array([[3.0, 4.0], [0.5, -1.0]]))
        b = Tensor(np.array([1.0, 0.0]))
        np.testing.assert_allclose(ops.linear(x, w, b).data, [[12.0, -1.5]])

    def test_uniform_logits_give_log_class_count(self, f64):
        logits = Tensor(np.zeros((4, 10)))
        loss = ops.softmax_cross_entropy(logits, np.zeros(4, dtype=np.int64))
        assert loss.item() == pytest.approx(np.log(10.0), rel=1e-12)

    def test_confident_correct_logit_drives_loss_to_zero(self, f64):
        logits = np.full((1, 5), -50.0)
        logits[0, 2] = 50.0
        loss = ops.softmax_cross_entropy(Tensor(logits), np.array([2]))
        assert loss.item() < 1e-12

    def test_loss_gradient_rows_sum_to_zero(self, f64):
        rng = np.random.default_rng(3)
        logits = tracked(rng.standard_normal((6, 4)))
        with Tape() as tape:
            loss = ops.softmax_cross_entropy(logits, rng.integers(0, 4, 6))
        grads = tape.backward(loss)
        np.testing.assert_allclose(grads[logits].sum(axis=1), 0.0, atol=1e-15)

    def test_label_out_of_range_raises(self):
        with pytest.raises(ValueError, match="label"):
            ops.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestGraphAlgebra:
    def test_branch_reuse_doubles_gradient(self, f64):
        rng = np.random.default_rng(11)
        x = tracked(rng.standard_normal((2, 3, 4, 4)))
        w = tracked(rng.standard_normal((3, 3, 3, 3)))

        def single():
            with Tape() as tape:
                y = ops.conv2d(x, w, padding=1)
                loss = ops.sum_all(y)
            return tape.backward(loss)[w]

        with Tape() as tape:
            y = ops.conv2d(x, w, padding=1)
            loss = ops.sum_all(ops.add(y, y))
        doubled = tape.backward(loss)[w]
        np.testing.assert_allclose(doubled, 2.0 * single(), rtol=0, atol=1e-12)

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 4, 8, 8)))
        w = Tensor(rng.standard_normal((4, 4, 3, 3)))
        a = ops.conv2d(x, w, padding=1).data
        b = ops.conv2d(x, w, padding=1).data
        assert a.tobytes() == b.tobytes()

    def test_ops_preserve_double_precision(self, f64):
        x = Tensor(np.ones((1, 2, 4, 4)))
        w = Tensor(np.ones((2, 2, 3, 3)))
        y = ops.avg_pool_half(ops.relu(ops.conv2d(x, w, padding=1)))
        assert y.dtype == np.float64
