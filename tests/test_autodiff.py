import numpy as np
import pytest

from spikelat import autodiff
from spikelat.autodiff import (
    Tensor,
    avg_pool2d,
    batchnorm2d,
    conv2d,
    linear,
    sigmoid,
    softmax_rows,
    stack,
)
from spikelat.errors import ContractError, GraphError, NumericsError, ShapeError

from helpers import check_grad, numeric_grad, rel_err


class TestForwardValues:
    def test_linear_known_product(self):
        x = Tensor([[1.0, 2.0]])
        w = Tensor([[1.0, 2.0], [3.0, 3.5]])
        b = Tensor([0.0, 0.0])
        out = linear(x, w, b)
        np.testing.assert_allclose(out.data, [[7.0, 9.0]])

    def test_linear_bias_shifts_every_row(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(3, 2)))
        out0 = linear(x, w, Tensor(np.zeros(2)))
        out1 = linear(x, w, Tensor([1.0, -2.0]))
        np.testing.assert_allclose(out1.data - out0.data, np.tile([1.0, -2.0], (4, 1)))

    def test_conv_all_ones_kernel_sums_window(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, k)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 9.0

    def test_conv_delta_kernel_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 1, 5, 5))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = conv2d(Tensor(x), Tensor(k), pad=1)
        np.testing.assert_allclose(out.data[:, 0], x[:, 0])

    def test_conv_matches_sliding_window_reference(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 5, 4))
        k = rng.normal(size=(4, 3, 2, 2))
        out = conv2d(Tensor(x), Tensor(k)).data
        assert out.shape == (2, 4, 4, 3)
        for n in range(2):
            for o in range(4):
                for i in range(4):
                    for j in range(3):
                        ref = np.sum(x[n, :, i : i + 2, j : j + 2] * k[o])
                        np.testing.assert_allclose(out[n, o, i, j], ref, rtol=1e-12)

    def test_conv_stride_and_pad_geometry(self):
        x = Tensor(np.zeros((1, 2, 6, 6)))
        k = Tensor(np.zeros((5, 2, 3, 3)))
        assert conv2d(x, k, stride=1, pad=1).shape == (1, 5, 6, 6)
        assert conv2d(x, k, stride=2, pad=1).shape == (1, 5, 3, 3)
        assert conv2d(x, k, stride=3, pad=0).shape == (1, 5, 2, 2)

    def test_sigmoid_fixed_points(self):
        out = sigmoid(Tensor([0.0, np.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.5, 0.75], rtol=1e-14)

    def test_sigmoid_saturates_without_overflow(self):
        out = sigmoid(Tensor([-1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_softmax_log_counts(self):
        out = softmax_rows(Tensor([[np.log(1.0), np.log(2.0), np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[1 / 6, 2 / 6, 3 / 6]], rtol=1e-14)

    def test_softmax_shift_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 7))
        a = softmax_rows(Tensor(x)).data
        b = softmax_rows(Tensor(x + 123.456)).data
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(a.sum(axis=1), np.ones(5), rtol=1e-14)

    def test_avg_pool_window_mean(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_batchnorm_train_normalizes_each_channel(self):
        rng = np.random.default_rng(4)
        x = rng.normal(loc=3.0, scale=2.0, size=(8, 3, 4, 4))
        rm, rv = np.zeros(3), np.ones(3)
        out = batchnorm2d(
            Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv, training=True
        )
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=(0, 2, 3)), 1.0, rtol=1e-3)

    def test_batchnorm_running_stats_blend(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 2, 3, 3))
        rm, rv = np.zeros(2), np.ones(2)
        batchnorm2d(
            Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, training=True
        )
        m = 6 * 3 * 3
        mu = x.mean(axis=(0, 2, 3))
        var_u = x.var(axis=(0, 2, 3)) * m / (m - 1)
        np.testing.assert_allclose(rm, 0.1 * mu, rtol=1e-12)
        np.testing.assert_allclose(rv, 0.9 + 0.1 * var_u, rtol=1e-12)

    def test_batchnorm_eval_uses_running_stats(self):
        x = np.full((2, 1, 2, 2), 7.0)
        rm, rv = np.array([5.0]), np.array([4.0])
        out = batchnorm2d(
            Tensor(x), Tensor([2.0]), Tensor([1.0]), rm, rv, training=False
        )
        expect = 2.0 * (7.0 - 5.0) / np.sqrt(4.0 + 1e-5) + 1.0
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)
        np.testing.assert_allclose(rm, [5.0])
        np.testing.assert_allclose(rv, [4.0])


class TestGradients:
    def test_linear_grads_vs_numeric(self):
        rng = np.random.default_rng(10)
        x0 = rng.normal(size=(3, 4))
        w0 = rng.normal(size=(4, 2))
        b0 = rng.normal(size=2)
        c = rng.normal(size=(3, 2))
        check_grad(lambda t: (linear(t, Tensor(w0), Tensor(b0)) * Tensor(c)).sum(), x0)
        check_grad(lambda t: (linear(Tensor(x0), t, Tensor(b0)) * Tensor(c)).sum(), w0)
        check_grad(lambda t: (linear(Tensor(x0), Tensor(w0), t) * Tensor(c)).sum(), b0)

    def test_conv_grads_vs_numeric(self):
        rng = np.random.default_rng(11)
        x0 = rng.normal(size=(2, 2, 5, 5))
        k0 = rng.normal(size=(3, 2, 3, 3))
        c = rng.normal(size=(2, 3, 3, 3))
        check_grad(
            lambda t: (conv2d(t, Tensor(k0), stride=2, pad=1) * Tensor(c)).sum(), x0
        )
        check_grad(
            lambda t: (conv2d(Tensor(x0), t, stride=2, pad=1) * Tensor(c)).sum(), k0
        )

    def test_sigmoid_grad_vs_numeric(self):
        rng = np.random.default_rng(12)
        x0 = rng.normal(size=(4, 3))
        c = rng.normal(size=(4, 3))
        check_grad(lambda t: (sigmoid(t) * Tensor(c)).sum(), x0)

    def test_softmax_grad_vs_numeric(self):
        rng = np.random.default_rng(13)
        x0 = rng.normal(size=(3, 5))
        c = rng.normal(size=(3, 5))
        check_grad(lambda t: (softmax_rows(t) * Tensor(c)).sum(), x0)

    def test_avg_pool_grad_vs_numeric(self):
        rng = np.random.default_rng(14)
        x0 = rng.normal(size=(2, 2, 4, 4))
        c = rng.normal(size=(2, 2, 2, 2))
        check_grad(lambda t: (avg_pool2d(t, 2) * Tensor(c)).sum(), x0)

    def test_batchnorm_train_grads_vs_numeric(self):
        rng = np.random.default_rng(15)
        x0 = rng.normal(size=(4, 2, 3, 3))
        g0 = rng.normal(size=2) + 1.0
        b0 = rng.normal(size=2)
        c = rng.normal(size=(4, 2, 3, 3))

        def with_x(t):
            return (
                batchnorm2d(
                    t, Tensor(g0), Tensor(b0), np.zeros(2), np.ones(2), training=True
                )
                * Tensor(c)
            ).sum()

        def with_gamma(t):
            return (
                batchnorm2d(
                    Tensor(x0), t, Tensor(b0), np.zeros(2), np.ones(2), training=True
                )
                * Tensor(c)
            ).sum()

        check_grad(with_x, x0)
        check_grad(with_gamma, g0)

    def test_batchnorm_eval_grad_vs_numeric(self):
        rng = np.random.default_rng(16)
        x0 = rng.normal(size=(3, 2, 2, 2))
        c = rng.normal(size=(3, 2, 2, 2))

        def build(t):
            return (
                batchnorm2d(
                    t,
                    Tensor([1.5, 0.5]),
                    Tensor([0.1, -0.2]),
                    np.array([0.3, -0.1]),
                    np.array([2.0, 0.5]),
                    training=False,
                )
                * Tensor(c)
            ).sum()

        check_grad(build, x0)

    def test_reductions_and_reshape_grads(self):
        rng = np.random.default_rng(17)
        x0 = rng.normal(size=(3, 4))
        c = rng.normal(size=12)
        check_grad(lambda t: (t.reshape(12) * Tensor(c)).sum(), x0)
        check_grad(lambda t: t.mean(), x0)
        check_grad(lambda t: (t.sum(axis=0) * Tensor(c[:4])).sum(), x0)
        check_grad(lambda t: (t.sum(axis=1, keepdims=True) * Tensor(c[:3, None])).sum(), x0)

    def test_index_routes_grad_to_one_slice(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(3, 2))
        x[1].sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 0], [1, 1], [0, 0]])

    def test_stack_routes_grads_to_members(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        s = stack([a, b])
        (s * Tensor([[1.0, 2.0], [3.0, 4.0]])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0, 4.0])

    def test_detach_blocks_gradient(self):
        x = Tensor([2.0])
        y = x.detach() * 3.0 + x * 5.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_shared_parameter_accumulates_over_reuse(self):
        w = Tensor([[1.0, 2.0], [3.0, 4.0]])
        x = Tensor([[1.0, 1.0]])
        b = Tensor([0.0, 0.0])
        h1 = linear(x, w, b)
        h2 = linear(h1, w, b)
        h2.sum().backward()
        num = numeric_grad(
            lambda v: float(
                linear(linear(x, Tensor(v), b), Tensor(v), b).sum().data
            ),
            w.data,
        )
        assert rel_err(w.grad, num) < 1e-8


class TestComposition:
    def _chain(self, x, k, gamma, beta, w, b, mask):
        h = conv2d(x, k, stride=1, pad=1)
        h = batchnorm2d(h, gamma, beta, np.zeros(4), np.ones(4), training=True)
        h = sigmoid(h)
        h = avg_pool2d(h, 3)
        h = h.reshape(h.shape[0], 4 * 2 * 2)
        h = linear(h, w, b)
        return (softmax_rows(h) * mask).sum()

    def _params(self, seed=20):
        rng = np.random.default_rng(seed)
        return dict(
            x=rng.normal(size=(2, 3, 6, 6)),
            k=rng.normal(size=(4, 3, 3, 3)) * 0.5,
            gamma=rng.normal(size=4) + 1.0,
            beta=rng.normal(size=4),
            w=rng.normal(size=(16, 3)) * 0.5,
            b=rng.normal(size=3),
            mask=rng.normal(size=(2, 3)),
        )

    def test_chain_grad_vs_numeric(self):
        p = self._params()
        fixed = {n: Tensor(v) for n, v in p.items()}

        for name in ("x", "k", "w"):
            def build(t, name=name):
                args = dict(fixed)
                args[name] = t
                return self._chain(**args)

            e = check_grad(build, p[name], rtol=1e-6)
            assert e < 1e-6

    def test_backward_is_bitwise_deterministic(self):
        p = self._params(seed=21)
        grads = []
        for _ in range(2):
            ts = {n: Tensor(v) for n, v in p.items()}
            self._chain(**ts).backward()
            grads.append({n: ts[n].grad.copy() for n in ("x", "k", "w")})
        for n in grads[0]:
            assert np.array_equal(grads[0][n], grads[1][n])

    def test_sum_loss_grads_add_over_batch_split(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(6, 4))
        w0 = rng.normal(size=(4, 3))
        b0 = rng.normal(size=3)

        def run(batch):
            w = Tensor(w0)
            b = Tensor(b0)
            sigmoid(linear(Tensor(batch), w, b)).sum().backward()
            return w.grad

        full = run(x)
        halves = run(x[:3]) + run(x[3:])
        assert rel_err(full, halves) < 1e-10


class TestErrorHandling:
    def test_mismatched_add_raises(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((3, 2)))

    def test_linear_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))

    def test_conv_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 3, 5, 5))), Tensor(np.zeros((2, 4, 3, 3))))

    def test_conv_kernel_too_large_raises(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros((1, 1, 5, 5))))

    @pytest.mark.parametrize("shape", [(0, 2, 4, 4), (3, 0, 2, 4, 4)])
    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm_empty_input_raises(self, shape, training):
        with pytest.raises(ShapeError):
            batchnorm2d(Tensor(np.zeros(shape)), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                        np.zeros(2), np.ones(2), training=training)

    def test_pool_indivisible_raises(self):
        with pytest.raises(ShapeError):
            avg_pool2d(Tensor(np.zeros((1, 1, 5, 5))), 2)

    def test_nonfinite_input_raises(self):
        with pytest.raises(NumericsError):
            Tensor([1.0, np.inf])

    def test_nonfinite_result_raises(self):
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            Tensor([1e300]) * Tensor([1e300])

    def test_backward_on_vector_raises(self):
        with pytest.raises(ContractError):
            Tensor([1.0, 2.0]).backward()

    def test_cycle_detected(self):
        a = Tensor([1.0])
        b = a + 1.0
        a.parents = (b,)
        with pytest.raises(GraphError):
            b.sum().backward()

    def test_deep_chain_does_not_hit_recursion_limit(self):
        x = Tensor([1.0])
        y = x
        for _ in range(5000):
            y = y * 1.0001
        y.sum().backward()
        assert x.grad is not None


class TestAccumulate:
    def test_two_accumulations_sum(self):
        t = Tensor(np.zeros(3))
        t.accumulate(np.array([1.0, 2.0, 3.0]))
        t.accumulate(np.array([0.5, -2.0, 0.25]))
        np.testing.assert_array_equal(t.grad, [1.5, 0.0, 3.25])

    def test_stored_gradient_never_aliases_upstream(self):
        t = Tensor(np.zeros(3))
        g = np.array([1.0, 2.0, 3.0])
        t.accumulate(g)
        assert not np.shares_memory(t.grad, g)
        t.accumulate(g)
        np.testing.assert_array_equal(g, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(t.grad, [2.0, 4.0, 6.0])
        # add hands its own upstream array to both parents
        a, b = Tensor(np.ones(2)), Tensor(np.ones(2))
        s = a + b
        s.sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, s.grad)

    def test_broadcast_upstream_fills_a_full_buffer(self):
        x = Tensor(np.ones((2, 3)))
        x.sum().backward()
        assert x.grad.shape == (2, 3) and x.grad.flags.writeable
        x.grad += 1.0
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))


class TestTimeMajor:
    """Time-major (T, N, ...) inputs against the same op on each step."""

    def test_len_and_slice_index_route_gradients(self):
        x = Tensor(np.arange(24, dtype=np.float64).reshape(4, 3, 2))
        assert len(x) == 4
        assert [s.shape for s in x] == [(3, 2)] * 4
        (x[1:3].sum() + x[3].sum()).backward()
        np.testing.assert_array_equal(x.grad[0], 0.0)
        np.testing.assert_array_equal(x.grad[1:], 1.0)
        with pytest.raises(ContractError):
            x[[0, 1]]

    @pytest.mark.parametrize("op", ["conv2d", "avg_pool2d", "linear"])
    def test_folded_op_matches_per_step(self, op):
        rng = np.random.default_rng(12)
        if op == "linear":
            x = rng.normal(size=(3, 4, 5))
            w, b = Tensor(rng.normal(size=(5, 2))), Tensor(rng.normal(size=2))
            params = [w, b]

            def run(t):
                return linear(t, w, b)
        else:
            x = (rng.random(size=(3, 4, 2, 6, 6)) < 0.3).astype(float)
            k = Tensor(rng.normal(size=(3, 2, 3, 3)))
            params = [k] if op == "conv2d" else []

            def run(t):
                return conv2d(t, k, stride=1, pad=1) if op == "conv2d" else avg_pool2d(t, 2)
        proj = rng.normal(size=run(Tensor(x[0])).shape)
        block = Tensor(x)
        out = run(block)
        (out * Tensor(np.broadcast_to(proj, out.shape).copy())).sum().backward()
        block_grads = [p.grad.copy() for p in params]
        for p in params:
            p.zero_grad()
        steps = [Tensor(xt) for xt in x]
        outs = [run(s) for s in steps]
        sum((o * Tensor(proj)).sum() for o in outs).backward()
        assert np.array_equal(out.data, np.stack([o.data for o in outs]))
        assert rel_err(block.grad, np.stack([s.grad for s in steps])) < 1e-12
        for got, p in zip(block_grads, params):
            assert rel_err(got, p.grad) < 1e-12

    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm_steps_match_per_step_calls(self, training):
        rng = np.random.default_rng(13)
        x = rng.normal(loc=0.5, scale=2.0, size=(3, 4, 2, 3, 3))
        gamma, beta = Tensor(rng.uniform(0.5, 1.5, 2)), Tensor(rng.normal(size=2))
        proj = rng.normal(size=x.shape)
        rm0, rv0 = rng.normal(size=2), rng.uniform(0.5, 2.0, 2)

        rm, rv = rm0.copy(), rv0.copy()
        block = Tensor(x)
        out = batchnorm2d(block, gamma, beta, rm, rv, training=training)
        (out * Tensor(proj)).sum().backward()

        rm_ref, rv_ref = rm0.copy(), rv0.copy()
        steps = [Tensor(xt) for xt in x]
        outs = [batchnorm2d(s, gamma, beta, rm_ref, rv_ref, training=training)
                for s in steps]
        assert np.array_equal(out.data, np.stack([o.data for o in outs]))
        assert np.array_equal(rm, rm_ref) and np.array_equal(rv, rv_ref)
        sum((o * Tensor(p)).sum() for o, p in zip(outs, proj)).backward()
        assert np.array_equal(block.grad, np.stack([s.grad for s in steps]))


def direct_conv(x, k, stride, pad):
    """Per-offset reference: each kernel offset's strided window of the
    padded input, contracted with that offset's (O, C) weights."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    K = k.shape[-1]
    ho = (xp.shape[2] - K) // stride + 1
    wo = (xp.shape[3] - K) // stride + 1
    out = np.zeros((x.shape[0], k.shape[0], ho, wo))
    for i in range(K):
        for j in range(K):
            win = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
            out += np.einsum("nchw,oc->nohw", win, k[:, :, i, j])
    return out


class TestChunkedConv:
    """conv2d on a batch of 5 split into chunks of 2, 2 and 1 images."""

    @pytest.fixture
    def chunk_sizes(self, monkeypatch):
        sizes, real = [], autodiff._patches

        def patches(xc, *args):
            sizes.append(len(xc))
            return real(xc, *args)

        monkeypatch.setattr(autodiff, "_patches", patches)
        return sizes

    def make_case(self, monkeypatch, C, stride, pad):
        rng = np.random.default_rng(40 + 4 * C + 2 * stride + pad)
        H, W, K = 7, 6, 3
        h_out = (H + 2 * pad - K) // stride + 1
        # room for two images' patch matrices (K*K*C rows, h_out*Wp columns)
        monkeypatch.setattr(autodiff, "_CHUNK_BYTES",
                            2 * 8 * K * K * C * h_out * (W + 2 * pad))
        return rng.normal(size=(5, C, H, W)), rng.normal(size=(2, C, K, K)), rng

    @pytest.mark.parametrize("C", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_forward_matches_direct_conv(self, monkeypatch, chunk_sizes, C, stride, pad):
        x, k, _ = self.make_case(monkeypatch, C, stride, pad)
        out = conv2d(Tensor(x), Tensor(k), stride=stride, pad=pad)
        assert chunk_sizes == [2, 2, 1]
        assert rel_err(out.data, direct_conv(x, k, stride, pad)) < 1e-12

    @pytest.mark.parametrize("C", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_grads_vs_numeric(self, monkeypatch, chunk_sizes, C, stride, pad):
        x0, k0, rng = self.make_case(monkeypatch, C, stride, pad)
        c = Tensor(rng.normal(size=direct_conv(x0, k0, stride, pad).shape))
        check_grad(lambda t: (conv2d(t, Tensor(k0), stride=stride, pad=pad) * c).sum(), x0)
        check_grad(lambda t: (conv2d(Tensor(x0), t, stride=stride, pad=pad) * c).sum(), k0)
        # each backward rebuilds the patches chunk by chunk
        assert chunk_sizes[:6] == [2, 2, 1, 2, 2, 1]
