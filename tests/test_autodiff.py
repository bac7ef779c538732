from contextlib import nullcontext

import numpy as np
import pytest

from spikelat import autodiff, network
from spikelat.autodiff import (
    Constant,
    Tensor,
    avg_pool2d,
    batchnorm2d,
    check_finite,
    conv2d,
    linear,
    no_grad,
    sigmoid,
    softmax_rows,
)
from spikelat.data import synth_digits
from spikelat.errors import ContractError, GraphError, NumericsError, ShapeError
from spikelat.lif import LifConfig, lif_unroll
from spikelat.loss import tad_loss, vanilla_loss

from helpers import check_grad, numeric_grad, rel_err, tape_nodes


def step_loss(preset, loss=tad_loss):
    """(model, loss) of one training step's forward on 16 digits."""
    spec = network.preset_spec(preset, (1, 16, 16), 10, timesteps=4, hidden=32, width=4)
    model = network.build_model(spec, seed=0)
    ds = synth_digits(16, seed=0)
    return model, loss(model.forward(Tensor(ds.images), training=True).logits, ds.labels)


def one_step(preset):
    """(loss, parameter gradients) of one training step on 16 digits."""
    model, loss = step_loss(preset)
    loss.backward()
    return loss, {name: t.grad for name, t in model.parameters()}


def delta_stage(channels, rng=None):
    """A conv stage whose kernel is a centred delta, so its conv is the
    identity and its drive is its batch norm alone. With ``rng``, gamma,
    beta and the running statistics are drawn away from their initial values."""
    stage = network.ConvStage("s0", (channels, 3, 3), network.LayerSpec("conv", out=channels),
                              None, np.random.default_rng(0))
    stage.k.data[...] = 0.0
    stage.k.data[range(channels), range(channels), 1, 1] = 1.0
    if rng is not None:
        stage.gamma.data[...] = rng.uniform(0.5, 1.5, channels)
        stage.beta.data[...] = rng.normal(size=channels)
        stage.running_mean[...] = rng.normal(size=channels)
        stage.running_var[...] = rng.uniform(0.5, 2.0, channels)
    return stage


def masked_sigmoid(d):
    """The logistic function split by sign with masks, each half gathered
    and scattered back: the reference ``sigmoid`` must match bit for bit."""
    s = np.empty_like(d)
    pos = d >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    s[~pos] = e / (1.0 + e)
    return s


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
        assert conv2d(x, k, pad=1).shape == (1, 5, 6, 6)
        assert conv2d(x, k, pad=0).shape == (1, 5, 4, 4)
        assert conv2d(x, k, pad=2).shape == (1, 5, 8, 8)

    def test_sigmoid_fixed_points(self):
        out = sigmoid(Tensor([0.0, np.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.5, 0.75], rtol=1e-14)

    def test_sigmoid_bits_equal_the_masked_form(self):
        mags = np.logspace(-300, 308, 500_000)
        d = np.concatenate([mags, -mags, [0.0, -0.0, 745.0, -745.0]])
        np.random.default_rng(3).shuffle(d)
        got = sigmoid(Tensor(d)).data
        assert np.array_equal(got.view(np.uint64), masked_sigmoid(d).view(np.uint64))

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
            Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv
        )
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=(0, 2, 3)), 1.0, rtol=1e-3)

    def test_batchnorm_running_stats_blend(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 2, 3, 3))
        rm, rv = np.zeros(2), np.ones(2)
        batchnorm2d(
            Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv
        )
        m = 6 * 3 * 3
        mu = x.mean(axis=(0, 2, 3))
        var_u = x.var(axis=(0, 2, 3)) * m / (m - 1)
        np.testing.assert_allclose(rm, 0.1 * mu, rtol=1e-12)
        np.testing.assert_allclose(rv, 0.9 + 0.1 * var_u, rtol=1e-12)

    def test_batchnorm_eval_uses_running_stats(self):
        # eval mode is folded into the conv; a delta kernel leaves the batch norm
        stage = delta_stage(1)
        stage.gamma.data[...], stage.beta.data[...] = 2.0, 1.0
        stage.running_mean[...], stage.running_var[...] = 5.0, 4.0
        with no_grad():
            out = stage.drive(Tensor(np.full((2, 1, 2, 2), 7.0)))
        expect = 2.0 * (7.0 - 5.0) / np.sqrt(4.0 + 1e-5) + 1.0
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)
        np.testing.assert_allclose(stage.running_mean, [5.0])
        np.testing.assert_allclose(stage.running_var, [4.0])

    def test_folded_eval_drive_matches_conv_then_running_stats(self):
        rng = np.random.default_rng(6)
        stage = network.ConvStage("s0", (3, 6, 6), network.LayerSpec("conv", out=4), None, rng)
        stage.gamma.data[...] = rng.uniform(0.5, 1.5, 4)
        stage.beta.data[...] = rng.normal(size=4)
        stage.running_mean[...] = rng.normal(scale=2.0, size=4)
        stage.running_var[...] = rng.uniform(0.1, 3.0, 4)
        x = (rng.random(size=(2, 5, 3, 6, 6)) < 0.4).astype(float)
        with no_grad():
            got = stage.drive(Tensor(x)).data
        h = conv2d(Tensor(x), stage.k, pad=1).data
        per_channel = (slice(None), None, None)
        rm, rv = stage.running_mean[per_channel], stage.running_var[per_channel]
        expect = ((h - rm) / np.sqrt(rv + 1e-5) * stage.gamma.data[per_channel]
                  + stage.beta.data[per_channel])
        assert rel_err(got, expect) < 1e-12


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
        c = rng.normal(size=(2, 3, 5, 5))
        check_grad(
            lambda t: (conv2d(t, Tensor(k0), pad=1) * Tensor(c)).sum(), x0
        )
        check_grad(
            lambda t: (conv2d(Tensor(x0), t, pad=1) * Tensor(c)).sum(), k0
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
                batchnorm2d(t, Tensor(g0), Tensor(b0), np.zeros(2), np.ones(2))
                * Tensor(c)
            ).sum()

        def with_gamma(t):
            return (
                batchnorm2d(Tensor(x0), t, Tensor(b0), np.zeros(2), np.ones(2))
                * Tensor(c)
            ).sum()

        check_grad(with_x, x0)
        check_grad(with_gamma, g0)

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
        h = conv2d(x, k, pad=1)
        h = batchnorm2d(h, gamma, beta, np.zeros(4), np.ones(4))
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

    def test_conv_pad_beyond_kernel_raises(self):
        with pytest.raises(ShapeError, match="pad 3"):
            conv2d(Tensor(np.zeros((1, 2, 6, 6))), Tensor(np.zeros((5, 2, 3, 3))), pad=3)

    @pytest.mark.parametrize("shape", [(0, 2, 4, 4), (3, 0, 2, 4, 4)])
    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm_empty_input_raises(self, shape, training):
        x = Tensor(np.zeros(shape))
        with pytest.raises(ShapeError, match="empty input"):
            if training:
                batchnorm2d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), np.zeros(2), np.ones(2))
            else:   # eval mode is folded into the conv, which rejects it
                with no_grad():
                    delta_stage(2).drive(x)

    def test_pool_indivisible_raises(self):
        with pytest.raises(ShapeError):
            avg_pool2d(Tensor(np.zeros((1, 1, 5, 5))), 2)

    def test_nonfinite_input_raises(self):
        with pytest.raises(NumericsError):
            Tensor([1.0, np.inf])

    def test_nonfinite_result_raises(self):
        # op results are not scanned one by one: the check on a stage's
        # drive (or the loss) raises, naming where and the last op
        with np.errstate(over="ignore"):
            drive = Tensor([1e300]) * Tensor([1e300])
        assert np.isinf(drive.data).all()
        with pytest.raises(NumericsError, match=r"stage 's0' \(op 'mul'\)"):
            check_finite(drive, "stage 's0'")
        finite = Tensor([1.0]) * 2.0
        assert check_finite(finite, "stage 's0'") is finite

    def test_backward_on_vector_raises(self):
        with pytest.raises(ContractError):
            Tensor([1.0, 2.0]).backward()

    def test_cycle_detected(self):
        a = Tensor([1.0])
        b = a + 1.0
        a.parents = (b,)
        with pytest.raises(GraphError):
            b.sum().backward()

    def test_parent_made_after_its_child_rejected(self):
        # no cycle, but b's closure still routes its gradient to a, not c
        a = Tensor([1.0])
        b = a * 2.0
        c = Tensor([3.0])
        b.parents = (c,)
        with pytest.raises(GraphError):
            b.sum().backward()

    def test_deep_chain_does_not_hit_recursion_limit(self):
        x = Tensor([1.0])
        y = x
        for _ in range(5000):
            y = y * 1.0001
        y.sum().backward()
        assert x.grad is not None


class TestNoGrad:
    def test_results_keep_no_parents_and_no_closure(self):
        x = Tensor(np.ones(3))
        with no_grad():
            y = (x * 2.0 + x).sum()
        assert y.parents == () and y._backward is None
        z = x * 2.0     # the scope has ended
        assert z.parents == (x,) and z._backward is not None

    def test_backward_through_an_untaped_result_raises(self):
        x = Tensor(np.ones(3))
        with no_grad():
            y = x * 2.0
            root = y.sum()
        with pytest.raises(ContractError, match="op 'mul' ran without a tape"):
            (y * 3.0).sum().backward()
        with pytest.raises(ContractError, match="op 'sum' ran without a tape"):
            root.backward()
        assert x.grad is None

    def test_leaves_are_checked_and_results_are_not(self):
        with no_grad():
            with pytest.raises(NumericsError):
                Tensor([np.inf])
            with np.errstate(over="ignore"):
                big = Tensor([1e300]) * Tensor([1e300])
        assert np.isinf(big.data).all()

    def test_scope_ends_on_an_error(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError
        assert (Tensor([1.0]) * 2.0).parents


class TestAccumulate:
    def test_two_accumulations_sum(self):
        t = Tensor(np.zeros(3))
        t.accumulate(np.array([1.0, 2.0, 3.0]))
        t.accumulate(np.array([0.5, -2.0, 0.25]))
        np.testing.assert_array_equal(t.grad, [1.5, 0.0, 3.25])

    def test_add_hands_its_parents_distinct_arrays(self):
        a, b = Tensor(np.ones(2)), Tensor(np.ones(2))
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_broadcast_upstream_fills_a_full_buffer(self):
        x = Tensor(np.ones((2, 3)))
        x.sum().backward()
        assert x.grad.shape == (2, 3) and x.grad.flags.writeable
        x.grad += 1.0
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))

    def test_first_write_is_kept_and_later_writes_add_into_it(self):
        t = Tensor(np.zeros(3))
        g = np.array([1.0, 2.0, 3.0])
        t.accumulate(g)
        assert t.grad is g
        t.accumulate(np.array([0.5, 0.5, 0.5]))
        assert t.grad is g
        np.testing.assert_array_equal(g, [1.5, 2.5, 3.5])

    @pytest.mark.parametrize("loss", [tad_loss, vanilla_loss])
    @pytest.mark.parametrize("preset", ["mlp-mini", "vgg-mini", "sew-mini"])
    def test_no_two_tape_gradients_share_memory_after_a_step(self, preset, loss):
        # a closure owns the gradient it is handed and may write into it (batch
        # norm and the LIF node do, and pass it on), so as each one is handed to
        # its node's _backward it may alias no gradient still held: a leaf's, or
        # that of a node whose turn has yet to come. Nor may it alias a value.
        # The flatten reshape, the residual add and the vanilla loss's sum and
        # mean hand gradients on too.
        model, loss = step_loss(preset, loss)
        nodes = tape_nodes(loss)
        ops = {n.op for n in nodes}
        assert "reshape" in ops and ("add" in ops) == (preset == "sew-mini")
        data = [n.data for n in nodes]
        handed, results = [], [n for n in nodes if n._backward is not None]
        for n in results:
            def keep(g, node=n, run=n._backward):
                held = [m.grad for m in nodes if m is not node and m.grad is not None]
                assert not any(np.shares_memory(g, h) for h in held), node.op
                assert not any(np.shares_memory(g, d) for d in data), node.op
                handed.append(node)
                run(g)
            n._backward = keep
        loss.backward()
        assert len(handed) == len(results)
        grads = [t.grad for _, t in model.parameters()]
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("preset", ["mlp-mini", "vgg-mini", "sew-mini"])
    def test_step_grads_match_the_copying_path(self, monkeypatch, preset):
        _, grads = one_step(preset)
        keep_first_write = Tensor.accumulate

        def accumulate(self, g):    # the copying path: every write hands over a copy
            keep_first_write(self, np.array(g, order="C"))

        def conv2d_scattering_dx(x, k, pad=0):
            out = autodiff.conv2d(x, k, pad=pad)
            gathered = out._backward

            def bw(g):
                before, x.grad = x.grad, None
                gathered(g)     # k's gradient as before; x's is replaced
                dx = direct_conv_dx(g.reshape((-1,) + out.shape[-3:]), k.data, pad,
                                    x.shape[-2:]).reshape(x.shape)
                x.grad = dx if before is None else before + dx

            out._backward = bw
            return out

        monkeypatch.setattr(Tensor, "accumulate", accumulate)
        monkeypatch.setattr(network, "conv2d", conv2d_scattering_dx)
        _, ref = one_step(preset)
        for name, g in grads.items():
            if preset == "mlp-mini":
                assert np.array_equal(g, ref[name]), name
            else:
                assert rel_err(g, ref[name]) < 1e-12, name


class TestSpentTape:
    def test_op_results_drop_grad_closure_and_parents_after_a_sew_step(self):
        model, loss = step_loss("sew-mini")
        results = [n for n in tape_nodes(loss) if n.parents]
        assert results and all(n._backward is not None for n in results)
        loss.backward()
        for n in results:
            assert n.grad is None and n._backward is None and n.parents == (), n.op
        _, want = one_step("sew-mini")
        for name, t in model.parameters():
            assert np.array_equal(t.grad, want[name]), name

    def test_second_backward_raises_and_moves_no_gradient(self):
        model, loss = step_loss("sew-mini")
        loss.backward()
        before = {name: t.grad.copy() for name, t in model.parameters()}
        with pytest.raises(ContractError, match="ran without a tape .* spent by an earlier"):
            loss.backward()
        for name, t in model.parameters():
            assert np.array_equal(t.grad, before[name]), name

    def test_a_loss_on_a_spent_subgraph_raises(self):
        x, w = Tensor(np.arange(3.0)), Tensor(np.ones(3))
        h = x * w
        (h * 2.0).sum().backward()
        before = x.grad.copy(), w.grad.copy()
        with pytest.raises(ContractError, match="op 'mul' ran without a tape"):
            (h + x).sum().backward()
        np.testing.assert_array_equal(x.grad, before[0])
        np.testing.assert_array_equal(w.grad, before[1])


class TestReleasedValues:
    """Backward reads saved arrays and shapes only, so a tape entry can outlive its value."""

    @pytest.mark.parametrize("preset", ["mlp-mini", "vgg-mini", "sew-mini"])
    def test_releasing_every_result_leaves_the_gradients_bitwise_equal(self, preset):
        _, want = one_step(preset)
        model, loss = step_loss(preset)
        results = [n for n in tape_nodes(loss)[1:] if n.parents]
        shapes = [n.shape for n in results]
        for n in results:
            n.release()
        assert all(n.data.size == 0 and n.shape == s for n, s in zip(results, shapes))
        loss.backward()
        for name, t in model.parameters():
            assert np.array_equal(t.grad, want[name]), name

    def test_releasing_every_result_of_a_mixed_graph_leaves_the_gradients_bitwise_equal(self):
        # op-result weights, kernels and gammas, a tensor product, indexing and
        # an axis sum: the reads the presets do not make
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=s) for s in
                  [(2, 2, 1, 4, 4), (3, 1, 3, 3), (3,), (3,), (12, 2), (2,)]]

        def grads(release):
            x, k, gamma, beta, w, b = leaves = [Tensor(a) for a in arrays]
            h = batchnorm2d(conv2d(sigmoid(x), sigmoid(k), pad=1), sigmoid(gamma), beta,
                            np.zeros(3), np.ones(3))
            h = avg_pool2d(h * sigmoid(h), 2).reshape(2, 2, 12)
            loss = linear(h, sigmoid(w), b)[1].sum(axis=0).sum()
            if release:
                for n in tape_nodes(loss)[1:]:
                    n.release()
            loss.backward()
            return [t.grad for t in leaves]

        for got, want in zip(grads(True), grads(False)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("preset", ["mlp-mini", "vgg-mini", "sew-mini"])
    def test_a_training_forward_releases_conv_batchnorm_and_hidden_spikes(self, preset):
        spec = network.preset_spec(preset, (1, 16, 16), 10, timesteps=4, hidden=32, width=4)
        model = network.build_model(spec, seed=0)
        rec = model.forward(Tensor(synth_digits(8, seed=0).images), training=True)
        nodes = tape_nodes(rec.logits)
        dropped = [n for n in nodes if n.op in ("conv2d", "batchnorm2d", "lif_unroll")
                   and n is not rec.out_spikes]
        assert len(dropped) >= {"mlp-mini": 3, "vgg-mini": 6, "sew-mini": 9}[preset]
        assert all(n.data.size == 0 and n.size > 0 for n in dropped), \
            [n.op for n in dropped if n.data.size]
        assert rec.out_spikes.data.size and rec.logits.data.size
        assert all(f.size for f in rec.stage_spikes.values())

    @pytest.mark.parametrize("use", [
        lambda t: t * 2.0,
        lambda t: t + t,
        lambda t: t.sum(),
        lambda t: t[0:1],
        lambda t: t.reshape(-1),
        sigmoid,
    ])
    def test_a_released_value_in_forward_arithmetic_raises(self, use):
        t = sigmoid(Tensor(np.arange(6.0).reshape(2, 1, 1, 3)))
        t.release()
        assert t.shape == (2, 1, 1, 3) and t.ndim == 4 and len(t) == 2 and t.size == 6
        with pytest.raises(ContractError, match="read the value of a released 'sigmoid'"):
            use(t)

    @pytest.mark.parametrize("use", [
        lambda t: linear(t, Tensor(np.ones((3, 2))), Tensor(np.zeros(2))),
        lambda t: conv2d(t, Tensor(np.ones((1, 1, 1, 1)))),
        lambda t: t + Tensor(np.ones(t.shape)),
    ])
    def test_a_released_value_fails_a_shape_check_first(self, use):
        # ops that reshape or broadcast the empty value stop in numpy
        t = sigmoid(Tensor(np.arange(6.0).reshape(2, 1, 1, 3)))
        t.release()
        with pytest.raises(ValueError):
            use(t)

    @pytest.mark.parametrize("taped", [True, False])
    @pytest.mark.parametrize("consumer", ["batchnorm2d", "lif_unroll"])
    def test_a_read_of_an_input_written_over_raises(self, taped, consumer):
        rng = np.random.default_rng(3)
        x, k = Tensor(rng.normal(size=(2, 3, 2, 4, 4))), Tensor(rng.normal(size=(2, 2, 3, 3)))
        with nullcontext() if taped else no_grad():
            c = conv2d(x, k, pad=1)
            buffer = c.data
            if consumer == "batchnorm2d":
                out = batchnorm2d(c, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                                  np.zeros(2), np.ones(2))
            else:
                out = lif_unroll(c, LifConfig()).potentials
            assert c.data.size == 0 and c.shape == (2, 3, 2, 4, 4)
            assert np.shares_memory(out.data, buffer)
            with pytest.raises(ContractError, match="read the value of a released 'conv2d'"):
                c * 2.0

    @staticmethod
    def read_before(x):
        c = x * 1.0     # a value of its own,
        c * 2.0         # which an op has read and saved for its backward
        return c

    @pytest.mark.parametrize("make", [
        lambda x: x,                        # a leaf belongs to its caller
        lambda x: x.reshape(x.shape),       # a view of the leaf's value
        lambda x: x[0:2],
        sigmoid,                            # its backward reads its result
        read_before.__func__,
    ])
    @pytest.mark.parametrize("consumer", ["batchnorm2d", "lif_unroll"])
    def test_leaves_views_and_saved_values_are_not_written_over(self, make, consumer):
        x = Tensor(np.random.default_rng(4).normal(size=(2, 3, 2, 4, 4)))
        before = x.data.copy()
        t = make(x)
        value = t.data.copy()
        if consumer == "batchnorm2d":
            batchnorm2d(t, Tensor(np.ones(2)), Tensor(np.zeros(2)), np.zeros(2), np.ones(2))
        else:
            lif_unroll(t, LifConfig())
        assert np.array_equal(t.data, value) and np.array_equal(x.data, before)

    def test_leaves_keep_their_values_and_untaped_results_drop_theirs(self):
        # an op that writes into its input releases it with or without a tape,
        # so release drops the value of every op result; a leaf is its caller's
        x = Tensor(np.ones(3))
        x.release()
        with no_grad():
            y = x * 2.0
        y.release()
        np.testing.assert_array_equal(x.data, np.ones(3))
        assert y.data.size == 0 and y.shape == (3,)
        with pytest.raises(ContractError, match="read the value of a released 'mul'"):
            with no_grad():
                y + 1.0


class TestRecomputedDeviations:
    """``batchnorm2d`` keeps no deviations: backward recomputes a recorded
    conv's steps, bitwise, and reads any other input's kept value."""

    @staticmethod
    def bn(x, buffers=None):
        buffers = buffers or (np.full(3, 0.5), np.full(3, 2.0))
        return batchnorm2d(x, Tensor(np.linspace(0.5, 1.5, 3)), Tensor(np.linspace(-1, 1, 3)),
                           *buffers)

    @staticmethod
    def chunks_of_2(monkeypatch):
        # chunks of 2 images: a folded batch of 15 splits them across steps
        monkeypatch.setattr(autodiff, "_CHUNK_BYTES", 2 * 8 * 9 * 2 * 4 * 6)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("shape", [(3, 5, 2, 4, 4), (5, 2, 4, 4)])
    @pytest.mark.parametrize("owned", [True, False])
    def test_batchnorm_on_a_conv_equals_batchnorm_on_a_leaf(self, monkeypatch, dtype,
                                                            shape, owned):
        self.chunks_of_2(monkeypatch)
        rng = np.random.default_rng(22)
        x0 = rng.integers(0, 3, size=shape).astype(dtype)
        k0 = rng.normal(size=(3, 2, 3, 3))
        proj = Tensor(rng.normal(size=shape[:-3] + (3, 4, 4)))

        x, k = Tensor(x0), Tensor(k0)
        c = conv2d(x, k, pad=1)
        buffer = c.data
        if not owned:
            c * 1.0     # read once, so batch norm may not write into it
        got_buffers = np.full(3, 0.5), np.full(3, 2.0)
        bn = self.bn(c, got_buffers)
        assert np.shares_memory(bn.data, buffer) == owned
        if owned:
            with pytest.raises(ContractError, match="read the value of a released 'conv2d'"):
                c * 2.0
        got = [bn.data.copy(), *bn.parents[1:]]
        (bn * proj).sum().backward()

        leaf = Tensor(conv2d(Tensor(x0), Tensor(k0), pad=1).data)
        want_buffers = np.full(3, 0.5), np.full(3, 2.0)
        ref = self.bn(leaf, want_buffers)
        want = [ref.data.copy(), *ref.parents[1:]]
        (ref * proj).sum().backward()
        # the leaf's gradient, routed through a second conv by a bitwise product
        x_ref, k_ref = Tensor(x0), Tensor(k0)
        (conv2d(x_ref, k_ref, pad=1) * Tensor(leaf.grad)).sum().backward()
        assert np.array_equal(got[0], want[0])
        assert all(np.array_equal(a, b) for a, b in zip(got_buffers, want_buffers))
        for a, b in zip(got[1:], want[1:]):     # gamma and beta
            assert np.array_equal(a.grad, b.grad)
        assert np.array_equal(x.grad, x_ref.grad) and np.array_equal(k.grad, k_ref.grad)

    @pytest.mark.parametrize("make", [
        lambda x: x * 1.0,                  # a value of its own that no op has read
        lambda x: x,
        lambda x: x.reshape(x.shape),
        sigmoid,
        lambda x: Tensor(x.data.round().clip(0, 2).astype(np.uint8)),
    ])
    def test_any_other_input_stays_readable_and_unchanged(self, make):
        rng = np.random.default_rng(25)
        x = Tensor(rng.normal(size=(2, 3, 3, 4, 4)))
        t = make(x)
        value = t.data.copy()
        out = self.bn(t)
        assert np.array_equal(t.data, value) and not np.shares_memory(out.data, t.data)
        ref = self.bn(Tensor(value))
        assert np.array_equal(out.data, ref.data)
        proj = Tensor(rng.normal(size=out.shape))
        grads = []
        for bn in (out, ref):
            params = bn.parents[1:]     # gamma and beta
            (bn * proj).sum().backward()
            grads.append([p.grad for p in params])
        assert np.array_equal(t.data, value)
        assert all(np.array_equal(a, b) for a, b in zip(*grads))

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("shape", [(3, 5, 2, 4, 4), (5, 2, 4, 4)])
    def test_backward_recomputes_each_step_once_as_the_folded_conv(self, monkeypatch,
                                                                    dtype, shape):
        self.chunks_of_2(monkeypatch)
        rng = np.random.default_rng(23)
        x = Tensor(rng.integers(0, 3, size=shape).astype(dtype))
        k = Tensor(rng.normal(size=(3, 2, 3, 3)))
        c = conv2d(x, k, pad=1)
        folded = c.data.reshape((-1, 5, 3, 4, 4)).copy()
        steps, asked, real = x.data.reshape((-1, 5, 2, 4, 4)), [], autodiff._correlate

        def correlate(xs, *args):
            (t,) = [t for t, x_t in enumerate(steps) if np.shares_memory(xs, x_t)]
            out = real(xs, *args)
            asked.append((t, out.copy()))
            return out

        monkeypatch.setattr(autodiff, "_correlate", correlate)
        out = self.bn(c)
        assert asked == []
        out.sum().backward()
        assert [t for t, _ in asked] == list(range(len(folded)))
        for t, value in asked:
            assert np.array_equal(value, folded[t])


class TestConstant:
    def test_conv2d_computes_no_gradient_for_a_constant_input(self):
        rng = np.random.default_rng(5)
        x, k = rng.normal(size=(3, 2, 5, 5)), rng.normal(size=(4, 2, 3, 3))
        grads = []
        for leaf in (Tensor, Constant):
            xt, kt = leaf(x), Tensor(k)
            (conv2d(xt, kt, pad=1) * 2.0).sum().backward()
            grads.append((xt.grad, kt.grad))
        (x_grad, k_grad), (constant_grad, k_grad_beside_constant) = grads
        assert x_grad is not None and constant_grad is None
        assert np.array_equal(k_grad, k_grad_beside_constant)

    def test_a_constant_takes_no_gradient_from_any_op(self):
        c = Constant(np.arange(3.0))
        w = Tensor(np.ones(3))
        ((c * w + c).sum() + c[1:].sum()).backward()
        assert c.grad is None and c.op == "leaf"
        np.testing.assert_array_equal(w.grad, np.arange(3.0))


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
                return conv2d(t, k, pad=1) if op == "conv2d" else avg_pool2d(t, 2)
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
        # through a conv stage's drive with a delta kernel: the batch norm alone
        rng = np.random.default_rng(13)
        x = rng.normal(loc=0.5, scale=2.0, size=(3, 4, 2, 3, 3))
        proj = rng.normal(size=x.shape)
        stage, ref = (delta_stage(2, np.random.default_rng(1)) for _ in range(2))
        rm0 = stage.running_mean.copy()

        block = Tensor(x)
        steps = [Tensor(xt) for xt in x]
        with nullcontext() if training else no_grad():
            out = stage.drive(block)
            outs = [ref.drive(s) for s in steps]
        assert np.array_equal(out.data, np.stack([o.data for o in outs]))
        assert np.array_equal(stage.running_mean, ref.running_mean)
        assert np.array_equal(stage.running_var, ref.running_var)
        assert np.array_equal(stage.running_mean, rm0) != training
        if training:    # eval mode is not differentiable
            (out * Tensor(proj)).sum().backward()
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


def direct_conv_dx(g, k, pad, in_hw):
    """Per-offset reference input gradient of the stride-1 conv: each kernel
    offset scatters its (O, C) weights times g back onto its window."""
    K = k.shape[-1]
    H, W = in_hw
    ho, wo = g.shape[-2:]
    dxp = np.zeros((g.shape[0], k.shape[1], H + 2 * pad, W + 2 * pad))
    for i in range(K):
        for j in range(K):
            dxp[:, :, i : i + ho, j : j + wo] += np.einsum("nohw,oc->nchw", g, k[:, :, i, j])
    return dxp[:, :, pad : pad + H, pad : pad + W]


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
    @pytest.mark.parametrize("stride", [1])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_forward_matches_direct_conv(self, monkeypatch, chunk_sizes, C, stride, pad):
        x, k, _ = self.make_case(monkeypatch, C, stride, pad)
        out = conv2d(Tensor(x), Tensor(k), pad=pad)
        assert chunk_sizes == [2, 2, 1]
        assert rel_err(out.data, direct_conv(x, k, stride, pad)) < 1e-12

    @pytest.mark.parametrize("C", [1, 3])
    @pytest.mark.parametrize("stride", [1])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_grads_vs_numeric(self, monkeypatch, chunk_sizes, C, stride, pad):
        x0, k0, rng = self.make_case(monkeypatch, C, stride, pad)
        g = rng.normal(size=direct_conv(x0, k0, stride, pad).shape)
        c = Tensor(g)
        check_grad(lambda t: (conv2d(t, Tensor(k0), pad=pad) * c).sum(), x0)
        check_grad(lambda t: (conv2d(Tensor(x0), t, pad=pad) * c).sum(), k0)
        # backward gathers only the gradient's patches, padded by K-1-pad
        # (K*K*O rows and H*(W+K-1) columns per image under the same byte
        # budget), for dx and dw alike: it patches no input
        (n, _, H, W), (O, _, K, _) = x0.shape, k0.shape
        step = max(1, autodiff._CHUNK_BYTES // (8 * K * K * O * H * (W + K - 1)))
        dx_sizes = [min(step, n - a) for a in range(0, n, step)]
        chunk_sizes.clear()
        # the gathered dx equals the per-offset scatter to rounding
        x = Tensor(x0)
        (conv2d(x, Tensor(k0), pad=pad) * c).sum().backward()
        assert chunk_sizes == [2, 2, 1] + dx_sizes
        assert rel_err(x.grad, direct_conv_dx(g, k0, pad, (H, W))) < 1e-12
