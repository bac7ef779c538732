import numpy as np
import pytest

from spikelat.autodiff import Tensor
from spikelat.encoder import latency_encode, spike_time
from spikelat.errors import ContractError
from spikelat.network import EncoderStage, build_model, preset_spec

from helpers import check_grad


class TestSpikeTime:
    def test_known_values(self):
        assert spike_time(0.5, 4) == 2
        assert spike_time(0.25, 4) == 3
        np.testing.assert_array_equal(spike_time([0.9, 0.5, 0.1], 4), [1, 2, 4])

    def test_extremes_clamp_into_window(self):
        assert spike_time(0.0, 8) == 8
        assert spike_time(1.0, 8) == 1
        assert spike_time(-3.0, 8) == 8
        assert spike_time(2.0, 8) == 1

    def test_brighter_never_fires_later(self):
        x = np.linspace(0.0, 1.0, 201)
        t = spike_time(x, 16)
        assert np.all(np.diff(t) <= 0)

    def test_quantization_error_below_one_step(self):
        rng = np.random.default_rng(0)
        for T in (2, 4, 8, 32):
            x = rng.uniform(1e-9, 1 - 1e-9, size=500)
            t = spike_time(x, T)
            recon = 1.0 - t / T
            assert np.all(np.abs(recon - x) < 1.0 / T)

    def test_single_step_window(self):
        np.testing.assert_array_equal(spike_time([0.1, 0.9], 1), [1, 1])

    def test_rejects_empty_window(self):
        with pytest.raises(ContractError):
            spike_time(0.5, 0)


class TestLatencyEncode:
    def test_exactly_one_spike_per_element(self):
        rng = np.random.default_rng(1)
        f = Tensor(rng.uniform(0, 1, size=(3, 2, 4, 4)))
        spikes = latency_encode(f, 8)
        assert len(spikes) == 8
        total = sum(s.data for s in spikes)
        np.testing.assert_array_equal(total, np.ones_like(f.data))
        for s in spikes:
            assert set(np.unique(s.data)) <= {0.0, 1.0}

    def test_spike_lands_at_computed_step(self):
        f = Tensor([[0.9, 0.5, 0.1]])
        spikes = latency_encode(f, 4)
        raster = np.stack([s.data[0] for s in spikes])
        np.testing.assert_array_equal(np.argmax(raster, axis=0) + 1, [1, 2, 4])

    def test_straight_through_gradient_sums_window(self):
        rng = np.random.default_rng(2)
        f = Tensor(rng.uniform(0, 1, size=(2, 5)))
        spikes = latency_encode(f, 6)
        weights = [rng.normal(size=(2, 5)) for _ in range(6)]
        loss = (spikes[0] * Tensor(weights[0])).sum()
        for t in range(1, 6):
            loss = loss + (spikes[t] * Tensor(weights[t])).sum()
        loss.backward()
        np.testing.assert_allclose(f.grad, np.sum(weights, axis=0), rtol=1e-12)

    def test_raw_raster_matches_tensor_path(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 1, size=(2, 3, 3))
        steps = spike_time(img, 5)
        spikes = latency_encode(Tensor(img), 5)
        for t in range(5):
            np.testing.assert_array_equal(spikes[t].data, steps == t + 1)
        total = sum(s.data for s in spikes)
        np.testing.assert_array_equal(total, np.ones_like(img))


class TestLatencyEncoderHead:
    """The encoder stage: conv and batch norm, a sigmoid, the latency code."""

    @staticmethod
    def stage(in_shape, channels, timesteps, seed):
        return EncoderStage("enc", in_shape, channels, timesteps,
                            np.random.default_rng(seed))

    def test_features_lie_strictly_inside_unit_interval(self):
        enc = self.stage((1, 6, 6), 4, timesteps=8, seed=4)
        imgs = Tensor(np.random.default_rng(4).normal(size=(2, 1, 6, 6)))
        _, f = enc.encode(imgs, training=True)
        assert np.all(f.data > 0.0)
        assert np.all(f.data < 1.0)

    def test_encode_emits_one_spike_per_feature(self):
        enc = self.stage((2, 5, 5), 3, timesteps=6, seed=5)
        imgs = Tensor(np.random.default_rng(5).normal(size=(4, 2, 5, 5)))
        spikes, f = enc.encode(imgs, training=True)
        total = sum(s.data for s in spikes)
        np.testing.assert_array_equal(total, np.ones_like(f.data))

    def test_gradient_reaches_conv_kernel(self):
        enc = self.stage((1, 4, 4), 2, timesteps=4, seed=6)
        imgs = Tensor(np.random.default_rng(6).normal(size=(3, 1, 4, 4)))
        spikes, _ = enc.unroll(imgs, training=True)
        loss = spikes[0].sum()
        for s in spikes[1:]:
            loss = loss + (s * s).sum()
        loss.backward()
        assert enc.k.grad is not None
        assert np.any(enc.k.grad != 0.0)

    def test_feature_head_gradient_vs_numeric(self):
        rng = np.random.default_rng(7)
        enc = self.stage((1, 4, 4), 2, timesteps=4, seed=7)
        imgs = rng.normal(size=(2, 1, 4, 4))
        c = rng.normal(size=(2, 2, 4, 4))
        k0 = enc.k.data.copy()

        def build(t):
            enc.k = t
            _, f = enc.encode(Tensor(imgs), training=True)
            return (f * Tensor(c)).sum()

        check_grad(build, k0)

    def test_same_seed_same_parameters(self):
        a = self.stage((1, 8, 8), 3, timesteps=8, seed=42)
        b = self.stage((1, 8, 8), 3, timesteps=8, seed=42)
        for (na, ta), (nb, tb) in zip(a.parameters(), b.parameters()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_kernels_are_drawn_encoder_first(self):
        spec = preset_spec("vgg-mini", (1, 16, 16), classes=4, encoder_channels=2,
                           width=8)
        params = dict(build_model(spec, seed=3).parameters())
        rng = np.random.default_rng(3)
        enc_k = rng.normal(size=(2, 1, 3, 3)) * np.sqrt(2.0 / 9)
        s0_k = rng.normal(size=(8, 2, 3, 3)) * np.sqrt(2.0 / 18)
        np.testing.assert_array_equal(params["enc.conv.k"].data, enc_k)
        np.testing.assert_array_equal(params["s0.conv.k"].data, s0_k)
