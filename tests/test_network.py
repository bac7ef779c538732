import math
import tracemalloc

import numpy as np
import pytest

from spikelat import autodiff, lif, network
from spikelat.autodiff import Tensor, batchnorm2d, conv2d, no_grad
from spikelat.data import synth_digits
from spikelat.errors import ContractError, ShapeError, SpecError
from spikelat.lif import LifConfig
from spikelat.loss import tad_loss
from spikelat.network import (
    LayerSpec,
    ModelSpec,
    build_model,
    preset_spec,
)
from spikelat.trainer import evaluate

from helpers import traced_peak


def small_images(n=4, shape=(1, 8, 8), seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(0, 1, size=(n,) + shape))


class TestSpecs:
    def test_preset_names(self):
        for name in ("mlp-mini", "vgg-mini", "sew-mini"):
            spec = preset_spec(name, (1, 16, 16), classes=4)
            assert spec.name == name
        with pytest.raises(SpecError):
            preset_spec("resnet-50", (3, 224, 224), classes=1000)

    def test_spec_validation(self):
        with pytest.raises(SpecError):
            ModelSpec("x", (1, 8), 4, 8, 2, ())
        with pytest.raises(SpecError):
            ModelSpec("x", (1, 8, 8), 1, 8, 2, ())
        with pytest.raises(SpecError):
            ModelSpec("x", (1, 8, 8), 4, 0, 2, ())
        with pytest.raises(SpecError):
            LayerSpec("softmax")

    def test_mismatched_layer_chain_rejected(self):
        spec = ModelSpec("x", (1, 8, 8), 4, 4, 2,
                         (LayerSpec("linear", out=16),))
        with pytest.raises(SpecError):
            build_model(spec)

    def test_sew_channel_mismatch_rejected(self):
        spec = ModelSpec("x", (1, 8, 8), 4, 4, 2,
                         (LayerSpec("conv", out=8), LayerSpec("sew", out=16)))
        with pytest.raises(SpecError):
            build_model(spec)

    def test_unpoolable_shape_rejected(self):
        spec = ModelSpec("x", (1, 7, 7), 4, 4, 2, (LayerSpec("pool"),))
        with pytest.raises(SpecError):
            build_model(spec)


class TestBuild:
    def test_same_seed_same_parameters(self):
        spec = preset_spec("vgg-mini", (1, 16, 16), classes=4)
        a = build_model(spec, seed=7)
        b = build_model(spec, seed=7)
        for (na, ta), (nb, tb) in zip(a.parameters(), b.parameters()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_different_seed_different_parameters(self):
        spec = preset_spec("mlp-mini", (1, 8, 8), classes=3)
        a = build_model(spec, seed=1)
        b = build_model(spec, seed=2)
        assert not np.array_equal(a.encoder.k.data, b.encoder.k.data)

    def test_parameter_names_unique(self):
        spec = preset_spec("sew-mini", (1, 16, 16), classes=5)
        model = build_model(spec)
        names = [n for n, _ in model.parameters()] + [n for n, _ in model.buffers()]
        assert len(names) == len(set(names))

    def test_audit_shapes_chain(self):
        spec = preset_spec("vgg-mini", (1, 16, 16), classes=4, width=8)
        model = build_model(spec)
        for prev, cur in zip(model.audit, model.audit[1:]):
            assert prev.out_shape == cur.in_shape
        assert model.audit[-1].out_shape == (4,)

    def test_audit_flops_formulas(self):
        spec = preset_spec("vgg-mini", (1, 16, 16), classes=4, width=8,
                           encoder_channels=2)
        model = build_model(spec)
        by_name = {a.name: a for a in model.audit}
        assert by_name["enc"].flops == 16 * 16 * 1 * 2 * 9
        assert by_name["s0"].flops == 16 * 16 * 2 * 8 * 9
        assert by_name["s2"].flops == 8 * 8 * 8 * 16 * 9
        assert by_name["s1"].flops == 0
        assert by_name["out"].flops == 16 * 4 * 4 * 4

    def test_state_roundtrip(self):
        spec = preset_spec("mlp-mini", (1, 8, 8), classes=3)
        a = build_model(spec, seed=3)
        b = build_model(spec, seed=4)
        b.load_state(a.state_arrays())
        for (_, ta), (_, tb) in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(ta.data, tb.data)
        for (_, ba), (_, bb) in zip(a.buffers(), b.buffers()):
            np.testing.assert_array_equal(ba, bb)

    def test_load_state_rejects_missing_and_unknown(self):
        spec = preset_spec("mlp-mini", (1, 8, 8), classes=3)
        model = build_model(spec)
        state = model.state_arrays()
        short = dict(state)
        short.pop("out.lin.w")
        with pytest.raises(SpecError):
            model.load_state(short)
        extra = dict(state)
        extra["mystery"] = np.zeros(3)
        with pytest.raises(SpecError):
            model.load_state(extra)
        bad = dict(state)
        bad["out.lin.b"] = np.zeros(99)
        with pytest.raises(SpecError):
            model.load_state(bad)


class TestForward:
    def test_logit_and_spike_shapes(self):
        spec = preset_spec("mlp-mini", (1, 8, 8), classes=3, timesteps=6)
        model = build_model(spec, seed=0)
        rec = model.forward(small_images(4), training=True)
        assert rec.timesteps == 6
        for o, s in zip(rec.logits, rec.out_spikes):
            assert o.shape == (4, 3)
            assert s.shape == (4, 3)
            assert set(np.unique(s.data)) <= {0.0, 1.0}

    def test_rejects_wrong_input_shape(self):
        spec = preset_spec("mlp-mini", (1, 8, 8), classes=3)
        model = build_model(spec)
        with pytest.raises(ShapeError):
            model.forward(small_images(2, shape=(1, 9, 9)))

    def test_encoder_frames_have_one_spike_per_slot(self):
        spec = preset_spec("vgg-mini", (1, 16, 16), classes=4)
        model = build_model(spec, seed=1)
        rec = model.forward(small_images(3, (1, 16, 16)), training=True)
        total = sum(f for f in rec.stage_spikes["enc"])
        np.testing.assert_array_equal(total, np.ones_like(total))

    def test_conv_stage_spikes_binary(self):
        spec = preset_spec("vgg-mini", (1, 16, 16), classes=4)
        model = build_model(spec, seed=2)
        rec = model.forward(small_images(3, (1, 16, 16)), training=True)
        for f in rec.stage_spikes["s0"]:
            assert set(np.unique(f)) <= {0.0, 1.0}

    def test_sew_stage_emits_up_to_two(self):
        spec = preset_spec("sew-mini", (1, 16, 16), classes=4)
        model = build_model(spec, seed=3)
        rec = model.forward(small_images(6, (1, 16, 16), seed=5), training=True)
        vals = set()
        for f in rec.stage_spikes["s3"]:
            vals |= set(np.unique(f))
        assert vals <= {0.0, 1.0, 2.0}
        assert 2.0 in vals

    def test_alpha_and_sparsity_ranges(self):
        spec = preset_spec("vgg-mini", (1, 16, 16), classes=4)
        model = build_model(spec, seed=4)
        rec = model.forward(small_images(3, (1, 16, 16)), training=True)
        alphas = rec.stage_alpha()
        assert set(alphas) == {"enc", "s0", "s2", "out"}
        for a in alphas.values():
            assert 0.0 <= a <= 1.0
        assert abs(alphas["enc"] - 1.0 / spec.timesteps) < 1e-12
        assert 0.0 <= rec.sparsity() <= 1.0

    def test_eval_mode_leaves_running_stats_alone(self):
        spec = preset_spec("vgg-mini", (1, 16, 16), classes=4)
        model = build_model(spec, seed=5)
        model.forward(small_images(3, (1, 16, 16)), training=True)
        before = model.stages[0].running_mean.copy()
        model.forward(small_images(3, (1, 16, 16), seed=9), training=False)
        np.testing.assert_array_equal(model.stages[0].running_mean, before)

    def test_running_buffers_move_exactly_while_the_tape_records(self):
        spec = preset_spec("sew-mini", (1, 16, 16), classes=4, timesteps=3)
        model = build_model(spec, seed=5)
        rng = np.random.default_rng(2)
        conv_stages = [s for s in model.audit if s.buffers()]
        assert [s.kind for s in conv_stages] == ["conv", "conv", "conv", "sew"]
        for stage in conv_stages:
            x = Tensor(rng.random(size=(3, 2) + stage.in_shape))
            before = [b.copy() for _, b in stage.buffers()]
            with no_grad():
                stage.drive(x)
            assert all(np.array_equal(b, b0) for (_, b), b0 in zip(stage.buffers(), before))
            stage.drive(x)
            assert not any(np.array_equal(b, b0)
                           for (_, b), b0 in zip(stage.buffers(), before))

    def test_running_stats_update_once_per_timestep(self):
        """A T=3 conv stage leaves the buffers T step-order batchnorm calls leave."""
        spec = preset_spec("vgg-mini", (1, 16, 16), classes=4, timesteps=3)
        model = build_model(spec, seed=7)
        stage = model.stages[0]
        rng = np.random.default_rng(8)
        for name, buf in model.buffers():
            buf[...] = rng.uniform(0.5, 1.5, size=buf.shape)
        mean0, var0 = stage.running_mean.copy(), stage.running_var.copy()
        frames = (rng.random(size=(3, 5) + stage.in_shape) < 0.3).astype(float)
        stage.unroll(Tensor(frames))

        mean, var = mean0.copy(), var0.copy()
        for x in frames:
            h = conv2d(Tensor(x), stage.k, pad=LayerSpec.pad)
            batchnorm2d(h, stage.gamma, stage.beta, mean, var)
        assert np.array_equal(stage.running_mean, mean)
        assert np.array_equal(stage.running_var, var)
        assert not np.array_equal(mean, mean0)

    def test_forward_is_deterministic(self):
        spec = preset_spec("sew-mini", (1, 16, 16), classes=4)
        imgs = small_images(2, (1, 16, 16))
        a = build_model(spec, seed=6).forward(imgs, training=False)
        b = build_model(spec, seed=6).forward(imgs, training=False)
        for oa, ob in zip(a.logits, b.logits):
            np.testing.assert_array_equal(oa.data, ob.data)


def active_model(name, timesteps=4):
    """An untrained model whose shifted biases make every stage fire, so
    that sew-mini's residual block emits 2s."""
    model = build_model(preset_spec(name, (1, 16, 16), classes=10, timesteps=timesteps))
    for stage in model.stages:
        if stage.kind in ("conv", "sew"):
            stage.beta.data += 0.6
        elif stage.kind == "linear":
            stage.b.data += 0.3
    model.output.b.data += 0.5
    return model


class TestRun:
    """``Model.run``: the one loop over the stages behind the encoder."""

    @pytest.mark.parametrize("name", ["mlp-mini", "vgg-mini", "sew-mini"])
    def test_split_window_carrying_state_equals_one_run(self, name):
        model = active_model(name, timesteps=5)
        with no_grad():
            raster = model.raster(Tensor(synth_digits(12, seed=0).images)).data
            whole_state = {}
            whole = model.run(Tensor(raster), whole_state)
            assert set(whole_state) == {s.name for s in model.audit[1:] if s.spiking}
            assert next(iter(whole.stage_spikes)) == "enc"
            assert np.array_equal(whole.stage_spikes["enc"], raster)
            assert all(f.any() for f in whole.stage_spikes.values())
            for t in range(1, len(raster)):
                state = {}
                head = model.run(Tensor(raster[:t]), state)
                tail = model.run(Tensor(raster[t:]), state)
                assert list(head.stage_spikes) == list(whole.stage_spikes)
                for stage, frames in whole.stage_spikes.items():
                    joined = np.concatenate([head.stage_spikes[stage],
                                             tail.stage_spikes[stage]])
                    assert np.array_equal(joined, frames), (t, stage)
                for field in ("logits", "out_spikes"):
                    joined = np.concatenate([getattr(head, field).data,
                                             getattr(tail, field).data])
                    assert np.array_equal(joined, getattr(whole, field).data), (t, field)
                assert state.keys() == whole_state.keys()
                for stage, u in whole_state.items():
                    assert np.array_equal(state[stage], u), (t, stage)

    def test_spike_counts_count_slots_carrying_a_spike(self):
        model = active_model("sew-mini")
        rec = model.forward(Tensor(synth_digits(10, seed=2).images))
        assert (rec.stage_spikes["s3"] == 2).any()
        want = sum(np.array([[np.count_nonzero(f[t, n]) for n in range(f.shape[1])]
                             for t in range(f.shape[0])])
                   for f in rec.stage_spikes.values())
        counts = rec.spike_counts()
        assert counts.shape == (4, 10)
        assert np.array_equal(counts, want)
        assert rec.slots == sum(f[0, 0].size for f in rec.stage_spikes.values())
        frames = rec.stage_spikes.values()
        assert rec.sparsity() == (sum(np.count_nonzero(f) for f in frames)
                                  / sum(f.size for f in frames))


class TestSpikeBytes:
    """Spike values are uint8 counts; bytes and buffers taken over change no bit."""

    @pytest.mark.parametrize("name", ["mlp-mini", "vgg-mini", "sew-mini"])
    @pytest.mark.parametrize("training", [False, True])
    def test_spikes_are_uint8_counts(self, name, training):
        model = active_model(name)
        rec = model.forward(Tensor(synth_digits(10, seed=2).images), training=training)
        frames = rec.stage_spikes
        assert rec.out_spikes.data.dtype == np.uint8
        assert all(f.dtype == np.uint8 for f in frames.values())
        assert np.array_equal(frames["enc"].sum(axis=0), np.ones(frames["enc"].shape[1:]))
        for stage, f in frames.items():
            assert f.max() == (2 if stage == "s3" else 1), stage
        if name == "sew-mini":      # s3 adds its branch's spikes to s2's: no sum wraps
            branch = frames["s3"].astype(np.int64) - frames["s2"]
            assert branch.min() == 0 and branch.max() == 1

    @staticmethod
    def step(name):
        """The record's frames, then the parameter gradients and the buffers
        after one training step's backward on 16 digits."""
        model = active_model(name)
        ds = synth_digits(16, seed=0)
        rec = model.forward(Tensor(ds.images), training=True)
        tad_loss(rec.logits, ds.labels).backward()
        return (rec.stage_spikes, {n: t.grad for n, t in model.parameters()},
                {n: a.copy() for n, a in model.buffers()})

    @pytest.mark.parametrize("name", ["mlp-mini", "vgg-mini", "sew-mini"])
    @pytest.mark.parametrize("forced", ["float64 spikes", "fresh buffers"])
    def test_step_is_bitwise_equal_to_one_with_float64_spikes_or_fresh_buffers(
            self, monkeypatch, name, forced):
        got = self.step(name)
        if forced == "float64 spikes":     # every uint8 value becomes a float64 copy
            init = Tensor.__init__

            def float64_spikes(self, data, *args, **kwargs):
                if isinstance(data, np.ndarray) and data.dtype == np.uint8:
                    data = data.astype(np.float64)
                init(self, data, *args, **kwargs)

            monkeypatch.setattr(Tensor, "__init__", float64_spikes)
        else:                              # no op writes into the values it consumes
            monkeypatch.setattr(autodiff, "overwritable", lambda x: False)
            monkeypatch.setattr(lif, "overwritable", lambda x: False)
        want = self.step(name)
        if forced == "float64 spikes":
            assert all(f.dtype == np.float64 for f in want[0].values())
        for got_part, want_part in zip(got, want):
            assert got_part.keys() == want_part.keys()
            for key, a in got_part.items():
                assert np.array_equal(a, want_part[key]), key


class TestRecomputedDeviations:
    """Every conv stage's batch norm recomputes its conv in backward instead of
    keeping deviations, and nothing changes by a bit."""

    @staticmethod
    def step(name, before_backward=lambda: None):
        """The loss, parameter gradients and buffers after one training step on 16 digits."""
        model = active_model(name)
        ds = synth_digits(16, seed=0)
        loss = tad_loss(model.forward(Tensor(ds.images), training=True).logits, ds.labels)
        before_backward()
        loss.backward()
        return ({"loss": loss.data}, {n: t.grad for n, t in model.parameters()},
                {n: a.copy() for n, a in model.buffers()})

    @pytest.mark.parametrize("name, convs", [("vgg-mini", 3), ("sew-mini", 4)])
    def test_step_is_bitwise_equal_to_one_reading_the_conv_values(self, monkeypatch, name,
                                                                  convs):
        ops, recomputed, real = [], [], autodiff._correlate

        def recording_calls(x, *args):
            ops.append(x.op)
            return autodiff.batchnorm2d(x, *args)

        def correlate(xs, *args):
            recomputed.append(len(xs))
            return real(xs, *args)

        monkeypatch.setattr(network, "batchnorm2d", recording_calls)
        monkeypatch.setattr(autodiff, "_correlate", correlate)
        got = self.step(name, recomputed.clear)
        assert ops == ["conv2d"] * convs
        # backward recomputes the encoder's one step and each stage's 4, of 16 images each
        assert recomputed == [16] * (1 + 4 * (convs - 1))
        # a product by 1.0 is a bitwise copy that batch norm reads back instead
        monkeypatch.setattr(network, "batchnorm2d",
                            lambda x, *args: autodiff.batchnorm2d(x * 1.0, *args))
        want = self.step(name)
        for got_part, want_part in zip(got, want):
            assert got_part.keys() == want_part.keys()
            for key, a in got_part.items():
                assert np.array_equal(a, want_part[key]), key

    @pytest.mark.parametrize("name, convs", [("vgg-mini", 3), ("sew-mini", 4)])
    def test_each_conv_patches_its_input_twice_per_image_step(self, monkeypatch, name,
                                                              convs):
        # once in the conv's forward and once in batch norm's recompute: the
        # conv's backward patches only the upstream gradient
        inputs, patched = [], []
        real_conv, real_chunks = network.conv2d, autodiff._patch_chunks

        def conv(frames, *args, **kwargs):
            inputs.append(frames.data)
            return real_conv(frames, *args, **kwargs)

        def patch_chunks(xs, *args):
            patched.append(xs)
            return real_chunks(xs, *args)

        monkeypatch.setattr(network, "conv2d", conv)
        monkeypatch.setattr(autodiff, "_patch_chunks", patch_chunks)
        self.step(name)
        assert len(inputs) == convs
        for x in inputs:
            images = x.size // math.prod(x.shape[-3:])
            reads = sum(len(xs) for xs in patched if np.shares_memory(xs, x))
            assert reads == 2 * images, (x.shape, reads)


class TestGradientFlow:
    @pytest.mark.parametrize("name", ["mlp-mini", "vgg-mini", "sew-mini"])
    def test_every_parameter_receives_gradient(self, name):
        shape = (1, 8, 8) if name == "mlp-mini" else (1, 16, 16)
        spec = preset_spec(name, shape, classes=3, timesteps=6)
        model = build_model(spec, seed=0)
        rng = np.random.default_rng(1)
        imgs = Tensor(rng.uniform(0, 1, size=(5,) + shape))
        labels = rng.integers(0, 3, size=5)
        rec = model.forward(imgs, training=True)
        tad_loss(rec.logits, labels).backward()
        for pname, t in model.parameters():
            assert t.grad is not None, f"{pname} got no gradient"
        assert np.any(model.encoder.k.grad != 0.0)
        assert np.any(model.output.w.grad != 0.0)


    def test_the_images_take_no_gradient(self):
        model = build_model(preset_spec("vgg-mini", (1, 16, 16), classes=10, timesteps=4))
        ds = synth_digits(6, seed=4)
        images = Tensor(ds.images)
        tad_loss(model.forward(images, training=True).logits, ds.labels).backward()
        assert images.grad is None
        assert np.any(model.encoder.k.grad != 0.0)


class TestEvalWithoutTape:
    """Eval-mode passes record nothing: every op result is a bare array holder."""

    @staticmethod
    def results_made(monkeypatch):
        made = []
        init = Tensor.__init__

        def record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.op != "leaf":
                made.append(self)

        monkeypatch.setattr(Tensor, "__init__", record)
        return made

    @pytest.mark.parametrize("name", ["mlp-mini", "vgg-mini", "sew-mini"])
    def test_eval_record_and_predict_make_no_tape_nodes(self, monkeypatch, name):
        model = build_model(preset_spec(name, (1, 16, 16), classes=10, timesteps=4))
        ds = synth_digits(12, seed=0)
        made = self.results_made(monkeypatch)
        rec = model.forward(Tensor(ds.images), training=False)
        evaluate(model, ds, batch_size=8)
        evaluate(model, ds, batch_size=8, decode="rate")
        assert rec.logits in made and rec.out_spikes in made
        assert all(t.parents == () and t._backward is None for t in made)
        made.clear()
        model.forward(Tensor(ds.images), training=True)
        assert made and all(t.parents and t._backward is not None for t in made)

    def test_backward_through_an_eval_record_raises(self):
        model = build_model(preset_spec("sew-mini", (1, 16, 16), classes=10, timesteps=4))
        ds = synth_digits(6, seed=1)
        rec = model.forward(Tensor(ds.images), training=False)
        with pytest.raises(ContractError, match="op 'lif_potentials' ran without a tape"):
            tad_loss(rec.logits, ds.labels).backward()
        assert all(t.grad is None for _, t in model.parameters())

    def test_eval_forward_peak_is_at_most_2_s0_blocks(self):
        # a block is s0's (T, N, C, H, W) output in float64. Eval holds the
        # record's uint8 frames (0.28 blocks for sew-mini) and one stage's
        # drive, which becomes its potentials, and uint8 spikes at a time
        model = build_model(preset_spec("sew-mini", (1, 16, 16), classes=10, timesteps=4))
        images = Tensor(synth_digits(64, seed=2).images)
        rec, peak = traced_peak(model.forward, images, training=False)
        block = 4 * 64 * 8 * 16 * 16 * 8
        assert rec.stage_spikes["s0"].shape == (4, 64, 8, 16, 16)
        assert peak <= 2.0 * block, peak / block


class TestStepMemory:
    # (forward tape, step peak) in s0 blocks, each s0's (T, N, C, H, W) output
    # in float64. The tape holds what backward reads: one boolean surrogate
    # window per potential for each conv stage and the inputs the convs and
    # the readout multiply, uint8 where they are spikes. Batch norm keeps no
    # deviations: its backward recomputes each conv step by step from the
    # input the conv keeps. The tape reads 0.69 blocks for vgg-mini and 0.82
    # for sew-mini, the step peak 2.46 and 2.85; each bound is about 1.2x its
    # reading (keeping the deviations of the convs that read float64 frames
    # read 1.25 and 1.39, peaks 2.52 and 3.36).
    BOUNDS = {"vgg-mini": (0.85, 2.95), "sew-mini": (1.05, 3.4)}

    @pytest.mark.parametrize("name", ["vgg-mini", "sew-mini"])
    def test_tape_and_step_peak_fit_in_s0_blocks(self, name):
        model = build_model(preset_spec(name, (1, 16, 16), classes=10, timesteps=4))
        ds = synth_digits(32, seed=3)
        block = 4 * 32 * 8 * 16 * 16 * 8
        assert model.stages[0].out_shape == (8, 16, 16)

        def step():
            loss = tad_loss(model.forward(Tensor(ds.images), training=True).logits, ds.labels)
            forward = tracemalloc.get_traced_memory()[0]
            loss.backward()
            return forward

        forward, peak = traced_peak(step)
        tape, step_peak = self.BOUNDS[name]
        assert forward <= tape * block, forward / block
        assert peak <= step_peak * block, peak / block
