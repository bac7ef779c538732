import gc
import struct
import sys
import weakref

import numpy as np
import pytest

from spikelat import trainer as trainer_module
from spikelat.autodiff import Tensor
from spikelat.data import Dataset, synth_blobs, synth_digits
from spikelat.errors import ContractError, FormatError, NumericsError, TrainingAbort
from spikelat.lif import LifConfig
from spikelat.loss import temporal_weights
from spikelat.network import Model, build_model, preset_spec
from spikelat.trainer import (
    AdamW,
    TrainConfig,
    cosine_lr,
    evaluate,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
    train,
    write_metrics_csv,
)

from helpers import rel_err


def reference_adamw(p0, grads, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.01):
    """Textbook decoupled update, coded straight from the recurrence."""
    p = np.array(p0, dtype=np.float64)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p = p - lr * (mhat / (np.sqrt(vhat) + eps) + wd * p)
    return p


class TestAdamW:
    def run_opt(self, p0, grads, **kw):
        p = Tensor(np.array(p0, dtype=np.float64))
        opt = AdamW([("p", p)], **kw)
        for g in grads:
            p.grad = np.array(g, dtype=np.float64)
            opt.step()
        return p.data

    def test_single_step_analytic(self):
        got = self.run_opt([1.0], [[0.5]], lr=0.1, weight_decay=0.1)
        mhat = 0.5
        vhat = 0.25
        expect = 1.0 - 0.1 * (mhat / (np.sqrt(vhat) + 1e-8) + 0.1 * 1.0)
        np.testing.assert_allclose(got, [expect], rtol=1e-12)

    def test_matches_reference_over_many_steps(self):
        rng = np.random.default_rng(0)
        p0 = rng.normal(size=7)
        grads = [rng.normal(size=7) for _ in range(25)]
        got = self.run_opt(p0, grads, lr=0.01, weight_decay=0.05)
        ref = reference_adamw(p0, grads, lr=0.01, wd=0.05)
        assert rel_err(got, ref) < 1e-12

    def test_decay_is_decoupled_from_moments(self):
        # a coupled L2 pushes wd*p through the moment estimates; with a zero
        # gradient that changes the step direction, decoupled decay does not
        got = self.run_opt([2.0], [[0.0], [0.0]], lr=0.1, weight_decay=0.1)
        expect = 2.0 * (1 - 0.1 * 0.1) ** 2
        np.testing.assert_allclose(got, [expect], rtol=1e-12)

        def coupled(p0, steps, lr, wd):
            p, m, v = p0, 0.0, 0.0
            for t in range(1, steps + 1):
                g = wd * p
                m = 0.9 * m + 0.1 * g
                v = 0.999 * v + 0.001 * g * g
                p = p - lr * (m / (1 - 0.9**t)) / (
                    np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            return p

        assert abs(got[0] - coupled(2.0, 2, 0.1, 0.1)) > 1e-3

    def test_zero_decay_leaves_unforced_params_alone(self):
        got = self.run_opt([3.0], [[0.0]], lr=0.5, weight_decay=0.0)
        np.testing.assert_allclose(got, [3.0])

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ContractError):
            AdamW([("p", Tensor([1.0]))], lr=0.0)


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 0.4) == 0.4
        np.testing.assert_allclose(cosine_lr(50, 100, 0.4), 0.2, rtol=1e-12)
        np.testing.assert_allclose(cosine_lr(100, 100, 0.4), 0.0, atol=1e-15)

    def test_monotone_decay(self):
        vals = [cosine_lr(s, 40, 1.0) for s in range(41)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_clamps_out_of_range_steps(self):
        assert cosine_lr(-5, 10, 1.0) == 1.0
        np.testing.assert_allclose(cosine_lr(15, 10, 1.0), 0.0, atol=1e-15)


# magic, version 1, one array whose two-byte name is not UTF-8
NON_UTF8_NAME_CKPT = b"SPKL" + struct.pack("<III", 1, 1, 2) + b"\xff\xfe"
# magic, version 1, one rank-2 array "w" of 2**32 x 2**32 elements, no data
HUGE_DIMS_CKPT = (b"SPKL" + struct.pack("<IIIsI", 1, 1, 1, b"w", 2)
                  + struct.pack("<2Q", 2**32, 2**32))


class TestCheckpoints:
    def arrays(self):
        rng = np.random.default_rng(1)
        return {
            "w": rng.normal(size=(3, 4)),
            "b": rng.normal(size=4),
            "scalar": np.array(2.5),
            "deep": rng.normal(size=(2, 2, 2, 2)),
        }

    def test_roundtrip_values_and_shapes(self, tmp_path):
        arrays = self.arrays()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arrays)
        back = read_checkpoint(path)
        assert set(back) == set(arrays)
        for name, a in arrays.items():
            assert back[name].shape == a.shape
            np.testing.assert_allclose(back[name], a, rtol=1e-6)

    def test_double_save_is_byte_identical(self, tmp_path):
        arrays = self.arrays()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, arrays)
        save_checkpoint(p2, read_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_offset_zero(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(FormatError) as e:
            read_checkpoint(p)
        assert e.value.offset == 0

    def test_bad_version_offset_four(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"SPKL" + struct.pack("<II", 9, 0))
        with pytest.raises(FormatError) as e:
            read_checkpoint(p)
        assert e.value.offset == 4

    def test_non_utf8_name_reports_its_offset(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(NON_UTF8_NAME_CKPT)
        with pytest.raises(FormatError, match="UTF-8") as e:
            read_checkpoint(p)
        assert e.value.offset == 16

    def test_truncation_reports_position(self, tmp_path):
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, {"w": np.zeros((4, 4))})
        whole = p.read_bytes()
        p.write_bytes(whole[:-7])
        with pytest.raises(FormatError) as e:
            read_checkpoint(p)
        assert "truncated" in str(e.value)
        assert e.value.offset is not None

    def test_element_count_does_not_wrap(self, tmp_path):
        # dims (2**32, 2**32) wrap to 0 elements in int64 arithmetic
        p = tmp_path / "x.ckpt"
        p.write_bytes(HUGE_DIMS_CKPT)
        with pytest.raises(FormatError, match="implausible size") as e:
            read_checkpoint(p)
        assert e.value.offset == len(HUGE_DIMS_CKPT)

    def test_zero_dim_cannot_hide_huge_dims(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"SPKL" + struct.pack("<IIIsI", 1, 1, 1, b"w", 3)
                      + struct.pack("<3Q", 0, 2**40, 2**40))
        with pytest.raises(FormatError, match="implausible size"):
            read_checkpoint(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, {"w": np.zeros(3)})
        p.write_bytes(p.read_bytes() + b"\x00\x01")
        with pytest.raises(FormatError, match="trailing"):
            read_checkpoint(p)

    def test_model_state_roundtrip(self, tmp_path):
        spec = preset_spec("mlp-mini", (1, 8, 8), classes=3, timesteps=4,
                           hidden=16)
        model = build_model(spec, seed=5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model.state_arrays())
        clone = load_checkpoint(path, spec, seed=99)
        for (na, a), (nb, b) in zip(model.parameters(), clone.parameters()):
            assert na == nb
            np.testing.assert_allclose(a.data, b.data, rtol=1e-6)
        path2 = tmp_path / "m2.ckpt"
        save_checkpoint(path2, clone.state_arrays())
        assert path.read_bytes() == path2.read_bytes()


def tiny_setup(seed=0, n=160, classes=3):
    train_ds = synth_blobs(n, classes=classes, seed=seed)
    eval_ds = synth_blobs(60, classes=classes, seed=seed + 1000)
    spec = preset_spec("mlp-mini", (1, 8, 8), classes=classes, timesteps=4,
                       hidden=32)
    model = build_model(spec, seed=seed)
    return model, train_ds, eval_ds, spec


class TestTrainLoop:
    def test_loss_decreases_and_accuracy_rises(self):
        model, tr, ev, _ = tiny_setup()
        cfg = TrainConfig(epochs=4, batch_size=32, lr=0.01, seed=0)
        history = train(model, tr, ev, cfg)
        assert len(history) == 4
        assert history[-1].train_loss < history[0].train_loss
        assert history[-1].accuracy > 0.5

    def test_history_fields_are_sane(self):
        model, tr, ev, _ = tiny_setup(seed=1)
        history = train(model, tr, ev, TrainConfig(epochs=2, batch_size=32,
                                                   lr=0.01, seed=1))
        for row in history:
            assert 0.0 <= row.accuracy <= 1.0
            assert 1.0 <= row.mean_exit <= 4.0
            assert 0.0 <= row.sparsity <= 1.0
            assert 0.0 <= row.fallback_rate <= 1.0
            assert row.lr >= 0.0

    def test_repeat_run_is_identical(self, tmp_path):
        outs = []
        for rep in range(2):
            model, tr, ev, _ = tiny_setup(seed=2)
            history = train(model, tr, ev,
                            TrainConfig(epochs=2, batch_size=32, lr=0.01,
                                        seed=2))
            csv = tmp_path / f"m{rep}.csv"
            ckpt = tmp_path / f"c{rep}.ckpt"
            write_metrics_csv(csv, history)
            save_checkpoint(ckpt, model.state_arrays())
            outs.append((csv.read_bytes(), ckpt.read_bytes()))
        assert outs[0] == outs[1]

    def test_vanilla_loss_mode_runs(self):
        model, tr, ev, _ = tiny_setup(seed=3)
        history = train(model, tr, ev,
                        TrainConfig(epochs=1, batch_size=32, lr=0.01,
                                    loss="vanilla", seed=3))
        assert np.isfinite(history[0].train_loss)

    def test_poisoned_model_aborts_cleanly(self):
        model, tr, ev, _ = tiny_setup(seed=4)
        model.encoder.k.data[...] = np.nan
        with pytest.raises(TrainingAbort, match="epoch 1"):
            train(model, tr, ev, TrainConfig(epochs=1, batch_size=32, seed=4))

    def test_previous_step_graph_is_freed(self, monkeypatch):
        model, tr, ev, _ = tiny_setup(seed=7)
        losses, refcounts = [], []
        real_loss, real_forward = trainer_module.tad_loss, Model.forward

        def keep_loss(*args, **kwargs):
            losses.append(real_loss(*args, **kwargs))
            return losses[-1]

        def forward(self, images, training=False):
            if training and losses:
                # held by the list and by getrefcount's own argument only
                refcounts.append(sys.getrefcount(losses[-1]))
            return real_forward(self, images, training)

        monkeypatch.setattr(trainer_module, "tad_loss", keep_loss)
        monkeypatch.setattr(Model, "forward", forward)
        train(model, tr, ev, TrainConfig(epochs=2, batch_size=32, seed=7))
        assert len(refcounts) == len(losses) - 1 > 0
        assert set(refcounts) == {2}

    @pytest.mark.parametrize("preset", ["mlp-mini", "sew-mini"])
    def test_step_graph_holds_no_reference_cycle(self, preset):
        # a cycle would keep every step's arrays until the cycle collector runs
        shape = (1, 8, 8) if preset == "mlp-mini" else (1, 16, 16)
        spec = preset_spec(preset, shape, classes=3, timesteps=4, hidden=16)
        model = build_model(spec, seed=3)
        opt = trainer_module.AdamW(model.parameters(), lr=0.01)
        imgs = np.random.default_rng(3).uniform(size=(6,) + shape)
        gc.collect()
        gc.disable()
        try:
            for loss in ("tad", "vanilla"):
                trainer_module._train_step(model, opt, imgs, np.arange(6) % 3,
                                           TrainConfig(loss=loss), 0.01)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_class_mismatch_rejected(self):
        model, tr, ev, _ = tiny_setup(seed=5)
        bad = synth_blobs(40, classes=4, seed=9)
        with pytest.raises(ContractError):
            train(model, bad, ev, TrainConfig(epochs=1))

    @pytest.mark.parametrize("split", ["train", "eval"])
    def test_empty_split_rejected(self, split):
        model, tr, ev, _ = tiny_setup(seed=5)
        empty = Dataset(tr.images[:0], tr.labels[:0], tr.classes)
        sets = (empty, ev) if split == "train" else (tr, empty)
        with pytest.raises(ContractError, match="at least one train and one eval image"):
            train(model, *sets, TrainConfig(epochs=1))

    def test_config_validation(self):
        with pytest.raises(ContractError):
            TrainConfig(loss="hinge")
        with pytest.raises(ContractError):
            TrainConfig(epochs=0)
        with pytest.raises(ContractError, match="lr must be positive"):
            TrainConfig(lr=0.0)
        with pytest.raises(ContractError, match="tau must be positive, got 0.0"):
            TrainConfig(tau=0.0)
        with pytest.raises(ContractError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)
        TrainConfig(loss="vanilla", tau=0.0)    # the vanilla loss never reads tau
        TrainConfig(weight_decay=-0.01)          # only finiteness applies

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("setting", [
        "TrainConfig.lr", "TrainConfig.tau", "TrainConfig.weight_decay",
        "vanilla TrainConfig.tau", "LifConfig.v_th", "LifConfig.surrogate_width",
        "LifConfig.tau_leak", "AdamW.lr", "temporal_weights.tau"])
    def test_nonfinite_setting_is_rejected(self, setting, value):
        make = {
            "TrainConfig.lr": lambda v: TrainConfig(lr=v),
            "TrainConfig.tau": lambda v: TrainConfig(tau=v),
            "TrainConfig.weight_decay": lambda v: TrainConfig(weight_decay=v),
            "vanilla TrainConfig.tau": lambda v: TrainConfig(loss="vanilla", tau=v),
            "LifConfig.v_th": lambda v: LifConfig(v_th=v),
            "LifConfig.surrogate_width": lambda v: LifConfig(surrogate_width=v),
            "LifConfig.tau_leak": lambda v: LifConfig(tau_leak=v),
            "AdamW.lr": lambda v: AdamW([], lr=v),
            "temporal_weights.tau": lambda v: temporal_weights(Tensor(np.zeros((2, 3))), v),
        }[setting]
        with pytest.raises(ContractError):
            make(value)


class TestEvaluate:
    def test_rate_and_first_spike_modes(self):
        model, tr, ev, _ = tiny_setup(seed=6)
        first = evaluate(model, ev, decode="first")
        rate = evaluate(model, ev, decode="rate")
        assert 0.0 <= first.accuracy <= 1.0
        assert 0.0 <= rate.accuracy <= 1.0
        assert rate.mean_exit == model.spec.timesteps
        assert len(first.decisions) == len(ev)
        with pytest.raises(ContractError):
            evaluate(model, ev, decode="argmax")

    def test_sparsity_does_not_depend_on_batch_size(self):
        spec = preset_spec("mlp-mini", (1, 8, 8), classes=3, timesteps=4,
                           hidden=64)
        model = build_model(spec, seed=0)
        ev = synth_blobs(150, classes=3, seed=1)
        whole = evaluate(model, ev, batch_size=150).sparsity
        for batch_size in (149, 64):
            got = evaluate(model, ev, batch_size=batch_size).sparsity
            assert abs(got - whole) <= 1e-12, batch_size

    @pytest.mark.parametrize("decode", ["first", "rate"])
    def test_previous_batch_graph_is_freed(self, monkeypatch, decode):
        model, _, ev, _ = tiny_setup(seed=6)
        made, alive = [], []     # weak references to what each batch's pass made
        real_encoder, real_output = model.encoder.unroll, model.output.unroll

        def encoder(images, u0=None):
            # the next batch starts: nothing an earlier one made may be left
            alive.extend(ref() is not None for batch in made for ref in batch)
            frames, trace = real_encoder(images, u0)
            made.append([weakref.ref(frames.data)])
            return frames, trace

        def output(frames, u0=None):
            spikes, trace = real_output(frames, u0)
            made[-1] += [weakref.ref(t) for t in (spikes, trace.potentials, trace.final)]
            made[-1] += [weakref.ref(t.data) for t in (spikes, trace.potentials)]
            return spikes, trace

        monkeypatch.setattr(model.encoder, "unroll", encoder)
        monkeypatch.setattr(model.output, "unroll", output)
        evaluate(model, ev, batch_size=16, decode=decode)
        assert len(made) > 1 and len(alive) >= 6 * (len(made) - 1)
        assert not any(alive)

    def test_empty_dataset_rejected(self):
        model, _, ev, _ = tiny_setup(seed=6)
        empty = Dataset(ev.images[:0], ev.labels[:0], ev.classes)
        for decode in ("first", "rate"):
            with pytest.raises(ContractError):
                evaluate(model, empty, decode=decode)


class TestMetricsCsv:
    def test_layout(self, tmp_path):
        from spikelat.trainer import EpochRow

        rows = [EpochRow(1, 0.01, 1.5, 0.5, 2.25, 0.125, 0.0)]
        p = tmp_path / "m.csv"
        write_metrics_csv(p, rows)
        text = p.read_text().splitlines()
        assert text[0] == ("epoch,lr,train_loss,accuracy,mean_exit,"
                           "sparsity,fallback_rate")
        assert text[1] == "1,0.01,1.5,0.5,2.25,0.125,0"
        assert len(text) == 2


STAGES_WITH_A_DRIVE = [
    ("mlp-mini", "enc"), ("mlp-mini", "s1"), ("mlp-mini", "out"),
    ("vgg-mini", "enc"), ("vgg-mini", "s0"), ("vgg-mini", "s2"), ("vgg-mini", "out"),
    ("sew-mini", "enc"), ("sew-mini", "s0"), ("sew-mini", "s2"), ("sew-mini", "s3"),
    ("sew-mini", "out"),
]


class TestStageFiniteness:
    """Each stage checks its drive, so a poisoned parameter is named by its
    stage on every path, hidden stages included: there a NaN potential would
    otherwise read as "no spike" and an infinite one as a spike."""

    @pytest.mark.parametrize("poison", [np.nan, 1e308])   # 1e308 overflows in the sums
    @pytest.mark.parametrize("preset, stage", STAGES_WITH_A_DRIVE)
    def test_poisoned_stage_is_named(self, preset, stage, poison):
        ds = synth_digits(16, seed=0)
        spec = preset_spec(preset, (1, 16, 16), classes=10, timesteps=4, hidden=32,
                           width=4)
        model = build_model(spec, seed=0)
        (target,) = [s for s in model.audit if s.name == stage]
        _, weights = target.parameters()[0]      # the conv kernel or linear weights
        weights.data[...] = poison
        named = f"non-finite values in stage '{stage}'"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericsError, match=named):
                evaluate(model, ds, batch_size=8)
            with pytest.raises(NumericsError, match=named):
                evaluate(model, ds, batch_size=8, decode="rate")
            with pytest.raises(TrainingAbort, match=f"epoch 1 step 0: {named}"):
                train(model, ds, ds, TrainConfig(epochs=1, batch_size=8))
