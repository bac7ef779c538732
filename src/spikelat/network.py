"""Model assembly: latency encoder in front, spiking stages behind it.

A model is described by a ``ModelSpec`` (input geometry, class count,
window length, stage list) and materialized by :func:`build_model` with a
seeded initializer. Every stage, the encoder and the readout included,
follows one protocol (:class:`Stage`): it is built from its input shape and
reports its own output shape, connection count and whether it spikes, so
``Model.audit`` is simply the stage list.

``Model.run`` is the one loop over the stages behind the encoder. It is
layer-major and time-major: each stage maps its predecessor's (T, N, ...)
raster block to its own, which for a feedforward wiring equals stepping
the net through time, and each LIF population can start from a carried
potential. ``Model.forward`` is the encoder raster then one ``run`` from
rest over the whole window; it serves training and the record the energy
and similarity reports read. ``trainer.evaluate`` calls ``run`` once per
block of steps. Convolutions, linear maps and pooling run once on the
folded (T*N, ...) batch; only the membrane recurrence steps through time,
in one fused LIF node per population. The tape is the one train/eval
switch: a stage run while ``autodiff.recording()`` is true is in training
mode, and one run under ``autodiff.no_grad`` is in eval mode, where each
stage's arrays are freed once the next stage has them and its batch norm
is folded into the conv before it. Each value is released
(``Tensor.release``) once the ops that read it have run, so the tape keeps
only what backward reads: batch norm takes over the conv result and the
LIF population its drive (they write into those buffers), and the stages
release the encoder's drive, the residual branch and each stage's input
frames. Spike values (the raster, LIF spikes and residual sums) are uint8.
``Model.forward``'s ``training`` flag only says whether it opens that
scope.

The encoder is a conv stage whose drive feeds a sigmoid and the latency
code instead of a LIF population. The output stage is a spiking linear
population like any hidden one. Its pre-reset membrane potentials double
as the per-step logits for the loss; its spikes drive first-spike decoding.
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (_BN_EPS, Constant, Tensor, _conv_geometry, avg_pool2d, batchnorm2d,
                       check_finite, conv2d, linear, no_grad, recording, sigmoid)
from .data import seeded_rng
from .encoder import MAX_TIMESTEPS, latency_encode
from .errors import ShapeError, SpecError
from .lif import LifConfig, lif_unroll


MAX_WIDTH = 4096   # channels of a conv or units of a linear layer: 32x the widest preset (128)


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a ModelSpec; every conv is 3x3, stride 1, same padding, every pool 2x2."""

    kind: str          # conv | sew | pool | flatten | linear
    out: int = 0       # channels (conv/sew) or units (linear)
    kernel, stride, pad, pool = 3, 1, 1, 2

    def __post_init__(self):
        if self.kind not in ("conv", "sew", "pool", "flatten", "linear"):
            raise SpecError(f"unknown layer kind {self.kind!r}")
        if self.kind in ("conv", "sew", "linear") and self.out < 1:
            raise SpecError(f"{self.kind} layer needs out >= 1, got {self.out}")
        if self.out > MAX_WIDTH:
            raise SpecError(f"{self.kind} layer needs out <= {MAX_WIDTH}, got {self.out}")


def _check_size(name, value, most):
    if not 1 <= value <= most:
        raise SpecError(f"{name} must be in [1, {most}], got {value}")


@dataclass(frozen=True)
class ModelSpec:
    name: str
    input_shape: tuple      # (C, H, W)
    classes: int
    timesteps: int
    encoder_channels: int
    layers: tuple           # of LayerSpec
    lif: LifConfig = field(default_factory=LifConfig)

    def __post_init__(self):
        if len(self.input_shape) != 3:
            raise SpecError(f"input_shape must be (C, H, W), got {self.input_shape}")
        if self.classes < 2:
            raise SpecError("need at least two classes")
        _check_size("timesteps", self.timesteps, MAX_TIMESTEPS)
        _check_size("encoder_channels", self.encoder_channels, MAX_WIDTH)


PRESETS = ("mlp-mini", "vgg-mini", "sew-mini")


def preset_spec(name, input_shape, classes, timesteps=8, hidden=128,
                encoder_channels=2, lif=None, width=8):
    """Concrete ModelSpec for one of the built-in architectures.

    mlp-mini: encode, flatten, one hidden spiking linear layer.
    vgg-mini: encode, two conv blocks with pooling.
    sew-mini: vgg-mini plus a residual spiking block on the second conv.
    """
    lif = lif if lif is not None else LifConfig()
    if name == "mlp-mini":
        _check_size("hidden", hidden, MAX_WIDTH)
        layers = (
            LayerSpec("flatten"),
            LayerSpec("linear", out=hidden),
        )
    elif name in ("vgg-mini", "sew-mini"):
        _check_size("width", width, MAX_WIDTH // 2)     # the second conv has 2*width channels
        sew = (LayerSpec("sew", out=2 * width),) if name == "sew-mini" else ()
        layers = (
            LayerSpec("conv", out=width),
            LayerSpec("pool"),
            LayerSpec("conv", out=2 * width),
            *sew,
            LayerSpec("pool"),
            LayerSpec("flatten"),
        )
    else:
        raise SpecError(f"unknown preset {name!r}, expected one of {PRESETS}")
    return ModelSpec(
        name=name,
        input_shape=tuple(input_shape),
        classes=classes,
        timesteps=timesteps,
        encoder_channels=encoder_channels,
        layers=layers,
        lif=lif,
    )


@dataclass
class ForwardRecord:
    """Everything one forward pass produced that training or analysis reads.

    ``logits`` and ``out_spikes`` are the output population's (T, N, classes)
    pre-reset potentials and spikes; indexing gives per-step views.
    ``stage_spikes`` maps stage name to its emitted (T, N, ...) values, a
    plain uint8 array detached from the tape.
    """

    logits: Tensor
    out_spikes: Tensor
    stage_spikes: dict

    @property
    def timesteps(self):
        return len(self.logits)

    def stage_alpha(self):
        """Mean emitted value per slot per step, keyed by stage name."""
        return {name: float(frames.sum()) / frames.size
                for name, frames in self.stage_spikes.items()}

    @property
    def slots(self):
        """Slots per sample per step, over all spiking stages."""
        return sum(int(np.prod(f.shape[2:])) for f in self.stage_spikes.values())

    def spike_counts(self):
        """(steps, rows) number of slots carrying a spike, over all spiking
        stages; a residual block's 2 counts once."""
        return sum(np.count_nonzero(f.reshape(f.shape[:2] + (-1,)), axis=2)
                   for f in self.stage_spikes.values())

    def sparsity(self):
        """Fraction of slot-steps carrying a spike, over all spiking stages."""
        counts = self.spike_counts()
        return float(counts.sum()) / (self.slots * counts.size)


def flops_conv(h_out, w_out, c_in, c_out, kernel) -> int:
    """Connections of one conv presentation: every output pixel, full fan-in."""
    return int(h_out) * int(w_out) * int(c_in) * int(c_out) * int(kernel) ** 2


def flops_fc(n_in, n_out) -> int:
    return int(n_in) * int(n_out)


def _kaiming(rng, shape, fan_in):
    return rng.normal(size=shape) * np.sqrt(2.0 / fan_in)


class Stage:
    """One step of the pipeline, built from the per-sample shape it receives.

    A stage reports its ``name``, ``kind``, ``in_shape`` and ``out_shape``
    (per sample, without batch), ``flops`` (connections per sample per
    presentation, what the energy model charges) and whether it is
    ``spiking``, i.e. emits the spike-valued frames a forward record keeps.
    ``unroll(frames, u0=None)`` maps its predecessor's (T, N, ...) tensor to
    its own and returns it with its population's ``LifTrace``, or None for a
    stage without one; a population starts from rest, or from ``u0``, the
    ``final`` potential of the block before (see ``Model.run``). It runs in
    training mode while the tape records (``autodiff.recording()``) and in
    eval mode without it.
    """

    spiking = True

    def __init__(self, name, in_shape, out_shape, flops=0):
        self.name = name
        self.in_shape = tuple(in_shape)
        self.out_shape = tuple(out_shape)
        self.flops = flops

    def parameters(self):
        """(local name, tensor) pairs; the model prefixes the stage name."""
        return []

    def buffers(self):
        return []


class ConvStage(Stage):
    kind = "conv"

    def __init__(self, name, in_shape, layer, lif, rng):
        if len(in_shape) != 3:
            raise SpecError(f"{name}: conv needs a (C,H,W) input, have {in_shape}")
        ci, hi, wi = in_shape
        ho, wo = _conv_geometry(hi, wi, layer.kernel, layer.pad)
        super().__init__(name, in_shape, (layer.out, ho, wo),
                         flops_conv(ho, wo, ci, layer.out, layer.kernel))
        self.k = Tensor(_kaiming(rng, (layer.out, ci, layer.kernel, layer.kernel),
                                 ci * layer.kernel * layer.kernel))
        self.gamma = Tensor(np.ones(layer.out))
        self.beta = Tensor(np.zeros(layer.out))
        self.running_mean = np.zeros(layer.out)
        self.running_var = np.ones(layer.out)
        self.lif = lif

    def drive(self, frames):
        """Conv then batch norm of (N, ...) images or (T, N, ...) frames,
        checked for NaN and Inf: what follows a drive could hide them.

        While the tape records, the batch norm uses batch statistics and
        updates the running buffers. Without the tape (eval mode) the batch
        norm is affine per channel, so it folds into the conv (Jacob et al.,
        CVPR 2018): one conv on the kernel scaled by
        gamma/sqrt(running_var+eps), then the shift beta - running_mean*scale.
        """
        if recording():
            h = batchnorm2d(conv2d(frames, self.k, pad=LayerSpec.pad), self.gamma, self.beta,
                            self.running_mean, self.running_var)
        else:
            scale = self.gamma.data / np.sqrt(self.running_var + _BN_EPS)
            # a result of k and gamma, not a leaf: the check below names the stage
            folded = Tensor(self.k.data * scale[:, None, None, None],
                            (self.k, self.gamma), "bn_fold")
            h = conv2d(frames, folded, pad=LayerSpec.pad)
            h.data += (self.beta.data - self.running_mean * scale)[:, None, None]
        return check_finite(h, f"stage '{self.name}'")

    def unroll(self, frames, u0=None):
        trace = lif_unroll(self.drive(frames), self.lif, u0)
        return trace.spikes, trace

    def parameters(self):
        return [("conv.k", self.k), ("bn.gamma", self.gamma),
                ("bn.beta", self.beta)]

    def buffers(self):
        return [("bn.running_mean", self.running_mean),
                ("bn.running_var", self.running_var)]


class EncoderStage(ConvStage):
    """The latency encoder as the first stage: images in, a (T, N, ...) raster out."""

    def __init__(self, name, in_shape, channels, timesteps, rng):
        super().__init__(name, in_shape, LayerSpec("conv", out=channels), None, rng)
        self.timesteps = timesteps

    def encode(self, images):
        """Returns (the (T, N, C, H, W) spike raster, the analog features)."""
        drive = self.drive(images)
        f = sigmoid(drive)
        drive.release()
        return latency_encode(f, self.timesteps), f

    def unroll(self, images, u0=None):
        if images.ndim != 4 or tuple(images.shape[1:]) != self.in_shape:
            raise ShapeError(
                f"expected images (N, {', '.join(map(str, self.in_shape))}),"
                f" got {images.shape}"
            )
        frames, _ = self.encode(images)
        return frames, None


class SewStage(ConvStage):
    """Residual spiking block: spikes of a conv path added to its input.

    The conv path keeps the geometry (stride 1, same padding). Input frames
    must be binary; outputs take values in {0, 1, 2}.
    """

    kind = "sew"

    def __init__(self, name, in_shape, layer, lif, rng):
        super().__init__(name, in_shape, layer, lif, rng)
        if in_shape[0] != layer.out:
            raise SpecError(f"{name}: residual block needs matching channels, have {in_shape}")

    def unroll(self, frames, u0=None):
        branch, trace = super().unroll(frames, u0)
        out = branch + frames
        branch.release()
        return out, trace


class PoolStage(Stage):
    kind = "pool"
    spiking = False

    def __init__(self, name, in_shape, layer, lif, rng):
        if len(in_shape) != 3:
            raise SpecError(f"{name}: pool needs a (C,H,W) input, have {in_shape}")
        c, h, w = in_shape
        if h % layer.pool or w % layer.pool:
            raise SpecError(f"{name}: {h}x{w} not divisible by pool {layer.pool}")
        super().__init__(name, in_shape, (c, h // layer.pool, w // layer.pool))
        self.size = layer.pool

    def unroll(self, frames, u0=None):
        return avg_pool2d(frames, self.size), None


class FlattenStage(Stage):
    kind = "flatten"
    spiking = False

    def __init__(self, name, in_shape, layer, lif, rng):
        super().__init__(name, in_shape, (int(np.prod(in_shape)),))

    def unroll(self, frames, u0=None):
        return frames.reshape(frames.shape[:2] + self.out_shape), None


class LinearStage(Stage):
    """Linear map into a spiking population; the readout is one of these."""

    kind = "linear"

    def __init__(self, name, in_shape, layer, lif, rng):
        if len(in_shape) != 1:
            raise SpecError(f"{name}: linear needs a flat input, have {in_shape}")
        (n_in,) = in_shape
        super().__init__(name, in_shape, (layer.out,), flops_fc(n_in, layer.out))
        self.w = Tensor(_kaiming(rng, (n_in, layer.out), n_in))
        self.b = Tensor(np.zeros(layer.out))
        self.lif = lif

    def unroll(self, frames, u0=None):
        drive = check_finite(linear(frames, self.w, self.b), f"stage '{self.name}'")
        trace = lif_unroll(drive, self.lif, u0)
        return trace.spikes, trace

    def parameters(self):
        return [("lin.w", self.w), ("lin.b", self.b)]


_STAGES = {"conv": ConvStage, "sew": SewStage, "pool": PoolStage,
           "flatten": FlattenStage, "linear": LinearStage}


class Model:
    def __init__(self, spec: ModelSpec, encoder, stages, output):
        self.spec = spec
        self.encoder = encoder
        self.stages = stages
        self.output = output
        self.audit = [encoder, *stages, output]

    def raster(self, images: Tensor) -> Tensor:
        """The encoder's (T, N, ...) latency raster of (N, C, H, W) images.
        The images are data to the model (an ``autodiff.Constant``): it
        computes no gradient for them."""
        return self.encoder.unroll(Constant(images.data))[0]

    def run(self, frames: Tensor, state=None) -> ForwardRecord:
        """Map a (T, N, ...) raster block through the stages behind the encoder,
        recorded first under the encoder's name. Each LIF population starts from
        ``state[name]``, or from rest without it; a given ``state`` is left
        holding each one's final potential, where the next block starts. Each
        stage's input frames, ``frames`` included, are released once the stage
        has returned; the record's arrays stay readable."""
        record_frames = {self.encoder.name: frames.data}
        for stage in (*self.stages, self.output):
            out, trace = stage.unroll(frames, state.get(stage.name) if state else None)
            frames.release()
            frames = out
            if stage.spiking:
                record_frames[stage.name] = frames.data
            if trace is not None and state is not None:
                state[stage.name] = trace.final.data
            if stage is self.output:
                logits = trace.potentials
            del trace   # free a hidden population's potentials before the next stage runs
        return ForwardRecord(logits=logits, out_spikes=frames, stage_spikes=record_frames)

    def forward(self, images: Tensor, training: bool = False) -> ForwardRecord:
        """The whole window from rest. Only a training pass is recorded on the
        tape; an eval pass frees each stage's arrays as the next stage runs."""
        with nullcontext() if training else no_grad():
            return self.run(self.raster(images))

    def parameters(self):
        return [(f"{s.name}.{n}", t) for s in self.audit for n, t in s.parameters()]

    def buffers(self):
        return [(f"{s.name}.{n}", a) for s in self.audit for n, a in s.buffers()]

    def state_arrays(self):
        """Name -> array for everything a checkpoint must carry."""
        state = {n: t.data for n, t in self.parameters()}
        state.update({n: a for n, a in self.buffers()})
        return state

    def load_state(self, arrays):
        state = dict(arrays)
        targets = [("parameter", n, t.data) for n, t in self.parameters()]
        targets += [("buffer", n, a) for n, a in self.buffers()]
        for what, n, dst in targets:
            if n not in state:
                raise SpecError(f"checkpoint missing {what} {n!r}")
            a = np.asarray(state.pop(n), dtype=np.float64)
            if a.shape != dst.shape:
                raise SpecError(
                    f"{what} {n!r} has shape {a.shape}, model needs {dst.shape}"
                )
            dst[...] = a
        if state:
            extra = ", ".join(sorted(state))
            raise SpecError(f"checkpoint carries unknown arrays: {extra}")


def build_model(spec: ModelSpec, seed: int = 0) -> Model:
    """Materialize parameters for a spec with a deterministic initializer.

    Each stage is built from its predecessor's output shape, so shapes and
    connection counts are worked out once, by the stages themselves.
    """
    rng = seeded_rng("model seed", seed)
    encoder = EncoderStage("enc", spec.input_shape, spec.encoder_channels,
                           spec.timesteps, rng)
    stages = []
    shape = encoder.out_shape
    for i, layer in enumerate(spec.layers):
        stages.append(_STAGES[layer.kind](f"s{i}", shape, layer, spec.lif, rng))
        shape = stages[-1].out_shape
    output = LinearStage("out", shape, LayerSpec("linear", out=spec.classes),
                         spec.lif, rng)
    return Model(spec, encoder, stages, output)
