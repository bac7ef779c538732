"""Workloads, timed phase, checks and metrics of the spikelat benchmark.

A run has three phases. Set-up (repeated ``SETUP_REPEATS`` times, the last
one kept) generates the data from the seed, builds the model, writes and
reloads a checkpoint and warms up. The timed phase repeats whole rounds of
the same work until ``seconds`` have passed and at least ``MIN_BATCHES``
batches have run: a round of a training workload is one ``trainer.train``
call from the checkpointed initial weights, a round of the analysis
workload is the calls ``spikelat analyze`` makes. The checks phase compares
the outputs with the computations in :mod:`oracles`.

The package is reached through its modules (``trainer.train``, not a bound
name), so the tracer's wrappers see every call.
"""
from __future__ import annotations

import ctypes
import gc
import math
import os
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
import spans
from spikelat import analysis, data, network, trainer
from spikelat.autodiff import Tensor

SETUP_REPEATS = 3
MIN_BATCHES = 100
FORWARD_CHECK_IMAGES = 16
RSS_PERIOD_S = 0.02
TRAIN_DATA_SEED = 0        # eval sets use seed + 1, so they never coincide

END_TO_END = (
    ("images_per_s", "images/s", "higher"),
    ("batch_ms_p50", "ms", "lower"),
    ("batch_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("accuracy", "fraction", "higher"),
    ("mean_exit_steps", "steps", "lower"),
)

STAGES = ("enc", "s0", "s1", "s2", "s3", "s4", "s5", "out")

# name -> (unit, better, kind, span or sample name, phase, scale)
#   self_per_batch  : self time of the spans, per batch of the phase
#   total_per_batch : whole span time, per batch of the phase
#   total_per_call  : whole span time, per call
#   total_per_setup : whole span time, per set-up
#   mean_sample     : mean of the recorded values
PER_LAYER = {
    "autodiff.backward_ms": ("ms", "lower", "self_per_batch", "autodiff.backward", "timed", 1e3),
    "autodiff.tape_nodes": ("count", "lower", "mean_sample", "autodiff.tape_nodes", "timed", 1),
    "autodiff.tape_mb": ("MB", "lower", "mean_sample", "autodiff.tape_bytes", "timed", 1e-6),
    "autodiff.conv2d_ms": ("ms", "lower", "self_per_batch", "autodiff.conv2d", "timed", 1e3),
    "autodiff.batchnorm2d_ms": ("ms", "lower", "self_per_batch", "autodiff.batchnorm2d",
                                "timed", 1e3),
    "autodiff.linear_ms": ("ms", "lower", "self_per_batch", "autodiff.linear", "timed", 1e3),
    "lif.unroll_ms": ("ms", "lower", "self_per_batch", "lif.unroll", "timed", 1e3),
    "encoder.forward_ms": ("ms", "lower", "self_per_batch", "encoder.encode", "timed", 1e3),
    "network.forward_ms": ("ms", "lower", "total_per_batch", "network.forward", "timed", 1e3),
    **{f"network.{s}.forward_ms": ("ms", "lower", "total_per_batch",
                                   "encoder.encode" if s == "enc" else f"network.{s}.forward",
                                   "timed", 1e3) for s in STAGES},
    "network.spike_rate": ("fraction", "lower", "mean_sample", "network.spike_rate", "timed", 1),
    "loss.tad_ms": ("ms", "lower", "self_per_batch", "loss.tad", "timed", 1e3),
    "trainer.optimizer_ms": ("ms", "lower", "self_per_batch", "trainer.optimizer", "timed", 1e3),
    "trainer.evaluate_s": ("s", "lower", "total_per_call", "trainer.evaluate", "timed", 1),
    "trainer.checkpoint_save_ms": ("ms", "lower", "total_per_call", "trainer.checkpoint_save",
                                   "setup", 1e3),
    "trainer.checkpoint_load_ms": ("ms", "lower", "total_per_call", "trainer.checkpoint_load",
                                   "setup", 1e3),
    "decoder.decode_ms": ("ms", "lower", "self_per_batch", "decoder.decode", "timed", 1e3),
    "data.synth_s": ("s", "lower", "total_per_setup", "data.synth", "setup", 1),
    "data.batches_ms": ("ms", "lower", "self_per_batch", "data.batches", "timed", 1e3),
    "data.corrupt_ms": ("ms", "lower", "total_per_call", "data.corrupt", "timed", 1e3),
    "analysis.energy_ms": ("ms", "lower", "total_per_call", "analysis.energy", "timed", 1e3),
    "analysis.similarity_ms": ("ms", "lower", "total_per_call", "analysis.similarity",
                               "timed", 1e3),
    "analysis.robustness_s": ("s", "lower", "total_per_call", "analysis.robustness", "timed", 1),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    source: str            # "digits" (10 classes, 16x16) or "blobs"
    classes: int
    size: int
    timesteps: int
    batch: int
    train_count: int
    eval_count: int
    epochs: int
    lr: float
    analyze: bool = False  # timed phase runs the analysis calls, not training


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-vgg-digits",
        why="conv2d and batchnorm2d arithmetic dominates a large tape; conv kernels and"
            " time-batched stages show here",
        preset="vgg-mini", source="digits", classes=10, size=16, timesteps=4,
        batch=128, train_count=2560, eval_count=512, epochs=5, lr=0.02),
    Workload(
        name="train-mlp-blobs",
        why="many small tape nodes: per-node overhead, the T=16 LIF recurrence and per-step"
            " loss terms dominate, conv work is negligible",
        preset="mlp-mini", source="blobs", classes=4, size=8, timesteps=16,
        batch=64, train_count=2048, eval_count=512, epochs=2, lr=0.01),
    Workload(
        name="analyze-sew-digits",
        why="forward only: eval-mode batch norm, the residual stage, decoding and corruptions;"
            " no backward pass",
        preset="sew-mini", source="digits", classes=10, size=16, timesteps=4,
        batch=64, train_count=1280, eval_count=384, epochs=2, lr=0.03, analyze=True),
)}


# -- inputs and model --------------------------------------------------------------


def make_datasets(w: Workload, seed: int):
    """The fixed train set and the eval set drawn from the workload seed.

    Models trained on different draws differ more than any bound allows:
    over five train-set seeds vgg-mini ended at 0.80 to 0.99 accuracy and
    2.2 to 3.5 mean exit steps. So every seed trains the same model and
    evaluates it on its own inputs.
    """
    if w.source == "digits":
        return (data.synth_digits(w.train_count, size=w.size, seed=TRAIN_DATA_SEED),
                data.synth_digits(w.eval_count, size=w.size, seed=seed + 1))
    return (data.synth_blobs(w.train_count, w.classes, size=w.size, seed=TRAIN_DATA_SEED),
            data.synth_blobs(w.eval_count, w.classes, size=w.size, seed=seed + 1))


def model_spec(w: Workload):
    return network.preset_spec(w.preset, (1, w.size, w.size), classes=w.classes,
                               timesteps=w.timesteps)


def train_config(w: Workload, epochs=None):
    return trainer.TrainConfig(epochs=epochs or w.epochs, batch_size=w.batch, lr=w.lr, seed=0)


# -- probes of the untraced run ----------------------------------------------------


class Probe:
    """Times each batch and keeps each TAD loss, through two thin wrappers.

    A batch's time runs from the moment ``batches`` hands it out until the
    consumer asks for the next one: forward, loss, backward and optimizer
    in training, forward and decode in evaluation.
    """

    def __init__(self):
        self.reset()
        self._undo = []

    def install(self):
        real_batches, real_loss = trainer.batches, trainer.tad_loss

        def batches(ds, batch_size, seed=0, shuffle=True, **kwargs):
            for item in real_batches(ds, batch_size, seed=seed, shuffle=shuffle, **kwargs):
                t0 = time.perf_counter()
                yield item
                ms = (time.perf_counter() - t0) * 1e3
                if shuffle:
                    self.train_ms.append(ms)
                    self.train_images += len(item[1])
                else:
                    self.eval_ms.append(ms)
                    self.eval_images += len(item[1])

        def tad_loss(*args, **kwargs):
            loss = real_loss(*args, **kwargs)
            self.losses.append(float(loss.data))
            return loss

        for attr, fn in (("batches", batches), ("tad_loss", tad_loss)):
            self._undo.append((attr, getattr(trainer, attr)))
            setattr(trainer, attr, fn)
        return self

    def batch_ms(self, evaluation):
        """Batch times of evaluation (analysis) or of training."""
        return self.eval_ms if evaluation else self.train_ms

    def images(self, evaluation):
        return self.eval_images if evaluation else self.train_images

    def reset(self):
        self.train_ms, self.eval_ms = [], []
        self.train_images = self.eval_images = 0
        self.losses = []

    def close(self):
        while self._undo:
            attr, fn = self._undo.pop()
            setattr(trainer, attr, fn)


def release_freed_memory():
    """Hand freed heap back to the OS, so that the timed phase's RSS peak is
    its own and not what set-up (a checkpoint's training) left behind."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


class PeakRss:
    """Highest resident set size seen by a sampling thread while active."""

    def __init__(self, period=RSS_PERIOD_S):
        self.period = period
        self.peak = 0
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._fd = None
        self._thread = None

    def _rss(self):
        return int(os.pread(self._fd, 256, 0).split()[1]) * self._page

    def _run(self):
        while not self._stop.wait(self.period):
            self.peak = max(self.peak, self._rss())

    def __enter__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self.peak = self._rss()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self._rss())
        os.close(self._fd)


# -- phases ----------------------------------------------------------------------


@dataclass
class Setup:
    train_ds: object
    eval_ds: object
    spec: object
    model: object
    saved: dict            # float64 arrays of the model that was checkpointed
    ckpt: Path
    initial: dict          # arrays each training round starts from


def set_up(w: Workload, seed: int, ckpt: Path) -> Setup:
    train_ds, eval_ds = make_datasets(w, seed)
    spec = model_spec(w)
    model = network.build_model(spec, seed=0)
    warm = data.Dataset(train_ds.images[: w.batch], train_ds.labels[: w.batch], w.classes)
    if w.analyze:   # the checkpoint under analysis; its per-epoch evaluation is one batch
        trainer.train(model, train_ds, warm, train_config(w))
    saved = {k: np.array(v) for k, v in model.state_arrays().items()}
    trainer.save_checkpoint(ckpt, saved)
    model = trainer.load_checkpoint(ckpt, spec, seed=0)
    initial = {k: np.array(v) for k, v in model.state_arrays().items()}
    if w.analyze:
        trainer.evaluate(model, warm, batch_size=w.batch)
    else:
        trainer.train(model, warm, warm, train_config(w, epochs=1))
        model.load_state(initial)
    return Setup(train_ds, eval_ds, spec, model, saved, ckpt, initial)


def analysis_round(s: Setup, w: Workload, seed: int):
    """The calls ``spikelat analyze`` makes, on the eval set."""
    res = trainer.evaluate(s.model, s.eval_ds, batch_size=w.batch)
    rec = s.model.forward(Tensor(s.eval_ds.images[: w.batch]), training=False)
    energy = analysis.model_energy(s.model, rec)
    sims = {name: analysis.temporal_similarity(frames)
            for name, frames in rec.stage_spikes.items()}
    rob = analysis.robustness_eval(s.model, s.eval_ds, batch_size=w.batch, seed=seed)
    return res, energy, sims, rob


def timed_phase(s: Setup, w: Workload, seed: int, seconds: float, probe: Probe,
                min_batches: int):
    """Whole rounds until ``seconds`` and ``min_batches`` are both reached."""
    probe.reset()
    rates, outputs, losses = [], None, []
    start = time.perf_counter()
    while True:
        images = probe.images(w.analyze)
        if w.analyze:
            t0 = time.perf_counter()
            outputs = analysis_round(s, w, seed)
            busy = time.perf_counter() - t0
        else:
            s.model.load_state(s.initial)
            first = len(probe.losses)
            t0 = time.perf_counter()
            trainer.train(s.model, s.train_ds, s.eval_ds, train_config(w))
            busy = time.perf_counter() - t0
            losses = probe.losses[first:]
        rates.append((probe.images(w.analyze) - images) / busy)
        if time.perf_counter() - start >= seconds \
                and len(probe.batch_ms(w.analyze)) >= min_batches:
            break
    return {"round_rates": rates, "outputs": outputs,
            "last_losses": losses, "all_losses": list(probe.losses)}


def checks(s: Setup, w: Workload, timed: dict):
    """Every check of the workload; returns the checked (accuracy, mean exit)."""
    model, ds = s.model, s.eval_ds
    res = trainer.evaluate(model, ds, batch_size=w.batch)
    expected = []
    for start in range(0, len(ds), w.batch):
        imgs = ds.images[start : start + w.batch]
        rec = model.forward(Tensor(imgs), training=False)
        spikes = np.stack([np.asarray(x.data) for x in rec.out_spikes])
        pots = np.stack([np.asarray(x.data) for x in rec.logits])
        if start == 0:
            k = FORWARD_CHECK_IMAGES
            oracles.check_forward(s.spec, model.state_arrays(), imgs[:k],
                                  spikes[:, :k], pots[:, :k])
        expected.extend(oracles.first_spike_decisions(spikes, pots))
    oracles.check_decisions(res.decisions, expected)
    accuracy = float(np.mean(np.array([e[0] for e in expected]) == ds.labels))
    mean_exit = float(np.mean([e[1] for e in expected]))
    if abs(res.accuracy - accuracy) > 1e-12 or abs(res.mean_exit - mean_exit) > 1e-12:
        raise oracles.CheckFailed(
            f"evaluate: accuracy {res.accuracy} and mean exit {res.mean_exit}, the checked"
            f" decisions give {accuracy} and {mean_exit}")

    oracles.check_checkpoint(trainer.read_checkpoint(s.ckpt), s.saved)
    if w.analyze:
        _, energy, sims, rob = timed["outputs"]
        oracles.check_energy(energy, s.spec)
        oracles.check_similarity(sims, s.spec.timesteps)
        oracles.check_robustness(rob, data.CORRUPTIONS, range(1, 6), accuracy)
    else:
        if not all(math.isfinite(x) for x in timed["all_losses"]):
            raise oracles.CheckFailed("training: a loss is not finite")
        oracles.check_training(timed["last_losses"], accuracy, w.classes)
    return accuracy, mean_exit


# -- metrics ---------------------------------------------------------------------


def block_p90(batch_ms, block=MIN_BATCHES):
    """Median of the 90th percentiles of consecutive blocks of at least
    ``block`` batches: a burst of interference from outside the process
    moves one block's figure, not the run's."""
    k = max(1, len(batch_ms) // block)
    return float(np.median([np.percentile(b, 90) for b in np.array_split(batch_ms, k)]))


def end_to_end_metrics(batch_ms, round_rates, setup_times, peak, accuracy, mean_exit):
    values = {
        "images_per_s": float(np.median(round_rates)),
        "batch_ms_p50": float(np.percentile(batch_ms, 50)),
        "batch_ms_p90": block_p90(batch_ms),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak / 1e6,
        "accuracy": accuracy,
        "mean_exit_steps": mean_exit,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer_metrics(tracer: spans.Tracer):
    rows = tracer.table()
    phase_of = {"phase.setup": "setup", "phase.timed": "timed"}
    batches = sum(1 for name, top, _, _ in rows if name == "batch" and top == "phase.timed")
    setups = sum(1 for name, _, _, _ in rows if name == "phase.setup")
    out = {}
    for metric, (unit, _, kind, source, phase, scale) in PER_LAYER.items():
        if kind == "mean_sample":
            vals = [v for name, v, top in tracer.samples
                    if name == source and top >= 0 and phase_of.get(tracer.names[top]) == phase]
            value = float(np.mean(vals)) if vals else 0.0
        else:
            picked = [(dur, own) for name, top, dur, own in rows
                      if name == source and phase_of.get(top) == phase]
            if kind == "self_per_batch":
                value = sum(own for _, own in picked) / max(batches, 1)
            elif kind == "total_per_batch":
                value = sum(dur for dur, _ in picked) / max(batches, 1)
            elif kind == "total_per_call":
                value = sum(dur for dur, _ in picked) / max(len(picked), 1)
            else:
                value = sum(dur for dur, _ in picked) / max(setups, 1)
        out[metric] = {"value": value * scale, "unit": unit}
    return out


# -- one run ---------------------------------------------------------------------


def run(w: Workload, seed: int, seconds: float, trace: bool, out_dir: Path,
        min_batches: int = MIN_BATCHES, setup_repeats: int = SETUP_REPEATS, log=print):
    """One benchmark run; returns the result object the entry point prints."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{w.name}-s{seed}"
    ckpt = out_dir / f"{tag}-p{os.getpid()}.ckpt"
    probe = Probe().install()
    tracer = spans.Tracer().install() if trace else None

    def phase(name):
        return tracer.span(f"phase.{name}") if tracer else nullcontext()

    try:
        setup_times = []
        for _ in range(setup_repeats):
            setup = None   # drop the previous set-up before building the next
            with phase("setup"):
                t0 = time.perf_counter()
                setup = set_up(w, seed, ckpt)
                setup_times.append(time.perf_counter() - t0)
        release_freed_memory()
        with phase("timed"), PeakRss() as rss:
            timed = timed_phase(setup, w, seed, seconds, probe, min_batches)
        batch_ms, images = list(probe.batch_ms(w.analyze)), probe.images(w.analyze)
        with phase("checks"):
            try:
                accuracy, mean_exit = checks(setup, w, timed)
                failure = None
            except oracles.CheckFailed as e:
                failure = str(e)
    finally:
        if tracer:
            tracer.close()
        probe.close()
        ckpt.unlink(missing_ok=True)

    if failure:
        log(f"check failed: {failure}")
        return {"correct": False, "attempted": len(batch_ms), "failed": 0, "metrics": {}}
    rates = timed["round_rates"]
    log(f"rounds {len(rates)} batches {len(batch_ms)} images {images}"
        f" images_per_s {float(np.median(rates)):.2f}")
    if tracer:
        span_file = out_dir / f"{tag}.spans.json"
        tracer.write(span_file, {"workload": w.name, "seed": seed, "seconds": seconds})
        log(f"spans {len(tracer.names)} written to {span_file}")
        metrics = per_layer_metrics(tracer)
    else:
        metrics = end_to_end_metrics(batch_ms, rates, setup_times, rss.peak, accuracy,
                                     mean_exit)
    return {"correct": True, "attempted": len(batch_ms), "failed": 0, "metrics": metrics}

