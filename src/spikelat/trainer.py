"""Training loop, optimizer, evaluation, metrics, and checkpoints.

The optimizer is Adam with decoupled weight decay: the decay term shrinks
the parameter directly and never enters the moment estimates. The learning
rate follows a half-cosine from its initial value to zero over the whole
run. Both match the common modern recipe and are deterministic given the
seed, so two identical runs produce byte-identical metrics and checkpoint
files (nothing time-dependent is ever written into an artifact).

``evaluate`` is the one pass that scores data (per epoch, ``spikelat eval``,
the robustness sweep). It runs without a tape, step-major: step 1 for the
whole batch, then steps 2..T as one block for the samples whose output did
not fire at step 1.

Checkpoints are a flat little-endian container of named float32 arrays:
magic "SPKL", u32 version, u32 count, then per array a length-prefixed
UTF-8 name, u32 rank, u64 dims, and the row-major data.
"""
from __future__ import annotations

import ctypes
import math
import struct
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .autodiff import Tensor, check_finite, no_grad
from .data import Dataset, batches
from .decoder import decode_batch, rate_decode
from .errors import ContractError, FormatError, NumericsError, TrainingAbort, check_positive
from .loss import tad_loss, vanilla_loss
from .network import Model, ModelSpec, build_model


class AdamW:
    """Adam with the weight-decay step applied outside the moment update."""

    b1, b2, eps = 0.9, 0.999, 1e-8    # Adam's usual moment decays and floor

    def __init__(self, params, lr=0.001, weight_decay=0.01):
        check_positive("lr", lr)
        self.params = [t for _, t in params]
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr=None):
        """Apply one update from the gradients currently on the parameters."""
        lr = self.lr if lr is None else lr
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            # decay shrinks the incoming parameter, not the updated one
            p.data -= lr * (update + self.weight_decay * p.data)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


def cosine_lr(step, total_steps, lr0):
    """Half-cosine decay from lr0 at step 0 to zero at total_steps."""
    if total_steps < 1:
        raise ContractError("total_steps must be >= 1")
    step = min(max(step, 0), total_steps)
    return lr0 * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))


LOSSES = ("tad", "vanilla")
DECODE_MODES = ("first", "rate")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    batch_size: int = 64
    lr: float = 0.001
    weight_decay: float = 0.01
    loss: str = "tad"            # one of LOSSES
    tau: float = 2.0
    detach_weights: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ContractError(f"loss must be {' or '.join(map(repr, LOSSES))},"
                                f" got {self.loss!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ContractError("epochs and batch_size must be >= 1")
        check_positive("lr", self.lr)
        if self.loss == "tad":      # the vanilla loss never reads tau
            check_positive("tau", self.tau)
        if not (math.isfinite(self.tau) and math.isfinite(self.weight_decay)):
            raise ContractError(f"tau {self.tau} and weight_decay {self.weight_decay} must be finite")
        if self.seed < 0:
            raise ContractError(f"batch order seed must be >= 0, got {self.seed}")


@dataclass
class EvalResult:
    accuracy: float
    mean_exit: float
    sparsity: float
    fallback_rate: float
    decisions: list = field(default_factory=list)


def evaluate(model: Model, ds: Dataset, batch_size=64, decode="first") -> EvalResult:
    """Score a dataset in eval mode, one step-major pass per batch.

    ``sparsity`` charges each sample the spikes of every spiking stage, the
    encoder included, in steps 1 through its exit step, as a share of those
    slot-steps pooled over the set. Steps run past a sample's exit are not
    charged, so the figure does not depend on the batch size.
    """
    if decode not in DECODE_MODES:
        raise ContractError(f"decode must be {' or '.join(map(repr, DECODE_MODES))}")
    if len(ds) == 0:
        raise ContractError("evaluate needs at least one image")
    _keep_freed_step_memory()
    first, got, spikes = decode == "first", [], 0
    with no_grad():
        for imgs, _ in batches(ds, batch_size, shuffle=False):
            batch, charged, slots = _step_major(model, Tensor(imgs), first)
            got += batch
            spikes += charged
    labels = [d.label for d in got] if first else got
    exits = [d.exit_step for d in got] if first else [model.spec.timesteps] * len(got)
    accuracy = float((np.array(labels) == ds.labels).mean())
    fallback = float(np.mean([not d.spiked for d in got])) if first else 0.0
    return EvalResult(accuracy, float(np.mean(exits)), spikes / (slots * sum(exits)),
                      fallback, got if first else [])


def _step_major(model: Model, images: Tensor, early_exit: bool):
    """One batch's first-spike decisions (rate labels without ``early_exit``),
    the spikes charged to it and the spiking slots per sample per step. Time
    is the outer loop: one ``Model.run`` takes the encoder raster's step 1 for
    the whole batch, a second steps 2..T for the rows whose output did not
    fire, carrying the potentials in its state; without ``early_exit`` one run
    takes the window. Rows that never fire take the fallback at T. Eval-mode
    batch norm is affine per channel, so dropping rows changes no other row.
    """
    raster = model.raster(images).data
    steps = len(raster)
    out = [None] * len(images)
    exits = np.full(len(images), steps)
    live = np.arange(len(images))   # rows still running, in batch order
    state = {}                      # stage name -> potentials of the live rows
    spikes = 0
    bounds = (0, 1, steps) if early_exit and steps > 1 else (0, steps)
    for start, stop in zip(bounds, bounds[1:]):
        if not len(live):
            break
        rows = live if len(live) < len(images) else slice(None)   # a view while all run
        rec = model.run(Tensor(raster[start:stop, rows]), state)
        fired, pots = rec.out_spikes.data, rec.logits.data
        done = fired.any(axis=(0, 2)) | (stop == steps)
        if not early_exit:
            out = rate_decode(fired).tolist()
        elif done.any():
            decided = decode_batch(fired[:, done], pots[:, done], first_step=start + 1)
            for row, d in zip(live[done], decided):
                out[row], exits[row] = d, d.exit_step
            live = live[~done]
            state = {name: u[~done] for name, u in state.items()}
        # each row pays for the steps of this block up to its exit step
        charged = np.arange(start + 1, stop + 1)[:, None] <= exits[rows]
        spikes += int(rec.spike_counts()[charged].sum())
    return out, spikes, rec.slots


@dataclass
class EpochRow:
    epoch: int
    lr: float
    train_loss: float
    accuracy: float
    mean_exit: float
    sparsity: float
    fallback_rate: float


_M_TOP_PAD = -2            # mallopt parameter number in glibc's malloc.h
_TOP_PAD_BYTES = 256 << 20


def _keep_freed_step_memory():
    """Ask glibc to keep the heap memory a training or eval step frees.

    Each step frees its arrays before the next one makes its own. By
    default glibc hands the freed top of the heap back to the OS every time
    and the next step faults it back in page by page, which costs vgg-mini
    (batch 128, T=4) a fifth of its step time. A top pad keeps up to
    256 MiB of it in the process. Setting it also stops glibc from moving
    its mmap threshold, which it raises to the size of each mapped block
    freed: the threshold stays wherever set-up left it, above a step's
    arrays in practice, so they come from the padded heap too (a vgg-mini
    step at batch 128 holds at most about 1 MB mapped, against about 16 MB
    of heap in use). An explicit threshold did not move the peak resident
    memory reliably, so none is set. Other C libraries are left as they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)


def _train_step(model, opt, imgs, labels, cfg: TrainConfig, lr) -> float:
    """One optimizer step; returns the loss value.

    Only the logits are kept from the forward record: its stage spikes are
    plain arrays off the tape, and dropping them leaves the tape holding
    only what backward reads, since the ops took over or the model released
    every other value. Backward frees the graph as it walks it, and only
    the parameters keep gradients.
    """
    logits = model.forward(Tensor(imgs), training=True).logits
    if cfg.loss == "tad":
        loss = tad_loss(logits, labels, tau=cfg.tau, detach_weights=cfg.detach_weights)
    else:
        loss = vanilla_loss(logits, labels)
    check_finite(loss, "the loss")
    opt.zero_grad()
    loss.backward()
    opt.step(lr=lr)
    return float(loss.data)


def check_datasets(model: Model, train_ds: Dataset, eval_ds: Dataset):
    """Raise ``ContractError`` unless both sets hold images and the training
    set has the model's classes; :func:`train` runs this first."""
    if train_ds.classes != model.spec.classes:
        raise ContractError("dataset classes do not match the model")
    if len(train_ds) == 0 or len(eval_ds) == 0:
        raise ContractError("training needs at least one train and one eval image,"
                            f" got {len(train_ds)} and {len(eval_ds)}")


def train(model: Model, train_ds: Dataset, eval_ds: Dataset,
          cfg: TrainConfig, log=None):
    """Optimize the model in place; returns the per-epoch metric rows."""
    check_datasets(model, train_ds, eval_ds)
    _keep_freed_step_memory()
    opt = AdamW(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    steps_per_epoch = int(np.ceil(len(train_ds) / cfg.batch_size))
    total_steps = cfg.epochs * steps_per_epoch
    history = []
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        losses = []
        for imgs, labels in batches(train_ds, cfg.batch_size,
                                    seed=cfg.seed + epoch):
            lr = cosine_lr(step, total_steps, cfg.lr)
            try:
                losses.append(_train_step(model, opt, imgs, labels, cfg, lr))
            except NumericsError as e:
                raise TrainingAbort(
                    f"non-finite values at epoch {epoch} step {step}: {e}"
                ) from e
            step += 1
        res = evaluate(model, eval_ds, batch_size=cfg.batch_size)
        row = EpochRow(epoch, float(cosine_lr(step, total_steps, cfg.lr)),
                       float(np.mean(losses)), res.accuracy, res.mean_exit,
                       res.sparsity, res.fallback_rate)
        history.append(row)
        if log is not None:
            log(f"epoch {epoch}/{cfg.epochs} loss {row.train_loss:.4f} "
                f"acc {row.accuracy:.3f} exit {row.mean_exit:.2f} "
                f"sparsity {row.sparsity:.3f}")
    return history


def write_metrics_csv(path, history):
    """One column per ``EpochRow`` field, every value ``.10g``: stable bytes."""
    lines = [",".join(f.name for f in fields(EpochRow))]
    lines += [",".join(f"{v:.10g}" for v in astuple(r)) for r in history]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# -- checkpoints -------------------------------------------------------------

_MAGIC = b"SPKL"
_VERSION = 1


def save_checkpoint(path, arrays):
    """Write named arrays (sorted by name) as float32 to the container."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(arrays)))
        for name in sorted(arrays):
            a = np.asarray(arrays[name], dtype="<f4")
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", a.ndim))
            if a.ndim:
                f.write(struct.pack(f"<{a.ndim}Q", *a.shape))
            f.write(a.tobytes())


class _Cursor:
    def __init__(self, buf, path):
        self.buf = buf
        self.pos = 0
        self.path = str(path)

    def take(self, n, what):
        if self.pos + n > len(self.buf):
            raise FormatError(
                f"{self.path}: truncated while reading {what}", offset=self.pos
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]


def read_checkpoint(path):
    """Parse a checkpoint container back into a name -> float32 array dict."""
    with open(path, "rb") as f:
        buf = f.read()
    cur = _Cursor(buf, path)
    if cur.take(4, "magic") != _MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic)", offset=0)
    version = cur.u32("version")
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}", offset=4)
    count = cur.u32("array count")
    arrays = {}
    for i in range(count):
        name_len = cur.u32("name length")
        if name_len > 4096:
            raise FormatError(
                f"{path}: implausible name length {name_len}", offset=cur.pos - 4
            )
        name_at = cur.pos
        try:
            name = cur.take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: array name is not UTF-8",
                              offset=name_at) from None
        rank = cur.u32("rank")
        if rank > 8:
            raise FormatError(
                f"{path}: implausible rank {rank} for {name!r}", offset=cur.pos - 4
            )
        dims = struct.unpack(f"<{rank}Q", cur.take(8 * rank, "dims")) if rank else ()
        # Python ints: a product of u64 dims must not wrap, and a zero dim
        # must not hide others too large for an array
        if math.prod(max(d, 1) for d in dims) > 10**9:
            raise FormatError(f"{path}: implausible size for {name!r}",
                              offset=cur.pos)
        raw = cur.take(4 * math.prod(dims), f"data of {name!r}")
        arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    if cur.pos != len(buf):
        raise FormatError(
            f"{path}: {len(buf) - cur.pos} trailing bytes after last array",
            offset=cur.pos,
        )
    return arrays


def load_checkpoint(path, spec: ModelSpec, seed=0) -> Model:
    """Rebuild a model for ``spec`` and fill it from the checkpoint."""
    model = build_model(spec, seed=seed)
    model.load_state(read_checkpoint(path))
    return model
