"""Training loop, optimizer, evaluation, metrics, and checkpoints.

The optimizer is Adam with decoupled weight decay: the decay term shrinks
the parameter directly and never enters the moment estimates. The learning
rate follows a half-cosine from its initial value to zero over the whole
run. Both match the common modern recipe and are deterministic given the
seed, so two identical runs produce byte-identical metrics and checkpoint
files (nothing time-dependent is ever written into an artifact).

Checkpoints are a flat little-endian container of named float32 arrays:
magic "SPKL", u32 version, u32 count, then per array a length-prefixed
UTF-8 name, u32 rank, u64 dims, and the row-major data.
"""
from __future__ import annotations

import ctypes
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .data import Dataset, batches
from .decoder import decode_batch, mean_exit_step, rate_decode
from .errors import ContractError, FormatError, NumericsError, TrainingAbort
from .loss import tad_loss, vanilla_loss
from .network import Model, ModelSpec, build_model


class AdamW:
    """Adam with the weight-decay step applied outside the moment update."""

    def __init__(self, params, lr=0.001, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.01):
        if lr <= 0 or eps <= 0:
            raise ContractError("lr and eps must be positive")
        if not (0 <= betas[0] < 1 and 0 <= betas[1] < 1):
            raise ContractError("betas must lie in [0, 1)")
        self.params = [t for _, t in params]
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
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


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    batch_size: int = 64
    lr: float = 0.001
    weight_decay: float = 0.01
    loss: str = "tad"            # "tad" | "vanilla"
    tau: float = 2.0
    detach_weights: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.loss not in ("tad", "vanilla"):
            raise ContractError(f"loss must be 'tad' or 'vanilla', got {self.loss!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ContractError("epochs and batch_size must be >= 1")


@dataclass
class EvalResult:
    accuracy: float
    mean_exit: float
    sparsity: float
    fallback_rate: float
    predicted: np.ndarray
    decisions: list = field(default_factory=list)


def evaluate(model: Model, ds: Dataset, batch_size=64, decode="first",
             tiebreak="spikers") -> EvalResult:
    """Run the model over a dataset in eval mode and score the decisions."""
    if decode not in ("first", "rate"):
        raise ContractError("decode must be 'first' or 'rate'")
    if len(ds) == 0:
        raise ContractError("evaluate needs at least one image")
    predicted = []
    decisions = []
    spike_share = 0.0     # per-batch sparsity weighted by the batch's images
    for imgs, _ in batches(ds, batch_size, shuffle=False):
        rec = model.forward(Tensor(imgs), training=False)
        spike_share += rec.sparsity() * rec.batch
        if decode == "first":
            ds_batch = decode_batch(rec.out_spikes, rec.logits, tiebreak)
            decisions.extend(ds_batch)
            predicted.extend(d.label for d in ds_batch)
        else:
            predicted.extend(rate_decode(rec.out_spikes).tolist())
        del rec     # free this batch's graph before the next forward
    predicted = np.array(predicted, dtype=np.int64)
    accuracy = float((predicted == ds.labels).mean())
    if decode == "first":
        mean_exit = mean_exit_step(decisions)
        fallback = float(np.mean([not d.spiked for d in decisions]))
    else:
        mean_exit = float(model.spec.timesteps)
        fallback = 0.0
    return EvalResult(accuracy, mean_exit, spike_share / len(predicted),
                      fallback, predicted, decisions)


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
    """Ask glibc to keep the heap memory a training step frees.

    Each step frees its whole graph before the next one builds its own. By
    default glibc hands the freed top of the heap back to the OS every time
    and the next step faults it back in page by page, which costs vgg-mini
    (batch 128, T=4) a fifth of its step time. A top pad keeps up to
    256 MiB of it in the process. Other C libraries are left as they are.
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

    The graph of the step (forward record and loss) lives only in this
    frame, so it is freed before the next step builds its own.
    """
    rec = model.forward(Tensor(imgs), training=True)
    if cfg.loss == "tad":
        loss = tad_loss(rec.logits, labels, tau=cfg.tau,
                        detach_weights=cfg.detach_weights)
    else:
        loss = vanilla_loss(rec.logits, labels)
    opt.zero_grad()
    loss.backward()
    opt.step(lr=lr)
    return float(loss.data)


def train(model: Model, train_ds: Dataset, eval_ds: Dataset,
          cfg: TrainConfig, log=None):
    """Optimize the model in place; returns the per-epoch metric rows."""
    if train_ds.classes != model.spec.classes:
        raise ContractError("dataset classes do not match the model")
    _keep_freed_step_memory()
    opt = AdamW(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    steps_per_epoch = max(1, int(np.ceil(len(train_ds) / cfg.batch_size)))
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


METRICS_HEADER = ("epoch,lr,train_loss,accuracy,mean_exit,sparsity,"
                  "fallback_rate")


def write_metrics_csv(path, history):
    """Metrics table with stable formatting; identical runs give identical bytes."""
    lines = [METRICS_HEADER]
    for r in history:
        lines.append(
            f"{r.epoch},{r.lr:.10g},{r.train_loss:.10g},{r.accuracy:.10g},"
            f"{r.mean_exit:.10g},{r.sparsity:.10g},{r.fallback_rate:.10g}"
        )
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
