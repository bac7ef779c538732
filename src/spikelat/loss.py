"""Training objectives over the time-major block of output logits.

The main objective weights each timestep's cross entropy by how confident
the network already is at that step. Confidence is one minus the normalized
entropy of the step's softmax, so it lives in [0, 1] regardless of class
count. The per-step confidences pass through a temperature softmax over
time to become mixing weights. Steps where the network has made up its mind
dominate the loss; undecided early steps contribute less.

By default the weights are treated as constants during the backward pass
(only the cross-entropy terms receive gradient). The plain baseline
averages logits over time first and applies a single cross entropy.
"""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor, softmax_rows
from .errors import ContractError, ShapeError, check_positive


def _check_labels(labels, n, c):
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape}, expected ({n},)")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError("labels must be integers")
    if labels.min() < 0 or labels.max() >= c:
        raise ContractError(f"labels must lie in [0, {c})")
    return labels


def _log_softmax(o):
    """Log-softmax over the last axis."""
    z = o - o.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _certainty(logp):
    """(p, entropy H, 1 - H/log C) over the last axis of log-probabilities."""
    if logp.shape[-1] < 2:
        raise ContractError("confidence needs at least two classes")
    p = np.exp(logp)
    ent = -(p * logp).sum(axis=-1)
    return p, ent, 1.0 - ent / np.log(logp.shape[-1])


def _d_certainty(p, logp, ent):
    """d(1 - H/logC)/do_j = p_j (logp_j + H) / logC."""
    return p * (logp + ent[..., None]) / np.log(p.shape[-1])


def cross_entropy_rows(logits: Tensor, labels) -> Tensor:
    """Per-row cross entropy, shape (N,). Stable via log-sum-exp."""
    if logits.ndim != 2:
        raise ShapeError("cross_entropy_rows expects (N, C) logits")
    n, c = logits.shape
    labels = _check_labels(labels, n, c)
    logp = _log_softmax(logits.data)

    def bw(g, logits=logits, logp=logp, labels=labels, n=n):
        dz = np.exp(logp)
        dz[np.arange(n), labels] -= 1.0
        logits.accumulate(g[:, None] * dz)

    return Tensor(-logp[np.arange(n), labels], (logits,), "cross_entropy", bw)


def confidence(logits: Tensor) -> Tensor:
    """Per-row certainty in [0, 1]: one minus entropy over log(C).

    Uniform logits give 0; probability mass concentrated on one class
    approaches 1. Entropy is measured in nats and normalized by log(C).
    """
    if logits.ndim != 2:
        raise ShapeError("confidence expects (N, C) logits")
    logp = _log_softmax(logits.data)
    p, ent, lam = _certainty(logp)

    def bw(g, logits=logits, p=p, logp=logp, ent=ent):
        logits.accumulate(g[:, None] * _d_certainty(p, logp, ent))

    return Tensor(lam, (logits,), "confidence", bw)


def temporal_weights(lam: Tensor, tau: float = 2.0) -> Tensor:
    """Softmax over time of confidence/tau; lam is (N, T), result is (N, T)."""
    check_positive("tau", tau)
    return softmax_rows(lam * (1.0 / tau))


def _time_major(o) -> Tensor:
    """``o`` itself, once it is a (T, N, C) logits tensor with T >= 1."""
    if not isinstance(o, Tensor) or o.ndim != 3 or len(o) == 0:
        raise ShapeError("expected a (T, N, C) logits tensor with T >= 1,"
                         f" got {getattr(o, 'shape', type(o).__name__)}")
    return o


def tad_loss(step_logits, labels, tau: float = 2.0,
             detach_weights: bool = True) -> Tensor:
    """Confidence-weighted cross entropy over the (T, N, C) logits block:
    each sample's per-step cross entropies are mixed by its temporal weights
    w = softmax_t(lambda/tau), then averaged over the batch. One tape node;
    its gradient at step t is w_t (p_t - y)/N, plus w_t (ce_t - L)/tau *
    dlambda_t/do_t / N with the weights attached, L being the sample's loss.
    """
    o = _time_major(step_logits)
    _, n, c = o.shape
    labels = _check_labels(labels, n, c)
    logp = _log_softmax(o.data)                              # (T, N, C)
    p, ent, lam = _certainty(logp)                           # lam (T, N)
    w = temporal_weights(Tensor(np.ascontiguousarray(lam.T)), tau).data   # (N, T)
    rows = np.arange(n)
    ce = np.ascontiguousarray(-logp[:, rows, labels].T)      # (N, T)
    per_sample = (w * ce).sum(axis=1)

    def bw(g, o=o):
        d = p.copy()
        d[:, rows, labels] -= 1.0
        if not detach_weights:
            spread = ((ce - per_sample[:, None]) / tau).T[..., None]
            d += spread * _d_certainty(p, logp, ent)
        o.accumulate((g * (1.0 / n) * w).T[..., None] * d)

    return Tensor(per_sample.sum() * (1.0 / n), (o,), "tad_loss", bw)


def vanilla_loss(step_logits, labels) -> Tensor:
    """Cross entropy of the time-averaged logits, batch-averaged."""
    o = _time_major(step_logits)
    return cross_entropy_rows(o.mean(axis=0), labels).mean()
