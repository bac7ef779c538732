"""Turning output spike trains into class decisions.

The primary rule is first-spike decoding: the sample is classified by
whichever output neuron fires earliest, and the firing step is the
network's exit time. Two things can muddy that rule, and both are resolved
explicitly and flagged on the result:

* several neurons fire on the same step: of those spikers, the one with the
  highest pre-reset potential at that step wins.
* no output neuron fires inside the window: fall back to the highest
  potential at the final step, over every neuron, with the exit time pinned
  to the window end.

Exact potential ties resolve to the lowest class index and are flagged. A
rate readout (most spikes wins) is kept alongside for comparison runs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ContractError


@dataclass(frozen=True)
class Decision:
    label: int
    exit_step: int     # 1-based; equals the window length on fallback
    spiked: bool       # False when no output neuron fired at all
    tied: bool         # an exact potential tie was broken by index


def _frames(a) -> np.ndarray:
    """The float64 values of a (T, N, C) tensor or array with T >= 1."""
    a = a.data if isinstance(a, Tensor) else a
    if not isinstance(a, np.ndarray) or a.ndim != 3 or len(a) == 0:
        raise ContractError("decoding needs a (T, N, C) tensor or array with T >= 1,"
                            f" got {getattr(a, 'shape', type(a).__name__)}")
    return a.astype(np.float64, copy=False)


def decode_batch(spikes, potentials, *, first_step=1):
    """First-spike decisions for a batch.

    ``spikes`` and ``potentials`` are (T, N, C) tensors or arrays; spike
    values count as firing when positive. Exit steps count from
    ``first_step``, the number of the first step given.
    """
    fired, u = _frames(spikes) > 0, _frames(potentials)    # (T, N, C)
    if fired.shape != u.shape:
        raise ContractError("spikes and potentials must align step by step")
    t_steps, n, _ = fired.shape
    fired_at = fired.any(axis=2)                  # (T, N)
    any_spike = fired_at.any(axis=0)
    # the first firing step, or the final step on fallback
    step = np.where(any_spike, fired_at.argmax(axis=0), t_steps - 1)
    rows = np.arange(n)
    # the spikers compete; on fallback every neuron does
    compete = fired[step, rows] | ~any_spike[:, None]
    pots = np.where(compete, u[step, rows], -np.inf)   # (N, C)
    winners = pots == pots.max(axis=1, keepdims=True)
    labels = winners.argmax(axis=1)
    tied = winners.sum(axis=1) > 1
    return [
        Decision(label=label, exit_step=t + first_step, spiked=fired_any, tied=tie)
        for label, t, fired_any, tie in zip(labels.tolist(), step.tolist(),
                                             any_spike.tolist(), tied.tolist())
    ]


def rate_decode(spikes) -> np.ndarray:
    """Labels by total spike count; argmax resolves ties to the lowest index."""
    return _frames(spikes).sum(axis=0).argmax(axis=1)
