"""Turning output spike trains into class decisions.

The primary rule is first-spike decoding: the sample is classified by
whichever output neuron fires earliest, and the firing step is the
network's exit time. Two things can muddy that rule, and both are resolved
explicitly and flagged on the result:

* several neurons fire on the same step: the one with the highest pre-reset
  potential at that step wins. By default only the simultaneous spikers
  compete; ``tiebreak="all"`` lets every neuron's potential compete.
* no output neuron fires inside the window: fall back to the highest
  potential at the final step, with the exit time pinned to the window end.

The two tiebreaks agree on any LIF readout: a LIF neuron fires exactly when
its pre-reset potential reaches threshold, so at the first firing step every
spiker's potential is above every silent neuron's. They differ only on
rasters a LIF population cannot produce, and the package uses the default.
Exact potential ties resolve to the lowest class index and are flagged. A
rate readout (most spikes wins) is kept alongside for comparison runs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

TIEBREAKS = ("spikers", "all")


@dataclass(frozen=True)
class Decision:
    label: int
    exit_step: int     # 1-based; equals the window length on fallback
    spiked: bool       # False when no output neuron fired at all
    tied: bool         # an exact potential tie was broken by index


def _values(a):
    """A tensor's array, or the value itself (an ndarray's ``.data`` is its buffer)."""
    return a if isinstance(a, np.ndarray) else getattr(a, "data", a)


def _frames(seq):
    """(T, N, C) array of a (T, N, C) tensor or array, or of (N, C) steps."""
    frames = [np.asarray(_values(a), dtype=np.float64) for a in _values(seq)]
    if not frames:
        raise ContractError("decoding needs at least one timestep")
    if any(f.shape != frames[0].shape or f.ndim != 2 for f in frames):
        raise ContractError("per-step arrays must share one (N, C) shape")
    return np.stack(frames)


def decode_batch(spikes, potentials, tiebreak: str = "spikers", first_step=1):
    """First-spike decisions for a batch.

    ``spikes`` and ``potentials`` are (T, N, C) tensors or arrays, or step
    sequences of (N, C) ones; spike values count as firing when positive.
    Exit steps count from ``first_step``, the number of the first step given.
    """
    if tiebreak not in TIEBREAKS:
        raise ContractError(f"tiebreak must be one of {TIEBREAKS}")
    fired, u = _frames(spikes) > 0, _frames(potentials)    # (T, N, C)
    if fired.shape != u.shape:
        raise ContractError("spikes and potentials must align step by step")
    t_steps, n, _ = fired.shape
    fired_at = fired.any(axis=2)                  # (T, N)
    any_spike = fired_at.any(axis=0)
    # the first firing step, or the final step on fallback
    step = np.where(any_spike, fired_at.argmax(axis=0), t_steps - 1)
    rows = np.arange(n)
    pots = u[step, rows]                          # (N, C)
    if tiebreak == "spikers":    # on fallback every neuron competes
        compete = fired[step, rows] | ~any_spike[:, None]
        pots = np.where(compete, pots, -np.inf)
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
