"""Leaky integrate-and-fire dynamics with a surrogate spike gradient.

A neuron keeps a membrane potential that decays by a leak factor, adds the
incoming current, and emits a spike when the potential reaches threshold.
Firing subtracts the threshold from the potential (soft reset) instead of
clearing it, so charge above threshold carries into the next step.

The spike itself is a step function. On the backward pass its derivative is
replaced by a rectangular window around the threshold, which is what makes
end-to-end training through spike times possible. The reset path is left
differentiable by default; ``detach_reset`` cuts it for comparison runs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, stack
from .errors import ContractError


@dataclass(frozen=True)
class LifConfig:
    tau_leak: float = 0.5
    v_th: float = 1.0
    surrogate_width: float = 1.0
    detach_reset: bool = False

    def __post_init__(self):
        if not 0.0 <= self.tau_leak <= 1.0:
            raise ContractError(f"tau_leak must be in [0, 1], got {self.tau_leak}")
        if self.v_th <= 0.0:
            raise ContractError(f"v_th must be positive, got {self.v_th}")
        if self.surrogate_width <= 0.0:
            raise ContractError(
                f"surrogate_width must be positive, got {self.surrogate_width}"
            )


def _window(u, cfg: LifConfig) -> np.ndarray:
    """Surrogate spike derivative: 1/width on |u - v_th| <= width/2, else 0."""
    inside = np.abs(u - cfg.v_th) <= 0.5 * cfg.surrogate_width
    return inside * (1.0 / cfg.surrogate_width)


@dataclass
class LifTrace:
    """One population's run: (T, ...) ``spikes`` and pre-reset ``potentials``
    tensors, and ``final``, the post-reset potential after the last step."""

    spikes: Tensor
    potentials: Tensor
    final: Tensor

    @property
    def steps(self) -> int:
        return len(self.spikes)


def lif_unroll(currents, cfg: LifConfig) -> LifTrace:
    """Run a population from rest over (T, ...) currents (a list of step
    tensors is stacked first): u_pre = tau*u + I, s = [u_pre >= v_th],
    u = u_pre - s*v_th. The recurrence is one tape node whose backward is
    the explicit adjoint, swept in place from the last step: du_pre = dU +
    du + (dS - v_th*du) * window(u_pre), then du = tau*du_pre (no v_th term
    with ``detach_reset``); du starts as the gradient of ``final``.
    """
    currents = currents if isinstance(currents, Tensor) else stack(currents)
    drive, tau, v_th = currents.data, cfg.tau_leak, cfg.v_th
    if drive.ndim == 0 or len(drive) == 0:
        raise ContractError("lif_unroll needs at least one timestep")
    pots = np.empty_like(drive)
    spikes = np.empty_like(drive)
    u = np.zeros_like(drive[0])
    for t in range(len(drive)):
        np.multiply(u, tau, out=pots[t])
        pots[t] += drive[t]
        np.greater_equal(pots[t], v_th, out=spikes[t])
        np.multiply(spikes[t], v_th, out=u)
        np.subtract(pots[t], u, out=u)

    s = Tensor(spikes, (currents,), "lif_unroll")
    potentials = Tensor(pots, (s,), "lif_potentials")
    final = Tensor(u, (s,), "lif_final")
    # no reference from s to its children: the graph stays free of cycles
    upstream = {}

    def hand_over(name):
        def bw(g, s=s):
            upstream[name] = g
            if s.grad is None:      # the sweep runs from the spike node
                s.grad = np.zeros_like(s.data)
        return bw

    potentials._backward = hand_over("potentials")
    final._backward = hand_over("final")

    def bw(d_spikes, currents=currents, pots=pots):
        # du_pre = (dS*window + dU) + du*keep, keep = 1 - v_th*window or 1
        keep = _window(pots, cfg)
        d_drive = np.multiply(d_spikes, keep)
        if "potentials" in upstream:
            d_drive += upstream["potentials"]
        if not cfg.detach_reset:
            keep *= -v_th
            keep += 1.0
        d_u = upstream["final"].copy() if "final" in upstream else np.zeros_like(keep[0])
        for t in reversed(range(len(d_drive))):
            if not cfg.detach_reset:
                d_u *= keep[t]
            d_drive[t] += d_u
            np.multiply(d_drive[t], tau, out=d_u)
        currents.accumulate(d_drive)

    s._backward = bw
    return LifTrace(spikes=s, potentials=potentials, final=final)
