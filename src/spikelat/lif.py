"""Leaky integrate-and-fire dynamics with a surrogate spike gradient.

A neuron keeps a membrane potential that decays by a leak factor, adds the
incoming current, and emits a spike when the potential reaches threshold.
Firing subtracts the threshold from the potential (soft reset) instead of
clearing it, so charge above threshold carries into the next step.

The spike itself is a step function. On the backward pass its derivative is
replaced by a rectangular window around the threshold, which is what makes
end-to-end training through spike times possible. The reset path is left
differentiable by default; ``detach_reset`` cuts it for comparison runs.
A population runs in one pass over time, built one way for train and eval.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, overwritable, recording
from .errors import ContractError, check_positive


@dataclass(frozen=True)
class LifConfig:
    tau_leak: float = 0.5
    v_th: float = 1.0
    surrogate_width: float = 1.0
    detach_reset: bool = False

    def __post_init__(self):
        if not 0.0 <= self.tau_leak <= 1.0:
            raise ContractError(f"tau_leak must be in [0, 1], got {self.tau_leak}")
        check_positive("v_th", self.v_th)
        check_positive("surrogate_width", self.surrogate_width)


@dataclass
class LifTrace:
    """One population's run: (T, ...) ``spikes`` (uint8) and pre-reset
    ``potentials`` tensors, and ``final``, the post-reset potential after the
    last step."""

    spikes: Tensor
    potentials: Tensor
    final: Tensor


def lif_unroll(currents, cfg: LifConfig, u0=None) -> LifTrace:
    """Run a population from rest, or from the constant potential ``u0``
    (a previous run's ``final``), over the (T, ...) currents tensor:
    u_pre = tau*u + I, s = [u_pre >= v_th], u = u_pre - s*v_th. The
    recurrence is one tape node whose backward is the explicit adjoint,
    swept in place from the last step: du_pre = dU + du + (dS - v_th*du) *
    window(u_pre), then du = tau*du_pre (no v_th term with
    ``detach_reset``); du starts as the gradient of ``final``. While the tape
    records, each step notes where the window |u_pre - v_th| <= width/2 is
    open (in ``u``, before the reset overwrites it): the node saves these
    booleans, not the potentials.

    Spikes are uint8. The potentials accumulate in the currents' buffer when
    it may be overwritten (``autodiff.overwritable``; ``drive[t] + tau*u``
    is bitwise ``tau*u + drive[t]``), and ``currents`` is then released. The
    sweep runs in the spike gradient it receives.
    """
    if not isinstance(currents, Tensor) or currents.ndim == 0 or len(currents) == 0:
        raise ContractError("lif_unroll needs a (T, ...) currents tensor with T >= 1")
    tau, v_th = cfg.tau_leak, cfg.v_th
    owned = overwritable(currents)
    pots = currents.data if owned else np.array(currents.data, dtype=np.float64)
    spikes = np.empty(pots.shape, dtype=np.uint8)
    fired = spikes.view(bool)
    inside = np.empty(pots.shape, dtype=bool) if recording() else None
    u = np.zeros(pots.shape[1:]) if u0 is None else np.array(u0, dtype=np.float64)
    for t in range(len(pots)):
        u *= tau
        pots[t] += u
        if inside is not None:
            np.abs(np.subtract(pots[t], v_th, out=u), out=u)
            np.less_equal(u, 0.5 * cfg.surrogate_width, out=inside[t])
        np.greater_equal(pots[t], v_th, out=fired[t])
        np.multiply(fired[t], v_th, out=u)
        np.subtract(pots[t], u, out=u)

    upstream = {}   # gradients handed over by the potentials and final nodes

    def bw(d_spikes, currents=currents):
        # du_pre = (dS*window + dU) + du*keep, keep = 1 - v_th*window or 1,
        # swept in d_spikes and in the final gradient, which this closure owns
        d_drive, d_pots = d_spikes, upstream.get("potentials")
        d_u = upstream["final"] if "final" in upstream else np.zeros(d_drive.shape[1:])
        for t in reversed(range(len(d_drive))):
            keep = inside[t] * (1.0 / cfg.surrogate_width)
            d_drive[t] *= keep
            if d_pots is not None:
                d_drive[t] += d_pots[t]
            if not cfg.detach_reset:
                keep *= -v_th
                keep += 1.0
                d_u *= keep
            d_drive[t] += d_u
            np.multiply(d_drive[t], tau, out=d_u)
        currents.accumulate(d_drive)

    s = Tensor(spikes, (currents,), "lif_unroll", bw)
    if owned:
        currents.release()
    # no reference from s to its children: the graph stays free of cycles
    def hand_over(name):
        def bw(g, s=s):
            upstream[name] = g
            if s.grad is None:      # the sweep runs from the spike node
                s.grad = np.zeros(s.shape)
        return bw

    return LifTrace(spikes=s,
                    potentials=Tensor(pots, (s,), "lif_potentials", hand_over("potentials")),
                    final=Tensor(u, (s,), "lif_final", hand_over("final")))
