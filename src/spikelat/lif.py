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

from .autodiff import Tensor
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


def spike(u: Tensor, cfg: LifConfig) -> Tensor:
    """Heaviside threshold crossing; fires when u >= v_th.

    Backward substitutes a boxcar of height 1/width on
    |u - v_th| <= width/2, boundary included.
    """
    s = (u.data >= cfg.v_th).astype(np.float64)
    out = Tensor(s, (u,), "spike")

    def bw(g, u=u, v_th=cfg.v_th, width=cfg.surrogate_width):
        x = u.data - v_th
        window = (np.abs(x) <= 0.5 * width).astype(np.float64) / width
        u.accumulate(g * window)

    out._backward = bw
    return out


def lif_step(u_prev: Tensor, current: Tensor, cfg: LifConfig):
    """One membrane update: leak, integrate, fire, soft-reset.

    Returns (spikes, u_pre, u_next) where u_pre is the potential before the
    reset is applied. u_pre is what decoding ties break on.
    """
    u_pre = u_prev * cfg.tau_leak + current
    s = spike(u_pre, cfg)
    reset = s.detach() if cfg.detach_reset else s
    u_next = u_pre - reset * cfg.v_th
    return s, u_pre, u_next


@dataclass
class LifTrace:
    """Per-step record of one LIF population over an unrolled run.

    ``spikes[t]`` and ``potentials[t]`` (pre-reset) share the input's shape;
    ``final`` is the post-reset potential after the last step.
    """

    spikes: list
    potentials: list
    final: Tensor

    @property
    def steps(self) -> int:
        return len(self.spikes)


def lif_unroll(currents, cfg: LifConfig) -> LifTrace:
    """Run a population over a sequence of input currents from rest.

    ``currents`` is a list of same-shape tensors, one per timestep. The
    membrane starts at zero. State is threaded through the tape, so
    gradients flow across timesteps.
    """
    currents = list(currents)
    if not currents:
        raise ContractError("lif_unroll needs at least one timestep")
    u = Tensor(np.zeros_like(currents[0].data))
    spikes, potentials = [], []
    for c in currents:
        s, u_pre, u = lif_step(u, c, cfg)
        spikes.append(s)
        potentials.append(u_pre)
    return LifTrace(spikes=spikes, potentials=potentials, final=u)
