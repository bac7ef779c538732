"""Latency encoding: convert analog intensities into single spike times.

Each feature value x in (0, 1) becomes exactly one spike inside a window of
T steps, at step ceil((1 - x) * T). Stronger features fire earlier; the
mapping quantizes x with error below 1/T.

The encoding step itself is not differentiable, so its backward pass is a
straight-through estimator: the gradient of a feature is the sum of the
upstream gradients over all timesteps of its spike train.

The learnable feature head in front of the encoding (convolution, batch
normalization and a sigmoid that squashes activations into (0, 1)) is the
model's first stage, ``network.EncoderStage``.
"""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ContractError

# keeps ceil() away from 0 and T*1.0 exactly at the boundaries
_EDGE = 1e-12


def spike_time(x, timesteps: int) -> np.ndarray:
    """Map intensities in [0, 1] to integer spike steps in [1, timesteps]."""
    if timesteps < 1:
        raise ContractError(f"timesteps must be >= 1, got {timesteps}")
    x = np.clip(np.asarray(x, dtype=np.float64), _EDGE, 1.0 - _EDGE)
    t = np.ceil((1.0 - x) * timesteps).astype(np.int64)
    return np.clip(t, 1, timesteps)


def latency_encode(features: Tensor, timesteps: int) -> Tensor:
    """Expand features (any shape) into a time-major (T, ...) binary raster.

    Forward places a single 1 per element at its spike step. Backward is
    straight-through: every step hands its upstream gradient back to the
    features unchanged, so a feature's gradient is the sum over its window.
    """
    t_s = spike_time(features.data, timesteps)
    steps = np.arange(1, timesteps + 1).reshape((-1,) + (1,) * t_s.ndim)
    out = Tensor((t_s == steps).astype(np.float64), (features,), "latency_encode")

    def bw(g, f=features):
        f.accumulate(g.sum(axis=0))

    out._backward = bw
    return out


def __getattr__(name):
    if name != "LatencyEncoder":   # old name, kept for the perfbench span tracer
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .network import EncoderStage
    return EncoderStage
