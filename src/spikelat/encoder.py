"""Latency encoding: convert analog intensities into single spike times.

Each feature value x in (0, 1) becomes exactly one spike inside a window of
T steps, at step ceil((1 - x) * T). Stronger features fire earlier; the
mapping quantizes x with error below 1/T.

The encoding step itself is not differentiable, so its backward pass is a
straight-through estimator: the gradient of a feature is the sum of the
upstream gradients over all timesteps of its spike train.

``LatencyEncoder`` wraps the learnable feature head used in front of the
encoding: a convolution, batch normalization, and a sigmoid that squashes
activations into (0, 1).
"""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor, batchnorm2d, conv2d, sigmoid
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


class LatencyEncoder:
    """Conv + batchnorm + sigmoid feature head feeding the spike encoding."""

    def __init__(self, in_channels, channels, timesteps, kernel=3, stride=1,
                 pad=1, rng=None):
        if timesteps < 1:
            raise ContractError(f"timesteps must be >= 1, got {timesteps}")
        rng = rng if rng is not None else np.random.default_rng()
        fan_in = in_channels * kernel * kernel
        self.k = Tensor(rng.normal(size=(channels, in_channels, kernel, kernel))
                        * np.sqrt(2.0 / fan_in))
        self.gamma = Tensor(np.ones(channels))
        self.beta = Tensor(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.stride = stride
        self.pad = pad
        self.timesteps = timesteps

    def features(self, images: Tensor, training: bool) -> Tensor:
        h = conv2d(images, self.k, stride=self.stride, pad=self.pad)
        h = batchnorm2d(h, self.gamma, self.beta, self.running_mean,
                        self.running_var, training=training)
        return sigmoid(h)

    def encode(self, images: Tensor, training: bool):
        """Returns (the (T, N, C, H, W) spike raster, the analog features)."""
        f = self.features(images, training)
        return latency_encode(f, self.timesteps), f

    def parameters(self):
        return [("conv.k", self.k), ("bn.gamma", self.gamma),
                ("bn.beta", self.beta)]

    def buffers(self):
        return [("bn.running_mean", self.running_mean),
                ("bn.running_var", self.running_var)]
