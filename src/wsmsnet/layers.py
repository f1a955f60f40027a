"""The layer objects models are assembled from.

Each layer holds its own parameter tensors and appends one
:class:`ParamEntry` per tensor to the list it is constructed with, so that
list holds every parameter once, in creation order. Weight sharing is object
identity: stages that run the same layer object use its tensors, and the tape
sums their gradients. Batch-norm running statistics are buffers owned by the
layer, never shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .autodiff import Tensor, default_dtype
from .ops import batch_norm, conv2d, linear


@dataclass
class ParamEntry:
    name: str
    role: str
    tensor: Tensor


def _param(params: List[ParamEntry], name: str, role: str, data) -> Tensor:
    tensor = data if isinstance(data, Tensor) else Tensor(data)
    tensor.requires_grad = True
    params.append(ParamEntry(name, role, tensor))
    return tensor


def he_init(shape, fan_in: int, rng: np.random.Generator) -> Tensor:
    """Zero-mean normal draw with std sqrt(2 / fan_in)."""
    if fan_in < 1:
        raise ValueError(f"he_init: fan_in must be >= 1, got {fan_in}")
    std = math.sqrt(2.0 / fan_in)
    return Tensor(rng.normal(0.0, std, size=shape))


class Conv2dLayer:
    """Bias-free convolution that owns its weight."""

    def __init__(self, params: List[ParamEntry], name: str, in_channels: int,
                 out_channels: int, kernel: int, stride: int, padding: int,
                 rng: np.random.Generator):
        self.name = name
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel * kernel
        self.weight = _param(params, name + ".weight", "conv-weight",
                             he_init((out_channels, in_channels, kernel, kernel), fan_in, rng))

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, stride=self.stride, padding=self.padding)


class BatchNorm:
    """Batch normalization with private affine parameters and running buffers,
    at ``ops.batch_norm``'s default momentum and epsilon."""

    def __init__(self, params: List[ParamEntry], name: str, channels: int):
        self.name = name
        self.gamma = _param(params, name + ".gamma", "bn", np.ones(channels, dtype=default_dtype()))
        self.beta = _param(params, name + ".beta", "bn", np.zeros(channels, dtype=default_dtype()))
        self.running_mean = np.zeros(channels, dtype=default_dtype())
        self.running_var = np.ones(channels, dtype=default_dtype())

    def __call__(self, x: Tensor, training: bool, out: Optional[np.ndarray] = None) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var,
                          training=training, out=out)


class LinearLayer:
    """Fully connected layer; keeps its bias even when batch norm is in use."""

    def __init__(self, params: List[ParamEntry], name: str, in_features: int,
                 out_features: int, rng: np.random.Generator):
        self.name = name
        self.weight = _param(params, name + ".weight", "fc",
                             he_init((out_features, in_features), in_features, rng))
        self.bias = _param(params, name + ".bias", "fc",
                           np.zeros(out_features, dtype=default_dtype()))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)
