"""Parameter registry and the layer objects models are assembled from.

Every trainable array lives in a :class:`ParamStore` under an integer
ParamId. Layer objects hold ids, not arrays; two layers constructed with the
same id therefore share one parameter, and the tape sums their gradients.
Batch-norm running statistics are buffers owned by the layer, never shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator

import numpy as np

from .autodiff import Tensor, default_dtype
from .ops import batch_norm, conv2d, linear

ROLES = ("conv-weight", "bn", "fc")


@dataclass
class ParamEntry:
    pid: int
    name: str
    role: str
    tensor: Tensor


class ParamStore:
    """Registry of trainable parameters keyed by ParamId.

    Ids are assigned in creation order and stay stable across checkpoint
    round trips because model construction is deterministic.
    """

    def __init__(self):
        self._entries: Dict[int, ParamEntry] = {}
        self._next_id = 0

    def create(self, name: str, role: str, data) -> int:
        if role not in ROLES:
            raise ValueError(f"unknown parameter role {role!r}; expected one of {ROLES}")
        tensor = data if isinstance(data, Tensor) else Tensor(data)
        tensor.requires_grad = True
        pid = self._next_id
        self._next_id += 1
        self._entries[pid] = ParamEntry(pid, name, role, tensor)
        return pid

    def tensor(self, pid: int) -> Tensor:
        return self._entries[pid].tensor

    def entries(self) -> Iterator[ParamEntry]:
        for pid in sorted(self._entries):
            yield self._entries[pid]

    def num_scalars(self) -> int:
        return sum(e.tensor.size for e in self._entries.values())


def he_init(shape, fan_in: int, rng: np.random.Generator) -> Tensor:
    """Zero-mean normal draw with std sqrt(2 / fan_in)."""
    if fan_in < 1:
        raise ValueError(f"he_init: fan_in must be >= 1, got {fan_in}")
    std = math.sqrt(2.0 / fan_in)
    return Tensor(rng.normal(0.0, std, size=shape))


class Conv2dLayer:
    """Bias-free convolution whose weight lives in a ParamStore."""

    def __init__(self, store: ParamStore, name: str, in_channels: int, out_channels: int,
                 kernel: int, stride: int, padding: int, rng: np.random.Generator):
        self.store = store
        self.name = name
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel * kernel
        self.weight_id = store.create(
            name + ".weight", "conv-weight",
            he_init((out_channels, in_channels, kernel, kernel), fan_in, rng))

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.store.tensor(self.weight_id),
                      stride=self.stride, padding=self.padding)


class BatchNorm:
    """Batch normalization with private affine parameters and running buffers,
    at ``ops.batch_norm``'s default momentum and epsilon."""

    def __init__(self, store: ParamStore, name: str, channels: int):
        self.store = store
        self.name = name
        self.channels = channels
        self.gamma_id = store.create(name + ".gamma", "bn", np.ones(channels, dtype=default_dtype()))
        self.beta_id = store.create(name + ".beta", "bn", np.zeros(channels, dtype=default_dtype()))
        self.running_mean = np.zeros(channels, dtype=default_dtype())
        self.running_var = np.ones(channels, dtype=default_dtype())

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return batch_norm(x, self.store.tensor(self.gamma_id), self.store.tensor(self.beta_id),
                          self.running_mean, self.running_var, training=training)


class LinearLayer:
    """Fully connected layer; keeps its bias even when batch norm is in use."""

    def __init__(self, store: ParamStore, name: str, in_features: int, out_features: int,
                 rng: np.random.Generator):
        self.store = store
        self.name = name
        self.in_features = in_features
        self.out_features = out_features
        self.weight_id = store.create(name + ".weight", "fc",
                                      he_init((out_features, in_features), in_features, rng))
        self.bias_id = store.create(name + ".bias", "fc",
                                    np.zeros(out_features, dtype=default_dtype()))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.store.tensor(self.weight_id), self.store.tensor(self.bias_id))
