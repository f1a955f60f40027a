"""Runtime assembly and execution of multi-stage models.

``build_model`` turns the layer sites that :func:`specs.stage_units` yields
into layer objects bound to one ParamStore. A conv site's path names one
layer, so under shared wiring every stage that runs a conv references the
same object and the tape accumulates its gradients across stages; batch norm
sites are per stage.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

import numpy as np

from .autodiff import Tensor
from .layers import BatchNorm, Conv2dLayer, LinearLayer, ParamStore
from .ops import (add, avg_pool_half, concat_channels, global_avg_pool, pad_channels,
                  relu, reshape, scale, subsample2)
from .specs import (ConvSite, WsmsSpec, integration_unit, model_from_config,
                    model_to_config, stage_plan, stage_units)

CHECKPOINT_VERSION = 1


def image_pyramid(x: Tensor, stages: int) -> List[Tensor]:
    """Level s is the input average-pooled down by 2**(s-1)."""
    if x.ndim != 4:
        raise ValueError(f"image_pyramid: expected a 4-d NCHW tensor, got shape {x.shape}")
    if stages < 1:
        raise ValueError(f"image_pyramid: stages must be >= 1, got {stages}")
    h, w = x.shape[2], x.shape[3]
    divisor = 2 ** (stages - 1)
    if h % divisor or w % divisor:
        raise ValueError(
            f"image_pyramid: spatial extents {h}x{w} must divide by {divisor} "
            f"for {stages} stages")
    levels = [x]
    for _ in range(stages - 1):
        levels.append(avg_pool_half(levels[-1]))
    return levels


class ResidualUnit:
    """conv-BN-ReLU-conv-BN plus shortcut, ReLU after the addition."""

    def __init__(self, conv1: Conv2dLayer, bn1: BatchNorm, conv2: Conv2dLayer,
                 bn2: BatchNorm, in_channels: int, out_channels: int, stride: int):
        self.conv1, self.bn1 = conv1, bn1
        self.conv2, self.bn2 = conv2, bn2
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        y = relu(self.bn1(self.conv1(x), training))
        y = self.bn2(self.conv2(y), training)
        shortcut = x
        if self.stride == 2:
            shortcut = subsample2(shortcut)
        if self.out_channels > self.in_channels:
            shortcut = pad_channels(shortcut, self.out_channels)
        return relu(add(y, shortcut))


class DenseLayer:
    """BN-ReLU-conv3x3 producing ``growth`` channels, concatenated onto the input."""

    def __init__(self, bn: BatchNorm, conv: Conv2dLayer):
        self.bn = bn
        self.conv = conv

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        y = self.conv(relu(self.bn(x, training)))
        return concat_channels([x, y])


class TransitionUnit:
    """Channel-preserving 1x1 conv + BN + ReLU, then 2x2 average pooling."""

    def __init__(self, conv: Conv2dLayer, bn: BatchNorm):
        self.conv = conv
        self.bn = bn

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return avg_pool_half(relu(self.bn(self.conv(x), training)))


class ConvUnit:
    """conv3x3-BN-ReLU."""

    def __init__(self, conv: Conv2dLayer, bn: BatchNorm):
        self.conv = conv
        self.bn = bn

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return relu(self.bn(self.conv(x), training))


class PoolUnit:
    """Parameter-free 2x2 average pooling at a conv block entry."""

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return avg_pool_half(x)


class Stage:
    """One pathway: stem plus the leading blocks of the backbone."""

    def __init__(self, index: int, stem_conv: Conv2dLayer, stem_bn: Optional[BatchNorm],
                 blocks: List[list], tail_bn: Optional[BatchNorm]):
        self.index = index
        self.stem_conv = stem_conv
        self.stem_bn = stem_bn
        self.blocks = blocks
        self.tail_bn = tail_bn

    def __call__(self, x: Tensor, training: bool = False,
                 upto_block: Optional[int] = None) -> Tensor:
        x = self.stem_conv(x)
        if self.stem_bn is not None:
            x = relu(self.stem_bn(x, training))
        for number, units in enumerate(self.blocks, start=1):
            for unit in units:
                x = unit(x, training)
            if upto_block is not None and number == upto_block:
                return x
        if self.tail_bn is not None:
            x = relu(self.tail_bn(x, training))
        return x


# unit kind -> constructor taking the unit's layers in site order
_UNIT_BUILDERS = {
    "residual": lambda c1, b1, c2, b2: ResidualUnit(c1, b1, c2, b2, c1.in_channels,
                                                    c1.out_channels, c1.stride),
    "dense": DenseLayer, "transition": TransitionUnit, "conv": ConvUnit, "pool": PoolUnit}


class Model:
    """Executable multi-stage network bound to one ParamStore."""

    def __init__(self, spec: WsmsSpec, store: ParamStore, stages: List[Stage],
                 integration_conv: Optional[Conv2dLayer],
                 integration_bn: Optional[BatchNorm], fc: LinearLayer,
                 norms: List[BatchNorm]):
        self.spec = spec
        self.store = store
        self.stages = stages
        self.integration_conv = integration_conv
        self.integration_bn = integration_bn
        self.fc = fc
        self._norms = norms

    @property
    def class_count(self) -> int:
        return self.spec.class_count

    def param_count(self) -> int:
        return self.store.num_scalars()

    def batch_norms(self) -> List[BatchNorm]:
        """Every batch norm in creation order, which is the checkpoint's buffer order."""
        return list(self._norms)

    def stage_features(self, x: Tensor, training: bool = False) -> List[Tensor]:
        levels = image_pyramid(x, self.spec.stages)
        feats = []
        for stage, level in zip(self.stages, levels):
            try:
                feats.append(stage(level, training))
            except ValueError as err:
                raise ValueError(f"stage {stage.index}: {err}") from err
        return feats

    def integrate(self, x: Tensor, training: bool = False) -> Tensor:
        if self.integration_conv is not None:
            x = relu(self.integration_bn(self.integration_conv(x), training))
        return x

    def forward(self, x: Tensor, training: bool = False,
                stage_gains: Optional[List[float]] = None) -> Tensor:
        """Run the pyramid through every stage and classify the merged features.

        ``stage_gains`` multiplies each stage output by a constant (used to
        isolate pathways in tests); None leaves the outputs untouched.
        """
        feats = self.stage_features(x, training)
        if stage_gains is not None:
            feats = [scale(f, g) for f, g in zip(feats, stage_gains)]
        merged = feats[0] if len(feats) == 1 else concat_channels(feats)
        merged = self.integrate(merged, training)
        pooled = global_avg_pool(merged)
        flat = reshape(pooled, (pooled.shape[0], pooled.shape[1]))
        return self.fc(flat)

    def __call__(self, x: Tensor, training: bool = False) -> Tensor:
        return self.forward(x, training)


def build_model(spec: WsmsSpec, seed: int = 0) -> Model:
    """Instantiate parameters for ``spec`` deterministically from ``seed``.

    Each pathway first creates the convs it is the first to run, then its
    batch norms, so under sharing stage 1 draws every conv before any batch
    norm exists. That order fixes the ParamIds, the He-init draws and with
    them the checkpoint layout.
    """
    plan = stage_plan(spec)
    store = ParamStore()
    rng = np.random.default_rng(seed)
    convs: Dict[str, Conv2dLayer] = {}
    norms: List[BatchNorm] = []

    def instantiate(units) -> List[list]:
        """Each unit's layers in site order, creating what does not exist yet."""
        for unit in units:
            for site in unit.sites:
                if isinstance(site, ConvSite) and site.path not in convs:
                    convs[site.path] = Conv2dLayer(
                        store, site.path, site.in_channels, site.out_channels,
                        site.kernel, site.stride, site.padding, rng)
        layers = []
        for unit in units:
            made = []
            for site in unit.sites:
                if isinstance(site, ConvSite):
                    made.append(convs[site.path])
                else:
                    norms.append(BatchNorm(store, site.path, site.channels))
                    made.append(norms[-1])
            layers.append(made)
        return layers

    stages = []
    for s in range(1, spec.stages + 1):
        units = list(stage_units(spec, s))
        layers = instantiate(units)
        stem = layers[0]
        tail_bn = layers[-1][0] if units[-1].kind == "tail" else None
        blocks: List[list] = [[] for _ in range(plan.block_counts[s - 1])]
        for unit, made in zip(units, layers):
            if unit.block:
                blocks[unit.block - 1].append(_UNIT_BUILDERS[unit.kind](*made))
        stem_bn = stem[1] if len(stem) > 1 else None
        stages.append(Stage(s, stem[0], stem_bn, blocks, tail_bn))

    integration_conv = integration_bn = None
    head = integration_unit(spec)
    if head is not None:
        integration_conv, integration_bn = instantiate([head])[0]
    fc = LinearLayer(store, "fc", plan.head_channels, spec.class_count, rng)
    return Model(spec, store, stages, integration_conv, integration_bn, fc, norms)


def save_checkpoint(model: Model, path, extras: Optional[dict] = None) -> None:
    """Write parameters, batch norm buffers, and the model config to one npz file."""
    entries = list(model.store.entries())
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "model": model_to_config(model.spec),
        "params": [{"pid": e.pid, "name": e.name, "role": e.role,
                    "shape": list(e.tensor.shape)} for e in entries],
        "bn_buffers": [bn.name for bn in model.batch_norms()],
        "extras": extras or {},
    }
    arrays = {f"param_{e.pid}": e.tensor.data for e in entries}
    for i, bn in enumerate(model.batch_norms()):
        arrays[f"bn_{i}_mean"] = bn.running_mean
        arrays[f"bn_{i}_var"] = bn.running_var
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path):
    """Rebuild the model a checkpoint came from. Returns (model, extras)."""
    with np.load(path) as z:
        meta = json.loads(z["meta"].tobytes().decode())
        if meta.get("format_version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint format version "
                             f"{meta.get('format_version')!r}")
        spec = model_from_config(meta["model"])
        model = build_model(spec, seed=0)
        entries = list(model.store.entries())
        if len(entries) != len(meta["params"]):
            raise ValueError("checkpoint parameter list does not match the rebuilt model")
        for e, rec in zip(entries, meta["params"]):
            if e.name != rec["name"] or e.role != rec["role"] or list(e.tensor.shape) != rec["shape"]:
                raise ValueError(f"checkpoint entry {rec['name']!r} does not match "
                                 f"rebuilt parameter {e.name!r}")
            e.tensor.data = np.ascontiguousarray(z[f"param_{e.pid}"])
        norms = model.batch_norms()
        if [bn.name for bn in norms] != meta["bn_buffers"]:
            raise ValueError("checkpoint batch norm buffers do not match the rebuilt model")
        for i, bn in enumerate(norms):
            bn.running_mean = np.ascontiguousarray(z[f"bn_{i}_mean"])
            bn.running_var = np.ascontiguousarray(z[f"bn_{i}_var"])
        extras = meta.get("extras", {})
    return model, extras
