"""Runtime assembly and execution of multi-stage models.

The runtime executes the walk the cost model counts. ``build_model`` turns
the units :func:`specs.stage_units` yields into layer objects bound to one
ParamStore, and :func:`run_unit` runs each unit over its layers in site
order. A conv site's path names one layer, so under shared wiring every stage
that runs a conv references the same object and the tape accumulates its
gradients across stages; batch norm sites are per stage.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .autodiff import Tensor
from .layers import BatchNorm, Conv2dLayer, LinearLayer, ParamStore
# scale stays bound, unused, because perfbench/tracing.py wraps it here by name
from .ops import (add, avg_pool_half, concat_channels, global_avg_pool, pad_channels,  # noqa: F401
                  relu, reshape, scale, subsample2)
from .specs import (ConvSite, Unit, WsmsSpec, integration_unit, model_from_config,
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


def run_unit(unit: Unit, layers: list, x: Tensor, training: bool) -> Tensor:
    """Run ``unit`` over its layers, one per site, in site order.

    A conv applies and a batch norm is followed by ReLU. The last ReLU of a
    residual unit comes after the shortcut is added: the input, subsampled at
    stride 2 and zero-padded when the unit widens. A dense unit concatenates
    its output onto its input; transition and pool units end in 2x2 average
    pooling.
    """
    # relu(bn(...)) frees each batch-norm output only after its ReLU has run;
    # freeing it first made a resnet110 training step page-fault 3-5x as often
    y = x
    last = len(layers) - 1
    for i, (site, layer) in enumerate(zip(unit.sites, layers)):
        if isinstance(site, ConvSite):
            y = layer(y)
        elif unit.kind == "residual" and i == last:
            y = layer(y, training)
            entry = unit.sites[0]
            shortcut = subsample2(x) if entry.stride == 2 else x
            if entry.out_channels > entry.in_channels:
                shortcut = pad_channels(shortcut, entry.out_channels)
            y = relu(add(y, shortcut))
        else:
            y = relu(layer(y, training))
    if unit.kind == "dense":
        return concat_channels([x, y])
    if unit.kind in ("transition", "pool"):
        return avg_pool_half(y)
    return y


class Stage:
    """One pathway: its units from :func:`specs.stage_units`, each with its layers."""

    def __init__(self, index: int, units: List[Tuple[Unit, list]]):
        self.index = index
        self.units = units

    def __call__(self, x: Tensor, training: bool = False,
                 upto_block: Optional[int] = None) -> Tensor:
        """Run every unit, or with ``upto_block`` only the stem and blocks
        1..upto_block, stopping before any later block or the tail."""
        for unit, layers in self.units:
            if upto_block is not None and (unit.block > upto_block or unit.kind == "tail"):
                break
            x = run_unit(unit, layers, x, training)
        return x


class Model:
    """Executable multi-stage network bound to one ParamStore."""

    def __init__(self, spec: WsmsSpec, store: ParamStore, stages: List[Stage],
                 integration: Optional[Tuple[Unit, list]], fc: LinearLayer,
                 norms: List[BatchNorm]):
        self.spec = spec
        self.store = store
        self.stages = stages
        self.integration = integration
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
        if self.integration is not None:
            unit, layers = self.integration
            x = run_unit(unit, layers, x, training)
        return x

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        """Run the pyramid through every stage and classify the merged features."""
        feats = self.stage_features(x, training)
        merged = feats[0] if len(feats) == 1 else concat_channels(feats)
        merged = self.integrate(merged, training)
        pooled = global_avg_pool(merged)
        flat = reshape(pooled, (pooled.shape[0], pooled.shape[1]))
        return self.fc(flat)


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

    def instantiate(units: List[Unit]) -> List[Tuple[Unit, list]]:
        """Each unit with its layers in site order, creating what does not exist yet."""
        for unit in units:
            for site in unit.sites:
                if isinstance(site, ConvSite) and site.path not in convs:
                    convs[site.path] = Conv2dLayer(
                        store, site.path, site.in_channels, site.out_channels,
                        site.kernel, site.stride, site.padding, rng)
        pairs = []
        for unit in units:
            made = []
            for site in unit.sites:
                if isinstance(site, ConvSite):
                    made.append(convs[site.path])
                else:
                    norms.append(BatchNorm(store, site.path, site.channels))
                    made.append(norms[-1])
            pairs.append((unit, made))
        return pairs

    stages = [Stage(s, instantiate(list(stage_units(spec, s))))
              for s in range(1, spec.stages + 1)]
    head = integration_unit(spec)
    integration = instantiate([head])[0] if head is not None else None
    fc = LinearLayer(store, "fc", plan.head_channels, spec.class_count, rng)
    return Model(spec, store, stages, integration, fc, norms)


def save_checkpoint(model: Model, path, extras: Optional[dict] = None) -> None:
    """Write parameters, batch norm buffers, and the model config to one npz file.

    The archive is written to ``<path>.tmp`` and then renamed over ``path``, so
    a save that fails part way leaves any earlier checkpoint at ``path`` whole.
    """
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
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        # through an open file, np.savez writes to exactly this name
        with open(tmp, "wb") as f:
            np.savez(f, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                     **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
