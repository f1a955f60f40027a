"""Runtime assembly and execution of multi-stage models.

The runtime executes the walk the cost model counts. ``build_model`` turns
the units :func:`specs.stage_units` yields into layer objects, and
:func:`run_unit` runs each unit over its layers in site order. A conv site's
path names one layer, so under shared wiring every stage that runs a conv
references the same object, and with it the same weight tensor, and the tape
accumulates its gradients across stages; batch norm sites are per stage.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import ops
from .autodiff import Tensor, taping
from .cost import cost_report
from .data import DataFormatError
from .layers import BatchNorm, Conv2dLayer, LinearLayer, ParamEntry
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

    In eval mode with no tape active, a batch norm that directly follows a
    conv, the residual add after it and the ReLU write into that conv's
    output array (their ``out=``), which nothing else reads: the same passes
    in the same order give the same bits, with one activation array where
    there were three. The unit input, the shortcut and the image batch are
    never written; a batch norm that reads the unit input (a dense layer's,
    the tail's) writes a new array.
    """
    # relu(bn(...)) frees each batch-norm output only after its ReLU has run;
    # freeing it first made a resnet110 training step page-fault 3-5x as often
    in_place = not training and not taping()
    y = x
    last = len(layers) - 1
    for i, (site, layer) in enumerate(zip(unit.sites, layers)):
        if isinstance(site, ConvSite):
            y = layer(y)
            continue
        # out= only where it applies, so the recorded path's calls are unchanged
        after_conv = in_place and i > 0 and isinstance(unit.sites[i - 1], ConvSite)
        into = {"out": y.data} if after_conv else {}
        if unit.kind == "residual" and i == last:
            y = layer(y, training, **into)
            entry = unit.sites[0]
            shortcut = subsample2(x) if entry.stride == 2 else x
            if entry.out_channels > entry.in_channels:
                shortcut = pad_channels(shortcut, entry.out_channels)
            y = relu(add(y, shortcut, **into), **into)
        else:
            y = relu(layer(y, training, **into), **into)
    if unit.kind == "dense":
        return concat_channels([x, y])
    if unit.kind == "transition":
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
    """Executable multi-stage network; ``params`` lists every parameter once,
    in creation order, and an entry's position is its checkpoint ``pid``."""

    def __init__(self, spec: WsmsSpec, params: List[ParamEntry], stages: List[Stage],
                 integration: Optional[Tuple[Unit, list]], fc: LinearLayer,
                 norms: List[BatchNorm]):
        self.spec = spec
        self.params = params
        self.stages = stages
        self.integration = integration
        self.fc = fc
        self._norms = norms

    @property
    def class_count(self) -> int:
        return self.spec.class_count

    def param_count(self) -> int:
        return sum(e.tensor.size for e in self.params)

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

    def features(self, x: Tensor, training: bool = False) -> Tensor:
        """The pooled (N, C) features of ``x``: the pyramid through every
        stage, the merged stages through the integration, then global average
        pooling. Examples never meet before the classifier except through
        training-mode batch statistics."""
        feats = self.stage_features(x, training)
        merged = feats[0] if len(feats) == 1 else concat_channels(feats)
        merged = self.integrate(merged, training)
        pooled = global_avg_pool(merged)
        return reshape(pooled, (pooled.shape[0], pooled.shape[1]))

    def eval_pass(self, x: Tensor) -> int:
        """Examples per eval pass over ``x``: as many as keep the widest
        per-example activation of the cost rows within the conv's column
        block budget (``ops.COLUMN_BLOCK_BYTES``). Zero when one example's
        is already wider: no pass then stays in cache."""
        widest = max(math.prod(r.out_shape) for r in cost_report(self.spec, x.shape[2:]).rows)
        return ops.COLUMN_BLOCK_BYTES // (widest * x.dtype.itemsize)

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        """Classify ``x`` from its :meth:`features`.

        In eval mode with no tape active the features are computed in passes
        of :meth:`eval_pass` examples, so no activation array spans the whole
        batch; the passes are joined and the classifier runs once over all N
        rows. Where no pass fits the budget (``eval_pass`` is 0), the batch
        runs as one pass: passes of one example would only call every op
        once per example, which made DenseNet eval slower, not faster.
        Eval-mode batch norm maps each example on its own, so a pass
        gives its examples the bits the whole batch gives them, but the
        classifier's GEMM may round a row differently for another row count,
        so it keeps seeing the batch. Training couples examples through batch
        statistics, and a recorded forward is the reference the unrecorded one
        is checked against, so both run as one pass.
        """
        n = x.shape[0]
        step = 0 if training or taping() or x.ndim != 4 else self.eval_pass(x)
        if not 0 < step < n:
            return self.fc(self.features(x, training))
        parts = [self.features(Tensor(x.data[s:s + step], dtype=x.dtype), training).data
                 for s in range(0, n, step)]
        return self.fc(Tensor(np.concatenate(parts), dtype=parts[0].dtype))


def build_model(spec: WsmsSpec, seed: int = 0) -> Model:
    """Instantiate parameters for ``spec`` deterministically from ``seed``.

    Each pathway first creates the convs it is the first to run, then its
    batch norms, so under sharing stage 1 draws every conv before any batch
    norm exists. That order fixes the parameter list, the He-init draws and
    with them the checkpoint layout.
    """
    plan = stage_plan(spec)
    params: List[ParamEntry] = []
    rng = np.random.default_rng(seed)
    convs: Dict[str, Conv2dLayer] = {}
    norms: List[BatchNorm] = []

    def instantiate(units: List[Unit]) -> List[Tuple[Unit, list]]:
        """Each unit with its layers in site order, creating what does not exist yet."""
        for unit in units:
            for site in unit.sites:
                if isinstance(site, ConvSite) and site.path not in convs:
                    convs[site.path] = Conv2dLayer(
                        params, site.path, site.in_channels, site.out_channels,
                        site.kernel, site.stride, site.padding, rng)
        pairs = []
        for unit in units:
            made = []
            for site in unit.sites:
                if isinstance(site, ConvSite):
                    made.append(convs[site.path])
                else:
                    norms.append(BatchNorm(params, site.path, site.channels))
                    made.append(norms[-1])
            pairs.append((unit, made))
        return pairs

    stages = [Stage(s, instantiate(list(stage_units(spec, s))))
              for s in range(1, spec.stages + 1)]
    head = integration_unit(spec)
    integration = instantiate([head])[0] if head is not None else None
    fc = LinearLayer(params, "fc", plan.head_channels, spec.class_count, rng)
    return Model(spec, params, stages, integration, fc, norms)


def save_checkpoint(model: Model, path, extras: Optional[dict] = None) -> None:
    """Write parameters, batch norm buffers, and the model config to one npz file.

    The archive is written to ``<path>.tmp`` and then renamed over ``path``, so
    a save that fails part way leaves any earlier checkpoint at ``path`` whole.
    """
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "model": model_to_config(model.spec),
        "params": [{"pid": pid, "name": e.name, "role": e.role,
                    "shape": list(e.tensor.shape)} for pid, e in enumerate(model.params)],
        "bn_buffers": [bn.name for bn in model.batch_norms()],
        "extras": extras or {},
    }
    arrays = {f"param_{pid}": e.tensor.data for pid, e in enumerate(model.params)}
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


def _stored(z, key: str, rebuilt: np.ndarray) -> np.ndarray:
    """Array ``key`` of checkpoint ``z``, which must have the shape and dtype
    of the rebuilt model's array it replaces."""
    try:
        arr = z[key]
    except ValueError as err:  # e.g. an object array, which only unpickling could read
        raise DataFormatError(f"checkpoint array {key!r} cannot be read: {err}") from None
    if arr.shape != rebuilt.shape or arr.dtype != rebuilt.dtype:
        raise DataFormatError(f"checkpoint array {key!r} is {arr.dtype} {arr.shape}; the "
                              f"rebuilt model holds {rebuilt.dtype} {rebuilt.shape}")
    return np.ascontiguousarray(arr)


def load_checkpoint(path):
    """Rebuild the model a checkpoint came from. Returns (model, extras).

    Any file that is not a checkpoint of this format raises DataFormatError,
    as does an array whose shape or dtype differs from the rebuilt model's.
    """
    with open(path, "rb") as f:
        try:
            z = np.load(f)
            meta = json.loads(z["meta"].tobytes().decode())
        except (ValueError, LookupError, EOFError, zipfile.BadZipFile):
            raise DataFormatError(f"{path} is not a wsmsnet checkpoint") from None
        if not isinstance(meta, dict):
            raise DataFormatError(f"{path}: checkpoint meta must be an object")
        if meta.get("format_version") != CHECKPOINT_VERSION:
            raise DataFormatError(f"unsupported checkpoint format version "
                                  f"{meta.get('format_version')!r}")
        if "model" not in meta:
            raise DataFormatError(f"{path}: checkpoint meta has no model config")
        spec = model_from_config(meta["model"])
        model = build_model(spec, seed=0)
        try:
            if len(model.params) != len(meta["params"]):
                raise DataFormatError("checkpoint parameter list does not match the rebuilt model")
            for pid, (e, rec) in enumerate(zip(model.params, meta["params"])):
                if (e.name != rec["name"] or e.role != rec["role"]
                        or list(e.tensor.shape) != rec["shape"]):
                    raise DataFormatError(f"checkpoint entry {rec['name']!r} does not match "
                                          f"rebuilt parameter {e.name!r}")
                e.tensor.data = _stored(z, f"param_{pid}", e.tensor.data)
            norms = model.batch_norms()
            if [bn.name for bn in norms] != meta["bn_buffers"]:
                raise DataFormatError("checkpoint batch norm buffers do not match the "
                                      "rebuilt model")
            for i, bn in enumerate(norms):
                bn.running_mean = _stored(z, f"bn_{i}_mean", bn.running_mean)
                bn.running_var = _stored(z, f"bn_{i}_var", bn.running_var)
        except KeyError as err:  # a meta field or an array the meta promises is absent
            raise DataFormatError(f"{path}: checkpoint is incomplete ({err.args[0]})") from None
        except TypeError:  # a meta field of the wrong kind, e.g. a number for a list
            raise DataFormatError(f"{path}: checkpoint meta is malformed") from None
        extras = meta.get("extras", {})
    return model, extras
