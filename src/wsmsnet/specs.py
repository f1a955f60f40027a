"""Declarative descriptions of backbones and their multi-stage wrapping.

A backbone is one of the two families the paper wraps, :class:`ResNet` or
:class:`DenseNet`: a stem convolution followed by convolution blocks.
Downsampling always happens at the entry of a block, so truncating the
trailing blocks of any stage leaves every pathway at the same spatial
extent. A backbone spec holds exactly its family's config settings, field
for field in config key order, and checks them when it is constructed, so a
spec that exists is valid. :func:`stage_units` is the one place a family's
layout is spelled out, and the one walk over a spec: the runtime builder
instantiates the layer sites it yields and the static cost model counts them,
so a runtime layer's name is its cost row's path.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import MISSING, asdict, dataclass, fields
from typing import (ClassVar, Iterator, Optional, Tuple, Union, get_args, get_origin,
                    get_type_hints)

INTEGRATIONS = ("none", "conv1x1", "conv3x3")
SHARINGS = ("shared", "unshared")
FAMILIES = ("resnet", "densenet")


class ConfigError(ValueError):
    """Raised for malformed model or run configuration."""


_KINDS = {bool: "boolean", int: "integer", float: "number", str: "string"}


def config_object(value, section: str) -> dict:
    """``value`` if it is a JSON object, else a ConfigError naming ``section``."""
    if not isinstance(value, dict):
        raise ConfigError(f"config {section} section must be an object, "
                          f"got {type(value).__name__}")
    return value


def _tuples(value):
    """A JSON value with every list, nested too, read as a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _kind(hint) -> str:
    """The JSON kind a field annotated ``hint`` takes, as messages name it."""
    return _KINDS.get(hint, "list" if get_origin(hint) is tuple else "object")


def _fit(hint, value):
    """``value`` as a field annotated ``hint`` holds it, or TypeError. An int is
    not a bool, and an int in a float field becomes a float."""
    args = get_args(hint)
    if get_origin(hint) is Union:
        for arm in args:
            with suppress(TypeError):
                return _fit(arm, value)
    elif get_origin(hint) is tuple:
        if isinstance(value, tuple):
            items = args[:1] * len(value) if args[-1] is Ellipsis else args
            if len(items) == len(value):
                return tuple(map(_fit, items, value))
    elif hint is float and type(value) is int:
        return float(value)
    elif isinstance(value, hint) and (hint is bool or not isinstance(value, bool)):
        return value
    raise TypeError(value)


def read_config(cls, cfg, section: str):
    """Build settings dataclass ``cls`` from its JSON object ``cfg``.

    Unknown keys, a missing field that has no default, a value that does not
    fit its field's annotation and every fault the class's own check finds
    raise ConfigError. Lists are read as tuples.
    """
    unknown = sorted(set(config_object(cfg, section)) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {section} config keys: {unknown}")
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        hint, value = hints[f.name], _tuples(cfg.get(f.name, f.default))
        if value is MISSING:
            raise ConfigError(f"{section} config needs {_kind(hint)} {f.name!r}")
        try:
            values[f.name] = _fit(hint, value)
        except TypeError:
            expected = _kind(hint) if f.default is MISSING else f"like {f.default!r}"
            raise ConfigError(f"{section} config: {f.name} must be {expected}, "
                              f"got {value!r}") from None
    try:
        return cls(**values)
    except ConfigError as err:
        raise ConfigError(f"{section} config: {err}") from None


def _check_sizes(class_count: int, stem: int, widths) -> None:
    if class_count < 2:
        raise ConfigError(f"class_count must be >= 2, got {class_count}")
    if stem < 1:
        raise ConfigError(f"stem width must be >= 1, got {stem}")
    for b, width in enumerate(widths, start=1):
        if width < 1:
            raise ConfigError(f"block {b} width must be >= 1, got {width}")


@dataclass(frozen=True, kw_only=True)
class ResNet:
    """Residual backbone: a stem conv to ``channels[0]``, then one compartment
    of ``n`` two-conv residual units per width. Every compartment after the
    first enters through a stride-2 unit whose parameter-free shortcut
    subsamples and zero-pads, so the widths may only grow. Depth with three
    widths is 6n+2."""
    family: ClassVar[str] = "resnet"
    n: int
    channels: Tuple[int, ...] = (16, 32, 64)
    class_count: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"resnet units per compartment must be >= 1, got {self.n}")
        if not self.channels:
            raise ConfigError("resnet needs at least one compartment width")
        _check_sizes(self.class_count, self.channels[0], self.channels)
        for b, (prev, width) in enumerate(zip(self.channels, self.channels[1:]), start=2):
            if width < prev:
                raise ConfigError(f"block {b} width {width} is below the previous {prev}; "
                                  f"the zero-padding shortcut can only widen")


@dataclass(frozen=True, kw_only=True)
class DenseNet:
    """Densely connected backbone without compression: a stem conv, then
    ``blocks`` blocks of ``layers_per_block`` BN-ReLU-conv3x3(growth) layers.
    Every block after the first enters through a channel-preserving
    transition (1x1 conv + BN + ReLU, then 2x2 average pooling), and each
    pathway ends in BN+ReLU."""
    family: ClassVar[str] = "densenet"
    growth: int
    layers_per_block: int = 32
    blocks: int = 3
    stem_channels: int = 16
    class_count: int

    def __post_init__(self) -> None:
        if self.growth < 1:
            raise ConfigError(f"densenet growth must be >= 1, got {self.growth}")
        if self.layers_per_block < 1:
            raise ConfigError(f"densenet layers_per_block must be >= 1, "
                              f"got {self.layers_per_block}")
        if self.blocks < 1:
            raise ConfigError(f"densenet needs at least one block, got {self.blocks}")
        _check_sizes(self.class_count, self.stem_channels, ())


BackboneSpec = Union[ResNet, DenseNet]


def block_count(backbone: BackboneSpec) -> int:
    """k, the number of pooling-delimited blocks after the stem."""
    if isinstance(backbone, DenseNet):
        return backbone.blocks
    return len(backbone.channels)


def block_width(backbone: BackboneSpec, b: int) -> int:
    """Output width of block ``b`` (1-based); block 0 is the stem."""
    if isinstance(backbone, DenseNet):
        return backbone.stem_channels + backbone.growth * backbone.layers_per_block * b
    return backbone.channels[max(b - 1, 0)]


@dataclass(frozen=True)
class WsmsSpec:
    """A backbone wrapped into ``stages`` parallel suffix-truncated pathways.

    Stage s consumes the input pyramid level s (downscaled by 2**(s-1)) and
    runs the stem plus blocks 1..k-s+1. Convolution and fully connected
    weights are shared across stages unless ``sharing == "unshared"``; batch
    norm parameters and buffers are always per stage.
    """
    backbone: BackboneSpec
    stages: int = 1
    integration: str = "none"
    integration_channels: int = 128
    sharing: str = "shared"

    def __post_init__(self) -> None:
        k = block_count(self.backbone)
        if self.stages < 1:
            raise ConfigError(f"stages must be >= 1, got {self.stages}")
        if self.stages > k:
            raise ConfigError(
                f"stages={self.stages} exceeds the backbone's k={k} convolution blocks")
        if self.integration not in INTEGRATIONS:
            raise ConfigError(f"unknown integration {self.integration!r}; "
                              f"expected one of {INTEGRATIONS}")
        if self.integration != "none" and self.integration_channels < 1:
            raise ConfigError(f"integration_channels must be >= 1, "
                              f"got {self.integration_channels}")
        if self.sharing not in SHARINGS:
            raise ConfigError(f"unknown sharing {self.sharing!r}; expected one of {SHARINGS}")

    @property
    def class_count(self) -> int:
        return self.backbone.class_count


@dataclass(frozen=True)
class StagePlan:
    """Derived per-stage layout: scale factors and output widths."""
    scale_divisors: Tuple[int, ...]   # input downscale per stage: 1, 2, 4, ...
    stage_channels: Tuple[int, ...]   # feature channels per stage output
    concat_channels: int
    head_channels: int                # width entering global pooling + classifier


def stage_plan(spec: WsmsSpec) -> StagePlan:
    k = block_count(spec.backbone)
    stages = range(1, spec.stages + 1)
    widths = tuple(block_width(spec.backbone, k - s + 1) for s in stages)
    concat = sum(widths)
    head = concat if spec.integration == "none" else spec.integration_channels
    return StagePlan(tuple(2 ** (s - 1) for s in stages), widths, concat, head)


@dataclass(frozen=True)
class ConvSite:
    """One convolution; padding keeps the spatial extent at stride 1."""
    path: str
    in_channels: int
    out_channels: int
    kernel: int = 3
    stride: int = 1

    @property
    def padding(self) -> int:
        return self.kernel // 2


@dataclass(frozen=True)
class BnSite:
    """One batch norm over ``channels`` feature maps."""
    path: str
    channels: int


@dataclass(frozen=True)
class Unit:
    """One executable unit with its layer sites in execution order.

    ``kind`` is stem, residual, dense, transition, tail or integration.
    ``block`` is the 1-based backbone block the unit belongs to, 0 for the
    stem, the tail and the integration.
    """
    kind: str
    block: int
    sites: Tuple[Union[ConvSite, BnSite], ...] = ()


def stage_units(spec: WsmsSpec, stage: int) -> Iterator[Unit]:
    """Yield pathway ``stage``'s stem, block units and tail in execution order.

    Conv paths carry a ``stage{s}.`` prefix only when weights are unshared, so
    a shared conv has the same path at every stage that runs it; batch norm
    paths always carry it.
    """
    backbone = spec.backbone
    conv = "" if spec.sharing == "shared" else f"stage{stage}."
    norm = f"stage{stage}."
    width = block_width(backbone, 0)
    dense = isinstance(backbone, DenseNet)
    stem: tuple = (ConvSite(conv + "stem", 3, width),)
    if not dense:  # dense layers normalize their own input first
        stem += (BnSite(norm + "stem.bn", width),)
    yield Unit("stem", 0, stem)
    for b in range(1, block_count(backbone) - stage + 2):
        c, n = f"{conv}block{b}", f"{norm}block{b}"
        if isinstance(backbone, ResNet):
            out = backbone.channels[b - 1]
            for u in range(backbone.n):
                stride = 2 if b > 1 and u == 0 else 1
                yield Unit("residual", b, (
                    ConvSite(f"{c}.unit{u}.conv1", width, out, stride=stride),
                    BnSite(f"{n}.unit{u}.bn1", out),
                    ConvSite(f"{c}.unit{u}.conv2", out, out),
                    BnSite(f"{n}.unit{u}.bn2", out)))
                width = out
        else:
            if b > 1:
                yield Unit("transition", b, (
                    ConvSite(f"{c}.transition.conv", width, width, kernel=1),
                    BnSite(f"{n}.transition.bn", width)))
            for li in range(backbone.layers_per_block):
                yield Unit("dense", b, (BnSite(f"{n}.layer{li}.bn", width),
                                        ConvSite(f"{c}.layer{li}.conv", width, backbone.growth)))
                width += backbone.growth
    if dense:
        yield Unit("tail", 0, (BnSite(norm + "tail.bn", width),))


def integration_unit(spec: WsmsSpec) -> Optional[Unit]:
    """The conv + BN that fuses the concatenated pathways, if the spec has one."""
    if spec.integration == "none":
        return None
    kernel = 1 if spec.integration == "conv1x1" else 3
    width = spec.integration_channels
    return Unit("integration", 0, (
        ConvSite("integration.conv", stage_plan(spec).concat_channels, width, kernel),
        BnSite("integration.bn", width)))


def backbone_from_config(cfg: dict) -> BackboneSpec:
    """Read a backbone's settings, picking its class by the ``family`` key."""
    family = config_object(cfg, "backbone").get("family")
    for cls in (ResNet, DenseNet):
        if family == cls.family:
            return read_config(cls, {k: v for k, v in cfg.items() if k != "family"}, family)
    raise ConfigError(f"unknown backbone family {family!r}; expected one of {FAMILIES}")


def backbone_to_config(spec: BackboneSpec) -> dict:
    return {"family": spec.family, **asdict(spec)}


def model_from_config(cfg: dict) -> WsmsSpec:
    """Build a WsmsSpec from its dict form."""
    cfg = config_object(cfg, "model")
    return read_config(WsmsSpec, {**cfg, "backbone": backbone_from_config(cfg.get("backbone"))},
                       "model")


def model_to_config(spec: WsmsSpec) -> dict:
    return {**asdict(spec), "backbone": backbone_to_config(spec.backbone)}
