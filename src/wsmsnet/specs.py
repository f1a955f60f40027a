"""Declarative descriptions of backbones and their multi-stage wrapping.

A backbone is a stem convolution followed by pooling-delimited convolution
blocks; downsampling always happens at the entry of a block, so truncating
the trailing blocks of any stage leaves every pathway at the same spatial
extent. A backbone spec holds exactly its family's config settings
(:class:`ResNet`, :class:`DenseNet`, :class:`ConvNet`), field for field in
config key order. :func:`stage_units` is the one place a family's layout is
spelled out, and the one walk over a spec: the runtime builder instantiates
the layer sites it yields and the static cost model counts them, so a runtime
layer's name is its cost row's path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar, Iterator, Optional, Tuple, Union

INTEGRATIONS = ("none", "conv1x1", "conv3x3")
SHARINGS = ("shared", "unshared")
FAMILIES = ("resnet", "densenet", "conv")


class ConfigError(ValueError):
    """Raised for malformed model or run configuration."""


def _check_sizes(class_count: int, stem: int, widths) -> None:
    if class_count < 2:
        raise ConfigError(f"class_count must be >= 2, got {class_count}")
    if stem < 1:
        raise ConfigError(f"stem width must be >= 1, got {stem}")
    for b, width in enumerate(widths, start=1):
        if width < 1:
            raise ConfigError(f"block {b} width must be >= 1, got {width}")


@dataclass(frozen=True)
class ResNet:
    """Residual backbone: a stem conv to ``channels[0]``, then one compartment
    of ``n`` two-conv residual units per width. Every compartment after the
    first enters through a stride-2 unit whose parameter-free shortcut
    subsamples and zero-pads, so the widths may only grow. Depth with three
    widths is 6n+2."""
    family: ClassVar[str] = "resnet"
    n: int
    channels: Tuple[int, ...]
    class_count: int

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigError(f"resnet units per compartment must be >= 1, got {self.n}")
        if not self.channels:
            raise ConfigError("resnet needs at least one compartment width")
        _check_sizes(self.class_count, self.channels[0], self.channels)
        for b, (prev, width) in enumerate(zip(self.channels, self.channels[1:]), start=2):
            if width < prev:
                raise ConfigError(f"block {b} width {width} is below the previous {prev}; "
                                  f"the zero-padding shortcut can only widen")


@dataclass(frozen=True)
class DenseNet:
    """Densely connected backbone without compression: a stem conv, then
    ``blocks`` blocks of ``layers_per_block`` BN-ReLU-conv3x3(growth) layers.
    Every block after the first enters through a channel-preserving
    transition (1x1 conv + BN + ReLU, then 2x2 average pooling), and each
    pathway ends in BN+ReLU."""
    family: ClassVar[str] = "densenet"
    growth: int
    layers_per_block: int
    blocks: int
    stem_channels: int
    class_count: int

    def validate(self) -> None:
        if self.growth < 1:
            raise ConfigError(f"densenet growth must be >= 1, got {self.growth}")
        if self.layers_per_block < 1:
            raise ConfigError(f"densenet layers_per_block must be >= 1, "
                              f"got {self.layers_per_block}")
        if self.blocks < 1:
            raise ConfigError(f"densenet needs at least one block, got {self.blocks}")
        _check_sizes(self.class_count, self.stem_channels, ())


@dataclass(frozen=True)
class ConvNet:
    """Plain backbone: a stem conv, then per block ``convs_per_block[i]``
    conv3x3-BN-ReLU units at width ``block_widths[i]``. Every block after the
    first enters through 2x2 average pooling; a block of zero convs is only
    that pooling and keeps the previous width."""
    family: ClassVar[str] = "conv"
    stem_channels: int
    block_widths: Tuple[int, ...]
    convs_per_block: Tuple[int, ...]
    class_count: int

    def validate(self) -> None:
        if not self.block_widths:
            raise ConfigError("conv config needs a non-empty 'block_widths' list")
        if len(self.convs_per_block) != len(self.block_widths):
            raise ConfigError("convs_per_block must match block_widths in length")
        prev = self.stem_channels
        for b, (width, convs) in enumerate(zip(self.block_widths, self.convs_per_block), 1):
            if convs < 0:
                raise ConfigError(f"block {b} conv count must be >= 0, got {convs}")
            if convs == 0 and width != prev:
                raise ConfigError(f"block {b} has no convs and cannot change width "
                                  f"{prev} -> {width}")
            prev = width
        _check_sizes(self.class_count, self.stem_channels, self.block_widths)


BackboneSpec = Union[ResNet, DenseNet, ConvNet]


def block_count(backbone: BackboneSpec) -> int:
    """k, the number of pooling-delimited blocks after the stem."""
    if isinstance(backbone, DenseNet):
        return backbone.blocks
    return len(backbone.channels if isinstance(backbone, ResNet) else backbone.block_widths)


def block_width(backbone: BackboneSpec, b: int) -> int:
    """Output width of block ``b`` (1-based); block 0 is the stem."""
    if isinstance(backbone, DenseNet):
        return backbone.stem_channels + backbone.growth * backbone.layers_per_block * b
    if isinstance(backbone, ResNet):
        return backbone.channels[max(b - 1, 0)]
    return backbone.block_widths[b - 1] if b else backbone.stem_channels


@dataclass(frozen=True)
class WsmsSpec:
    """A backbone wrapped into ``stages`` parallel suffix-truncated pathways.

    Stage s consumes the input pyramid level s (downscaled by 2**(s-1)) and
    runs the stem plus blocks 1..k-s+1. Convolution and fully connected
    weights are shared across stages unless ``sharing == "unshared"``; batch
    norm parameters and buffers are always per stage.
    """
    backbone: BackboneSpec
    stages: int
    integration: str = "none"
    integration_channels: int = 128
    sharing: str = "shared"

    def validate(self) -> None:
        self.backbone.validate()
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
    spec.validate()
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

    ``kind`` is stem, residual, dense, transition, conv, pool, tail or
    integration. ``block`` is the 1-based backbone block the unit belongs to,
    0 for the stem, the tail and the integration.
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
        elif dense:
            if b > 1:
                yield Unit("transition", b, (
                    ConvSite(f"{c}.transition.conv", width, width, kernel=1),
                    BnSite(f"{n}.transition.bn", width)))
            for li in range(backbone.layers_per_block):
                yield Unit("dense", b, (BnSite(f"{n}.layer{li}.bn", width),
                                        ConvSite(f"{c}.layer{li}.conv", width, backbone.growth)))
                width += backbone.growth
        else:
            if b > 1:
                yield Unit("pool", b)
            out = backbone.block_widths[b - 1]
            for u in range(backbone.convs_per_block[b - 1]):
                yield Unit("conv", b, (
                    ConvSite(f"{c}.unit{u}.conv", width, out),
                    BnSite(f"{n}.unit{u}.bn", out)))
                width = out
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


def build_resnet(n: int, class_count: int,
                 channels: Tuple[int, ...] = (16, 32, 64)) -> ResNet:
    spec = ResNet(n, tuple(channels), class_count)
    spec.validate()
    return spec


def build_densenet(growth: int, class_count: int, layers_per_block: int = 32,
                   blocks: int = 3, stem_channels: int = 16) -> DenseNet:
    spec = DenseNet(growth, layers_per_block, blocks, stem_channels, class_count)
    spec.validate()
    return spec


def build_conv_backbone(stem_channels: int, block_widths: Tuple[int, ...],
                        convs_per_block, class_count: int) -> ConvNet:
    """``convs_per_block`` may be one int or one int per block."""
    if isinstance(convs_per_block, int):
        convs_per_block = [convs_per_block] * len(block_widths)
    spec = ConvNet(stem_channels, tuple(block_widths), tuple(convs_per_block), class_count)
    spec.validate()
    return spec


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(cfg: dict, key: str, default: int, section: str) -> int:
    value = cfg.get(key, default)
    if not _is_int(value):
        raise ConfigError(f"{section} config field {key!r} must be an integer, got {value!r}")
    return value


def _int_list(cfg: dict, key: str, default, section: str) -> Tuple[int, ...]:
    value = cfg.get(key, default)
    if not isinstance(value, (list, tuple)) or not all(_is_int(v) for v in value):
        raise ConfigError(f"{section} config field {key!r} must be a list of integers, "
                          f"got {value!r}")
    return tuple(value)


def backbone_from_config(cfg: dict) -> BackboneSpec:
    if not isinstance(cfg, dict):
        raise ConfigError(f"backbone config must be an object, got {type(cfg).__name__}")
    family = cfg.get("family")
    class_count = cfg.get("class_count")
    if not _is_int(class_count):
        raise ConfigError("backbone config needs an integer 'class_count'")
    if family == "resnet":
        n = cfg.get("n")
        if not _is_int(n):
            raise ConfigError("resnet config needs integer 'n' (units per compartment)")
        return build_resnet(n, class_count, _int_list(cfg, "channels", (16, 32, 64), family))
    if family == "densenet":
        growth = cfg.get("growth")
        if not _is_int(growth):
            raise ConfigError("densenet config needs integer 'growth'")
        return build_densenet(growth, class_count,
                              layers_per_block=_int_field(cfg, "layers_per_block", 32, family),
                              blocks=_int_field(cfg, "blocks", 3, family),
                              stem_channels=_int_field(cfg, "stem_channels", 16, family))
    if family == "conv":
        widths = _int_list(cfg, "block_widths", None, family)
        convs = cfg.get("convs_per_block", 1)
        if not _is_int(convs):
            convs = _int_list(cfg, "convs_per_block", None, family)
        stem = _int_field(cfg, "stem_channels", widths[0] if widths else 0, family)
        return build_conv_backbone(stem, widths, convs, class_count)
    raise ConfigError(f"unknown backbone family {family!r}; expected one of {FAMILIES}")


def backbone_to_config(spec: BackboneSpec) -> dict:
    return {"family": spec.family, **asdict(spec)}


def model_from_config(cfg: dict) -> WsmsSpec:
    """Build a validated WsmsSpec from its dict form."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"model config must be an object, got {type(cfg).__name__}")
    if "backbone" not in cfg:
        raise ConfigError("model config needs a 'backbone' section")
    spec = WsmsSpec(
        backbone=backbone_from_config(cfg["backbone"]),
        stages=_int_field(cfg, "stages", 1, "model"),
        integration=cfg.get("integration", "none"),
        integration_channels=_int_field(cfg, "integration_channels", 128, "model"),
        sharing=cfg.get("sharing", "shared"),
    )
    spec.validate()
    return spec


def model_to_config(spec: WsmsSpec) -> dict:
    return {"backbone": backbone_to_config(spec.backbone),
            "stages": spec.stages,
            "integration": spec.integration,
            "integration_channels": spec.integration_channels,
            "sharing": spec.sharing}
