"""Declarative descriptions of backbones and their multi-stage wrapping.

A backbone is a stem convolution followed by pooling-delimited convolution
blocks; downsampling always happens at the entry of a block, so truncating
the trailing blocks of any stage leaves every pathway at the same spatial
extent. These specs are plain data. :func:`stage_units` is the one walk over
them: the runtime builder instantiates the layer sites it yields and the
static cost model counts them, so a runtime layer's name is its cost row's
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union

INTEGRATIONS = ("none", "conv1x1", "conv3x3")
SHARINGS = ("shared", "unshared")
FAMILIES = ("resnet", "densenet", "conv")


class ConfigError(ValueError):
    """Raised for malformed model or run configuration."""


@dataclass(frozen=True)
class StemConv:
    """3x3 stride-1 pad-1 convolution lifting the input to the working width."""
    in_channels: int
    out_channels: int
    batch_norm: bool  # stem BN+ReLU for resnet/conv families; dense layers normalize first


@dataclass(frozen=True)
class ResidualCompartment:
    """Chain of two-conv residual units at one width.

    ``downsample == 2`` puts a stride-2 first unit with a parameter-free
    subsample-and-zero-pad shortcut; later units are identity residual.
    """
    in_channels: int
    out_channels: int
    units: int
    downsample: int


@dataclass(frozen=True)
class Transition:
    """Channel-preserving 1x1 conv + BN + ReLU, then 2x2 average pooling."""
    channels: int


@dataclass(frozen=True)
class DenseBlock:
    """Densely connected block: ``layers`` iterations of BN-ReLU-conv3x3(growth).

    ``lead_transition`` is the pooling transition that precedes every dense
    block except the first; it is what delimits the block for stage truncation.
    """
    in_channels: int
    growth: int
    layers: int
    lead_transition: Optional[Transition] = None

    @property
    def out_channels(self) -> int:
        return self.in_channels + self.growth * self.layers

    @property
    def downsample(self) -> int:
        return 2 if self.lead_transition is not None else 1


@dataclass(frozen=True)
class ConvBlock:
    """Plain chain of conv3x3-BN-ReLU units, optionally entered through a 2x2 avg pool."""
    in_channels: int
    out_channels: int
    convs: int
    lead_pool: bool = False

    @property
    def downsample(self) -> int:
        return 2 if self.lead_pool else 1


Block = Union[ResidualCompartment, DenseBlock, ConvBlock]


@dataclass(frozen=True)
class BackboneSpec:
    family: str
    stem: StemConv
    blocks: Tuple[Block, ...]
    class_count: int
    stage_tail: str = "none"  # "bn-relu" gives each truncated pathway a final BN+ReLU

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown backbone family {self.family!r}")
        if not self.blocks:
            raise ConfigError("backbone needs at least one convolution block")
        if self.class_count < 2:
            raise ConfigError(f"class_count must be >= 2, got {self.class_count}")
        if self.stage_tail not in ("none", "bn-relu"):
            raise ConfigError(f"unknown stage_tail {self.stage_tail!r}")
        if self.blocks[0].downsample != 1:
            raise ConfigError("the first convolution block must not downsample")
        prev = self.stem.out_channels
        for i, block in enumerate(self.blocks, start=1):
            if block.in_channels != prev:
                raise ConfigError(
                    f"block {i} expects {block.in_channels} input channels, "
                    f"previous width is {prev}")
            prev = block.out_channels


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
        k = len(self.backbone.blocks)
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
    """Derived per-stage layout: scale factors, kept blocks, output widths."""
    scale_divisors: Tuple[int, ...]   # input downscale per stage: 1, 2, 4, ...
    block_counts: Tuple[int, ...]     # blocks kept per stage: k, k-1, ...
    stage_channels: Tuple[int, ...]   # feature channels per stage output
    concat_channels: int
    head_channels: int                # width entering global pooling + classifier


def stage_plan(spec: WsmsSpec) -> StagePlan:
    spec.validate()
    k = len(spec.backbone.blocks)
    divisors, counts, widths = [], [], []
    for s in range(1, spec.stages + 1):
        divisors.append(2 ** (s - 1))
        counts.append(k - s + 1)
        widths.append(spec.backbone.blocks[k - s].out_channels)
    concat = sum(widths)
    head = concat if spec.integration == "none" else spec.integration_channels
    return StagePlan(tuple(divisors), tuple(counts), tuple(widths), concat, head)


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
    stem = backbone.stem
    sites: tuple = (ConvSite(conv + "stem", stem.in_channels, stem.out_channels),)
    if stem.batch_norm:
        sites += (BnSite(norm + "stem.bn", stem.out_channels),)
    yield Unit("stem", 0, sites)
    width = stem.out_channels
    upto = len(backbone.blocks) - stage + 1
    for b, block in enumerate(backbone.blocks[:upto], start=1):
        c, n = f"{conv}block{b}", f"{norm}block{b}"
        if isinstance(block, ResidualCompartment):
            out = block.out_channels
            for u in range(block.units):
                stride = block.downsample if u == 0 else 1
                yield Unit("residual", b, (
                    ConvSite(f"{c}.unit{u}.conv1", width, out, stride=stride),
                    BnSite(f"{n}.unit{u}.bn1", out),
                    ConvSite(f"{c}.unit{u}.conv2", out, out),
                    BnSite(f"{n}.unit{u}.bn2", out)))
                width = out
        elif isinstance(block, DenseBlock):
            if block.lead_transition is not None:
                yield Unit("transition", b, (
                    ConvSite(f"{c}.transition.conv", width, width, kernel=1),
                    BnSite(f"{n}.transition.bn", width)))
            for li in range(block.layers):
                yield Unit("dense", b, (BnSite(f"{n}.layer{li}.bn", width),
                                        ConvSite(f"{c}.layer{li}.conv", width, block.growth)))
                width += block.growth
        elif isinstance(block, ConvBlock):
            if block.lead_pool:
                yield Unit("pool", b)
            for u in range(block.convs):
                yield Unit("conv", b, (
                    ConvSite(f"{c}.unit{u}.conv", width, block.out_channels),
                    BnSite(f"{n}.unit{u}.bn", block.out_channels)))
                width = block.out_channels
        else:
            raise TypeError(f"unknown block kind {type(block).__name__}")
    if backbone.stage_tail == "bn-relu":
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
                 channels: Tuple[int, ...] = (16, 32, 64)) -> BackboneSpec:
    """Plain-image residual backbone: stem conv, then one compartment of ``n``
    residual units per width, stride-2 entries from the second compartment on.
    Depth with the default three widths is 6n+2."""
    if n < 1:
        raise ConfigError(f"resnet units per compartment must be >= 1, got {n}")
    if len(channels) < 1:
        raise ConfigError("resnet needs at least one compartment width")
    stem = StemConv(3, channels[0], batch_norm=True)
    blocks = []
    prev = channels[0]
    for i, width in enumerate(channels):
        blocks.append(ResidualCompartment(
            in_channels=prev, out_channels=width, units=n,
            downsample=1 if i == 0 else 2))
        prev = width
    return BackboneSpec("resnet", stem, tuple(blocks), class_count, stage_tail="none")


def build_densenet(growth: int, class_count: int, layers_per_block: int = 32,
                   blocks: int = 3, stem_channels: int = 16) -> BackboneSpec:
    """Densely connected backbone without compression: ``blocks`` dense blocks
    joined by channel-preserving transitions, each pathway finished by BN+ReLU."""
    if growth < 1:
        raise ConfigError(f"densenet growth must be >= 1, got {growth}")
    if layers_per_block < 1:
        raise ConfigError(f"densenet layers_per_block must be >= 1, got {layers_per_block}")
    if blocks < 1:
        raise ConfigError(f"densenet needs at least one block, got {blocks}")
    stem = StemConv(3, stem_channels, batch_norm=False)
    specs = []
    width = stem_channels
    for i in range(blocks):
        lead = None if i == 0 else Transition(width)
        block = DenseBlock(in_channels=width, growth=growth,
                           layers=layers_per_block, lead_transition=lead)
        specs.append(block)
        width = block.out_channels
    return BackboneSpec("densenet", stem, tuple(specs), class_count, stage_tail="bn-relu")


def build_conv_backbone(stem_channels: int, block_widths: Tuple[int, ...],
                        convs_per_block, class_count: int) -> BackboneSpec:
    """Small generic backbone of conv3x3-BN-ReLU chains with pooling between
    blocks. ``convs_per_block`` may be one int or one int per block; a block
    may hold zero convs, leaving just its entry pooling."""
    if isinstance(convs_per_block, int):
        convs_per_block = tuple(convs_per_block for _ in block_widths)
    if len(convs_per_block) != len(block_widths):
        raise ConfigError("convs_per_block must match block_widths in length")
    stem = StemConv(3, stem_channels, batch_norm=True)
    blocks = []
    prev = stem_channels
    for i, (width, convs) in enumerate(zip(block_widths, convs_per_block)):
        if convs == 0 and width != prev:
            raise ConfigError(f"block {i + 1} has no convs and cannot change width "
                              f"{prev} -> {width}")
        blocks.append(ConvBlock(in_channels=prev, out_channels=width,
                                convs=convs, lead_pool=i > 0))
        prev = width
    return BackboneSpec("conv", stem, tuple(blocks), class_count, stage_tail="none")


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
        if not widths:
            raise ConfigError("conv config needs a non-empty 'block_widths' list")
        convs = cfg.get("convs_per_block", 1)
        if not _is_int(convs):
            convs = _int_list(cfg, "convs_per_block", None, family)
        return build_conv_backbone(_int_field(cfg, "stem_channels", widths[0], family),
                                   widths, convs, class_count)
    raise ConfigError(f"unknown backbone family {family!r}; expected one of {FAMILIES}")


def backbone_to_config(spec: BackboneSpec) -> dict:
    if spec.family == "resnet":
        return {"family": "resnet", "n": spec.blocks[0].units,
                "channels": [b.out_channels for b in spec.blocks],
                "class_count": spec.class_count}
    if spec.family == "densenet":
        first = spec.blocks[0]
        return {"family": "densenet", "growth": first.growth,
                "layers_per_block": first.layers, "blocks": len(spec.blocks),
                "stem_channels": spec.stem.out_channels,
                "class_count": spec.class_count}
    return {"family": "conv", "stem_channels": spec.stem.out_channels,
            "block_widths": [b.out_channels for b in spec.blocks],
            "convs_per_block": [b.convs for b in spec.blocks],
            "class_count": spec.class_count}


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
