"""Static parameter and multiplication counting over model specs.

Rows come from :func:`specs.stage_units`, the walk the runtime builder
instantiates, so each conv row's path is the name of the runtime layer that
runs it. Conventions: convolution weights carry no bias (batch norm follows
every conv), multiplication counts cover convolution layers only (per batch
element), and a weight shared across stages contributes parameters once but
multiplications at every execution site.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from .specs import (ConfigError, ConvSite, Unit, WsmsSpec, integration_unit, stage_plan,
                    stage_units)


@dataclass(frozen=True)
class LayerRow:
    path: str
    kind: str        # conv | bn | fc
    stage: int       # 1..S for pathway layers, 0 for the merged head
    params: int
    mults: int
    out_shape: Tuple[int, int, int]  # (C, H, W)


@dataclass
class CostReport:
    rows: List[LayerRow]
    input_hw: Tuple[int, int]

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_params_ex_bn(self) -> int:
        return sum(r.params for r in self.rows if r.kind != "bn")

    @property
    def total_mults(self) -> int:
        return sum(r.mults for r in self.rows)

    def stage_mults(self, stage: int) -> int:
        return sum(r.mults for r in self.rows if r.stage == stage)

    def write_csv(self, stream) -> None:
        writer = csv.writer(stream)
        writer.writerow(["layer_path", "kind", "stage", "params", "mults", "out_shape"])
        for r in self.rows:
            writer.writerow([r.path, r.kind, r.stage, r.params, r.mults,
                             "x".join(str(v) for v in r.out_shape)])


def cost_report(spec: WsmsSpec, input_hw: Tuple[int, int] = (32, 32)) -> CostReport:
    """Per-layer parameter and multiplication rows for the whole model."""
    plan = stage_plan(spec)
    h0, w0 = input_hw
    divisor = plan.scale_divisors[-1]
    if h0 % divisor or w0 % divisor:
        raise ConfigError(f"input {h0}x{w0} must divide by {divisor} "
                          f"for {spec.stages} stages")
    rows: List[LayerRow] = []
    counted: Set[str] = set()  # conv weights count their parameters at the first site only

    def count(units: Iterable[Unit], stage: int, h: int, w: int) -> Tuple[int, int]:
        """Emit rows for ``units`` entered at ``h`` x ``w``; returns the exit extent."""
        for unit in units:
            for site in unit.sites:
                if isinstance(site, ConvSite):
                    h = (h + 2 * site.padding - site.kernel) // site.stride + 1
                    w = (w + 2 * site.padding - site.kernel) // site.stride + 1
                    weights = site.out_channels * site.in_channels * site.kernel ** 2
                    params = 0 if site.path in counted else weights
                    counted.add(site.path)
                    rows.append(LayerRow(site.path, "conv", stage, params, h * w * weights,
                                         (site.out_channels, h, w)))
                else:
                    rows.append(LayerRow(site.path, "bn", stage, 2 * site.channels, 0,
                                         (site.channels, h, w)))
            if unit.kind == "transition":  # ends in 2x2 average pooling
                if h % 2 or w % 2:
                    raise ConfigError(f"stage{stage}.block{unit.block}.{unit.kind}: spatial "
                                      f"extents {h}x{w} must be even to pool")
                h, w = h // 2, w // 2
        return h, w

    out_hw = None
    for s, d in enumerate(plan.scale_divisors, start=1):
        hw = count(stage_units(spec, s), s, h0 // d, w0 // d)
        if out_hw is None:
            out_hw = hw
        elif hw != out_hw:
            raise ConfigError(f"stage {s} output {hw[0]}x{hw[1]} does not match stage 1 "
                              f"{out_hw[0]}x{out_hw[1]}")
    head = integration_unit(spec)
    if head is not None:
        count([head], 0, *out_hw)
    fc_params = spec.class_count * plan.head_channels + spec.class_count
    rows.append(LayerRow("fc", "fc", 0, fc_params, 0, (spec.class_count, 1, 1)))
    return CostReport(rows, input_hw)


def stage_overhead(spec: WsmsSpec, input_hw: Tuple[int, int] = (32, 32)) -> Dict[int, float]:
    """Multiplication cost of each added stage relative to stage 1."""
    if spec.stages < 2:
        raise ValueError("stage_overhead needs a model with at least 2 stages")
    report = cost_report(spec, input_hw)
    base = report.stage_mults(1)
    if base == 0:
        raise ValueError("stage 1 performs no convolution multiplications")
    return {s: report.stage_mults(s) / base for s in range(2, spec.stages + 1)}
