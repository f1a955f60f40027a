"""Finite-difference verification of every backward rule.

The numeric side perturbs raw parameter arrays in place and re-runs the
forward closure, so it shares no code with the tape. All suites run in
double precision with central differences of step 1e-5.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .autodiff import Tape, Tensor, using_precision
from . import ops
from .layers import BatchNorm, Conv2dLayer
from .model import build_model, run_unit
from .specs import BnSite, ConfigError, ConvSite, ResNet, Unit, WsmsSpec

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4


def numeric_grad(f: Callable[[], float], arr: np.ndarray,
                 step: float = DEFAULT_STEP) -> np.ndarray:
    """Central-difference gradient of f with respect to every entry of arr."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        up = f()
        flat[i] = original - step
        down = f()
        flat[i] = original
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise |a-n| / max(|a|, |n|, 1e-2): relative for real gradients,
    effectively absolute for near-zero ones."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-2)
    return float((np.abs(analytic - numeric) / denom).max())


def check(build_loss: Callable[[], Tensor], params: Sequence[Tensor],
          fault: float = 1.0) -> float:
    """Worst relative error across params between tape and finite differences,
    with the tape's gradients scaled by ``fault`` (1.01 simulates a broken rule)."""
    with Tape() as tape:
        loss = build_loss()
        grads = tape.backward(loss)
    worst = 0.0
    for p in params:
        analytic = grads.get(p)
        if analytic is None:
            raise RuntimeError("a checked parameter received no gradient")
        numeric = numeric_grad(lambda: build_loss().item(), p.data)
        worst = max(worst, max_rel_error(analytic * fault, numeric))
    return worst


# a case: the loss closure and the tensors whose gradients are checked
Case = Tuple[Callable[[], Tensor], List[Tensor]]


def _rand(rng, *shape) -> Tensor:
    t = Tensor(rng.standard_normal(shape))
    t.requires_grad = True
    return t


def _projected(rng, op: Callable[..., Tensor], *inputs: Tensor) -> Case:
    """sum(op(*inputs) * fixed), with ``fixed`` drawn from rng after the inputs
    in the shape of op's output, and the inputs to check."""
    fixed = Tensor(rng.standard_normal(op(*inputs).shape))

    def loss():
        return ops.sum_all(ops.mul(op(*inputs), fixed))

    return loss, list(inputs)


def _case(offset: int, op: Callable[..., Tensor], *shapes) -> Callable[[int], Case]:
    """A case whose inputs, one per shape, come from default_rng(seed + offset)."""
    def factory(seed: int) -> Case:
        rng = np.random.default_rng(seed + offset)
        return _projected(rng, op, *(_rand(rng, *shape) for shape in shapes))
    return factory


def batch_norm_eval_case(seed: int) -> Case:
    rng = np.random.default_rng(seed + 12)
    inputs = [_rand(rng, 4, 3, 5, 5), _rand(rng, 3), _rand(rng, 3)]
    running_mean = rng.standard_normal(3)
    running_var = rng.random(3) + 0.5
    return _projected(rng, lambda x, gamma, beta: ops.batch_norm(
        x, gamma, beta, running_mean, running_var, training=False), *inputs)


def softmax_case(seed: int) -> Case:
    rng = np.random.default_rng(seed + 8)
    x = _rand(rng, 6, 5)
    labels = rng.integers(0, 5, size=6)
    return (lambda: ops.softmax_cross_entropy(x, labels)), [x]


def residual_unit_case(seed: int) -> Case:
    # x feeds both conv1 and the identity shortcut; the tape must sum the
    # gradients arriving along the two paths
    rng = np.random.default_rng(seed + 13)
    params = []
    conv1, conv2 = (Conv2dLayer(params, f"conv{i}", 3, 3, 3, 1, 1, rng) for i in (1, 2))
    layers = [conv1, BatchNorm(params, "bn1", 3), conv2, BatchNorm(params, "bn2", 3)]
    unit = Unit("residual", 1, (ConvSite("conv1", 3, 3), BnSite("bn1", 3),
                                ConvSite("conv2", 3, 3), BnSite("bn2", 3)))
    loss, checked = _projected(rng, lambda x: run_unit(unit, layers, x, training=True),
                               _rand(rng, 2, 3, 5, 5))
    return loss, checked + [e.tensor for e in params]


def random_graph_case(seed: int, depth: int = 6) -> Case:
    """Compose random primitives into a fixed program of the given depth."""
    rng = np.random.default_rng(seed)
    x = _rand(rng, 2, 3, 8, 8)
    params: List[Tensor] = [x]
    program: List[Tuple[str, Optional[Tensor]]] = []
    channels, h = 3, 8
    for _ in range(depth):
        choices = ["relu", "conv", "avg_pool", "branch_add"]
        if h % 2 or h < 4:
            choices.remove("avg_pool")
        op = choices[rng.integers(0, len(choices))]
        if op == "conv":
            w = _rand(rng, 4, channels, 3, 3)
            params.append(w)
            program.append(("conv", w))
            channels = 4
        else:
            program.append((op, None))
            if op == "avg_pool":
                h //= 2

    def loss():
        y = x
        for op, w in program:
            if op == "relu":
                y = ops.relu(y)
            elif op == "conv":
                y = ops.conv2d(y, w, padding=1)
            elif op == "avg_pool":
                y = ops.avg_pool_half(y)
            else:
                y = ops.add(y, ops.scale(ops.relu(y), 0.5))
        return ops.sum_all(ops.global_avg_pool(y))

    return loss, params


def tiny_model_case(seed: int) -> Case:
    """End-to-end check through a small two-stage shared model."""
    backbone = ResNet(n=1, channels=(4, 6), class_count=3)
    spec = WsmsSpec(backbone, stages=2, integration="conv1x1", integration_channels=5)
    model = build_model(spec, seed=seed)
    rng = np.random.default_rng(seed + 100)
    x = Tensor(rng.standard_normal((2, 3, 8, 8)))
    labels = rng.integers(0, 3, size=2)

    def loss():
        return ops.softmax_cross_entropy(model.forward(x, training=True), labels)

    return loss, [e.tensor for e in model.params]


# every case by name, in report order; each maps a suite seed to a Case
_CASES: Dict[str, Callable[[int], Case]] = {
    "conv2d": _case(0, lambda x, w: ops.conv2d(x, w, stride=1, padding=1),
                    (2, 4, 6, 6), (3, 4, 3, 3)),
    "conv2d-strided": _case(1, lambda x, w: ops.conv2d(x, w, stride=2, padding=1),
                            (2, 3, 7, 7), (4, 3, 3, 3)),
    "linear": _case(2, ops.linear, (5, 7), (4, 7), (4,)),
    "batch_norm": _case(3, lambda x, gamma, beta: ops.batch_norm(
        x, gamma, beta, np.zeros(3), np.ones(3), training=True), (4, 3, 5, 5), (3,), (3,)),
    "batch_norm-eval": batch_norm_eval_case,
    "relu": _case(4, ops.relu, (3, 4, 4, 4)),
    "avg_pool_half": _case(5, ops.avg_pool_half, (2, 3, 6, 6)),
    "global_avg_pool": _case(7, ops.global_avg_pool, (2, 5, 4, 4)),
    "softmax_cross_entropy": softmax_case,
    "shortcut": _case(9, lambda x: ops.pad_channels(ops.subsample2(x), 5), (2, 3, 6, 6)),
    "concat_channels": _case(10, lambda a, b: ops.concat_channels([a, b]),
                             (2, 2, 4, 4), (2, 3, 4, 4)),
    # one weight at two conv sites; the tape must sum both site gradients
    "shared-weight": _case(11, lambda x1, x2, w: ops.add(ops.conv2d(x1, w, padding=1),
                                                         ops.conv2d(x2, w, padding=1)),
                           (2, 3, 5, 5), (2, 3, 5, 5), (3, 3, 3, 3)),
    "residual-unit": residual_unit_case,
    **{f"random-graph-{g}": lambda seed, g=g: random_graph_case(seed + 20 + g)
       for g in range(3)},
    "wsms-tiny-model": tiny_model_case,
}


def run_suite(seed: int = 0, corrupt: Optional[str] = None) -> Dict[str, float]:
    """Gradcheck every primitive, random compositions, and a tiny model.

    Returns {case name: max relative error}. ``corrupt`` scales the named
    case's analytic gradient by 1.01 so the comparison machinery itself can
    be shown to catch a broken backward rule.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if corrupt is not None and corrupt not in _CASES:
        raise ConfigError(f"unknown gradcheck case {corrupt!r}")
    results: Dict[str, float] = {}
    with using_precision("f64"):
        for name, factory in _CASES.items():
            build_loss, params = factory(seed)
            results[name] = check(build_loss, params, fault=1.01 if name == corrupt else 1.0)
    return results
