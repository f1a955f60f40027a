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
from .layers import BatchNorm, Conv2dLayer, ParamStore
from .model import build_model, run_unit
from .specs import BnSite, ConfigError, ConvSite, Unit, WsmsSpec, build_resnet

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
          step: float = DEFAULT_STEP, fault: float = 1.0) -> float:
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
        numeric = numeric_grad(lambda: build_loss().item(), p.data, step)
        worst = max(worst, max_rel_error(analytic * fault, numeric))
    return worst


def _rand(rng, *shape) -> Tensor:
    t = Tensor(rng.standard_normal(shape))
    t.requires_grad = True
    return t


def _suite_cases(seed: int) -> Dict[str, Callable[[], Tuple[Callable[[], Tensor], List[Tensor]]]]:
    """Each case builds (loss closure, parameters to check) from scratch."""

    def conv2d_case():
        rng = np.random.default_rng(seed)
        x = _rand(rng, 2, 4, 6, 6)
        w = _rand(rng, 3, 4, 3, 3)
        fixed = rng.standard_normal((2, 3, 6, 6))
        def loss():
            return ops.sum_all(ops.mul(ops.conv2d(x, w, stride=1, padding=1),
                                       Tensor(fixed)))
        return loss, [x, w]

    def conv2d_strided_case():
        rng = np.random.default_rng(seed + 1)
        x = _rand(rng, 2, 3, 7, 7)
        w = _rand(rng, 4, 3, 3, 3)
        fixed = rng.standard_normal((2, 4, 4, 4))
        def loss():
            return ops.sum_all(ops.mul(ops.conv2d(x, w, stride=2, padding=1),
                                       Tensor(fixed)))
        return loss, [x, w]

    def linear_case():
        rng = np.random.default_rng(seed + 2)
        x = _rand(rng, 5, 7)
        w = _rand(rng, 4, 7)
        b = _rand(rng, 4)
        fixed = rng.standard_normal((5, 4))
        def loss():
            return ops.sum_all(ops.mul(ops.linear(x, w, b), Tensor(fixed)))
        return loss, [x, w, b]

    def batch_norm_case():
        rng = np.random.default_rng(seed + 3)
        x = _rand(rng, 4, 3, 5, 5)
        gamma = _rand(rng, 3)
        beta = _rand(rng, 3)
        fixed = rng.standard_normal((4, 3, 5, 5))
        def loss():
            running_mean = np.zeros(3)
            running_var = np.ones(3)
            y = ops.batch_norm(x, gamma, beta, running_mean, running_var, training=True)
            return ops.sum_all(ops.mul(y, Tensor(fixed)))
        return loss, [x, gamma, beta]

    def batch_norm_eval_case():
        rng = np.random.default_rng(seed + 12)
        x = _rand(rng, 4, 3, 5, 5)
        gamma = _rand(rng, 3)
        beta = _rand(rng, 3)
        running_mean = rng.standard_normal(3)
        running_var = rng.random(3) + 0.5
        fixed = rng.standard_normal((4, 3, 5, 5))
        def loss():
            y = ops.batch_norm(x, gamma, beta, running_mean, running_var, training=False)
            return ops.sum_all(ops.mul(y, Tensor(fixed)))
        return loss, [x, gamma, beta]

    def relu_case():
        rng = np.random.default_rng(seed + 4)
        x = _rand(rng, 3, 4, 4, 4)
        fixed = rng.standard_normal((3, 4, 4, 4))
        def loss():
            return ops.sum_all(ops.mul(ops.relu(x), Tensor(fixed)))
        return loss, [x]

    def avg_pool_case():
        rng = np.random.default_rng(seed + 5)
        x = _rand(rng, 2, 3, 6, 6)
        fixed = rng.standard_normal((2, 3, 3, 3))
        def loss():
            return ops.sum_all(ops.mul(ops.avg_pool_half(x), Tensor(fixed)))
        return loss, [x]

    def global_pool_case():
        rng = np.random.default_rng(seed + 7)
        x = _rand(rng, 2, 5, 4, 4)
        fixed = rng.standard_normal((2, 5, 1, 1))
        def loss():
            return ops.sum_all(ops.mul(ops.global_avg_pool(x), Tensor(fixed)))
        return loss, [x]

    def softmax_case():
        rng = np.random.default_rng(seed + 8)
        x = _rand(rng, 6, 5)
        labels = rng.integers(0, 5, size=6)
        def loss():
            return ops.softmax_cross_entropy(x, labels)
        return loss, [x]

    def shortcut_case():
        rng = np.random.default_rng(seed + 9)
        x = _rand(rng, 2, 3, 6, 6)
        fixed = rng.standard_normal((2, 5, 3, 3))
        def loss():
            y = ops.pad_channels(ops.subsample2(x), 5)
            return ops.sum_all(ops.mul(y, Tensor(fixed)))
        return loss, [x]

    def concat_case():
        rng = np.random.default_rng(seed + 10)
        a = _rand(rng, 2, 2, 4, 4)
        b = _rand(rng, 2, 3, 4, 4)
        fixed = rng.standard_normal((2, 5, 4, 4))
        def loss():
            return ops.sum_all(ops.mul(ops.concat_channels([a, b]), Tensor(fixed)))
        return loss, [a, b]

    def shared_weight_case():
        # one weight at two conv sites; the tape must sum both site gradients
        rng = np.random.default_rng(seed + 11)
        x1 = _rand(rng, 2, 3, 5, 5)
        x2 = _rand(rng, 2, 3, 5, 5)
        w = _rand(rng, 3, 3, 3, 3)
        fixed = rng.standard_normal((2, 3, 5, 5))
        def loss():
            y = ops.add(ops.conv2d(x1, w, padding=1), ops.conv2d(x2, w, padding=1))
            return ops.sum_all(ops.mul(y, Tensor(fixed)))
        return loss, [x1, x2, w]

    def residual_unit_case():
        # x feeds both conv1 and the identity shortcut; the tape must sum the
        # gradients arriving along the two paths
        rng = np.random.default_rng(seed + 13)
        store = ParamStore()
        conv1, conv2 = (Conv2dLayer(store, f"conv{i}", 3, 3, 3, 1, 1, rng) for i in (1, 2))
        layers = [conv1, BatchNorm(store, "bn1", 3), conv2, BatchNorm(store, "bn2", 3)]
        unit = Unit("residual", 1, (ConvSite("conv1", 3, 3), BnSite("bn1", 3),
                                    ConvSite("conv2", 3, 3), BnSite("bn2", 3)))
        x = _rand(rng, 2, 3, 5, 5)
        fixed = rng.standard_normal((2, 3, 5, 5))
        def loss():
            return ops.sum_all(ops.mul(run_unit(unit, layers, x, training=True),
                                       Tensor(fixed)))
        return loss, [x] + [e.tensor for e in store.entries()]

    return {
        "conv2d": conv2d_case,
        "conv2d-strided": conv2d_strided_case,
        "linear": linear_case,
        "batch_norm": batch_norm_case,
        "batch_norm-eval": batch_norm_eval_case,
        "relu": relu_case,
        "avg_pool_half": avg_pool_case,
        "global_avg_pool": global_pool_case,
        "softmax_cross_entropy": softmax_case,
        "shortcut": shortcut_case,
        "concat_channels": concat_case,
        "shared-weight": shared_weight_case,
        "residual-unit": residual_unit_case,
    }


def random_graph_case(seed: int, depth: int = 6):
    """Compose random primitives into a fixed program of the given depth."""
    rng = np.random.default_rng(seed)
    x = _rand(rng, 2, 3, 8, 8)
    params: List[Tensor] = [x]
    program: List[Tuple[str, Optional[Tensor]]] = []
    channels, h = 3, 8
    for _ in range(depth):
        choices = ["relu", "conv"]
        if h % 2 == 0 and h >= 4:
            choices.append("avg_pool")
        if channels <= 6:
            choices.append("branch_add")
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


def tiny_model_case(seed: int):
    """End-to-end check through a small two-stage shared model."""
    backbone = build_resnet(1, class_count=3, channels=(4, 6))
    spec = WsmsSpec(backbone, stages=2, integration="conv1x1", integration_channels=5)
    model = build_model(spec, seed=seed)
    rng = np.random.default_rng(seed + 100)
    x = Tensor(rng.standard_normal((2, 3, 8, 8)))
    labels = rng.integers(0, 3, size=2)

    def loss():
        return ops.softmax_cross_entropy(model.forward(x, training=True), labels)

    return loss, [e.tensor for e in model.store.entries()]


def run_suite(seed: int = 0, corrupt: Optional[str] = None) -> Dict[str, float]:
    """Gradcheck every primitive, random compositions, and a tiny model.

    Returns {case name: max relative error}. ``corrupt`` scales the named
    case's analytic gradient by 1.01 so the comparison machinery itself can
    be shown to catch a broken backward rule.
    """
    cases = _suite_cases(seed)
    for g in range(3):
        cases[f"random-graph-{g}"] = lambda g=g: random_graph_case(seed + 20 + g)
    cases["wsms-tiny-model"] = lambda: tiny_model_case(seed)
    if corrupt is not None and corrupt not in cases:
        raise ConfigError(f"unknown gradcheck case {corrupt!r}")
    results: Dict[str, float] = {}
    with using_precision("f64"):
        for name, factory in cases.items():
            build_loss, params = factory()
            results[name] = check(build_loss, params, fault=1.01 if name == corrupt else 1.0)
    return results
