"""Reverse-mode automatic differentiation over dense numpy arrays.

Operations record themselves onto an explicit :class:`Tape`; ``Tape.backward``
replays the records in reverse and accumulates per-tensor gradients. Weight
sharing needs no special casing: referencing one Tensor at several graph sites
makes the site gradients sum into a single gradient map entry.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

GradMap = Dict["Tensor", np.ndarray]

_DTYPES = {"f32": np.float32, "f64": np.float64}
_PRECISION = "f32"


def set_precision(name: str) -> None:
    """Select the scalar type newly created tensors use: "f32" or "f64"."""
    global _PRECISION
    if name not in _DTYPES:
        raise ValueError(f"unknown precision {name!r}; expected one of {sorted(_DTYPES)}")
    _PRECISION = name


def precision() -> str:
    return _PRECISION


def default_dtype() -> np.dtype:
    return np.dtype(_DTYPES[_PRECISION])


@contextlib.contextmanager
def using_precision(name: str):
    """Temporarily switch engine precision (the gradcheck suites run under f64)."""
    previous = _PRECISION
    set_precision(name)
    try:
        yield
    finally:
        set_precision(previous)


class Tensor:
    """Dense array plus a gradient-tracking flag.

    ``data`` is always a contiguous numpy array. Tensors compare and hash by
    identity, which is what makes a gradient map keyed by Tensor well defined.
    """

    __slots__ = ("data", "requires_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else default_dtype())
        if any(extent < 1 for extent in arr.shape):
            raise ValueError(f"tensor extents must all be >= 1, got shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self._tape: Optional["Tape"] = None

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flags = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flags})"


class _Node:
    __slots__ = ("inputs", "out", "fn")

    def __init__(self, inputs: Tuple[Optional[Tensor], ...], out: Tensor, fn: Callable):
        self.inputs = inputs
        self.out = out
        self.fn = fn


class Tape:
    """Ordered record of differentiable operations.

    Nodes are appended in execution order, so the reversed list is a valid
    reverse-topological order for backpropagation. Only one tape may be
    active at a time; nesting raises.
    """

    _active: Optional["Tape"] = None

    def __init__(self):
        self.nodes: list = []
        self._spent = False

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        Tape._active = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        Tape._active = None

    def release(self) -> None:
        """Drop all recorded nodes and refuse any further backward.

        Each node holds its op's input and output tensors and a backward
        closure. A closure pins nothing but tensors of the graph (and a few
        per-channel vectors): what backward needs beyond them, such as a
        conv's im2col columns or batch norm's normalized input, it computes
        again from the inputs, so ops never write their recorded inputs in
        place. Recorded outputs point back at the tape, so an unreleased tape
        is a reference cycle holding the whole batch until the cycle
        collector happens to run; releasing breaks the cycle and lets plain
        refcounting reclaim the batch at once. Idempotent.
        """
        self.nodes.clear()
        self._spent = True

    def backward(self, loss: Tensor, retain: bool = False) -> GradMap:
        """Gradients of ``loss`` with respect to the tape's tracked leaves.

        The map holds d(loss)/d(tensor) for every reachable tracked tensor
        that no node on the tape produced (parameters and inputs); gradients
        of node outputs are dropped as soon as they have been passed on.
        Without ``retain`` the tape is consumed: each node is freed once its
        backward has run, so activations, closures and gradients go as soon
        as backward is past them, and the tape ends released even when a
        backward closure raises. With ``retain=True`` the nodes are kept, so
        backward can run again from a different scalar.
        """
        if self._spent:
            raise RuntimeError("tape has been released; record a new graph")
        if loss.data.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._tape is not self:
            raise RuntimeError("loss was not produced on this tape")
        nodes = list(self.nodes) if retain else self.nodes
        grads: GradMap = {loss: np.ones_like(loss.data)}
        try:
            while nodes:
                node = nodes.pop()
                gout = grads.pop(node.out, None)
                if gout is None:
                    continue
                gins = node.fn(gout)
                for tensor, grad in zip(node.inputs, gins):
                    if tensor is None or grad is None or not tensor.requires_grad:
                        continue
                    held = grads.get(tensor)
                    grads[tensor] = grad if held is None else held + grad
        finally:
            if not retain:
                self.release()
        return grads


def recording(*tensors: Optional[Tensor]) -> bool:
    """True when a tape is active and any argument tracks gradients."""
    if Tape._active is None:
        return False
    return any(t is not None and t.requires_grad for t in tensors)


def push(inputs: Sequence[Optional[Tensor]], out: Tensor, fn: Callable) -> None:
    """Record one operation on the active tape. Call only when recording()."""
    out.requires_grad = True
    out._tape = Tape._active
    Tape._active.nodes.append(_Node(tuple(inputs), out, fn))
