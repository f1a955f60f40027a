"""Reverse-mode automatic differentiation over dense numpy arrays.

Operations record themselves onto an explicit :class:`Tape`; ``Tape.backward``
replays the records in reverse and accumulates gradients keyed by the node
that produced a tensor, or by the tensor itself for a leaf (a parameter or an
input). Weight sharing needs no special casing: referencing one Tensor at
several graph sites makes the site gradients sum into a single gradient map
entry.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

GradMap = Dict["Tensor", np.ndarray]
# a node input as recorded: the producing node, a tracked leaf, or None
_Source = Union["_Node", "Tensor", None]

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
    A recorded op's output points at the node that produced it; nothing on
    the tape points back at the output.
    """

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else default_dtype())
        if any(extent < 1 for extent in arr.shape):
            raise ValueError(f"tensor extents must all be >= 1, got shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self._node: Optional["_Node"] = None

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
    """One recorded op: its backward closure and where each input came from.

    ``inputs`` holds, per op input, the node that produced it on the same
    tape, the input itself if it is a tracked leaf, or None. Both fields are
    cleared once the node is spent, so a tensor that outlives the tape (the
    trainer's logits or loss) holds no part of the graph.
    """

    __slots__ = ("inputs", "fn", "tape")

    def __init__(self, inputs: Tuple[_Source, ...], fn: Callable, tape: "Tape"):
        self.inputs: Optional[Tuple[_Source, ...]] = inputs
        self.fn: Optional[Callable] = fn
        self.tape = tape

    def free(self) -> None:
        self.inputs = self.fn = None


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

        Each node holds its backward closure plus, per input, the input's
        producer node or the tracked leaf itself; it holds no tensor of its
        own. So an activation stays alive only while a closure reads it: a
        conv or batch norm keeps its input, a ReLU its output, and an ``add``
        nothing. What backward needs beyond that, such as a conv's im2col
        columns or batch norm's normalized input, it computes again, so ops
        never write their recorded inputs in place. Nodes point at the tape
        and closures at tensors that point at their nodes, so an unreleased
        tape is a reference cycle holding the whole batch until the cycle
        collector happens to run; releasing frees every node's closure and
        inputs, which breaks the cycle and lets plain refcounting reclaim the
        batch at once. Idempotent.
        """
        for node in self.nodes:
            node.free()
        self.nodes.clear()
        self._spent = True

    def backward(self, loss: Tensor, retain: bool = False) -> GradMap:
        """Gradients of ``loss`` with respect to the tape's tracked leaves.

        The map holds d(loss)/d(tensor) for every reachable tracked tensor
        that no node on the tape produced (parameters and inputs). Inside,
        gradients are keyed by producer node, so an op output needs no
        reference from the tape; a node's gradient is dropped as soon as it
        has been passed on to the node's inputs. Without ``retain`` the tape
        is consumed: each node's closure and inputs are freed once its
        backward has run, so activations, closures and gradients go as soon
        as backward is past them, and the tape ends released even when a
        backward closure raises. With ``retain=True`` the nodes are kept, so
        backward can run again from a different scalar.
        """
        if self._spent:
            raise RuntimeError("tape has been released; record a new graph")
        if loss.data.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._node is None or loss._node.tape is not self:
            raise RuntimeError("loss was not produced on this tape")
        nodes = list(self.nodes) if retain else self.nodes
        grads: Dict[Union[_Node, Tensor], np.ndarray] = {loss._node: np.ones_like(loss.data)}
        try:
            while nodes:
                node = nodes.pop()
                gout = grads.pop(node, None)
                fn, inputs = node.fn, node.inputs
                if not retain:
                    node.free()
                if gout is None:
                    continue
                gins = fn(gout)
                for source, grad in zip(inputs, gins):
                    if source is None or grad is None:
                        continue
                    held = grads.get(source)
                    grads[source] = grad if held is None else held + grad
        finally:
            if not retain:
                self.release()
        return grads


def recording(*tensors: Optional[Tensor]) -> bool:
    """True when a tape is active and any argument tracks gradients."""
    if Tape._active is None:
        return False
    return any(t is not None and t.requires_grad for t in tensors)


def _source(tensor: Optional[Tensor], tape: Tape) -> _Source:
    """What a node records for one input: its producer on ``tape``, else the
    tensor itself when it tracks gradients, else None."""
    if tensor is None or not tensor.requires_grad:
        return None
    node = tensor._node
    return node if node is not None and node.tape is tape else tensor


def push(inputs: Sequence[Optional[Tensor]], out: Tensor, fn: Callable) -> None:
    """Record one operation on the active tape. Call only when recording().

    ``fn`` maps the output's gradient to one gradient (or None) per input. It
    must not capture ``out`` itself, which would make the output and its node
    a cycle; an op that reads its output captures ``out.data``.
    """
    tape = Tape._active
    out.requires_grad = True
    out._node = _Node(tuple(_source(t, tape) for t in inputs), fn, tape)
    tape.nodes.append(out._node)
