"""Step timestamps and layer spans, recorded from outside the wsmsnet package.

Both probes patch module and class attributes of ``wsmsnet`` while they are
installed and put the original objects back when they are removed:

* :class:`StepClock` (untraced runs) replaces one function,
  ``trainer.sgd_momentum_step``, with a wrapper that appends one timestamp
  when each optimiser step ends.
* :class:`Tracer` (traced runs) also records a span at every layer boundary:
  trainer -> data.augment, Model.forward -> image_pyramid, Stage.__call__,
  Conv2dLayer/BatchNorm -> ops.*, Tape.backward and sgd_momentum_step. Each
  backward closure an op hands to ``autodiff.push`` (as bound in
  ``wsmsnet.ops``) is wrapped too, so its time lands on the op kind, stage
  and conv layer that recorded it.

Every span carries the id of the unit of work it belongs to: ``("step", k)``
for the k-th optimiser step (0-based, counted from install) or
``("eval", k)`` for the k-th forward pass inside ``trainer.evaluate``.
"""

from __future__ import annotations

import ctypes
import functools
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# op function name -> reported op kind; backward closures of ops called
# outside any wrapped op are counted as "other"
OP_KINDS = {
    "conv2d": "conv2d",
    "batch_norm": "batch_norm",
    "relu": "relu",
    "add": "add",
    "avg_pool_half": "avg_pool_half",
    "concat_channels": "concat_channels",
    "subsample2": "shortcut",
    "pad_channels": "shortcut",
    "global_avg_pool": "head",
    "reshape": "head",
    "linear": "head",
    "softmax_cross_entropy": "head",
    "scale": "other",
}
STAGES = 3  # metric names cover stages 1..3; a smaller model reports 0 for the rest
REPORTED_KINDS = ("conv2d", "batch_norm", "relu", "add", "avg_pool_half",
                  "concat_channels", "shortcut", "head")
# module attribute -> the ops it binds by name, i.e. where model code looks them up
_OP_BINDINGS = {
    "layers": ("conv2d", "batch_norm", "linear"),
    "model": ("add", "avg_pool_half", "concat_channels", "global_avg_pool",
              "pad_channels", "relu", "reshape", "scale", "subsample2"),
    "trainer": ("softmax_cross_entropy",),
}


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def _heap_probe() -> Callable[[], int]:
    """Bytes the C allocator has handed out and not had back (glibc mallinfo2).

    Resident set size cannot show what a step holds: freed arrays stay
    resident in the allocator, so the next step's tape reuses them unseen.
    """
    try:
        mallinfo2 = ctypes.CDLL(None).mallinfo2
    except AttributeError as err:
        raise RuntimeError("tracing needs glibc's mallinfo2 to measure tape memory") from err
    mallinfo2.restype = _MallInfo2
    mallinfo2.argtypes = []

    def in_use() -> int:
        info = mallinfo2()
        return info.uordblks + info.hblkhd
    return in_use


class StepClock:
    """Timestamps the end of every ``trainer.sgd_momentum_step`` call."""

    def __init__(self):
        self.step_ends: List[float] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _patch(self, owner, name: str, make: Callable) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def _install(self) -> None:
        from wsmsnet import trainer

        def stamped(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                self.step_ends.append(time.perf_counter())
                return result
            return wrapper
        self._patch(trainer, "sgd_momentum_step", stamped)

    def __enter__(self):
        if self._saved:
            raise RuntimeError("probe is already installed")
        try:
            self._install()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    unit: Tuple[str, int] = ("step", 0)
    stage: int = 0                 # enclosing Stage index, 0 outside every stage
    layer: Optional[str] = None    # enclosing Conv2dLayer name (its cost-model layer_path)
    extra: Optional[dict] = None

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, list(self.unit),
                self.stage, self.layer, self.extra]


class Tracer(StepClock):
    """In-memory span recorder over the wsmsnet layer boundaries."""

    def __init__(self):
        super().__init__()
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._eval_depth = 0
        self._eval_batches = 0
        self._heap_bytes = _heap_probe()

    def _unit(self) -> Tuple[str, int]:
        if self._eval_depth:
            return ("eval", self._eval_batches)
        return ("step", len(self.step_ends))

    def open(self, name: str, stage: Optional[int] = None, layer: Optional[str] = None,
             extra: Optional[dict] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0:
            up = self.spans[parent]
            stage = up.stage if stage is None else stage
            layer = up.layer if layer is None else layer
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent=parent, unit=self._unit(),
                               stage=stage or 0, layer=layer, extra=extra))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def _spanned(self, name: str, before: Optional[Callable] = None,
                 after: Optional[Callable] = None) -> Callable:
        """Wrapper factory: run ``original`` inside a span called ``name``.

        ``before(args)`` returns the span's (stage, layer, extra);
        ``after(span)`` runs once the span has closed.
        """
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                stage, layer, extra = before(args) if before else (None, None, None)
                index = self.open(name, stage, layer, extra)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.close(index)
                    if after:
                        after(self.spans[index])
            return wrapper
        return make

    def _push(self, original):
        """Wrap each backward closure with a span naming the op that recorded it."""
        @functools.wraps(original)
        def push(inputs, out, fn):
            op = self.spans[self._stack[-1]] if self._stack else Span("ops.other", 0.0)
            name = "bwd." + (op.name[4:] if op.name.startswith("ops.") else "other")
            stage, layer = op.stage, op.layer
            extra = {"batch": out.shape[0]} if name == "bwd.conv2d" else None

            def closure(g):
                index = self.open(name, stage, layer, extra)
                try:
                    return fn(g)
                finally:
                    self.close(index)
            return original(inputs, out, closure)
        return push

    def _install(self) -> None:
        from wsmsnet import autodiff, layers, model, ops, trainer
        modules = {"layers": layers, "model": model, "trainer": trainer}
        for module_name, names in _OP_BINDINGS.items():
            for name in names:
                self._patch(modules[module_name], name, self._spanned("ops." + name))
        self._patch(ops, "push", self._push)

        def step_end(span):
            self.step_ends.append(span.end)

        def eval_open(args):
            self._eval_depth += 1
            return None, None, None

        def eval_close(span):
            self._eval_depth -= 1

        def forward_open(args):
            if self._eval_depth:
                self._eval_batches += 1
                return None, None, None
            return None, None, {"heap": self._heap_bytes()}

        def backward_open(args):
            return None, None, {"heap": self._heap_bytes(), "nodes": len(args[0].nodes)}

        self._patch(trainer, "train", self._spanned("trainer.train"))
        self._patch(trainer, "evaluate",
                    self._spanned("trainer.evaluate", eval_open, eval_close))
        self._patch(trainer, "sgd_momentum_step",
                    self._spanned("trainer.sgd_momentum_step", after=step_end))
        self._patch(trainer, "augment", self._spanned("data.augment"))
        self._patch(trainer, "save_checkpoint", self._spanned("model.save_checkpoint"))
        self._patch(model, "image_pyramid", self._spanned("model.image_pyramid"))
        self._patch(model.Model, "forward", self._spanned("model.forward", forward_open))
        self._patch(model.Stage, "__call__",
                    self._spanned("model.stage", lambda a: (a[0].index, None, None)))
        self._patch(layers.Conv2dLayer, "__call__", self._spanned(
            "layers.conv",
            lambda a: (None, a[0].name, {"kernel": a[0].kernel, "batch": a[1].shape[0]})))
        self._patch(layers.BatchNorm, "__call__", self._spanned("layers.bn"))
        self._patch(autodiff.Tape, "backward",
                    self._spanned("autodiff.backward", backward_open))


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: List[List[Tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: Sequence[Span], units: Sequence[Tuple[str, int]],
                  unit_seconds: Sequence[float],
                  cost_rows) -> Tuple[Dict[str, float], List[dict]]:
    """Per-layer metrics over the timed ``units`` and the per-conv cost join.

    Seconds and counts are medians over the units of their per-unit sums;
    ``unit_seconds[i]`` is the measured wall time of ``units[i]``. Achieved
    rates divide work by time summed over all units, counting a conv's
    backward as twice its forward multiplications. ``cost_rows`` are
    ``cost.cost_report`` rows; each runtime Conv2dLayer call joins its row on
    (layer_path, stage), with stage 0 for the head.
    """
    slot_of = {tuple(u): i for i, u in enumerate(units)}
    per_unit: List[Dict[str, float]] = [{} for _ in units]
    mults = {(r.path, r.stage): r.mults for r in cost_rows if r.kind == "conv"}
    conv: Dict[Tuple[str, int], Dict[str, float]] = {}
    op_conv_s = 0.0
    evaluate_s, checkpoint_s = [], []

    for span, own in zip(spans, self_times(spans)):
        dur = span.end - span.start
        if span.name == "trainer.evaluate":
            evaluate_s.append(dur)
        elif span.name == "model.save_checkpoint":
            checkpoint_s.append(dur)
        slot = slot_of.get(tuple(span.unit))
        if slot is None:
            continue
        tot = per_unit[slot]

        def add(key, value, tot=tot):
            tot[key] = tot.get(key, 0.0) + value

        kind = OP_KINDS.get(span.name[4:], "other")
        if span.name.startswith("ops."):
            add(f"ops.{kind}.fwd_s", dur)
            add(f"ops.{kind}.calls", 1)
            if span.name == "ops.softmax_cross_entropy":
                add("loss_s", dur)
        elif span.name.startswith("bwd."):
            add(f"ops.{kind}.bwd_s", dur)
            add(f"model.stage{span.stage}.bwd_s" if span.stage else "model.head.bwd_s", dur)
        elif span.name == "model.stage":
            add(f"model.stage{span.stage}.fwd_s", dur)
        elif span.name == "model.image_pyramid":
            add("model.pyramid.fwd_s", dur)
        elif span.name == "model.forward":
            add("forward_s", dur)
            if span.extra:
                add("heap_forward", span.extra["heap"])
        elif span.name == "autodiff.backward":
            add("autodiff.backward_s", dur)
            add("autodiff.backward_self_s", own)
            add("autodiff.tape_nodes", span.extra["nodes"])
            add("heap_backward", span.extra["heap"])
        elif span.name == "trainer.sgd_momentum_step":
            add("trainer.sgd_step_s", dur)
        elif span.name == "data.augment":
            add("data.augment_s", dur)

        if span.name in ("layers.conv", "bwd.conv2d"):
            key = (span.layer, span.stage)
            row = conv.setdefault(key, {"fwd_s": 0.0, "bwd_s": 0.0, "work": 0.0})
            backward = span.name == "bwd.conv2d"
            row["bwd_s" if backward else "fwd_s"] += dur
            row["work"] += (2 if backward else 1) * mults[key] * span.extra["batch"]
            if not backward:
                row["kernel"] = span.extra["kernel"]
        if span.name in ("ops.conv2d", "bwd.conv2d"):
            op_conv_s += dur

    for tot, seconds in zip(per_unit, unit_seconds):
        stage_fwd = sum(tot.get(f"model.stage{s}.fwd_s", 0.0) for s in range(1, STAGES + 1))
        tot["model.head.fwd_s"] = (tot.get("forward_s", 0.0) - tot.get("model.pyramid.fwd_s", 0.0)
                                   - stage_fwd + tot.get("loss_s", 0.0))
        covered = (tot.get("forward_s", 0.0) + tot.get("loss_s", 0.0)
                   + tot.get("autodiff.backward_s", 0.0) + tot.get("trainer.sgd_step_s", 0.0)
                   + tot.get("data.augment_s", 0.0))
        tot["trainer.step_other_s"] = seconds - covered
        tot["trace.step_coverage"] = covered / seconds
        if "heap_backward" in tot:
            tot["autodiff.tape_mb"] = (tot["heap_backward"] - tot["heap_forward"]) / 2 ** 20
        for s in range(1, STAGES + 1):
            tot[f"stage{s}_s"] = (tot.get(f"model.stage{s}.fwd_s", 0.0)
                                  + tot.get(f"model.stage{s}.bwd_s", 0.0))

    def med(key):
        return _median(tot.get(key, 0.0) for tot in per_unit)

    def rate(rows):
        rows = list(rows)
        seconds = sum(r["fwd_s"] + r["bwd_s"] for r in rows)
        return sum(r["work"] for r in rows) / seconds / 1e9 if seconds else 0.0

    metrics: Dict[str, float] = {}
    for kind in REPORTED_KINDS:
        for part in ("calls", "fwd_s", "bwd_s"):
            metrics[f"ops.{kind}.{part}"] = med(f"ops.{kind}.{part}")
    op_conv_work = sum(r["work"] for r in conv.values())
    metrics["ops.conv2d.gmult_per_s"] = op_conv_work / op_conv_s / 1e9 if op_conv_s else 0.0
    for k in (3, 1):
        metrics[f"layers.conv{k}x{k}.gmult_per_s"] = rate(
            r for r in conv.values() if r.get("kernel") == k)
    for s in range(1, STAGES + 1):
        metrics[f"layers.conv.stage{s}.gmult_per_s"] = rate(
            r for (_, stage), r in conv.items() if stage == s)
    metrics["model.pyramid.fwd_s"] = med("model.pyramid.fwd_s")
    for s in range(1, STAGES + 1):
        metrics[f"model.stage{s}.fwd_s"] = med(f"model.stage{s}.fwd_s")
        metrics[f"model.stage{s}.bwd_s"] = med(f"model.stage{s}.bwd_s")
    metrics["model.head.fwd_s"] = med("model.head.fwd_s")
    metrics["model.head.bwd_s"] = med("model.head.bwd_s")
    metrics["model.checkpoint_s"] = _median(checkpoint_s)
    base = med("stage1_s")
    for s in range(2, STAGES + 1):
        metrics[f"model.stage{s}.time_overhead"] = med(f"stage{s}_s") / base if base else 0.0
    for key in ("autodiff.tape_nodes", "autodiff.backward_s", "autodiff.backward_self_s",
                "autodiff.tape_mb", "trainer.sgd_step_s", "trainer.step_other_s",
                "data.augment_s", "trace.step_coverage"):
        metrics[key] = med(key)
    metrics["trainer.evaluate_s"] = _median(evaluate_s)

    count = max(len(units), 1)
    rows = []
    for r in cost_rows:
        timed = conv.get((r.path, r.stage))
        if r.kind != "conv" or timed is None:
            continue
        seconds = timed["fwd_s"] + timed["bwd_s"]
        rows.append({"layer_path": r.path, "stage": r.stage, "kernel": timed["kernel"],
                     "fwd_s": timed["fwd_s"] / count, "bwd_s": timed["bwd_s"] / count,
                     "mults_per_example": r.mults,
                     "gmult_per_s": timed["work"] / seconds / 1e9 if seconds else 0.0})
    return metrics, rows
