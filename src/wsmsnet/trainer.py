"""Training and evaluation: momentum SGD, step schedules, metrics, dumps.

Determinism contract: batch order derives from (seed, epoch), per-example
augmentation from (seed, epoch, example id), so identical seeds reproduce
identical parameter trajectories and metrics bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .autodiff import Tape, Tensor
from .data import Dataset, augment
from .layers import ParamStore
from .model import Model, save_checkpoint
from .ops import softmax_cross_entropy

RESNET_SCHEDULE = ((1, 0.01), (2, 0.1), (82, 0.01), (123, 0.001))
DENSENET_SCHEDULE = ((1, 0.1), (150, 0.01), (225, 0.001))


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, batch: int, value: float):
        super().__init__(f"non-finite loss {value} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 128
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_schedule: Tuple[Tuple[int, float], ...] = ((1, 0.1),)
    seed: int = 0
    augment: bool = False
    eval_every: int = 1
    decay_bn: bool = True

    def validate(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not self.lr_schedule:
            raise ValueError("lr_schedule must hold at least one (epoch, lr) pair")
        prev = 0
        for epoch, lr in self.lr_schedule:
            if epoch <= prev:
                raise ValueError("lr_schedule epochs must be strictly increasing from 1")
            if lr <= 0:
                raise ValueError(f"learning rates must be positive, got {lr}")
            prev = epoch
        if self.lr_schedule[0][0] != 1:
            raise ValueError("lr_schedule must start at epoch 1")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @staticmethod
    def from_dict(cfg: dict) -> "TrainConfig":
        known = {f.name for f in TrainConfig.__dataclass_fields__.values()}
        unknown = set(cfg) - known
        if unknown:
            raise ValueError(f"unknown train config keys: {sorted(unknown)}")
        if "lr_schedule" in cfg:
            cfg = dict(cfg)
            cfg["lr_schedule"] = tuple((int(e), float(lr)) for e, lr in cfg["lr_schedule"])
        tc = TrainConfig(**cfg)
        tc.validate()
        return tc


@dataclass
class MetricsRecord:
    epoch: int
    lr: Optional[float]
    train_loss: Optional[float]
    train_error: Optional[float]
    test_error: Optional[float]
    wallclock: float = field(default=0.0, compare=False)

    def serializable(self) -> dict:
        # wallclock stays out so metrics files from equal seeds are identical
        d = asdict(self)
        d.pop("wallclock")
        return d


def lr_at(schedule: Sequence[Tuple[int, float]], epoch: int) -> float:
    """Piecewise-constant, left-closed step schedule over 1-based epochs."""
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1, got {epoch}")
    current = None
    for start, lr in schedule:
        if epoch >= start:
            current = lr
        else:
            break
    if current is None:
        raise ValueError(f"schedule {schedule!r} does not cover epoch {epoch}")
    return current


def sgd_momentum_step(params: ParamStore, grads: dict, velocity: Dict[int, np.ndarray],
                      lr: float, momentum: float, weight_decay: float,
                      decay_bn: bool = True) -> None:
    """v <- momentum*v + grad + wd*param; param <- param - lr*v.

    Every store entry must have a gradient; a shared parameter therefore
    receives exactly one update per step. ``velocity`` is keyed by ParamId
    and owned by the caller.
    """
    for entry in params.entries():
        grad = grads.get(entry.tensor)
        if grad is None:
            raise RuntimeError(f"missing gradient for parameter {entry.name!r} "
                               f"(ParamId {entry.pid})")
        wd = weight_decay if (decay_bn or entry.role != "bn") else 0.0
        step = grad + wd * entry.tensor.data if wd else grad
        v = velocity.get(entry.pid)
        velocity[entry.pid] = step if v is None else momentum * v + step
        entry.tensor.data -= lr * velocity[entry.pid]


def _iter_batches(n: int, batch_size: int, order: np.ndarray) -> Iterable[np.ndarray]:
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def evaluate(model: Model, ds: Dataset, batch_size: int = 256):
    """Eval-mode error rate and a per-example prediction dump ordered by id.

    Returns (error_percent, rows) with rows of (id, true, pred, correct).
    Argmax ties resolve to the lowest class index.
    """
    if ds.class_count != model.class_count:
        raise ValueError(f"dataset has {ds.class_count} classes, model expects "
                         f"{model.class_count}")
    order = np.argsort(ds.ids, kind="stable")
    wrong = 0
    rows = []
    for batch in _iter_batches(len(ds), batch_size, order):
        logits = model.forward(Tensor(ds.images[batch]), training=False)
        preds = logits.data.argmax(axis=1)
        for i, p in zip(batch, preds):
            truth = int(ds.labels[i])
            rows.append((int(ds.ids[i]), truth, int(p), int(p == truth)))
            wrong += int(p != truth)
    return 100.0 * wrong / len(ds), rows


def write_pred_dump(path, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id", "true", "pred", "correct"])
        writer.writerows(rows)


def read_pred_dump(path) -> List[Tuple[int, int, int, int]]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != ["id", "true", "pred", "correct"]:
            raise ValueError(f"{path}: unexpected prediction dump header {header}")
        return [(int(a), int(b), int(c), int(d)) for a, b, c, d in reader]


def compare_preds(baseline_rows: Sequence[Sequence[Tuple[int, int, int, int]]],
                  target_rows: Sequence[Tuple[int, int, int, int]]) -> List[int]:
    """Ids every baseline got wrong but the target got right, ascending."""
    if not baseline_rows:
        raise ValueError("compare_preds needs at least one baseline dump")
    wrong_everywhere = None
    for rows in baseline_rows:
        wrong = {r[0] for r in rows if not r[3]}
        wrong_everywhere = wrong if wrong_everywhere is None else wrong_everywhere & wrong
    right_in_target = {r[0] for r in target_rows if r[3]}
    return sorted(wrong_everywhere & right_in_target)


def train(model: Model, train_ds: Dataset, config: TrainConfig,
          eval_ds: Optional[Dataset] = None, run_dir=None,
          log_fn=None) -> List[MetricsRecord]:
    """Momentum-SGD training loop with deterministic shuffling and augmentation.

    Emits one MetricsRecord per epoch (plus an initial epoch-0 evaluation) and,
    when ``run_dir`` is given, writes metrics.jsonl, checkpoint-final.npz, and
    checkpoint-best.npz (lowest test error, earliest on ties).
    """
    config.validate()
    if train_ds.class_count != model.class_count:
        raise ValueError(f"dataset has {train_ds.class_count} classes, model expects "
                         f"{model.class_count}")
    run_dir = Path(run_dir) if run_dir is not None else None
    metrics_file = None
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
        metrics_file = open(run_dir / "metrics.jsonl", "w")

    def emit(record: MetricsRecord) -> None:
        if metrics_file is not None:
            metrics_file.write(json.dumps(record.serializable()) + "\n")
            metrics_file.flush()
        if log_fn is not None:
            log_fn(record)

    records: List[MetricsRecord] = []
    velocity: Dict[int, np.ndarray] = {}
    start = time.perf_counter()
    best_error = math.inf
    n = len(train_ds)
    try:
        test_error = evaluate(model, eval_ds)[0] if eval_ds is not None else None
        records.append(MetricsRecord(0, None, None, None, test_error,
                                     time.perf_counter() - start))
        emit(records[-1])
        if run_dir is not None and test_error is not None:
            best_error = test_error
            save_checkpoint(model, run_dir / "checkpoint-best.npz")
        for epoch in range(1, config.epochs + 1):
            lr = lr_at(config.lr_schedule, epoch)
            order = np.random.default_rng((config.seed, epoch)).permutation(n)
            loss_sum = 0.0
            wrong = 0
            for batch_index, batch in enumerate(_iter_batches(n, config.batch_size, order)):
                images = train_ds.images[batch]
                if config.augment:
                    images = np.stack([
                        augment(img, np.random.default_rng(
                            (config.seed, epoch, int(train_ds.ids[i]))))
                        for img, i in zip(images, batch)])
                labels = train_ds.labels[batch]
                with Tape() as tape:
                    logits = model.forward(Tensor(images), training=True)
                    loss = softmax_cross_entropy(logits, labels)
                    value = loss.item()
                    if not math.isfinite(value):
                        raise DivergenceError(epoch, batch_index, value)
                    grads = tape.backward(loss)
                sgd_momentum_step(model.store, grads, velocity, lr,
                                  config.momentum, config.weight_decay, config.decay_bn)
                loss_sum += value * len(batch)
                wrong += int((logits.data.argmax(axis=1) != labels).sum())
            test_error = None
            if eval_ds is not None and (epoch % config.eval_every == 0
                                        or epoch == config.epochs):
                test_error = evaluate(model, eval_ds)[0]
            record = MetricsRecord(epoch, lr, loss_sum / n, 100.0 * wrong / n,
                                   test_error, time.perf_counter() - start)
            records.append(record)
            emit(record)
            if run_dir is not None and test_error is not None and test_error < best_error:
                best_error = test_error
                save_checkpoint(model, run_dir / "checkpoint-best.npz")
        if run_dir is not None:
            save_checkpoint(model, run_dir / "checkpoint-final.npz")
    finally:
        if metrics_file is not None:
            metrics_file.close()
    return records
